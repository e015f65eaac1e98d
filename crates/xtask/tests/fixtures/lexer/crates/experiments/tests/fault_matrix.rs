const ROWS: [FaultSite; 1] = [FaultSite::Ghost];
