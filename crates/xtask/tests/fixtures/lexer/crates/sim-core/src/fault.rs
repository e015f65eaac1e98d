pub enum FaultSite {
    /// In a preset and the matrix, hooked only inside literals: F1.
    Ghost,
}

impl FaultPlan {
    pub fn preset() -> FaultPlan {
        FaultPlan::quiet().with_ppm(FaultSite::Ghost, 10)
    }
}
