// lint: allow(S1): stale — nothing on the next line opens a context
pub fn clean() {}

// lint: allow(D3): malformed — D3 is a clippy lint, not an xtask rule
pub fn also_clean() {}

#[cfg(test)]
mod tests {
    // lint: allow(S1): waivers inside test items are exempt from the audit
    #[test]
    fn nothing() {}
}
