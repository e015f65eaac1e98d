// Fixture: the waived and out-of-scope forms of an environment read —
// zero violations expected. `env::args` and the `env!` macro are not
// reads of ambient configuration.
pub fn read(var: &str) -> Option<String> {
    // lint: allow(D4): the strict parser's one reader
    std::env::var(var).ok()
}

pub fn argv0() -> Option<String> {
    let _built_in = env!("CARGO_MANIFEST_DIR");
    std::env::args().next()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_environment() {
        assert!(std::env::var("NO_SUCH_VAR_FOR_TEST").is_err());
    }
}
