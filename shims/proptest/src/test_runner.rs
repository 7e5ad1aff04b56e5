//! Case execution: configuration, per-case RNG, error type, runner.

use std::fmt;

/// Runner configuration (the subset of `ProptestConfig` we need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; these integration properties
        // exercise whole solver/simulator pipelines per case, so a
        // smaller deterministic default keeps `cargo test` snappy while
        // still covering a broad input sample.
        ProptestConfig { cases: 64 }
    }
}

/// A failed (not panicked) test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fails the current case with a message.
    pub fn fail(message: impl fmt::Display) -> Self {
        TestCaseError(message.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Deterministic per-case random source (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for case `index` of the test named `name`. The seed is a
    /// hash of both, so every case replays bit-for-bit across runs.
    pub fn for_case(name: &str, index: u32) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.as_bytes() {
            seed ^= *b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        seed ^= index as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        TestRng { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Drives one property over its configured number of cases.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    name: &'static str,
}

impl TestRunner {
    /// Creates a runner for the test named `name`.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        TestRunner { config, name }
    }

    /// Runs `case` once per configured case. The closure returns the
    /// rendered inputs (for diagnostics) and the case outcome; the first
    /// failure panics with the inputs and the deterministic case index.
    pub fn run(
        &mut self,
        mut case: impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
    ) {
        for index in 0..self.config.cases {
            let mut rng = TestRng::for_case(self.name, index);
            let (inputs, outcome) = case(&mut rng);
            if let Err(e) = outcome {
                panic!(
                    "proptest `{}` failed at case {}/{}: {}\ninputs:{}",
                    self.name, index, self.config.cases, e, inputs
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = TestRng::for_case("t", 0);
        let mut b = TestRng::for_case("t", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 1);
        assert_ne!(a.next_u64(), c.next_u64());
        let mut d = TestRng::for_case("u", 0);
        let mut e = TestRng::for_case("t", 0);
        assert_ne!(d.next_u64(), e.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn runner_panics_on_failure_with_case_index() {
        let mut r = TestRunner::new(ProptestConfig::with_cases(3), "boom");
        r.run(|_rng| ("\n  x = 1".to_owned(), Err(TestCaseError::fail("nope"))));
    }

    #[test]
    fn runner_counts_cases() {
        let mut r = TestRunner::new(ProptestConfig::with_cases(5), "count");
        let mut n = 0;
        r.run(|_| {
            n += 1;
            (String::new(), Ok(()))
        });
        assert_eq!(n, 5);
    }
}
