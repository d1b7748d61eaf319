//! Helpers shared by the integration-test binaries.

/// Case diversification for the CI seed matrix: when `CHAOS_SEED` is set,
/// `base` is mixed with it so each matrix leg sweeps a genuinely different
/// (but still fully deterministic) run. A value that does not parse is a
/// broken matrix leg, so it panics instead of rerunning the default cases.
pub fn seed(base: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let mix = s.trim().parse::<u64>().expect("CHAOS_SEED must be a u64");
            base ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        Err(_) => base,
    }
}
