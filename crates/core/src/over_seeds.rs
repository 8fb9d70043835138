//! Claims about a stochastic outcome checked over a fixed set of seeds
//! rather than at one pinned seed, so a change to the random streams
//! cannot flip them by moving one realization. Shared by the in-crate
//! tests and the workspace integration tests (which include this file by
//! path).

use std::ops::Range;

/// Checks `claim` at every seed of `seeds` and panics unless it holds on
/// at least `at_least` of them, naming the seeds it failed at.
pub fn over_seeds(seeds: Range<u64>, at_least: usize, mut claim: impl FnMut(u64) -> bool) {
    let total = seeds.clone().count();
    let failed: Vec<u64> = seeds.filter(|&seed| !claim(seed)).collect();
    let held = total - failed.len();
    assert!(
        held >= at_least,
        "claim held on {held} of {total} seeds, below {at_least}; failed at {failed:?}"
    );
}
