//! Gating sampling shared with a helper thread, overlapped with the layer
//! loop.
//!
//! Layer `l` of a step needs only layers `..=l` sampled, and the sampler
//! owns its random streams and cached distributions and reads nothing the
//! layer loop writes. So a step can share the draw with one scoped helper
//! thread while the calling thread runs the layer loop in layer order. The
//! draw is split into cells of one layer each, drawn in layer order by
//! whichever thread takes the next one first
//! ([`moe_workload::SharedDraw`]): the helper draws cells until none is
//! left, and the calling thread, whenever the layer it needs next is not
//! drawn yet, draws a cell itself instead of waiting. Each group's stream
//! is consumed in layer order whichever thread draws it, so the step's
//! output is the same bit for bit as the serial driver's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use moe_workload::{CellDraw, LayerGating, LayerSampler};

/// Gating counts (sparse layers × DP groups × experts) above which a step
/// samples on a helper thread when a core is free. On a 2-core x86-64 host
/// a scoped spawn and join took about 30 µs, the helper started 60–90 µs
/// into the step, and a count took about 12 ns to draw. The overlap
/// hides the layer loop but for its last run, so it pays only once a step
/// has a few runs of real work. Over 600 alternating serial and overlapped
/// steps of Qwen3-235B-shaped engines on the analytic tier (4 groups × 128
/// experts, median per-pair time ratio), pricing every 8th layer it broke
/// even at 16,384 counts (1.00) and won from 20,480 (0.96; 0.92 at 24,576,
/// 0.89 at 48,128); pricing every layer it lost up to 32,768 (1.09) and won
/// at 48,128 (0.84). Qwen3-235B on a 4-group wafer draws 48,128 counts a
/// step; the tiny preset draws 256.
pub(super) const MIN_OVERLAPPED_COUNTS: usize = 20_480;

/// The size rule: whether a step drawing `counts` gating counts is large
/// enough to sample on a helper thread.
pub(super) fn overlaps(counts: usize) -> bool {
    counts > MIN_OVERLAPPED_COUNTS
}

/// Cores this process's engine steps occupy right now: one for each step
/// in flight and one for each sampling helper.
static BUSY_CORES: AtomicUsize = AtomicUsize::new(0);

/// The cores one engine step occupies while it runs, released on drop.
pub(super) struct CoreClaim {
    helper: bool,
}

impl CoreClaim {
    /// Claims the calling thread's core for a step, and a second core for
    /// a sampling helper if `large` (the size rule holds) and some core is
    /// occupied by no step or helper of this process. Steps running at
    /// once on a worker pool as wide as the host so sample on their own
    /// threads, instead of each adding a helper that competes with the
    /// other workers.
    pub(super) fn take(large: bool) -> Self {
        // Read once per process: the read parses cgroup files, which would
        // cost every step tens to hundreds of microseconds.
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        BUSY_CORES.fetch_add(1, Ordering::Relaxed);
        CoreClaim {
            helper: large && claim_free_core(&BUSY_CORES, cores),
        }
    }

    /// Whether the step may sample on a helper thread.
    pub(super) fn helper(&self) -> bool {
        self.helper
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        BUSY_CORES.fetch_sub(1 + usize::from(self.helper), Ordering::Relaxed);
    }
}

/// Counts one more busy core in `busy` if fewer than `cores` are busy.
fn claim_free_core(busy: &AtomicUsize, cores: usize) -> bool {
    busy.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
        (n < cores).then_some(n + 1)
    })
    .is_ok()
}

/// Which cells of a shared draw the calling thread draws.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CallerCells {
    /// Any free cell, whenever the layer the caller needs next is not
    /// drawn yet; the helper draws the others.
    WhenWaiting,
    /// The cells whose layer the predicate picks; the helper draws the
    /// rest. A fixed split, so that a test can check that the output does
    /// not depend on who draws what.
    #[cfg_attr(not(test), allow(dead_code))]
    Fixed(fn(usize) -> bool),
}

impl CallerCells {
    /// Whether the thread (the caller if `caller`) may draw the cell of
    /// `layer`.
    fn mine(self, caller: bool, layer: usize) -> bool {
        match self {
            CallerCells::WhenWaiting => true,
            CallerCells::Fixed(callers) => callers(layer) == caller,
        }
    }
}

/// Waits before a thread that found no free cell tries again: a burst of
/// spin-loop hints that ends early once `done`, or, once the thread has
/// waited long, a yield of its core. The burst reads only what `done`
/// reads: a try at the streams' lock would write the lock's cache line
/// while the other thread holds and releases it.
fn pause(waited: &mut u32, done: impl Fn() -> bool) {
    if *waited >= SPINS_BEFORE_YIELD {
        std::thread::yield_now();
        return;
    }
    for _ in 0..SPIN_BURST {
        if done() {
            return;
        }
        std::hint::spin_loop();
    }
    *waited += SPIN_BURST;
}

/// Spin-loop hints between two tries for a free cell.
const SPIN_BURST: u32 = 64;

/// Spin-loop hints a waiting thread issues before it yields its core. A
/// wait normally lasts the rest of one cell the other thread is drawing,
/// a few microseconds.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

/// Draws `sampler`'s layers on this thread and a scoped helper thread, and
/// passes each drawn layer to `consume` on this thread, in layer order.
/// `split` says which cells this thread draws.
pub(super) fn sample_overlapped(
    sampler: LayerSampler<'_>,
    split: CallerCells,
    mut consume: impl FnMut(&LayerGating),
) {
    let (draw, mut outlet) = sampler.share();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _abandon = draw.abandon_on_panic();
            let mut waited = 0;
            loop {
                match draw.draw_free_cell(|layer| split.mine(false, layer)) {
                    CellDraw::Drawn => waited = 0,
                    CellDraw::Busy => pause(&mut waited, || false),
                    CellDraw::Finished => return,
                }
            }
        });
        let _abandon = draw.abandon_on_panic();
        for layer in 0..outlet.num_layers() {
            let mut waited = 0;
            while !draw.layer_drawn(layer) {
                match draw.draw_free_cell(|next| split.mine(true, next)) {
                    CellDraw::Drawn => waited = 0,
                    CellDraw::Busy => pause(&mut waited, || draw.layer_drawn(layer)),
                    // Every cell is drawn (the layer is too, by now), or
                    // the helper panicked and the scope re-raises it.
                    CellDraw::Finished if draw.abandoned() => return,
                    CellDraw::Finished => {}
                }
            }
            consume(outlet.next_layer());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_helper_core_is_claimed_only_while_one_is_free() {
        let busy = AtomicUsize::new(1);
        assert!(claim_free_core(&busy, 2));
        assert!(!claim_free_core(&busy, 2));
        assert_eq!(busy.load(Ordering::Relaxed), 2);
        assert!(!claim_free_core(&AtomicUsize::new(1), 1));
    }
}
