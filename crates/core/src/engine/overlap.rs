//! Gating sampling on a helper thread, overlapped with the layer loop.
//!
//! Layer `l` of a step needs only layers `..=l` sampled, and the sampler
//! owns its random streams and cached distributions and reads nothing the
//! layer loop writes. So a step can sample on one scoped helper thread,
//! which hands finished runs of [`SAMPLING_RUN`] layers to the calling
//! thread, while the calling thread runs the layer loop on them in layer
//! order. Both threads do exactly the work the serial driver does, in the
//! same order each, so the step's output is the same bit for bit.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use moe_workload::{LayerGating, LayerSampler};

/// Layers the sampler hands to the layer loop at a time.
pub(super) const SAMPLING_RUN: usize = 8;

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

/// Finished runs the queue holds before the sampler waits for the layer
/// loop.
const HANDOFF_DEPTH: usize = 4;

/// How long the layer loop spins for the next run before it sleeps: about
/// the time the sampler takes to draw one run on the wafer workloads. A
/// thread that sleeps and is woken for every run tends to be woken on the
/// sampler's core, where the two then share one core while the other idles.
/// The spin burns only the step's own core: the helper runs only while
/// [`CoreClaim`] finds another free.
const SPIN_BEFORE_SLEEP: Duration = Duration::from_micros(250);

/// Draws `sampler`'s layers on a scoped helper thread and passes each
/// finished run to `consume` on the calling thread, in layer order.
pub(super) fn sample_overlapped<'t>(
    sampler: LayerSampler<'t>,
    mut consume: impl FnMut(&'t [LayerGating]),
) {
    let handoff = Handoff::default();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _close = CloseOnDrop(&handoff);
            sampler.sample(SAMPLING_RUN, |run| handoff.send(run));
        });
        let _close = CloseOnDrop(&handoff);
        while let Some(run) = handoff.recv() {
            consume(run);
        }
    });
}

/// A bounded queue of finished layer runs from the sampling helper to the
/// calling thread. It is a mutex and a condition variable over a fixed
/// ring, so neither side allocates: the helper's first allocation would
/// give it a malloc arena of its own. Either side closes it when it stops,
/// by panicking too, so the other never waits on it for ever.
#[derive(Default)]
struct Handoff<'t> {
    state: Mutex<HandoffState<'t>>,
    /// Signalled on every change of `state`.
    changed: Condvar,
    /// Whether a run is queued or the queue is closed: written under the
    /// lock, read without it by the spinning consumer. Only a hint (the
    /// consumer then reads the runs under the lock), so it orders nothing
    /// and is `Relaxed`.
    ready: AtomicBool,
}

#[derive(Default)]
struct HandoffState<'t> {
    ring: [&'t [LayerGating]; HANDOFF_DEPTH],
    /// Index in `ring` of the oldest queued run.
    head: usize,
    queued: usize,
    closed: bool,
}

impl<'t> Handoff<'t> {
    fn lock(&self) -> MutexGuard<'_, HandoffState<'t>> {
        // Nothing panics while holding the lock, and every update leaves
        // the state valid; `CloseOnDrop` must not panic either way.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `run`, waiting while the ring is full. Drops it if the
    /// consumer has closed the queue.
    fn send(&self, run: &'t [LayerGating]) {
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| s.queued == HANDOFF_DEPTH && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return;
        }
        let tail = (state.head + state.queued) % HANDOFF_DEPTH;
        state.ring[tail] = run;
        state.queued += 1;
        self.ready.store(true, Ordering::Relaxed);
        drop(state);
        self.changed.notify_one();
    }

    /// The oldest queued run, waiting for one while the queue is open
    /// (spinning first, then asleep); `None` once it is closed and drained.
    fn recv(&self) -> Option<&'t [LayerGating]> {
        let spin_start = Instant::now();
        while !self.ready.load(Ordering::Relaxed) && spin_start.elapsed() < SPIN_BEFORE_SLEEP {
            std::hint::spin_loop();
        }
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| s.queued == 0 && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if state.queued == 0 {
            return None;
        }
        let run = state.ring[state.head];
        state.head = (state.head + 1) % HANDOFF_DEPTH;
        state.queued -= 1;
        self.ready
            .store(state.queued > 0 || state.closed, Ordering::Relaxed);
        drop(state);
        self.changed.notify_one();
        Some(run)
    }
}

/// Closes a [`Handoff`] when dropped.
struct CloseOnDrop<'h, 't>(&'h Handoff<'t>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.ready.store(true, Ordering::Relaxed);
        self.0.changed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(n: usize) -> Vec<LayerGating> {
        (0..n)
            .map(|i| LayerGating {
                counts: vec![vec![i as u32]],
            })
            .collect()
    }

    #[test]
    fn a_helper_core_is_claimed_only_while_one_is_free() {
        let busy = AtomicUsize::new(1);
        assert!(claim_free_core(&busy, 2));
        assert!(!claim_free_core(&busy, 2));
        assert_eq!(busy.load(Ordering::Relaxed), 2);
        assert!(!claim_free_core(&AtomicUsize::new(1), 1));
    }

    #[test]
    fn handoff_delivers_runs_in_order_past_its_depth() {
        let all = layers(3 * HANDOFF_DEPTH + 1);
        let handoff = Handoff::default();
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _close = CloseOnDrop(&handoff);
                for run in all.chunks(1) {
                    handoff.send(run);
                }
            });
            while let Some(run) = handoff.recv() {
                seen.extend(run.iter().map(|g| g.counts[0][0]));
            }
        });
        assert_eq!(seen, (0..all.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn a_closed_consumer_releases_a_blocked_producer() {
        let all = layers(3 * HANDOFF_DEPTH);
        let handoff = Handoff::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for run in all.chunks(1) {
                    handoff.send(run);
                }
            });
            // Take one run, then stop: the producer must not block for
            // ever on the full ring.
            assert!(handoff.recv().is_some());
            drop(CloseOnDrop(&handoff));
        });
    }
}
