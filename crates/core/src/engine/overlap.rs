//! Gating sampling shared with a sampling worker, overlapped with the layer
//! loop.
//!
//! Layer `l` of a step needs only layers `..=l` sampled, and the sampler
//! owns its random streams and cached distributions and reads nothing the
//! layer loop writes. So a step can share the draw with one helper thread
//! while the calling thread runs the layer loop in layer order. The draw
//! is split into cells of one layer each, drawn in layer order by
//! whichever thread takes the next one first
//! ([`moe_workload::SharedDraw`]): the helper draws cells until none is
//! left, and the calling thread, whenever the layer it needs next is not
//! drawn yet, draws a cell itself instead of waiting. Each group's stream
//! is consumed in layer order whichever thread draws it, so the step's
//! output is the same bit for bit as the serial driver's.
//!
//! The helper is a [`Worker`]: a thread of a process-wide pool that
//! persists across steps, spawned on the first step that needs it. Once
//! the last cell is drawn it mixes every layer's distribution for the
//! generator's next iteration ([`moe_workload::SharedDraw::mix_ahead`])
//! while the calling thread closes the step, so the next step's draw finds
//! them mixed.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use moe_workload::{CellDraw, LayerGating, LayerSampler, SharedDraw};

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
    helper: Option<Lease>,
}

impl CoreClaim {
    /// Claims the calling thread's core for a step, and a second core and
    /// a worker to run on it if `large` (the size rule holds) and some
    /// core is occupied by no step or helper of this process. Steps running
    /// at once on a worker pool as wide as the host so sample on their own
    /// threads, instead of each adding a helper that competes with the
    /// other workers.
    pub(super) fn take(large: bool) -> Self {
        // Read once per process: the read parses cgroup files, which would
        // cost every step tens to hundreds of microseconds.
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        BUSY_CORES.fetch_add(1, Ordering::Relaxed);
        let helper = (large && claim_free_core(&BUSY_CORES, cores)).then(|| {
            let lease = Lease::take();
            if lease.is_none() {
                BUSY_CORES.fetch_sub(1, Ordering::Relaxed);
            }
            lease
        });
        CoreClaim {
            helper: helper.flatten(),
        }
    }

    /// The worker the step may share its draw with.
    pub(super) fn helper(&self) -> Option<&Worker> {
        self.helper.as_deref()
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        BUSY_CORES.fetch_sub(1 + usize::from(self.helper.is_some()), Ordering::Relaxed);
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

/// How a step shares its draw: with which worker, who draws which cells,
/// and whether the worker then mixes ahead.
#[derive(Clone, Copy)]
pub(super) struct Helper<'w> {
    pub(super) worker: &'w Worker,
    pub(super) split: CallerCells,
    /// Off only in a test that checks mixing ahead changes no count.
    pub(super) mix_ahead: bool,
}

impl<'w> Helper<'w> {
    /// The production sharing: the caller draws whenever it waits, and
    /// the worker mixes ahead.
    pub(super) fn new(worker: &'w Worker) -> Self {
        Helper {
            worker,
            split: CallerCells::WhenWaiting,
            mix_ahead: true,
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

/// How long an idle worker spins for its next job before it parks, while
/// the generator of its last job lives (a step of it may follow). It
/// covers the gap between the end of a mixing job and the next step's
/// post, so that back-to-back steps of one engine rarely wait for a parked
/// thread to wake. On `wafer_ni_balance` (2-vCPU x86-64 host, 6,000 jobs)
/// that gap was 3–11 µs at the median, 60 µs at p75, 275–295 µs at p90 and
/// 0.7–1.0 ms at p99; the post reached a spinning worker in about 1 µs and
/// a parked one in 20–25 µs (median), 50 µs (p90).
const IDLE_SPIN: Duration = Duration::from_micros(300);

/// Locks `mutex`, recovering the guard if a thread panicked holding it:
/// every value these locks hold stays whole across a panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sampling worker: a thread that persists across steps and runs one
/// job at a time. A job draws the cells of a step's shared draw, then
/// mixes ahead. An idle worker spins for [`IDLE_SPIN`], or until the
/// generator of its last job is gone, then parks until the next job is
/// posted. It allocates nothing after it starts.
pub(super) struct Worker {
    slot: Arc<Slot>,
    thread: Thread,
}

/// What a worker and the steps that post to it share.
#[derive(Default)]
struct Slot {
    /// The job posted and not taken yet. A job posted over one not taken
    /// replaces it: only the latest step's draw needs a helper.
    job: Mutex<Option<Job>>,
    /// Whether `job` holds a job. A running mixing job stops at its next
    /// layer once it is set.
    posted: AtomicBool,
    /// The panic of the posted job's draw, for its poster to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Job {
    draw: SharedDraw,
    split: CallerCells,
    mix_ahead: bool,
}

impl Worker {
    /// Starts a worker thread, or returns the error that kept it from
    /// starting.
    fn spawn() -> std::io::Result<Self> {
        let slot = Arc::new(Slot::default());
        let served = Arc::clone(&slot);
        let handle = std::thread::Builder::new()
            .name("moentwine-sampler".into())
            .spawn(move || served.serve())?;
        Ok(Worker {
            slot,
            thread: handle.thread().clone(),
        })
    }

    /// Hands `job` to the worker, waking it if it parked.
    fn post(&self, job: Job) {
        *lock(&self.slot.panic) = None;
        *lock(&self.slot.job) = Some(job);
        self.slot.posted.store(true, Ordering::Release);
        self.thread.unpark();
    }

    /// Waits for the panic of the posted job's draw, which abandoned it.
    fn panic(&self) -> Box<dyn Any + Send> {
        let mut waited = 0;
        loop {
            if let Some(panic) = lock(&self.slot.panic).take() {
                return panic;
            }
            pause(&mut waited, || false);
        }
    }
}

impl Slot {
    /// The worker thread's loop.
    fn serve(&self) {
        let mut last = None;
        loop {
            let job = self.next_job(last.take());
            let drawn = catch_unwind(AssertUnwindSafe(|| draw_cells(&job.draw, job.split)));
            match drawn {
                Err(panic) => *lock(&self.panic) = Some(panic),
                // A panic while mixing leaves that layer unmixed, so the
                // draw that needs it mixes it again and panics on its own
                // thread.
                Ok(()) if job.mix_ahead => {
                    let stop = || self.posted.load(Ordering::Relaxed);
                    let _ = catch_unwind(AssertUnwindSafe(|| job.draw.mix_ahead(stop)));
                }
                Ok(()) => {}
            }
            last = Some(job.draw);
        }
    }

    /// Takes the next job posted, spinning for [`IDLE_SPIN`] while the
    /// generator of the `last` job's draw lives, and then parked. The
    /// draw is dropped before the worker parks, so that a parked worker
    /// keeps no generator's state alive.
    fn next_job(&self, mut last: Option<SharedDraw>) -> Job {
        let idle = Instant::now();
        loop {
            if self.posted.load(Ordering::Acquire) {
                let mut job = lock(&self.job);
                self.posted.store(false, Ordering::Relaxed);
                if let Some(job) = job.take() {
                    return job;
                }
            }
            let live = last.as_ref().is_some_and(|draw| !draw.generator_gone());
            if live && idle.elapsed() < IDLE_SPIN {
                for _ in 0..SPIN_BURST {
                    std::hint::spin_loop();
                }
            } else {
                last = None;
                std::thread::park();
            }
        }
    }
}

/// A worker's share of a draw: free cells `split` gives it, until none is
/// left.
fn draw_cells(draw: &SharedDraw, split: CallerCells) {
    let _abandon = draw.abandon_on_panic();
    let mut waited = 0;
    loop {
        match draw.draw_free_cell(|layer| split.mine(false, layer)) {
            CellDraw::Drawn => waited = 0,
            CellDraw::Busy => pause(&mut waited, || false),
            CellDraw::Finished => return,
        }
    }
}

/// The idle workers of the process. A worker is leased to one step at a
/// time; a step's [`CoreClaim`] leases one only with a free core, so the
/// pool never holds more workers than the cores it can hand out, less
/// the one every step runs on.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

/// A worker leased from the pool, returned to it on drop (its mixing job
/// may still be running then).
pub(super) struct Lease(Option<Worker>);

impl Lease {
    /// An idle worker, or a new one if none is idle; `None` if no thread
    /// could be started.
    pub(super) fn take() -> Option<Self> {
        let idle = lock(&IDLE).pop();
        idle.or_else(|| Worker::spawn().ok())
            .map(|worker| Lease(Some(worker)))
    }
}

impl std::ops::Deref for Lease {
    type Target = Worker;

    fn deref(&self) -> &Worker {
        self.0.as_ref().expect("held until drop")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(worker) = self.0.take() {
            lock(&IDLE).push(worker);
        }
    }
}

/// Draws `sampler`'s layers on this thread and `helper`'s worker, and
/// passes each drawn layer to `consume` on this thread, in layer order. A
/// panic of the worker's draw is re-raised here.
pub(super) fn sample_overlapped(
    sampler: LayerSampler<'_>,
    helper: Helper<'_>,
    mut consume: impl FnMut(&LayerGating),
) {
    let (draw, mut outlet) = sampler.share();
    helper.worker.post(Job {
        draw: draw.clone(),
        split: helper.split,
        mix_ahead: helper.mix_ahead,
    });
    let _abandon = draw.abandon_on_panic();
    for layer in 0..outlet.num_layers() {
        let mut waited = 0;
        while !draw.layer_drawn(layer) {
            match draw.draw_free_cell(|next| helper.split.mine(true, next)) {
                CellDraw::Drawn => waited = 0,
                CellDraw::Busy => pause(&mut waited, || draw.layer_drawn(layer)),
                // The worker panicked (this thread did not: it is here).
                CellDraw::Finished if draw.abandoned() => resume_unwind(helper.worker.panic()),
                // Every cell is drawn, the layer too by now.
                CellDraw::Finished => {}
            }
        }
        consume(outlet.next_layer());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::ModelConfig;
    use moe_workload::{IterationTrace, TraceGenerator, WorkloadMix};

    /// The panic message of a caught panic's payload.
    fn message(panic: &(dyn Any + Send)) -> String {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        text.or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default()
            .to_string()
    }

    /// A panic in the worker's draw reaches the caller, which does not
    /// wait for ever on the cell the worker never drew; a panic of the
    /// caller's layer loop ends the worker's draw. The worker survives
    /// both and serves the next draw, which matches the serial driver's
    /// from the generator's state after the panics.
    #[test]
    fn panics_abandon_the_draw_and_the_worker_serves_on() {
        let model = ModelConfig::qwen3_235b();
        let mut gen = TraceGenerator::new(&model, WorkloadMix::mixed(3.0), 4, 16, 9);
        let mut got = gen.next_iteration();
        let worker = Lease::take().expect("a worker thread starts");
        let worker_draws = Helper {
            worker: &worker,
            split: CallerCells::Fixed(|_| false),
            mix_ahead: true,
        };
        let draw = |gen: &mut TraceGenerator, trace: &mut IterationTrace, helper: Helper<'_>| {
            let mut layers = Vec::new();
            catch_unwind(AssertUnwindSafe(|| {
                sample_overlapped(gen.begin_iteration(trace), helper, |gating| {
                    assert!(layers.len() < 5, "the layer loop panics");
                    layers.push(gating.clone());
                })
            }))
            .map_err(|panic| message(&*panic))
        };
        // Past `u32::MAX` trials a group's draw panics, on the worker here.
        gen.set_tokens_per_group(u32::MAX);
        let worker_panic = draw(&mut gen, &mut got, worker_draws).unwrap_err();
        assert!(worker_panic.contains("exceeds u32::MAX"), "{worker_panic}");
        gen.set_tokens_per_group(16);
        let caller_panic = draw(&mut gen, &mut got, Helper::new(&worker)).unwrap_err();
        assert!(
            caller_panic.contains("the layer loop panics"),
            "{caller_panic}"
        );
        // The streams moved back whole, and the next draw is whole too.
        let expect = gen.clone().next_iteration();
        let mut layers = Vec::new();
        sample_overlapped(gen.begin_iteration(&mut got), worker_draws, |gating| {
            layers.push(gating.clone())
        });
        assert_eq!(layers, expect.layers);
        assert_eq!(got, expect);
    }

    #[test]
    fn a_helper_core_is_claimed_only_while_one_is_free() {
        let busy = AtomicUsize::new(1);
        assert!(claim_free_core(&busy, 2));
        assert!(!claim_free_core(&busy, 2));
        assert_eq!(busy.load(Ordering::Relaxed), 2);
        assert!(!claim_free_core(&AtomicUsize::new(1), 1));
    }
}
