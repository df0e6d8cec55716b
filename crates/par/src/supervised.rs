//! Watchdog-supervised dispatch: deadlines that hold even when a
//! worker wedges inside a solver.
//!
//! [`crate::try_map_indexed`] sandboxes *panics*, but a worker stuck in
//! a non-terminating (or fault-stalled) solve never returns to the
//! sandbox at all — and scoped threads would pin the whole batch to the
//! lifetime of its slowest hostage. A [`SupervisedPool`] runs its
//! workers on *detached* threads that live as long as the pool, and
//! each [`SupervisedPool::map`] call supervises its batch with two
//! deadlines per item:
//!
//! - **Soft**: the item's cooperative cancellation token
//!   ([`pdce_trace::budget::CancelToken`]) is raised; every budget
//!   checkpoint in the solvers turns that into a typed unwind, so a
//!   cooperating worker frees itself within one checkpoint interval.
//! - **Hard**: the worker is presumed wedged (sleeping in foreign code,
//!   ignoring cancellation). Its item is marked
//!   [`ItemOutcome::Wedged`], the hostage gives up its slot, and one
//!   replacement thread takes the slot so the pool stays at strength.
//!   Whatever the hostage eventually produces is discarded — each slot
//!   is decided exactly once — and the hostage then exits instead of
//!   rejoining, so the pool never holds more than `jobs` slot workers.
//!
//! Workers are spawned lazily, one per slot, the first time a batch
//! needs them; a thread is replaced only when the watchdog abandons it.
//! Results still come back in item order, and with no deadlines
//! configured a batch runs on the scoped pool instead.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use pdce_trace::budget::{install_cancel, CancelToken};

use crate::ItemPanic;

mod watchdog_metrics {
    use pdce_trace::metrics::{global, Counter, Stability};
    use std::sync::{Arc, LazyLock};

    pub static CANCELLED: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        global().counter(
            "pdce_par_soft_cancels_total",
            "Items whose cooperative cancellation flag was raised by the watchdog",
            Stability::Timing,
            &[],
        )
    });
    pub static WEDGED: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        global().counter(
            "pdce_par_wedged_items_total",
            "Items abandoned at the hard watchdog deadline (worker replaced)",
            Stability::Timing,
            &[],
        )
    });
}

/// Watchdog configuration for a supervised pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorOptions {
    /// Worker slots (at least 1).
    pub jobs: usize,
    /// Per-item wall deadline after which the item's cancellation
    /// token is raised. `None` disables the soft phase.
    pub soft_deadline: Option<Duration>,
    /// Per-item wall deadline after which the worker is abandoned and
    /// replaced. `None` disables the hard phase (the supervisor then
    /// waits for cancellation to work).
    pub hard_deadline: Option<Duration>,
}

/// One item's fate under supervision.
#[derive(Debug)]
pub enum ItemOutcome<R> {
    Done(R),
    /// The item panicked (or tripped a budget) and was sandboxed.
    Panicked(ItemPanic),
    /// The worker ignored cancellation past the hard deadline; the
    /// item was abandoned and the worker replaced.
    Wedged,
}

/// Work queued for the pool's threads. Returns whether the thread
/// keeps its slot: `false` means the watchdog abandoned it mid-item and
/// a replacement already holds the slot, so the thread exits.
type Task = Box<dyn FnOnce() -> bool + Send>;

/// The queue the slot workers share with the pool handle.
struct Slots {
    state: Mutex<SlotState>,
    ready: Condvar,
    jobs: usize,
}

struct SlotState {
    tasks: VecDeque<Task>,
    /// Threads holding a slot: spawned, not yet abandoned.
    workers: usize,
    /// Set when the pool is dropped; idle workers exit.
    closed: bool,
}

impl Slots {
    /// Queues `task`, filling an empty slot with a new thread if there
    /// is one.
    fn submit(self: &Arc<Slots>, task: Task) {
        let spawn = {
            let mut state = self.state.lock().expect("pool lock");
            state.tasks.push_back(task);
            let spawn = state.workers < self.jobs;
            state.workers += usize::from(spawn);
            spawn
        };
        if spawn {
            let slots = Arc::clone(self);
            std::thread::spawn(move || slots.work());
        } else {
            self.ready.notify_one();
        }
    }

    /// Gives up the slot of a thread the watchdog abandoned, so the
    /// next [`Slots::submit`] spawns its replacement.
    fn vacate(&self) {
        self.state.lock().expect("pool lock").workers -= 1;
    }

    /// A slot worker: runs queued tasks until the pool closes or the
    /// watchdog abandons it.
    fn work(&self) {
        loop {
            let task = {
                let mut state = self.state.lock().expect("pool lock");
                loop {
                    if state.closed {
                        return;
                    }
                    if let Some(task) = state.tasks.pop_front() {
                        break task;
                    }
                    state = self.ready.wait(state).expect("pool lock");
                }
            };
            if !task() {
                return;
            }
        }
    }
}

/// A worker's registration while its item is in flight.
struct InFlight {
    start: Instant,
    token: CancelToken,
    cancelled: bool,
}

/// One batch's state, shared between its supervisor and the claim
/// loops running it.
struct Batch<T, R, F> {
    items: Vec<T>,
    f: F,
    next: AtomicUsize,
    inflight: Mutex<HashMap<usize, InFlight>>,
    /// Indices the supervisor gave up on; their hostage workers exit
    /// instead of claiming more (a replacement already took over).
    abandoned: Mutex<HashSet<usize>>,
    tx: mpsc::Sender<(usize, Result<R, ItemPanic>)>,
}

/// A pool of `jobs` long-lived worker threads that runs batches under
/// watchdog supervision (see the module docs). Dropping the pool ends
/// its idle workers; a hostage still asleep exits when it wakes.
pub struct SupervisedPool {
    opts: SupervisorOptions,
    slots: Arc<Slots>,
}

impl SupervisedPool {
    /// A pool with `opts.jobs` slots (at least one). No thread starts
    /// until a batch needs it.
    pub fn new(opts: SupervisorOptions) -> SupervisedPool {
        let jobs = opts.jobs.max(1);
        SupervisedPool {
            opts: SupervisorOptions { jobs, ..opts },
            slots: Arc::new(Slots {
                state: Mutex::new(SlotState {
                    tasks: VecDeque::new(),
                    workers: 0,
                    closed: false,
                }),
                ready: Condvar::new(),
                jobs,
            }),
        }
    }

    /// Applies `f` to every item with `min(jobs, items)` claim loops on
    /// the pool's workers (`jobs` clamped to `1..=` the pool's slots).
    /// Results are in item order; a panicking item comes back as
    /// [`ItemOutcome::Panicked`], one that outlives the hard deadline as
    /// [`ItemOutcome::Wedged`] — the batch always completes.
    ///
    /// With neither deadline set this is [`crate::try_map_indexed`]
    /// with its scoped (non-leaking) pool of `jobs` workers, and the
    /// pool's own threads are not used.
    pub fn map<T, R, F>(&self, jobs: usize, items: Vec<T>, f: F) -> Vec<ItemOutcome<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        if self.opts.soft_deadline.is_none() && self.opts.hard_deadline.is_none() {
            return crate::try_map_indexed(jobs, &items, f)
                .into_iter()
                .map(|r| match r {
                    Ok(v) => ItemOutcome::Done(v),
                    Err(p) => ItemOutcome::Panicked(p),
                })
                .collect();
        }
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let (tx, rx) = mpsc::channel();
        let batch = Arc::new(Batch {
            items,
            f,
            next: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
            abandoned: Mutex::new(HashSet::new()),
            tx,
        });
        for _ in 0..jobs.clamp(1, self.opts.jobs).min(total) {
            self.slots.submit(claim_loop(&batch));
        }
        let mut slots: Vec<Option<ItemOutcome<R>>> = (0..total).map(|_| None).collect();
        let mut pending = total;
        while pending > 0 {
            let timeout = next_event_in(&batch.inflight, &self.opts);
            match rx.recv_timeout(timeout) {
                Ok((i, result)) => {
                    if slots[i].is_none() {
                        slots[i] = Some(match result {
                            Ok(v) => ItemOutcome::Done(v),
                            Err(p) => ItemOutcome::Panicked(p),
                        });
                        pending -= 1;
                    }
                    // A filled slot means the worker raced the hard
                    // deadline and lost: the late result is discarded.
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    pending -= self.enforce_deadlines(&batch, &mut slots);
                }
                // Unreachable while the supervisor holds `batch` (and
                // its sender); kept as a defensive drain.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot is decided exactly once"))
            .collect()
    }

    /// Raises cancellation at soft deadlines and abandons workers at
    /// hard deadlines, handing each hostage's slot to a replacement.
    /// Returns how many slots were decided (as wedged).
    fn enforce_deadlines<T, R, F>(
        &self,
        batch: &Arc<Batch<T, R, F>>,
        slots: &mut [Option<ItemOutcome<R>>],
    ) -> usize
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let now = Instant::now();
        let mut wedged: Vec<usize> = Vec::new();
        {
            let mut inflight = batch.inflight.lock().expect("inflight lock");
            for (&i, entry) in inflight.iter_mut() {
                let elapsed = now.saturating_duration_since(entry.start);
                if let Some(soft) = self.opts.soft_deadline {
                    if !entry.cancelled && elapsed >= soft {
                        entry.token.cancel();
                        entry.cancelled = true;
                        watchdog_metrics::CANCELLED.inc();
                    }
                }
                if let Some(hard) = self.opts.hard_deadline {
                    if elapsed >= hard {
                        wedged.push(i);
                    }
                }
            }
            if !wedged.is_empty() {
                let mut abandoned = batch.abandoned.lock().expect("abandoned lock");
                for &i in &wedged {
                    inflight.remove(&i);
                    abandoned.insert(i);
                }
            }
        }
        let mut decided = 0;
        for i in wedged {
            // The hostage thread is lost to its sleep: its slot goes to
            // a fresh thread, which picks up this batch's claim loop.
            self.slots.vacate();
            self.slots.submit(claim_loop(batch));
            if slots[i].is_none() {
                slots[i] = Some(ItemOutcome::Wedged);
                decided += 1;
                watchdog_metrics::WEDGED.inc();
            }
        }
        decided
    }
}

impl Drop for SupervisedPool {
    fn drop(&mut self) {
        self.slots.state.lock().expect("pool lock").closed = true;
        self.slots.ready.notify_all();
    }
}

/// One-shot form of [`SupervisedPool::map`]: a pool of `opts.jobs`
/// slots for this batch alone.
pub fn supervised_map<T, R, F>(opts: SupervisorOptions, items: Vec<T>, f: F) -> Vec<ItemOutcome<R>>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    SupervisedPool::new(opts).map(opts.jobs, items, f)
}

/// How long the supervisor may sleep before the nearest soft/hard
/// deadline among in-flight items (bounded so new registrations are
/// noticed promptly).
fn next_event_in(inflight: &Mutex<HashMap<usize, InFlight>>, opts: &SupervisorOptions) -> Duration {
    const IDLE_POLL: Duration = Duration::from_millis(25);
    let now = Instant::now();
    let mut nearest: Option<Duration> = None;
    let inflight = inflight.lock().expect("inflight lock");
    for entry in inflight.values() {
        let elapsed = now.saturating_duration_since(entry.start);
        let mut consider = |deadline: Option<Duration>| {
            if let Some(d) = deadline {
                let left = d.saturating_sub(elapsed);
                nearest = Some(nearest.map_or(left, |n: Duration| n.min(left)));
            }
        };
        if !entry.cancelled {
            consider(opts.soft_deadline);
        }
        consider(opts.hard_deadline);
    }
    nearest.map_or(IDLE_POLL, |n| n.clamp(Duration::from_millis(1), IDLE_POLL))
}

/// A claim loop for `batch`: claims and runs items until none are left
/// (the thread keeps its slot) or until the watchdog abandons the item
/// it was running (the thread exits). The task holds the batch weakly,
/// so one still queued after its batch completed does nothing and keeps
/// nothing alive.
fn claim_loop<T, R, F>(batch: &Arc<Batch<T, R, F>>) -> Task
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    let batch: Weak<Batch<T, R, F>> = Arc::downgrade(batch);
    Box::new(move || {
        let Some(batch) = batch.upgrade() else {
            return true;
        };
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            if i >= batch.items.len() {
                return true;
            }
            let token = CancelToken::new();
            batch.inflight.lock().expect("inflight lock").insert(
                i,
                InFlight {
                    start: Instant::now(),
                    token: token.clone(),
                    cancelled: false,
                },
            );
            let result = {
                let _cancel = install_cancel(token);
                pdce_trace::sandbox::catch(|| (batch.f)(i, &batch.items[i])).map_err(|e| {
                    ItemPanic {
                        index: i,
                        message: e.to_string(),
                    }
                })
            };
            batch.inflight.lock().expect("inflight lock").remove(&i);
            // If the supervisor already gave up on this item, a
            // replacement holds this thread's slot — deliver nothing
            // and retire.
            if batch.abandoned.lock().expect("abandoned lock").remove(&i) {
                return false;
            }
            // The receiver outlives every undecided item, so a send
            // cannot fail while this one is pending.
            let _ = batch.tx.send((i, result));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;

    fn opts(jobs: usize, soft_ms: u64, hard_ms: u64) -> SupervisorOptions {
        SupervisorOptions {
            jobs,
            soft_deadline: Some(Duration::from_millis(soft_ms)),
            hard_deadline: Some(Duration::from_millis(hard_ms)),
        }
    }

    thread_local! {
        /// Set on the first item a thread runs; its drop (at thread
        /// exit) counts the exit.
        static EXIT_SENTINEL: std::cell::RefCell<Option<ExitSentinel>> =
            const { std::cell::RefCell::new(None) };
    }

    struct ExitSentinel(Arc<AtomicUsize>);

    impl Drop for ExitSentinel {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Registers the current thread's exit with `exits` (once).
    fn count_exit_of_this_thread(exits: &Arc<AtomicUsize>) {
        EXIT_SENTINEL.with(|s| {
            s.borrow_mut()
                .get_or_insert_with(|| ExitSentinel(Arc::clone(exits)));
        });
    }

    /// Blocks until `n` items have arrived (for at most 10 s), so a
    /// batch of `n` such items runs on `n` distinct threads at once.
    fn rendezvous(arrived: &(Mutex<usize>, Condvar), n: usize) {
        let (count, all_here) = arrived;
        let mut count = count.lock().unwrap();
        *count += 1;
        all_here.notify_all();
        let deadline = Instant::now() + Duration::from_secs(10);
        while *count < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "only {} of {n} items ran at once", *count);
            count = all_here.wait_timeout(count, left).unwrap().0;
        }
    }

    /// Runs a batch of `n` items that rendezvous, recording each
    /// thread's exit in `exits`; returns the threads they ran on.
    fn meet(pool: &SupervisedPool, n: usize, exits: &Arc<AtomicUsize>) -> HashSet<ThreadId> {
        let arrived = Arc::new((Mutex::new(0), Condvar::new()));
        let exits = Arc::clone(exits);
        thread_ids(pool.map(n, vec![(); n], move |_, ()| {
            count_exit_of_this_thread(&exits);
            rendezvous(&arrived, n);
            (std::thread::current().id(), ())
        }))
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn thread_ids<R: std::fmt::Debug>(out: Vec<ItemOutcome<(ThreadId, R)>>) -> HashSet<ThreadId> {
        out.into_iter()
            .map(|o| match o {
                ItemOutcome::Done((id, _)) => id,
                other => panic!("expected a result, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn well_behaved_batches_complete_in_order() {
        let items: Vec<u32> = (0..40).collect();
        let out = supervised_map(opts(4, 5_000, 10_000), items, |i, &x| {
            assert_eq!(i as u32, x);
            x * 3
        });
        assert_eq!(out.len(), 40);
        for (i, o) in out.iter().enumerate() {
            match o {
                ItemOutcome::Done(v) => assert_eq!(*v, i as u32 * 3),
                other => panic!("item {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn panics_are_sandboxed_per_item() {
        let out = supervised_map(opts(2, 5_000, 10_000), vec![1u32, 2, 3], |_, &x| {
            if x == 2 {
                panic!("boom {x}");
            }
            x
        });
        assert!(matches!(out[0], ItemOutcome::Done(1)));
        match &out[1] {
            ItemOutcome::Panicked(p) => {
                assert_eq!(p.index, 1);
                assert!(p.message.contains("boom 2"));
            }
            other => panic!("expected panic, got {other:?}"),
        }
        assert!(matches!(out[2], ItemOutcome::Done(3)));
    }

    #[test]
    fn soft_deadline_frees_a_cooperative_staller() {
        // The item loops forever but polls the cancellation flag, as
        // the solvers do at every budget checkpoint.
        let started = Instant::now();
        let out = supervised_map(opts(1, 30, 5_000), vec![()], |_, ()| loop {
            std::thread::sleep(Duration::from_millis(1));
            pdce_trace::budget::check_cancelled();
        });
        match &out[0] {
            ItemOutcome::Panicked(p) => {
                assert!(p.message.contains("cancelled"), "got: {}", p.message)
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "freed by the soft deadline, not the hard one"
        );
    }

    #[test]
    fn hard_deadline_abandons_a_wedged_worker_and_batch_completes() {
        // Item 0 ignores cancellation entirely; items 1..N must still
        // be served, and the batch must return before item 0 wakes.
        let wedge = Duration::from_secs(3);
        let started = Instant::now();
        let items: Vec<u32> = (0..12).collect();
        let out = supervised_map(opts(2, 20, 120), items, move |_, &x| {
            if x == 0 {
                std::thread::sleep(wedge);
            }
            x + 1
        });
        assert!(
            started.elapsed() < wedge,
            "supervisor must not wait out the hostage"
        );
        assert!(matches!(out[0], ItemOutcome::Wedged), "got {:?}", out[0]);
        for (i, o) in out.iter().enumerate().skip(1) {
            match o {
                ItemOutcome::Done(v) => assert_eq!(*v, i as u32 + 1),
                other => panic!("item {i} lost to the hostage: {other:?}"),
            }
        }
    }

    #[test]
    fn no_deadlines_degrades_to_the_scoped_pool() {
        let out = supervised_map(
            SupervisorOptions {
                jobs: 3,
                ..SupervisorOptions::default()
            },
            (0..10u32).collect(),
            |_, &x| x,
        );
        assert_eq!(out.len(), 10);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, o)| matches!(o, ItemOutcome::Done(v) if *v == i as u32)));
    }

    #[test]
    fn one_item_batches_reuse_the_pools_threads() {
        let pool = SupervisedPool::new(opts(2, 5_000, 10_000));
        let mut seen = HashSet::new();
        for k in 0..200u32 {
            let out = pool.map(2, vec![k], |_, &x| (std::thread::current().id(), x));
            seen.extend(thread_ids(out));
        }
        assert!(
            seen.len() <= 2,
            "200 one-item batches ran on {} threads",
            seen.len()
        );
        assert!(!seen.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_wedge_replaces_one_worker_and_the_hostage_does_not_rejoin() {
        let exits = Arc::new(AtomicUsize::new(0));
        let wedge = Duration::from_millis(1_000);
        let pool = SupervisedPool::new(opts(2, 50, 200));
        let hostage: Arc<Mutex<Option<ThreadId>>> = Arc::default();
        let first = {
            let (exits, hostage) = (Arc::clone(&exits), Arc::clone(&hostage));
            pool.map(2, (0..6u32).collect(), move |_, &x| {
                count_exit_of_this_thread(&exits);
                if x == 0 {
                    *hostage.lock().unwrap() = Some(std::thread::current().id());
                    std::thread::sleep(wedge);
                }
                x
            })
        };
        assert!(
            matches!(first[0], ItemOutcome::Wedged),
            "got {:?}",
            first[0]
        );
        let hostage = hostage.lock().unwrap().expect("item 0 ran");
        // While the hostage sleeps, two threads still meet: the pool is
        // at strength.
        let during = meet(&pool, 2, &exits);
        assert!(!during.contains(&hostage));
        wait_for("the hostage to wake and exit", || {
            exits.load(Ordering::SeqCst) == 1
        });
        let mut after = HashSet::new();
        for _ in 0..5 {
            after.extend(meet(&pool, 2, &exits));
        }
        assert_eq!(after, during, "later batches run on the same 2 threads");
        assert_eq!(exits.load(Ordering::SeqCst), 1, "only the hostage exited");
    }

    #[test]
    fn dropping_the_pool_ends_its_idle_workers() {
        let exits = Arc::new(AtomicUsize::new(0));
        let pool = SupervisedPool::new(opts(3, 5_000, 10_000));
        meet(&pool, 3, &exits);
        assert_eq!(exits.load(Ordering::SeqCst), 0, "workers outlive a batch");
        drop(pool);
        wait_for("every worker to exit", || exits.load(Ordering::SeqCst) == 3);
    }

    #[test]
    fn no_cancel_token_or_budget_leaks_into_the_next_item() {
        // One slot, so every item runs on the same thread: a panic
        // under an installed budget, then a soft-cancelled staller,
        // then an item that must see neither.
        let pool = SupervisedPool::new(opts(1, 30, 5_000));
        let thread = |out: &[ItemOutcome<ThreadId>]| match &out[0] {
            ItemOutcome::Done(id) => *id,
            other => panic!("expected a result, got {other:?}"),
        };
        let first = thread(&pool.map(1, vec![()], |_, ()| std::thread::current().id()));
        let out = pool.map(1, vec![()], |_, ()| {
            let _budget = pdce_trace::budget::install(pdce_trace::budget::Budget {
                max_pops: Some(1),
                ..Default::default()
            });
            assert!(pdce_trace::budget::active());
            panic!("dies with a budget installed");
        });
        assert!(
            matches!(out[0], ItemOutcome::Panicked(_)),
            "got {:?}",
            out[0]
        );
        let out: Vec<ItemOutcome<()>> = pool.map(1, vec![()], |_, ()| loop {
            std::thread::sleep(Duration::from_millis(1));
            pdce_trace::budget::check_cancelled();
        });
        match &out[0] {
            ItemOutcome::Panicked(p) => assert!(p.message.contains("cancelled"), "{}", p.message),
            other => panic!("expected cancellation, got {other:?}"),
        }
        let clean = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&clean);
        let last = thread(&pool.map(1, vec![()], move |_, ()| {
            // A leaked raised token would unwind here.
            pdce_trace::budget::check_cancelled();
            seen.store(!pdce_trace::budget::active(), Ordering::SeqCst);
            std::thread::current().id()
        }));
        assert_eq!(first, last, "every item ran on the pool's one worker");
        assert!(clean.load(Ordering::SeqCst), "a budget leaked across items");
    }
}
