//! The work-stealing thread pool behind the `par_iter` adapters.
//!
//! Each worker owns a deque and pops tasks from its back (LIFO, so a
//! worker keeps chewing on what it just spawned); an out-of-work worker
//! steals the front *half* of a victim's deque in one lock acquisition
//! (FIFO — the oldest, largest-granularity work moves), which balances a
//! skewed load in O(log n) steal operations instead of one lock round-trip
//! per task. Tasks submitted from threads outside the pool land in a
//! shared injector queue that workers drain like any other victim.
//!
//! The global pool is created lazily on first use; its size comes from
//! `RAYON_NUM_THREADS` (a positive integer), falling back to
//! `available_parallelism`. Explicit pools ([`ThreadPool::new`]) exist for
//! tests that need to compare sizes within one process;
//! [`ThreadPool::install`] moves a closure onto such a pool so every
//! `par_iter`/[`scope`]/[`join`] it performs runs there.
//!
//! Scheduling never leaks into results: the iterator adapters tag every
//! item with its index and deliver collected output in index order, so a
//! 1-thread pool and a 16-thread pool produce bit-identical values.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A lifetime-erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Shared state of one pool: the deques, the injector, and the sleep
/// protocol.
struct Registry {
    /// One deque per worker; the owner pops the back, thieves take from
    /// the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks submitted from threads outside this pool.
    injector: Mutex<VecDeque<Task>>,
    /// Number of queued-but-not-claimed tasks across all queues; the
    /// worker sleep condition. Incremented before a push, decremented by
    /// the claimer.
    pending: AtomicUsize,
    /// Sleep protocol: pushes notify under this lock, workers re-check
    /// `pending` under it before sleeping, so no wakeup is lost.
    sleep: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// Set for the lifetime of a worker thread: which registry it serves
    /// and its worker index there.
    static WORKER: RefCell<Option<(Arc<Registry>, usize)>> = const { RefCell::new(None) };
}

impl Registry {
    fn new(threads: usize) -> Arc<Registry> {
        Arc::new(Registry {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Queue a task: onto the current worker's own deque when called from
    /// inside this pool, onto the injector otherwise.
    fn inject(self: &Arc<Self>, task: Task) {
        let own = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .filter(|(reg, _)| Arc::ptr_eq(reg, self))
                .map(|(_, idx)| *idx)
        });
        self.pending.fetch_add(1, Ordering::SeqCst);
        match own {
            Some(idx) => self.deques[idx].lock().unwrap().push_back(task),
            None => self.injector.lock().unwrap().push_back(task),
        }
        let _guard = self.sleep.lock().unwrap();
        self.wakeup.notify_all();
    }

    /// Steal the front half of `victim`, keeping the first task to run and
    /// parking the rest on `home` (the thief's own deque).
    fn steal_half(&self, victim: &Mutex<VecDeque<Task>>, home: Option<usize>) -> Option<Task> {
        let mut q = victim.lock().unwrap();
        let n = q.len();
        if n == 0 {
            return None;
        }
        let take = n.div_ceil(2);
        let mut batch: VecDeque<Task> = q.drain(..take).collect();
        drop(q);
        let first = batch.pop_front();
        if !batch.is_empty() {
            match home {
                Some(idx) => self.deques[idx].lock().unwrap().extend(batch),
                // No home deque (non-worker thief): put the rest back where
                // workers will find it.
                None => self.injector.lock().unwrap().extend(batch),
            }
        }
        first
    }

    /// Claim one task: own deque back first, then the injector, then the
    /// other workers' deques (steal-half). `me` is the calling worker's
    /// index in this registry, if any.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(idx) = me {
            if let Some(t) = self.deques[idx].lock().unwrap().pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
        }
        if let Some(t) = self.steal_half(&self.injector, me) {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        let workers = self.deques.len();
        let start = me.map(|i| i + 1).unwrap_or(0);
        for off in 0..workers {
            let v = (start + off) % workers;
            if Some(v) == me {
                continue;
            }
            if let Some(t) = self.steal_half(&self.deques[v], me) {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(self: Arc<Self>, idx: usize) {
        WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&self), idx)));
        loop {
            if let Some(task) = self.find_task(Some(idx)) {
                // Scope tasks catch their own panics; this backstop only
                // keeps the worker alive if a raw task ever slips through.
                let _ = catch_unwind(AssertUnwindSafe(task));
                continue;
            }
            let guard = self.sleep.lock().unwrap();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                // Timed as a belt-and-braces fallback; the inject/notify
                // handshake under `sleep` already prevents lost wakeups.
                let _ = self
                    .wakeup
                    .wait_timeout(guard, Duration::from_millis(50))
                    .unwrap();
            }
        }
        WORKER.with(|w| *w.borrow_mut() = None);
    }

    /// Whether the current thread is one of this registry's workers.
    fn on_worker(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .filter(|(reg, _)| Arc::ptr_eq(reg, self))
                .map(|(_, idx)| *idx)
        })
    }
}

/// Pool size for the global pool: `RAYON_NUM_THREADS` if set to a positive
/// integer, else `available_parallelism`.
fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// The registry the current thread schedules onto: its own pool when it is
/// a worker, the global pool otherwise.
fn current_registry() -> Arc<Registry> {
    WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .map(|(reg, _)| Arc::clone(reg))
            .unwrap_or_else(|| Arc::clone(&global_pool().registry))
    })
}

/// Number of worker threads in the pool the current thread schedules onto.
pub fn current_num_threads() -> usize {
    current_registry().deques.len()
}

/// An owned worker pool. The process-wide pool used by `par_iter` outside
/// any pool is created lazily with [`default_threads`]; explicit pools are
/// for tests and benches that pin a size.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with exactly `threads` workers (floored at 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let registry = Registry::new(threads);
        let workers = (0..threads)
            .map(|idx| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("hsw-rayon-{idx}"))
                    .spawn(move || reg.worker_loop(idx))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { registry, workers }
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.deques.len()
    }

    /// Execute `op` inside this pool: it runs on one of the workers, so
    /// every `par_iter`, [`scope`] and [`join`] it performs schedules onto
    /// this pool instead of the global one. Blocks until `op` returns;
    /// panics from `op` propagate.
    pub fn install<R, OP>(&self, op: OP) -> R
    where
        R: Send,
        OP: FnOnce() -> R + Send,
    {
        if self.registry.on_worker().is_some() {
            return op();
        }
        struct DoneSlot<R> {
            result: Mutex<Option<std::thread::Result<R>>>,
            done: Condvar,
        }
        let slot = Arc::new(DoneSlot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let slot = Arc::clone(&slot);
            let task: Box<dyn FnOnce() + Send> = Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(op));
                *slot.result.lock().unwrap() = Some(r);
                slot.done.notify_all();
            });
            // SAFETY: `install` blocks until the task has stored its result,
            // so every borrow captured by `op` outlives the task.
            let task = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send>, Box<dyn FnOnce() + Send + 'static>>(
                    task,
                )
            };
            self.registry.inject(task);
        }
        let mut guard = slot.result.lock().unwrap();
        while guard.is_none() {
            guard = slot.done.wait(guard).unwrap();
        }
        match guard.take().unwrap() {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.registry.sleep.lock().unwrap();
            self.registry.wakeup.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Book-keeping shared by a [`Scope`] and its spawned tasks.
struct ScopeInner {
    registry: Arc<Registry>,
    /// Spawned-but-unfinished task count.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload from any task; re-thrown when the scope closes.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ScopeInner {
    fn task_finished(&self) {
        let mut n = self.pending.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every spawned task has finished. A pool worker helps
    /// drain its registry while it waits (this is what makes nested
    /// `par_iter`/`scope` calls on a 1-thread pool deadlock-free); any
    /// other thread parks on the condvar and lets the workers do the work.
    fn wait(&self) {
        if let Some(idx) = self.registry.on_worker() {
            loop {
                if *self.pending.lock().unwrap() == 0 {
                    return;
                }
                if let Some(task) = self.registry.find_task(Some(idx)) {
                    let _ = catch_unwind(AssertUnwindSafe(task));
                } else {
                    let guard = self.pending.lock().unwrap();
                    if *guard == 0 {
                        return;
                    }
                    // The missing tasks are mid-flight on other workers;
                    // wake when the last one checks in.
                    let _ = self
                        .done
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
            }
        } else {
            let mut guard = self.pending.lock().unwrap();
            while *guard > 0 {
                guard = self.done.wait(guard).unwrap();
            }
        }
    }
}

/// A spawn scope: tasks may borrow anything that outlives `'scope`, and
/// [`scope`] does not return before every task has finished.
pub struct Scope<'scope> {
    inner: Arc<ScopeInner>,
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `f` onto the pool. It may itself spawn further tasks on the
    /// same scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        *self.inner.pending.lock().unwrap() += 1;
        let inner = Arc::clone(&self.inner);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope {
                inner: Arc::clone(&inner),
                _marker: PhantomData,
            };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                scope.inner.panic.lock().unwrap().get_or_insert(p);
            }
            inner.task_finished();
        });
        // SAFETY: `scope()` blocks until `pending` reaches zero before
        // returning (or unwinding), so every `'scope` borrow captured by
        // `f` strictly outlives the task.
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.inner.registry.inject(task);
    }
}

/// Run `op` with a [`Scope`] on the current pool (the global pool when the
/// caller is not a pool worker). Returns after every spawned task has
/// finished; the first panic from `op` or any task is propagated.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let scope = Scope {
        inner: Arc::new(ScopeInner {
            registry: current_registry(),
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _marker: PhantomData,
    };
    // Even if `op` itself panics, wait for already-spawned tasks first —
    // they borrow data from the caller's frame.
    let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
    scope.inner.wait();
    if let Some(p) = scope.inner.panic.lock().unwrap().take() {
        resume_unwind(p);
    }
    match result {
        Ok(r) => r,
        Err(p) => resume_unwind(p),
    }
}

/// Run `a` on the calling thread while `b` is available for any pool
/// worker to pick up; returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    let ra = scope(|s| {
        s.spawn(|_| {
            *rb.lock().unwrap() = Some(b());
        });
        a()
    });
    let rb = rb.into_inner().unwrap().expect("join arm did not run");
    (ra, rb)
}
