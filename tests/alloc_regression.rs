//! Allocation-count regression bound on the socket tick hot loop.
//!
//! `Socket::tick` used to clone the `SkuSpec` (three `Vec`s) every tick;
//! the SoA core planes and the reusable `TickScratch` removed that, along
//! with the per-tick duty/electrical/counter-rate vectors. This test pins
//! the result: a settled, fully loaded node must advance with (almost) no
//! allocator traffic. `PcuController::solve` allocates nothing (it prices
//! core classes instead of building a core array, and its memos are stack
//! arrays), so the bound below (0.2/tick) is headroom for rare bookkeeping
//! that still fails on any per-tick clone (3+/tick).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{Node, NodeConfig, PlaneMask};

/// A counting wrapper around the system allocator. Bracket the measured
/// region with [`CountingAlloc::reset`] and [`CountingAlloc::allocs`].
/// The counter is process-global and relaxed, so every test here first
/// takes [`exclusive`] to keep the others' allocations out of its window.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn reset() {
        ALLOC_CALLS.store(0, Ordering::Relaxed);
    }

    /// Allocation calls (alloc, alloc_zeroed, and reallocs) since the last
    /// reset.
    fn allocs() -> u64 {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }
}

// SAFETY: pure pass-through to `System` — every pointer/layout contract is
// forwarded unchanged, the counter is a side-effect-only atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed to `System.alloc`; counting has no effect
    // on the returned allocation.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator,
    // which always means `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same layout handed to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller's `ptr`/`layout`/`new_size` contract is forwarded
    // verbatim to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests in this binary: the harness runs them on parallel
/// threads, and they share the one counter.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn settled_tick_loop_is_allocation_free() {
    let _guard = exclusive();
    let mut node = Node::new(NodeConfig::paper_default().with_seed(7));
    for s in 0..2 {
        node.run_on_socket(s, &WorkloadProfile::compute(), 12, 2);
    }
    node.set_setting_all(FreqSetting::from_mhz(2200));
    // Settle: first ticks legitimately allocate (counter-rate plane,
    // transition log, scratch growth); steady state must not.
    node.advance_s(0.5);

    CountingAlloc::reset();
    node.advance_s(0.2); // 10_000 ticks at the default 20 µs step
    let allocs = CountingAlloc::allocs();

    let ticks = 10_000u64;
    let per_tick = allocs as f64 / ticks as f64;
    assert!(
        per_tick < 0.2,
        "settled tick loop allocated {allocs} times over {ticks} ticks \
         ({per_tick:.3}/tick; bound 0.2/tick)"
    );
}

#[test]
fn dirty_plane_fork_allocates_less_than_a_node_build() {
    // `Node::fork_from` re-arms an existing node instead of building one;
    // verify the allocator agrees. A fork of a snapshot into a node that
    // only dirtied its WORK plane must stay well under what constructing
    // and restoring a fresh node costs (the survey's warm executor does
    // the latter for every fork).
    let _guard = exclusive();
    let cfg = NodeConfig::paper_default().with_seed(7);
    let mut golden = Node::new(cfg.clone());
    golden.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
    golden.advance_s(0.1);
    let snap = golden.snapshot();

    let mut scratch = Node::new(cfg.clone());
    // First fork clears the new node's everything-dirty state; then dirty
    // only the WORK plane, as a settings-sweep point would.
    scratch.fork_from(&snap, 1001);
    scratch.run_on_socket(0, &WorkloadProfile::busy_wait(), 4, 1);

    CountingAlloc::reset();
    scratch.fork_from(&snap, 1002);
    let fork_allocs = CountingAlloc::allocs();

    CountingAlloc::reset();
    let mut fresh = Node::new(cfg.with_seed(1002));
    fresh.restore(&snap);
    let build_allocs = CountingAlloc::allocs();

    assert!(
        fork_allocs * 4 < build_allocs,
        "WORK-plane fork allocated {fork_allocs} times vs {build_allocs} for \
         build+restore — expected under a quarter"
    );
}

#[test]
fn plane_scoped_access_forks_cheaper_than_all_dirty() {
    // `socket_planes_mut(s, MSR)` exists so a caller that only pokes MSRs
    // doesn't pay an ALL-planes restore on the next fork; pin that the
    // allocator sees the difference versus the conservative `socket_mut`.
    let _guard = exclusive();
    let cfg = NodeConfig::paper_default().with_seed(7);
    let mut golden = Node::new(cfg.clone());
    golden.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
    golden.advance_s(0.1);
    let snap = golden.snapshot();

    let mut scratch = Node::new(cfg);
    scratch.fork_from(&snap, 2001); // clear the new node's everything-dirty state

    let epb = hsw_msr::addresses::IA32_ENERGY_PERF_BIAS;
    scratch
        .socket_planes_mut(0, PlaneMask::MSR)
        .msr_store(0, epb, 6)
        .unwrap();
    CountingAlloc::reset();
    scratch.fork_from(&snap, 2002);
    let scoped_allocs = CountingAlloc::allocs();

    scratch.socket_mut(0).msr_store(0, epb, 6).unwrap();
    CountingAlloc::reset();
    scratch.fork_from(&snap, 2003);
    let all_dirty_allocs = CountingAlloc::allocs();

    assert!(
        scoped_allocs < all_dirty_allocs,
        "MSR-scoped fork allocated {scoped_allocs} times vs {all_dirty_allocs} \
         for an ALL-dirty fork — scoping should be cheaper"
    );
}
