//! Engine-mode benches: fixed-tick vs. event (coalescing) wall time on the
//! two workload classes that bracket the survey.
//!
//! - A single-core sub-TDP steady run: one spinning core at a fixed
//!   2.0 GHz setting, multi-second measurement window (the shape of the
//!   Table III single-core campaigns). Far below TDP, the event engine can
//!   prove quiescence and coalesce. This is *not* a Table V cell: those
//!   load every core and sit on the TDP limiter, where it never coalesces.
//! - A Figures 5/6-class latency run: a near-idle node with periodic
//!   wake activity at fine resolution, where coalescing also applies
//!   between events.
//!
//! The headline ratio (fixed wall time / event wall time, same simulated
//! span, bit-identical results) is printed once before the criterion
//! timings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hsw_bench::print_once;
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{EngineMode, Node, Platform, Resolution};

/// Single-core sub-TDP steady state: one spinning core, fixed 2.0 GHz, the
/// rest of the node idle. Multi-second window.
fn steady_node(engine: EngineMode) -> Node {
    let mut node = Platform::paper()
        .with_engine(engine)
        .session()
        .seed(11)
        .build()
        .into_node();
    node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
    node.set_setting_all(FreqSetting::from_mhz(2000));
    node.advance_s(0.05); // settle transients before the timed span
    node
}

fn run_steady(engine: EngineMode, sim_s: f64) -> f64 {
    let mut node = steady_node(engine);
    node.advance_s(sim_s);
    node.true_pkg_power_w(0)
}

/// Figures 5/6-class: an idle node at latency resolution (the c-state
/// sweeps spend most of their simulated time waiting between wake events).
fn run_idle_fine(engine: EngineMode, sim_s: f64) -> f64 {
    let mut node = Platform::paper()
        .with_engine(engine)
        .session()
        .seed(12)
        .resolution(Resolution::Fine)
        .build()
        .into_node();
    node.idle_all();
    node.advance_s(sim_s);
    node.measure_ac_average(0.1)
}

fn wall_s(f: impl FnOnce() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

fn engine_ratios(c: &mut Criterion) {
    print_once(
        "Engine: fixed vs event wall time (bit-identical results)",
        || {
            let (fixed_steady, a) = wall_s(|| run_steady(EngineMode::Fixed, 4.0));
            let (event_steady, b) = wall_s(|| run_steady(EngineMode::Event, 4.0));
            assert_eq!(a.to_bits(), b.to_bits(), "engines diverged (steady)");
            let (fixed_idle, x) = wall_s(|| run_idle_fine(EngineMode::Fixed, 1.0));
            let (event_idle, y) = wall_s(|| run_idle_fine(EngineMode::Event, 1.0));
            assert_eq!(x.to_bits(), y.to_bits(), "engines diverged (idle)");
            format!(
                "single-core sub-TDP steady 4 s: fixed {fixed_steady:.2} s, event {event_steady:.2} s \
             -> {:.1}x\n\
             Fig 5/6-class idle 1 s:          fixed {fixed_idle:.2} s, event {event_idle:.2} s \
             -> {:.1}x",
                fixed_steady / event_steady.max(1e-9),
                fixed_idle / event_idle.max(1e-9),
            )
        },
    );
    c.bench_function("engine_steady_4s_fixed", |b| {
        b.iter(|| black_box(run_steady(EngineMode::Fixed, 4.0)))
    });
    c.bench_function("engine_steady_4s_event", |b| {
        b.iter(|| black_box(run_steady(EngineMode::Event, 4.0)))
    });
    c.bench_function("engine_idle_fine_1s_fixed", |b| {
        b.iter(|| black_box(run_idle_fine(EngineMode::Fixed, 1.0)))
    });
    c.bench_function("engine_idle_fine_1s_event", |b| {
        b.iter(|| black_box(run_idle_fine(EngineMode::Event, 1.0)))
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(1));
    targets = engine_ratios
}
criterion_main!(engine);
