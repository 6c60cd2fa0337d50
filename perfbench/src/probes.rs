//! Layer probes: timed calls into each layer's public functions, each in
//! the regime of the workload it stands for. A probe that leaves its regime
//! is a violation and fails the run, because its timing would then be
//! evidence about some other workload.

use std::hint::black_box;
use std::time::Instant;

use haswell_survey::survey::{mix_seed, node_seed};
use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_exec::WorkloadProfile;
use hsw_fleet::{ChipVariation, VariationModel};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, NodeSpec, SkuSpec};
use hsw_node::{Node, PlaneMask, Platform, Resolution};
use hsw_pcu::{PcuController, PcuGrant, PcuInputs};
use hsw_power::{package_power_w, CoreElecState};
use hsw_tools::{assign_stress_load, measure_stress};

use crate::spans::Tracer;
use crate::stats::Summary;

/// Fleet cap for the capped probes: the tight cap of `fleet_cap_spread`.
const FLEET_CAP_W: f64 = 70.0;
/// Cores per socket a fleet member loads (`fleet_cap_spread`).
const FLEET_CORES: usize = 5;

/// Everything the probes measured.
#[derive(Default)]
pub struct Probes {
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Exact counts for the correctness gate.
    pub counts: Vec<(&'static str, f64)>,
    /// One line per timed probe: its sample summary.
    pub lines: Vec<String>,
    /// Regime assertions that failed.
    pub violations: Vec<String>,
}

impl Probes {
    fn timed(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.lines.push(format!("{name} [{unit}]: {s}"));
        self.metrics.push((name, unit, s.median));
    }

    fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
        self.counts.push((name, value));
    }

    fn assert(&mut self, ok: bool, what: String) {
        if !ok {
            self.violations.push(what);
        }
    }
}

/// Time `n` calls of `f` one by one; returns per-call seconds.
fn time_calls<R>(n: usize, mut f: impl FnMut(usize) -> R) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let t0 = Instant::now();
            black_box(f(k));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn scaled(xs: Vec<f64>, factor: f64) -> Vec<f64> {
    xs.into_iter().map(|x| x * factor).collect()
}

/// Run every probe, each in its own span.
pub fn run_all(seed: u64, tracer: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    tracer.span("probe.tools.table5_cell", |_| table5_cell(seed, &mut p));
    tracer.span("probe.node.fleet_class", |_| fleet_node(seed, &mut p));
    tracer.span("probe.pcu.solve", |_| pcu_solves(&mut p));
    tracer.span("probe.analytic", |_| analytic(seed, &mut p));
    p
}

/// Asserts a grant sits at its power limit, below the all-core turbo bin.
fn at_power_limit(
    p: &mut Probes,
    what: &str,
    g: &PcuGrant,
    spec: &SkuSpec,
    limit_w: f64,
    tol: f64,
) {
    let turbo = spec.freq.turbo_mhz(spec.cores) as f64;
    p.assert(
        g.power_limited && g.core_mhz < turbo - 5.0 && (g.power_w - limit_w).abs() <= tol * limit_w,
        format!(
            "{what}: expected at the {limit_w:.0} W limit below {turbo:.0} MHz, got {:.1} W at \
             {:.0} MHz (power_limited={})",
            g.power_w, g.core_mhz, g.power_limited
        ),
    );
}

/// Times the Table V cell is run, each forked from the same snapshot.
const TABLE5_CELL_REPS: usize = 3;

/// One all-core Turbo FIRESTARTER cell of Table V, built as `table5` builds
/// it: 100 µs ticks, HT off, 0.2 s bring-up, warm fork, `measure_stress`.
/// Each repetition forks the same snapshot under the same seed, so all of
/// them must step exactly alike.
fn table5_cell(seed: u64, p: &mut Probes) {
    let mut session = Platform::paper()
        .session()
        .seed(mix_seed(seed, 0x7AB5))
        .resolution(Resolution::Custom(100))
        .build();
    assign_stress_load(&mut session, &WorkloadProfile::firestarter(), false);
    session.advance_s(0.2);
    let image = session.into_node();
    let snap = image.snapshot();

    let mut walls = Vec::with_capacity(TABLE5_CELL_REPS);
    let mut steps = Vec::with_capacity(TABLE5_CELL_REPS);
    for rep in 0..TABLE5_CELL_REPS {
        let mut node = Node::new(image.config().clone());
        node.restore(&snap);
        node.fork_from(&snap, mix_seed(seed, 1));
        let before = node.engine_stats();
        let t0 = Instant::now();
        let r = measure_stress(
            &mut node,
            FreqSetting::Turbo,
            EpbClass::Balanced,
            true,
            6.0,
            4.0,
        );
        walls.push(t0.elapsed().as_secs_f64());
        let after = node.engine_stats();
        steps.push((
            after.full_steps - before.full_steps,
            after.light_steps - before.light_steps,
        ));
        p.lines.push(format!(
            "tools.table5_cell rep {rep}: {:.1} W AC, {:.3} GHz",
            r.max_window_power_w, r.core_ghz
        ));
        for (s, socket) in node.sockets().iter().enumerate() {
            let spec = socket.spec().clone();
            at_power_limit(
                p,
                &format!("table5 cell rep {rep} socket {s}"),
                &socket.grant(),
                &spec,
                spec.tdp_w,
                0.03,
            );
        }
    }
    p.assert(
        steps.iter().all(|s| *s == steps[0]),
        format!("table5 cell: repetitions stepped differently: {steps:?}"),
    );
    let (full, light) = (steps[0].0 as f64, steps[0].1 as f64);
    p.timed("tools.table5_cell.wall_s", "s", &walls);
    p.exact("node.table5_cell.full_steps", "count", full);
    p.exact("node.table5_cell.light_steps", "count", light);
    p.exact(
        "node.table5_cell.light_frac",
        "fraction",
        light / (full + light),
    );
    p.timed(
        "node.table5_cell.full_step_ns",
        "ns",
        &scaled(walls, 1e9 / (full + light)),
    );
}

/// A capped fleet member at coarse resolution (`fleet_cap_spread`'s tight
/// cap), then snapshot, dirty fork and full restore on it.
fn fleet_node(seed: u64, p: &mut Probes) {
    let mut spec = NodeSpec::paper_test_node();
    spec.sku.tdp_w = FLEET_CAP_W;
    let mut node = Platform::paper()
        .session()
        .seed(mix_seed(seed, 0xF1EE7))
        .spec(spec)
        .resolution(Resolution::Coarse)
        .build()
        .into_node();
    for s in 0..2 {
        node.run_on_socket(s, &WorkloadProfile::compute(), FLEET_CORES, 1);
    }
    node.set_turbo(true);
    node.advance_s(0.6);

    let chunk_s = 0.05;
    let step_ns: Vec<f64> = (0..20)
        .map(|_| {
            let before = node.engine_stats();
            let t0 = Instant::now();
            node.advance_s(chunk_s);
            let ns = t0.elapsed().as_nanos() as f64;
            let after = node.engine_stats();
            ns / ((after.full_steps + after.light_steps) - (before.full_steps + before.light_steps))
                as f64
        })
        .collect();
    p.timed("node.coarse_step_ns", "ns", &step_ns);
    for (s, socket) in node.sockets().iter().enumerate() {
        let (g, w) = (socket.grant(), node.true_pkg_power_w(s));
        p.assert(
            g.power_limited && (w - FLEET_CAP_W).abs() < 0.10 * FLEET_CAP_W,
            format!("fleet node socket {s}: expected at the {FLEET_CAP_W} W cap, got {w:.1} W"),
        );
    }

    let tick_us = node.config().tick_us;
    let snaps = time_calls(200, |_| node.snapshot());
    p.timed("node.snapshot_us", "us", &scaled(snaps, 1e6));
    let snap = node.snapshot();
    let mut clean_forks = 0;
    let mut forks = Vec::with_capacity(200);
    let mut restores = Vec::with_capacity(200);
    for k in 0..200u64 {
        // A ticked point dirties the planes the fork must copy back.
        node.advance_us(tick_us);
        clean_forks += usize::from(node.sockets()[0].dirty_planes() == PlaneMask::NONE);
        let t0 = Instant::now();
        node.fork_from(&snap, mix_seed(seed, k));
        forks.push(t0.elapsed().as_secs_f64() * 1e6);
        node.advance_us(tick_us);
        let t0 = Instant::now();
        node.restore(&snap);
        restores.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    p.assert(
        clean_forks == 0,
        format!("fork_from: {clean_forks} of 200 forks found no dirty plane"),
    );
    p.timed("node.fork_from_us", "us", &forks);
    p.timed("node.restore_us", "us", &restores);
}

fn pcu_inputs<'a>(
    spec: &'a SkuSpec,
    profile: &WorkloadProfile,
    setting: FreqSetting,
    active_cores: usize,
    avg_pkg_w: f64,
) -> PcuInputs<'a> {
    PcuInputs {
        spec,
        socket_power_mult: 1.0,
        setting,
        epb: EpbClass::Balanced,
        turbo_enabled: true,
        active_cores,
        gated_idle_cores: spec.cores - active_cores,
        activity: profile.activity(false),
        avx_level: u8::from(profile.avx_heavy),
        stall_fraction: profile.stall_fraction,
        eet_limit_mhz: u32::MAX,
        avg_pkg_w,
    }
}

/// The PCU solve in its three regimes, and `package_power_w` at the
/// TDP-limited grant.
fn pcu_solves(p: &mut Probes) {
    let spec = SkuSpec::xeon_e5_2680_v3();
    let fs = WorkloadProfile::firestarter();
    let compute = WorkloadProfile::compute();

    // Table V: every core on FIRESTARTER at Turbo, RAPL average at PL1.
    let tdp = pcu_inputs(&spec, &fs, FreqSetting::Turbo, spec.cores, spec.tdp_w);
    let grant = PcuController::solve(&tdp);
    at_power_limit(p, "pcu tdp_limited solve", &grant, &spec, spec.tdp_w, 0.02);
    let t = time_calls(100, |_| PcuController::solve(black_box(&tdp)));
    p.timed("pcu.solve.tdp_limited_us", "us", &scaled(t, 1e6));

    // A reduced-frequency sweep point: all cores at 1.6 GHz, well under TDP.
    let requested = 1600.0;
    let sub = pcu_inputs(
        &spec,
        &compute,
        FreqSetting::from_mhz(requested as u32),
        spec.cores,
        0.5 * spec.tdp_w,
    );
    let g = PcuController::solve(&sub);
    p.assert(
        !g.power_limited && (g.core_mhz - requested).abs() < 1.0 && g.power_w < 0.8 * spec.tdp_w,
        format!(
            "pcu sub_tdp solve: expected {requested:.0} MHz well under {:.0} W, got {:.0} MHz at \
             {:.1} W",
            spec.tdp_w, g.core_mhz, g.power_w
        ),
    );
    let t = time_calls(100, |_| PcuController::solve(black_box(&sub)));
    p.timed("pcu.solve.sub_tdp_us", "us", &scaled(t, 1e6));

    // A capped fleet member: five cores of `compute` at Turbo under the cap.
    let mut capped_spec = spec.clone();
    capped_spec.tdp_w = FLEET_CAP_W;
    let capped = pcu_inputs(
        &capped_spec,
        &compute,
        FreqSetting::Turbo,
        FLEET_CORES,
        FLEET_CAP_W,
    );
    let g = PcuController::solve(&capped);
    at_power_limit(p, "pcu capped solve", &g, &capped_spec, FLEET_CAP_W, 0.02);
    let t = time_calls(100, |_| PcuController::solve(black_box(&capped)));
    p.timed("pcu.solve.capped_us", "us", &scaled(t, 1e6));

    // One package power evaluation at the TDP-limited operating point; the
    // solve makes hundreds of these.
    let cores = vec![
        CoreElecState {
            mhz: grant.core_mhz as u32,
            activity: tdp.activity,
            license_level: tdp.avx_level,
            power_gated: false,
        };
        spec.cores
    ];
    let uncore = grant.uncore_mhz as u32;
    let w = package_power_w(&spec, 1.0, &cores, uncore).total_w();
    p.assert(
        (w - spec.tdp_w).abs() < 0.05 * spec.tdp_w,
        format!(
            "package_power_w at the TDP-limited grant: {w:.1} W, expected ~{:.0} W",
            spec.tdp_w
        ),
    );
    let batch = 1000;
    let t = time_calls(100, |_| {
        for _ in 0..batch {
            black_box(package_power_w(&spec, 1.0, black_box(&cores), uncore));
        }
    });
    p.timed(
        "power.package_power_ns",
        "ns",
        &scaled(t, 1e9 / batch as f64),
    );
}

/// The surrogate: one chip model per fleet member, one prediction per
/// point, for capped fleet members as `fleet_cap_spread` asks them.
fn analytic(seed: u64, p: &mut Probes) {
    let mut nominal = NodeSpec::paper_test_node();
    nominal.sku.tdp_w = FLEET_CAP_W;
    let variation = VariationModel::paper_fleet();
    let chips: Vec<ChipVariation> = (0..200)
        .map(|k| ChipVariation::sample(&variation, node_seed(seed, k)))
        .collect();
    let t = time_calls(chips.len(), |k| {
        AnalyticModel::for_chip(&nominal, &chips[k], true)
    });
    p.timed("analytic.for_chip_us", "us", &scaled(t, 1e6));

    let compute = WorkloadProfile::compute();
    let point = OperatingPoint::new(&compute, FreqSetting::Turbo, FLEET_CORES);
    let models: Vec<AnalyticModel> = chips
        .iter()
        .map(|c| AnalyticModel::for_chip(&nominal, c, true))
        .collect();
    let unlimited = models
        .iter()
        .filter(|m| m.predict(&point).sockets.iter().any(|s| !s.power_limited))
        .count();
    p.assert(
        unlimited == 0,
        format!(
            "analytic predict: {unlimited} of {} capped chips not at the cap",
            models.len()
        ),
    );
    let t = time_calls(models.len(), |k| models[k].predict(black_box(&point)));
    p.timed("analytic.predict_us", "us", &scaled(t, 1e6));
}
