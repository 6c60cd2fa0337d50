//! The three workloads and how one pass of each runs. A pass is one
//! survey: the workload's experiments at `--jobs 1`, with every sweep fanned
//! across the global pool (`nproc` threads).

use std::time::{Duration, Instant};

use haswell_survey::experiments::table5::Table5Cell;
use haswell_survey::survey::{experiment_seed, registry_for, ExperimentResult};
use haswell_survey::{run_survey, Fidelity, RunCtx, SurveyConfig, SurveyExperiment, SurveyRun};
use hsw_exec::WorkloadProfile;
use hsw_hwspec::calib::powercal;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::{PlatformKind, Resolution};
use hsw_tools::{assign_stress_load, measure_stress};
use serde::Serialize;

use crate::spans::Tracer;

pub struct Workload {
    pub name: &'static str,
    fidelity: Fidelity,
    /// Registered experiment ids, or `None` for `max_power`'s Table V row.
    ids: Option<&'static [&'static str]>,
    /// `--fleet-size` for the fleet experiments; `None` = fidelity preset.
    fleet_size: Option<usize>,
}

/// The analytic-fidelity set: every surrogate-capable Haswell experiment.
const ANALYTIC_IDS: &[&str] = &[
    "table4",
    "fleet_cap_spread",
    "analytic_accuracy",
    "fleet_analytic_scale",
];

/// The quick survey minus `table5`.
const QUICK_SWEEP_IDS: &[&str] = &[
    "fig1",
    "section2c_epb",
    "table1",
    "table2",
    "table3",
    "fig2",
    "table4",
    "fig3",
    "fig4",
    "fig56",
    "section6b_governor",
    "fig7",
    "fig8",
    "section8",
    "sku_extrapolation",
    "fleet_cap_spread",
    "fleet_straggler",
    "analytic_accuracy",
    "fleet_analytic_scale",
];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "max_power",
        fidelity: Fidelity::Quick,
        ids: None,
        fleet_size: None,
    },
    Workload {
        name: "quick_sweeps",
        fidelity: Fidelity::Quick,
        ids: Some(QUICK_SWEEP_IDS),
        fleet_size: None,
    },
    Workload {
        name: "analytic_fleet",
        fidelity: Fidelity::Analytic,
        ids: Some(ANALYTIC_IDS),
        // 2^18 surrogate nodes per fleet: a quarter of the 1,048,576-node
        // preset of `fleet_analytic_scale`, whose 35 s pass would not fit
        // the run budget next to the other two workloads.
        fleet_size: Some(262_144),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A validated workload, ready to run.
pub struct Plan {
    pub cfg: SurveyConfig,
    /// `max_power`'s Table V row; `None` for registered workloads, which
    /// run through `run_survey`.
    row: Option<Table5Row>,
}

impl Workload {
    /// Set-up: build the registry and validate the selection against it
    /// the way the survey runner does, then fix the configuration.
    /// `max_power` checks that the `table5` its row mirrors is registered.
    pub fn plan(&self, seed: u64) -> Result<Plan, String> {
        let all = registry_for(PlatformKind::Haswell);
        let ids = self.ids.unwrap_or(&["table5"]);
        let selected: Vec<_> = all.iter().filter(|e| ids.contains(&e.id())).collect();
        if let Some(bad) = ids
            .iter()
            .find(|id| !selected.iter().any(|e| e.id() == **id))
        {
            return Err(format!("experiment `{bad}` is not registered"));
        }
        if self.fidelity.is_analytic() {
            if let Some(e) = selected.iter().find(|e| !e.supports_surrogate()) {
                return Err(format!("`{}` has no surrogate support", e.id()));
            }
        }
        let cfg = SurveyConfig {
            fidelity: self.fidelity,
            seed,
            jobs: 1,
            only: self
                .ids
                .map(|ids| ids.iter().map(|s| s.to_string()).collect()),
            fleet_size: self.fleet_size,
            ..SurveyConfig::default()
        };
        Ok(Plan {
            cfg,
            row: self.ids.is_none().then_some(Table5Row),
        })
    }
}

impl Plan {
    /// One pass, on the same path traced or not. Registered workloads go
    /// through `run_survey` itself; the tracer then records one span per
    /// experiment from the runner's own per-experiment wall times, laid
    /// end to end from the call's start (at `--jobs 1` the experiments run
    /// one after another). `max_power`'s row runs in its own span through
    /// the context `run_survey` would build for `table5`.
    pub fn run(&self, tracer: &mut Tracer) -> Result<SurveyRun, String> {
        let cfg = &self.cfg;
        let Some(row) = &self.row else {
            let t0 = Instant::now();
            let run = run_survey(cfg)?;
            let mut start = t0;
            for (r, wall) in run.results.iter().zip(&run.timings_s) {
                let end = start + Duration::from_secs_f64(*wall);
                tracer.record(&format!("core.exp.{}", r.id), start, end);
                start = end;
            }
            return Ok(run);
        };
        let ctx = table5_ctx(cfg);
        let t0 = Instant::now();
        let result = tracer.span("core.exp.table5", |_| row.run(&ctx));
        Ok(SurveyRun {
            fidelity: cfg.fidelity,
            seed: cfg.seed,
            engine: cfg.engine,
            platform: cfg.platform,
            results: vec![result],
            timings_s: vec![t0.elapsed().as_secs_f64()],
            sim_times_s: vec![ctx.sim_time_s()],
            sweep_points: vec![ctx.sweep_points()],
            snapshot_reuses: vec![ctx.snapshot_reuses()],
            surrogate_hits: vec![ctx.surrogate_hits()],
            spot_checks: vec![ctx.spot_checks()],
        })
    }
}

/// The context `run_survey` builds for `table5` under `cfg`.
fn table5_ctx(cfg: &SurveyConfig) -> RunCtx {
    RunCtx::new(
        cfg.fidelity,
        experiment_seed(cfg.seed, "table5"),
        cfg.engine,
    )
    .with_warm_start(cfg.warm_start)
    .with_fleet_size(cfg.fleet_size)
    .with_platform(cfg.platform)
}

/// Table V's FIRESTARTER row: the six {2500 MHz, Turbo} × EPB cells of the
/// registered `table5`, built the way it builds them — the same warm sweep
/// under the same salt and seed schedule — so every cell is bit-identical
/// to the corresponding cell of a full `table5` run at the same root seed.
/// The whole table (18 cells) does not fit one benchmark run.
struct Table5Row;

#[derive(Serialize)]
struct Row {
    cells: Vec<Table5Cell>,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.cells {
            let setting = if c.turbo_setting { "Turbo" } else { "2500" };
            writeln!(
                f,
                "{} {setting}/{}: {:.1} W, {:.2} GHz",
                c.benchmark, c.epb, c.power_w, c.core_ghz
            )?;
        }
        Ok(())
    }
}

impl Table5Row {
    /// The row's six cells, in table5's order: {2500 MHz, Turbo} × EPB.
    fn cells(&self, ctx: &RunCtx) -> Vec<Table5Cell> {
        let profile = WorkloadProfile::table5_benchmarks()
            .into_iter()
            .next()
            .expect("Table V lists FIRESTARTER first");
        let configs: Vec<(bool, EpbClass)> = [false, true]
            .into_iter()
            .flat_map(|turbo| {
                EpbClass::TABLE5_ORDER
                    .into_iter()
                    .map(move |epb| (turbo, epb))
            })
            .collect();
        ctx.sweep_warm_salted(
            0, // FIRESTARTER's benchmark index in table5
            &configs,
            |builder| {
                let mut session = builder.resolution(Resolution::Custom(100)).build();
                assign_stress_load(&mut session, &profile, false);
                session.advance_s(0.2);
                session
            },
            |node, (turbo_setting, epb), _seed| {
                let setting = if *turbo_setting {
                    FreqSetting::Turbo
                } else {
                    FreqSetting::from_mhz(2500)
                };
                let r = measure_stress(
                    node,
                    setting,
                    *epb,
                    true,
                    ctx.fidelity.table5_run_s(),
                    ctx.fidelity.table5_window_s(),
                );
                Table5Cell {
                    benchmark: profile.name.to_string(),
                    turbo_setting: *turbo_setting,
                    epb: epb.short_label().to_string(),
                    power_w: r.max_window_power_w,
                    core_ghz: r.core_ghz,
                    power_stddev_w: r.power_stddev_w,
                }
            },
        )
    }
}

impl SurveyExperiment for Table5Row {
    fn id(&self) -> &'static str {
        // The registered experiment's id, so the row draws table5's seeds.
        "table5"
    }
    fn anchor(&self) -> &'static str {
        "Table V"
    }
    fn title(&self) -> &'static str {
        "Maximum power: the FIRESTARTER row"
    }
    fn run(&self, ctx: &RunCtx) -> ExperimentResult {
        let row = Row {
            cells: self.cells(ctx),
        };
        let mut out = ExperimentResult::capture(self, ctx, &row);
        let powers: Vec<f64> = row.cells.iter().map(|c| c.power_w).collect();
        let max = powers.iter().copied().fold(f64::MIN, f64::max);
        let min = powers.iter().copied().fold(f64::MAX, f64::min);
        let hottest = row
            .cells
            .iter()
            .find(|c| c.turbo_setting && c.epb == "perf")
            .map_or(f64::NAN, |c| c.power_w);
        let bal = row
            .cells
            .iter()
            .find(|c| !c.turbo_setting && c.epb == "bal")
            .map_or(f64::NAN, |c| c.power_w);
        out.metric("max_window_power_w", max);
        // table5's own checks, restricted to the row …
        out.check(
            "Turbo/perf is the hottest configuration",
            powers.iter().all(|&p| hottest >= p - 1.0),
            format!("Turbo/perf {hottest:.1} W, row max {max:.1} W"),
        );
        out.check(
            "every configuration produced a positive power reading",
            powers.iter().all(|&p| p > 0.0),
            format!("{} cells", powers.len()),
        );
        // … and the paper claims its unit tests pin for this row.
        out.check(
            "FIRESTARTER 2500/bal power matches the paper",
            (bal - powercal::TABLE5_FIRESTARTER_W).abs() < 14.0,
            format!(
                "{bal:.1} W vs paper {:.1} W (tolerance 14 W)",
                powercal::TABLE5_FIRESTARTER_W
            ),
        );
        out.check(
            "EPB and turbo barely move FIRESTARTER power",
            max - min < 8.0,
            format!("spread {min:.1}..{max:.1} W (limit 8 W)"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haswell_survey::experiments::table5;

    /// The row copies table5's FIRESTARTER sweep; this pins the copy to the
    /// registered experiment, so it cannot drift from it silently.
    #[test]
    #[ignore = "runs all 18 cells of table5, about 90 s in release; run with --ignored"]
    fn table5_row_is_bit_identical_to_table5s_firestarter_row() {
        let plan = by_name("max_power")
            .expect("listed")
            .plan(42)
            .expect("valid");
        let row = Table5Row.cells(&table5_ctx(&plan.cfg));
        let full = table5::run_seeded(Fidelity::Quick, experiment_seed(42, "table5"));
        let reference: Vec<&Table5Cell> = full
            .cells
            .iter()
            .filter(|c| c.benchmark == row[0].benchmark)
            .collect();
        assert_eq!((row.len(), reference.len()), (6, 6));
        for (a, b) in row.iter().zip(reference) {
            let cell = format!("{} {}/{}", a.benchmark, a.turbo_setting, a.epb);
            assert_eq!(
                (a.turbo_setting, &a.epb),
                (b.turbo_setting, &b.epb),
                "{cell}"
            );
            for (x, y) in [
                (a.power_w, b.power_w),
                (a.core_ghz, b.core_ghz),
                (a.power_stddev_w, b.power_stddev_w),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{cell}: {x} vs {y}");
            }
        }
    }
}
