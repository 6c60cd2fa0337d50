//! The experiment registry and concurrent survey runner.
//!
//! Every table/figure module exposes an [`SurveyExperiment`] adapter; the
//! registry enumerates them in paper order and [`run_survey`] fans them
//! out across worker threads. Determinism contract: each experiment's RNG
//! seed is derived from the root seed and the experiment id only
//! ([`experiment_seed`]), never from scheduling, so the same `--seed`
//! yields bit-identical results for any `--jobs` value. Wall-clock
//! timings are reported separately ([`SurveyRun::timings_s`]) and are
//! deliberately excluded from the JSON document.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hsw_fleet::{ChipVariation, VariationModel};
use hsw_node::{EngineMode, Node, NodeConfig, Platform, PlatformKind, Session, SessionBuilder};
use rayon::prelude::*;
use serde::{Serialize, Value};

use crate::experiments;
use crate::report::Table;
use crate::Fidelity;

// ---------------------------------------------------------------------------
// Seed schedule
//
// One sweep base seed feeds three independent streams. Each stream that
// enumerates small integers lives under its *own* sub-base, derived from the
// sweep base with a stream-specific salt, so the streams can never collide
// for any sweep size or fleet size:
//
//   point k  : mix_seed(base, k)                          (k = 0, 1, 2, …)
//   warmup   : mix_seed(mix_seed(base, WARMUP_SALT), WARMUP_SALT)
//   node id  : mix_seed(mix_seed(base, NODE_SALT), id)    (id = 0, 1, 2, …)
//
// A single shared namespace would be a trap: `mix_seed(base, k)` and a
// hypothetical `mix_seed(base, node_id)` coincide exactly when `k ==
// node_id`, seeding two *different* simulations identically (see the
// `node_stream_fix_*` regression tests, which construct that collision).
// ---------------------------------------------------------------------------

/// Stream salt of the shared-warmup sub-base. Any large fixed constant
/// works; this one spells "WARMUP".
const WARMUP_SALT: u64 = 0x5741_524D_5550_9E37;

/// Stream salt of the fleet node-id sub-base ("NODEIDS").
const NODE_SALT: u64 = 0x4E4F_4445_4944_537F;

/// Stream salt of the surrogate spot-check sub-base ("SPOTCHK"). Like the
/// other stream salts it gives the spot-check draws their own namespace,
/// so the sample can never alias a point seed or node seed.
pub const SPOTCHECK_SALT: u64 = 0x5350_4F54_4348_4B7F;

/// Points/nodes of one surrogate sweep that re-run the full simulator.
pub const SPOTCHECK_K: usize = 2;

/// The deterministic spot-check sample of a surrogate sweep: `k` distinct
/// indices in `0..n`, in draw order, from the spot-check sub-base
/// `mix_seed(base, SPOTCHECK_SALT)`. A pure function of `(base, n, k)` —
/// never of scheduling — so the sample is byte-identical at any `--jobs`
/// value and pool width. Keep `k` small (the distinctness scan is O(k)
/// per draw); the executors use [`SPOTCHECK_K`].
pub fn spotcheck_ids(base: u64, n: usize, k: usize) -> Vec<usize> {
    let sub = mix_seed(base, SPOTCHECK_SALT);
    let mut ids: Vec<usize> = Vec::with_capacity(k.min(n));
    let mut draw = 0u64;
    while ids.len() < k.min(n) {
        let id = (mix_seed(sub, draw) % n as u64) as usize;
        if !ids.contains(&id) {
            ids.push(id);
        }
        draw += 1;
    }
    ids
}

/// Relative error of a surrogate value against the full simulator's
/// (absolute error when the simulator reads exactly zero).
pub fn rel_err(surrogate: f64, full: f64) -> f64 {
    if full == 0.0 {
        surrogate.abs()
    } else {
        ((surrogate - full) / full).abs()
    }
}

/// One surrogate sweep answer: the closed-form value, plus the full
/// simulator's answer when the point was in the spot-check sample.
#[derive(Debug, Clone)]
pub struct Surrogate<R> {
    pub value: R,
    pub checked: Option<R>,
}

/// The warmup session's seed for a sweep base (its own sub-base, outside
/// both the point-index and node-id streams).
fn warmup_seed(base: u64) -> u64 {
    mix_seed(mix_seed(base, WARMUP_SALT), WARMUP_SALT)
}

/// Fleet node `id`'s seed for a sweep base: drawn from the node-id
/// sub-base, so it coincides with no point seed `mix_seed(base, k)` even
/// when `id == k`.
pub fn node_seed(base: u64, id: u64) -> u64 {
    mix_seed(mix_seed(base, NODE_SALT), id)
}

/// Everything an experiment gets from the runner.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub fidelity: Fidelity,
    /// Per-experiment seed, already derived from the survey root seed and
    /// the experiment id. Fully deterministic experiments ignore it.
    pub seed: u64,
    /// Time-advance engine every session of this experiment runs under.
    pub engine: EngineMode,
    /// Simulated-time ledger: every session built through [`RunCtx::session`]
    /// credits its total simulated nanoseconds here on drop.
    sim_ns: Arc<AtomicU64>,
    /// Sweep points executed through any of the `sweep*` executors, surrogate
    /// answers included (the scoreboard's `pts` column).
    points: Arc<AtomicU64>,
    /// Warm-start mode: `true` runs each warm sweep's warmup once, `false`
    /// once per fork; results are byte-identical (see [`RunCtx::forked`]).
    warm_start: bool,
    /// Sweep points served from a shared warm-start snapshot instead of a
    /// re-run warmup (the scoreboard's `reuse` column).
    reuses: Arc<AtomicU64>,
    /// Sweep points answered by the closed-form surrogate instead of the
    /// simulator (the scoreboard's `sur` column).
    surrogate_hits: Arc<AtomicU64>,
    /// Surrogate points re-run through the full simulator as spot checks
    /// (the scoreboard's `chk` column).
    spot_checks: Arc<AtomicU64>,
    /// `--fleet-size` override for the fleet experiments; `None` leaves the
    /// size to the fidelity preset ([`Fidelity::fleet_size`]).
    pub fleet_size: Option<usize>,
    /// Which surveyed machine [`RunCtx::platform`] models (`--platform`).
    pub platform_kind: PlatformKind,
}

impl RunCtx {
    pub fn new(fidelity: Fidelity, seed: u64, engine: EngineMode) -> Self {
        RunCtx {
            fidelity,
            seed,
            engine,
            sim_ns: Arc::new(AtomicU64::new(0)),
            points: Arc::new(AtomicU64::new(0)),
            warm_start: true,
            reuses: Arc::new(AtomicU64::new(0)),
            surrogate_hits: Arc::new(AtomicU64::new(0)),
            spot_checks: Arc::new(AtomicU64::new(0)),
            fleet_size: None,
            platform_kind: PlatformKind::Haswell,
        }
    }

    /// Select the machine under test (`--platform`). Default: the paper's
    /// Haswell node.
    pub fn with_platform(mut self, kind: PlatformKind) -> Self {
        self.platform_kind = kind;
        self
    }

    /// Select cold (`false`) or warm (`true`, the default) execution of the
    /// warm-sweep executors. Results are identical either way.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Override the fleet size the fleet experiments simulate (`--fleet-size`).
    pub fn with_fleet_size(mut self, fleet_size: Option<usize>) -> Self {
        self.fleet_size = fleet_size;
        self
    }

    /// Nodes per fleet experiment: the `--fleet-size` override if given,
    /// else the fidelity preset.
    pub fn fleet_size(&self) -> usize {
        self.fleet_size.unwrap_or(self.fidelity.fleet_size())
    }

    /// The raw `--fleet-size` override, for experiments that substitute
    /// their own per-fidelity scale defaults (the analytic-scale sweep).
    pub fn fleet_size_override(&self) -> Option<usize> {
        self.fleet_size
    }

    /// The selected platform under this experiment's seed and engine.
    pub fn platform(&self) -> Platform {
        self.platform_kind
            .platform()
            .with_seed(self.seed)
            .with_engine(self.engine)
    }

    /// Start a session on [`RunCtx::platform`], wired to the simulated-time
    /// ledger. Experiments derive per-sweep-point seeds from it with
    /// [`SessionBuilder::derive_seed`].
    pub fn session(&self) -> SessionBuilder {
        self.platform().session().time_ledger(self.sim_ns.clone())
    }

    /// Total simulated seconds advanced by sessions dropped so far.
    pub fn sim_time_s(&self) -> f64 {
        self.sim_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Sweep points executed so far through the sweep executor.
    pub fn sweep_points(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Fan `points` through the worker pool with this experiment's seed as
    /// the derivation base: point `k` runs as `f(&points[k],
    /// mix_seed(self.seed, k))`. See [`sweep`] for the determinism
    /// contract.
    pub fn sweep<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Send + Sync,
    {
        self.points
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        sweep(self.seed, points, f)
    }

    /// Sweep points served from a shared warm-start snapshot so far.
    pub fn snapshot_reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Sweep points answered by the closed-form surrogate so far.
    pub fn surrogate_hits(&self) -> u64 {
        self.surrogate_hits.load(Ordering::Relaxed)
    }

    /// Surrogate points re-run through the full simulator so far.
    pub fn spot_checks(&self) -> u64 {
        self.spot_checks.load(Ordering::Relaxed)
    }

    /// Credit surrogate/spot-check counts from an experiment that compares
    /// surrogate and simulator itself (the accuracy map).
    pub fn note_surrogate(&self, hits: u64, checks: u64) {
        self.surrogate_hits.fetch_add(hits, Ordering::Relaxed);
        self.spot_checks.fetch_add(checks, Ordering::Relaxed);
    }

    /// Warm-start sweep: amortize a shared settle phase across all points.
    ///
    /// `warmup` drives a node from a session builder (seeded from the warmup
    /// sub-base, not wired to the time ledger) to its converged pre-point
    /// state; `point` gets a fork of it under the point seed
    /// `mix_seed(base, k)`, the point and that seed. Warm start runs
    /// `warmup` once, cold start once per point ([`RunCtx::forked`]), with
    /// byte-identical results: [`hsw_node`]'s noise is keyed by (seed,
    /// domain, sim-time), not steps.
    ///
    /// Contract for `warmup`: configure the builder freely (spec,
    /// resolution, EET, …) but never call [`SessionBuilder::seed`] /
    /// [`SessionBuilder::derive_seed`] — the executor owns the seed
    /// schedule.
    pub fn sweep_warm<P, R, W, F>(&self, points: &[P], warmup: W, point: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Session + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
    {
        let all = self.count_points(points.len());
        self.warm_points(self.seed, points, &all, &warmup, &point)
    }

    /// Like [`RunCtx::sweep_warm`], with `salt` separating the seed streams
    /// of an experiment's several warm sweeps (panel index, benchmark id, …).
    pub fn sweep_warm_salted<P, R, W, F>(
        &self,
        salt: u64,
        points: &[P],
        warmup: W,
        point: F,
    ) -> Vec<R>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Session + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
    {
        let all = self.count_points(points.len());
        self.warm_points(mix_seed(self.seed, salt), points, &all, &warmup, &point)
    }

    /// Surrogate sweep: `surrogate` answers every point from the closed form
    /// under its point seed; a deterministic [`SPOTCHECK_K`]-point sample
    /// also runs [`RunCtx::sweep_warm`]'s `warmup`/`point` and attaches the
    /// answer, byte-identical to point `k` of a full `sweep_warm` sweep at
    /// any `--jobs`/pool width, warm or cold.
    pub fn sweep_surrogate<P, R, W, F, S>(
        &self,
        points: &[P],
        warmup: W,
        point: F,
        surrogate: S,
    ) -> Vec<Surrogate<R>>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Session + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
        S: Fn(&P, u64) -> R + Send + Sync,
    {
        let base = self.seed;
        self.spot_checked(
            points.len(),
            |k| surrogate(&points[k], mix_seed(base, k as u64)),
            |ids| self.warm_points(base, points, ids, &warmup, &point),
        )
    }

    /// Fleet surrogate sweep: [`RunCtx::sweep_surrogate`] over the members
    /// of a [`RunCtx::sweep_fleet`] fleet. `surrogate` answers member
    /// `(variation, id, seed)` from the closed form with the simulator's own
    /// `ChipVariation` draw; spot checks match the full-fidelity fleet.
    pub fn sweep_fleet_surrogate<R, W, F, S>(
        &self,
        fleet_size: usize,
        model: &VariationModel,
        warmup: W,
        member: F,
        surrogate: S,
    ) -> Vec<Surrogate<R>>
    where
        R: Send,
        W: Fn(SessionBuilder) -> Session + Send + Sync,
        F: Fn(&mut Node, &ChipVariation, usize, u64) -> R + Send + Sync,
        S: Fn(&ChipVariation, usize, u64) -> R + Send + Sync,
    {
        let base = self.seed;
        self.spot_checked(
            fleet_size,
            |id| {
                let seed = node_seed(base, id as u64);
                surrogate(&ChipVariation::sample(model, seed), id, seed)
            },
            |ids| self.warm_fleet(base, model, ids, &warmup, &member),
        )
    }

    /// Fleet sweep: warm one *golden* node, then fork it into `fleet_size`
    /// manufactured variants and run `member` on each.
    ///
    /// `warmup` drives the reference chip (nominal spec unless the builder
    /// overrides it — a package power cap set via [`SessionBuilder::spec`]
    /// is inherited by every member) to its converged state, exactly like
    /// [`RunCtx::sweep_warm`]. Node `id` then forks as its own chip:
    ///
    /// * seed `node_seed(base, id)` — the node-id sub-base, collision-free
    ///   against point and warmup streams (see the seed-schedule note);
    /// * spec `ChipVariation::sample(model, seed).apply(warmup spec)` — the
    ///   per-chip manufacturing draw, a pure function of the node seed;
    /// * state restored from the golden snapshot, clock included, so every
    ///   member continues from the same converged instant.
    ///
    /// `member` receives `(node, &variation, id, seed)`. Results come back
    /// in node-id order; byte-identical for any pool width and `--jobs`,
    /// warm or cold.
    pub fn sweep_fleet<R, W, F>(
        &self,
        fleet_size: usize,
        model: &VariationModel,
        warmup: W,
        member: F,
    ) -> Vec<R>
    where
        R: Send,
        W: Fn(SessionBuilder) -> Session + Send + Sync,
        F: Fn(&mut Node, &ChipVariation, usize, u64) -> R + Send + Sync,
    {
        let all = self.count_points(fleet_size);
        self.warm_fleet(self.seed, model, &all, &warmup, &member)
    }

    /// [`RunCtx::forked`] over `points[k]` for each `k` in `ids`, forked
    /// under the point seed `mix_seed(base, k)`.
    fn warm_points<P: Sync, R: Send>(
        &self,
        base: u64,
        points: &[P],
        ids: &[usize],
        warmup: &(impl Fn(SessionBuilder) -> Session + Sync),
        point: &(impl Fn(&mut Node, &P, u64) -> R + Sync),
    ) -> Vec<R> {
        self.forked(
            base,
            ids,
            warmup,
            |cfg, k| cfg.clone().with_seed(mix_seed(base, k as u64)),
            |node, k, seed| point(node, &points[k], seed),
        )
    }

    /// [`RunCtx::forked`] over fleet members `ids`, each forked as its own
    /// chip (see [`RunCtx::sweep_fleet`]).
    fn warm_fleet<R: Send>(
        &self,
        base: u64,
        model: &VariationModel,
        ids: &[usize],
        warmup: &(impl Fn(SessionBuilder) -> Session + Sync),
        member: &(impl Fn(&mut Node, &ChipVariation, usize, u64) -> R + Sync),
    ) -> Vec<R> {
        let chip = |seed| ChipVariation::sample(model, seed);
        self.forked(
            base,
            ids,
            warmup,
            |cfg, id| {
                let seed = node_seed(base, id as u64);
                let spec = chip(seed).apply(&cfg.spec);
                cfg.clone().with_seed(seed).with_spec(spec)
            },
            |node, id, seed| member(node, &chip(seed), id, seed),
        )
    }

    /// The one warm-fork executor: warm a node with `warmup` under the
    /// sweep base's warmup seed, then run `body(node, id, seed)` on a fork
    /// of it for each of `ids`, returning results in `ids` order. Fork `id`
    /// is a fresh `Node::new(fork_cfg(&warm config, id))` fully restored
    /// from the warm snapshot, clock included, under the seed `fork_cfg`
    /// gave it. Warm start builds the image once and counts every fork as a
    /// snapshot reuse; cold start rebuilds it per id; empty `ids` never
    /// warm. The warmup is unledgered so that `sim_time_s` is the same in
    /// both modes: each fork credits its final clock, which starts at the
    /// warmup's end, so every fork accounts for warmup + point time.
    fn forked<R: Send>(
        &self,
        base: u64,
        ids: &[usize],
        warmup: &(impl Fn(SessionBuilder) -> Session + Sync),
        fork_cfg: impl Fn(&NodeConfig, usize) -> NodeConfig + Sync,
        body: impl Fn(&mut Node, usize, u64) -> R + Sync,
    ) -> Vec<R> {
        if ids.is_empty() {
            return Vec::new();
        }
        let image = || {
            let node = warmup(self.platform().session().seed(warmup_seed(base))).into_node();
            (node.snapshot(), node.config().clone())
        };
        let shared = self.warm_start.then(image);
        if shared.is_some() {
            self.reuses.fetch_add(ids.len() as u64, Ordering::Relaxed);
        }
        ids.par_iter()
            .map(|&id| {
                let img = shared
                    .as_ref()
                    .map_or_else(|| Cow::Owned(image()), Cow::Borrowed);
                let mut node = Node::new(fork_cfg(&img.1, id));
                node.restore(&img.0);
                let seed = node.config().seed;
                let r = body(&mut node, id, seed);
                self.sim_ns.fetch_add(node.now_ns(), Ordering::Relaxed);
                r
            })
            .collect()
    }

    /// The surrogate pattern behind both surrogate sweeps: answer each of
    /// `n` indices from the closed form `closed`, draw [`spotcheck_ids`]
    /// under this experiment's seed, run `full` over only those indices and
    /// attach its answers, given in sample order.
    fn spot_checked<R: Send>(
        &self,
        n: usize,
        closed: impl Fn(usize) -> R + Sync,
        full: impl FnOnce(&[usize]) -> Vec<R>,
    ) -> Vec<Surrogate<R>> {
        self.surrogate_hits.fetch_add(n as u64, Ordering::Relaxed);
        let checked = spotcheck_ids(self.seed, n, SPOTCHECK_K);
        self.spot_checks
            .fetch_add(checked.len() as u64, Ordering::Relaxed);
        let mut out: Vec<Surrogate<R>> = self
            .count_points(n)
            .par_iter()
            .map(|&k| Surrogate {
                value: closed(k),
                checked: None,
            })
            .collect();
        for (&k, r) in checked.iter().zip(full(&checked)) {
            out[k].checked = Some(r);
        }
        out
    }

    /// Credit `n` sweep points to the `pts` column and return their indices
    /// `0..n` as a slice (the rayon shim parallelizes slices, not ranges).
    fn count_points(&self, n: usize) -> Vec<usize> {
        self.points.fetch_add(n as u64, Ordering::Relaxed);
        (0..n).collect()
    }
}

/// The deterministic intra-experiment sweep executor: run `f` over every
/// point on the worker pool and return the results in point order.
///
/// Point `k`'s seed is `mix_seed(base_seed, k)` — the same order-free
/// derivation as [`SessionBuilder::derive_seed`] — so it depends on the
/// sweep geometry only, never on scheduling. Combined with the pool's
/// index-ordered collection this keeps results byte-identical for any
/// pool size (`RAYON_NUM_THREADS`) and any `--jobs` value; only wall
/// clock changes.
pub fn sweep<P, R, F>(base_seed: u64, points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P, u64) -> R + Send + Sync,
{
    points
        .par_iter()
        .enumerate()
        .map(|(k, p)| f(p, mix_seed(base_seed, k as u64)))
        .collect()
}

/// Worker threads in the pool the sweep executor fans points across.
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}

/// One fidelity check: a paper claim the result either reproduces or not.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// What one experiment hands back to the runner.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub id: &'static str,
    /// Where in the paper this comes from ("Table III", "Section VI-B", …).
    pub anchor: &'static str,
    pub title: &'static str,
    /// The seed the experiment ran with (0 for deterministic experiments).
    pub seed: u64,
    /// The paper-style text rendering (the module's `Display`).
    pub text: String,
    /// Key scalar metrics, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fidelity checks against the paper's claims.
    pub checks: Vec<Check>,
    /// The full result structure, serialized.
    pub artifact: Value,
}

impl ExperimentResult {
    /// Capture an experiment's result structure: text via `Display`,
    /// artifact via `Serialize`.
    pub fn capture<T: Serialize + std::fmt::Display>(
        exp: &dyn SurveyExperiment,
        ctx: &RunCtx,
        result: &T,
    ) -> ExperimentResult {
        ExperimentResult {
            id: exp.id(),
            anchor: exp.anchor(),
            title: exp.title(),
            seed: if exp.seeded() { ctx.seed } else { 0 },
            text: result.to_string(),
            metrics: Vec::new(),
            checks: Vec::new(),
            artifact: result.to_value(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.metrics.push((name, value));
        self
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) -> &mut Self {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
        self
    }

    pub fn checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// A registry entry: one paper table/figure reproduction.
pub trait SurveyExperiment: Send + Sync {
    /// Stable identifier (the module name).
    fn id(&self) -> &'static str;
    /// Paper anchor ("Table III", "Figure 7", "Section VI-B", …).
    fn anchor(&self) -> &'static str;
    /// One-line description.
    fn title(&self) -> &'static str;
    /// Whether the experiment consumes the per-experiment seed. Purely
    /// analytic experiments return false and always produce identical
    /// output.
    fn seeded(&self) -> bool {
        true
    }
    /// Whether this experiment can run under `--fidelity analytic`: its
    /// sweeps answer from the closed-form surrogate with simulator spot
    /// checks. Experiments opt in; the runner rejects an analytic survey
    /// that selects any experiment still at the default.
    fn supports_surrogate(&self) -> bool {
        false
    }
    fn run(&self, ctx: &RunCtx) -> ExperimentResult;
}

/// SplitMix64 step — the mixer behind [`experiment_seed`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive the seed for one experiment from the survey root seed: FNV-1a
/// over the id, folded into a SplitMix64-whitened root. Depends on
/// `(root_seed, id)` only — never on scheduling order or thread count.
pub fn experiment_seed(root_seed: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut s = root_seed ^ h;
    splitmix64(&mut s)
}

/// Derive a sub-stream seed inside an experiment (e.g. one per campaign).
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    splitmix64(&mut s)
}

/// The Haswell registry: the paper's 16 experiments in paper order, then
/// the fleet-scale follow-ups (Schuchart et al.). Equivalent to
/// [`registry_for`]`(PlatformKind::Haswell)`.
pub fn registry() -> Vec<Box<dyn SurveyExperiment>> {
    vec![
        Box::new(experiments::fig1::Experiment),
        Box::new(experiments::section2c_epb::Experiment),
        Box::new(experiments::table1::Experiment),
        Box::new(experiments::table2::Experiment),
        Box::new(experiments::table3::Experiment),
        Box::new(experiments::fig2::Experiment),
        Box::new(experiments::table4::Experiment),
        Box::new(experiments::table5::Experiment),
        Box::new(experiments::fig3::Experiment),
        Box::new(experiments::fig4::Experiment),
        Box::new(experiments::fig56::Experiment),
        Box::new(experiments::section6b_governor::Experiment),
        Box::new(experiments::fig7::Experiment),
        Box::new(experiments::fig8::Experiment),
        Box::new(experiments::section8::Experiment),
        Box::new(experiments::sku_extrapolation::Experiment),
        Box::new(experiments::fleet_cap_spread::Experiment),
        Box::new(experiments::fleet_straggler::Experiment),
        Box::new(experiments::analytic_accuracy::Experiment),
        Box::new(experiments::fleet_analytic_scale::Experiment),
    ]
}

/// The experiments a platform runs: the paper set on Haswell, the
/// follow-up survey's reproductions (1905.12468) on Skylake-SP.
pub fn registry_for(platform: PlatformKind) -> Vec<Box<dyn SurveyExperiment>> {
    match platform {
        PlatformKind::Haswell => registry(),
        PlatformKind::SkylakeSp => vec![
            Box::new(experiments::skx_license_table::Experiment),
            Box::new(experiments::skx_ufs_mesh::Experiment),
            Box::new(experiments::analytic_accuracy::Experiment),
            Box::new(experiments::fleet_analytic_scale::Experiment),
        ],
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct SurveyConfig {
    pub fidelity: Fidelity,
    /// Root seed; per-experiment seeds derive from it and the id.
    pub seed: u64,
    /// Worker threads (clamped to [1, #experiments]).
    pub jobs: usize,
    /// Run only these ids (registry order is kept); `None` = all.
    pub only: Option<Vec<String>>,
    /// Time-advance engine for every experiment session. Both modes are
    /// bit-identical; `Fixed` is the escape hatch for validating `Event`.
    pub engine: EngineMode,
    /// Warm-start snapshot forking for sweep settle phases. Both settings
    /// are bit-identical; `false` is the escape hatch for validating the
    /// snapshot fork path.
    pub warm_start: bool,
    /// Nodes per fleet experiment (`--fleet-size`); `None` uses the
    /// fidelity preset.
    pub fleet_size: Option<usize>,
    /// Which surveyed machine to model; selects the experiment registry.
    pub platform: PlatformKind,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            fidelity: Fidelity::Quick,
            seed: 42,
            jobs: 1,
            only: None,
            engine: EngineMode::default(),
            warm_start: true,
            fleet_size: None,
            platform: PlatformKind::Haswell,
        }
    }
}

/// A completed survey.
#[derive(Debug, Clone)]
pub struct SurveyRun {
    pub fidelity: Fidelity,
    pub seed: u64,
    pub engine: EngineMode,
    pub platform: PlatformKind,
    /// Results in registry order, independent of scheduling.
    pub results: Vec<ExperimentResult>,
    /// Wall-clock seconds per experiment, parallel to `results`. Kept out
    /// of the JSON document so it stays byte-identical across runs.
    pub timings_s: Vec<f64>,
    /// Simulated seconds per experiment, parallel to `results`. Fully
    /// deterministic (a function of fidelity only), so it does go into
    /// the JSON document.
    pub sim_times_s: Vec<f64>,
    // Per-experiment sweep counters, parallel to `results`. Deterministic,
    // but harness details rather than paper results: scoreboard only, never
    // in the JSON document.
    /// Sweep points each experiment fanned through the pool.
    pub sweep_points: Vec<u64>,
    /// Points served from a shared warm-start snapshot (0 when cold).
    pub snapshot_reuses: Vec<u64>,
    /// Points answered from the closed-form surrogate.
    pub surrogate_hits: Vec<u64>,
    /// Surrogate points re-run through the full simulator as spot checks.
    pub spot_checks: Vec<u64>,
}

/// Run the survey: fan the selected experiments across `jobs` worker
/// threads. Returns results in registry order. Fails on unknown `only`
/// ids.
pub fn run_survey(cfg: &SurveyConfig) -> Result<SurveyRun, String> {
    let all = registry_for(cfg.platform);
    let selected: Vec<Box<dyn SurveyExperiment>> = match &cfg.only {
        None => all,
        Some(ids) => {
            let known: Vec<&str> = all.iter().map(|e| e.id()).collect();
            if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
                return Err(format!(
                    "unknown experiment id `{bad}` (known: {})",
                    known.join(", ")
                ));
            }
            all.into_iter()
                .filter(|e| ids.iter().any(|id| id == e.id()))
                .collect()
        }
    };
    if selected.is_empty() {
        return Err("no experiments selected".to_string());
    }
    if cfg.fidelity.is_analytic() {
        let refusing: Vec<&str> = selected
            .iter()
            .filter(|e| !e.supports_surrogate())
            .map(|e| e.id())
            .collect();
        if !refusing.is_empty() {
            let capable: Vec<&str> = registry_for(cfg.platform)
                .iter()
                .filter(|e| e.supports_surrogate())
                .map(|e| e.id())
                .collect();
            return Err(format!(
                "--fidelity analytic: no surrogate support in {}; select \
                 surrogate-capable experiments with --only (on this \
                 platform: {})",
                refusing.join(", "),
                capable.join(", ")
            ));
        }
    }

    let jobs = cfg.jobs.clamp(1, selected.len());
    let next = AtomicUsize::new(0);
    // One slot per experiment: its result, wall seconds and context (whose
    // counters feed the scoreboard).
    let slots: Mutex<Vec<Option<(ExperimentResult, f64, RunCtx)>>> =
        Mutex::new((0..selected.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= selected.len() {
                    break;
                }
                let exp = &selected[i];
                let ctx = RunCtx::new(
                    cfg.fidelity,
                    experiment_seed(cfg.seed, exp.id()),
                    cfg.engine,
                )
                .with_warm_start(cfg.warm_start)
                .with_fleet_size(cfg.fleet_size)
                .with_platform(cfg.platform);
                // lint:allow(D1): wall time is stderr progress reporting only, never survey.json
                let t0 = Instant::now();
                let result = exp.run(&ctx);
                let wall_s = t0.elapsed().as_secs_f64();
                slots.lock().unwrap()[i] = Some((result, wall_s, ctx));
            });
        }
    });

    let slots: Vec<(ExperimentResult, f64, RunCtx)> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("worker left a slot unfilled"))
        .collect();
    let count = |f: fn(&RunCtx) -> u64| slots.iter().map(|s| f(&s.2)).collect();
    Ok(SurveyRun {
        fidelity: cfg.fidelity,
        seed: cfg.seed,
        engine: cfg.engine,
        platform: cfg.platform,
        timings_s: slots.iter().map(|s| s.1).collect(),
        sim_times_s: slots.iter().map(|s| s.2.sim_time_s()).collect(),
        sweep_points: count(RunCtx::sweep_points),
        snapshot_reuses: count(RunCtx::snapshot_reuses),
        surrogate_hits: count(RunCtx::surrogate_hits),
        spot_checks: count(RunCtx::spot_checks),
        results: slots.into_iter().map(|s| s.0).collect(),
    })
}

impl SurveyRun {
    /// The deterministic JSON document (the content of `survey.json`).
    /// Contains no wall-clock data and no engine tag: identical
    /// `(--fidelity, --seed, --only)` → identical bytes, for any `--jobs`
    /// value and either `--engine` mode. Simulated time per experiment IS
    /// included — it is a pure function of the fidelity.
    pub fn to_json_value(&self) -> Value {
        let experiments: Vec<Value> = self
            .results
            .iter()
            .zip(&self.sim_times_s)
            .map(|(r, sim_s)| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(r.id.to_string())),
                    ("anchor".to_string(), Value::Str(r.anchor.to_string())),
                    ("title".to_string(), Value::Str(r.title.to_string())),
                    ("seed".to_string(), Value::UInt(r.seed)),
                    ("sim_time_s".to_string(), Value::Float(*sim_s)),
                    (
                        "metrics".to_string(),
                        Value::Object(
                            r.metrics
                                .iter()
                                .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                                .collect(),
                        ),
                    ),
                    ("checks".to_string(), r.checks.to_value()),
                    ("artifact".to_string(), r.artifact.clone()),
                ])
            })
            .collect();
        let (passed, total) = self.checks_passed_of_total();
        let n = self.results.len() as u64;
        let cpu = match self.platform {
            PlatformKind::Haswell => "Haswell",
            PlatformKind::SkylakeSp => "Skylake SP",
        };
        let paper = format!("An Energy Efficiency Feature Survey of the Intel {cpu} Processor");
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("haswell-survey/v1".to_string()),
            ),
            ("paper".to_string(), Value::Str(paper)),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("fidelity".to_string(), self.fidelity.to_value()),
            (
                "summary".to_string(),
                Value::Object(vec![
                    ("experiments".to_string(), Value::UInt(n)),
                    ("checks_total".to_string(), Value::UInt(total as u64)),
                    ("checks_passed".to_string(), Value::UInt(passed as u64)),
                ]),
            ),
            ("experiments".to_string(), Value::Array(experiments)),
        ])
    }

    /// Checks passed and checks run, over every experiment.
    fn checks_passed_of_total(&self) -> (usize, usize) {
        let checks = self.results.iter().flat_map(|r| &r.checks);
        (checks.clone().filter(|c| c.passed).count(), checks.count())
    }

    /// Pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_json_value())
            .expect("survey JSON serialization cannot fail");
        s.push('\n');
        s
    }

    /// Per-experiment check scoreboard as a paper-style [`Table`], with
    /// wall-clock and simulated time plus the sweep points each experiment
    /// fanned through the `pool_threads()`-wide worker pool. Wall time and
    /// pool width live here (and on stderr) only — never in the JSON
    /// document.
    pub fn scoreboard(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Survey scoreboard: paper fidelity checks per experiment \
                 (sweep pool: {} threads)",
                pool_threads()
            ),
            vec![
                "experiment",
                "anchor",
                "checks",
                "status",
                "pts",
                "reuse",
                "sur",
                "chk",
                "wall s",
                "sim s",
            ],
        );
        for (i, r) in self.results.iter().enumerate() {
            let passed = r.checks.iter().filter(|c| c.passed).count();
            t.row(vec![
                r.id.to_string(),
                r.anchor.to_string(),
                format!("{passed}/{}", r.checks.len()),
                crate::report::pass_fail(r.checks_passed()).to_string(),
                self.sweep_points[i].to_string(),
                self.snapshot_reuses[i].to_string(),
                self.surrogate_hits[i].to_string(),
                self.spot_checks[i].to_string(),
                format!("{:.2}", self.timings_s[i]),
                format!("{:.2}", self.sim_times_s[i]),
            ]);
        }
        t
    }

    /// The human-readable survey report (paper-style text per experiment
    /// plus the check scoreboard).
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "================================================================\n\
                 {} — {} [{}]\n\
                 ================================================================\n\
                 {}\n",
                r.anchor, r.title, r.id, r.text
            ));
            for c in &r.checks {
                out.push_str(&format!(
                    "  [{}] {}: {}\n",
                    crate::report::pass_fail(c.passed),
                    c.name,
                    c.detail
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("{}\n", self.scoreboard()));
        let (passed, total) = self.checks_passed_of_total();
        out.push_str(&format!(
            "survey: {} experiments, {passed}/{total} checks passed\n",
            self.results.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_hold_22_unique_ids_across_platforms() {
        let mut ids: Vec<&str> = Vec::new();
        for kind in PlatformKind::ALL {
            ids.extend(registry_for(kind).iter().map(|e| e.id()));
        }
        assert_eq!(
            ids.len(),
            24,
            "20 Haswell + 4 Skylake-SP (the two analytic experiments \
             register on both platforms)"
        );
        assert_eq!(registry().len(), 20, "the paper set plus extensions");
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 22, "duplicate ids: {ids:?}");
    }

    /// The collision the node-id sub-base exists to prevent: in a single
    /// shared namespace, node id `i` and point index `k` seed identically
    /// whenever `i == k` — two different simulations, one RNG stream.
    #[test]
    fn node_stream_fix_closes_the_shared_namespace_collision() {
        let base = experiment_seed(42, "fleet_cap_spread");
        for i in 0..64u64 {
            // The trap (old scheme): guaranteed collision at i == k.
            assert_eq!(mix_seed(base, i), mix_seed(base, i));
            // The fix: the node stream never meets the point stream …
            for k in 0..64u64 {
                assert_ne!(
                    node_seed(base, i),
                    mix_seed(base, k),
                    "node {i} collides with point {k}"
                );
            }
            // … nor the warmup stream.
            assert_ne!(node_seed(base, i), warmup_seed(base));
        }
    }

    /// All three streams of one sweep base are pairwise distinct over dense
    /// low index ranges, for several bases.
    #[test]
    fn node_stream_fix_keeps_streams_pairwise_distinct() {
        for root in [0u64, 1, 42, 0xDEAD_BEEF] {
            let base = experiment_seed(root, "fleet_straggler");
            let mut seen = std::collections::BTreeSet::new();
            assert!(seen.insert(warmup_seed(base)));
            for idx in 0..512u64 {
                assert!(seen.insert(mix_seed(base, idx)), "point {idx} collided");
                assert!(seen.insert(node_seed(base, idx)), "node {idx} collided");
            }
        }
    }

    /// Runs each warm-fork entry point on `n` tiny inputs under a fresh
    /// context and returns its result bits (surrogate answers flattened to
    /// value/checked pairs) with that context.
    fn fork_entry_points(warm: bool, n: usize, warmups: &AtomicUsize) -> Vec<(Vec<u64>, RunCtx)> {
        use {hsw_exec::WorkloadProfile, hsw_hwspec::freq::FreqSetting};
        let warmup = |b: SessionBuilder| {
            warmups.fetch_add(1, Ordering::Relaxed);
            let mut s = b.resolution(hsw_node::Resolution::Custom(100)).build();
            s.run_on_socket(0, &WorkloadProfile::compute(), 4, 1);
            s.advance_s(0.02);
            s
        };
        let point = |node: &mut Node, cores: usize| {
            node.run_on_socket(0, &WorkloadProfile::compute(), cores, 1);
            node.set_setting_all(FreqSetting::from_mhz(1200 + 100 * cores as u32));
            node.advance_s(0.01);
            // Transition times carry the fork's noise and the warmup's state.
            let done: u64 = node
                .drain_transitions(0)
                .iter()
                .map(|t| t.completed_at)
                .sum();
            node.true_pkg_power_w(0).to_bits() ^ done
        };
        let pt = |node: &mut Node, &k: &usize, _: u64| point(node, k);
        let member = |node: &mut Node, _: &ChipVariation, id: usize, _: u64| point(node, id + 1);
        let sur = |v: Vec<Surrogate<u64>>| {
            v.iter()
                .flat_map(|s| [s.value, s.checked.unwrap_or(0)])
                .collect()
        };
        let run = |f: &dyn Fn(&RunCtx) -> Vec<u64>| {
            let c = RunCtx::new(Fidelity::Quick, 9, EngineMode::default()).with_warm_start(warm);
            (f(&c), c)
        };
        let (pts, model): (Vec<usize>, _) = ((1..=n).collect(), VariationModel::paper_fleet());
        vec![
            run(&|c| c.sweep_warm(&pts, warmup, pt)),
            run(&|c| c.sweep_warm_salted(5, &pts, warmup, pt)),
            run(&|c| sur(c.sweep_surrogate(&pts, warmup, pt, |&k, s| s ^ k as u64))),
            run(&|c| c.sweep_fleet(n, &model, warmup, member)),
            run(&|c| {
                sur(c.sweep_fleet_surrogate(n, &model, warmup, member, |_, id, s| s ^ id as u64))
            }),
        ]
    }

    /// The warm-fork executor contract: warm and cold mode agree bit for
    /// bit on results and deterministic counters; warm mode runs each
    /// sweep's warmup once and serves every fork from its snapshot, cold
    /// mode runs the warmup once per fork; and empty input returns nothing
    /// without running the warmup.
    #[test]
    fn warm_and_cold_forks_agree_on_results_and_counters() {
        let warmups = AtomicUsize::new(0);
        for warm in [true, false] {
            for (out, ctx) in fork_entry_points(warm, 0, &warmups) {
                assert_eq!((out.len(), ctx.snapshot_reuses()), (0, 0));
            }
        }
        assert_eq!(warmups.load(Ordering::Relaxed), 0, "empty input warmed");
        let [(warm, warm_ups), (cold, cold_ups)] = [true, false].map(|w| {
            warmups.store(0, Ordering::Relaxed);
            let out = fork_entry_points(w, 3, &warmups);
            (out, warmups.load(Ordering::Relaxed))
        });
        let forks = [3, 3, SPOTCHECK_K as u64, 3, SPOTCHECK_K as u64];
        assert_eq!(warm_ups, forks.len(), "warm warmups: one per sweep");
        assert_eq!(
            cold_ups as u64,
            forks.iter().sum(),
            "cold warmups: one per fork"
        );
        let counters = |c: &RunCtx| {
            let sim = c.sim_time_s().to_bits();
            [c.sweep_points(), c.surrogate_hits(), c.spot_checks(), sim]
        };
        for (i, ((w, wc), (c, cc))) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w, c, "entry point {i}: results differ");
            assert_eq!(counters(wc), counters(cc), "entry point {i}: counters");
            let reuses = (wc.snapshot_reuses(), cc.snapshot_reuses());
            assert_eq!(reuses, (forks[i], 0), "entry point {i}: snapshot reuses");
        }
    }

    #[test]
    fn experiment_seeds_depend_on_root_and_id() {
        assert_eq!(experiment_seed(1, "fig3"), experiment_seed(1, "fig3"));
        assert_ne!(experiment_seed(1, "fig3"), experiment_seed(2, "fig3"));
        assert_ne!(experiment_seed(1, "fig3"), experiment_seed(1, "fig56"));
    }

    #[test]
    fn unknown_only_id_is_rejected() {
        let cfg = SurveyConfig {
            only: Some(vec!["tableX".to_string()]),
            ..SurveyConfig::default()
        };
        let err = run_survey(&cfg).unwrap_err();
        assert!(err.contains("tableX"), "{err}");
    }
}
