//! perfbench — end-to-end and per-layer benchmark of the Haswell survey.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <max_power|quick_sweeps|analytic_fleet> [--seed 42] \
//!     [--seconds 10] [--trace 0|1] [--record-reference]
//! ```
//!
//! One process runs one workload at `--jobs 1` with a sweep pool of
//! `nproc` threads, repeating whole passes until `--seconds` have elapsed.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records a span
//! around every experiment call and every layer probe and reports the
//! per-layer metrics. The last stdout line is the JSON result. See
//! `perfbench/README.md`.
//!
//! `--setup-only` (used by the benchmark itself to time set-up) does the
//! set-up, prints `ready` and exits.

mod gate;
mod host;
mod probes;
mod sha256;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use haswell_survey::survey::pool_threads;
use haswell_survey::SurveyRun;
use serde::Value;

use gate::{Record, Store};
use spans::Tracer;
use workloads::Plan;

const USAGE: &str = "usage: perfbench --workload <max_power|quick_sweeps|analytic_fleet> \
                     [--seed N] [--seconds N] [--trace 0|1] [--record-reference]";

/// Set-ups timed per run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 31;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_reference: bool,
    setup_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        record_reference: false,
        setup_only: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record-reference" => {
                args.record_reference = true;
                continue;
            }
            "--setup-only" => {
                args.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One pass's outcome.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    record: Record,
    checks: usize,
    failed: usize,
}

/// The deterministic record of a pass: the digest of `survey_json` (the
/// run's `survey.json` bytes) and the runner's exact counts.
fn record_of(run: &SurveyRun, survey_json: &str) -> Record {
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let counts = [
        ("core.sim_s", run.sim_times_s.iter().sum::<f64>()),
        ("core.sweep_points", sum(&run.sweep_points)),
        ("core.snapshot_reuses", sum(&run.snapshot_reuses)),
        ("core.surrogate_hits", sum(&run.surrogate_hits)),
        ("core.spot_checks", sum(&run.spot_checks)),
    ];
    Record {
        digest: sha256::hex_digest(survey_json.as_bytes()),
        counts: counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

fn metric(unit: &str, value: f64) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let Some(workload) = workloads::by_name(&args.workload) else {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    };
    // Thread discipline: experiments one at a time, the sweep pool as wide
    // as the machine, whatever the environment says.
    let nproc = host::nproc();
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());

    let plan = set_up(workload, args.seed, nproc)?;
    if args.setup_only {
        println!("ready");
        return Ok(());
    }
    let setups = (0..SETUP_REPS)
        .map(|_| time_fresh_setup(args))
        .collect::<Result<Vec<f64>, String>>()?;
    let setup_s = stats::median(&setups);

    // Measure: whole passes until `--seconds` have elapsed.
    let mut tracer = Tracer::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let t_measure = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut exp_walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut sim_by_exp: BTreeMap<String, f64> = BTreeMap::new();
    while passes.is_empty() || t_measure.elapsed() < budget {
        let cpu0 = host::cpu_seconds()?;
        let t0 = Instant::now();
        let run = tracer.span("core.workload", |t| plan.run(t))?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds()? - cpu0;
        for ((r, wall), sim) in run.results.iter().zip(&run.timings_s).zip(&run.sim_times_s) {
            exp_walls.entry(r.id.to_string()).or_default().push(*wall);
            sim_by_exp.insert(r.id.to_string(), *sim);
        }
        let survey_json = run.to_json();
        if passes.is_empty() {
            let path = out_dir().join(format!("survey-{}-{}.json", workload.name, args.seed));
            write_text(&path, &survey_json)?;
        }
        let checks: Vec<_> = run.results.iter().flat_map(|r| &r.checks).collect();
        for c in checks.iter().filter(|c| !c.passed) {
            println!("check failed: {} — {}", c.name, c.detail);
        }
        passes.push(Pass {
            wall_s,
            cpu_s,
            record: record_of(&run, &survey_json),
            checks: checks.len(),
            failed: checks.iter().filter(|c| !c.passed).count(),
        });
    }

    let run_key = format!("{}/{}", workload.name, args.seed);
    let mut problems: Vec<String> = Vec::new();
    for (i, p) in passes.iter().enumerate().skip(1) {
        for d in gate::disagreements(&passes[0].record, &p.record) {
            problems.push(format!("pass {i} disagrees with pass 0: {d}"));
        }
    }
    let mut record = passes[0].record.clone();
    let wall_s = stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let cpu_s = stats::median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>());

    println!(
        "perfbench: workload={} seed={} trace={} jobs=1 pool={} nproc={nproc} passes={}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        pool_threads(),
        passes.len(),
    );
    let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
    println!(
        "set-up in fresh processes [ms]: {}",
        stats::Summary::of(&setup_ms)
    );
    println!(
        "pass wall_s: {}",
        passes
            .iter()
            .map(|p| format!("{:.3}", p.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "survey.json sha256 {}; checks {} failed of {} per pass",
        record.digest, passes[0].failed, passes[0].checks
    );

    let exp_median: BTreeMap<&str, f64> = exp_walls
        .iter()
        .map(|(id, w)| (id.as_str(), stats::median(w)))
        .collect();
    println!("per experiment (median over {} passes):", passes.len());
    for (id, wall) in &exp_median {
        let sim = sim_by_exp[*id];
        let rate = if sim > 0.0 {
            format!("{:.3}", wall / sim)
        } else {
            "-".to_string()
        };
        println!("  core.exp.{id}.wall_s {wall:.4}  sim_s {sim:.2}  host_s_per_sim_s {rate}");
    }

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if args.trace {
        let probes = probes::run_all(args.seed, &mut tracer);
        for (name, v) in &probes.counts {
            record.counts.insert(name.to_string(), *v);
        }
        for v in &probes.violations {
            problems.push(format!("probe left its regime: {v}"));
        }
        let total_sim = record.counts["core.sim_s"];
        let exp_total: f64 = exp_median.values().sum();
        for line in &probes.lines {
            println!("  {line}");
        }
        match untraced_wall(&run_key)? {
            Some(w) => println!(
                "tracing overhead: {:+.4} s ({wall_s:.4} s traced vs {w:.4} s untraced)",
                wall_s - w
            ),
            None => println!("tracing overhead: no untraced run of {run_key} recorded yet"),
        }
        let spans_path = out_dir().join(format!("spans-{}-{}.json", workload.name, args.seed));
        write_json(&spans_path, &spans::to_json(tracer.spans()))?;
        println!("spans: {}", spans_path.display());

        let count = |name: &str| record.counts[name];
        let core: [(&str, &str, f64); 8] = [
            ("core.wall_s", "s", wall_s),
            (
                "core.critical_exp.wall_s",
                "s",
                exp_median.values().copied().fold(0.0, f64::max),
            ),
            ("core.host_s_per_sim_s", "s/sim_s", exp_total / total_sim),
            ("core.sim_s", "sim_s", total_sim),
            ("core.sweep_points", "count", count("core.sweep_points")),
            (
                "core.snapshot_reuses",
                "count",
                count("core.snapshot_reuses"),
            ),
            ("core.surrogate_hits", "count", count("core.surrogate_hits")),
            ("core.spot_checks", "count", count("core.spot_checks")),
        ];
        for (name, unit, v) in core.into_iter().chain(probes.metrics) {
            metrics.push((name.to_string(), metric(unit, v)));
        }
    } else {
        remember_untraced_wall(&run_key, wall_s)?;
        metrics.push(("wall_s".to_string(), metric("s", wall_s)));
        metrics.push(("cpu_s".to_string(), metric("s", cpu_s)));
        metrics.push(("setup_s".to_string(), metric("s", setup_s)));
        metrics.push((
            "peak_rss_mb".to_string(),
            metric("MB", host::peak_rss_mb()?),
        ));
    }

    problems.extend(check_gate(&run_key, &record)?);
    println!(
        "counts: {}",
        record
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    compare_reference(
        &run_key,
        &record,
        args.record_reference && problems.is_empty(),
    )?;

    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(problems.is_empty())),
        (
            "attempted".to_string(),
            Value::UInt(passes.iter().map(|p| p.checks as u64).sum()),
        ),
        (
            "failed".to_string(),
            Value::UInt(passes.iter().map(|p| p.failed as u64).sum()),
        ),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// The gate across runs: every run of the same binary on the same
/// (workload, seed) must reproduce `record`. Returns the disagreements.
fn check_gate(run_key: &str, record: &Record) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let build = &sha256::hex_digest(&bytes)[..16];
    let mut store = Store::load(&out_dir().join("gate.json"))?;
    let bad = store.check_and_merge(&format!("{build}/{run_key}"), record);
    store.save()?;
    Ok(bad
        .into_iter()
        .map(|d| format!("disagrees with an earlier run of this build: {d}"))
        .collect())
}

/// Across commits: print whether `record` matches the committed reference,
/// and with `update` store it there.
fn compare_reference(run_key: &str, record: &Record, update: bool) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let mut reference = Store::load(&path)?;
    match reference.entries.get(run_key) {
        None => println!("reference: none recorded for {run_key}"),
        Some(r) => match gate::disagreements(r, record) {
            diff if diff.is_empty() => {
                println!("reference: digest and counts unchanged for {run_key}")
            }
            diff => println!("reference: CHANGED for {run_key}: {}", diff.join("; ")),
        },
    }
    if update {
        let entry = reference
            .entries
            .entry(run_key.to_string())
            .or_insert_with(|| record.clone());
        entry.digest = record.digest.clone();
        entry.counts.extend(record.counts.clone());
        reference.save()?;
    }
    Ok(())
}

/// Wall seconds from starting a fresh process of this benchmark to its
/// `ready` line: process start, registry build, validation and sweep-pool
/// start, everything before the first experiment call.
fn time_fresh_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let mut line = String::new();
    let read =
        std::io::BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
    match read {
        Ok(_) if status.success() && line.trim_end() == "ready" => Ok(elapsed),
        _ => Err(format!("set-up process failed ({status}): {line:?}")),
    }
}

/// Everything before the first experiment call.
fn set_up(workload: &workloads::Workload, seed: u64, nproc: usize) -> Result<Plan, String> {
    let plan = workload.plan(seed)?;
    let pool = pool_threads();
    if pool != nproc {
        return Err(format!(
            "sweep pool has {pool} threads, expected nproc = {nproc}"
        ));
    }
    Ok(plan)
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out dir: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    write_text(path, &(text + "\n"))
}

fn walls_path() -> PathBuf {
    out_dir().join("untraced_wall_s.json")
}

fn read_walls() -> Result<Vec<(String, Value)>, String> {
    let path = walls_path();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(v.as_object().unwrap_or(&[]).to_vec())
}

/// The last untraced `wall_s` of `key`, for the tracing-overhead line.
fn untraced_wall(key: &str) -> Result<Option<f64>, String> {
    Ok(read_walls()?
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64()))
}

fn remember_untraced_wall(key: &str, wall_s: f64) -> Result<(), String> {
    let mut walls = read_walls()?;
    walls.retain(|(k, _)| k != key);
    walls.push((key.to_string(), Value::Float(wall_s)));
    write_json(&walls_path(), &Value::Object(walls))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "max_power",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("max_power", 7, 20, true)
        );
        let d = parse(&["--workload", "quick_sweeps"]).expect("defaults");
        assert_eq!((d.seed, d.trace, d.setup_only), (42, false, false));
        let s = parse(&["--workload", "max_power", "--setup-only"]).expect("set-up only");
        assert!(s.setup_only && !s.record_reference);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "w", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "w", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "w", "--jobs", "2"]).is_err());
    }
}
