//! The analytic surrogate tier, end to end through the `survey` binary:
//! `--fidelity analytic` output must be byte-identical at any `--jobs`
//! value, any worker-pool width, and either `--warm-start` setting — on
//! both platforms — and the spot-check sample it embeds must match a
//! full-fidelity run of the same points exactly. The tier's reason to
//! exist is pinned here too: a closed-form point costs at least 100x less
//! than a simulated one.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use haswell_survey::experiments::table4;
use haswell_survey::Fidelity;
use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_exec::WorkloadProfile;
use hsw_hwspec::{EpbClass, NodeSpec};
use serde_json::Value;

/// Run the `survey` binary with `args` and return the JSON bytes it wrote.
fn survey_json(tag: &str, args: &[&str], pool: &str) -> Vec<u8> {
    let out = std::env::temp_dir().join(format!("analytic_determinism_{tag}.json"));
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_survey"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .env("RAYON_NUM_THREADS", pool)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("survey binary runs");
    assert!(status.success(), "survey {args:?} pool {pool} failed");
    let bytes = std::fs::read(&out).expect("survey wrote its output file");
    let _ = std::fs::remove_file(&out);
    bytes
}

/// The Haswell surrogate subset: both converted experiments plus both new
/// registrations, at a small fleet size so the matrix stays fast.
const HSW: &[&str] = &[
    "--fidelity",
    "analytic",
    "--only",
    "table4,fleet_cap_spread,analytic_accuracy,fleet_analytic_scale",
    "--fleet-size",
    "48",
    "--seed",
    "7",
];

#[test]
fn analytic_survey_is_byte_identical_across_jobs_pool_and_warm_start() {
    let baseline = survey_json("j1p1", &[HSW, &["--jobs", "1"]].concat(), "1");
    assert!(!baseline.is_empty());
    for (tag, jobs, pool, warm) in [
        ("j4p1", "4", "1", "on"),
        ("j1p4", "1", "4", "on"),
        ("j4p4", "4", "4", "on"),
        ("j2p2cold", "2", "2", "off"),
    ] {
        let other = survey_json(
            tag,
            &[HSW, &["--jobs", jobs, "--warm-start", warm]].concat(),
            pool,
        );
        assert_eq!(
            baseline, other,
            "analytic survey.json differs at --jobs {jobs} / pool {pool} / warm-start {warm}"
        );
    }
}

#[test]
fn skylake_analytic_survey_is_byte_identical_across_the_same_matrix() {
    let skx: &[&str] = &[
        "--platform",
        "skylake-sp",
        "--fidelity",
        "analytic",
        "--only",
        "analytic_accuracy,fleet_analytic_scale",
        "--fleet-size",
        "48",
        "--seed",
        "7",
    ];
    let baseline = survey_json("skx_j1p1", &[skx, &["--jobs", "1"]].concat(), "1");
    assert!(!baseline.is_empty());
    for (tag, jobs, pool, warm) in [
        ("skx_j4p4", "4", "4", "on"),
        ("skx_j2p2cold", "2", "2", "off"),
    ] {
        let other = survey_json(
            tag,
            &[skx, &["--jobs", jobs, "--warm-start", warm]].concat(),
            pool,
        );
        assert_eq!(
            baseline, other,
            "skylake-sp analytic survey.json differs at --jobs {jobs} / pool {pool} / warm-start {warm}"
        );
    }
}

/// Navigate an object field.
fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        other => panic!("expected object for {name}, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

/// The artifact of experiment `id` in a survey document.
fn artifact<'a>(doc: &'a Value, id: &str) -> &'a Value {
    let exp = array(field(doc, "experiments"))
        .iter()
        .find(|e| matches!(field(e, "id"), Value::Str(s) if s == id))
        .unwrap_or_else(|| panic!("no experiment {id}"));
    field(exp, "artifact")
}

#[test]
fn embedded_spot_checks_equal_a_full_fidelity_run_of_the_same_points() {
    // The surrogate contract at the JSON level: the `full` answer recorded
    // for each spot-checked Table IV column under `--fidelity analytic`
    // must serialize to the very same JSON as that column in a
    // `--fidelity quick` run at the same seed (same f64 bits → same
    // shortest-roundtrip rendering).
    let common: &[&str] = &["--only", "table4", "--seed", "11", "--jobs", "2"];
    let analytic = survey_json(
        "cross_a",
        &[&["--fidelity", "analytic"], common].concat(),
        "2",
    );
    let quick = survey_json("cross_q", &[&["--fidelity", "quick"], common].concat(), "2");
    let adoc: Value = serde_json::from_str(&String::from_utf8(analytic).unwrap()).unwrap();
    let qdoc: Value = serde_json::from_str(&String::from_utf8(quick).unwrap()).unwrap();
    let spot_checks = array(field(artifact(&adoc, "table4"), "spot_checks"));
    assert!(
        !spot_checks.is_empty(),
        "analytic run recorded no spot checks"
    );
    let quick_points = array(field(artifact(&qdoc, "table4"), "points"));
    for sc in spot_checks {
        let index = match field(sc, "index") {
            Value::UInt(n) => *n as usize,
            Value::Int(n) => *n as usize,
            other => panic!("bad index {other:?}"),
        };
        assert_eq!(
            serde_json::to_string(field(sc, "full")).unwrap(),
            serde_json::to_string(&quick_points[index]).unwrap(),
            "spot-checked column {index} diverges from the quick-fidelity run"
        );
    }
}

#[test]
fn surrogate_answers_a_table4_point_at_least_100x_cheaper_than_the_simulator() {
    // The full simulator's warm path over Table IV: one shared bring-up,
    // six forked columns.
    let t0 = Instant::now();
    let full = table4::run_seeded(Fidelity::Quick, 7);
    let full_s = t0.elapsed().as_secs_f64() / full.points.len() as f64;

    // The closed form over the same six columns, repeated to resolve it.
    let model = AnalyticModel::from_node_spec(&NodeSpec::paper_test_node(), true);
    let fs = WorkloadProfile::firestarter();
    let settings = table4::table4_settings();
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        for &setting in &settings {
            black_box(model.predict(&OperatingPoint {
                profile: &fs,
                setting,
                epb: EpbClass::Balanced,
                turbo_enabled: true,
                active_cores: 12,
                smt: true,
            }));
        }
    }
    let sur_s = t0.elapsed().as_secs_f64() / (reps * settings.len()) as f64;

    let speedup = full_s / sur_s.max(1e-12);
    assert!(
        speedup >= 100.0,
        "surrogate speedup {speedup:.0}x < 100x \
         (full {full_s:.4} s/point, surrogate {sur_s:.9} s/point)"
    );
}
