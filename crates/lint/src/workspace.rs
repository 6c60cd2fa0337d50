//! Workspace discovery: which files to scan and under which rule scope,
//! the tier-2 wiring to the MSR model's concrete files, the semantic
//! tier (M6/P1), central suppression with stale-directive detection
//! (A2), and the content-hash cache that keeps the full run fast in CI.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::model::{self, ExperimentModule};
use crate::parser;
use crate::rules::{self, FileScope, Finding, KNOWN_RULES};
use crate::semantic::{SemFile, Semantic};

/// Call-graph roots for the P1 panic-path audit: the per-tick entry
/// points whose transitive callees run once per simulated millisecond
/// per sweep point.
const P1_ROOTS: &[(&str, &str)] = &[("Socket", "tick"), ("Node", "step")];

/// Bump to invalidate caches when rule behavior changes.
const RULES_REV: u32 = 1;

/// Crates whose output feeds `survey.json` (directly or through the node
/// model); D1/D2 apply in full. `tools` drives interactive binaries,
/// `lint` checks source rather than producing results, and `shims/`
/// vendors external API surfaces — all exempt from D1/D2, but S1 still
/// applies everywhere.
pub const RESULT_CRATES: &[&str] = &[
    "analytic", "core", "cstates", "exec", "fleet", "hwspec", "memhier", "msr", "node", "pcu",
    "power",
];

/// Directories whose `.rs` files are scanned, relative to the root.
const SCAN_DIRS: &[&str] = &["crates", "shims", "src", "tests"];

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collect every `.rs` file to scan, sorted, as (relative path, absolute
/// path). Skips `target/`, hidden directories, and lint-test `fixtures/`
/// corpora (deliberately-bad sources).
pub(crate) fn scan_targets(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let abs = root.join(dir);
        if abs.is_dir() {
            walk(&abs, &mut files)?;
        }
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (rel, p)
        })
        .collect();
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// The rule scope of one workspace-relative path.
pub fn scope_of(rel_path: &str) -> FileScope {
    let result_crate = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|krate| RESULT_CRATES.contains(&krate))
        .unwrap_or(false);
    // hwspec is the generation-policy home: its spec tables and the
    // `FirmwarePolicy` dispatch are the one sanctioned place to branch on
    // `CpuGeneration` (M5).
    let generation_policy = rel_path.starts_with("crates/hwspec/");
    FileScope {
        result_crate,
        generation_policy,
    }
}

/// Run every rule over the workspace at `root`; findings come back sorted
/// by (path, line, rule). Uses the on-disk cache (see [`cache`]).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    lint_workspace_opts(root, true)
}

/// [`lint_workspace`] with the cache disabled — the reference path the
/// cache determinism test compares against.
pub fn lint_workspace_uncached(root: &Path) -> io::Result<Vec<Finding>> {
    lint_workspace_opts(root, false)
}

fn lint_workspace_opts(root: &Path, use_cache: bool) -> io::Result<Vec<Finding>> {
    // Read every scanned file once; everything below works off this set.
    let mut sources: Vec<(String, String)> = Vec::new();
    for (rel, abs) in scan_targets(root)? {
        sources.push((rel, fs::read_to_string(&abs)?));
    }

    let hashes: Vec<u64> = sources
        .iter()
        .map(|(_, src)| fnv1a(src.as_bytes()))
        .collect();
    let full_digest = {
        let mut acc = format!("rev={RULES_REV}");
        for ((rel, _), h) in sources.iter().zip(&hashes) {
            acc.push_str(rel);
            acc.push_str(&format!(":{h:016x};"));
        }
        fnv1a(acc.as_bytes())
    };
    let cached = if use_cache { cache::load(root) } else { None };
    if let Some(c) = &cached {
        // Nothing changed since the last full run: replay its findings.
        if c.full_digest == full_digest {
            return Ok(c.findings.clone());
        }
    }

    let mut raw = Vec::new();
    let mut allows = Vec::new();
    let mut anns = Vec::new();
    let mut markers = Vec::new();
    let mut sem_files = Vec::new();
    let mut tier1_per_file: Vec<Vec<Finding>> = Vec::new();
    for ((rel, src), &hash) in sources.iter().zip(&hashes) {
        let lexed = lex(src);
        allows.push(rules::parse_allows(&lexed.comments));
        anns.push(rules::parse_plane_anns(&lexed.comments));
        markers.push(model::snap_skip_markers(&lexed.comments));
        let tier1 = cached
            .as_ref()
            .and_then(|c| c.tier1_for(rel, hash))
            .unwrap_or_else(|| rules::tier1_findings(rel, &lexed, scope_of(rel)));
        raw.extend(tier1.iter().cloned());
        tier1_per_file.push(tier1);
        sem_files.push(SemFile {
            path: rel.clone(),
            result_crate: scope_of(rel).result_crate,
            parsed: parser::parse(&lexed.tokens),
            structs: model::struct_defs(&lexed.tokens),
        });
    }

    let mut findings = Vec::new();
    if sources.is_empty() {
        findings.push(Finding::new(
            ".",
            1,
            "M1",
            "no Rust sources found under the workspace root — wrong --root?".to_string(),
        ));
    }

    // Tier 2: snapshot field coverage across every scanned file.
    let (m4, used_markers) = model::check_snapshots_with_usage(&sources);
    raw.extend(m4);

    // Tier 2: the MSR model's declarative surface.
    let read = |rel: &str| -> io::Result<String> { fs::read_to_string(root.join(rel)) };
    match (
        read("crates/msr/src/addresses.rs"),
        read("crates/msr/src/gate.rs"),
    ) {
        (Ok(addr), Ok(gate)) => raw.extend(model::check_addresses_and_gate(
            "crates/msr/src/addresses.rs",
            &addr,
            "crates/msr/src/gate.rs",
            &gate,
        )),
        _ => findings.push(Finding::new(
            "crates/msr/src",
            1,
            "M1",
            "addresses.rs/gate.rs not found — MSR model moved without updating hsw-lint"
                .to_string(),
        )),
    }
    match read("crates/msr/src/fields.rs") {
        Ok(fields) => raw.extend(model::check_fields("crates/msr/src/fields.rs", &fields)),
        Err(_) => findings.push(Finding::new(
            "crates/msr/src/fields.rs",
            1,
            "M2",
            "fields.rs not found — MSR model moved without updating hsw-lint".to_string(),
        )),
    }

    let exp_dir = root.join("crates/core/src/experiments");
    match (
        read("crates/core/src/experiments/mod.rs"),
        read("crates/core/src/survey.rs"),
        fs::read_dir(&exp_dir),
    ) {
        (Ok(mod_src), Ok(survey_src), Ok(dir)) => {
            let mut modules: Vec<(String, String, String)> = Vec::new();
            let mut names: Vec<String> = dir
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.strip_suffix(".rs")
                        .filter(|stem| *stem != "mod")
                        .map(str::to_string)
                })
                .collect();
            names.sort();
            for name in names {
                let rel = format!("crates/core/src/experiments/{name}.rs");
                let src = read(&rel)?;
                modules.push((name, rel, src));
            }
            let mods: Vec<ExperimentModule<'_>> = modules
                .iter()
                .map(|(name, path, src)| ExperimentModule { name, path, src })
                .collect();
            raw.extend(model::check_registry(
                "crates/core/src/experiments/mod.rs",
                &mod_src,
                "crates/core/src/survey.rs",
                &survey_src,
                &mods,
            ));
        }
        _ => findings.push(Finding::new(
            "crates/core/src/experiments",
            1,
            "M3",
            "experiments/mod.rs or survey.rs not found — registry moved without updating hsw-lint"
                .to_string(),
        )),
    }

    // Tier 3: the semantic model — M6 dirty-plane coverage and the P1
    // panic-path audit. `check_m6` also marks which `plane:dirty`
    // annotations actually covered something.
    let sem = Semantic::build(&sem_files);
    raw.extend(sem.check_m6(&mut anns));
    raw.extend(sem.check_p1(P1_ROOTS));
    findings.extend(sem.validate_ann_names(&anns));

    // Central suppression: justified allows remove findings of their rule
    // on their line or the line below, and get marked used.
    let file_index: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    raw.retain(|f| {
        let Some(&fi) = file_index.get(f.path.as_str()) else {
            return true;
        };
        let mut hit = false;
        for a in allows[fi].iter_mut() {
            if a.justified && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                hit = true;
            }
        }
        !hit
    });
    findings.extend(raw);

    // A1 (malformed directives) and A2 (stale suppressions) — never
    // themselves suppressible.
    for (fi, (rel, _)) in sources.iter().enumerate() {
        findings.extend(rules::directive_findings(rel, &allows[fi], &anns[fi]));
        for a in &allows[fi] {
            if a.justified && KNOWN_RULES.contains(&a.rule.as_str()) && !a.used {
                findings.push(
                    Finding::new(
                        rel,
                        a.line,
                        "A2",
                        format!(
                            "lint:allow({}) suppresses nothing — the finding it once \
                             silenced is gone; delete the stale directive",
                            a.rule
                        ),
                    )
                    .with_span(a.byte, a.len),
                );
            }
        }
        for m in &markers[fi] {
            if m.justified && !used_markers.contains(&(fi, m.end_line)) {
                findings.push(Finding::new(
                    rel,
                    m.end_line,
                    "A2",
                    "snap:skip marks nothing — no snapshot-missing field sits on the \
                     line below; the field was captured, renamed, or removed; delete \
                     the stale marker"
                        .to_string(),
                ));
            }
        }
        for ann in &anns[fi] {
            if ann.malformed.is_none() && !ann.used {
                findings.push(
                    Finding::new(
                        rel,
                        ann.line,
                        "A2",
                        "plane:dirty covers nothing — every plane the method mutates \
                         is already marked (or the annotation is not attached to a \
                         `&mut self` method); delete the stale annotation"
                            .to_string(),
                    )
                    .with_span(ann.byte, ann.len),
                );
            }
        }
    }

    findings.sort();
    findings.dedup();
    if use_cache {
        cache::store(
            root,
            full_digest,
            &sources,
            &hashes,
            &tier1_per_file,
            &findings,
        );
    }
    Ok(findings)
}

/// FNV-1a 64-bit — stable, dependency-free content hash for the cache.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The on-disk cache: `target/hsw-lint-cache.tsv`, a tab-separated text
/// format (no serde in this crate). Two levels: a whole-workspace digest
/// that replays the previous run's findings when nothing changed, and
/// per-file content hashes that skip tier-1 rule evaluation for
/// unchanged files (the semantic tier is workspace-global and always
/// recomputed). All IO is best-effort: a missing, stale, or corrupt
/// cache only costs a full run.
mod cache {
    use super::{fnv1a, Finding, RULES_REV};
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::Path;

    pub(super) struct Cache {
        pub full_digest: u64,
        pub findings: Vec<Finding>,
        /// rel path → (content hash, tier-1 findings).
        files: BTreeMap<String, (u64, Vec<Finding>)>,
    }

    impl Cache {
        pub fn tier1_for(&self, rel: &str, hash: u64) -> Option<Vec<Finding>> {
            self.files
                .get(rel)
                .filter(|(h, _)| *h == hash)
                .map(|(_, f)| f.clone())
        }
    }

    fn cache_path(root: &Path) -> std::path::PathBuf {
        root.join("target/hsw-lint-cache.tsv")
    }

    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('\t', "\\t")
            .replace('\n', "\\n")
    }

    fn unesc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => break,
            }
        }
        out
    }

    fn write_finding(out: &mut String, tag: &str, f: &Finding) {
        out.push_str(&format!(
            "{tag}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            esc(&f.path),
            f.line,
            f.rule,
            f.byte,
            f.len,
            esc(&f.message)
        ));
    }

    fn read_finding(line: &str, tag: &str) -> Option<Finding> {
        let mut parts = line.split('\t');
        if parts.next() != Some(tag) {
            return None;
        }
        let path = unesc(parts.next()?);
        let lineno: u32 = parts.next()?.parse().ok()?;
        // `rule` must map back to a `&'static str` the engine knows.
        let rule = *super::KNOWN_RULES
            .iter()
            .find(|r| **r == parts.next().unwrap_or(""))?;
        let byte: u32 = parts.next()?.parse().ok()?;
        let len: u32 = parts.next()?.parse().ok()?;
        let message = unesc(&parts.collect::<Vec<_>>().join("\t"));
        Some(Finding::new(&path, lineno, rule, message).with_span(byte, len))
    }

    pub(super) fn load(root: &Path) -> Option<Cache> {
        let text = fs::read_to_string(cache_path(root)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != format!("hsw-lint-cache v1 rev {RULES_REV}") {
            return None;
        }
        let full_digest = u64::from_str_radix(lines.next()?.strip_prefix("full ")?, 16).ok()?;
        let mut findings = Vec::new();
        let mut files: BTreeMap<String, (u64, Vec<Finding>)> = BTreeMap::new();
        let mut current: Option<String> = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("file\t") {
                let mut parts = rest.split('\t');
                let rel = unesc(parts.next()?);
                let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
                files.insert(rel.clone(), (hash, Vec::new()));
                current = Some(rel);
            } else if line.starts_with("t\t") {
                let f = read_finding(line, "t")?;
                files.get_mut(current.as_ref()?)?.1.push(f);
            } else if line.starts_with("f\t") {
                findings.push(read_finding(line, "f")?);
            } else if !line.is_empty() {
                return None; // unknown record: treat the cache as corrupt
            }
        }
        Some(Cache {
            full_digest,
            findings,
            files,
        })
    }

    pub(super) fn store(
        root: &Path,
        full_digest: u64,
        sources: &[(String, String)],
        hashes: &[u64],
        tier1_per_file: &[Vec<Finding>],
        findings: &[Finding],
    ) {
        let mut out = format!("hsw-lint-cache v1 rev {RULES_REV}\nfull {full_digest:016x}\n");
        for (i, (rel, _)) in sources.iter().enumerate() {
            out.push_str(&format!("file\t{}\t{:016x}\n", esc(rel), hashes[i]));
            for f in &tier1_per_file[i] {
                write_finding(&mut out, "t", f);
            }
        }
        for f in findings {
            write_finding(&mut out, "f", f);
        }
        // Atomic, best-effort: a failed write only costs the next run.
        let path = cache_path(root);
        let tmp = path.with_extension("tsv.tmp");
        if path.parent().is_some_and(|d| fs::create_dir_all(d).is_ok())
            && fs::write(&tmp, &out).is_ok()
        {
            let _ = fs::rename(&tmp, &path);
        }
        // Self-check that the digest layout round-trips (fnv1a is also
        // exercised by the determinism test).
        debug_assert!(fnv1a(b"") == 0xcbf2_9ce4_8422_2325);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_crate_scoping() {
        assert!(scope_of("crates/msr/src/gate.rs").result_crate);
        assert!(scope_of("crates/core/src/survey.rs").result_crate);
        assert!(scope_of("crates/fleet/src/variation.rs").result_crate);
        assert!(scope_of("crates/analytic/src/model.rs").result_crate);
        assert!(!scope_of("crates/lint/src/workspace.rs").result_crate);
        assert!(!scope_of("crates/tools/src/stress.rs").result_crate);
        assert!(!scope_of("shims/rayon/src/pool.rs").result_crate);
        assert!(!scope_of("src/bin/survey.rs").result_crate);
        assert!(!scope_of("tests/sweep_determinism.rs").result_crate);
    }

    #[test]
    fn the_workspace_itself_is_lint_clean() {
        // The acceptance gate of the whole rule set: the repo this crate
        // lives in passes its own lint with zero findings. (Same check CI
        // runs via `cargo run -p hsw-lint --release`.)
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate lives inside the workspace");
        let findings = lint_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        // The cache is a pure replay: a cold run, a warm (full-digest hit)
        // run, and a cache-bypassing run must produce identical findings.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let cold = lint_workspace(&root).expect("cold scan");
        let warm = lint_workspace(&root).expect("warm scan");
        let bypass = lint_workspace_uncached(&root).expect("uncached scan");
        assert_eq!(cold, warm, "cache replay diverged from its own write");
        assert_eq!(warm, bypass, "cache contents diverged from a live scan");
    }

    #[test]
    fn no_workspace_file_panics_the_linter() {
        // Every tier (lexer, textual rules, parser) over every scanned
        // file, one at a time, so a panic names its file instead of dying
        // inside the workspace pass.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        for (rel, abs) in scan_targets(&root).expect("scan") {
            let src = fs::read_to_string(&abs).expect("read");
            let r = std::panic::catch_unwind(|| {
                let lexed = lex(&src);
                rules::scan_file(&rel, &src, scope_of(&rel));
                parser::parse(&lexed.tokens);
                model::struct_defs(&lexed.tokens);
            });
            assert!(r.is_ok(), "linter panicked on {rel}");
        }
    }

    #[test]
    fn stale_suppressions_are_a2_on_a_synthetic_root() {
        // A justified allow for a finding that no longer exists, and a
        // well-formed plane annotation covering nothing, must both rot
        // into A2 findings; a *working* allow must not.
        let dir = std::env::temp_dir().join(format!("hsw-lint-a2-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(
            src_dir.join("lib.rs"),
            "// lint:allow(D1): stale — the Instant::now this silenced is long gone\n\
             fn quiet() {}\n\
             // lint:allow(D2): live — suppresses the map below\n\
             fn live() { let m = HashMap::new(); }\n\
             // plane:dirty(MSR): covers nothing here\n\
             fn unannotated() {}\n",
        )
        .expect("write fixture");

        let findings = lint_workspace_uncached(&dir).expect("scan synthetic root");
        let a2: Vec<_> = findings.iter().filter(|f| f.rule == "A2").collect();
        assert!(
            a2.iter()
                .any(|f| f.line == 1 && f.message.contains("lint:allow(D1)")),
            "stale allow not flagged: {findings:?}"
        );
        assert!(
            a2.iter().any(|f| f.message.contains("plane:dirty")),
            "stale plane annotation not flagged: {findings:?}"
        );
        assert!(
            !findings
                .iter()
                .any(|f| f.rule == "D2" || (f.rule == "A2" && f.line == 3)),
            "the live allow should suppress and not be stale: {findings:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
