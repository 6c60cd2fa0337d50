//! The correctness gate: every run of the same code on the same
//! (workload, seed) must reproduce one `survey.json` digest and identical
//! exact counts. Records persist in a JSON store between runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Value;

/// What one run produced, exactly: the digest of its `survey.json` and its
/// deterministic counts (simulated seconds, sweep points, engine steps …).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub digest: String,
    pub counts: BTreeMap<String, f64>,
}

/// Every way `b` disagrees with `a`: a different digest, or a different
/// value for a count both hold. Counts only one side holds are not
/// disagreements (an untraced run records no probe counts).
pub fn disagreements(a: &Record, b: &Record) -> Vec<String> {
    let mut out = Vec::new();
    if a.digest != b.digest {
        out.push(format!("digest {} vs {}", a.digest, b.digest));
    }
    for (name, va) in &a.counts {
        if let Some(vb) = b.counts.get(name) {
            if va.to_bits() != vb.to_bits() {
                out.push(format!("{name} {va} vs {vb}"));
            }
        }
    }
    out
}

impl Record {
    /// Add the counts of `other` this record lacks.
    pub fn absorb(&mut self, other: &Record) {
        for (name, v) in &other.counts {
            self.counts.entry(name.clone()).or_insert(*v);
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("digest".to_string(), Value::Str(self.digest.clone())),
            (
                "counts".to_string(),
                Value::Object(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<Record> {
        let fields = v.as_object()?;
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let counts = field("counts")?
            .as_object()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(Record {
            digest: field("digest")?.as_str()?.to_string(),
            counts,
        })
    }
}

/// Records keyed by a caller-chosen string, in one JSON file.
pub struct Store {
    path: PathBuf,
    pub entries: BTreeMap<String, Record>,
}

impl Store {
    /// Load `path`; a missing file is an empty store.
    pub fn load(path: &Path) -> Result<Store, String> {
        let mut entries = BTreeMap::new();
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let value: Value = serde_json::from_str(&text)
                .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
            for (key, v) in value.as_object().unwrap_or(&[]) {
                let record = Record::from_value(v)
                    .ok_or_else(|| format!("{}: malformed record `{key}`", path.display()))?;
                entries.insert(key.clone(), record);
            }
        }
        Ok(Store {
            path: path.to_path_buf(),
            entries,
        })
    }

    /// Check `record` against the stored one for `key`, then store the
    /// union of both. Returns the disagreements (empty = consistent).
    pub fn check_and_merge(&mut self, key: &str, record: &Record) -> Vec<String> {
        match self.entries.get_mut(key) {
            Some(stored) => {
                let bad = disagreements(stored, record);
                if bad.is_empty() {
                    stored.absorb(record);
                }
                bad
            }
            None => {
                self.entries.insert(key.to_string(), record.clone());
                Vec::new()
            }
        }
    }

    pub fn save(&self) -> Result<(), String> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let value = Value::Object(
            self.entries
                .iter()
                .map(|(k, r)| (k.clone(), r.to_value()))
                .collect(),
        );
        let mut text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
        text.push('\n');
        std::fs::write(&self.path, text)
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(digest: &str, counts: &[(&str, f64)]) -> Record {
        Record {
            digest: digest.to_string(),
            counts: counts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn identical_records_agree() {
        let a = record("d1", &[("core.sim_s", 213.2), ("core.sweep_points", 240.0)]);
        assert!(disagreements(&a, &a.clone()).is_empty());
    }

    #[test]
    fn a_changed_digest_or_count_is_reported() {
        let a = record("d1", &[("core.sim_s", 213.2), ("core.sweep_points", 240.0)]);
        let b = record("d2", &[("core.sim_s", 213.2), ("core.sweep_points", 241.0)]);
        let bad = disagreements(&a, &b);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].starts_with("digest"));
        assert!(bad[1].starts_with("core.sweep_points"));
    }

    #[test]
    fn counts_on_one_side_only_are_not_compared() {
        let untraced = record("d1", &[("core.sim_s", 1.5)]);
        let traced = record(
            "d1",
            &[("core.sim_s", 1.5), ("node.table5_cell.full_steps", 6.3e4)],
        );
        assert!(disagreements(&untraced, &traced).is_empty());
        let mut merged = untraced.clone();
        merged.absorb(&traced);
        assert_eq!(merged, traced);
    }

    #[test]
    fn store_merges_and_persists() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("gate-test-{}", std::process::id()));
        let path = dir.join("gate.json");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::load(&path).expect("missing store loads empty");
        assert!(store.entries.is_empty());
        let a = record("d1", &[("core.sim_s", 0.1 + 0.2)]);
        assert!(store.check_and_merge("w/1", &a).is_empty());
        store.save().expect("save");

        let mut again = Store::load(&path).expect("reload");
        // Floats round-trip exactly, so a rerun of the same code agrees.
        assert!(again.check_and_merge("w/1", &a).is_empty());
        let b = record("d2", &[("core.sim_s", 0.3)]);
        assert_eq!(again.check_and_merge("w/1", &b).len(), 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
