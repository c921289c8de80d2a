//! The content-addressed cell store behind grid resume and sharding.
//!
//! A [`CellStore`] is a plain directory of one JSON file per finished
//! grid cell, named by the cell's [`CellKey`] — the 128-bit fingerprint
//! of everything that determines the cell's result (see
//! [`crate::experiment::CellKey`]). Because a cell is a pure function of
//! its key, the store needs no index, no locking and no invalidation
//! protocol: a hit *is* the result, a miss means "simulate it", and two
//! processes racing on the same key atomically write the same bytes.
//!
//! Durability rules:
//!
//! * **Atomic writes** — entries are written to a temporary file in the
//!   store directory and `rename`d into place, so a killed sweep never
//!   leaves a half-written entry a resume could trip over.
//! * **Corrupt-entry tolerance** — [`CellStore::load`] treats anything it
//!   cannot fully parse and validate (truncated JSON, foreign files, a
//!   schema from a different build, a key mismatch) as a miss; the cell
//!   is re-simulated and the entry overwritten. A store can therefore be
//!   shared, copied around, or hand-pruned with `rm` at any time.
//! * **Schema-stamped, lease-checked entries** — each file records the
//!   [`GridReport`](crate::experiment::GridReport) schema it was written
//!   under *and* the [`crate::experiment::CELL_REV`] code revision that
//!   produced it. Entries from other schema versions are misses, so a
//!   format change can never deserialize garbage; the embedded revision
//!   is the Tardis-style lease — a cached result is served only while it
//!   matches the running code's `CELL_REV`. (The salt is also hashed
//!   into the key itself, so stale entries normally aren't even looked
//!   up; the embedded copy makes them *identifiable*, which is what lets
//!   [`CellStore::gc`] report and purge them.)
//!
//! ```no_run
//! use tss::cellstore::CellStore;
//! use tss::experiment::ExperimentGrid;
//! use tss_workloads::paper;
//!
//! // First run populates /tmp/cells; a re-run (or a killed-and-restarted
//! // run) loads every finished cell instead of simulating it.
//! let report = ExperimentGrid::new("sweep")
//!     .workloads(paper::all(1.0 / 64.0))
//!     .resume("/tmp/cells")
//!     .run()
//!     .expect("valid grid");
//! assert!(report.cached_cells() <= report.cells.len());
//! let store = CellStore::open("/tmp/cells").expect("store dir");
//! assert!(store.load(report.cells[0].cell_key.expect("grid cells are keyed")).is_some());
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::experiment::{CellKey, RunReport, CELL_REV, SCHEMA_VERSION};

/// A directory of per-cell JSON entries keyed by [`CellKey`]. See the
/// module docs for the durability rules.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
}

impl CellStore {
    /// Opens (creating if necessary) the store directory, sweeping out
    /// temp files left by writers that died between write and rename —
    /// otherwise repeated kill-and-resume cycles (the store's whole
    /// reason to exist) would accumulate orphans forever. If another
    /// process is mid-write at this instant its temp file may be swept
    /// too; its `rename` then fails and that one cell simply is not
    /// cached this round — the same best-effort contract as any other
    /// store write.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CellStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if is_temp_file(&entry.file_name().to_string_lossy()) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(CellStore { dir })
    }

    /// Attaches to an *existing* store directory without the open-time
    /// temp sweep: the maintenance path ([`CellStore::gc`]) wants to
    /// count those orphans, not lose them before looking. Unlike
    /// [`CellStore::open`] a missing directory is an error — a gc of a
    /// mistyped path should not quietly create an empty store.
    pub fn attach(dir: impl Into<PathBuf>) -> io::Result<CellStore> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a directory", dir.display()),
            ));
        }
        Ok(CellStore { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s entry lives (whether or not it exists yet).
    pub fn entry_path(&self, key: CellKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    /// Loads the cell stored under `key`, or `None` on a miss — where
    /// "miss" includes every flavour of unusable entry: missing file,
    /// unparsable JSON, wrong entry schema, an expired [`CELL_REV`]
    /// lease, or an embedded key that does not match the filename's.
    /// Corruption is never an error, just work to redo.
    pub fn load(&self, key: CellKey) -> Option<RunReport> {
        read_entry(&self.entry_path(key), key).ok()
    }

    /// Writes `cell` under `key`, atomically: the entry is complete and
    /// valid the instant it appears, even if this process dies mid-write.
    /// The temp name is unique per write (pid + sequence), so concurrent
    /// writers — threads of one sweep as much as separate processes —
    /// never clobber each other mid-write; last rename wins, and every
    /// rename installs a complete entry.
    pub fn store(&self, key: CellKey, cell: &RunReport) -> io::Result<()> {
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let envelope = serde_json::Value::Object(vec![
            (
                "schema".into(),
                serde_json::Value::U64(u64::from(SCHEMA_VERSION)),
            ),
            (
                "cell_rev".into(),
                serde_json::Value::U64(u64::from(CELL_REV)),
            ),
            ("cell".into(), serde_json::to_value(cell)),
        ]);
        let text =
            serde_json::to_string_pretty(&envelope).expect("value rendering is infallible") + "\n";
        let tmp = self.dir.join(format!(
            ".{}.tmp-{}-{}",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Sweeps and classifies the whole store: removes orphaned temp files
    /// unconditionally, and counts every `<key>.json` entry as *live*
    /// (loadable by this build), *stale* (a valid entry whose schema or
    /// [`CELL_REV`] lease belongs to another code revision — dead weight,
    /// since its key can never be looked up again), or *corrupt*
    /// (unparsable, or the embedded key disagrees with the filename).
    /// With `purge`, stale and corrupt entries are deleted too. Files
    /// that are not store entries at all are left strictly alone.
    pub fn gc(&self, purge: bool) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if is_temp_file(&name) {
                // An orphan from a killed writer (a *live* writer's temp
                // file may be swept too; its rename fails and that cell
                // simply is not cached this round — same contract as
                // `open`).
                std::fs::remove_file(entry.path())?;
                report.tmp_swept += 1;
                continue;
            }
            // Only files named like entries are ours to judge; anything
            // else in the directory is not store property.
            let Some(key) = name
                .strip_suffix(".json")
                .and_then(|stem| stem.parse::<CellKey>().ok())
            else {
                continue;
            };
            let read = read_entry(&entry.path(), key);
            match read {
                Ok(_) => report.live += 1,
                Err(Unusable::Stale) => report.stale += 1,
                Err(Unusable::Corrupt) => report.corrupt += 1,
            }
            if purge && read.is_err() {
                std::fs::remove_file(entry.path())?;
                report.purged += 1;
            }
        }
        Ok(report)
    }
}

/// Whether `name` is a writer's temp file ([`CellStore::store`] writes
/// `.<key>.tmp-<pid>-<seq>` and renames it into place).
fn is_temp_file(name: &str) -> bool {
    name.starts_with('.') && name.contains(".tmp-")
}

/// Why an entry file is not live.
enum Unusable {
    /// Well-formed JSON whose schema or [`CELL_REV`] lease belongs to
    /// another build.
    Stale,
    /// Unreadable or unparsable, or the embedded key disagrees with the
    /// filename's.
    Corrupt,
}

/// Reads the entry file at `path`, named for `key`: its cell if the
/// entry is live, else whether it is stale or corrupt. The one rule both
/// [`CellStore::load`] (which serves only live entries) and
/// [`CellStore::gc`] (which counts all three classes) apply. The schema
/// and lease are judged before the cell and its key, so an entry from
/// another build is stale even where this build could not parse its cell.
fn read_entry(path: &Path, key: CellKey) -> Result<RunReport, Unusable> {
    let text = std::fs::read_to_string(path).ok();
    let Some(value) = text.and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok()) else {
        return Err(Unusable::Corrupt);
    };
    let stamped = |field, want: u32| value.get(field) == Some(&serde_json::Value::U64(want.into()));
    // The Tardis-style lease check: the entry must have been written by
    // this code revision. (Entries written before the lease field existed
    // fail it too — they invalidate once and heal on rewrite.) Lots of
    // stale entries after a CELL_REV bump is expected; corrupt ones are not.
    if !stamped("schema", SCHEMA_VERSION) || !stamped("cell_rev", CELL_REV) {
        return Err(Unusable::Stale);
    }
    match value.get("cell").map(serde_json::from_value::<RunReport>) {
        Some(Ok(cell)) if cell.cell_key == Some(key) => Ok(cell),
        _ => Err(Unusable::Corrupt),
    }
}

/// What [`CellStore::gc`] found (and, with `purge`, removed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct GcReport {
    /// Entries loadable by this build.
    pub live: usize,
    /// Valid entries whose schema or [`CELL_REV`] lease is from another
    /// code revision.
    pub stale: usize,
    /// Unparsable entries, or entries whose embedded key disagrees with
    /// their filename.
    pub corrupt: usize,
    /// Orphaned temp files removed (always removed, purge or not).
    pub tmp_swept: usize,
    /// Stale + corrupt entries deleted (0 unless purging).
    pub purged: usize,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} live, {} stale, {} corrupt, {} tmp swept, {} purged",
            self.live, self.stale, self.corrupt, self.tmp_swept, self.purged
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolKind, SystemConfig, TopologyKind};
    use crate::experiment::RunReport;
    use tss_workloads::paper;

    fn temp_store(tag: &str) -> CellStore {
        let dir = std::env::temp_dir().join(format!("tss-cellstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CellStore::open(dir).expect("temp store")
    }

    fn sample_cell() -> (CellKey, RunReport) {
        let cfg = SystemConfig::test_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        let spec = paper::barnes(0.0005);
        let key = CellKey::compute(&cfg, &spec, 1);
        let result = crate::System::run_workload(cfg.clone(), &spec);
        let mut cell = RunReport::from_stats(spec.name.clone(), &cfg, 1, result.stats);
        cell.cell_key = Some(key);
        (key, cell)
    }

    #[test]
    fn store_round_trips_a_cell() {
        let store = temp_store("roundtrip");
        let (key, cell) = sample_cell();
        assert!(store.load(key).is_none(), "empty store misses");
        store.store(key, &cell).unwrap();
        let back = store.load(key).expect("stored cell loads");
        assert_eq!(back.cell_key, Some(key));
        assert_eq!(back.workload, cell.workload);
        assert_eq!(back.stats.runtime, cell.stats.runtime);
        assert_eq!(back.stats.protocol.misses, cell.stats.protocol.misses);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_wrong_schema_and_mismatched_entries_are_misses() {
        let store = temp_store("corrupt");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();

        // Truncated JSON.
        let text = std::fs::read_to_string(store.entry_path(key)).unwrap();
        std::fs::write(store.entry_path(key), &text[..text.len() / 2]).unwrap();
        assert!(store.load(key).is_none(), "truncation tolerated as a miss");

        // Wrong entry schema.
        let stale = text.replace(
            &format!("\"schema\": {SCHEMA_VERSION}"),
            "\"schema\": 99999",
        );
        assert_ne!(stale, text);
        std::fs::write(store.entry_path(key), stale).unwrap();
        assert!(store.load(key).is_none(), "foreign schema is a miss");

        // Entry stored under a filename that is not its own key.
        let mut other = cell.clone();
        other.cell_key = Some(CellKey::compute(
            &SystemConfig::test_default(ProtocolKind::DirOpt, TopologyKind::Butterfly16),
            &paper::dss(0.0005),
            1,
        ));
        std::fs::write(store.entry_path(key), text).unwrap(); // restore valid
        assert!(store.load(key).is_some());
        store.store(key, &other).unwrap(); // embedded key disagrees
        assert!(store.load(key).is_none(), "key mismatch is a miss");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_are_files_named_by_key() {
        let store = temp_store("naming");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();
        let path = store.entry_path(key);
        assert!(path.exists());
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            format!("{}.json", key.to_hex())
        );
        // No stray temp files survive a successful store.
        let strays: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .collect();
        assert!(strays.is_empty(), "{strays:?}");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn expired_cell_rev_lease_is_a_miss() {
        let store = temp_store("lease");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();
        assert!(store.load(key).is_some());

        let text = std::fs::read_to_string(store.entry_path(key)).unwrap();
        // An entry written by a different code revision...
        let stale = text.replace(
            &format!("\"cell_rev\": {CELL_REV}"),
            &format!("\"cell_rev\": {}", CELL_REV + 1),
        );
        assert_ne!(stale, text, "envelope carries the lease field");
        std::fs::write(store.entry_path(key), stale).unwrap();
        assert!(store.load(key).is_none(), "expired lease is a miss");

        // ...and a pre-lease entry (no cell_rev field at all).
        let legacy = text.replace(&format!("\"cell_rev\": {CELL_REV},\n  "), "");
        assert_ne!(legacy, text);
        std::fs::write(store.entry_path(key), legacy).unwrap();
        assert!(store.load(key).is_none(), "missing lease is a miss");

        // A rewrite heals the entry.
        store.store(key, &cell).unwrap();
        assert!(store.load(key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_classifies_sweeps_and_purges() {
        let store = temp_store("gc");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();
        let text = std::fs::read_to_string(store.entry_path(key)).unwrap();

        // A stale entry: valid JSON, expired lease, under a different key.
        let other_key = CellKey::compute(
            &SystemConfig::test_default(ProtocolKind::DirOpt, TopologyKind::Butterfly16),
            &paper::dss(0.0005),
            1,
        );
        let stale = text.replace(
            &format!("\"cell_rev\": {CELL_REV}"),
            &format!("\"cell_rev\": {}", CELL_REV + 1),
        );
        std::fs::write(store.entry_path(other_key), stale).unwrap();

        // A corrupt entry: truncated JSON under a third key.
        let third_key = CellKey::compute(
            &SystemConfig::test_default(ProtocolKind::DirClassic, TopologyKind::Torus4x4),
            &paper::oltp(0.0005),
            1,
        );
        std::fs::write(store.entry_path(third_key), &text[..text.len() / 2]).unwrap();

        // An orphaned temp file and a foreign file.
        let orphan = store.dir().join(format!(".{}.tmp-4242", key.to_hex()));
        std::fs::write(&orphan, "half-written").unwrap();
        let foreign = store.dir().join("README.txt");
        std::fs::write(&foreign, "not an entry").unwrap();

        // Report-only pass: counts everything, removes only the orphan.
        let report = store.gc(false).unwrap();
        assert_eq!(
            report,
            GcReport {
                live: 1,
                stale: 1,
                corrupt: 1,
                tmp_swept: 1,
                purged: 0,
            }
        );
        assert!(!orphan.exists(), "orphan swept even without purge");
        assert!(store.entry_path(other_key).exists(), "stale kept");
        assert!(store.entry_path(third_key).exists(), "corrupt kept");
        assert!(report.to_string().contains("1 stale"), "{report}");

        // Purge pass: stale and corrupt go, live and foreign stay.
        let report = store.gc(true).unwrap();
        assert_eq!(report.live, 1);
        assert_eq!(report.purged, 2);
        assert!(!store.entry_path(other_key).exists());
        assert!(!store.entry_path(third_key).exists());
        assert!(store.load(key).is_some(), "live entry untouched");
        assert!(foreign.exists(), "non-entry files are not store property");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// `load` and `gc` apply one validity rule: over every kind of entry,
    /// `load` serves exactly the ones `gc` counts live. The stale entries
    /// embed a key other than their filename's, so this also pins that
    /// the schema and lease are judged before the key.
    #[test]
    fn load_serves_exactly_the_entries_gc_counts_live() {
        let store = temp_store("one-rule");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();
        let text = std::fs::read_to_string(store.entry_path(key)).unwrap();
        std::fs::remove_file(store.entry_path(key)).unwrap();
        let restamp = |field: &str, from: u32, to: u32| {
            let restamped = text.replace(
                &format!("\"{field}\": {from}"),
                &format!("\"{field}\": {to}"),
            );
            assert_ne!(restamped, text, "the envelope carries {field}");
            restamped
        };
        let other = |i: u128| format!("{i:032x}").parse::<CellKey>().unwrap();
        // (what, file content, filename key, gc's (live, stale, corrupt))
        let entries = [
            ("live", text.clone(), key, (1, 0, 0)),
            (
                "wrong schema",
                restamp("schema", SCHEMA_VERSION, 99999),
                other(1),
                (0, 1, 0),
            ),
            (
                "old cell_rev",
                restamp("cell_rev", CELL_REV, 0),
                other(2),
                (0, 1, 0),
            ),
            (
                "truncated",
                text[..text.len() / 2].to_string(),
                other(3),
                (0, 0, 1),
            ),
            (
                "no cell",
                format!("{{\"schema\": {SCHEMA_VERSION}, \"cell_rev\": {CELL_REV}}}"),
                other(4),
                (0, 0, 1),
            ),
            ("key mismatch", text.clone(), other(5), (0, 0, 1)),
        ];
        let mut totals = (0, 0, 0);
        for (what, content, at, class) in entries {
            std::fs::write(store.entry_path(at), content).unwrap();
            let gc = store.gc(false).unwrap();
            let counted = (
                gc.live - totals.0,
                gc.stale - totals.1,
                gc.corrupt - totals.2,
            );
            assert_eq!(counted, class, "{what}: gc's class");
            assert_eq!(
                store.load(at).is_some(),
                class.0 == 1,
                "{what}: load serves it iff gc counts it live"
            );
            totals = (gc.live, gc.stale, gc.corrupt);
        }
        assert_eq!(totals, (1, 2, 3));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn reopening_sweeps_orphaned_temp_files_but_not_entries() {
        let store = temp_store("orphans");
        let (key, cell) = sample_cell();
        store.store(key, &cell).unwrap();
        // A writer that died between write and rename.
        let orphan = store.dir().join(format!(".{}.tmp-99999", key.to_hex()));
        std::fs::write(&orphan, "half-written").unwrap();

        let reopened = CellStore::open(store.dir()).unwrap();
        assert!(!orphan.exists(), "orphaned temp file swept on open");
        assert!(reopened.load(key).is_some(), "real entries survive");
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
