//! Machine-readable run reports — the stable JSON schema emitted by
//! `tipdecomp --json` and the `repro` harness.
//!
//! Every report starts with `schema_version` and `kind` so downstream
//! tooling (golden-snapshot tests, the differential runner, EXPERIMENTS.md
//! refreshes, cross-PR perf trajectories) can dispatch and evolve without
//! sniffing field shapes. Timing fields are real measurements and therefore
//! nondeterministic; [`scrub_timings`] canonicalizes them to zero so
//! snapshots and diffs compare only machine-independent quantities
//! (counts, tip/wing numbers, wedge work, sync rounds).

use crate::engine::{BatchOutcome, EngineSnapshot};
use crate::wing_parallel::WingMetrics;
use crate::{Config, Metrics, TipDecomposition};
use bigraph::Side;
use serde::{Deserialize, Serialize};

/// Bumped whenever a field is renamed, removed, or changes meaning.
/// (Purely additive fields do not require a bump.) Version 2 removed
/// `config.dgm_threshold`.
pub const SCHEMA_VERSION: u32 = 2;

/// Full result of one `tip` decomposition run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TipReport {
    pub schema_version: u32,
    /// Always `"tip"`.
    pub kind: String,
    /// Input path or dataset label, as given on the command line.
    pub input: String,
    pub side: Side,
    pub config: Config,
    pub num_vertices: usize,
    pub theta_max: u64,
    /// `tip[u] = θ_u` for every vertex of the decomposed side.
    pub tip: Vec<u64>,
    pub metrics: Metrics,
}

impl TipReport {
    pub fn new(input: impl Into<String>, config: &Config, d: &TipDecomposition) -> Self {
        TipReport {
            schema_version: SCHEMA_VERSION,
            kind: "tip".to_string(),
            input: input.into(),
            side: d.side,
            config: config.clone(),
            num_vertices: d.tip.len(),
            theta_max: d.theta_max(),
            tip: d.tip.clone(),
            metrics: d.metrics.clone(),
        }
    }
}

/// Full result of one `wing` decomposition run (sequential or parallel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WingReport {
    pub schema_version: u32,
    /// Always `"wing"`.
    pub kind: String,
    pub input: String,
    pub side: Side,
    /// `P` for the RECEIPT-style parallel path; 0 means the sequential
    /// bottom-up peel was used.
    pub partitions: usize,
    pub num_edges: usize,
    pub max_wing: u64,
    /// Edges in primary-CSR order, each `[u, v]`.
    pub edges: Vec<(u32, u32)>,
    /// `wing[e]` = wing number of `edges[e]`.
    pub wing: Vec<u64>,
    /// Intersection-step work of the run (diagnostic).
    pub work: u64,
    /// Phase metrics; `null` for the sequential path.
    pub wing_metrics: Option<WingMetrics>,
}

impl WingReport {
    pub fn new(
        input: impl Into<String>,
        side: Side,
        partitions: usize,
        d: &crate::wing::WingDecomposition,
        wing_metrics: Option<WingMetrics>,
    ) -> Self {
        WingReport {
            schema_version: SCHEMA_VERSION,
            kind: "wing".to_string(),
            input: input.into(),
            side,
            partitions,
            num_edges: d.edges.len(),
            max_wing: d.max_wing(),
            edges: d.edges.clone(),
            wing: d.wing.clone(),
            work: d.work,
            wing_metrics,
        }
    }
}

/// Per-vertex butterfly counts of one `count` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountReport {
    pub schema_version: u32,
    /// Always `"count"`.
    pub kind: String,
    pub input: String,
    pub num_u: usize,
    pub num_v: usize,
    pub total_butterflies: u64,
    pub u: Vec<u64>,
    pub v: Vec<u64>,
}

impl CountReport {
    pub fn new(input: impl Into<String>, counts: &butterfly::VertexCounts) -> Self {
        let total = counts.total();
        CountReport {
            schema_version: SCHEMA_VERSION,
            kind: "count".to_string(),
            input: input.into(),
            num_u: counts.u.len(),
            num_v: counts.v.len(),
            total_butterflies: total,
            u: counts.u.clone(),
            v: counts.v.clone(),
        }
    }
}

/// One `tipdecomp stream` run: the per-batch trajectory of an incremental
/// tip decomposition over a stream of edge-update batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    pub schema_version: u32,
    /// Always `"stream"`.
    pub kind: String,
    /// Graph file, as given on the command line.
    pub input: String,
    /// Batch (ops) file.
    pub ops: String,
    pub side: Side,
    pub config: Config,
    /// Dirty fraction beyond which a batch fell back to full recompute.
    pub dirty_threshold: f64,
    /// Every batch was differentially checked against a from-scratch
    /// recount + BUP re-peel (`--verify`).
    pub verified: bool,
    pub batches: Vec<StreamBatchReport>,
    /// Final graph/decomposition state after the last batch.
    pub final_num_edges: usize,
    pub final_total_butterflies: u64,
    pub final_theta_max: u64,
    /// FNV-1a digest of the final tip numbers in id order.
    pub final_tip_checksum: u64,
}

/// One batch of a `stream` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamBatchReport {
    /// 0-based batch index.
    pub batch: usize,
    pub inserted: usize,
    pub deleted: usize,
    /// No-op ops (duplicate inserts, deletes of absent edges, overridden
    /// ops within the batch).
    pub skipped: usize,
    /// The batch tripped the overlay compaction threshold.
    pub compacted: bool,
    pub butterflies_gained: u64,
    pub butterflies_lost: u64,
    pub total_butterflies: u64,
    /// Intersection steps the incremental counter spent on this batch.
    pub update_work: u64,
    /// Tip-update policy (`unchanged` / `seeded-repeel` /
    /// `full-recompute`).
    pub policy: crate::dynamic::UpdatePolicy,
    /// Peel-side vertices on a changed butterfly.
    pub dirty: usize,
    pub dirty_fraction: f64,
    /// Wedges traversed by the tip update.
    pub peel_wedges: u64,
    pub theta_max: u64,
    /// FNV-1a digest of the tip numbers after this batch.
    pub tip_checksum: u64,
    pub time_update_secs: f64,
}

impl StreamBatchReport {
    /// The row a [`BatchOutcome`] of [`crate::engine::StreamEngine`]
    /// produces for one side — the shared shape behind `tipdecomp stream`,
    /// serve-mode `apply` responses, and the `repro` drivers.
    pub fn from_outcome(batch: usize, side: Side, outcome: &BatchOutcome) -> Self {
        let update = outcome.update(side);
        let snapshot = &outcome.snapshot;
        StreamBatchReport {
            batch,
            inserted: outcome.delta.application.inserted.len(),
            deleted: outcome.delta.application.deleted.len(),
            skipped: outcome.delta.application.skipped,
            compacted: outcome.delta.application.compacted,
            butterflies_gained: outcome.delta.gained,
            butterflies_lost: outcome.delta.lost,
            total_butterflies: snapshot.total_butterflies(),
            update_work: outcome.delta.work,
            policy: update.policy,
            dirty: update.dirty,
            dirty_fraction: update.dirty_fraction,
            peel_wedges: update.wedges,
            theta_max: snapshot.theta_max(side),
            tip_checksum: snapshot.tip_checksum(side),
            time_update_secs: outcome.time.as_secs_f64(),
        }
    }
}

/// One serve-mode response frame. The vendored `serde_derive` cannot emit
/// data-carrying enums, so every answer shape shares this one struct:
/// `op` echoes the request's operation and exactly the fields that
/// operation produces are non-`null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    pub schema_version: u32,
    /// Always `"serve"`.
    pub kind: String,
    /// 0-based sequence number of the request within the session.
    pub seq: u64,
    /// Echo of the request operation (`tip` / `butterflies` / `topk` /
    /// `stats` / `epoch` / `apply` / `shutdown`).
    pub op: String,
    /// Epoch of the snapshot that answered (for `apply`: the epoch it
    /// published).
    pub epoch: u64,
    pub ok: bool,
    /// Present iff `ok` is false.
    pub error: Option<String>,
    /// Scalar answer: a tip number or a butterfly count.
    pub value: Option<u64>,
    pub topk: Option<Vec<TopKEntry>>,
    pub stats: Option<ServeStats>,
    /// The per-batch row of an `apply`.
    pub batch: Option<StreamBatchReport>,
    /// The ref a `tag` created or an `at` resolved (`VERSIONING.md`
    /// §3.2/§4); `at` answers additionally carry the historical state in
    /// `stats`.
    pub version: Option<VersionEntryReport>,
}

impl ServeResponse {
    /// A skeleton response with every answer field empty; fill the one the
    /// operation produces.
    pub fn new(seq: u64, op: impl Into<String>, epoch: u64) -> Self {
        ServeResponse {
            schema_version: SCHEMA_VERSION,
            kind: "serve".to_string(),
            seq,
            op: op.into(),
            epoch,
            ok: true,
            error: None,
            value: None,
            topk: None,
            stats: None,
            batch: None,
            version: None,
        }
    }

    /// An error response for a request that could not be answered.
    pub fn error(seq: u64, op: impl Into<String>, epoch: u64, message: impl Into<String>) -> Self {
        let mut r = ServeResponse::new(seq, op, epoch);
        r.ok = false;
        r.error = Some(message.into());
        r
    }
}

/// One row of a `topk` answer, densest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKEntry {
    pub id: u32,
    pub side: Side,
    pub tip: u64,
    pub butterflies: u64,
}

/// The `stats` answer: the snapshot's aggregate state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    pub epoch: u64,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    pub total_butterflies: u64,
    pub theta_max_u: u64,
    pub theta_max_v: u64,
    /// FNV-1a digests of the tip numbers in id order, per side.
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
}

impl ServeStats {
    pub fn from_snapshot(snapshot: &EngineSnapshot) -> Self {
        ServeStats {
            epoch: snapshot.epoch(),
            num_u: snapshot.graph().num_u(),
            num_v: snapshot.graph().num_v(),
            num_edges: snapshot.graph().num_edges(),
            total_butterflies: snapshot.total_butterflies(),
            theta_max_u: snapshot.theta_max(Side::U),
            theta_max_v: snapshot.theta_max(Side::V),
            tip_checksum_u: snapshot.tip_checksum(Side::U),
            tip_checksum_v: snapshot.tip_checksum(Side::V),
        }
    }
}

/// Whole-document report of a scripted serve session (`tipdecomp serve
/// --requests`): every response in request order plus the final state —
/// the serve analog of [`StreamReport`], golden-snapshot friendly after
/// [`scrub_timings`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSessionReport {
    pub schema_version: u32,
    /// Always `"serve-session"`.
    pub kind: String,
    /// Graph file, as given on the command line.
    pub input: String,
    /// Requests file (newline-delimited JSON).
    pub requests: String,
    /// Every applied batch was differentially verified in-engine.
    pub verified: bool,
    pub responses: Vec<ServeResponse>,
    pub final_stats: ServeStats,
    pub time_session_secs: f64,
}

/// One `tipdecomp convert` run: a format conversion between the KONECT
/// text edge list and the checksummed `BGR` binary image (`FORMATS.md`
/// §1). `bytes_in`/`bytes_out` are on-disk file sizes — the load-cost
/// comparison in EXPERIMENTS.md is built from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvertReport {
    pub schema_version: u32,
    /// Always `"convert"`.
    pub kind: String,
    /// Source path, as given on the command line.
    pub input: String,
    /// Destination path.
    pub output: String,
    /// Source format: `"text"` or `"binary"`.
    pub from: String,
    /// Destination format: `"text"` or `"binary"`.
    pub to: String,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    /// On-disk size of the source file.
    pub bytes_in: u64,
    /// On-disk size of the written file.
    pub bytes_out: u64,
    pub time_convert_secs: f64,
}

/// One `tipdecomp recover` run: what was found in the durable store
/// directory, what the WAL replay did, and the from-scratch oracle verdict
/// on the recovered state (`FORMATS.md` §4 recovery procedure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverReport {
    pub schema_version: u32,
    /// Always `"recover"`.
    pub kind: String,
    /// Store directory, as given on the command line.
    pub dir: String,
    /// LSN of the checkpoint the base snapshot was loaded from.
    pub checkpoint_lsn: u64,
    /// Committed records found in the WAL.
    pub wal_records: usize,
    /// Records past the checkpoint, replayed through the engine.
    pub replayed: usize,
    /// Records at or below the checkpoint, already folded into the base.
    pub skipped: usize,
    /// A torn tail was truncated off the WAL before replay.
    pub torn_tail_repaired: bool,
    /// Bytes the torn-tail repair discarded (0 if none).
    pub discarded_bytes: u64,
    /// Last committed LSN — new appends continue from here.
    pub end_lsn: u64,
    /// Engine epoch after replay (= records replayed).
    pub final_epoch: u64,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    pub total_butterflies: u64,
    /// FNV-1a digests of the recovered tip numbers in id order, per side.
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
    /// The recovered state passed `verify_against_scratch` (a failure is a
    /// run error, so an emitted report always says `true` — the field
    /// records that the check ran).
    pub verified: bool,
    pub time_recover_secs: f64,
    pub time_verify_secs: f64,
}

/// One version ref in JSON shape — the unit of `tipdecomp version`
/// answers and serve-mode `tag`/`at` responses (`VERSIONING.md` §1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionEntryReport {
    /// The tag name.
    pub name: String,
    /// Last WAL record included in the version (0 = initial graph).
    pub lsn: u64,
    pub total_butterflies: u64,
    /// FNV-1a digests of the tagged tip numbers in id order, per side.
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
}

impl VersionEntryReport {
    pub fn from_ref(vref: &crate::version::VersionRef) -> Self {
        VersionEntryReport {
            name: vref.name.clone(),
            lsn: vref.lsn,
            total_butterflies: vref.total_butterflies,
            tip_checksum_u: vref.tip_checksum_u,
            tip_checksum_v: vref.tip_checksum_v,
        }
    }
}

/// The `version diff` section: the net batch between two versions
/// (`VERSIONING.md` §5). `ops` uses the stream batch-file line syntax
/// (`+ u v` / `- u v`), so a diff written to a file replays through
/// `tipdecomp stream` as-is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionDiffReport {
    /// The older version (`a`).
    pub from: VersionEntryReport,
    /// The newer version (`b`).
    pub to: VersionEntryReport,
    /// Net insertions in the diff.
    pub inserts: usize,
    /// Net deletions in the diff.
    pub deletes: usize,
    /// The batch, one op per entry, ascending `(u, v)`.
    pub ops: Vec<String>,
}

/// The `version at` section: what time travel (`VERSIONING.md` §4)
/// found, replayed, and verified — the versioned sibling of
/// [`RecoverReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeTravelReport {
    /// The resolved version.
    pub version: VersionEntryReport,
    /// LSN of the checkpoint replay started from.
    pub checkpoint_lsn: u64,
    /// Committed records found in the WAL.
    pub wal_records: usize,
    /// Records replayed to reach the tag.
    pub replayed: usize,
    /// Records already folded into the base snapshot.
    pub skipped_folded: usize,
    /// Records above the tag LSN, deliberately not applied.
    pub skipped_above: usize,
    /// The WAL's last committed LSN.
    pub wal_end: u64,
    /// Engine epoch after replay (= records replayed).
    pub final_epoch: u64,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    pub total_butterflies: u64,
    pub theta_max_u: u64,
    pub theta_max_v: u64,
    /// FNV-1a digests of the materialized tip numbers, per side. Equal
    /// to the tagged checksums by §4 step 5 — `open_at` fails closed
    /// otherwise.
    pub tip_checksum_u: u64,
    pub tip_checksum_v: u64,
    /// The materialized state additionally passed
    /// `verify_against_scratch` (only run when requested; `false` means
    /// not run, a failure is a run error).
    pub verified: bool,
    pub time_travel_secs: f64,
    pub time_verify_secs: f64,
}

/// Whole-document report of one `tipdecomp version` run. One struct for
/// all four subcommands (the vendored `serde_derive` has no data
/// enums): `op` says which of `tag`/`list`/`diff`/`at` ran and exactly
/// that op's sections are non-`null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionReport {
    pub schema_version: u32,
    /// Always `"version"`.
    pub kind: String,
    /// `"tag"`, `"list"`, `"diff"`, or `"at"`.
    pub op: String,
    /// Store directory, as given on the command line.
    pub dir: String,
    /// Every version in creation order (`list`, and `tag` after the
    /// append).
    pub versions: Option<Vec<VersionEntryReport>>,
    /// The ref a `tag` just created.
    pub tagged: Option<VersionEntryReport>,
    /// The `diff` section.
    pub diff: Option<VersionDiffReport>,
    /// The `at` section.
    pub at: Option<TimeTravelReport>,
}

impl VersionReport {
    /// A skeleton with every section empty; fill the one `op` produces.
    pub fn new(op: impl Into<String>, dir: impl Into<String>) -> Self {
        VersionReport {
            schema_version: SCHEMA_VERSION,
            kind: "version".to_string(),
            op: op.into(),
            dir: dir.into(),
            versions: None,
            tagged: None,
            diff: None,
            at: None,
        }
    }
}

/// One `tipdecomp derive` run (`VERSIONING.md` §6): which operator, its
/// inputs, and the shape of the graph it wrote.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeriveReport {
    pub schema_version: u32,
    /// Always `"derive"`.
    pub kind: String,
    /// `"subgraph"`, `"union"`, or `"diff"`.
    pub op: String,
    /// First input graph path.
    pub a: String,
    /// Second input graph path (`union`/`diff`; `null` for `subgraph`).
    pub b: Option<String>,
    /// The primary-side subset (`subgraph` only), as given.
    pub subset: Option<Vec<u32>>,
    /// Side the subset indexes (`subgraph` only).
    pub side: Option<Side>,
    /// Destination path of the derived graph.
    pub output: String,
    pub num_u: usize,
    pub num_v: usize,
    pub num_edges: usize,
    pub time_derive_secs: f64,
}

/// Canonicalizes every timing field in a parsed report so documents can be
/// compared across runs and machines: object values under keys starting
/// with `time_` are zeroed — `Duration` objects get `secs`/`nanos` set to
/// 0, plain numbers (`time_*_secs` floats in `repro` rows) become 0.
/// Recurses through arrays and objects — including `time_`-prefixed keys
/// that hold a non-timing container (an array or an object other than a
/// `Duration`), whose *nested* timing leaves must still be scrubbed.
/// Every other field is untouched.
///
/// This is the single source of truth for snapshot normalization: the
/// golden tests, the differential runner, and the CI drift check all call
/// it before comparing.
pub fn scrub_timings(value: &mut serde_json::Value) {
    match value {
        serde_json::Value::Array(items) => {
            for item in items {
                scrub_timings(item);
            }
        }
        serde_json::Value::Object(map) => {
            for (key, entry) in map.iter_mut() {
                if key.starts_with("time_") {
                    match entry {
                        serde_json::Value::Number(n) => {
                            *n = serde_json::Number::PosInt(0);
                        }
                        serde_json::Value::Object(duration)
                            if duration.get("secs").is_some()
                                && duration.get("nanos").is_some() =>
                        {
                            for field in ["secs", "nanos"] {
                                if let Some(v) = duration.get_mut(field) {
                                    *v = serde_json::Value::Number(serde_json::Number::PosInt(0));
                                }
                            }
                        }
                        other => scrub_timings(other),
                    }
                } else {
                    scrub_timings(entry);
                }
            }
        }
        _ => {}
    }
}

/// Canonicalizes the scheduler telemetry of a parsed report by replacing
/// any `scheduler` key's value with `null`, recursively. Scheduler
/// counters (steals, per-worker execution counts) depend on OS scheduling
/// and are therefore nondeterministic run to run — like timings, they are
/// diagnostics, not results. Golden-snapshot and cross-thread-count
/// comparisons scrub them alongside [`scrub_timings`]; the CI scheduler
/// gate reads them from the *unscrubbed* document via `repro check-sched`
/// instead.
pub fn scrub_scheduler(value: &mut serde_json::Value) {
    match value {
        serde_json::Value::Array(items) => {
            for item in items {
                scrub_scheduler(item);
            }
        }
        serde_json::Value::Object(map) => {
            for (key, entry) in map.iter_mut() {
                if key == "scheduler" {
                    *entry = serde_json::Value::Null;
                } else {
                    scrub_scheduler(entry);
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::from_edges;

    fn butterfly_graph() -> bigraph::BipartiteCsr {
        from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]).unwrap()
    }

    #[test]
    fn tip_report_round_trips() {
        let g = butterfly_graph();
        let cfg = Config::default();
        let d = crate::tip_decompose(&g, Side::U, &cfg);
        let report = TipReport::new("g.tsv", &cfg, &d);
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: TipReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.tip, vec![1, 1, 0]);
        assert_eq!(back.kind, "tip");
        // Byte-identical re-serialization of the parsed document.
        let value = serde_json::from_str_value(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&value).unwrap(), text);
    }

    #[test]
    fn wing_report_round_trips() {
        let g = butterfly_graph();
        let view = g.view(Side::U);
        let (d, m) = crate::wing_parallel::receipt_wing_decompose(view, 2, 4);
        let report = WingReport::new("g.tsv", Side::U, 2, &d, Some(m));
        let text = serde_json::to_string(&report).unwrap();
        let back: WingReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.edges.len(), back.wing.len());
    }

    #[test]
    fn scrub_zeroes_only_timings() {
        let g = butterfly_graph();
        let cfg = Config::default();
        let d = crate::tip_decompose(&g, Side::U, &cfg);
        let report = TipReport::new("g.tsv", &cfg, &d);
        let mut value = serde_json::to_value(&report).unwrap();
        scrub_timings(&mut value);
        let metrics = &value["metrics"];
        for phase in ["time_count", "time_cd", "time_fd"] {
            assert_eq!(metrics[phase]["secs"].as_u64(), Some(0), "{phase}");
            assert_eq!(metrics[phase]["nanos"].as_u64(), Some(0), "{phase}");
        }
        // Counts survive.
        assert_eq!(value["theta_max"].as_u64(), Some(d.theta_max()));
        let back: TipReport = serde_json::from_value(&value).unwrap();
        assert_eq!(back.metrics.time_total(), std::time::Duration::ZERO);
        assert_eq!(back.tip, report.tip);
    }

    #[test]
    fn scrub_scheduler_nulls_only_scheduler_sections() {
        let text = r#"{
            "experiment": "smoke",
            "scheduler": {"steals_succeeded": 7, "tasks_executed": 91, "idle_timeouts": 4},
            "rows": [{"scheduler": {"x": 1}, "max_wing": 3}]
        }"#;
        let mut value = serde_json::from_str_value(text).unwrap();
        scrub_scheduler(&mut value);
        assert!(value["scheduler"].is_null());
        let row = &value["rows"].as_array().unwrap()[0];
        assert!(row["scheduler"].is_null());
        assert_eq!(row["max_wing"].as_u64(), Some(3));
        assert_eq!(value["experiment"].as_str(), Some("smoke"));
    }
}
