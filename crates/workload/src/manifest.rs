//! The benchmark's contract: workloads, frozen op counts, metric names,
//! units and bounds.
//!
//! `mlql-workload manifest` renders this table as the root
//! `BENCHMARK.json`; `run.sh --selfcheck` fails if the committed file has
//! drifted from it, so the names the binary prints and the names the
//! driver expects cannot disagree.

use crate::json::Json;

/// Nominal length of the timed phase (seconds) on the 2-core host the op
/// counts below were calibrated on; `BENCHMARK.json`'s `run_seconds`, and
/// what the benchmark driver passes as `--seconds`.
pub const RUN_SECONDS: i64 = 20;

/// The timed phase is this many segments of equal op count; `ops_per_s`
/// is the median over them.
pub const SEGMENTS: u64 = 5;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Frozen op count: whole rounds per segment of a `RUN_SECONDS` run,
    /// calibrated once on the seed commit so that the timed phase takes
    /// about `RUN_SECONDS` there.  Both sides of any comparison execute
    /// exactly these statements; no clock decides when the phase ends.
    pub segment_rounds: u64,
}

impl WorkloadDef {
    pub fn named(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Rounds per segment of a `--seconds` run.  The driver passes
    /// `RUN_SECONDS`, which selects the frozen count itself; any other
    /// value scales it, so the flag sets how much is measured without a
    /// timer in the timed phase.
    pub fn segment_rounds_for(&self, seconds: f64) -> u64 {
        let scaled = self.segment_rounds as f64 * seconds / RUN_SECONDS as f64;
        (scaled.round() as u64).max(1)
    }
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "psi_scan",
        why: "50k-name LEXEQUAL seq scan, 64 cached probes: the scan spine (storage decode, exec batch/parallel path, psi kernel) does the work; sql/opt/mtree/WAL do none",
        // 5 x 7 rounds x 64 ops = 2,240 ops at ~8 ms.
        segment_rounds: 7,
    },
    WorkloadDef {
        name: "psi_probe",
        why: "same table with M-tree + B-tree, threshold 1, Zipf over 4096 literals (16x the plan cache): index probe, G2P and parse/bind/plan on cache misses; shows a planner that prefers a scan",
        // 5 x 7 rounds x 64 ops = 2,240 ops at ~8 ms.
        segment_rounds: 7,
    },
    WorkloadDef {
        name: "fig7_join",
        why: "Figure-7 author-psi-publisher-book join with a SEMEQUAL category filter over a 115k-synset taxonomy: join ordering, join operators, omega intervals + closure fallback; storage and WAL idle",
        // 5 x 4 rounds x 32 ops = 640 ops at ~28 ms.
        segment_rounds: 4,
    },
    WorkloadDef {
        name: "lexicon_edit",
        why: "2 sessions editing a file-backed 150k-entry lexicon (> buffer pool) in transactions with periodic checkpoints: un-cached DML, txn, dml_lock, WAL, eviction, index maintenance",
        // 5 x 3 rounds x (2 x 17 txns + 1 checkpoint) = 525 ops at ~40 ms.
        segment_rounds: 3,
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Same six for every workload.  A bound must be at least the quartile
/// spread of same-code runs or the benchmark driver refuses the benchmark
/// (it asks for three times the spread and caps a bound at 0.25); the
/// committed `baseline.json` shows 4-12 % for the time metrics on the
/// shared 2-core host, so they sit at the cap.  Derivation and the
/// issue's tighter rule: `benchmarks/workload/README.md`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("lat_p90_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.05),
];

/// Printed by every untraced run beside the gated metrics, not gated:
/// latency percentiles over every op of the timed phase.
pub const PHASE_PERCENTILES: [(&str, f64); 3] = [
    ("lat_phase_p50_ms", 0.50),
    ("lat_phase_p90_ms", 0.90),
    ("lat_phase_p99_ms", 0.99),
];

/// Layer = module name.  Every traced run prints every one of these;
/// the two families a workload cannot reach are fill-ins from a
/// miniature (see `trace.rs`).
pub const PER_LAYER: [MetricDef; 43] = [
    layer("sql.parse_us", "us", "lower"),
    layer("sql.bind_us", "us", "lower"),
    layer("opt.plan_us", "us", "lower"),
    layer("engine.plan_cache.hit_ratio", "ratio", "higher"),
    layer("obs.overhead_ratio", "ratio", "lower"),
    layer("exec.scan.ns_per_row", "ns", "lower"),
    layer("exec.rows_examined_per_row_returned", "count", "lower"),
    layer("exec.pool.cpu_per_wall", "ratio", "lower"),
    layer("exec.join.pairs_per_s", "1/s", "higher"),
    layer("storage.decode.ns_per_row", "ns", "lower"),
    layer("storage.bufferpool.hit_ratio", "ratio", "higher"),
    layer("storage.bufferpool.evictions_per_op", "count", "lower"),
    layer("storage.wal.bytes_per_txn", "bytes", "lower"),
    layer("storage.wal.append_us", "us", "lower"),
    layer("storage.wal.commit_us", "us", "lower"),
    layer("storage.wal.flushes_per_txn", "count", "lower"),
    layer("storage.disk_bytes_per_user_byte", "ratio", "lower"),
    layer("index.btree.search_us", "us", "lower"),
    layer("index.btree.insert_us", "us", "lower"),
    layer("mtree.range_us", "us", "lower"),
    layer("mtree.dist_comps_per_probe", "count", "lower"),
    layer("mtree.nodes_per_probe", "count", "lower"),
    layer("mtree.insert_us", "us", "lower"),
    layer("index.build_s", "s", "lower"),
    layer("phonetics.g2p.ns_per_name", "ns", "lower"),
    layer("phonetics.distance.ns_per_pair", "ns", "lower"),
    layer("mural.lexequal.ns_per_row", "ns", "lower"),
    layer("mural.semequal.ns_per_row", "ns", "lower"),
    layer("taxonomy.intervals.ns_per_probe", "ns", "lower"),
    layer("taxonomy.closure.fallback_ratio", "ratio", "lower"),
    layer("taxonomy.intervals.build_ms", "ms", "lower"),
    layer("txn.begin_commit_us", "us", "lower"),
    layer("txn.conflict_ratio", "ratio", "lower"),
    layer("txn.scaling_2_sessions", "ratio", "higher"),
    layer("snapshot.checkpoint_ms", "ms", "lower"),
    layer("snapshot.checkpoint.bytes_written", "bytes", "lower"),
    layer("snapshot.checkpoint.stall_ms", "ms", "lower"),
    layer("snapshot.reopen_ms", "ms", "lower"),
    layer("datagen.generate_s", "s", "lower"),
    layer("engine.load.rows_per_s", "1/s", "higher"),
    layer("catalog.analyze_s", "s", "lower"),
    layer("unattributed_share", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![
                Json::str("bash"),
                Json::str("benchmarks/workload/run.sh"),
            ]),
        ),
        (
            "paths",
            Json::Arr(vec![
                Json::str("benchmarks/workload"),
                Json::str("crates/workload"),
            ]),
        ),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seconds_selects_the_frozen_counts() {
        for w in &WORKLOADS {
            assert_eq!(w.segment_rounds_for(RUN_SECONDS as f64), w.segment_rounds);
        }
        let scan = WorkloadDef::named("psi_scan").unwrap();
        assert_eq!(scan.segment_rounds_for(2.0 * RUN_SECONDS as f64), 14);
        assert_eq!(scan.segment_rounds_for(0.5), 1);
        assert!(WorkloadDef::named("opac_search").is_none());
    }
}
