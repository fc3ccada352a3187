//! The traced run (`--trace 1`): a separate, shorter run that yields the
//! per-layer metrics.  End-to-end metrics never come from here.
//!
//! Per fixture, three passes over whole rounds with one session:
//!
//! * **A** — untraced, alternating rounds with fine-grained
//!   observability on and off: `obs.overhead_ratio`, and every
//!   counter-derived ratio (plan cache, buffer pool, WAL, CPU per wall),
//!   taken while nothing but the workload runs.
//! * **B** — traced: each statement is a `session.execute` span; right
//!   after each op its layer calls are *replayed* directly on the same
//!   inputs, one span per call (see `layers.rs`).  Spans stay in memory
//!   and are written to `out/trace-<workload>.json` at exit.
//! * **probe** — a fixed sweep over the workload's table for layers the
//!   planner's choice may keep off the op path.
//!
//! The replay is measured from outside the engine, so a span's `parent`
//! is the layer that *calls* it in the engine (ψ calls the distance
//! kernel), not a span that contains it in time.  A layer's self time is
//! its spans' time minus its logical children's.  `unattributed_share`
//! is the part of `session.execute` time the replayed layer calls do not
//! account for: executor orchestration, expression evaluation, locks.
//! It goes negative when the executor overlaps on two workers what the
//! replay runs serially.
//!
//! The benchmark driver wants every per-layer metric from every traced
//! run.  All but two families are measured at full scale on the
//! workload's own tables (ops, replay, or the probe sweep).  The two that
//! need structures only one workload has — Ω/join (`fig7_join`'s
//! taxonomy) and WAL/transaction/checkpoint (`lexicon_edit`'s file-backed
//! engine) — are, in the other workloads' traced runs, fill-ins measured
//! on a miniature of that workload; the result file lists them under
//! `fill_ins`, and nothing is claimed on them.

use crate::fixture::{Scale, SetupStages};
use crate::json::Json;
use crate::measure::{cpu_seconds, OpRecord, Workload};
use crate::{fig7, lexicon, manifest, psi, reading, Args, Outcome, Reading};
use mlql_kernel::engine::Engine;
use mlql_kernel::obs;
use mlql_kernel::storage::{IoStats, PAGE_SIZE};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type SpanId = u32;
/// `op` of spans that belong to no op (the probe sweep, index builds).
pub const NO_OP: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows, pairs or calls the span processed (the unit-cost divisor).
    pub units: u64,
}

/// In-memory span and count store of one fixture's traced passes.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    counts: BTreeMap<&'static str, (f64, u64)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Time `f` as one span; `f` returns its result and the units it
    /// processed.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        self.span_id(name, parent, op, f).0
    }

    pub fn span_id<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> (T, u64),
    ) -> (T, SpanId) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let (out, units) = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
            units,
        });
        (out, id)
    }

    /// Accumulate a per-call count (mean = sum / calls).
    pub fn count(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    pub fn count_sum(&self, name: &str) -> Option<f64> {
        self.counts.get(name).map(|(sum, _)| *sum)
    }

    pub fn count_mean(&self, name: &str) -> Option<f64> {
        self.counts
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
    }

    /// (seconds, units, spans) over every span called `name`.
    pub fn total(&self, name: &str) -> Option<(f64, u64, u64)> {
        let mut acc = (0.0, 0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            acc.0 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            acc.1 += s.units;
            acc.2 += 1;
        }
        (acc.2 > 0).then_some(acc)
    }

    /// Seconds per unit over every span called `name`.
    pub fn unit_cost(&self, name: &str) -> Option<f64> {
        self.total(name)
            .filter(|(_, units, _)| *units > 0)
            .map(|(secs, units, _)| secs / units as f64)
    }

    /// Self seconds per layer over op-attached spans (not the probe
    /// sweep): duration minus logical children, floored at zero.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += dur(s);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op != NO_OP) {
            *by_layer.entry(s.name).or_insert(0.0) += (dur(s) - children[i]).max(0.0);
        }
        by_layer
    }

    fn to_json(&self) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::Int(i as i64)),
                    ("name", Json::str(s.name)),
                    (
                        "parent",
                        s.parent.map_or(Json::Int(-1), |p| Json::Int(p.into())),
                    ),
                    (
                        "op",
                        if s.op == NO_OP {
                            Json::Int(-1)
                        } else {
                            Json::Int(s.op.into())
                        },
                    ),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    ("units", Json::Int(s.units as i64)),
                ])
            })
            .collect()
    }
}

/// A workload that can run its rounds under the span recorder.
pub trait Traced: Workload {
    /// Round `index` with one `session.execute` span per statement and,
    /// after each op, the replay of its layer calls.
    fn traced_round(&mut self, index: u64, rec: &mut Recorder, log: &mut Vec<OpRecord>);

    /// The fixed per-layer sweep over this workload's own table.
    fn probe(&mut self, rec: &mut Recorder) -> mlql_kernel::Result<()>;

    fn engine(&self) -> Arc<Engine>;

    fn stages(&self) -> SetupStages;

    /// Cumulative harness-side tallies (only `lexicon_edit` writes).
    fn tallies(&self) -> Tallies {
        Tallies::default()
    }
}

/// What a write workload has done so far, counted by the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tallies {
    pub txns: u64,
    /// Bytes of user data the transactions wrote.
    pub user_bytes: u64,
    /// Bytes checkpoints wrote (snapshot + heap copies).
    pub checkpoint_bytes: u64,
}

impl Tallies {
    fn since(&self, earlier: &Tallies) -> Tallies {
        Tallies {
            txns: self.txns - earlier.txns,
            user_bytes: self.user_bytes - earlier.user_bytes,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
        }
    }
}

/// Registry counters the passes difference.
#[derive(Clone, Copy, Default)]
struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    wal_bytes: u64,
    wal_records: u64,
    wal_fsyncs: u64,
    conflicts: u64,
    omega_hits: u64,
    omega_fallbacks: u64,
}

impl Counters {
    fn read() -> Counters {
        let m = obs::metrics();
        Counters {
            plan_hits: m.plan_cache_hits_total.get(),
            plan_misses: m.plan_cache_misses_total.get(),
            wal_bytes: m.wal_bytes_total.get(),
            wal_records: m.wal_records_total.get(),
            wal_fsyncs: m.wal_fsyncs_total.get(),
            conflicts: m.txn_conflicts_total.get(),
            omega_hits: m.omega_interval_hits_total.get(),
            omega_fallbacks: m.omega_interval_fallbacks_total.get(),
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_records: self.wal_records - earlier.wal_records,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            conflicts: self.conflicts - earlier.conflicts,
            omega_hits: self.omega_hits - earlier.omega_hits,
            omega_fallbacks: self.omega_fallbacks - earlier.omega_fallbacks,
        }
    }
}

/// What passes A and B measured on one fixture.
pub struct Passes {
    pub rec: Recorder,
    /// Every op of the warm-up and both passes, for verification.
    pub log: Vec<OpRecord>,
    /// Index of the next round to run on this fixture.
    pub next_round: u64,
    pub ops_a: usize,
    pub wall_a: f64,
    cpu_a: f64,
    tallies_a: Tallies,
    lat_on: (f64, usize),
    lat_off: (f64, usize),
    lat_b: (f64, usize),
    counters_a: Counters,
    io_a: IoStats,
    stages: SetupStages,
}

fn latency_sum(ops: &[OpRecord]) -> (f64, usize) {
    (ops.iter().map(|o| o.latency.as_secs_f64()).sum(), ops.len())
}

/// Warm-up, pass A (`rounds_a` rounds, even ones with observability on,
/// odd ones off) and pass B (`rounds_b` traced rounds) on one fixture.
pub fn run_passes<W: Traced>(w: &mut W, rounds_a: u64, rounds_b: u64) -> Passes {
    let engine = w.engine();
    let mut log = Vec::new();
    w.round(0, &mut log);
    let mut round = 1;

    let (mut lat_on, mut lat_off) = ((0.0, 0), (0.0, 0));
    let counters0 = Counters::read();
    let tallies0 = w.tallies();
    let io0 = engine.pool().stats();
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let from_a = log.len();
    for i in 0..rounds_a {
        let on = i % 2 == 0;
        obs::set_enabled(on);
        let from = log.len();
        w.round(round, &mut log);
        round += 1;
        let (sum, n) = latency_sum(&log[from..]);
        let slot = if on { &mut lat_on } else { &mut lat_off };
        slot.0 += sum;
        slot.1 += n;
    }
    obs::set_enabled(true);
    let wall_a = start.elapsed().as_secs_f64();
    let cpu_a = cpu_seconds() - cpu0;
    let counters_a = Counters::read().since(&counters0);
    let io_a = engine.pool().stats().since(&io0);
    let ops_a = log.len() - from_a;
    let tallies_a = w.tallies().since(&tallies0);

    let mut rec = Recorder::new();
    let from_b = log.len();
    for _ in 0..rounds_b {
        w.traced_round(round, &mut rec, &mut log);
        round += 1;
    }
    let lat_b = latency_sum(&log[from_b..]);
    Passes {
        rec,
        log,
        next_round: round,
        ops_a,
        wall_a,
        cpu_a,
        tallies_a,
        lat_on,
        lat_off,
        lat_b,
        counters_a,
        io_a,
        stages: w.stages(),
    }
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Record `name` if it was measured (`None`: the run never made the
    /// call or count it is derived from).
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.0.insert(name, v);
        }
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

impl Passes {
    /// Metrics every workload's own passes and probe sweep give.
    pub fn generic(&self, out: &mut LayerValues) {
        let c = &self.counters_a;
        let rec = &self.rec;
        let us = |name| rec.unit_cost(name).map(|s| s * 1e6);
        let ns = |name| rec.unit_cost(name).map(|s| s * 1e9);
        out.set("sql.parse_us", us("sql.parse"));
        out.set("sql.bind_us", us("sql.bind"));
        out.set("opt.plan_us", us("opt.plan"));
        out.set(
            "engine.plan_cache.hit_ratio",
            ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
        );
        let mean = |(sum, n): (f64, usize)| ratio(sum, n as f64);
        out.set(
            "obs.overhead_ratio",
            mean(self.lat_on)
                .zip(mean(self.lat_off))
                .and_then(|(on, off)| ratio(on, off)),
        );
        out.set(
            "trace.overhead_ratio",
            mean(self.lat_b)
                .zip(mean((
                    self.lat_on.0 + self.lat_off.0,
                    self.lat_on.1 + self.lat_off.1,
                )))
                .and_then(|(b, a)| ratio(b, a)),
        );
        out.set("exec.scan.ns_per_row", ns("exec.scan"));
        out.set(
            "exec.rows_examined_per_row_returned",
            rec.count_sum("exec.examined")
                .zip(rec.count_sum("exec.returned"))
                .and_then(|(e, r)| ratio(e, r)),
        );
        out.set("exec.pool.cpu_per_wall", ratio(self.cpu_a, self.wall_a));
        out.set("storage.decode.ns_per_row", ns("storage.decode"));
        let io = &self.io_a;
        out.set(
            "storage.bufferpool.hit_ratio",
            ratio(io.physical_reads as f64, io.logical_reads as f64).map(|miss| 1.0 - miss),
        );
        // The pools of all four workloads are full after set-up or never
        // fill: each miss on a full pool evicts exactly one frame.
        out.set(
            "storage.bufferpool.evictions_per_op",
            ratio(io.physical_reads as f64, self.ops_a as f64),
        );
        out.set("index.btree.search_us", us("index.btree.search"));
        out.set("index.btree.insert_us", us("index.btree.insert"));
        out.set("mtree.range_us", us("mtree.range"));
        out.set("mtree.insert_us", us("mtree.insert"));
        out.set(
            "mtree.dist_comps_per_probe",
            rec.count_mean("mtree.dist_comps_per_probe"),
        );
        out.set(
            "mtree.nodes_per_probe",
            rec.count_mean("mtree.nodes_per_probe"),
        );
        out.set("index.build_s", rec.total("index.build").map(|t| t.0));
        out.set("phonetics.g2p.ns_per_name", ns("phonetics.g2p"));
        out.set("phonetics.distance.ns_per_pair", ns("phonetics.distance"));
        out.set("mural.lexequal.ns_per_row", ns("mural.lexequal"));
        let s = &self.stages;
        out.set("datagen.generate_s", Some(s.generate_s));
        out.set(
            "engine.load.rows_per_s",
            ratio(s.rows_loaded as f64, s.load_s),
        );
        out.set("catalog.analyze_s", Some(s.analyze_s));
    }

    /// Ω and join metrics (a `fig7_join` fixture).
    pub fn join(&self, out: &mut LayerValues) {
        let (c, rec) = (&self.counters_a, &self.rec);
        out.set(
            "exec.join.pairs_per_s",
            rec.count_sum("exec.join.pairs")
                .zip(rec.count_sum("exec.join.exec_s"))
                .and_then(|(pairs, secs)| ratio(pairs, secs)),
        );
        out.set(
            "mural.semequal.ns_per_row",
            rec.unit_cost("mural.semequal").map(|s| s * 1e9),
        );
        out.set(
            "taxonomy.intervals.ns_per_probe",
            rec.unit_cost("taxonomy.intervals").map(|s| s * 1e9),
        );
        out.set(
            "taxonomy.closure.fallback_ratio",
            ratio(
                c.omega_fallbacks as f64,
                (c.omega_hits + c.omega_fallbacks) as f64,
            ),
        );
        out.set(
            "taxonomy.intervals.build_ms",
            rec.total("taxonomy.intervals.build").map(|t| t.0 * 1e3),
        );
    }

    /// WAL, transaction and checkpoint metrics (a `lexicon_edit`
    /// fixture); `d` is what the fixture measured beyond the passes.
    pub fn durable(&self, out: &mut LayerValues, d: &lexicon::DurableStats) {
        let (c, rec, t) = (&self.counters_a, &self.rec, &self.tallies_a);
        let txns = t.txns as f64;
        out.set("storage.wal.bytes_per_txn", ratio(c.wal_bytes as f64, txns));
        out.set(
            "storage.wal.append_us",
            rec.unit_cost("storage.wal.append").map(|s| s * 1e6),
        );
        out.set(
            "storage.wal.commit_us",
            rec.unit_cost("storage.wal.commit").map(|s| s * 1e6),
        );
        // In `flush` mode every appended record is one write to the OS;
        // fsyncs (checkpoints only) are counted with them.
        out.set(
            "storage.wal.flushes_per_txn",
            ratio((c.wal_records + c.wal_fsyncs) as f64, txns),
        );
        let disk = c.wal_bytes as f64
            + (self.io_a.physical_writes * PAGE_SIZE as u64) as f64
            + t.checkpoint_bytes as f64;
        out.set(
            "storage.disk_bytes_per_user_byte",
            ratio(disk, t.user_bytes as f64),
        );
        out.set(
            "txn.begin_commit_us",
            rec.unit_cost("txn.begin_commit").map(|s| s * 1e6),
        );
        out.set("txn.conflict_ratio", ratio(c.conflicts as f64, txns));
        out.set("txn.scaling_2_sessions", d.scaling_2_sessions);
        out.set("snapshot.checkpoint_ms", d.checkpoint_mean_ms);
        out.set(
            "snapshot.checkpoint.bytes_written",
            d.checkpoint_last_bytes.map(|b| b as f64),
        );
        out.set("snapshot.checkpoint.stall_ms", d.checkpoint_max_ms);
        out.set("snapshot.reopen_ms", d.reopen_ms);
    }
}

/// Rounds of pass A and pass B for a timed phase of `timed_rounds`: the
/// traced pass B replays a tenth of it (rounded up), pass A is twice
/// that, half with observability on and half off.  The counts depend only
/// on the arguments, so they repeat exactly.
fn pass_rounds(timed_rounds: u64) -> (u64, u64) {
    let b = timed_rounds.div_ceil(10);
    (2 * b, b)
}

/// Passes of a miniature that only fills in one metric family.
const FILL_IN_ROUNDS: (u64, u64) = (2, 1);

/// What one traced run produced.
#[derive(Default)]
struct Collected {
    values: LayerValues,
    /// Metric name -> the miniature it was measured on, for the metrics
    /// that did not come from this run's own workload.
    fill_ins: Vec<(&'static str, &'static str)>,
    failures: Vec<String>,
    attempted: usize,
    spans: Vec<Json>,
    shares: Vec<Reading>,
}

impl Collected {
    /// The workload's own passes: generic metrics, spans, shares.
    fn own(&mut self, p: &Passes, fails: Vec<String>) {
        p.generic(&mut self.values);
        self.attempted += p.log.len();
        self.failures.extend(fails);
        self.spans = p.rec.to_json();
        let execute = p.rec.total("session.execute").map_or(0.0, |t| t.0);
        let mut attributed = 0.0;
        for (layer, secs) in p.rec.self_seconds() {
            if layer == "session.execute" {
                continue;
            }
            attributed += secs;
            if let Some(share) = ratio(secs, execute) {
                self.shares
                    .push(reading(&format!("share.{layer}"), share, "ratio"));
            }
        }
        self.values.set(
            "unattributed_share",
            ratio(attributed, execute).map(|a| 1.0 - a),
        );
    }

    /// One metric family measured on a miniature of `from`.
    fn fill_in(&mut self, from: &'static str, family: LayerValues, p: &Passes, fails: Vec<String>) {
        self.fill_ins
            .extend(family.0.keys().map(|name| (*name, from)));
        self.values.0.extend(family.0);
        self.attempted += p.log.len();
        self.failures
            .extend(fails.into_iter().map(|f| format!("[miniature {from}] {f}")));
    }
}

fn trace_psi(
    kind: psi::Kind,
    seed: u64,
    scale: Scale,
    rounds: (u64, u64),
) -> mlql_kernel::Result<(Passes, Vec<String>)> {
    let mut w = psi::Psi::build(kind, seed, scale)?;
    let mut p = run_passes(&mut w, rounds.0, rounds.1);
    w.probe(&mut p.rec)?;
    let fails = w.verify(&p.log);
    Ok((p, fails))
}

/// Passes on a `fig7_join` fixture and its Ω/join metric family.
fn trace_fig7(
    seed: u64,
    scale: Scale,
    rounds: (u64, u64),
) -> mlql_kernel::Result<(Passes, Vec<String>, LayerValues)> {
    let mut w = fig7::Fig7::build(seed, scale)?;
    let mut p = run_passes(&mut w, rounds.0, rounds.1);
    w.probe(&mut p.rec)?;
    let fails = w.verify(&p.log);
    let mut family = LayerValues::default();
    p.join(&mut family);
    Ok((p, fails, family))
}

/// Passes on a `lexicon_edit` fixture and its WAL/transaction/checkpoint
/// metric family.
fn trace_lexicon(
    seed: u64,
    scale: Scale,
    scratch: &Path,
    rounds: (u64, u64),
) -> mlql_kernel::Result<(Passes, Vec<String>, LayerValues)> {
    // Two clients exist; the passes drive one.
    let mut w = lexicon::Lexicon::build(seed, scale, scratch, 2)?;
    w.active = 1;
    let mut p = run_passes(&mut w, rounds.0, rounds.1);
    w.probe(&mut p.rec)?;
    let scaling = w.scaling_pass(&mut p, rounds.0.div_ceil(2));
    let fails = w.verify(&p.log);
    let mut family = LayerValues::default();
    p.durable(&mut family, &w.durable_stats(scaling));
    Ok((p, fails, family))
}

/// Run the traced passes on `workload` at `scale`, then the two
/// miniatures for the metric families it cannot reach.  One fixture at a
/// time: run, take its metrics, verify, drop.
fn collect(
    workload: &str,
    scale: Scale,
    seed: u64,
    scratch: &Path,
    rounds: (u64, u64),
) -> mlql_kernel::Result<Collected> {
    let mut out = Collected::default();
    match workload {
        "psi_scan" | "psi_probe" => {
            let (p, fails) = trace_psi(psi::Kind::of(workload), seed, scale, rounds)?;
            out.own(&p, fails);
        }
        "fig7_join" => {
            let (p, fails, family) = trace_fig7(seed, scale, rounds)?;
            out.own(&p, fails);
            out.values.0.extend(family.0);
        }
        "lexicon_edit" => {
            let (p, fails, family) = trace_lexicon(seed, scale, scratch, rounds)?;
            out.own(&p, fails);
            out.values.0.extend(family.0);
        }
        other => unreachable!("workload {other:?} passed validation"),
    }
    if workload != "fig7_join" {
        let (p, fails, family) = trace_fig7(seed, Scale::Mini, FILL_IN_ROUNDS)?;
        out.fill_in("fig7_join", family, &p, fails);
    }
    if workload != "lexicon_edit" {
        let (p, fails, family) = trace_lexicon(seed, Scale::Mini, scratch, FILL_IN_ROUNDS)?;
        out.fill_in("lexicon_edit", family, &p, fails);
    }
    Ok(out)
}

pub fn run_traced(args: &Args, scratch: &Path) -> mlql_kernel::Result<Outcome> {
    let timed_rounds = manifest::SEGMENTS * args.workload.segment_rounds_for(args.seconds);
    let (rounds_a, rounds_b) = pass_rounds(timed_rounds);
    let Collected {
        values,
        fill_ins,
        mut failures,
        attempted,
        spans,
        shares,
    } = collect(
        args.workload.name,
        Scale::Full,
        args.seed,
        scratch,
        (rounds_a, rounds_b),
    )?;

    let mut metrics = Vec::with_capacity(manifest::PER_LAYER.len());
    for def in &manifest::PER_LAYER {
        match values.0.get(def.name) {
            Some(v) => metrics.push(reading(def.name, *v, def.unit)),
            None => failures.push(format!("per-layer metric {} was not measured", def.name)),
        }
    }

    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(
        args.out_dir
            .join(format!("trace-{}.json", args.workload.name)),
        Json::obj(vec![
            ("workload", Json::str(args.workload.name)),
            ("seed", Json::Int(args.seed as i64)),
            ("spans", Json::Arr(spans)),
        ])
        .render(),
    )?;

    let detail = vec![
        (
            "fill_ins".to_string(),
            Json::Obj(
                fill_ins
                    .iter()
                    .map(|(name, from)| (name.to_string(), Json::str(format!("miniature {from}"))))
                    .collect(),
            ),
        ),
        (
            "passes".to_string(),
            Json::obj(vec![
                ("rounds_a", Json::Int(rounds_a as i64)),
                ("rounds_b", Json::Int(rounds_b as i64)),
            ]),
        ),
    ];
    let mut notes = Vec::new();
    for from in ["fig7_join", "lexicon_edit"] {
        let names: Vec<&str> = fill_ins
            .iter()
            .filter(|(_, f)| *f == from)
            .map(|(name, _)| *name)
            .collect();
        if !names.is_empty() {
            notes.push(format!(
                "not reached by {}; fill-ins from a miniature {from}: {}",
                args.workload.name,
                names.join(" ")
            ));
        }
    }
    Ok(Outcome {
        metrics,
        extras: shares,
        notes,
        attempted,
        failures,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_logical_children_and_skips_the_probe_sweep() {
        let mut rec = Recorder::new();
        let busy = || {
            let t = Instant::now();
            while t.elapsed().as_millis() < 2 {
                std::hint::black_box(0);
            }
        };
        let ((), parent) = rec.span_id("mural.lexequal", None, 0, || (busy(), 10));
        rec.span("phonetics.distance", Some(parent), 0, || ((), 10));
        rec.span("storage.decode", None, NO_OP, || ((), 5));
        let secs = |i: usize| (rec.spans[i].end_ns - rec.spans[i].start_ns) as f64 * 1e-9;
        let own = rec.self_seconds();
        assert!((own["mural.lexequal"] - (secs(0) - secs(1))).abs() < 1e-12);
        assert!((own["phonetics.distance"] - secs(1)).abs() < 1e-12);
        assert!(
            !own.contains_key("storage.decode"),
            "probe spans carry no op"
        );
        assert_eq!(
            rec.total("storage.decode").map(|t| (t.1, t.2)),
            Some((5, 1))
        );
    }

    /// Every workload family at miniature scale: all 43 per-layer metrics
    /// get a value, whichever workload runs, the fill-ins are exactly the
    /// families the workload cannot reach, and no op fails.
    #[test]
    fn every_per_layer_metric_is_measured() {
        let scratch = std::env::temp_dir().join(format!("mlql-trace-test-{}", std::process::id()));
        for (workload, fill_in_sources) in [
            ("psi_scan", vec!["fig7_join", "lexicon_edit"]),
            ("fig7_join", vec!["lexicon_edit"]),
            ("lexicon_edit", vec!["fig7_join"]),
        ] {
            let c = collect(workload, Scale::Mini, 11, &scratch, (2, 1)).unwrap();
            assert_eq!(c.failures, Vec::<String>::new(), "{workload}");
            for def in &manifest::PER_LAYER {
                let v = c
                    .values
                    .0
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{workload}: {} not measured", def.name));
                assert!(v.is_finite(), "{workload}: {} = {v}", def.name);
            }
            let mut sources: Vec<&str> = c.fill_ins.iter().map(|(_, from)| *from).collect();
            sources.dedup();
            assert_eq!(sources, fill_in_sources, "{workload}");
            assert!(c.fill_ins.iter().all(|(name, _)| !name.starts_with("sql.")));
            assert!(c.spans.len() > 100);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn traced_pass_is_a_tenth_of_the_timed_phase() {
        assert_eq!(pass_rounds(35), (8, 4));
        assert_eq!(pass_rounds(20), (4, 2));
        assert_eq!(pass_rounds(15), (4, 2));
    }
}
