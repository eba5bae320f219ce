//! The benchmark's metrics: end-to-end (from the untraced passes) and
//! per-layer (from the engine's public state, the traced pass, the
//! cold-generator replay and the benchmark's spans).

use crate::replay::StageCost;
use crate::run::{call, Pass, Program, Record};
use crate::spans::Spans;
use crate::workload::Kind;
use btgeneric::stats::{DispatchHist, Stats, TimeDistribution};
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric value: an exact count or a measured real.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An exact count (simulated cycles, events, blocks).
    Count(u64),
    /// A measured or derived real number.
    Real(f64),
}

impl Value {
    /// The value as JSON: integers exactly, reals with every digit
    /// (Rust's shortest round-trip form); non-finite reals as 0.
    pub fn json(self) -> String {
        match self {
            Value::Count(c) => c.to_string(),
            Value::Real(r) if r.is_finite() => format!("{r:?}"),
            Value::Real(_) => "0".to_string(),
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Count(c) => c as f64,
            Value::Real(r) => r,
        }
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The layer (crate module) it measures; `system` for end-to-end.
    pub layer: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
    /// The value.
    pub value: Value,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    layer: &'static str,
    better: Better,
    moves: &'static str,
    value: Value,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        layer,
        better,
        moves,
        value,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `v`: the value at rank `ceil(p/100 * n)`.
/// For 500 sessions p98 is rank 490, the highest rank with ten sessions
/// beyond it.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

fn records(p: &Pass) -> impl Iterator<Item = &Record> {
    p.records.iter().flatten()
}

/// Simulated totals of one pass.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Native slots.
    pub slots: u64,
    /// IA-32 instructions the oracle retired, over the same runs.
    pub ia32_insts: u64,
    /// Region split.
    pub dist: TimeDistribution,
    /// Summed statistics (only the counters the metrics read).
    pub stats: Stats,
    /// Merged dispatch-latency histogram.
    pub hist: DispatchHist,
}

/// Sums a pass's simulated counters.
pub fn totals(progs: &[Program], p: &Pass) -> Totals {
    let mut t = Totals::default();
    for r in records(p) {
        t.cycles += r.cycles;
        t.slots += r.slots;
        t.ia32_insts += progs[r.program].ia32_insts;
        let (d, s) = (&r.dist, &r.stats);
        t.dist.hot += d.hot;
        t.dist.cold += d.cold;
        t.dist.overhead += d.overhead;
        t.dist.other += d.other;
        t.hist.merge(&s.dispatch_hist);
        let a = &mut t.stats;
        a.cold_blocks += s.cold_blocks;
        a.cold_ia32_insts += s.cold_ia32_insts;
        a.cold_native_insts += s.cold_native_insts;
        a.hot_traces += s.hot_traces;
        a.hot_ia32_insts += s.hot_ia32_insts;
        a.hot_native_insts += s.hot_native_insts;
        a.hot_commit_points += s.hot_commit_points;
        a.hot_side_exits += s.hot_side_exits;
        a.deopts += s.deopts;
        a.dispatch_fast_hits += s.dispatch_fast_hits;
        a.ic_hits += s.ic_hits;
        a.ic_misses += s.ic_misses;
        a.shadow_hits += s.shadow_hits;
        a.shadow_underflows += s.shadow_underflows;
        a.shadow_mispredicts += s.shadow_mispredicts;
        a.indirect_misses += s.indirect_misses;
        a.misalign_faults += s.misalign_faults;
        a.misalign_retrains += s.misalign_retrains;
        a.tos_fixes += s.tos_fixes;
        a.tag_fixes += s.tag_fixes;
        a.mmx_fixes += s.mmx_fixes;
        a.xmm_fixes += s.xmm_fixes;
        a.syscalls += s.syscalls;
        a.interp_steps += s.interp_steps;
        a.ladder_recoveries += s.ladder_recoveries;
        a.demotions += s.demotions;
        a.shared_installs += s.shared_installs;
        a.shared_publishes += s.shared_publishes;
        a.shared_gen_rejects += s.shared_gen_rejects;
        a.shared_stale_rejects += s.shared_stale_rejects;
        a.shared_lock_contention += s.shared_lock_contention;
    }
    t
}

/// Per-program EL cycles and native cycles over a pass, keyed by
/// program index (a fleet cohort sums its sessions).
fn cohorts(progs: &[Program], p: &Pass) -> BTreeMap<usize, (u64, u64)> {
    let mut m = BTreeMap::new();
    for r in records(p) {
        let e = m.entry(r.program).or_insert((0, 0));
        e.0 += r.cycles;
        e.1 += progs[r.program].native_cycles;
    }
    m
}

/// `native / EL × 100` per program, the Figure-5 score.
pub fn native_pct(el: u64, native: u64) -> f64 {
    ratio(native as f64 * 100.0, el as f64)
}

/// Geometric mean of the per-program Figure-5 scores of a pass.
pub fn geomean_native_pct(progs: &[Program], p: &Pass) -> f64 {
    let c = cohorts(progs, p);
    let logs: Vec<f64> = c.values().map(|&(el, n)| native_pct(el, n).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Per-kernel `(EL cycles, native cycles)` of a pass, keyed by name
/// (fleet's two `eon` cohorts merge).
pub fn by_name(progs: &[Program], p: &Pass) -> BTreeMap<&'static str, (u64, u64)> {
    let mut m = BTreeMap::new();
    for (i, (el, n)) in cohorts(progs, p) {
        let e = m.entry(progs[i].w.name).or_insert((0, 0));
        e.0 += el;
        e.1 += n;
    }
    m
}

/// The end-to-end metrics, every one on every workload. Simulated
/// metrics come from the first pass (every pass must repeat it
/// exactly); host times are medians over the passes, in reference
/// seconds (see [`crate::calib`]).
pub fn end_to_end(progs: &[Program], passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    use Better::*;
    let first = &passes[0];
    let t = totals(progs, first);
    let sessions: Vec<u64> = records(first).map(|r| r.cycles).collect();
    let host: Vec<f64> = passes.iter().map(Pass::host_ref_s).collect();
    let setup: Vec<f64> = passes.iter().map(Pass::setup_ref_s).collect();
    let e2e = |name, unit, better, value| metric(name, unit, "system", better, "", value);
    vec![
        e2e(
            "native_pct",
            "%",
            Higher,
            Value::Real(geomean_native_pct(progs, first)),
        ),
        e2e("sim_cycles", "cycles", Lower, Value::Count(t.cycles)),
        e2e(
            "session_p50_cycles",
            "cycles",
            Lower,
            Value::Count(percentile(&sessions, 50.0)),
        ),
        e2e(
            "session_p98_cycles",
            "cycles",
            Lower,
            Value::Count(percentile(&sessions, 98.0)),
        ),
        e2e("host_s", "s", Lower, Value::Real(median(&host))),
        e2e("setup_s", "s", Lower, Value::Real(median(&setup))),
        e2e("peak_rss_mb", "MB", Lower, Value::Real(peak_rss_mb)),
    ]
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The workload's programs and reference results.
    pub progs: &'a [Program],
    /// The untraced passes.
    pub passes: &'a [Pass],
    /// The traced pass.
    pub traced: &'a Pass,
    /// Cold-stage host cost from the replay.
    pub replay: StageCost,
    /// Native cycles simulated and host seconds spent in
    /// `run_native`.
    pub native: (u64, f64),
    /// The span recorder.
    pub spans: &'a Spans,
}

/// Names of the 21 programs of `spec_int` and `mixed`, the per-kernel
/// rows.
pub fn kernel_names() -> Vec<&'static str> {
    [Kind::SpecInt, Kind::Mixed]
        .into_iter()
        .flat_map(|k| k.programs().into_iter().map(|(w, _)| w.name))
        .collect()
}

/// The per-layer metrics, every one on every workload (0 where the
/// workload does not exercise the layer). Host times are raw host
/// time, except the tracing overhead, which compares passes run at
/// different moments and so uses reference seconds.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    use Better::*;
    use Value::{Count, Real};
    let first = &x.passes[0];
    let t = totals(x.progs, first);
    let s = &t.stats;
    let tr = x.traced.trace();
    let traced_cycles = totals(x.progs, x.traced).cycles;
    let host = median(&x.passes.iter().map(|p| p.host_s).collect::<Vec<_>>());
    let host_ref = median(&x.passes.iter().map(Pass::host_ref_s).collect::<Vec<_>>());
    let span_mean_ms = |name: &str| {
        let (sum, n) = x.passes.iter().fold((0.0, 0), |(sum, n), p| {
            (
                sum + x.spans.total(p.run, name),
                n + x.spans.count(p.run, name),
            )
        });
        ratio(sum * 1e3, n as f64)
    };
    let launches = s.cold_blocks + s.shared_installs;
    let mut m = vec![
        // ipf: the simulated Itanium.
        metric(
            "ipf.slots",
            "slots",
            "ipf",
            Lower,
            "native_pct on spec_int",
            Count(t.slots),
        ),
        metric(
            "ipf.slots_per_ia32_inst",
            "slots/inst",
            "ipf",
            Lower,
            "native_pct on spec_int",
            Real(ratio(t.slots as f64, t.ia32_insts as f64)),
        ),
        metric(
            "ipf.cycles_per_slot",
            "cycles/slot",
            "ipf",
            Lower,
            "native_pct on spec_int",
            Real(ratio(t.cycles as f64, t.slots as f64)),
        ),
        metric(
            "ipf.native_mcycles_per_s",
            "Mcycles/s",
            "ipf",
            Higher,
            "host_s on spec_int, mixed",
            Real(ratio(x.native.0 as f64 * 1e-6, x.native.1)),
        ),
        metric(
            "ipf.el_mslots_per_s",
            "Mslots/s",
            "ipf",
            Higher,
            "host_s on spec_int, mixed",
            Real(ratio(t.slots as f64 * 1e-6, host)),
        ),
        // engine: dispatch, indirect branches, fix-ups, recovery.
        metric(
            "engine.cycles.hot",
            "cycles",
            "engine",
            Lower,
            "sim_cycles on spec_int, mixed",
            Count(t.dist.hot),
        ),
        metric(
            "engine.cycles.cold",
            "cycles",
            "engine",
            Lower,
            "sim_cycles on fleet",
            Count(t.dist.cold),
        ),
        metric(
            "engine.cycles.overhead",
            "cycles",
            "engine",
            Lower,
            "sim_cycles on fleet",
            Count(t.dist.overhead),
        ),
        metric(
            "engine.cycles.other",
            "cycles",
            "engine",
            Lower,
            "sim_cycles on all",
            Count(t.dist.other),
        ),
        metric(
            "engine.dispatches",
            "count",
            "engine",
            Lower,
            "session_* on fleet",
            Count(t.hist.count()),
        ),
        metric(
            "engine.dispatch_fast_frac",
            "ratio",
            "engine",
            Higher,
            "session_* on fleet",
            Real(ratio(s.dispatch_fast_hits as f64, t.hist.count() as f64)),
        ),
        metric(
            "engine.dispatch_p99_cycles",
            "cycles",
            "engine",
            Lower,
            "session_* on fleet",
            Count(t.hist.percentile(99.0)),
        ),
        metric(
            "engine.ic_hit_frac",
            "ratio",
            "engine",
            Higher,
            "sim_cycles on mixed (vcall_mono), spec_int (eon)",
            Real(ratio(s.ic_hits as f64, (s.ic_hits + s.ic_misses) as f64)),
        ),
        metric(
            "engine.shadow_hit_frac",
            "ratio",
            "engine",
            Higher,
            "sim_cycles on mixed (callret)",
            Real(ratio(
                s.shadow_hits as f64,
                (s.shadow_hits + s.shadow_underflows + s.shadow_mispredicts) as f64,
            )),
        ),
        metric(
            "engine.indirect_misses",
            "count",
            "engine",
            Lower,
            "sim_cycles on mixed, spec_int (eon)",
            Count(s.indirect_misses),
        ),
        metric(
            "engine.misalign_faults",
            "count",
            "engine",
            Lower,
            "sim_cycles on mixed",
            Count(s.misalign_faults),
        ),
        metric(
            "engine.misalign_retrains",
            "count",
            "engine",
            Lower,
            "sim_cycles on mixed",
            Count(s.misalign_retrains),
        ),
        metric(
            "engine.spec_fixes",
            "count",
            "engine",
            Lower,
            "sim_cycles on mixed",
            Count(s.tos_fixes + s.tag_fixes + s.mmx_fixes + s.xmm_fixes),
        ),
        metric(
            "engine.syscalls",
            "count",
            "engine",
            Lower,
            "sim_cycles on mixed",
            Count(s.syscalls),
        ),
        metric(
            "engine.interp_steps",
            "count",
            "engine",
            Lower,
            "fail_frac, sim_cycles on all",
            Count(s.interp_steps),
        ),
        metric(
            "engine.recoveries",
            "count",
            "engine",
            Lower,
            "fail_frac, sim_cycles on all",
            Count(s.ladder_recoveries + s.demotions),
        ),
        // cold: the template translator.
        metric(
            "cold.blocks",
            "count",
            "cold",
            Lower,
            "sim_cycles on fleet",
            Count(s.cold_blocks),
        ),
        metric(
            "cold.insts_per_block",
            "inst/block",
            "cold",
            Higher,
            "sim_cycles on fleet",
            Real(ratio(s.cold_ia32_insts as f64, s.cold_blocks as f64)),
        ),
        metric(
            "cold.expansion",
            "slots/inst",
            "cold",
            Lower,
            "sim_cycles on fleet",
            Real(ratio(s.cold_native_insts as f64, s.cold_ia32_insts as f64)),
        ),
        metric(
            "cold.translate_cycles",
            "cycles",
            "cold",
            Lower,
            "sim_cycles on fleet",
            Count(tr.cold_translate_cycles),
        ),
        metric(
            "cold.decode_us_per_block",
            "us",
            "cold",
            Lower,
            "host_s on fleet",
            Real(x.replay.decode_us),
        ),
        metric(
            "cold.discover_us_per_block",
            "us",
            "cold",
            Lower,
            "host_s on fleet",
            Real(x.replay.discover_us),
        ),
        metric(
            "cold.liveness_us_per_block",
            "us",
            "cold",
            Lower,
            "host_s on fleet",
            Real(x.replay.liveness_us),
        ),
        metric(
            "cold.gen_us_per_block",
            "us",
            "cold",
            Lower,
            "host_s on fleet",
            Real(x.replay.gen_us),
        ),
        // hot: the trace optimiser.
        metric(
            "hot.traces",
            "count",
            "hot",
            Lower,
            "native_pct on spec_int",
            Count(s.hot_traces),
        ),
        metric(
            "hot.insts_per_trace",
            "inst/trace",
            "hot",
            Higher,
            "native_pct on spec_int",
            Real(ratio(s.hot_ia32_insts as f64, s.hot_traces as f64)),
        ),
        metric(
            "hot.expansion",
            "slots/inst",
            "hot",
            Lower,
            "native_pct on spec_int",
            Real(ratio(s.hot_native_insts as f64, s.hot_ia32_insts as f64)),
        ),
        metric(
            "hot.native_insts_per_commit",
            "slots/commit",
            "hot",
            Higher,
            "native_pct on spec_int",
            Real(ratio(s.hot_native_insts as f64, s.hot_commit_points as f64)),
        ),
        metric(
            "hot.side_exits",
            "count",
            "hot",
            Lower,
            "native_pct on spec_int",
            Count(s.hot_side_exits),
        ),
        metric(
            "hot.deopts",
            "count",
            "hot",
            Lower,
            "native_pct on spec_int",
            Count(s.deopts),
        ),
        metric(
            "hot.session_cycles",
            "cycles",
            "hot",
            Lower,
            "sim_cycles on spec_int (gcc)",
            Count(tr.hot_session_cycles),
        ),
        // serving: the shared translation cache.
        metric(
            "serving.installs",
            "count",
            "serving",
            Higher,
            "sim_cycles, session_* on fleet",
            Count(s.shared_installs),
        ),
        metric(
            "serving.publishes",
            "count",
            "serving",
            Lower,
            "sim_cycles, session_* on fleet",
            Count(s.shared_publishes),
        ),
        metric(
            "serving.import_frac",
            "ratio",
            "serving",
            Higher,
            "sim_cycles, session_* on fleet",
            Real(ratio(s.shared_installs as f64, launches as f64)),
        ),
        metric(
            "serving.gen_rejects",
            "count",
            "serving",
            Lower,
            "sim_cycles on fleet",
            Count(s.shared_gen_rejects),
        ),
        metric(
            "serving.stale_rejects",
            "count",
            "serving",
            Lower,
            "sim_cycles on fleet",
            Count(s.shared_stale_rejects),
        ),
        metric(
            "serving.lock_contention",
            "count",
            "serving",
            Lower,
            "host_s on fleet",
            Count(s.shared_lock_contention),
        ),
        // btlib: process launch and the fleet scheduler.
        metric(
            "btlib.launch_ms",
            "ms",
            "btlib",
            Lower,
            "setup_s on fleet",
            Real(span_mean_ms(call::LAUNCH)),
        ),
        metric(
            "btlib.tick_ms",
            "ms",
            "btlib",
            Lower,
            "host_s on fleet",
            Real(span_mean_ms(call::TICK)),
        ),
        metric(
            "btlib.rounds",
            "count",
            "btlib",
            Lower,
            "host_s on fleet",
            Count(first.rounds),
        ),
        metric(
            "btlib.slices",
            "count",
            "btlib",
            Lower,
            "host_s on fleet",
            Count(first.slices),
        ),
        // trace: the cost of the traced pass itself.
        metric(
            "trace.sim_overhead_pct",
            "%",
            "trace",
            Lower,
            "(traced pass only)",
            Real(ratio(
                (traced_cycles as f64 - t.cycles as f64) * 100.0,
                t.cycles as f64,
            )),
        ),
        metric(
            "trace.host_overhead_pct",
            "%",
            "trace",
            Lower,
            "(traced pass only)",
            Real(ratio((x.traced.host_ref_s() - host_ref) * 100.0, host_ref)),
        ),
        metric(
            "trace.events",
            "count",
            "trace",
            Lower,
            "(traced pass only)",
            Count(tr.events),
        ),
        metric(
            "trace.dropped",
            "count",
            "trace",
            Lower,
            "(traced pass only)",
            Count(tr.dropped),
        ),
    ];
    let rows = by_name(x.progs, first);
    for name in kernel_names() {
        let (el, native) = rows.get(name).copied().unwrap_or((0, 0));
        m.push(metric(
            format!("kernel.{name}.sim_cycles"),
            "cycles",
            "kernel",
            Lower,
            "sim_cycles on its workload",
            Count(el),
        ));
        m.push(metric(
            format!("kernel.{name}.native_pct"),
            "%",
            "kernel",
            Higher,
            "native_pct on its workload",
            Real(native_pct(el, native)),
        ));
    }
    m
}
