//! Reference set-up and timed passes over a workload's programs.
//!
//! A pass runs every program (or, for `fleet`, every session) once and
//! checks each guest result against the interpreter oracle. Host times
//! come from the spans around the calls into `btlib` and `btgeneric`;
//! simulated counters come from the engine's public state after each
//! run.

use crate::calib::{self, PROBE_REF_S};
use crate::spans::{SpanId, Spans};
use crate::workload::{Kind, FLEET_MAX_LIVE, FLEET_QUANTUM};
use btgeneric::engine::{Config, Outcome};
use btgeneric::serving::{namespace_key, SharedCache, DEFAULT_SHARDS};
use btgeneric::stats::{Stats, TimeDistribution};
use btgeneric::trace::{EventData, Phase, TraceConfig};
use btlib::serve::Scheduler;
use btlib::{Process, SimOs};
use ia32::asm::Image;
use workloads::harness::{build_image, run_ia32_hw, run_native};
use workloads::{Workload, RESULT};

/// Span names: the public functions the benchmark calls.
pub mod call {
    /// `btlib::Process::launch_with`.
    pub const LAUNCH: &str = "btlib::Process::launch_with";
    /// `btlib::Process::run`.
    pub const RUN: &str = "btlib::Process::run";
    /// `btgeneric::serving::SharedCache::tenant` +
    /// `btgeneric::engine::Engine::attach_shared`.
    pub const ATTACH: &str = "btgeneric::engine::Engine::attach_shared";
    /// `btgeneric::serving::SharedCache::new`.
    pub const SHARED_NEW: &str = "btgeneric::serving::SharedCache::new";
    /// `btlib::serve::Scheduler::tick`.
    pub const TICK: &str = "btlib::serve::Scheduler::tick";
    /// `workloads::harness::run_native`.
    pub const NATIVE: &str = "workloads::harness::run_native";
    /// `workloads::harness::run_ia32_hw` (the oracle).
    pub const ORACLE: &str = "workloads::harness::run_ia32_hw";
    /// `bench::run_sim_oracle` (the oracle of `uses_os` kernels).
    pub const SIM_ORACLE: &str = "bench::run_sim_oracle";
    /// One pass over the workload.
    pub const PASS: &str = "pass";
    /// The benchmark's host-speed calibration probe.
    pub const PROBE: &str = "perfbench::calib::probe";
    /// The reference set-up (images, oracles, native runs).
    pub const REFERENCE: &str = "reference";
}

/// A guest program with its reference results.
pub struct Program {
    /// The workload kernel.
    pub w: Workload,
    /// The scale it runs at.
    pub scale: u32,
    /// The IA-32 image.
    pub img: Image,
    /// The oracle's final checksum.
    pub oracle: u64,
    /// IA-32 instructions the oracle retired (0 when the oracle is the
    /// `SimOs` interpreter loop, which does not count them).
    pub ia32_insts: u64,
    /// Simulated cycles of the native Itanium build.
    pub native_cycles: u64,
}

/// Builds every program's image and runs its oracle and native
/// reference (run 0 of the span recorder). None of this is timed into
/// an end-to-end metric.
pub fn prepare(kind: Kind, spans: &mut Spans) -> Vec<Program> {
    spans.set_run(0);
    let top = spans.open(call::REFERENCE, None);
    let cfg = kind.config();
    let progs = kind
        .programs()
        .into_iter()
        .map(|(w, scale)| {
            let img = build_image(&w, scale);
            let (oracle, ia32_insts) = if w.uses_os {
                let (r, _) = spans.time(call::SIM_ORACLE, Some(top), || {
                    bench::run_sim_oracle(&w, scale)
                });
                (r, 0)
            } else {
                let (r, _) = spans.time(call::ORACLE, Some(top), || {
                    run_ia32_hw(&w, scale, ia32::timing::Timing::default())
                });
                (r.result, r.instructions)
            };
            let (native, _) = spans.time(call::NATIVE, Some(top), || {
                run_native(&w, scale, cfg.timing)
            });
            Program {
                w,
                scale,
                img,
                oracle,
                ia32_insts,
                native_cycles: native.cycles,
            }
        })
        .collect();
    spans.close(top);
    progs
}

/// The simulated outcome of one program run or fleet session.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Index of the program in [`Kind::programs`].
    pub program: usize,
    /// The guest halted cleanly with the oracle's checksum.
    pub ok: bool,
    /// Simulated cycles from launch to halt.
    pub cycles: u64,
    /// Native slots executed.
    pub slots: u64,
    /// Cycle split by region.
    pub dist: TimeDistribution,
    /// Engine statistics (indirect and hot-exit counters harvested).
    pub stats: Stats,
    /// Tracer totals (all zero when tracing is off).
    pub trace: TraceTotals,
}

/// What one engine's tracer saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Events held in the ring.
    pub events: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Simulated cycles inside `ColdTranslate` spans.
    pub cold_translate_cycles: u64,
    /// Simulated cycles inside `HotSession` spans.
    pub hot_session_cycles: u64,
}

impl TraceTotals {
    fn add(&mut self, o: &TraceTotals) {
        self.events += o.events;
        self.dropped += o.dropped;
        self.cold_translate_cycles += o.cold_translate_cycles;
        self.hot_session_cycles += o.hot_session_cycles;
    }
}

/// One pass over a workload.
pub struct Pass {
    /// Span-recorder run id of the pass.
    pub run: u32,
    /// One record per position of the pass order (`None` when the
    /// launch itself failed).
    pub records: Vec<Option<Record>>,
    /// Host seconds in `Process::run` / `Scheduler::tick`.
    pub host_s: f64,
    /// Host seconds in `Process::launch_with`, `attach_shared` and
    /// `SharedCache::new`.
    pub setup_s: f64,
    /// Host seconds of each calibration probe, one before every timed
    /// run or tick call and one at the end.
    pub probes: Vec<f64>,
    /// Scheduler sweeps (fleet only).
    pub rounds: u64,
    /// Scheduler slices (fleet only).
    pub slices: u64,
    /// Processes kept for the cold-generator replay, with their
    /// program index.
    pub kept: Vec<(usize, Process<SimOs>)>,
}

impl Pass {
    fn probe(&mut self, spans: &mut Spans, top: SpanId) {
        let (t, _) = spans.time(call::PROBE, Some(top), calib::probe);
        self.probes.push(t);
    }

    /// How much slower the host ran during this pass than the
    /// calibration reference (mean probe time over [`PROBE_REF_S`]).
    pub fn slowdown(&self) -> f64 {
        let mean = self.probes.iter().sum::<f64>() / self.probes.len().max(1) as f64;
        if mean > 0.0 {
            mean / PROBE_REF_S
        } else {
            1.0
        }
    }

    /// [`Pass::host_s`] in reference seconds.
    pub fn host_ref_s(&self) -> f64 {
        self.host_s / self.slowdown()
    }

    /// [`Pass::setup_s`] in reference seconds.
    pub fn setup_ref_s(&self) -> f64 {
        self.setup_s / self.slowdown()
    }

    /// Runs that failed (no clean halt, wrong result, or no launch).
    pub fn failures(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.as_ref().is_some_and(|r| r.ok))
            .count()
    }

    /// Sum of the tracer totals over every run of the pass.
    pub fn trace(&self) -> TraceTotals {
        let mut t = TraceTotals::default();
        for r in self.records.iter().flatten() {
            t.add(&r.trace);
        }
        t
    }
}

/// The configuration of the traced pass: the engine tracer on, with a
/// ring large enough that no phase span of a full-scale kernel wraps.
pub fn traced(cfg: &Config) -> Config {
    Config {
        trace: TraceConfig {
            capacity: 1 << 20,
            ..TraceConfig::on()
        },
        ..cfg.clone()
    }
}

/// Runs one pass of `kind` in `order` under `cfg`, as span-recorder run
/// `run`. With `keep`, the finished processes are kept for the replay:
/// every one for the sequential workloads, the first of each kernel for
/// `fleet`.
pub fn pass(
    kind: Kind,
    progs: &[Program],
    order: &[usize],
    cfg: &Config,
    spans: &mut Spans,
    run: u32,
    keep: bool,
) -> Pass {
    spans.set_run(run);
    let top = spans.open(call::PASS, None);
    let mut p = Pass {
        run,
        records: vec![None; order.len()],
        host_s: 0.0,
        setup_s: 0.0,
        probes: Vec::new(),
        rounds: 0,
        slices: 0,
        kept: Vec::new(),
    };
    match kind {
        Kind::SpecInt | Kind::Mixed => sequential(progs, order, cfg, spans, top, keep, &mut p),
        Kind::Fleet => fleet(progs, order, cfg, spans, top, keep, &mut p),
    }
    p.probe(spans, top);
    spans.close(top);
    p
}

fn launch(
    prog: &Program,
    cfg: &Config,
    spans: &mut Spans,
    top: SpanId,
    setup_s: &mut f64,
) -> Option<Process<SimOs>> {
    let cfg = cfg.clone();
    let (launched, t) = spans.time(call::LAUNCH, Some(top), || {
        Process::launch_with(&prog.img, SimOs::new(), cfg)
    });
    *setup_s += t;
    launched.ok()
}

/// `spec_int` and `mixed`: each program launched and run to halt in
/// turn.
fn sequential(
    progs: &[Program],
    order: &[usize],
    cfg: &Config,
    spans: &mut Spans,
    top: SpanId,
    keep: bool,
    pass: &mut Pass,
) {
    for (pos, &i) in order.iter().enumerate() {
        pass.probe(spans, top);
        let Some(mut proc) = launch(&progs[i], cfg, spans, top, &mut pass.setup_s) else {
            continue;
        };
        let (out, t) = spans.time(call::RUN, Some(top), || proc.run(u64::MAX / 2));
        pass.host_s += t;
        pass.records[pos] = Some(finish(i, &progs[i], &mut proc, &out));
        if keep {
            pass.kept.push((i, proc));
        }
    }
}

/// `fleet`: a closed loop of at most [`FLEET_MAX_LIVE`] live sessions
/// time-sliced by the scheduler, each same-kernel cohort sharing one
/// namespace of a fresh shared cache.
fn fleet(
    progs: &[Program],
    order: &[usize],
    cfg: &Config,
    spans: &mut Spans,
    top: SpanId,
    keep: bool,
    pass: &mut Pass,
) {
    let (shared, t) = spans.time(call::SHARED_NEW, Some(top), || {
        SharedCache::new(DEFAULT_SHARDS)
    });
    pass.setup_s += t;
    let mut sched: Scheduler<SimOs> = Scheduler::new(FLEET_QUANTUM, FLEET_MAX_LIVE);
    let mut next = 0;
    loop {
        while next < order.len() && sched.live() + sched.waiting() < FLEET_MAX_LIVE {
            let k = order[next];
            if let Some(mut proc) = launch(&progs[k], cfg, spans, top, &mut pass.setup_s) {
                let key = namespace_key(cfg, k as u64 + 1);
                let ((), t) = spans.time(call::ATTACH, Some(top), || {
                    proc.engine.attach_shared(shared.tenant(key))
                });
                pass.setup_s += t;
                sched.admit(next as u64, proc, u64::MAX / 2);
            }
            next += 1;
        }
        pass.probe(spans, top);
        let (more, t) = spans.time(call::TICK, Some(top), || sched.tick());
        pass.host_s += t;
        for (tag, mut proc, out) in sched.take_completed() {
            let k = order[tag as usize];
            pass.records[tag as usize] = Some(finish(k, &progs[k], &mut proc, &out));
            if keep && !pass.kept.iter().any(|(i, _)| *i == k) {
                pass.kept.push((k, proc));
            }
        }
        if !more && next >= order.len() {
            break;
        }
    }
    pass.rounds = sched.rounds();
    pass.slices = sched.slices();
}

/// Reads a finished run's public state into a [`Record`].
fn finish(i: usize, prog: &Program, proc: &mut Process<SimOs>, out: &Outcome) -> Record {
    let e = &mut proc.engine;
    e.collect_hot_exit_stats();
    e.collect_indirect_stats();
    let result = e.mem.read(RESULT as u64, 8).unwrap_or(0);
    let mut trace = TraceTotals {
        events: e.tracer.recorded() as u64,
        dropped: e.tracer.dropped(),
        ..TraceTotals::default()
    };
    for ev in e.tracer.events() {
        if let EventData::PhaseExit { phase, cycles } = ev.data {
            match phase {
                Phase::ColdTranslate => trace.cold_translate_cycles += cycles,
                Phase::HotSession => trace.hot_session_cycles += cycles,
            }
        }
    }
    Record {
        program: i,
        ok: matches!(out, Outcome::Halted(_)) && result == prog.oracle,
        cycles: e.machine.cycles,
        slots: e.machine.inst_count,
        dist: TimeDistribution::from_region_cycles(&e.machine.region_cycles),
        stats: e.stats.clone(),
        trace,
    }
}

/// Marks every record of `later` whose simulated counters differ from
/// the same position of `first` as failed.
pub fn check_repeat(first: &Pass, later: &mut Pass) {
    for (a, b) in first.records.iter().zip(later.records.iter_mut()) {
        if let (Some(a), Some(b)) = (a, b.as_mut()) {
            if a != b {
                b.ok = false;
            }
        }
    }
}
