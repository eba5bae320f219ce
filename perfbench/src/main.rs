//! Runs one benchmark workload and prints its report, ending with a
//! one-line JSON result.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec_int|mixed|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing
//! off. `--trace 1` runs the same untraced passes, then one traced pass,
//! a cold-generator replay and a native-simulation timing, and reports
//! the per-layer metrics; its spans are written to
//! `perfbench/out/spans-<workload>-<seed>.json`. The exit code is 0 only
//! if every guest run halted with the oracle's result and repeated its
//! simulated counters exactly.

use perfbench::metrics::{self, LayerInputs};
use perfbench::run::{self, call, Pass, Program};
use perfbench::spans::Spans;
use perfbench::workload::{self, Kind};
use perfbench::{peak_rss_mb, replay, report, reset_peak_rss};
use std::time::Instant;
use workloads::harness::run_native;

const USAGE: &str =
    "usage: perfbench --workload spec_int|mixed|fleet [--seed N] [--seconds S] [--trace 0|1]";

/// Host seconds the replay and the native timing each run for at least.
const LAYER_TIMING_MIN_S: f64 = 0.3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("bad {flag} value: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or(format!("unknown workload: {val}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value: {val}")),
                }
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(bench(&args));
}

fn bench(args: &Args) -> i32 {
    let kind = args.kind;
    let mut spans = Spans::new();
    let progs = run::prepare(kind, &mut spans);
    let cfg = kind.config();
    let order = workload::order(kind, progs.len(), args.seed);

    // Timed passes: tracing off, until the time budget is spent.
    let rss_reset = reset_peak_rss();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let run = passes.len() as u32 + 1;
        let mut p = run::pass(kind, &progs, &order, &cfg, &mut spans, run, false);
        if let Some(first) = passes.first() {
            run::check_repeat(first, &mut p);
        }
        attempted += p.records.len();
        failed += p.failures();
        // Only the first pass's records are read later; dropping the
        // rest keeps the peak RSS independent of the number of passes.
        if !passes.is_empty() {
            p.records = Vec::new();
        }
        passes.push(p);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    println!(
        "perfbench: workload {} seed {}: {} passes in {measured_s:.1} s",
        kind.name(),
        args.seed,
        passes.len(),
    );
    for p in &passes {
        println!(
            "  pass {:>2}: host {:.3} s raw, host slowdown {:.3} (calibration probe), \
             {:.3} reference s; setup {:.4} s raw",
            p.run,
            p.host_s,
            p.slowdown(),
            p.host_ref_s(),
            p.setup_s
        );
    }
    if !rss_reset {
        println!("perfbench: peak RSS could not be reset; it includes the reference runs");
    }
    let e2e = metrics::end_to_end(&progs, &passes, peak);
    report::print_table("end-to-end metrics (tracing off)", &e2e, false);
    report::print_paper(kind, &progs, &passes[0]);

    let metrics = if args.trace {
        let run = passes.len() as u32 + 1;
        let traced = run::pass(
            kind,
            &progs,
            &order,
            &run::traced(&cfg),
            &mut spans,
            run,
            true,
        );
        attempted += traced.records.len();
        failed += traced.failures();
        let engines: Vec<_> = traced
            .kept
            .iter()
            .map(|(_, p)| (&p.engine.mem, p.engine.blocks(), &p.engine.cfg))
            .collect();
        let cost = replay::replay(&engines, &mut spans, run + 1, LAYER_TIMING_MIN_S);
        let native = time_native(&progs, &cfg, &mut spans, run + 2);
        let layer = metrics::per_layer(&LayerInputs {
            progs: &progs,
            passes: &passes,
            traced: &traced,
            replay: cost,
            native,
            spans: &spans,
        });
        report::print_table("per-layer metrics (traced run)", &layer, true);
        write_spans(&spans, kind, args.seed);
        layer
    } else {
        e2e
    };
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!("perfbench: runs attempted {attempted}, failed {failed}, fail_frac {fail_frac}");
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    i32::from(failed > 0)
}

/// Times `run_native` over every program until at least
/// [`LAYER_TIMING_MIN_S`] host seconds: (simulated cycles, seconds).
fn time_native(
    progs: &[Program],
    cfg: &btgeneric::engine::Config,
    spans: &mut Spans,
    run: u32,
) -> (u64, f64) {
    spans.set_run(run);
    let (mut cycles, mut secs) = (0, 0.0);
    while secs < LAYER_TIMING_MIN_S {
        for p in progs {
            let (r, t) = spans.time(call::NATIVE, None, || run_native(&p.w, p.scale, cfg.timing));
            cycles += r.cycles;
            secs += t;
        }
    }
    (cycles, secs)
}

fn write_spans(spans: &Spans, kind: Kind, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.json", kind.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json())) {
        Ok(()) => println!(
            "perfbench: {} spans written to {}",
            spans.all().len(),
            path.display()
        ),
        Err(e) => println!("perfbench: spans not written: {e}"),
    }
}
