//! Cross-checks of the benchmark against the `bench` crate's figures.
//! Each runs full-scale kernels: use `cargo test --release`.

use perfbench::metrics::{self, geomean_native_pct, percentile};
use perfbench::run::{self, Pass, Program};
use perfbench::spans::Spans;
use perfbench::workload::{self, Kind};

fn one_pass(kind: Kind, progs: &[Program], order: &[usize]) -> Pass {
    let mut spans = Spans::new();
    let p = run::pass(kind, progs, order, &kind.config(), &mut spans, 1, false);
    assert_eq!(
        p.failures(),
        0,
        "{}: a run failed its oracle check",
        kind.name()
    );
    p
}

fn cycles_by_program(p: &Pass) -> Vec<(usize, u64)> {
    let mut v: Vec<_> = p
        .records
        .iter()
        .flatten()
        .map(|r| (r.program, r.cycles))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn spec_int_matches_figure5() {
    let kind = Kind::SpecInt;
    let progs = run::prepare(kind, &mut Spans::new());
    let pass = one_pass(kind, &progs, &workload::canonical_order(kind, progs.len()));
    let (rows, geomean) = bench::figure5(kind.config(), 1);
    let mine = metrics::by_name(&progs, &pass);
    for r in &rows {
        assert_eq!(mine[r.name], (r.el_cycles, r.native_cycles), "{}", r.name);
    }
    assert_eq!(mine["gzip"].0, 1_929_495);
    let g = geomean_native_pct(&progs, &pass);
    assert!((g - geomean).abs() < 1e-9, "{g} vs {geomean}");
    assert_eq!(format!("{g:.1}"), "20.1");
}

#[test]
fn fleet_matches_serving() {
    let kind = Kind::Fleet;
    let progs = run::prepare(kind, &mut Spans::new());
    let pass = one_pass(kind, &progs, &workload::canonical_order(kind, progs.len()));
    let cycles: u64 = pass.records.iter().flatten().map(|r| r.cycles).sum();
    let serving = bench::serving(2000, &[500]);
    assert_eq!(cycles, serving.points[0].shared_cycles);
    assert_eq!(cycles, 2_317_648);
}

#[test]
fn spec_int_and_mixed_ignore_the_seed() {
    for kind in [Kind::SpecInt, Kind::Mixed] {
        let progs = run::prepare(kind, &mut Spans::new());
        let a = one_pass(kind, &progs, &workload::order(kind, progs.len(), 1));
        let b = one_pass(kind, &progs, &workload::order(kind, progs.len(), 2));
        assert_ne!(
            workload::order(kind, progs.len(), 1),
            workload::order(kind, progs.len(), 2)
        );
        assert_eq!(
            cycles_by_program(&a),
            cycles_by_program(&b),
            "{}",
            kind.name()
        );
        let sim = |p: &Pass| -> Vec<f64> {
            metrics::end_to_end(&progs, std::slice::from_ref(p), 1.0)
                .iter()
                .filter(|m| m.unit != "s" && m.unit != "MB")
                .map(|m| m.value.as_f64())
                .collect()
        };
        assert_eq!(sim(&a), sim(&b), "{}", kind.name());
    }
}

#[test]
fn p98_of_500_sessions_leaves_ten_beyond() {
    let v: Vec<u64> = (1..=500).collect();
    assert_eq!(percentile(&v, 98.0), 490);
    assert_eq!(percentile(&v, 50.0), 250);
}
