//! Human-readable report and the one-line JSON result.

use crate::metrics::{by_name, geomean_native_pct, native_pct, totals, Metric};
use crate::paper;
use crate::run::{Pass, Program};
use crate::workload::Kind;
use btgeneric::stats::TimeDistribution;

/// Prints a metric table: name, value, unit, layer, better direction,
/// and (with `moves`) the end-to-end metric each one should move.
pub fn print_table(title: &str, metrics: &[Metric], moves: bool) {
    println!("== {title} ==");
    println!(
        "  {:<34} {:>16} {:<12} {:<8} {:<7}{}",
        "metric",
        "value",
        "unit",
        "layer",
        "better",
        if moves { "  moves" } else { "" }
    );
    for m in metrics {
        println!(
            "  {:<34} {:>16} {:<12} {:<8} {:<7}{}",
            m.name,
            m.value.json(),
            m.unit,
            m.layer,
            m.better.name(),
            if moves {
                format!("  {}", m.moves)
            } else {
                String::new()
            }
        );
    }
}

fn print_split(d: &TimeDistribution, published: &[f64]) {
    let (hot, cold, ovh, other, native, idle) = d.percentages();
    let measured = [hot, cold, ovh, other, native, idle];
    let names = ["hot", "cold", "overhead", "other", "native/OS", "idle"];
    println!("  {:<10} {:>9} {:>7}", "region", "measured", "paper");
    for (i, p) in published.iter().enumerate() {
        println!("  {:<10} {:>8.1}% {:>6.0}%", names[i], measured[i], p);
    }
}

/// Prints the paper's published values beside the measured ones.
pub fn print_paper(kind: Kind, progs: &[Program], first: &Pass) {
    println!(
        "== paper columns: published values measured on a 1.5 GHz Itanium 2 with SPEC \
         CPU2000 and Sysmark 2002, not on this model; the model is unvalidated, so no \
         error figure is given =="
    );
    let t = totals(progs, first);
    match kind {
        Kind::SpecInt => {
            let rows = by_name(progs, first);
            println!(
                "  {:<10} {:>9} {:>7}   (Figure 5, native = 100%)",
                "kernel", "measured", "paper"
            );
            for (name, published) in paper::FIG5 {
                let (el, n) = rows.get(name).copied().unwrap_or((0, 0));
                println!("  {name:<10} {:>8.1}% {published:>6.0}%", native_pct(el, n));
            }
            println!(
                "  {:<10} {:>8.1}% {:>6.0}%",
                "GeoMean",
                geomean_native_pct(progs, first),
                paper::FIG5_GEOMEAN
            );
            println!("  region split of all 12 kernels (Figure 6):");
            print_split(&t.dist, &paper::FIG6);
        }
        Kind::Mixed => {
            let Some(r) = first
                .records
                .iter()
                .flatten()
                .find(|r| progs[r.program].w.name == "sysmark")
            else {
                return;
            };
            // Sysmark's OS-kernel and idle shares are workload-model
            // parameters added on top of the translated time, as in
            // `bench::figure7`.
            let w = &progs[r.program].w;
            let mut d = r.dist;
            let total = d.total() as f64;
            let translated = 1.0 - w.native_fraction - w.idle_fraction;
            d.native = (total * w.native_fraction / translated) as u64;
            d.idle = (total * w.idle_fraction / translated) as u64;
            println!("  sysmark region split (Figure 7; OS and idle shares are model inputs):");
            print_split(&d, &paper::FIG7);
        }
        Kind::Fleet => println!("  (the paper has no serving experiment)"),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// as `{name: {value, unit}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.json(),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
