//! The three benchmark workloads and the seeded inputs they run.

use btgeneric::engine::Config;
use workloads::Workload;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The 12 Figure-5 SPEC INT kernels at full scale, run to halt one
    /// after another.
    SpecInt,
    /// The rest of the paper's evaluation at full scale: the FP/MMX/SSE
    /// kernels, sysmark, misalign, vcall_mono and callret.
    Mixed,
    /// 500 short serving sessions over the 15 `bench::serving` kernels,
    /// time-sliced by the fleet scheduler with a shared cache.
    Fleet,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::SpecInt, Kind::Mixed, Kind::Fleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecInt => "spec_int",
            Kind::Mixed => "mixed",
            Kind::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The engine configuration the workload runs under.
    pub fn config(self) -> Config {
        match self {
            // `figures`' configuration: full-scale runs reach the heat
            // threshold naturally.
            Kind::SpecInt | Kind::Mixed => Config {
                heat_threshold: 256,
                hot_candidates: 2,
                ..Config::default()
            },
            // `bench::serving`'s configuration: heat instrumentation on,
            // the promotion threshold out of reach of a short session.
            Kind::Fleet => Config {
                heat_threshold: 1 << 30,
                hot_candidates: 2,
                ..Config::default()
            },
        }
    }

    /// The guest programs, in canonical (unpermuted) order, each with
    /// the scale it runs at.
    pub fn programs(self) -> Vec<(Workload, u32)> {
        match self {
            Kind::SpecInt => full_scale(workloads::spec_int()),
            Kind::Mixed => {
                let mut v = workloads::spec_fp();
                v.push(workloads::sysmark());
                v.push(workloads::misalign_heavy());
                v.extend(
                    workloads::indirect_kernels()
                        .into_iter()
                        .filter(|w| w.name != "eon"),
                );
                full_scale(v)
            }
            Kind::Fleet => {
                let mut v = workloads::spec_int();
                v.extend(workloads::indirect_kernels());
                v.into_iter()
                    .map(|w| {
                        let scale = (w.scale / FLEET_SCALE_DIV).max(FLEET_SCALE_FLOOR);
                        (w, scale)
                    })
                    .collect()
            }
        }
    }
}

fn full_scale(v: Vec<Workload>) -> Vec<(Workload, u32)> {
    v.into_iter()
        .map(|w| {
            let scale = w.scale.max(256);
            (w, scale)
        })
        .collect()
}

/// Scale divisor of the fleet's short sessions (`bench::serving`'s
/// 2000-divisor point).
pub const FLEET_SCALE_DIV: u32 = 2000;
/// Scale floor of a fleet session.
pub const FLEET_SCALE_FLOOR: u32 = 16;
/// Sessions in one fleet pass.
pub const FLEET_SESSIONS: usize = 500;
/// Scheduler quantum, in native slots.
pub const FLEET_QUANTUM: u64 = 4_000;
/// Closed-loop admission cap: live sessions at any moment.
pub const FLEET_MAX_LIVE: usize = 64;

/// SplitMix64: a small deterministic generator for the seeded inputs.
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The order in which a pass runs a workload's programs (a permutation
/// of program indices). For `fleet` each entry is one session's kernel:
/// the canonical assignment gives session `i` kernel `i mod 15`, and the
/// seed permutes it.
pub fn order(kind: Kind, n_programs: usize, seed: u64) -> Vec<usize> {
    let mut v = canonical_order(kind, n_programs);
    Rng::new(seed).shuffle(&mut v);
    v
}

/// The unpermuted order: each program once, or for `fleet` session `i`
/// running kernel `i mod 15` as `bench::serving` assigns them.
pub fn canonical_order(kind: Kind, n_programs: usize) -> Vec<usize> {
    match kind {
        Kind::SpecInt | Kind::Mixed => (0..n_programs).collect(),
        Kind::Fleet => (0..FLEET_SESSIONS).map(|i| i % n_programs).collect(),
    }
}
