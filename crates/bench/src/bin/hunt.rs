//! Random-program differential fuzzer: generates random IA-32 programs
//! (straight-line, or loop bodies with `hunt loop`) and checks the
//! Execution Layer against the reference interpreter, printing the
//! first diverging program. Complements the proptest suite with an
//! unbounded, fast, release-mode search.
//!
//! ```text
//! cargo run --release -p bench --bin hunt                             # straight-line
//! cargo run --release -p bench --bin hunt -- loop                     # hot loops
//! cargo run --release -p bench --bin hunt -- loop --seeds 1..500      # seeds 1 to 500
//! ```
//!
//! `--seeds A..B` runs seeds `A` through `B` inclusive (default
//! `1..4000`). The exit code is 0 when every program agrees, 1 on the
//! first divergence (after printing it), and 2 on a bad argument.
//!
//! Note: generated programs may legitimately fail to terminate when a
//! byte-size write hits CH (ECX's second byte); both sides then agree
//! on `InstLimit`, which the harness reports as an outcome mismatch
//! only if the oracle and the translator disagree.
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::Size;

fn rng(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn gen_inst(x: &mut u64) -> Inst {
    let r = |x: &mut u64| Gpr::new((rng(x) % 8) as u8);
    let nz = |g: Gpr, alt: u8| {
        if g.num() == 1 || g.num() == 4 {
            Gpr::new(alt)
        } else {
            g
        }
    };
    match rng(x) % 7 {
        0 => Inst::Alu {
            op: [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Adc,
                AluOp::Sbb,
                AluOp::Cmp,
            ][(rng(x) % 8) as usize],
            size: [Size::B, Size::W, Size::D][(rng(x) % 3) as usize],
            dst: Rm::Reg(nz(r(x), 5)),
            src: RmI::Imm(rng(x) as i32),
        },
        1 => Inst::Alu {
            op: [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor][(rng(x) % 5) as usize],
            size: Size::D,
            dst: Rm::Reg(nz(r(x), 0)),
            src: RmI::Reg(r(x)),
        },
        2 => Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(nz(r(x), 6)),
            src: RmI::Imm(rng(x) as i32),
        },
        3 => Inst::Shift {
            op: [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][(rng(x) % 3) as usize],
            size: Size::D,
            dst: Rm::Reg(nz(r(x), 3)),
            count: ShiftCount::Imm((rng(x) % 34) as u8),
        },
        4 => Inst::IncDec {
            inc: rng(x).is_multiple_of(2),
            size: Size::D,
            dst: Rm::Reg(nz(r(x), 5)),
        },
        5 => Inst::ImulRm {
            dst: nz(r(x), 0),
            src: Rm::Reg(r(x)),
        },
        _ => Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(nz(r(x), 7)),
            src: RmI::Reg(r(x)),
        },
    }
}

/// Parses `A..B` into the inclusive seed range `A..=B`.
fn parse_seeds(s: &str) -> Option<std::ops::RangeInclusive<u64>> {
    let (a, b) = s.split_once("..")?;
    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
    (a <= b).then_some(a..=b)
}

fn usage(msg: &str) -> ! {
    eprintln!("hunt: {msg}\nusage: hunt [loop] [--seeds A..B]");
    std::process::exit(2);
}

/// Prints a divergence with the program that caused it and exits 1.
fn diverged(seed: u64, what: &str, body: &[Inst]) -> ! {
    println!("SEED {seed}: {what}");
    for i in body {
        println!("  {i}");
    }
    std::process::exit(1);
}

fn main() {
    let mut mode = String::new();
    let mut seeds = 1..=4000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--seeds") {
            let v = match v.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if v.is_empty() => args.next().unwrap_or_default(),
                None => usage(&format!("unknown flag {arg}")),
            };
            seeds = parse_seeds(&v).unwrap_or_else(|| usage(&format!("bad seed range {v:?}")));
        } else if arg == "loop" && mode.is_empty() {
            mode = arg;
        } else {
            usage(&format!("unexpected argument {arg:?}"));
        }
    }
    for seed in seeds {
        let mut x = (seed * 0x9E3779B97F4A7C15) | 1;
        let n = 1 + (rng(&mut x) % 10) as usize;
        let iters = 200 + (rng(&mut x) % 400) as i32;
        let body: Vec<Inst> = (0..n).map(|_| gen_inst(&mut x)).collect();
        let mut a = Asm::new(0x40_0000);
        if mode == "loop" {
            a.mov_ri(ECX, iters);
            let top = a.label();
            a.bind(top);
            for i in &body {
                a.inst(*i);
            }
            a.dec(ECX);
            a.jcc(ia32::Cond::Ne, top);
        } else {
            for i in &body {
                a.inst(*i);
            }
        }
        a.hlt();
        let img = Image::from_asm(&a).with_bss(0x50_0000, 0x1000);
        // Oracle.
        let mut omem = ia32::GuestMem::new();
        let ocpu = img.load(&mut omem);
        let mut interp = ia32::Interp::new();
        interp.cpu = ocpu;
        let oend = interp.run(&mut omem, 5_000_000);
        // Translated.
        let cfg = btgeneric::engine::Config {
            heat_threshold: 16,
            hot_candidates: 1,
            ..btgeneric::engine::Config::default()
        };
        let mut p = btlib::Process::launch_with(&img, btlib::SimOs::new(), cfg).unwrap();
        let tout = p.run(30_000_000);
        match (&oend, &tout) {
            (Ok(ia32::Event::Halt), btgeneric::engine::Outcome::Halted(tcpu)) => {
                if interp.cpu.gpr != tcpu.gpr {
                    let what = format!("GPR mismatch\n  {:x?}\n  {:x?}", interp.cpu.gpr, tcpu.gpr);
                    diverged(seed, &what, &body);
                }
                let of = interp.cpu.eflags & 0x8D5;
                let tf = tcpu.eflags & 0x8D5;
                if of != tf {
                    diverged(seed, &format!("FLAGS mismatch {of:#x} vs {tf:#x}"), &body);
                }
            }
            (Ok(ia32::Event::Continue), btgeneric::engine::Outcome::InstLimit) => {
                // Both sides hit their budgets (a legitimately
                // non-terminating random program): agreement.
            }
            (o, t) => diverged(seed, &format!("outcome mismatch {o:?} vs {t:?}"), &body),
        }
        if seed % 500 == 0 {
            println!("...{seed} ok");
        }
    }
    println!("no mismatch found");
}
