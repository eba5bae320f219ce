//! Quickstart: run an IA-32 guest program under the IA-32 Execution
//! Layer and watch the two-phase translation happen.
//!
//! Computes sum(1..=65535) in a guest loop (it fits 32 bits), converts
//! it to decimal in guest code, and writes it to the captured stdout.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use btgeneric::engine::{Config, Outcome};
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::AluOp;
use ia32::regs::{EAX, EBX, ECX, EDX, ESP};

fn main() {
    // A guest program, assembled to real IA-32 machine code: compute
    // the sum of 1..=65535 and print it via write(1, buf, len).
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 65_535);
    let top = a.label();
    a.bind(top);
    a.alu_rr(AluOp::Add, EAX, ECX);
    a.dec(ECX);
    a.jcc(ia32::Cond::Ne, top);
    // Convert EAX to decimal digits on the stack (simple itoa loop).
    a.mov_ri(EBX, 10);
    a.alu_ri(AluOp::Sub, ESP, 16);
    a.mov_rr(ECX, ESP);
    a.alu_ri(AluOp::Add, ECX, 15);
    a.inst(ia32::Inst::Mov {
        size: ia32::Size::B,
        dst: ia32::inst::Rm::Mem(ia32::inst::Addr::base(ECX)),
        src: ia32::inst::RmI::Imm(0x0A), // '\n'
    });
    let digits = a.label();
    a.bind(digits);
    a.mov_ri(EDX, 0);
    a.divide(ia32::inst::MulDivOp::Div, EBX);
    a.alu_ri(AluOp::Add, EDX, '0' as i32);
    a.dec(ECX);
    a.inst(ia32::Inst::Mov {
        size: ia32::Size::B,
        dst: ia32::inst::Rm::Mem(ia32::inst::Addr::base(ECX)),
        src: ia32::inst::RmI::Reg(EDX),
    });
    a.cmp_ri(EAX, 0);
    a.jcc(ia32::Cond::Ne, digits);
    // write(1, ecx, bytes-to-end-of-buffer)
    a.mov_rr(EDX, ESP);
    a.alu_ri(AluOp::Add, EDX, 16);
    a.alu_rr(AluOp::Sub, EDX, ECX);
    a.mov_ri(EAX, btlib::sys::WRITE as i32);
    a.mov_ri(EBX, 1);
    a.int(0x80);
    a.mov_ri(EAX, btlib::sys::EXIT as i32);
    a.mov_ri(EBX, 0);
    a.int(0x80);

    // Launch under the Execution Layer: BTLib loads the image, checks
    // the BTOS version handshake, and BTGeneric translates on demand.
    let image = Image::from_asm(&a);
    let cfg = Config {
        heat_threshold: 1024,
        ..Config::default()
    };
    let mut process = Process::launch_with(&image, SimOs::new(), cfg).expect("launch");
    let outcome = process.run(u64::MAX / 2);

    println!("guest stdout: {}", process.os.stdout_string().trim());
    println!("outcome:      {outcome:?}");
    assert_eq!(outcome, Outcome::Exited(0));
    assert_eq!(process.os.stdout_string().trim(), "2147450880");

    let s = &process.engine.stats;
    println!();
    println!("translator statistics (the paper's Figure 2 in action):");
    println!("  cold blocks translated: {}", s.cold_blocks);
    println!("  hot phase:              {}", s.hot_summary());
    println!("  syscalls serviced:      {}", s.syscalls);
    let dist = btgeneric::stats::TimeDistribution::from_region_cycles(
        &process.engine.machine.region_cycles,
    );
    let (hot, cold, ovh, other, _, _) = dist.percentages();
    println!(
        "  time split: hot {hot:.1}% / cold {cold:.1}% / overhead {ovh:.1}% / other {other:.1}%"
    );
}
