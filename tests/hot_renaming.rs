//! Oracle-differential tests for guest-register renaming in hot traces:
//! the typed-IR pipeline drops `zxt4`s of values already known to be
//! zero-extended and forwards reads of a guest home to the value last
//! copied into it. Every loop runs far past the heat threshold, so its
//! body executes as an optimized hot trace, and every result is
//! compared with the reference interpreter.

use btgeneric::btos::{BtOs, SyscallOutcome};
use btlib::{sys, Process, SignalPlan, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::{Cond, Size};
use ia32el::testkit::{differential, hot_config, run_interp, run_translated, RunEnd};

const DATA: u32 = 0x50_0000;
const UNMAPPED: u32 = 0x0000_1000;
const ITERS: i32 = 3000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

/// Stores `i * 0x01010101 + 7` into the first 65 words of `DATA`, so
/// loads in the loops below read distinct nonzero values.
fn fill_table(a: &mut Asm) {
    a.mov_ri(ECX, 64);
    let fill = a.label();
    a.bind(fill);
    a.mov_rr(EAX, ECX);
    a.inst(Inst::ImulRmImm {
        dst: EAX,
        src: Rm::Reg(EAX),
        imm: 0x0101_0101,
    });
    a.alu_ri(AluOp::Add, EAX, 7);
    a.mov_store(
        Addr {
            base: None,
            index: Some((ECX, 4)),
            disp: DATA as i32,
        },
        EAX,
    );
    a.dec(ECX);
    a.jcc(Cond::Ns, fill);
}

/// Runs the image under the oracle and the hot-aggressive translator,
/// compares state and the data page, and requires that the typed-IR
/// pipeline compiled at least one trace.
fn check(name: &str, f: impl Fn(&mut Asm)) {
    let img = image(&f);
    let p = differential(&img, hot_config(), &[(DATA, 0x400)], name);
    assert!(
        p.engine.stats.hot_ir_traces > 0,
        "{name}: the loop never ran as an IR-compiled hot trace"
    );
}

#[test]
fn wrapping_add_feeds_a_load() {
    // `add esi, eax` carries past bit 31; the sum's zero-extension must
    // survive, or the load would address 0x1_0050_xxxx.
    check("add-wrap", |a| {
        fill_table(a);
        a.mov_ri(ECX, ITERS);
        a.mov_ri(EDI, 0);
        a.mov_ri(EBP, 0xF000_0000u32 as i32);
        a.mov_ri(EBX, -4);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 63);
        a.shift_i(ShiftOp::Shl, EAX, 2);
        a.alu_ri(AluOp::Add, EAX, (DATA + 4).wrapping_sub(0xF000_0000) as i32);
        a.mov_rr(ESI, EBP);
        a.alu_rr(AluOp::Add, ESI, EAX); // wraps to DATA + 4 + 4k
        a.mov_load(EDX, Addr::base(ESI));
        a.alu_rr(AluOp::Add, EDI, EDX);
        a.alu_rr(AluOp::Add, ESI, EBX); // wraps again: DATA + 4k
        a.alu_rm(AluOp::Xor, EDI, Addr::base(ESI));
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA + 0x300), EDI);
        a.mov_store(Addr::abs(DATA + 0x304), ESI);
        a.hlt();
    });
}

#[test]
fn lea_scale_overflows_bit_31() {
    // `eax * 4` and `eax + eax * 8` overflow bit 31 (and bit 32); the lea
    // results must be truncated before they address memory.
    check("lea-scale", |a| {
        fill_table(a);
        a.mov_ri(ECX, ITERS);
        a.mov_ri(ESI, 0);
        a.mov_ri(EBP, 0x4000_0000);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 31);
        a.alu_rr(AluOp::Add, EAX, EBP); // 0x4000_0000 + k
        a.lea(
            EDI,
            Addr {
                base: None,
                index: Some((EAX, 4)),
                disp: DATA as i32,
            },
        ); // 0x1_0000_0000 + DATA + 4k
        a.mov_load(EDX, Addr::base(EDI));
        a.alu_rr(AluOp::Add, ESI, EDX);
        a.lea(EBX, Addr::base_index(EAX, EAX, 8, 0)); // 9 * eax wraps
        a.mov_rr(EDX, EBX);
        a.alu_ri(AluOp::And, EDX, 0xFC);
        a.alu_rm(
            AluOp::Add,
            ESI,
            Addr {
                base: Some(EDX),
                index: None,
                disp: DATA as i32,
            },
        );
        a.alu_rr(AluOp::Xor, ESI, EBX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA + 0x300), ESI);
        a.mov_store(Addr::abs(DATA + 0x304), EBX);
        a.hlt();
    });
}

#[test]
fn subword_writes_extensions_and_imul_into_homes() {
    check("subword-homes", |a| {
        fill_table(a);
        a.mov_ri(ECX, ITERS);
        a.mov_ri(ESI, 0x1234_5679);
        a.mov_ri(EDI, 0);
        a.mov_ri(EDX, 0x7F00);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EBX, ECX);
        // bl = cl; dx += bx; ah = dl (8- and 16-bit merges into homes).
        a.inst(Inst::Mov {
            size: Size::B,
            dst: Rm::Reg(EBX),
            src: RmI::Reg(ECX),
        });
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::W,
            dst: Rm::Reg(EDX),
            src: RmI::Reg(EBX),
        });
        a.mov_rr(EAX, EDI);
        a.inst(Inst::Mov {
            size: Size::B,
            dst: Rm::Reg(Gpr::new(4)), // AH
            src: RmI::Reg(EDX),        // DL
        });
        // movzx/movsx from the merged subregisters; dx crosses 0x8000,
        // so the sign extension sets bits 31..16.
        a.inst(Inst::Movzx {
            dst: EBP,
            src_size: Size::B,
            src: Rm::Reg(Gpr::new(4)), // AH
        });
        a.inst(Inst::Movsx {
            dst: EBX,
            src_size: Size::W,
            src: Rm::Reg(EDX),
        });
        // imul produces a 64-bit product; only its low half is EBX.
        a.imul_rr(EBX, ESI);
        a.alu_rr(AluOp::Add, EDI, EBX);
        a.alu_rr(AluOp::Xor, EDI, EAX);
        a.alu_rm(
            AluOp::Add,
            EDI,
            Addr {
                base: None,
                index: Some((EBP, 1)),
                disp: DATA as i32,
            },
        );
        a.inst(Inst::Movsx {
            dst: EAX,
            src_size: Size::B,
            src: Rm::Reg(EBX),
        });
        a.alu_rr(AluOp::Sub, EDI, EAX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA + 0x300), EDI);
        a.mov_store(Addr::abs(DATA + 0x304), EDX);
        a.hlt();
    });
}

#[test]
fn fault_between_forwarded_writeback_and_next_write() {
    // Each iteration writes EBX, reads it back through the forwarded
    // value, then loads through ESI before EBX's next write. Halfway
    // through, the pointer goes unmapped: the reconstructed state at
    // the faulting load must hold the forwarded EBX in its home.
    let img = image(|a| {
        fill_table(a);
        a.mov_mi(Addr::abs(DATA + 0x200), (DATA + 0x40) as i32);
        a.mov_ri(ECX, ITERS);
        a.mov_ri(EAX, 0);
        a.mov_ri(EDI, 0);
        let top = a.label();
        a.bind(top);
        a.mov_load(ESI, Addr::abs(DATA + 0x200));
        a.lea(EBX, Addr::base_index(ECX, ECX, 2, 5)); // forwarded writeback
        a.alu_rr(AluOp::Add, EAX, EBX);
        a.mov_load(EDX, Addr::base(ESI)); // faults once ESI is poisoned
        a.alu_rr(AluOp::Add, EDX, EBX);
        a.lea(EBX, Addr::base_disp(EDX, 1)); // the next write of EBX
        a.alu_rr(AluOp::Xor, EDI, EBX);
        a.mov_rr(EBP, EBX);
        a.cmp_ri(ECX, ITERS / 2);
        let skip = a.label();
        a.jcc(Cond::Ne, skip);
        a.mov_mi(Addr::abs(DATA + 0x200), UNMAPPED as i32);
        a.bind(skip);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
    });
    let oracle = run_interp(&img, 50_000_000);
    let (trans, p) = run_translated(&img, hot_config(), 400_000_000);
    let (RunEnd::Fault(oe), RunEnd::Fault(te)) = (oracle.end, trans.end) else {
        panic!("expected faults, got {:?} / {:?}", oracle.end, trans.end);
    };
    assert_eq!(oe, te, "faulting EIP");
    assert_eq!(oracle.cpu.eip, trans.cpu.eip, "faulting EIP in the state");
    // EFLAGS is not compared: the flags `add` set here are dead, and
    // dead flags are not rematerialized at faults (DESIGN.md, "EFlags
    // at exceptions").
    assert_eq!(oracle.cpu.gpr, trans.cpu.gpr, "all eight GPRs at the fault");
    assert!(p.engine.stats.hot_ir_traces > 0, "the loop never ran hot");
}

/// Log area the signal handler appends interrupted states to.
const LOG: u32 = DATA + 0x1000;
/// Cell holding the next free log address.
const LOG_PTR: u32 = DATA + 0x800;
/// Words per log record: EIP, then EAX..EDI.
const RECORD: u32 = 9;

/// A hot loop of forwarded chains plus a handler that logs every
/// interrupted state (EIP and all eight GPRs) and returns. Also
/// returns the loop body's address range. EFLAGS is not logged: dead
/// flags are not rematerialized at commit points (DESIGN.md, "EFlags
/// at exceptions").
fn signal_image() -> (Image, std::ops::Range<u32>) {
    let build = |haddr: i32| {
        let mut a = Asm::new(0x40_0000);
        let handler = a.label();
        a.mov_mi(Addr::abs(LOG_PTR), LOG as i32);
        a.mov_ri(EAX, sys::SIGNAL as i32);
        a.mov_ri(EBX, haddr);
        a.int(0x80);
        fill_table(&mut a);
        a.mov_ri(ECX, 20_000);
        a.mov_ri(ESI, 0);
        a.mov_ri(EDI, 0);
        a.mov_ri(EBP, 0);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, ECX);
        a.alu_ri(AluOp::And, EAX, 63);
        a.mov_rr(EBX, EAX);
        a.shift_i(ShiftOp::Shl, EBX, 2);
        a.alu_ri(AluOp::Add, EBX, DATA as i32);
        a.mov_load(EDX, Addr::base(EBX));
        a.alu_rr(AluOp::Add, EDX, EAX);
        a.mov_store(Addr::base(EBX), EDX);
        a.mov_rr(EDI, EDX);
        a.alu_rr(AluOp::Xor, EDI, ECX);
        a.alu_rr(AluOp::Add, EBP, EDI);
        a.alu_rm(AluOp::Add, ESI, Addr::base_disp(EBX, 4));
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        let end = a.label();
        a.bind(end);
        a.mov_store(Addr::abs(DATA + 0x300), EBP);
        a.mov_store(Addr::abs(DATA + 0x304), ESI);
        a.hlt();
        // Frame: [esp] = EIP, [esp+4] = EFLAGS, [esp+8] = EAX; EAX is
        // restored by SIGRETURN, everything else is preserved here.
        a.bind(handler);
        a.push_r(EBX);
        a.mov_load(EBX, Addr::abs(LOG_PTR));
        for (k, off) in [(0, 4), (1, 12), (4, 0)] {
            // EIP, EAX, then the saved EBX.
            a.mov_load(EAX, Addr::base_disp(ESP, off));
            a.mov_store(Addr::base_disp(EBX, 4 * k), EAX);
        }
        a.mov_store(Addr::base_disp(EBX, 4 * 2), ECX);
        a.mov_store(Addr::base_disp(EBX, 4 * 3), EDX);
        a.lea(EAX, Addr::base_disp(ESP, 16)); // ESP before delivery
        a.mov_store(Addr::base_disp(EBX, 4 * 5), EAX);
        a.mov_store(Addr::base_disp(EBX, 4 * 6), EBP);
        a.mov_store(Addr::base_disp(EBX, 4 * 7), ESI);
        a.mov_store(Addr::base_disp(EBX, 4 * 8), EDI);
        a.lea(EBX, Addr::base_disp(EBX, 4 * RECORD as i32));
        a.mov_store(Addr::abs(LOG_PTR), EBX);
        a.pop_r(EBX);
        a.mov_ri(EAX, sys::SIGRETURN as i32);
        a.int(0x80);
        let range = a.label_addr(top)..a.label_addr(end);
        (a.label_addr(handler), range, a)
    };
    let (h, _, _) = build(0);
    let (h2, range, a) = build(h as i32);
    assert_eq!(h, h2, "layout stable");
    (Image::from_asm(&a).with_bss(DATA, 0x1_0000), range)
}

#[test]
fn signals_at_commit_points_see_precise_state() {
    let (img, body) = signal_image();
    let mut mid_trace = 0;
    for seed in 1..=3 {
        let mut plan = SignalPlan::seeded(seed, 24, 600_000);
        plan.max_depth = 1;
        let os = SimOs::new().with_signals(plan);
        let mut p = Process::launch_with(&img, os, hot_config()).expect("launch");
        let out = p.run(400_000_000);
        assert!(
            matches!(out, btgeneric::engine::Outcome::Halted(_)),
            "seed {seed}: {out:?}"
        );
        let delivered = p.engine.stats.signals_delivered;
        assert!(delivered > 0, "seed {seed}: no signal delivered");
        assert!(p.engine.stats.hot_ir_traces > 0, "seed {seed}: never hot");
        let end = p.engine.mem.read(LOG_PTR as u64, 4).unwrap() as u32;
        assert_eq!(
            u64::from((end - LOG) / (4 * RECORD)),
            delivered,
            "seed {seed}: one record per delivery"
        );
        let word = |a: u32| p.engine.mem.read(a as u64, 4).unwrap() as u32;
        let records: Vec<[u32; RECORD as usize]> = (LOG..end)
            .step_by(4 * RECORD as usize)
            .map(|r| std::array::from_fn(|k| word(r + 4 * k as u32)))
            .collect();
        mid_trace += records
            .iter()
            .filter(|r| body.contains(&r[0]) && r[0] != body.start)
            .count();
        // Every logged state must be one the oracle passes through, in
        // order (signals queued behind one another deliver back to back
        // at the same point), and the handler must be transparent to
        // the result.
        let mut mem = ia32::GuestMem::new();
        let mut interp = ia32::Interp::new();
        interp.cpu = img.load(&mut mem);
        let mut os = SimOs::new();
        let mut next = 0;
        loop {
            let cpu = &interp.cpu;
            while records
                .get(next)
                .is_some_and(|r| cpu.eip == r[0] && cpu.gpr[..] == r[1..])
            {
                next += 1;
            }
            match interp.step(&mut mem).expect("oracle faulted") {
                ia32::Event::Continue => {}
                ia32::Event::Halt => break,
                ia32::Event::Syscall { .. } => {
                    assert!(matches!(
                        os.syscall(&mut interp.cpu, &mut mem),
                        SyscallOutcome::Continue
                    ));
                }
            }
        }
        assert_eq!(
            next,
            records.len(),
            "seed {seed}: record {next} ({:x?}) is not an oracle state",
            records.get(next)
        );
        for addr in (DATA..DATA + 0x400).step_by(4) {
            assert_eq!(
                mem.read(addr as u64, 4).ok(),
                p.engine.mem.read(addr as u64, 4).ok(),
                "seed {seed}: data at {addr:#x}"
            );
        }
    }
    assert!(
        mid_trace > 0,
        "no signal landed on a commit point inside the hot loop body"
    );
}
