//! Trace selection builds each hot region once: when a hot trace
//! installs, the cold blocks it enters by a forward edge are marked
//! covered, and a covered candidate's first heat registration is
//! deferred instead of compiling a suffix of the same trace again.
//! Every run here uses the `figures` configuration (`heat_threshold`
//! 256, `hot_candidates` 2) and is checked against the interpreter.

use btgeneric::engine::{BlockKind, Config};
use btgeneric::trace::{EventData, EventKind, EventMask, TraceConfig};
use ia32::asm::{Asm, Image, Label};
use ia32::inst::{Addr, AluOp};
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{differential, run_translated};
use std::collections::HashSet;

const DATA: u32 = 0x50_0000;
const RESULT: u32 = 0x50_1000;
const ITERS: i32 = 700;

fn figures_cfg() -> Config {
    Config {
        heat_threshold: 256,
        hot_candidates: 2,
        ..Config::default()
    }
}

/// Emits the gcc kernel's shape: a loop of `iters` iterations over `n`
/// two-instruction blocks chained by `jmp`, all of which cross the heat
/// threshold in the same iteration. Returns each chain block's label.
fn emit_chain(a: &mut Asm, n: usize, iters: i32, salt: i32) -> Vec<Label> {
    a.mov_ri(ECX, iters);
    let top = a.label();
    a.bind(top);
    let blocks: Vec<Label> = (0..n).map(|_| a.label()).collect();
    a.jmp(blocks[0]);
    for (k, l) in blocks.iter().enumerate() {
        a.bind(*l);
        a.alu_rm(AluOp::Add, EDI, Addr::base_disp(ESI, (k as i32 % 64) * 8));
        a.alu_ri(AluOp::Xor, EDI, k as i32 + salt);
        if k + 1 < n {
            a.jmp(blocks[k + 1]);
        }
    }
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    blocks
}

/// Finishes `a` (store the result, halt) into an image whose data
/// table the chains read.
fn finish(mut a: Asm) -> Image {
    a.mov_store(Addr::abs(RESULT), EDI);
    a.hlt();
    let table = (0..0x200u32).map(|i| (i * 37) as u8).collect();
    Image::from_asm(&a)
        .with_data(DATA, table)
        .with_bss(RESULT, 0x1000)
}

fn prologue() -> Asm {
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(EDI, 0);
    a.mov_ri(ESI, DATA as i32);
    a
}

/// One 64-block chain loop.
fn chain_image() -> Image {
    let mut a = prologue();
    emit_chain(&mut a, 64, ITERS, 1);
    finish(a)
}

/// A 32-block chain A, then 20 cold iterations of a 32-block chain B,
/// then chain A again. Under a tight cache chain B's translations push
/// out chain A's traces. Returns the image and chain A's block EIPs.
fn three_phase_image() -> (Image, Vec<u32>) {
    let mut a = prologue();
    a.mov_ri(EBP, 0);
    let phase_a = a.label();
    let done = a.label();
    a.bind(phase_a);
    let chain_a = emit_chain(&mut a, 32, ITERS, 1);
    a.test_rr(EBP, EBP);
    a.jcc(Cond::Ne, done);
    emit_chain(&mut a, 32, 20, 0x100);
    a.mov_ri(EBP, 1);
    a.jmp(phase_a);
    a.bind(done);
    let eips = chain_a.iter().map(|l| a.label_addr(*l)).collect();
    (finish(a), eips)
}

/// The `figures` configuration under a translation cache that holds
/// one chain's code but not both.
fn tight_cfg() -> Config {
    Config {
        max_cache_bundles: 450,
        ..figures_cfg()
    }
}

#[test]
fn jump_chain_builds_few_traces() {
    let img = chain_image();
    let p = differential(&img, figures_cfg(), &[(RESULT, 4)], "jump-chain");
    let s = &p.engine.stats;
    assert!(
        s.hot_traces <= 16,
        "64 jump-linked blocks compiled {} overlapping traces",
        s.hot_traces
    );
    assert!(s.hot_deferrals > 0, "no covered candidate was deferred");
    assert!(
        p.engine.blocks().iter().any(|b| b.covered),
        "no installed trace marked the blocks it covers"
    );
}

#[test]
fn covered_block_hot_off_trace_still_promotes() {
    // Phase 1 runs X -> B (forward jmp), so X's trace covers B and B's
    // first registration is deferred. Phase 2 enters B from Y instead:
    // X's trace never runs, B keeps running cold, re-registers one
    // threshold window later, and must promote then.
    let mut a = Asm::new(0x40_0000);
    let (x, y, b, out1, done) = (a.label(), a.label(), a.label(), a.label(), a.label());
    a.mov_ri(EDI, 0);
    a.mov_ri(EDX, 0);
    a.mov_ri(ECX, ITERS);
    // X is its own block from the first iteration, so X heats before B
    // in the same iteration and becomes the head.
    a.jmp(x);
    a.bind(x);
    a.alu_ri(AluOp::Add, EDI, 3);
    a.alu_ri(AluOp::Xor, EDI, 0x55);
    a.jmp(b);
    a.bind(y);
    a.alu_ri(AluOp::Sub, EDI, 7);
    a.alu_ri(AluOp::Xor, EDI, 0x1234);
    a.jmp(b);
    a.bind(b);
    a.alu_ri(AluOp::Add, EDI, 11);
    a.dec(ECX);
    a.jcc(Cond::E, out1);
    a.test_rr(EDX, EDX);
    a.jcc(Cond::E, x);
    a.jmp(y);
    a.bind(out1);
    a.test_rr(EDX, EDX);
    a.jcc(Cond::Ne, done);
    a.mov_ri(EDX, 1);
    a.mov_ri(ECX, ITERS * 2);
    a.jmp(y);
    a.bind(done);
    a.mov_store(Addr::abs(DATA), EDI);
    a.hlt();
    let b_eip = a.label_addr(b);
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);

    let p = differential(&img, figures_cfg(), &[(DATA, 4)], "covered-off-trace");
    assert!(
        p.engine.stats.hot_deferrals > 0,
        "B's first registration must be deferred"
    );
    let blk = p
        .engine
        .blocks()
        .iter()
        .find(|blk| blk.eip == b_eip)
        .expect("B was translated");
    assert!(blk.covered, "X's trace must cover B");
    assert_eq!(blk.kind, BlockKind::Hot, "B stayed stranded cold");
}

#[test]
fn evicting_the_covering_trace_repromotes_covered_blocks() {
    let (img, eips) = three_phase_image();
    // Roomy cache: chain A's traces survive chain B, so the blocks they
    // cover stay deferred for the whole run.
    let p = differential(&img, figures_cfg(), &[(RESULT, 4)], "three-phase-roomy");
    let in_a = |b: &&btgeneric::engine::BlockInfo| eips.contains(&b.eip);
    let blocks = p.engine.blocks();
    let covered: HashSet<u32> = blocks
        .iter()
        .filter(in_a)
        .filter(|b| b.covered && b.kind != BlockKind::Hot)
        .map(|b| b.eip)
        .collect();
    let heads: HashSet<u32> = blocks
        .iter()
        .filter(in_a)
        .filter(|b| b.kind == BlockKind::Hot)
        .map(|b| b.eip)
        .collect();
    assert!(!covered.is_empty() && !heads.is_empty());
    // Tight cache: chain B evicts chain A's traces, so on A's second run
    // the blocks they covered execute cold again and must promote.
    let cfg = Config {
        trace: TraceConfig {
            capacity: 1 << 16,
            event_mask: EventMask::NONE
                .with(EventKind::BlockPromoted)
                .with(EventKind::BlockEvicted),
            ..TraceConfig::on()
        },
        ..tight_cfg()
    };
    let p = differential(&img, cfg, &[(RESULT, 4)], "three-phase-tight");
    assert!(
        p.engine.stats.hot_deferrals > 0,
        "nothing was deferred before eviction"
    );
    let t = p.tracer();
    assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
    let (mut live, mut evicted_heads, mut repromoted) = (HashSet::new(), 0, HashSet::new());
    for e in t.events() {
        match e.data {
            EventData::BlockPromoted { eip, .. } => {
                live.insert(eip);
                if covered.contains(&eip) {
                    repromoted.insert(eip);
                }
            }
            EventData::BlockEvicted { eip, .. } => {
                evicted_heads += usize::from(live.remove(&eip) && heads.contains(&eip));
            }
            _ => {}
        }
    }
    assert!(evicted_heads > 0, "no covering trace was evicted");
    assert!(
        !repromoted.is_empty(),
        "none of the {} covered blocks promoted after their trace was evicted",
        covered.len()
    );
}

#[test]
fn deferral_is_deterministic() {
    let (img, _) = three_phase_image();
    let a = differential(&img, tight_cfg(), &[(RESULT, 4)], "three-phase-det");
    let (_, b) = run_translated(&img, tight_cfg(), 400_000_000);
    assert!(a.engine.stats.hot_deferrals > 0 && a.engine.stats.evictions > 0);
    assert_eq!(a.engine.stats, b.engine.stats, "same run, different Stats");
    assert_eq!(a.engine.machine.cycles, b.engine.machine.cycles);
}
