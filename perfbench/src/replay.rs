//! Host cost of the cold translator's stages, measured by replaying the
//! blocks a run translated through the stages' public functions.
//!
//! Each block of a finished engine is re-decoded, re-discovered,
//! re-analysed and re-generated from its [`BlockInfo`] and the guest
//! memory it was translated from. The replay times the same work the
//! engine does on a cold miss (or a shared-namespace import, which
//! replays the generator) without touching the engine.

use crate::spans::{SpanId, Spans};
use btgeneric::cold::discover::discover;
use btgeneric::cold::gen::{generate, ColdGenInput};
use btgeneric::cold::liveness::analyze;
use btgeneric::engine::{BlockInfo, BlockKind, Config};
use btgeneric::templates::{AccessMode, MisalignPlan};
use ia32::mem::GuestMem;

/// Span names of the replayed stages.
pub mod call {
    /// `ia32::decode::decode`, once per instruction of a block.
    pub const DECODE: &str = "ia32::decode::decode";
    /// `btgeneric::cold::discover::discover`.
    pub const DISCOVER: &str = "btgeneric::cold::discover::discover";
    /// `btgeneric::cold::liveness::analyze`.
    pub const LIVENESS: &str = "btgeneric::cold::liveness::analyze";
    /// `btgeneric::cold::gen::generate`.
    pub const GEN: &str = "btgeneric::cold::gen::generate";
    /// One replay of one block.
    pub const BLOCK: &str = "replay-block";
}

/// Mean host microseconds per block of each cold stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCost {
    /// Blocks replayed (per repetition).
    pub blocks: u64,
    /// Decoding every instruction of the block.
    pub decode_us: f64,
    /// Region discovery from the block's entry.
    pub discover_us: f64,
    /// EFLAGS liveness over the region.
    pub liveness_us: f64,
    /// Template generation of the block.
    pub gen_us: f64,
}

/// Replays every live block of every engine in `engines` until at
/// least `min_s` host seconds were spent in the stages, as
/// span-recorder run `run`.
pub fn replay(
    engines: &[(&GuestMem, &[BlockInfo], &Config)],
    spans: &mut Spans,
    run: u32,
    min_s: f64,
) -> StageCost {
    spans.set_run(run);
    let mut cost = StageCost::default();
    let mut total = [0.0f64; 4];
    let mut reps = 0u64;
    while reps == 0 || total.iter().sum::<f64>() < min_s {
        let mut blocks = 0;
        for &(mem, infos, cfg) in engines {
            for b in infos.iter().filter(|b| !b.evicted) {
                let top = spans.open(call::BLOCK, None);
                if let Some(t) = replay_block(mem, b, cfg, spans, top) {
                    for (acc, t) in total.iter_mut().zip(t) {
                        *acc += t;
                    }
                    blocks += 1;
                }
                spans.close(top);
            }
        }
        cost.blocks = blocks;
        reps += 1;
        if blocks == 0 {
            break;
        }
    }
    let per = 1e6 / (cost.blocks.max(1) * reps) as f64;
    cost.decode_us = total[0] * per;
    cost.discover_us = total[1] * per;
    cost.liveness_us = total[2] * per;
    cost.gen_us = total[3] * per;
    cost
}

/// Host seconds of the four stages for one block, or `None` when the
/// block no longer decodes or generates (such blocks are skipped).
fn replay_block(
    mem: &GuestMem,
    b: &BlockInfo,
    cfg: &Config,
    spans: &mut Spans,
    top: SpanId,
) -> Option<[f64; 4]> {
    let (start, end) = b.src_range;
    let bytes = mem
        .fetch(start as u64, end.checked_sub(start)? as usize)
        .ok()?;
    let mut decode_s = 0.0;
    let mut at = 0;
    while at < bytes.len() {
        let (r, t) = spans.time(call::DECODE, Some(top), || {
            ia32::decode::decode(&bytes[at..], start + at as u32)
        });
        decode_s += t;
        at += r.ok()?.1;
    }
    let (region, discover_s) = spans.time(call::DISCOVER, Some(top), || discover(mem, b.eip));
    let (liveness, liveness_s) = spans.time(call::LIVENESS, Some(top), || analyze(&region));
    let default = match b.kind {
        BlockKind::ColdV2 => AccessMode::DetectAvoid,
        _ if cfg.enable_misalign_avoidance => AccessMode::Probe,
        _ => AccessMode::Fast,
    };
    let input = ColdGenInput {
        region: &region,
        liveness: &liveness,
        entry: b.eip,
        block_id: b.id,
        counter_addr: b.counter_addr,
        edge_counters: b.edge_counters,
        heat_threshold: if cfg.enable_hot {
            cfg.heat_threshold
        } else {
            0
        },
        misalign: MisalignPlan {
            default,
            overrides: b.misalign_overrides.clone(),
            info_base: b.misinfo_base,
            block_id: b.id,
        },
        spec: b.spec,
        flag_liveness: cfg.enable_flag_liveness,
        fuse: cfg.enable_fusion,
        inline_fp_checks: b.inline_fp || !cfg.enable_fp_spec,
        smc_check: None,
        ic_slot: b.ic_slot,
        accel: cfg.enable_indirect_accel,
        plain: b.indirect_plain,
        superinst: None,
        base: b.range.0,
    };
    let (gen, gen_s) = spans.time(call::GEN, Some(top), || generate(&input));
    gen.ok()?;
    Some([decode_s, discover_s, liveness_s, gen_s])
}
