//! Hot IL optimizations (paper §2 hot-phase list): local value
//! numbering (covering compound-address CSE, register-value tracking,
//! copy propagation, and redundant-load elimination) and dead-code
//! elimination.

use super::trace::HotIl;
use ipf::inst::{Op, Reg, Target};
use ipf::regs::{Gr, P0};
use std::collections::HashMap;

fn is_state_reg(r: Reg) -> bool {
    match r {
        Reg::G(g) => !g.is_virtual() && g.0 != 0,
        Reg::F(f) => !f.is_virtual() && f.0 > 1,
        Reg::P(p) => !p.is_virtual() && p.0 != 0,
        Reg::B(_) => true,
    }
}

/// Local value numbering over the trace. Pure integer ops (and loads,
/// versioned by the store count) with identical canonicalized operands
/// are deduplicated; uses are rewritten through a substitution map.
pub(super) fn lvn(ils: &mut Vec<HotIl>) {
    // Only virtuals with a single definition participate (deleting one
    // of several defs, or replacing uses with a later-redefined holder,
    // would be wrong).
    let def_count = virtual_def_counts(ils.iter().map(|il| &il.inst));
    let mut subst: HashMap<u16, Gr> = HashMap::new(); // virtual -> replacement
                                                      // Copy propagation: virtual v is a copy of physical p taken at
                                                      // version n; uses of v read p directly while p is unmodified.
    let mut copy_of: HashMap<u16, (u16, u64)> = HashMap::new();
    let mut versions: HashMap<(u8, u16), u64> = HashMap::new();
    let mut mem_version: u64 = 0;
    let mut table: HashMap<String, Gr> = HashMap::new();
    let mut keep: Vec<bool> = vec![true; ils.len()];

    for (i, il) in ils.iter_mut().enumerate() {
        // Rewrite uses through the substitution and copy maps.
        il.inst.op.map_regs(&mut |r, is_def| match r {
            Reg::G(g) if !is_def && g.is_virtual() => {
                if let Some(&h) = subst.get(&g.0) {
                    return Reg::G(h);
                }
                if let Some(&(p, ver)) = copy_of.get(&g.0) {
                    if versions.get(&(0, p)).copied().unwrap_or(0) == ver {
                        return Reg::G(Gr(p));
                    }
                }
                Reg::G(g)
            }
            other => other,
        });

        let op = il.inst.op;
        if op.is_store() {
            mem_version += 1;
        }
        if op.is_branch() {
            // Conservatively cut value numbering at control flow.
            table.clear();
            continue;
        }
        // Bump versions of defined non-virtual registers.
        op.visit_regs(&mut |r, is_def| {
            if is_def {
                let key = match r {
                    Reg::G(g) if !g.is_virtual() => Some((0u8, g.0)),
                    Reg::F(f) if !f.is_virtual() => Some((1, f.0)),
                    Reg::P(p) if !p.is_virtual() => Some((2, p.0)),
                    _ => None,
                };
                if let Some(k) = key {
                    *versions.entry(k).or_default() += 1;
                }
            }
        });

        if il.inst.qp != P0 {
            continue; // predicated ops are not LVN candidates
        }
        let (lvn_ok, dest) = lvn_candidate(&op);
        let Some(dest) = dest else { continue };
        if !lvn_ok || !dest.is_virtual() || def_count.get(&dest.0).copied().unwrap_or(0) != 1 {
            continue;
        }
        // Build the canonical key: the op with its destination zeroed
        // and physical operands tagged with their version.
        let mut key_op = op;
        key_op.map_regs(&mut |r, is_def| {
            if is_def {
                return match r {
                    Reg::G(_) => Reg::G(Gr(0)),
                    other => other,
                };
            }
            r
        });
        let mut key = format!("{key_op:?}");
        op.visit_regs(&mut |r, is_def| {
            if !is_def {
                let vkey = match r {
                    Reg::G(g) if !g.is_virtual() => Some((0u8, g.0)),
                    Reg::F(f) if !f.is_virtual() => Some((1, f.0)),
                    Reg::P(p) if !p.is_virtual() => Some((2, p.0)),
                    _ => None,
                };
                if let Some(k) = vkey {
                    key.push_str(&format!(
                        "|v{}:{}",
                        k.1,
                        versions.get(&k).copied().unwrap_or(0)
                    ));
                }
            }
        });
        if matches!(op, Op::Ld { .. }) {
            key.push_str(&format!("|mem{mem_version}"));
        }
        match table.get(&key) {
            Some(&holder) => {
                subst.insert(dest.0, holder);
                keep[i] = false;
            }
            None => {
                table.insert(key, dest);
                // Record pure copies of physical registers for
                // copy propagation (the op stays; DCE removes it once
                // every use has been redirected).
                if let Op::AddImm { d, imm: 0, a } = op {
                    if d.is_virtual() && !a.is_virtual() && a.0 != 0 {
                        let ver = versions.get(&(0, a.0)).copied().unwrap_or(0);
                        copy_of.insert(d.0, (a.0, ver));
                    }
                }
            }
        }
    }
    let mut idx = 0;
    ils.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

/// Whether an op is a pure, deduplicable computation; returns its single
/// GR destination.
fn lvn_candidate(op: &Op) -> (bool, Option<Gr>) {
    use Op::*;
    match *op {
        Add { d, .. }
        | Sub { d, .. }
        | AddImm { d, .. }
        | SubImm { d, .. }
        | And { d, .. }
        | Or { d, .. }
        | Xor { d, .. }
        | AndCm { d, .. }
        | AndImm { d, .. }
        | OrImm { d, .. }
        | XorImm { d, .. }
        | Shladd { d, .. }
        | ShlImm { d, .. }
        | ShlVar { d, .. }
        | ShrImm { d, .. }
        | ShrVar { d, .. }
        | Extr { d, .. }
        | Dep { d, .. }
        | DepZ { d, .. }
        | Sxt { d, .. }
        | Zxt { d, .. }
        | Popcnt { d, .. }
        | Movl { d, .. } => (true, Some(d)),
        // Non-speculative loads are value-numbered against the store
        // counter (redundant-load elimination).
        Ld { d, spec: false, .. } => (true, Some(d)),
        _ => (false, None),
    }
}

/// Dead-code elimination: drops ops whose only effects are writes to
/// virtual registers that nothing reads.
pub(super) fn dce(ils: &mut Vec<HotIl>) {
    let n = ils.len();
    let mut keep = vec![false; n];
    let mut live: std::collections::HashSet<(u8, u16)> = std::collections::HashSet::new();
    for i in (0..n).rev() {
        let il = &ils[i];
        let op = &il.inst.op;
        let mut side_effect = op.is_store()
            || op.is_branch()
            || op.can_fault()
            || il.inst.qp != P0
            || matches!(op, Op::Mf | Op::MovToBr { .. });
        // Writes to non-virtual (architectural) registers are effects.
        let mut defines_live_virtual = false;
        op.visit_regs(&mut |r, is_def| {
            if is_def {
                if is_state_reg(r) {
                    side_effect = true;
                }
                let key = reg_key(r);
                if let Some(k) = key {
                    if live.contains(&k) {
                        defines_live_virtual = true;
                    }
                }
            }
        });
        if side_effect || defines_live_virtual {
            keep[i] = true;
            // Defs are satisfied; kill them (only unconditional defs
            // fully cover the register), then mark uses live.
            if il.inst.qp == P0 {
                op.visit_regs(&mut |r, is_def| {
                    if is_def {
                        if let Some(k) = reg_key(r) {
                            live.remove(&k);
                        }
                    }
                });
            }
            if let Some(k) = reg_key(Reg::P(il.inst.qp)) {
                live.insert(k);
            }
            op.visit_regs(&mut |r, is_def| {
                if !is_def {
                    if let Some(k) = reg_key(r) {
                        live.insert(k);
                    }
                }
            });
        }
    }
    let mut idx = 0;
    ils.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    // Labels in targets are unaffected.
    let _ = Target::Abs(0);
}

fn reg_key(r: Reg) -> Option<(u8, u16)> {
    match r {
        Reg::G(g) if g.is_virtual() => Some((0, g.0)),
        Reg::F(f) if f.is_virtual() => Some((1, f.0)),
        Reg::P(p) if p.is_virtual() => Some((2, p.0)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Typed-IR passes (the `enable_hot_ir` pipeline).
// ---------------------------------------------------------------------------

use super::ir::{self, IrInst, MemEffect};
use super::liveness;
use crate::state::GR_EFLAGS;

/// Runs local value numbering on typed IR (shared with the template
/// path); effects are recomputed afterwards.
pub(super) fn lvn_ir(irs: &mut Vec<IrInst>) {
    let mut ils: Vec<HotIl> = irs.drain(..).map(IrInst::into_hotil).collect();
    lvn(&mut ils);
    *irs = ir::annotate_owned(ils);
}

/// Runs dead-code elimination on typed IR (shared with the template
/// path); effects are recomputed afterwards.
pub(super) fn dce_ir(irs: &mut Vec<IrInst>) {
    let mut ils: Vec<HotIl> = irs.drain(..).map(IrInst::into_hotil).collect();
    dce(&mut ils);
    *irs = ir::annotate_owned(ils);
}

/// The `addl` long-immediate range templates use for `mov_imm`; folds
/// outside it materialize through `movl` instead.
fn fits_addl(v: u64) -> bool {
    let s = v as i64;
    (-0x1F_FFFF..=0x1F_FFFF).contains(&s)
}

/// Constant and copy propagation over the typed IR.
///
/// Facts are only learned from unpredicated defs of single-definition
/// virtuals (a predicated def merges, a redefinition invalidates), so a
/// recorded constant or copy source is valid at every later use. Folds
/// are deliberately minimal — the address arithmetic templates emit:
/// `movl`/`addl`-materialized constants, `add` with a constant operand,
/// immediate-add chains, and shifts of constants.
pub(super) fn propagate(irs: &mut [IrInst]) {
    let def_count = virtual_def_counts(irs.iter().map(|x| &x.inst));
    let single = |g: Gr, dc: &HashMap<u16, u32>| dc.get(&g.0).copied() == Some(1);

    let mut konst: HashMap<u16, u64> = HashMap::new();
    let mut copy: HashMap<u16, u16> = HashMap::new();
    for x in irs.iter_mut() {
        // Copy-propagate uses first (sources are single-def, so the
        // replacement is valid wherever the original was).
        x.inst.op.map_regs(&mut |r, is_def| match r {
            Reg::G(g) if !is_def && g.is_virtual() => match copy.get(&g.0) {
                Some(&s) => Reg::G(Gr(s)),
                None => r,
            },
            _ => r,
        });

        // Fold constants into the op.
        let kof = |g: Gr, k: &HashMap<u16, u64>| {
            if g.0 == 0 {
                Some(0)
            } else if g.is_virtual() {
                k.get(&g.0).copied()
            } else {
                None
            }
        };
        let mut rewrite: Option<Op> = None;
        match x.inst.op {
            Op::Add { d, a, b } => match (kof(a, &konst), kof(b, &konst)) {
                (Some(va), Some(vb)) => {
                    let v = va.wrapping_add(vb);
                    rewrite = Some(if fits_addl(v) {
                        Op::AddImm {
                            d,
                            imm: v as i64,
                            a: ipf::regs::R0,
                        }
                    } else {
                        Op::Movl { d, imm: v }
                    });
                }
                (Some(va), None) if fits_addl(va) => {
                    rewrite = Some(Op::AddImm {
                        d,
                        imm: va as i64,
                        a: b,
                    });
                }
                (None, Some(vb)) if fits_addl(vb) => {
                    rewrite = Some(Op::AddImm {
                        d,
                        imm: vb as i64,
                        a,
                    });
                }
                _ => {}
            },
            Op::AddImm { d, imm, a } => {
                if let Some(va) = kof(a, &konst) {
                    let v = va.wrapping_add(imm as u64);
                    if a.0 != 0 {
                        rewrite = Some(if fits_addl(v) {
                            Op::AddImm {
                                d,
                                imm: v as i64,
                                a: ipf::regs::R0,
                            }
                        } else {
                            Op::Movl { d, imm: v }
                        });
                    }
                }
            }
            Op::ShlImm { d, a, count } => {
                if let Some(va) = kof(a, &konst) {
                    let v = va.wrapping_shl(count as u32);
                    rewrite = Some(if fits_addl(v) {
                        Op::AddImm {
                            d,
                            imm: v as i64,
                            a: ipf::regs::R0,
                        }
                    } else {
                        Op::Movl { d, imm: v }
                    });
                }
            }
            _ => {}
        }
        if let Some(op) = rewrite {
            x.inst.op = op;
        }

        // Learn facts from this op.
        if x.inst.qp == P0 {
            match x.inst.op {
                Op::Movl { d, imm } if d.is_virtual() && single(d, &def_count) => {
                    konst.insert(d.0, imm);
                }
                Op::AddImm { d, imm, a } if a.0 == 0 && d.is_virtual() && single(d, &def_count) => {
                    konst.insert(d.0, imm as u64);
                }
                Op::AddImm { d, imm: 0, a }
                    if a.is_virtual()
                        && d.is_virtual()
                        && single(d, &def_count)
                        && single(a, &def_count) =>
                {
                    let src = copy.get(&a.0).copied().unwrap_or(a.0);
                    copy.insert(d.0, src);
                }
                _ => {}
            }
        }
    }
    for x in irs.iter_mut() {
        x.fx = ir::Effects::of(&x.inst);
    }
}

/// Cross-block EFLAGS elimination: deletes lazy-flags materializations
/// whose result is overwritten before any observation point. The
/// observation points are branches (side exits, the inline dispatch)
/// and ops that can fault (the recovery walk reads all guest state);
/// between those, only the final write into the EFLAGS home survives.
/// Deleting a write removes its reads, which can cascade through the
/// read-modify-write chains lazy flags build, so the pass iterates to a
/// fixpoint.
pub(super) fn eflags_elim(irs: &mut Vec<IrInst>) {
    loop {
        let lv = liveness::analyze(irs);
        let mut keep = vec![true; irs.len()];
        let mut removed = false;
        for (i, x) in irs.iter().enumerate() {
            if !x.fx.writes_eflags || lv.eflags_out[i] {
                continue;
            }
            if x.fx.is_branch || x.fx.can_fault || x.fx.mem == MemEffect::Store {
                continue;
            }
            // Deletable only if every def is the (dead) EFLAGS home or
            // a virtual nothing reads afterwards.
            let mut only_dead = true;
            x.inst.op.visit_regs(&mut |r, is_def| {
                if !is_def {
                    return;
                }
                let dead = match r {
                    Reg::G(g) if g == GR_EFLAGS => true,
                    _ => match liveness::virt_key(r) {
                        Some(k) => !lv.live_after(i, k),
                        None => false,
                    },
                };
                only_dead &= dead;
            });
            if only_dead {
                keep[i] = false;
                removed = true;
            }
        }
        if !removed {
            return;
        }
        let mut idx = 0;
        irs.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }
}

/// Number of definitions of each virtual general register.
fn virtual_def_counts<'a>(insts: impl Iterator<Item = &'a ipf::Inst>) -> HashMap<u16, u32> {
    let mut counts: HashMap<u16, u32> = HashMap::new();
    for inst in insts {
        inst.op.visit_regs(&mut |r, is_def| {
            if let Reg::G(g) = r {
                if is_def && g.is_virtual() {
                    *counts.entry(g.0).or_default() += 1;
                }
            }
        });
    }
    counts
}

/// Whether an immediate, taken as a 64-bit value, has bits 63..32 zero.
fn imm_upper_zero(imm: i64) -> bool {
    (0..1 << 32).contains(&imm)
}

/// Whether `op` defines its GR destination with bits 63..32 zero,
/// given which source registers are already known to be zero-extended.
/// Anything that can carry or sign-extend past bit 31 (`add`, `sub`,
/// `shladd`, `adds` with a nonzero immediate, `sxt`, left shifts) is
/// never known.
fn defines_upper_zero(op: &Op, known: &dyn Fn(Gr) -> bool) -> bool {
    use Op::*;
    match *op {
        Ld { sz, .. } => sz <= 4,
        Zxt { .. } | Popcnt { .. } => true,
        Movl { imm, .. } => imm < 1 << 32,
        AddImm { imm, a, .. } => (a.0 == 0 && imm_upper_zero(imm)) || (imm == 0 && known(a)),
        And { a, b, .. } => known(a) || known(b),
        AndCm { a, .. } => known(a),
        AndImm { imm, a, .. } => imm_upper_zero(imm) || known(a),
        Or { a, b, .. } | Xor { a, b, .. } => known(a) && known(b),
        OrImm { imm, a, .. } | XorImm { imm, a, .. } => imm_upper_zero(imm) && known(a),
        Extr {
            len, signed: false, ..
        } => len <= 32,
        // Arithmetic and logical right shifts agree on a value whose
        // bit 63 is clear.
        ShrImm { a, .. } | ShrVar { a, .. } => known(a),
        Dep {
            target, pos, len, ..
        } => pos as u32 + len as u32 <= 32 && known(target),
        DepZ { pos, len, .. } => pos as u32 + len as u32 <= 32,
        _ => false,
    }
}

/// Known-upper-zero analysis: rewrites `zxt4 d = a` into the copy
/// `d = a` when bits 63..32 of `a` are already known to be zero.
///
/// A forward scan over the straight-line trace tracks which general
/// registers are zero-extended. The guest homes are at trace entry —
/// every writer keeps them so (`state::machine_to_cpu` asserts it) —
/// and `r0` always is; every other register becomes known only through
/// a def [`defines_upper_zero`] vouches for. A predicated def is known
/// only if the old and the new value both are, and a virtual with
/// several defs is never known.
pub(super) fn drop_redundant_zext(irs: &mut [IrInst]) {
    use crate::state::GR_GUEST;
    let def_count = virtual_def_counts(irs.iter().map(|x| &x.inst));
    let mut known: std::collections::HashSet<u16> = (GR_GUEST..GR_GUEST + 8).collect();
    for x in irs.iter_mut() {
        let zero = |g: Gr| g.0 == 0 || known.contains(&g.0);
        if let Op::Zxt { d, a, size: 4 } = x.inst.op {
            if zero(a) {
                x.inst.op = Op::AddImm { d, imm: 0, a };
                x.fx = ir::Effects::of(&x.inst);
            }
        }
        let new_zero = defines_upper_zero(&x.inst.op, &zero);
        for r in x.inst.op.defs() {
            let Reg::G(g) = r else { continue };
            let single = !g.is_virtual() || def_count.get(&g.0) == Some(&1);
            if single && new_zero && (x.inst.qp == P0 || known.contains(&g.0)) {
                known.insert(g.0);
            } else {
                known.remove(&g.0);
            }
        }
    }
}

/// Guest-home read forwarding: after an unpredicated `gX = v` copy of
/// a single-def virtual, later reads of the guest home `gX` read `v`
/// until `gX` is redefined.
///
/// The writeback itself stays, so the home is canonical at every side
/// exit and commit point (the scheduler keeps state writes on their
/// side of each barrier) and recovery maps, exit stubs, signals and
/// SMC recovery see what they always did. The writeback only leaves
/// the dependence chain of the instructions that follow it.
pub(super) fn forward_guest_reads(irs: &mut [IrInst]) {
    use crate::state::GR_GUEST;
    let home = |g: Gr| (GR_GUEST..GR_GUEST + 8).contains(&g.0);
    let def_count = virtual_def_counts(irs.iter().map(|x| &x.inst));
    let mut fwd: HashMap<u16, Gr> = HashMap::new();
    for x in irs.iter_mut() {
        x.inst.op.map_regs(&mut |r, is_def| match r {
            Reg::G(g) if !is_def => fwd.get(&g.0).map_or(r, |&v| Reg::G(v)),
            _ => r,
        });
        x.fx = ir::Effects::of(&x.inst);
        for r in x.inst.op.defs() {
            if let Reg::G(g) = r {
                fwd.remove(&g.0);
            }
        }
        if let Op::AddImm { d, imm: 0, a } = x.inst.op {
            if x.inst.qp == P0 && home(d) && a.is_virtual() && def_count.get(&a.0) == Some(&1) {
                fwd.insert(d.0, a);
            }
        }
    }
}

/// Dead guest-writeback elision: deletes an unpredicated,
/// non-faulting write into a guest GPR home when the register's next
/// event is an unconditional full redefinition, with no intervening
/// read, branch, faulting op, or predicated op — nothing between the
/// two writes can observe the first. Superinstruction fusion makes
/// these common: the fused emitters elide temporaries *inside* an
/// idiom, and this pass catches writebacks that become dead only once
/// adjacent idioms land on the same trace. Only enabled alongside
/// `enable_superinst`, keeping the baseline IR pipeline byte-for-byte
/// unchanged.
pub(super) fn elide_dead_guest_writes(irs: &mut Vec<IrInst>) {
    use crate::state::GR_GUEST;
    // The op's sole def is a physical guest GPR home that the op does
    // not also read (a read-modify-write needs the prior value).
    let guest_def = |x: &IrInst| -> Option<Gr> {
        if x.inst.qp != P0
            || x.fx.is_branch
            || x.fx.can_fault
            || x.fx.writes_eflags
            || x.fx.mem != MemEffect::None
        {
            return None;
        }
        // Two passes: collect defs first, then look for a read of the
        // def register — operand visit order must not hide an RMW.
        let mut def = None;
        let mut ok = true;
        x.inst.op.visit_regs(&mut |r, is_def| {
            if !is_def {
                return;
            }
            match r {
                Reg::G(g) if (GR_GUEST..GR_GUEST + 8).contains(&g.0) && def.is_none() => {
                    def = Some(g);
                }
                _ => ok = false,
            }
        });
        let g = def?;
        if !ok {
            return None;
        }
        let mut reads = false;
        x.inst.op.visit_regs(&mut |r, is_def| {
            if !is_def && r == Reg::G(g) {
                reads = true;
            }
        });
        if reads {
            None
        } else {
            Some(g)
        }
    };
    let mut keep = vec![true; irs.len()];
    for i in 0..irs.len() {
        let Some(g) = guest_def(&irs[i]) else {
            continue;
        };
        // Reads are checked regardless of def order within an op, so a
        // later read-modify-write of `g` counts as an observation.
        let mut deletable = false;
        for x in irs[i + 1..].iter() {
            if x.fx.is_branch || x.fx.can_fault || x.inst.qp != P0 {
                break;
            }
            let mut reads = false;
            let mut redefs = false;
            x.inst.op.visit_regs(&mut |r, is_def| {
                if r == Reg::G(g) {
                    if is_def {
                        redefs = true;
                    } else {
                        reads = true;
                    }
                }
            });
            if reads {
                break;
            }
            if redefs {
                deletable = true;
                break;
            }
        }
        keep[i] = !deletable;
    }
    let mut idx = 0;
    irs.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Sink;
    use ipf::regs::R0;

    fn il(inst: ipf::Inst) -> HotIl {
        HotIl {
            inst,
            ia32_ip: 0,
            rec: None,
        }
    }

    #[test]
    fn lvn_dedups_identical_computation() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: v2,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 2, "duplicate EA computation removed");
        // The store now uses v1 twice.
        if let Op::St { addr, val, .. } = ils[1].inst.op {
            assert_eq!(addr, val);
        } else {
            panic!("store expected");
        }
    }

    #[test]
    fn lvn_respects_guest_register_versions() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm { d: g, imm: 1, a: g })), // g changes
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: g,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: v2,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 4, "not redundant after the write");
    }

    #[test]
    fn lvn_load_killed_by_store() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v1,
            })),
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v3,
                a: v1,
                b: v2,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v3,
            })),
        ];
        let before = ils.len();
        lvn(&mut ils);
        assert_eq!(ils.len(), before, "load after store must reload");
    }

    #[test]
    fn lvn_redundant_load_removed() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v1,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Ld {
                sz: 4,
                d: v2,
                addr: g,
                spec: false,
            })),
            il(ipf::Inst::new(Op::Add {
                d: v3,
                a: v1,
                b: v2,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: v3,
            })),
        ];
        lvn(&mut ils);
        assert_eq!(ils.len(), 3, "second load deduplicated");
    }

    #[test]
    fn dce_removes_unused_virtuals() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: R0,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 2,
                a: R0,
            })), // dead
            il(ipf::Inst::new(Op::AddImm {
                d: g,
                imm: 0,
                a: v1,
            })),
        ];
        dce(&mut ils);
        assert_eq!(ils.len(), 2);
    }

    #[test]
    fn dce_keeps_stores_and_guest_writes() {
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(3);
        let mut ils = vec![
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: R0,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v1,
                val: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: g,
                imm: 5,
                a: R0,
            })),
        ];
        dce(&mut ils);
        assert_eq!(ils.len(), 3);
    }

    #[test]
    fn propagate_folds_constant_address_chains() {
        let mut s = Sink::new();
        let (v1, v2, v3) = (s.vg(), s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut irs = ir::annotate(&[
            il(ipf::Inst::new(Op::Movl { d: v1, imm: 0x1000 })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 8,
                a: v1,
            })),
            il(ipf::Inst::new(Op::Add { d: v3, a: g, b: v2 })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v3,
                val: g,
            })),
        ]);
        propagate(&mut irs);
        assert!(
            matches!(irs[2].inst.op, Op::AddImm { imm: 0x1008, a, .. } if a == g),
            "constant chain folded into the add: {:?}",
            irs[2].inst.op
        );
        dce_ir(&mut irs);
        assert_eq!(irs.len(), 2, "dead constant producers cleaned up");
    }

    #[test]
    fn propagate_forwards_copies() {
        let mut s = Sink::new();
        let (v1, v2) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(0);
        let mut irs = ir::annotate(&[
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 3,
                a: g,
            })),
            il(ipf::Inst::new(Op::AddImm {
                d: v2,
                imm: 0,
                a: v1,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: v2,
                val: g,
            })),
        ]);
        propagate(&mut irs);
        assert!(
            matches!(irs[2].inst.op, Op::St { addr, .. } if addr == v1),
            "store reads through the copy"
        );
    }

    /// Runs the zero-extension pass over `prefix` followed by
    /// `zxt4 v = src` and reports whether that `zxt4` became a copy.
    fn zxt_dropped(s: &mut Sink, prefix: &[ipf::Inst], src: Gr) -> bool {
        let v = s.vg();
        let mut ils: Vec<HotIl> = prefix.iter().map(|&i| il(i)).collect();
        ils.push(il(ipf::Inst::new(Op::Zxt {
            d: v,
            a: src,
            size: 4,
        })));
        let mut irs = ir::annotate(&ils);
        drop_redundant_zext(&mut irs);
        match irs.last().unwrap().inst.op {
            Op::AddImm { d, imm: 0, a } => {
                assert_eq!((d, a), (v, src), "the copy keeps both operands");
                true
            }
            Op::Zxt { .. } => false,
            other => panic!("unexpected rewrite {other:?}"),
        }
    }

    #[test]
    fn zext_known_sources() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let g = crate::state::guest_gpr(2);
        assert!(zxt_dropped(&mut s, &[], g), "guest homes");
        assert!(zxt_dropped(&mut s, &[], R0), "r0");
        for sz in [1, 2, 4] {
            let v = s.vg();
            let ld = I::new(Op::Ld {
                sz,
                d: v,
                addr: g,
                spec: false,
            });
            assert!(zxt_dropped(&mut s, &[ld], v), "ld{sz}");
        }
        let v = s.vg();
        let ld8 = I::new(Op::Ld {
            sz: 8,
            d: v,
            addr: g,
            spec: false,
        });
        assert!(!zxt_dropped(&mut s, &[ld8], v), "ld8");
        let v = s.vg();
        let zxt1 = I::new(Op::Zxt {
            d: v,
            a: g,
            size: 1,
        });
        assert!(zxt_dropped(&mut s, &[zxt1], v), "zxt1");
        let v = s.vg();
        let pop = I::new(Op::Popcnt { d: v, a: g });
        assert!(zxt_dropped(&mut s, &[pop], v), "popcnt");
        let v = s.vg();
        let small = I::new(Op::Movl {
            d: v,
            imm: 0xFFFF_FFFF,
        });
        assert!(zxt_dropped(&mut s, &[small], v), "movl below 2^32");
        let v = s.vg();
        let big = I::new(Op::Movl { d: v, imm: 1 << 32 });
        assert!(!zxt_dropped(&mut s, &[big], v), "movl of 2^32");
        let v = s.vg();
        let mov = I::new(Op::AddImm {
            d: v,
            imm: 0x1234,
            a: R0,
        });
        assert!(zxt_dropped(&mut s, &[mov], v), "mov of a small constant");
        let v = s.vg();
        let neg = I::new(Op::AddImm {
            d: v,
            imm: -1,
            a: R0,
        });
        assert!(!zxt_dropped(&mut s, &[neg], v), "mov of -1");
    }

    #[test]
    fn zext_logic_rules() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let g = crate::state::guest_gpr(0);
        // `u` has unknown upper bits (an add can carry past bit 31).
        let u = s.vg();
        let add = I::new(Op::Add { d: u, a: g, b: g });
        let case = |s: &mut Sink, op: &dyn Fn(Gr) -> Op| {
            let d = s.vg();
            zxt_dropped(s, &[add, I::new(op(d))], d)
        };
        assert!(case(&mut s, &|d| Op::And { d, a: u, b: g }), "and, known b");
        assert!(case(&mut s, &|d| Op::And { d, a: g, b: u }), "and, known a");
        assert!(
            !case(&mut s, &|d| Op::And { d, a: u, b: u }),
            "and, unknown"
        );
        assert!(
            case(&mut s, &|d| Op::AndCm { d, a: g, b: u }),
            "andcm, known a"
        );
        assert!(
            !case(&mut s, &|d| Op::AndCm { d, a: u, b: g }),
            "andcm, only b"
        );
        assert!(case(&mut s, &|d| Op::AndImm {
            d,
            imm: 0xFFF,
            a: u
        }));
        assert!(
            !case(&mut s, &|d| Op::AndImm { d, imm: -8, a: u }),
            "and -8"
        );
        assert!(
            case(&mut s, &|d| Op::AndImm { d, imm: -8, a: g }),
            "known a"
        );
        assert!(
            case(&mut s, &|d| Op::Or { d, a: g, b: g }),
            "or, both known"
        );
        assert!(
            !case(&mut s, &|d| Op::Or { d, a: g, b: u }),
            "or, one unknown"
        );
        assert!(
            case(&mut s, &|d| Op::Xor { d, a: g, b: R0 }),
            "xor, both known"
        );
        assert!(
            !case(&mut s, &|d| Op::Xor { d, a: u, b: g }),
            "xor, one unknown"
        );
        assert!(case(&mut s, &|d| Op::XorImm { d, imm: 0xFF, a: g }));
        assert!(!case(&mut s, &|d| Op::XorImm { d, imm: -1, a: g }), "not");
        let extr = |len, signed| {
            move |d| Op::Extr {
                d,
                a: u,
                pos: 3,
                len,
                signed,
            }
        };
        assert!(case(&mut s, &extr(32, false)), "extr.u len 32");
        assert!(!case(&mut s, &extr(33, false)), "extr.u len 33");
        assert!(!case(&mut s, &extr(8, true)), "extr (signed)");
        let shr = |a, signed| {
            move |d| Op::ShrImm {
                d,
                a,
                count: 4,
                signed,
            }
        };
        assert!(case(&mut s, &shr(g, false)), "shr.u of known");
        assert!(case(&mut s, &shr(g, true)), "shr of known");
        assert!(!case(&mut s, &shr(u, false)), "shr.u of unknown");
        let dep = |target, len| {
            move |d| Op::Dep {
                d,
                src: u,
                target,
                pos: 8,
                len,
            }
        };
        assert!(case(&mut s, &dep(g, 8)), "byte merge into a home");
        assert!(!case(&mut s, &dep(g, 32)), "field past bit 31");
        assert!(!case(&mut s, &dep(u, 8)), "unknown background");
    }

    #[test]
    fn zext_never_known_after_carrying_ops() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let g = crate::state::guest_gpr(1);
        let carrying: [&dyn Fn(Gr) -> Op; 6] = [
            &|d| Op::Add { d, a: g, b: g },
            &|d| Op::Sub { d, a: g, b: g },
            &|d| Op::Shladd {
                d,
                a: g,
                count: 2,
                b: g,
            },
            &|d| Op::AddImm { d, imm: 4, a: g },
            &|d| Op::AddImm { d, imm: -1, a: g },
            &|d| Op::Sxt { d, a: g, size: 4 },
        ];
        for op in carrying {
            let d = s.vg();
            let def = I::new(op(d));
            assert!(!zxt_dropped(&mut s, &[def], d), "{:?}", def.op);
        }
        // A home redefined by a carrying op stops being known.
        let add = I::new(Op::AddImm { d: g, imm: 1, a: g });
        assert!(!zxt_dropped(&mut s, &[add], g), "home after adds");
        // ... and a copy of a known value makes it known again.
        let v = s.vg();
        let copy = I::new(Op::AddImm { d: g, imm: 0, a: v });
        let zxt = I::new(Op::Zxt {
            d: v,
            a: g,
            size: 4,
        });
        assert!(zxt_dropped(&mut s, &[add, zxt, copy], g), "home after copy");
    }

    #[test]
    fn zext_predicated_and_multi_def() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let g = crate::state::guest_gpr(3);
        let p = s.vp();
        let (known, unknown) = (s.vg(), s.vg());
        let setup = [
            I::new(Op::Zxt {
                d: known,
                a: g,
                size: 2,
            }),
            I::new(Op::Add {
                d: unknown,
                a: g,
                b: g,
            }),
        ];
        // Predicated def of a known value over a known home: known.
        let mut prefix = setup.to_vec();
        prefix.push(I::pred(
            p,
            Op::AddImm {
                d: g,
                imm: 0,
                a: known,
            },
        ));
        assert!(zxt_dropped(&mut s, &prefix, g), "known merged into known");
        // Predicated def of an unknown value: the merge is unknown.
        let mut prefix = setup.to_vec();
        prefix.push(I::pred(
            p,
            Op::AddImm {
                d: g,
                imm: 0,
                a: unknown,
            },
        ));
        assert!(!zxt_dropped(&mut s, &prefix, g), "unknown merged in");
        // Predicated known def over an unknown old value: unknown.
        let mut prefix = setup.to_vec();
        prefix.push(I::new(Op::AddImm {
            d: g,
            imm: 0,
            a: unknown,
        }));
        prefix.push(I::pred(
            p,
            Op::AddImm {
                d: g,
                imm: 0,
                a: known,
            },
        ));
        assert!(
            !zxt_dropped(&mut s, &prefix, g),
            "known merged into unknown"
        );
        // A virtual with two defs is never known, even if both are.
        let m = s.vg();
        let twice = [
            I::new(Op::Zxt {
                d: m,
                a: g,
                size: 1,
            }),
            I::new(Op::Zxt {
                d: m,
                a: g,
                size: 2,
            }),
        ];
        assert!(!zxt_dropped(&mut s, &twice, m), "multi-def virtual");
    }

    /// The source register of the store closing a forwarding test.
    fn stored_value(irs: &[IrInst]) -> Gr {
        match irs.last().unwrap().inst.op {
            Op::St { val, .. } => val,
            other => panic!("store expected, got {other:?}"),
        }
    }

    #[test]
    fn forwarding_reads_the_renamed_value() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let (v, addr) = (s.vg(), s.vg());
        let g = crate::state::guest_gpr(5);
        let mut irs = ir::annotate(&[
            il(I::new(Op::Ld {
                sz: 4,
                d: v,
                addr,
                spec: false,
            })),
            il(I::new(Op::AddImm { d: g, imm: 0, a: v })),
            il(I::new(Op::St {
                sz: 4,
                addr,
                val: g,
            })),
        ]);
        forward_guest_reads(&mut irs);
        assert_eq!(stored_value(&irs), v, "the read skips the home");
        assert!(
            matches!(irs[1].inst.op, Op::AddImm { d, a, .. } if d == g && a == v),
            "the writeback stays"
        );
        assert_eq!(irs[2].fx.guest_reads, 0, "effects recomputed");
    }

    #[test]
    fn forwarding_ends() {
        use ipf::inst::Inst as I;
        let mut s = Sink::new();
        let g = crate::state::guest_gpr(6);
        let (v, addr, p) = (s.vg(), s.vg(), s.vp());
        let ld = I::new(Op::Ld {
            sz: 4,
            d: v,
            addr,
            spec: false,
        });
        let copy = I::new(Op::AddImm { d: g, imm: 0, a: v });
        let st = I::new(Op::St {
            sz: 4,
            addr,
            val: g,
        });
        let run = |insts: &[I]| {
            let mut irs = ir::annotate(&insts.iter().map(|&i| il(i)).collect::<Vec<_>>());
            forward_guest_reads(&mut irs);
            irs
        };
        // The home is redefined: an RMW reads the forwarded value, but
        // later reads see the new home.
        let rmw = I::new(Op::AddImm { d: g, imm: 1, a: g });
        let irs = run(&[ld, copy, rmw, st]);
        assert!(matches!(irs[2].inst.op, Op::AddImm { a, .. } if a == v));
        assert_eq!(stored_value(&irs), g, "redefined home");
        // A predicated def ends forwarding too.
        let pdef = I::pred(
            p,
            Op::AddImm {
                d: g,
                imm: 7,
                a: R0,
            },
        );
        assert_eq!(
            stored_value(&run(&[ld, copy, pdef, st])),
            g,
            "predicated def"
        );
        // A predicated copy never starts it.
        let pcopy = I::pred(p, Op::AddImm { d: g, imm: 0, a: v });
        assert_eq!(stored_value(&run(&[ld, pcopy, st])), g, "predicated copy");
        // A multi-def virtual source never starts it.
        let again = I::new(Op::AddImm { d: v, imm: 1, a: v });
        assert_eq!(stored_value(&run(&[ld, again, copy, st])), g, "multi-def");
        // `adds` with a nonzero immediate is not a copy.
        let adds = I::new(Op::AddImm {
            d: g,
            imm: -1,
            a: v,
        });
        assert_eq!(stored_value(&run(&[ld, adds, st])), g, "adds -1");
    }

    #[test]
    fn eflags_elim_drops_overwritten_materializations() {
        use crate::state::GR_EFLAGS;
        let g = crate::state::guest_gpr(0);
        let mut irs = ir::annotate(&[
            // Dead: overwritten before any observer.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 1,
                a: R0,
            })),
            // Live: the faulting store observes it.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 2,
                a: R0,
            })),
            il(ipf::Inst::new(Op::St {
                sz: 4,
                addr: g,
                val: g,
            })),
            // Live: trace exit observes it.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 3,
                a: R0,
            })),
        ]);
        eflags_elim(&mut irs);
        assert_eq!(irs.len(), 3, "only the unobserved write is deleted");
        assert!(
            matches!(irs[0].inst.op, Op::AddImm { imm: 2, .. }),
            "the pre-fault write survives"
        );
    }

    #[test]
    fn eflags_elim_cascades_through_rmw_chains() {
        use crate::state::GR_EFLAGS;
        let mut s = Sink::new();
        let v1 = s.vg();
        let g = crate::state::guest_gpr(0);
        let mut irs = ir::annotate(&[
            // A lazy-flags RMW chain: compute a flag bit, merge it in.
            il(ipf::Inst::new(Op::AddImm {
                d: v1,
                imm: 1,
                a: g,
            })),
            il(ipf::Inst::new(Op::Dep {
                d: GR_EFLAGS,
                src: v1,
                target: GR_EFLAGS,
                pos: 0,
                len: 1,
            })),
            // Full overwrite before any observer kills the chain.
            il(ipf::Inst::new(Op::AddImm {
                d: GR_EFLAGS,
                imm: 0,
                a: R0,
            })),
        ]);
        eflags_elim(&mut irs);
        dce_ir(&mut irs);
        assert_eq!(irs.len(), 1, "merge deleted, then its input is dead");
        assert!(matches!(irs[0].inst.op, Op::AddImm { d, .. } if d == GR_EFLAGS));
    }
}
