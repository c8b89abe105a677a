//! The compiled execution backend: rule programs lowered to
//! closure-threaded native code over the flat arena store.
//!
//! Each guard and rule body is lowered once, when a scheduler is built,
//! straight from the (already lifted and sequentialized) AST into a tree
//! of monomorphized Rust closures threaded into a single callable, so
//! control flow stays structured and no node is dispatched at run time.
//! Operands flow through machine registers as closure return values,
//! let-bound locals become pre-resolved slots in a reusable
//! [`NativeFrame`], `Index`/`Field` on a let-bound base are fused into
//! direct slot accesses (no base clone), and method-call argument lists
//! of arity ≤ 2 live on the stack.
//!
//! **Cost parity is load-bearing.** Every closure charges exactly the ops
//! the AST interpreter ([`crate::exec::eval`]/[`crate::exec::exec`])
//! charges, at the same evaluation points, into the same [`Cost`] ledgers
//! (via `NativePort`, a closed port enum, so every charge and method call
//! compiles to direct code instead of a virtual call). Modeled
//! `cpu_cycles`/`fpga_cycles` are therefore bit-identical to the
//! interpreter's (the cycle-regression pins and the fuzz farm both assert
//! this). Only wall-clock time changes.
//!
//! Lowering returns `None` for `localGuard` bodies, unelaborated `Named`
//! targets, and unbound variables; the schedulers run the AST interpreter
//! for exactly those rules.
//!
//! ## Word-level lowering
//!
//! The target is a flat-arena store ([`Store::new_flat`]); tree-backed
//! stores are not lowered for at all (the schedulers interpret there). A
//! [`Design`]-derived layout table lets scalar subexpressions flow as
//! packed `u64` words end-to-end. Word-typed register reads, FIFO heads,
//! and regfile cells come through
//! [`Store::call_value_word_at`]/[`Store::call_action_word_at`] without
//! ever materializing a `Value`; field names and element offsets of
//! packed aggregates are resolved to bit offsets at lower time; and
//! `MkVec`/`MkStruct` arguments to `enq`/register writes are packed
//! directly into frame scratch words instead of building `Vec`/`Struct`
//! heap values. Guard probes lowered entirely to the word domain return
//! a bare `u64` verdict. Any expression the word pass cannot prove
//! chargeable-identically is lowered to a boxed-[`Value`] closure
//! instead, which charges the same [`Cost`] deltas at the same
//! evaluation points.

use crate::ast::{Action, Expr, PrimId, PrimMethod, Target};
use crate::design::Design;
use crate::error::{ExecError, ExecResult};
use crate::exec::RuleOutcome;
use crate::prim::PrimSpec;
use crate::store::{Cost, ShadowPolicy, Store, Txn, TxnLog};
use crate::types::{Layout, LayoutKind};
use crate::value::{
    copy_bits, copy_bits_within, get_bits, mask, put_bits, sign_extend, BinOp, UnOp, Value,
};
use crate::xform::RulePlan;
use std::fmt;
use std::sync::Arc;

/// Scratch space for compiled rules: the local-slot file. One frame is
/// kept per scheduler and reused across every guard and body execution;
/// it grows to the largest program's footprint once and is never cleared
/// (every slot is stored by its `let` before any load can see it).
#[derive(Debug, Default)]
pub struct NativeFrame {
    slots: Vec<Value>,
    /// Word scratch: unboxed scalar locals (one word each) and
    /// bit-packed aggregate regions, addressed by bit offset. Grows like
    /// `slots` and is likewise never cleared.
    words: Vec<u64>,
}

impl NativeFrame {
    /// A fresh frame with no slots.
    pub fn new() -> NativeFrame {
        NativeFrame::default()
    }

    #[inline]
    fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Value::Bool(false));
        }
    }

    #[inline]
    fn ensure_words(&mut self, n: usize) {
        if self.words.len() < n {
            self.words.resize(n, 0);
        }
    }
}

type ExprThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<Value> + Send + Sync>;
type ActThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<()> + Send + Sync>;
type WordThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<u64> + Send + Sync>;
type PlaceThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<Place> + Send + Sync>;

/// The scalar type of an unboxed word in the flat lowering. Mirrors the
/// three leaf [`Value`] variants; the packed representation is always
/// the value's `write_flat` bit pattern in the low `width()` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordTy {
    Bool,
    Bits(u32),
    Int(u32),
}

impl WordTy {
    #[inline]
    fn width(self) -> u32 {
        match self {
            WordTy::Bool => 1,
            WordTy::Bits(w) | WordTy::Int(w) => w,
        }
    }

    fn of_layout(l: &Layout) -> Option<WordTy> {
        match l.kind {
            LayoutKind::Bool => Some(WordTy::Bool),
            LayoutKind::Bits(w) if w <= 64 => Some(WordTy::Bits(w)),
            LayoutKind::Int(w) if w <= 64 => Some(WordTy::Int(w)),
            _ => None,
        }
    }

    /// A constant's word type and packed bits, for scalar constants.
    fn of_value(v: &Value) -> Option<(WordTy, u64)> {
        match v {
            Value::Bool(b) => Some((WordTy::Bool, *b as u64)),
            Value::Bits { width, bits } => Some((WordTy::Bits(*width), *bits)),
            Value::Int { width, val } => Some((WordTy::Int(*width), (*val as u64) & mask(*width))),
            _ => None,
        }
    }

    /// The `as_int` view of a packed word: raw for `Bool`/`Bits`,
    /// sign-extended for `Int` — exactly [`Value::as_int`] on the
    /// materialized value.
    #[inline]
    fn view_int(self, w: u64) -> i64 {
        match self {
            WordTy::Bool | WordTy::Bits(_) => w as i64,
            WordTy::Int(wd) => sign_extend(wd, w),
        }
    }

    /// Rebuilds the canonical boxed value. Charge-free (scalar `Value`s
    /// are inline enum variants, no heap).
    #[inline]
    fn materialize(self, w: u64) -> Value {
        match self {
            WordTy::Bool => Value::Bool(w != 0),
            WordTy::Bits(wd) => Value::Bits { width: wd, bits: w },
            WordTy::Int(wd) => Value::Int {
                width: wd,
                val: sign_extend(wd, w),
            },
        }
    }
}

/// Lower-time knowledge about one primitive, derived from the
/// [`Design`]: what word-level methods it supports and the packed
/// layout of its element type.
struct PrimInfo {
    kind: PrimKindInfo,
    layout: Layout,
}

/// The word-relevant primitive kind (mirrors `flat.rs`'s arena mapping:
/// synchronizers flatten to FIFOs, sources/sinks stay dynamic).
#[derive(Clone, Copy)]
enum PrimKindInfo {
    Reg,
    Fifo,
    RegFile { size: usize },
    Dyn,
}

/// Builds the per-primitive layout table the flat lowering pass keys on.
fn prim_infos(design: &Design) -> Vec<PrimInfo> {
    design
        .prims
        .iter()
        .map(|p| {
            let kind = match &p.spec {
                PrimSpec::Reg { .. } => PrimKindInfo::Reg,
                PrimSpec::Fifo { .. } | PrimSpec::Sync { .. } => PrimKindInfo::Fifo,
                PrimSpec::RegFile { size, .. } => PrimKindInfo::RegFile { size: *size },
                PrimSpec::Source { .. } | PrimSpec::Sink { .. } => PrimKindInfo::Dyn,
            };
            PrimInfo {
                kind,
                layout: Layout::of(&p.spec.value_type()),
            }
        })
        .collect()
}

/// A resolved packed location: frame scratch words or a primitive
/// element, plus a bit offset accumulated from lower-time field offsets
/// and runtime element indices.
#[derive(Clone, Copy)]
struct Place {
    kind: PlaceKind,
    off: u32,
}

#[derive(Clone, Copy)]
enum PlaceKind {
    /// Bit `bit` of the frame's word scratch.
    Frame { bit: usize },
    /// The element addressed by `(id, m, cell)` through the word port.
    Prim {
        id: PrimId,
        m: PrimMethod,
        cell: usize,
    },
}

#[inline]
fn read_place_word(
    p: &mut NativePort<'_>,
    f: &NativeFrame,
    pl: Place,
    width: u32,
) -> ExecResult<u64> {
    match pl.kind {
        PlaceKind::Frame { bit } => Ok(get_bits(&f.words, bit + pl.off as usize, width)),
        PlaceKind::Prim { id, m, cell } => p.peek_word(id, m, cell, pl.off, width),
    }
}

#[inline]
fn copy_place_packed(
    p: &mut NativePort<'_>,
    f: &mut NativeFrame,
    pl: Place,
    width: u32,
    dst_bit: usize,
) -> ExecResult<()> {
    match pl.kind {
        PlaceKind::Frame { bit } => {
            copy_bits_within(&mut f.words, bit + pl.off as usize, dst_bit, width);
            Ok(())
        }
        PlaceKind::Prim { id, m, cell } => {
            p.peek_packed(id, m, cell, pl.off, width, &mut f.words, dst_bit)
        }
    }
}

/// How a let-bound name is stored in the frame: a boxed [`Value`] slot,
/// an unboxed word, or a bit-packed aggregate region.
#[derive(Clone)]
enum Binding {
    Boxed(usize),
    Word { slot: usize, ty: WordTy },
    Packed { base: usize, layout: Arc<Layout> },
}

/// Where a compiled closure reads and writes primitives. A closed enum
/// rather than a trait object, so the per-node cost charges and method
/// calls compile to direct code instead of a vtable call per
/// `ops += 1`.
pub(crate) enum NativePort<'s> {
    /// Transactional rule body.
    Txn(Txn<'s>),
    /// Read-only guard probe over the committed store.
    Ro {
        /// The committed store.
        store: &'s Store,
        /// Ledger for the probe's reads and ops.
        cost: &'s mut Cost,
    },
    /// Fully guard-lifted body writing straight to the committed store.
    InPlace {
        /// The committed store.
        store: &'s mut Store,
        /// Ledger for the run.
        cost: Cost,
    },
}

impl NativePort<'_> {
    #[inline]
    fn cost(&mut self) -> &mut Cost {
        match self {
            NativePort::Txn(t) => &mut t.cost,
            NativePort::Ro { cost, .. } => cost,
            NativePort::InPlace { cost, .. } => cost,
        }
    }

    #[inline]
    fn call_value(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<Value> {
        match self {
            NativePort::Txn(t) => t.call_value(id, m, args),
            NativePort::Ro { store, cost } => {
                cost.reads += 1;
                store.call_value_at(id, m, args)
            }
            NativePort::InPlace { store, cost } => {
                cost.reads += 1;
                store.call_value_at(id, m, args)
            }
        }
    }

    #[inline]
    fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action(id, m, args),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_at(id, m, args)
            }
        }
    }

    /// Charges one read without performing one — used when a word place
    /// is resolved first and its packed bits are fetched later, so the
    /// charge lands where the boxed path's `call_value` would put it.
    #[inline]
    fn charge_read(&mut self) {
        self.cost().reads += 1;
    }

    /// Word-level `call_value`: one read charged, the element's packed
    /// bits returned without materializing a [`Value`].
    #[inline]
    fn call_value_word(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        match self {
            NativePort::Txn(t) => t.call_value_word(id, m, cell, off, width),
            NativePort::Ro { store, cost } => {
                cost.reads += 1;
                store.call_value_word_at(id, m, cell, off, width)
            }
            NativePort::InPlace { store, cost } => {
                cost.reads += 1;
                store.call_value_word_at(id, m, cell, off, width)
            }
        }
    }

    /// Uncharged word read (shadow-aware under a transaction): the
    /// caller has already charged the access via [`Self::charge_read`].
    #[inline]
    fn peek_word(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        match self {
            NativePort::Txn(t) => t.peek_value_word(id, m, cell, off, width),
            NativePort::Ro { store, .. } => store.call_value_word_at(id, m, cell, off, width),
            NativePort::InPlace { store, .. } => store.call_value_word_at(id, m, cell, off, width),
        }
    }

    /// Uncharged packed-aggregate read into frame scratch; same charging
    /// contract as [`Self::peek_word`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn peek_packed(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
        dst: &mut [u64],
        dst_bit: usize,
    ) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.peek_value_packed(id, m, cell, off, width, dst, dst_bit),
            NativePort::Ro { store, .. } => {
                store.call_value_packed_at(id, m, cell, off, width, dst, dst_bit)
            }
            NativePort::InPlace { store, .. } => {
                store.call_value_packed_at(id, m, cell, off, width, dst, dst_bit)
            }
        }
    }

    /// Word-level `call_action`: one write charged, the payload an
    /// unboxed word. `cell` is signed so regfile index errors keep the
    /// boxed error order (see [`Store::call_action_word_at`]).
    #[inline]
    fn call_action_word(&mut self, id: PrimId, m: PrimMethod, cell: i64, w: u64) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action_word(id, m, cell, w),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_word_at(id, m, cell, w)
            }
        }
    }

    /// Packed-aggregate `call_action` from frame scratch bits.
    #[inline]
    fn call_action_packed(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        src: &[u64],
        src_bit: usize,
    ) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action_packed(id, m, cell, src, src_bit),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_packed_at(id, m, cell, src, src_bit)
            }
        }
    }

    #[inline]
    fn policy(&self) -> ShadowPolicy {
        match self {
            NativePort::Txn(t) => t.policy,
            NativePort::Ro { .. } => ShadowPolicy::Partial,
            NativePort::InPlace { .. } => ShadowPolicy::InPlace,
        }
    }

    #[inline]
    fn loop_bound(&self) -> u64 {
        match self {
            NativePort::Txn(t) => t.max_loop_iters,
            _ => 1_000_000,
        }
    }

    fn par_start(&mut self) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.par_start(),
            NativePort::Ro { .. } => Err(ExecError::Malformed(
                "parallel composition reached a port without transaction frames".into(),
            )),
            NativePort::InPlace { .. } => Err(ExecError::Malformed(
                "parallel composition reached an in-place (guard-lifted) execution".into(),
            )),
        }
    }

    fn par_mid(&mut self) {
        if let NativePort::Txn(t) = self {
            t.par_mid();
        }
    }

    fn par_end(&mut self) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.par_end(),
            _ => Ok(()),
        }
    }
}

/// An expression (typically a lifted guard) lowered to a native
/// closure for a flat-arena store (see [`compile_plans`]).
pub struct CompiledExpr {
    eval: GuardEval,
    slots: usize,
    words: usize,
}

/// A fully word-lowered guard returns a bare `u64` verdict (no `Value`
/// is ever materialized); anything else is a boxed closure whose
/// subexpressions may still take the word path internally.
enum GuardEval {
    Word(WordThunk),
    Boxed(ExprThunk),
}

impl fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledExpr")
            .field("slots", &self.slots)
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// A rule body lowered to a native closure for a flat-arena store.
pub struct CompiledAction {
    thunk: ActThunk,
    slots: usize,
    words: usize,
}

impl fmt::Debug for CompiledAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledAction")
            .field("slots", &self.slots)
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// A [`RulePlan`] lowered to native closures. `None` components fall back
/// to the AST interpreter.
#[derive(Debug, Default)]
pub struct NativeRule {
    /// The lifted guard, when present and compilable.
    pub guard: Option<CompiledExpr>,
    /// The rule body, when compilable.
    pub body: Option<CompiledAction>,
}

/// Compile-time lexical scope: let-bound names resolved to bindings,
/// plus the frame footprint the lowered closures need and the
/// per-primitive layout table the word path keys on.
struct Lowerer<'d> {
    scope: Vec<(String, Binding)>,
    slots: usize,
    /// Word-scratch footprint, in 64-bit words.
    words: usize,
    prims: &'d [PrimInfo],
}

impl<'d> Lowerer<'d> {
    fn new(prims: &'d [PrimInfo]) -> Lowerer<'d> {
        Lowerer {
            scope: Vec::new(),
            slots: 0,
            words: 0,
            prims,
        }
    }

    fn lookup(&self, n: &str) -> Option<Binding> {
        self.scope
            .iter()
            .rev()
            .find(|(name, _)| name == n)
            .map(|(_, b)| b.clone())
    }

    fn info(&self, id: PrimId) -> Option<&'d PrimInfo> {
        self.prims.get(id.0)
    }

    /// Reserves a contiguous word-scratch region for `bits` packed bits
    /// and returns its base bit offset.
    fn alloc_region(&mut self, bits: u32) -> usize {
        let at = self.words;
        self.words += (bits as usize).div_ceil(64).max(1);
        at * 64
    }

    /// Lowers an expression. Scalar expressions take the word path and
    /// are rematerialized only at the boxed boundary; evaluation order
    /// and cost-charge points are identical either way.
    fn expr(&mut self, e: &Expr) -> Option<ExprThunk> {
        if let Some((wt, ty)) = self.word_expr(e) {
            return Some(Box::new(move |p, f| Ok(ty.materialize(wt(p, f)?))));
        }
        self.expr_boxed(e)
    }

    /// The boxed lowering, for expressions the word path declines.
    /// Evaluation order and cost-charge points mirror the AST
    /// interpreter node for node.
    fn expr_boxed(&mut self, e: &Expr) -> Option<ExprThunk> {
        Some(match e {
            Expr::Const(v) => {
                let v = v.clone();
                Box::new(move |_, _| Ok(v.clone()))
            }
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Boxed(s) => Box::new(move |_, f| Ok(f.slots[s].clone())),
                Binding::Word { slot, ty } => {
                    Box::new(move |_, f| Ok(ty.materialize(f.words[slot])))
                }
                Binding::Packed { base, layout } => {
                    Box::new(move |_, f| Ok(Value::read_flat(&layout, &f.words, base)))
                }
            },
            Expr::Un(op, a) => {
                let a = self.expr(a)?;
                let op = *op;
                Box::new(move |p, f| {
                    let va = a(p, f)?;
                    p.cost().ops += 1;
                    Value::un_op(op, &va)
                })
            }
            Expr::Bin(op, a, b) => {
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                let op = *op;
                let charge = op.cpu_cost();
                Box::new(move |p, f| {
                    let va = a(p, f)?;
                    let vb = b(p, f)?;
                    p.cost().ops += charge;
                    Value::bin_op(op, &va, &vb)
                })
            }
            Expr::Cond(c, t, fl) => {
                let c = self.expr(c)?;
                let t = self.expr(t)?;
                let fl = self.expr(fl)?;
                Box::new(move |p, f| {
                    let vc = c(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if vc {
                        t(p, f)
                    } else {
                        fl(p, f)
                    }
                })
            }
            Expr::When(v, g) => {
                // The guard is evaluated first, like the interpreter.
                let v = self.expr(v)?;
                let g = self.expr(g)?;
                Box::new(move |p, f| {
                    let gv = g(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if gv {
                        v(p, f)
                    } else {
                        Err(ExecError::GuardFail)
                    }
                })
            }
            Expr::Let(n, v, b) => {
                let (vt, binding) = self.bind_value(v)?;
                self.scope.push((n.clone(), binding));
                let b = self.expr(b);
                self.scope.pop();
                let b = b?;
                Box::new(move |p, f| {
                    vt(p, f)?;
                    b(p, f)
                })
            }
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                return self.call_value(id, m, args);
            }
            Expr::Index(v, i) => {
                // Indexing a let-bound vector is fused into a direct slot
                // access: the element is copied straight out of the slot
                // without cloning the vector.
                // `Var` evaluation is infallible, so hoisting it past the
                // index expression cannot reorder failures; charged cost
                // is identical.
                if let Expr::Var(n) = v.as_ref() {
                    let i = self.expr(i)?;
                    match self.lookup(n)? {
                        Binding::Boxed(s) => Box::new(move |p, f| {
                            let iv = i(p, f)?.as_index()?;
                            p.cost().ops += 1;
                            f.slots[s].index(iv).cloned()
                        }),
                        // A word binding is a scalar: indexing it is a
                        // type error. Materialize for the identical
                        // error message.
                        Binding::Word { slot, ty } => Box::new(move |p, f| {
                            let iv = i(p, f)?.as_index()?;
                            p.cost().ops += 1;
                            ty.materialize(f.words[slot]).index(iv).cloned()
                        }),
                        Binding::Packed { base, layout } => match layout.kind.clone() {
                            LayoutKind::Vector { len, stride, elem } => Box::new(move |p, f| {
                                let iv = i(p, f)?.as_index()?;
                                p.cost().ops += 1;
                                if iv >= len {
                                    return Err(ExecError::Bounds(format!(
                                        "index {iv} out of {len}"
                                    )));
                                }
                                Ok(Value::read_flat(
                                    &elem,
                                    &f.words,
                                    base + iv * stride as usize,
                                ))
                            }),
                            _ => Box::new(move |p, f| {
                                let iv = i(p, f)?.as_index()?;
                                p.cost().ops += 1;
                                Value::read_flat(&layout, &f.words, base).index(iv).cloned()
                            }),
                        },
                    }
                } else {
                    let v = self.expr(v)?;
                    let i = self.expr(i)?;
                    Box::new(move |p, f| {
                        let vv = v(p, f)?;
                        let iv = i(p, f)?.as_index()?;
                        p.cost().ops += 1;
                        vv.index(iv).cloned()
                    })
                }
            }
            Expr::Field(v, name) => {
                // Field of a let-bound struct: fused the same way.
                if let Expr::Var(n) = v.as_ref() {
                    let name = name.clone();
                    match self.lookup(n)? {
                        Binding::Boxed(s) => Box::new(move |p, f| {
                            p.cost().ops += 1;
                            f.slots[s].field(&name).cloned()
                        }),
                        Binding::Word { slot, ty } => Box::new(move |p, f| {
                            p.cost().ops += 1;
                            ty.materialize(f.words[slot]).field(&name).cloned()
                        }),
                        Binding::Packed { base, layout } => {
                            // Field offsets resolve at lower time; a
                            // missing field materializes for the boxed
                            // error message.
                            let found = match &layout.kind {
                                LayoutKind::Struct { fields } => fields
                                    .iter()
                                    .find(|fl| fl.name == name)
                                    .map(|fl| (fl.offset as usize, fl.layout.clone())),
                                _ => None,
                            };
                            match found {
                                Some((foff, flay)) => Box::new(move |p, f| {
                                    p.cost().ops += 1;
                                    Ok(Value::read_flat(&flay, &f.words, base + foff))
                                }),
                                None => Box::new(move |p, f| {
                                    p.cost().ops += 1;
                                    Value::read_flat(&layout, &f.words, base)
                                        .field(&name)
                                        .cloned()
                                }),
                            }
                        }
                    }
                } else {
                    let v = self.expr(v)?;
                    let name = name.clone();
                    Box::new(move |p, f| {
                        let vv = v(p, f)?;
                        p.cost().ops += 1;
                        vv.field(&name).cloned()
                    })
                }
            }
            Expr::MkVec(es) => {
                let ts = self.exprs(es)?;
                let n = ts.len() as u64;
                Box::new(move |p, f| {
                    let mut out = Vec::with_capacity(ts.len());
                    for t in &ts {
                        out.push(t(p, f)?);
                    }
                    p.cost().ops += n;
                    Ok(Value::Vec(out))
                })
            }
            Expr::MkStruct(fs) => {
                let names: Vec<String> = fs.iter().map(|(n, _)| n.clone()).collect();
                let ts = self.exprs(&fs.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>())?;
                let n = ts.len() as u64;
                Box::new(move |p, f| {
                    let mut out = Vec::with_capacity(ts.len());
                    for (name, t) in names.iter().zip(&ts) {
                        out.push((name.clone(), t(p, f)?));
                    }
                    p.cost().ops += n;
                    Ok(Value::Struct(out))
                })
            }
            Expr::UpdateIndex(v, i, x) => {
                let v = self.expr(v)?;
                let i = self.expr(i)?;
                let x = self.expr(x)?;
                Box::new(move |p, f| {
                    let vv = v(p, f)?;
                    let iv = i(p, f)?.as_index()?;
                    let xv = x(p, f)?;
                    // Functional update costs a copy of the vector.
                    p.cost().ops += vv.as_vec().map(|s| s.len() as u64).unwrap_or(1);
                    vv.update_index(iv, xv)
                })
            }
            Expr::UpdateField(v, name, x) => {
                let v = self.expr(v)?;
                let x = self.expr(x)?;
                let name = name.clone();
                Box::new(move |p, f| {
                    let vv = v(p, f)?;
                    let xv = x(p, f)?;
                    p.cost().ops += 1;
                    vv.update_field(&name, xv)
                })
            }
        })
    }

    fn exprs(&mut self, es: &[Expr]) -> Option<Vec<ExprThunk>> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    /// Lowers a let-bound value to the cheapest binding it supports:
    /// an unboxed word, a packed aggregate region (copied bitwise from
    /// its place, no `Value` built), or a boxed slot. The returned
    /// thunk performs the store; charges are exactly the value
    /// expression's own (the slot store itself is free, as in the
    /// interpreter).
    fn bind_value(&mut self, v: &Expr) -> Option<(ActThunk, Binding)> {
        if let Some((wt, ty)) = self.word_expr(v) {
            let slot = self.words;
            self.words += 1;
            let t: ActThunk = Box::new(move |p, f| {
                f.words[slot] = wt(p, f)?;
                Ok(())
            });
            return Some((t, Binding::Word { slot, ty }));
        }
        if let Some((pt, lay)) = self.agg_place(v) {
            if matches!(
                lay.kind,
                LayoutKind::Vector { .. } | LayoutKind::Struct { .. }
            ) {
                let base = self.alloc_region(lay.width);
                let width = lay.width;
                let t: ActThunk = Box::new(move |p, f| {
                    let pl = pt(p, f)?;
                    copy_place_packed(p, f, pl, width, base)
                });
                return Some((
                    t,
                    Binding::Packed {
                        base,
                        layout: Arc::new(lay),
                    },
                ));
            }
        }
        let v = self.expr(v)?;
        let slot = self.slots;
        self.slots += 1;
        let t: ActThunk = Box::new(move |p, f| {
            f.slots[slot] = v(p, f)?;
            Ok(())
        });
        Some((t, Binding::Boxed(slot)))
    }

    /// Lowers a scalar expression to an unboxed-word closure, or `None`
    /// when the expression (or its type) is not provably word-safe —
    /// the caller then uses the boxed lowering, which charges
    /// identically.
    ///
    /// Every arm's packed result equals the `write_flat` bits of the
    /// boxed value the interpreter would produce, and every charge
    /// lands at the same point ([`Value::bin_op`]'s division errors
    /// included).
    fn word_expr(&mut self, e: &Expr) -> Option<(WordThunk, WordTy)> {
        Some(match e {
            Expr::Const(v) => {
                let (ty, w) = WordTy::of_value(v)?;
                (Box::new(move |_, _| Ok(w)), ty)
            }
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Word { slot, ty } => (Box::new(move |_, f| Ok(f.words[slot])), ty),
                _ => return None,
            },
            Expr::Un(op, a) => {
                let (at, aty) = self.word_expr(a)?;
                let wd = aty.width();
                let m = mask(wd);
                let apply: fn(u64, u64) -> u64 = match (*op, aty) {
                    (UnOp::Not, WordTy::Bool) => |w, _| w ^ 1,
                    (UnOp::Neg, WordTy::Int(_)) | (UnOp::Neg, WordTy::Bits(_)) => {
                        |w, m| w.wrapping_neg() & m
                    }
                    (UnOp::Inv, WordTy::Int(_)) | (UnOp::Inv, WordTy::Bits(_)) => |w, m| !w & m,
                    _ => return None,
                };
                (
                    Box::new(move |p, f| {
                        let w = at(p, f)?;
                        p.cost().ops += 1;
                        Ok(apply(w, m))
                    }),
                    aty,
                )
            }
            Expr::Bin(op, a, b) => {
                let (at, aty) = self.word_expr(a)?;
                let (bt, bty) = self.word_expr(b)?;
                let op = *op;
                let charge = op.cpu_cost();
                // Boolean logic stays in the 1-bit domain (mirrors the
                // `(Bool, Bool)` branch of `Value::bin_op`).
                if (aty, bty) == (WordTy::Bool, WordTy::Bool) {
                    let apply: fn(u64, u64) -> u64 = match op {
                        BinOp::And => |x, y| x & y,
                        BinOp::Or => |x, y| x | y,
                        BinOp::Xor | BinOp::Ne => |x, y| x ^ y,
                        BinOp::Eq => |x, y| (x == y) as u64,
                        _ => return None,
                    };
                    return Some((
                        Box::new(move |p, f| {
                            let x = at(p, f)?;
                            let y = bt(p, f)?;
                            p.cost().ops += charge;
                            Ok(apply(x, y))
                        }),
                        WordTy::Bool,
                    ));
                }
                if op.is_comparison() {
                    return Some((
                        Box::new(move |p, f| {
                            let x = aty.view_int(at(p, f)?);
                            let y = bty.view_int(bt(p, f)?);
                            p.cost().ops += charge;
                            let r = match op {
                                BinOp::Eq => x == y,
                                BinOp::Ne => x != y,
                                BinOp::Lt => x < y,
                                BinOp::Le => x <= y,
                                BinOp::Gt => x > y,
                                BinOp::Ge => x >= y,
                                _ => unreachable!(),
                            };
                            Ok(r as u64)
                        }),
                        WordTy::Bool,
                    ));
                }
                // Arithmetic wraps at the left operand's width; a Bool
                // left operand promotes to Int(64), like `as_int`.
                let (width, rty) = match aty {
                    WordTy::Bool => (64, WordTy::Int(64)),
                    WordTy::Bits(w) => (w, WordTy::Bits(w)),
                    WordTy::Int(w) => (w, WordTy::Int(w)),
                };
                let m = mask(width);
                (
                    Box::new(move |p, f| {
                        let x = aty.view_int(at(p, f)?);
                        let y = bty.view_int(bt(p, f)?);
                        p.cost().ops += charge;
                        let r: i64 = match op {
                            BinOp::Add => x.wrapping_add(y),
                            BinOp::Sub => x.wrapping_sub(y),
                            BinOp::Mul => x.wrapping_mul(y),
                            BinOp::FixMul(fx) => (((x as i128) * (y as i128)) >> fx) as i64,
                            BinOp::FixDiv(fx) => {
                                if y == 0 {
                                    return Err(ExecError::Malformed(
                                        "fixed-point division by zero".into(),
                                    ));
                                }
                                (((x as i128) << fx) / (y as i128)) as i64
                            }
                            BinOp::Div => {
                                if y == 0 {
                                    return Err(ExecError::Malformed("division by zero".into()));
                                }
                                x.wrapping_div(y)
                            }
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(ExecError::Malformed("remainder by zero".into()));
                                }
                                x.wrapping_rem(y)
                            }
                            BinOp::And => x & y,
                            BinOp::Or => x | y,
                            BinOp::Xor => x ^ y,
                            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
                            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
                            BinOp::Min => x.min(y),
                            BinOp::Max => x.max(y),
                            _ => unreachable!(),
                        };
                        Ok((r as u64) & m)
                    }),
                    rty,
                )
            }
            Expr::Cond(c, t, fl) => {
                let (ct, cty) = self.word_expr(c)?;
                if cty != WordTy::Bool {
                    return None;
                }
                let (tt, tty) = self.word_expr(t)?;
                let (ft, fty) = self.word_expr(fl)?;
                if tty != fty {
                    return None;
                }
                (
                    Box::new(move |p, f| {
                        let vc = ct(p, f)? != 0;
                        p.cost().ops += 1;
                        if vc {
                            tt(p, f)
                        } else {
                            ft(p, f)
                        }
                    }),
                    tty,
                )
            }
            Expr::When(v, g) => {
                let (vt, vty) = self.word_expr(v)?;
                let (gt, gty) = self.word_expr(g)?;
                if gty != WordTy::Bool {
                    return None;
                }
                (
                    Box::new(move |p, f| {
                        let gv = gt(p, f)? != 0;
                        p.cost().ops += 1;
                        if gv {
                            vt(p, f)
                        } else {
                            Err(ExecError::GuardFail)
                        }
                    }),
                    vty,
                )
            }
            Expr::Let(n, v, b) => {
                let (vt, binding) = self.bind_value(v)?;
                self.scope.push((n.clone(), binding));
                let b = self.word_expr(b);
                self.scope.pop();
                let (bt, bty) = b?;
                (
                    Box::new(move |p, f| {
                        vt(p, f)?;
                        bt(p, f)
                    }),
                    bty,
                )
            }
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                // FIFO occupancy probes are 1-bit words already.
                if matches!(m, PrimMethod::NotEmpty | PrimMethod::NotFull)
                    && args.is_empty()
                    && matches!(self.info(id)?.kind, PrimKindInfo::Fifo)
                {
                    return Some((
                        Box::new(move |p, _| p.call_value_word(id, m, 0, 0, 1)),
                        WordTy::Bool,
                    ));
                }
                return self.word_leaf(e);
            }
            Expr::Field(..) | Expr::Index(..) => return self.word_leaf(e),
            _ => return None,
        })
    }

    /// A scalar leaf read out of a resolved packed place: the place
    /// chain carries all charges, the final bit extraction is free
    /// (the boxed path's `call_value`/`field`/`index` have already
    /// been accounted by [`Lowerer::agg_place`]).
    fn word_leaf(&mut self, e: &Expr) -> Option<(WordThunk, WordTy)> {
        let (pt, lay) = self.agg_place(e)?;
        let ty = WordTy::of_layout(&lay)?;
        let width = ty.width();
        Some((
            Box::new(move |p, f| {
                let pl = pt(p, f)?;
                read_place_word(p, f, pl, width)
            }),
            ty,
        ))
    }

    /// Resolves an aggregate-access chain (`prim.read()`, `.field`,
    /// `[index]`) to a packed [`Place`] without materializing any
    /// intermediate `Value`. Field offsets fold at lower time; element
    /// strides multiply a runtime index. The place thunk carges exactly
    /// what the boxed chain charges, in the same order: the port read
    /// first (including the FIFO-empty guard failure, so later
    /// field/index ops are not charged on the failing path), then one
    /// op per field/index step.
    fn agg_place(&mut self, e: &Expr) -> Option<(PlaceThunk, Layout)> {
        match e {
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Packed { base, layout } => Some((
                    Box::new(move |_, _| {
                        Ok(Place {
                            kind: PlaceKind::Frame { bit: base },
                            off: 0,
                        })
                    }),
                    (*layout).clone(),
                )),
                _ => None,
            },
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                let info = self.info(id)?;
                match (info.kind, m, args.as_slice()) {
                    (PrimKindInfo::Reg, PrimMethod::RegRead, []) => Some((
                        Box::new(move |p, _| {
                            p.charge_read();
                            Ok(Place {
                                kind: PlaceKind::Prim {
                                    id,
                                    m: PrimMethod::RegRead,
                                    cell: 0,
                                },
                                off: 0,
                            })
                        }),
                        info.layout.clone(),
                    )),
                    (PrimKindInfo::Fifo, PrimMethod::First, []) => Some((
                        Box::new(move |p, _| {
                            p.charge_read();
                            if p.peek_word(id, PrimMethod::NotEmpty, 0, 0, 1)? == 0 {
                                return Err(ExecError::GuardFail);
                            }
                            Ok(Place {
                                kind: PlaceKind::Prim {
                                    id,
                                    m: PrimMethod::First,
                                    cell: 0,
                                },
                                off: 0,
                            })
                        }),
                        info.layout.clone(),
                    )),
                    (PrimKindInfo::RegFile { size }, PrimMethod::Sub, [i]) => {
                        let layout = info.layout.clone();
                        let (it, ity) = self.word_expr(i)?;
                        Some((
                            Box::new(move |p, f| {
                                let iv = ity.view_int(it(p, f)?);
                                p.charge_read();
                                let cell = usize::try_from(iv).map_err(|_| {
                                    ExecError::Bounds(format!("negative index {iv}"))
                                })?;
                                if cell >= size {
                                    return Err(ExecError::Bounds(format!(
                                        "sub {cell} out of {size}"
                                    )));
                                }
                                Ok(Place {
                                    kind: PlaceKind::Prim {
                                        id,
                                        m: PrimMethod::Sub,
                                        cell,
                                    },
                                    off: 0,
                                })
                            }),
                            layout,
                        ))
                    }
                    _ => None,
                }
            }
            Expr::Field(v, name) => {
                let (inner, lay) = self.agg_place(v)?;
                let LayoutKind::Struct { fields } = &lay.kind else {
                    return None;
                };
                let fl = fields.iter().find(|fl| &fl.name == name)?;
                let foff = fl.offset;
                let flay = fl.layout.clone();
                Some((
                    Box::new(move |p, f| {
                        let mut pl = inner(p, f)?;
                        p.cost().ops += 1;
                        pl.off += foff;
                        Ok(pl)
                    }),
                    flay,
                ))
            }
            Expr::Index(v, i) => {
                let (inner, lay) = self.agg_place(v)?;
                let LayoutKind::Vector { len, stride, elem } = &lay.kind else {
                    return None;
                };
                let (len, stride, elay) = (*len, *stride, (**elem).clone());
                let (it, ity) = self.word_expr(i)?;
                Some((
                    Box::new(move |p, f| {
                        let mut pl = inner(p, f)?;
                        let iv = ity.view_int(it(p, f)?);
                        let idx = usize::try_from(iv)
                            .map_err(|_| ExecError::Bounds(format!("negative index {iv}")))?;
                        p.cost().ops += 1;
                        if idx >= len {
                            return Err(ExecError::Bounds(format!("index {idx} out of {len}")));
                        }
                        pl.off += idx as u32 * stride;
                        Ok(pl)
                    }),
                    elay,
                ))
            }
            _ => None,
        }
    }

    /// Lowers an expression to a closure that writes its packed bits
    /// into frame scratch at `dst` — the zero-`Value` path for
    /// aggregate method arguments. Returns the packed width. `MkVec`/
    /// `MkStruct` pack elements at their running offsets and charge
    /// one op per element after evaluation, like the boxed
    /// constructors; constants pre-pack at lower time.
    fn packed_expr(&mut self, e: &Expr, dst: usize) -> Option<(ActThunk, u32)> {
        if let Some((wt, ty)) = self.word_expr(e) {
            let width = ty.width();
            return Some((
                Box::new(move |p, f| {
                    let w = wt(p, f)?;
                    put_bits(&mut f.words, dst, width, w);
                    Ok(())
                }),
                width,
            ));
        }
        match e {
            Expr::Const(v) => {
                let lay = Layout::of(&v.type_of());
                let mut ws = vec![0u64; lay.words64().max(1)];
                v.write_flat(&mut ws, 0);
                let width = lay.width;
                Some((
                    Box::new(move |_, f| {
                        copy_bits(&ws, 0, &mut f.words, dst, width);
                        Ok(())
                    }),
                    width,
                ))
            }
            Expr::MkVec(es) => {
                let mut parts = Vec::with_capacity(es.len());
                let mut at = dst;
                for el in es {
                    let (t, w) = self.packed_expr(el, at)?;
                    at += w as usize;
                    parts.push(t);
                }
                let n = es.len() as u64;
                Some((
                    Box::new(move |p, f| {
                        for t in &parts {
                            t(p, f)?;
                        }
                        p.cost().ops += n;
                        Ok(())
                    }),
                    (at - dst) as u32,
                ))
            }
            Expr::MkStruct(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                let mut at = dst;
                for (_, el) in fs {
                    let (t, w) = self.packed_expr(el, at)?;
                    at += w as usize;
                    parts.push(t);
                }
                let n = fs.len() as u64;
                Some((
                    Box::new(move |p, f| {
                        for t in &parts {
                            t(p, f)?;
                        }
                        p.cost().ops += n;
                        Ok(())
                    }),
                    (at - dst) as u32,
                ))
            }
            _ => {
                let (pt, lay) = self.agg_place(e)?;
                let width = lay.width;
                Some((
                    Box::new(move |p, f| {
                        let pl = pt(p, f)?;
                        copy_place_packed(p, f, pl, width, dst)
                    }),
                    width,
                ))
            }
        }
    }

    /// The word-path lowering of an action-method call: register
    /// writes, FIFO enqueues, and regfile updates whose payload can
    /// travel as a word or as packed scratch bits. `None` falls back to
    /// the boxed call (which still word-lowers its argument
    /// subexpressions where possible). The payload width must equal
    /// the primitive's element width — the boxed path's runtime width
    /// check, proved at lower time.
    fn call_action_flat(&mut self, id: PrimId, m: PrimMethod, args: &[Expr]) -> Option<ActThunk> {
        let info = self.info(id)?;
        let lane_width = info.layout.width;
        match (info.kind, m, args) {
            (PrimKindInfo::Reg, PrimMethod::RegWrite, [e])
            | (PrimKindInfo::Fifo, PrimMethod::Enq, [e]) => {
                if let Some((wt, wty)) = self.word_expr(e) {
                    if wty.width() != lane_width {
                        return None;
                    }
                    return Some(Box::new(move |p, f| {
                        let w = wt(p, f)?;
                        p.call_action_word(id, m, 0, w)
                    }));
                }
                let dst = self.alloc_region(lane_width);
                let (pt, w) = self.packed_expr(e, dst)?;
                if w != lane_width {
                    return None;
                }
                Some(Box::new(move |p, f| {
                    pt(p, f)?;
                    p.call_action_packed(id, m, 0, &f.words, dst)
                }))
            }
            (PrimKindInfo::RegFile { .. }, PrimMethod::Upd, [i, e]) => {
                let (it, ity) = self.word_expr(i)?;
                if let Some((wt, wty)) = self.word_expr(e) {
                    if wty.width() != lane_width {
                        return None;
                    }
                    return Some(Box::new(move |p, f| {
                        let iv = ity.view_int(it(p, f)?);
                        let w = wt(p, f)?;
                        p.call_action_word(id, PrimMethod::Upd, iv, w)
                    }));
                }
                let dst = self.alloc_region(lane_width);
                let (pt, w) = self.packed_expr(e, dst)?;
                if w != lane_width {
                    return None;
                }
                Some(Box::new(move |p, f| {
                    let iv = ity.view_int(it(p, f)?);
                    pt(p, f)?;
                    p.call_action_packed(id, PrimMethod::Upd, iv, &f.words, dst)
                }))
            }
            _ => None,
        }
    }

    /// A value-method call, argument lists of arity ≤ 2 specialized to
    /// stack arrays (no argument `Vec` per call).
    fn call_value(&mut self, id: PrimId, m: PrimMethod, args: &[Expr]) -> Option<ExprThunk> {
        Some(match args {
            [] => Box::new(move |p, _| p.call_value(id, m, &[])),
            [a0] => {
                let a0 = self.expr(a0)?;
                Box::new(move |p, f| {
                    let v0 = a0(p, f)?;
                    p.call_value(id, m, std::slice::from_ref(&v0))
                })
            }
            [a0, a1] => {
                let a0 = self.expr(a0)?;
                let a1 = self.expr(a1)?;
                Box::new(move |p, f| {
                    let v0 = a0(p, f)?;
                    let v1 = a1(p, f)?;
                    p.call_value(id, m, &[v0, v1])
                })
            }
            _ => {
                let ts = self.exprs(args)?;
                Box::new(move |p, f| {
                    let mut vals = Vec::with_capacity(ts.len());
                    for t in &ts {
                        vals.push(t(p, f)?);
                    }
                    p.call_value(id, m, &vals)
                })
            }
        })
    }

    /// An action-method call; same arity specialization as value calls.
    fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &[Expr]) -> Option<ActThunk> {
        Some(match args {
            [] => Box::new(move |p, _| p.call_action(id, m, &[])),
            [a0] => {
                let a0 = self.expr(a0)?;
                Box::new(move |p, f| {
                    let v0 = a0(p, f)?;
                    p.call_action(id, m, std::slice::from_ref(&v0))
                })
            }
            [a0, a1] => {
                let a0 = self.expr(a0)?;
                let a1 = self.expr(a1)?;
                Box::new(move |p, f| {
                    let v0 = a0(p, f)?;
                    let v1 = a1(p, f)?;
                    p.call_action(id, m, &[v0, v1])
                })
            }
            _ => {
                let ts = self.exprs(args)?;
                Box::new(move |p, f| {
                    let mut vals = Vec::with_capacity(ts.len());
                    for t in &ts {
                        vals.push(t(p, f)?);
                    }
                    p.call_action(id, m, &vals)
                })
            }
        })
    }

    fn action(&mut self, a: &Action) -> Option<ActThunk> {
        Some(match a {
            Action::NoAction => Box::new(|_, _| Ok(())),
            Action::Write(t, e) => {
                let (id, m) = prim_target(t)?;
                if let Some(t) = self.call_action_flat(id, m, std::slice::from_ref(e)) {
                    return Some(t);
                }
                return self.call_action(id, m, std::slice::from_ref(e));
            }
            Action::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                if let Some(t) = self.call_action_flat(id, m, args) {
                    return Some(t);
                }
                return self.call_action(id, m, args);
            }
            Action::If(c, th, el) => {
                let c = self.expr(c)?;
                let th = self.action(th)?;
                let el = self.action(el)?;
                Box::new(move |p, f| {
                    let vc = c(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if vc {
                        th(p, f)
                    } else {
                        el(p, f)
                    }
                })
            }
            Action::Seq(x, y) => {
                let x = self.action(x)?;
                let y = self.action(y)?;
                Box::new(move |p, f| {
                    x(p, f)?;
                    y(p, f)
                })
            }
            Action::When(g, x) => {
                let g = self.expr(g)?;
                let x = self.action(x)?;
                Box::new(move |p, f| {
                    let gv = g(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if gv {
                        x(p, f)
                    } else if p.policy() == ShadowPolicy::InPlace {
                        // A failing guard on the in-place path is a lifting
                        // bug: earlier writes cannot be rolled back.
                        Err(ExecError::Malformed(
                            "guard failed during in-place execution (unsound lifting)".into(),
                        ))
                    } else {
                        Err(ExecError::GuardFail)
                    }
                })
            }
            Action::Let(n, e, x) => {
                let (et, binding) = self.bind_value(e)?;
                self.scope.push((n.clone(), binding));
                let x = self.action(x);
                self.scope.pop();
                let x = x?;
                Box::new(move |p, f| {
                    et(p, f)?;
                    x(p, f)
                })
            }
            Action::Loop(c, body) => {
                let c = self.expr(c)?;
                let body = self.action(body)?;
                Box::new(move |p, f| {
                    let mut iters = 0u64;
                    loop {
                        let cv = c(p, f)?.as_bool()?;
                        p.cost().ops += 1;
                        if !cv {
                            return Ok(());
                        }
                        body(p, f)?;
                        iters += 1;
                        if iters > p.loop_bound() {
                            return Err(ExecError::Malformed(format!(
                                "loop exceeded {} iterations",
                                p.loop_bound()
                            )));
                        }
                    }
                })
            }
            Action::Par(x, y) => {
                // The interpreter's branch-isolation frame discipline,
                // driven through the port; an error mid-branch propagates
                // with the frames unbalanced and rollback clears them.
                let x = self.action(x)?;
                let y = self.action(y)?;
                Box::new(move |p, f| {
                    p.par_start()?;
                    x(p, f)?;
                    p.par_mid();
                    y(p, f)?;
                    p.par_end()
                })
            }
            // localGuard absorbs guard failures into a discardable frame,
            // which needs catch semantics the closure chain does not model;
            // it stays on the interpreter.
            Action::LocalGuard(..) => return None,
        })
    }
}

fn prim_target(t: &Target) -> Option<(PrimId, PrimMethod)> {
    match t {
        Target::Prim(id, m) => Some((*id, *m)),
        Target::Named(..) => None,
    }
}

/// Lowers a guard. One whose word lowering reaches a Bool root becomes
/// a [`GuardEval::Word`] that never materializes a `Value`; otherwise
/// it is a boxed closure whose scalar subexpressions still travel as
/// words. `None` when it references unelaborated names or free
/// variables.
fn compile_expr(e: &Expr, infos: &[PrimInfo]) -> Option<CompiledExpr> {
    let mut l = Lowerer::new(infos);
    let eval = match l.word_expr(e) {
        // Guards are Bool-typed; a non-Bool root must keep the boxed
        // `as_bool` error, so only Bool roots take the bare-word form.
        Some((wt, WordTy::Bool)) => GuardEval::Word(wt),
        Some((wt, ty)) => GuardEval::Boxed(Box::new(move |p, f| Ok(ty.materialize(wt(p, f)?)))),
        None => {
            l = Lowerer::new(infos);
            GuardEval::Boxed(l.expr(e)?)
        }
    };
    Some(CompiledExpr {
        eval,
        slots: l.slots,
        words: l.words,
    })
}

/// Lowers a rule body, or `None` if it uses constructs the backend does
/// not model (`localGuard`, unelaborated names, free variables).
fn compile_action(a: &Action, infos: &[PrimInfo]) -> Option<CompiledAction> {
    let mut l = Lowerer::new(infos);
    let thunk = l.action(a)?;
    Some(CompiledAction {
        thunk,
        slots: l.slots,
        words: l.words,
    })
}

fn compile_plan(plan: &RulePlan, infos: &[PrimInfo]) -> NativeRule {
    NativeRule {
        guard: plan.guard.as_ref().and_then(|g| compile_expr(g, infos)),
        body: compile_action(&plan.body, infos),
    }
}

/// Lowers every plan of a design to native closures for a flat-arena
/// store. The design supplies the primitive element layouts that let
/// scalar port traffic run unboxed (see the module docs).
pub fn compile_plans(plans: &[RulePlan], design: &Design) -> Vec<NativeRule> {
    let infos = prim_infos(design);
    plans.iter().map(|p| compile_plan(p, &infos)).collect()
}

/// Native counterpart of [`crate::exec::eval_guard_ro`]: evaluates a
/// lowered guard directly against the committed flat-arena store,
/// folding guard failures to `Ok(false)`. Charges identical cost.
pub fn eval_guard_native(
    frame: &mut NativeFrame,
    store: &Store,
    guard: &CompiledExpr,
    cost: &mut Cost,
) -> ExecResult<bool> {
    cost.guard_evals += 1;
    frame.ensure(guard.slots);
    frame.ensure_words(guard.words);
    let mut port = NativePort::Ro { store, cost };
    let r = match &guard.eval {
        GuardEval::Word(t) => t(&mut port, frame).map(|w| w != 0),
        GuardEval::Boxed(t) => t(&mut port, frame).and_then(|v| v.as_bool()),
    };
    match r {
        Err(ExecError::GuardFail) => Ok(false),
        r => r,
    }
}

/// Native counterpart of [`crate::exec::run_rule`]: executes a lowered
/// body as a transaction over a flat-arena store, committing on success
/// and rolling back on guard failure. The shadows live in `log`, which
/// the caller reuses across firings.
pub fn run_rule_native(
    frame: &mut NativeFrame,
    log: &mut TxnLog,
    store: &mut Store,
    body: &CompiledAction,
    policy: ShadowPolicy,
) -> ExecResult<(RuleOutcome, Cost)> {
    let mut txn = Txn::new(store, log, policy);
    txn.cost.txn_setups += 1;
    frame.ensure(body.slots);
    frame.ensure_words(body.words);
    let mut port = NativePort::Txn(txn);
    let r = (body.thunk)(&mut port, frame);
    let NativePort::Txn(txn) = port else {
        unreachable!("rule body cannot change its port variant")
    };
    match r {
        Ok(()) => Ok((RuleOutcome::Fired, txn.commit())),
        Err(ExecError::GuardFail) => Ok((RuleOutcome::GuardFailed, txn.rollback())),
        Err(e) => Err(e),
    }
}

/// Native counterpart of [`crate::exec::run_rule_inplace`]: executes a
/// fully guard-lifted body straight against the committed flat-arena
/// store — no transaction and no shadow log. Cost-identical
/// to the in-place interpreter.
pub fn run_rule_inplace_native(
    frame: &mut NativeFrame,
    store: &mut Store,
    body: &CompiledAction,
) -> ExecResult<Cost> {
    frame.ensure(body.slots);
    frame.ensure_words(body.words);
    let mut cost = Cost::default();
    cost.inplace_runs += 1;
    let mut port = NativePort::InPlace { store, cost };
    let r = (body.thunk)(&mut port, frame);
    let NativePort::InPlace { cost, .. } = port else {
        unreachable!("rule body cannot change its port variant")
    };
    match r {
        Ok(()) => Ok(cost),
        Err(ExecError::GuardFail) => Err(ExecError::Malformed(
            "guard failure during in-place execution (unsound lifting)".into(),
        )),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, PrimId, PrimMethod, RuleDef};
    use crate::design::{Design, PrimDef};
    use crate::exec::{eval_guard_ro, run_rule, run_rule_inplace};
    use crate::prim::PrimSpec;
    use crate::types::Type;
    use crate::value::BinOp;
    use crate::xform::{compile_rule, CompileOpts, ExecMode};

    const A: PrimId = PrimId(0);
    const F: PrimId = PrimId(1);
    const B: PrimId = PrimId(2);

    fn d3() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("f"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("b"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
            ],
            ..Default::default()
        }
    }

    fn wr(id: PrimId, e: Expr) -> Action {
        Action::Write(Target::Prim(id, PrimMethod::RegWrite), Box::new(e))
    }
    fn rd(id: PrimId) -> Expr {
        Expr::Call(Target::Prim(id, PrimMethod::RegRead), vec![])
    }
    fn enq(id: PrimId, e: Expr) -> Action {
        Action::Call(Target::Prim(id, PrimMethod::Enq), vec![e])
    }

    /// Every primitive holds the same state on the tree and flat stores.
    fn assert_same_state(tree: &Store, flat: &Store, design: &Design, what: &str) {
        for id in (0..design.prims.len()).map(PrimId) {
            assert_eq!(
                tree.get_state(id),
                flat.get_state(id),
                "prim {} state tree/flat for {what}",
                id.0
            );
        }
    }

    /// The native backend on a flat store must match the AST interpreter
    /// on the tree store in verdicts, final state, and — bit for bit —
    /// cost counters.
    fn assert_native_parity(rule: &RuleDef, design: &Design, setup: impl Fn(&mut Store)) {
        let plan = compile_rule(rule, CompileOpts::default());
        let native = compile_plan(&plan, &prim_infos(design));
        let mut s_ast = Store::new(design);
        setup(&mut s_ast);
        let mut s_nat = Store::new_flat(design);
        setup(&mut s_nat);
        let mut frame = NativeFrame::new();
        if let Some(g) = &plan.guard {
            let cg = native.guard.as_ref().expect("guard compiles natively");
            let mut c_ast = Cost::default();
            let mut c_nat = Cost::default();
            let v_ast = eval_guard_ro(&mut s_ast, g, &mut c_ast).unwrap();
            let v_nat = eval_guard_native(&mut frame, &s_nat, cg, &mut c_nat).unwrap();
            assert_eq!(v_ast, v_nat, "guard verdict for {}", rule.name);
            assert_eq!(c_ast, c_nat, "guard cost for {}", rule.name);
        }
        let cb = native.body.as_ref().expect("body compiles natively");
        let (out_ast, cost_ast) = run_rule(&mut s_ast, &plan.body, ShadowPolicy::Partial).unwrap();
        let (out_nat, cost_nat) = run_rule_native(
            &mut frame,
            &mut TxnLog::new(),
            &mut s_nat,
            cb,
            ShadowPolicy::Partial,
        )
        .unwrap();
        assert_eq!(out_ast, out_nat, "outcome for {}", rule.name);
        assert_eq!(cost_ast, cost_nat, "body cost for {}", rule.name);
        assert_same_state(&s_ast, &s_nat, design, &rule.name);
    }

    /// In-place parity for fully lifted rules: native on flat against the
    /// interpreter on tree.
    fn assert_inplace_parity(rule: &RuleDef, design: &Design, setup: impl Fn(&mut Store)) {
        let plan = compile_rule(rule, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace, "{} must lift", rule.name);
        let native = compile_plan(&plan, &prim_infos(design));
        let cb = native.body.as_ref().expect("body compiles natively");
        let mut s_ast = Store::new(design);
        setup(&mut s_ast);
        let mut s_nat = Store::new_flat(design);
        setup(&mut s_nat);
        let mut frame = NativeFrame::new();
        let c_ast = run_rule_inplace(&mut s_ast, &plan.body).unwrap();
        let c_nat = run_rule_inplace_native(&mut frame, &mut s_nat, cb).unwrap();
        assert_eq!(c_ast, c_nat, "in-place cost for {}", rule.name);
        assert_same_state(&s_ast, &s_nat, design, &rule.name);
    }

    /// The paper's running example: `Rule foo {a := 1; f.enq(a); a := 0}`.
    fn rule_foo() -> RuleDef {
        RuleDef {
            name: "foo".into(),
            body: Action::Seq(
                Box::new(wr(A, Expr::int(32, 1))),
                Box::new(Action::Seq(
                    Box::new(enq(F, rd(A))),
                    Box::new(wr(A, Expr::int(32, 0))),
                )),
            ),
        }
    }

    #[test]
    fn native_execution_matches_interpreter() {
        let d = d3();
        assert_native_parity(&rule_foo(), &d, |_| {});
        assert_native_parity(&rule_foo(), &d, |s| {
            for _ in 0..2 {
                s.call_action_at(F, PrimMethod::Enq, &[Value::int(32, 0)])
                    .unwrap();
            }
        });
        // Conditional both ways.
        let cond = RuleDef {
            name: "c".into(),
            body: Action::If(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 0)),
                )),
                Box::new(enq(F, rd(A))),
                Box::new(wr(B, Expr::int(32, 9))),
            ),
        };
        assert_native_parity(&cond, &d, |_| {});
        assert_native_parity(&cond, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 3)])
                .unwrap();
        });
        // Nested lets with shadowing.
        let lets = RuleDef {
            name: "lets".into(),
            body: Action::Let(
                "x".into(),
                Box::new(Expr::int(32, 3)),
                Box::new(Action::Let(
                    "x".into(),
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Var("x".into())),
                        Box::new(Expr::int(32, 1)),
                    )),
                    Box::new(wr(A, Expr::Var("x".into()))),
                )),
            ),
        };
        assert_native_parity(&lets, &d, |_| {});
        // A loop with per-iteration condition cost.
        let lp = RuleDef {
            name: "lp".into(),
            body: Action::Loop(
                Box::new(Expr::Bin(
                    BinOp::Lt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 3)),
                )),
                Box::new(wr(
                    A,
                    Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                )),
            ),
        };
        assert_native_parity(&lp, &d, |_| {});
        // Vector expressions, including the fused LoadIndex path.
        let vecs = RuleDef {
            name: "vecs".into(),
            body: Action::Let(
                "v".into(),
                Box::new(Expr::UpdateIndex(
                    Box::new(Expr::MkVec(vec![
                        Expr::int(32, 10),
                        Expr::int(32, 20),
                        Expr::int(32, 30),
                    ])),
                    Box::new(Expr::int(32, 1)),
                    Box::new(Expr::int(32, 99)),
                )),
                Box::new(wr(
                    A,
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("v".into())),
                            Box::new(Expr::int(32, 1)),
                        )),
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("v".into())),
                            Box::new(Expr::int(32, 2)),
                        )),
                    ),
                )),
            ),
        };
        assert_native_parity(&vecs, &d, |_| {});
        // Struct expressions, including the fused LoadField path.
        let structs = RuleDef {
            name: "structs".into(),
            body: Action::Let(
                "s".into(),
                Box::new(Expr::UpdateField(
                    Box::new(Expr::MkStruct(vec![
                        ("re".into(), Expr::int(32, 7)),
                        ("im".into(), Expr::int(32, 8)),
                    ])),
                    "im".into(),
                    Box::new(Expr::int(32, 80)),
                )),
                Box::new(wr(
                    A,
                    Expr::Field(Box::new(Expr::Var("s".into())), "im".into()),
                )),
            ),
        };
        assert_native_parity(&structs, &d, |_| {});
        // A residual mid-sequence guard (deq;enq on the same FIFO) — the
        // native body must fail/rollback exactly like the interpreter.
        let residual = RuleDef {
            name: "res".into(),
            body: Action::Seq(
                Box::new(Action::Call(Target::Prim(F, PrimMethod::Deq), vec![])),
                Box::new(enq(F, Expr::int(32, 1))),
            ),
        };
        assert_native_parity(&residual, &d, |_| {});
        assert_native_parity(&residual, &d, |s| {
            s.call_action_at(F, PrimMethod::Enq, &[Value::int(32, 5)])
                .unwrap();
        });
        // A true swap keeps its Par body; the native closure drives the
        // same par_start/par_mid/par_end frame discipline.
        let swap = RuleDef {
            name: "swap".into(),
            body: Action::Par(Box::new(wr(A, rd(B))), Box::new(wr(B, rd(A)))),
        };
        assert_native_parity(&swap, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 7)])
                .unwrap();
        });
        // When-expression guard folding.
        let when_e = RuleDef {
            name: "when_e".into(),
            body: wr(
                A,
                Expr::When(
                    Box::new(rd(B)),
                    Box::new(Expr::Bin(
                        BinOp::Gt,
                        Box::new(rd(B)),
                        Box::new(Expr::int(32, 5)),
                    )),
                ),
            ),
        };
        assert_native_parity(&when_e, &d, |_| {});
    }

    #[test]
    fn native_inplace_matches_interpreter() {
        let d = d3();
        assert_inplace_parity(&rule_foo(), &d, |_| {});
        let lg = RuleDef {
            name: "lg".into(),
            body: Action::LocalGuard(Box::new(enq(F, Expr::int(32, 1)))),
        };
        // The lifter turns this into a plain conditional, which the
        // native backend executes in place.
        assert_inplace_parity(&lg, &d, |_| {});
    }

    #[test]
    fn double_write_reported_identically() {
        let d = d3();
        let body = Action::Par(
            Box::new(wr(A, Expr::int(32, 1))),
            Box::new(wr(A, Expr::int(32, 2))),
        );
        let cb = compile_action(&body, &prim_infos(&d)).expect("Par compiles");
        let mut s = Store::new_flat(&d);
        let mut frame = NativeFrame::new();
        let err = run_rule_native(
            &mut frame,
            &mut TxnLog::new(),
            &mut s,
            &cb,
            ShadowPolicy::Partial,
        )
        .unwrap_err();
        let mut s2 = Store::new(&d);
        let err2 = run_rule(&mut s2, &body, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));
    }

    #[test]
    fn lowering_declines_local_guard_named_and_unbound() {
        // Exactly three constructs are left to the interpreter:
        // localGuard, unelaborated names, and unbound variables.
        let infos = prim_infos(&d3());
        let lg = Action::LocalGuard(Box::new(Action::NoAction));
        assert!(compile_action(&lg, &infos).is_none());
        let named = Action::Call(Target::Named("x".into(), "enq".into()), vec![]);
        assert!(compile_action(&named, &infos).is_none());
        let unbound = Expr::Var("nope".into());
        assert!(compile_expr(&unbound, &infos).is_none());
    }

    #[test]
    fn guard_failures_fold_to_false() {
        let d = d3();
        let s = Store::new_flat(&d);
        let mut frame = NativeFrame::new();
        let mut cost = Cost::default();
        // Guard reads f.first on an empty FIFO -> false, not an error.
        let g = Expr::Bin(
            BinOp::Gt,
            Box::new(Expr::Call(Target::Prim(F, PrimMethod::First), vec![])),
            Box::new(Expr::int(32, 0)),
        );
        let cg = compile_expr(&g, &prim_infos(&d)).unwrap();
        assert!(!eval_guard_native(&mut frame, &s, &cg, &mut cost).unwrap());
        assert_eq!(cost.guard_evals, 1);
        // And cost parity with the interpreter on the failure path.
        let mut s2 = Store::new(&d);
        let mut cost2 = Cost::default();
        assert!(!eval_guard_ro(&mut s2, &g, &mut cost2).unwrap());
        assert_eq!(cost, cost2);
    }

    /// A design exercising the word paths: a complex-pair FIFO, a
    /// regfile, and scalar registers at awkward widths.
    fn d_word() -> Design {
        let pair = Type::Struct(vec![
            ("re".into(), Type::Int(32)),
            ("im".into(), Type::Int(32)),
        ]);
        Design {
            name: "w".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("f"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Vector(2, Box::new(pair)),
                    },
                },
                PrimDef {
                    path: Path::new("rf"),
                    spec: PrimSpec::RegFile {
                        size: 4,
                        ty: Type::Int(63),
                        init: vec![],
                    },
                },
                PrimDef {
                    path: Path::new("n63"),
                    spec: PrimSpec::Reg {
                        init: Value::int(63, -5),
                    },
                },
                PrimDef {
                    path: Path::new("b64"),
                    spec: PrimSpec::Reg {
                        init: Value::bits(64, u64::MAX - 2),
                    },
                },
            ],
            ..Default::default()
        }
    }

    const RF: PrimId = PrimId(2);
    const N63: PrimId = PrimId(3);
    const B64: PrimId = PrimId(4);
    const FV: PrimId = PrimId(1);

    fn mkpair(re: i64, im: i64) -> Expr {
        Expr::MkStruct(vec![
            ("re".into(), Expr::int(32, re)),
            ("im".into(), Expr::int(32, im)),
        ])
    }

    #[test]
    fn word_path_aggregate_fifo_chain() {
        let d = d_word();
        // Let x = f.first(); a := x[1].im; f.deq(); f.enq([{1,2},{3,4}])
        let body = Action::Let(
            "x".into(),
            Box::new(Expr::Call(Target::Prim(FV, PrimMethod::First), vec![])),
            Box::new(Action::Seq(
                Box::new(wr(
                    A,
                    Expr::Field(
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("x".into())),
                            Box::new(Expr::int(32, 1)),
                        )),
                        "im".into(),
                    ),
                )),
                Box::new(Action::Seq(
                    Box::new(Action::Call(Target::Prim(FV, PrimMethod::Deq), vec![])),
                    Box::new(Action::Call(
                        Target::Prim(FV, PrimMethod::Enq),
                        vec![Expr::MkVec(vec![mkpair(1, 2), mkpair(3, 4)])],
                    )),
                )),
            )),
        );
        let rule = RuleDef {
            name: "agg".into(),
            body,
        };
        let payload = Value::Vec(vec![
            Value::Struct(vec![
                ("re".into(), Value::int(32, 7)),
                ("im".into(), Value::int(32, -9)),
            ]),
            Value::Struct(vec![
                ("re".into(), Value::int(32, 11)),
                ("im".into(), Value::int(32, 13)),
            ]),
        ]);
        // Empty FIFO: guard-fails identically everywhere.
        assert_native_parity(&rule, &d, |_| {});
        let p = payload.clone();
        assert_native_parity(&rule, &d, move |s| {
            s.call_action_at(FV, PrimMethod::Enq, std::slice::from_ref(&p))
                .unwrap();
        });
    }

    #[test]
    fn word_path_regfile_and_widths() {
        let d = d_word();
        // rf.upd(a, n63 + 1); n63 := rf.sub(a) - 7; b64 := ~b64; a := a + 1
        let body = Action::Seq(
            Box::new(Action::Call(
                Target::Prim(RF, PrimMethod::Upd),
                vec![
                    rd(A),
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Call(Target::Prim(N63, PrimMethod::RegRead), vec![])),
                        Box::new(Expr::int(63, 1)),
                    ),
                ],
            )),
            Box::new(Action::Seq(
                Box::new(wr(
                    N63,
                    Expr::Bin(
                        BinOp::Sub,
                        Box::new(Expr::Call(Target::Prim(RF, PrimMethod::Sub), vec![rd(A)])),
                        Box::new(Expr::int(63, 7)),
                    ),
                )),
                Box::new(Action::Seq(
                    Box::new(wr(
                        B64,
                        Expr::Un(
                            UnOp::Inv,
                            Box::new(Expr::Call(Target::Prim(B64, PrimMethod::RegRead), vec![])),
                        ),
                    )),
                    Box::new(wr(
                        A,
                        Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                    )),
                )),
            )),
        );
        let rule = RuleDef {
            name: "rfw".into(),
            body,
        };
        assert_native_parity(&rule, &d, |_| {});
        assert_native_parity(&rule, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 3)])
                .unwrap();
        });
    }

    #[test]
    fn word_path_regfile_error_parity() {
        let d = d_word();
        // Out-of-range dynamic upd: error text must match the
        // interpreter's, on both backends.
        let body = Action::Call(
            Target::Prim(RF, PrimMethod::Upd),
            vec![Expr::int(32, 9), Expr::int(63, 1)],
        );
        let cb = compile_action(&body, &prim_infos(&d)).expect("compiles");
        let mut frame = NativeFrame::new();
        let mut s_flat = Store::new_flat(&d);
        let err_flat = run_rule_native(
            &mut frame,
            &mut TxnLog::new(),
            &mut s_flat,
            &cb,
            ShadowPolicy::Partial,
        )
        .unwrap_err();
        let mut s_tree = Store::new(&d);
        let err_tree = run_rule(&mut s_tree, &body, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err_flat}"), format!("{err_tree}"));
        // Negative dynamic index, same contract.
        let neg = Action::Call(
            Target::Prim(RF, PrimMethod::Upd),
            vec![Expr::int(32, -1), Expr::int(63, 1)],
        );
        let cb = compile_action(&neg, &prim_infos(&d)).expect("compiles");
        let err_flat = run_rule_native(
            &mut frame,
            &mut TxnLog::new(),
            &mut s_flat,
            &cb,
            ShadowPolicy::Partial,
        )
        .unwrap_err();
        let err_tree = run_rule(&mut s_tree, &neg, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err_flat}"), format!("{err_tree}"));
    }

    #[test]
    fn word_guards_never_materialize() {
        let d = d_word();
        // A typical guard: f.notEmpty && (a > 0). Must lower to a bare
        // word thunk on the flat path.
        let g = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Call(Target::Prim(FV, PrimMethod::NotEmpty), vec![])),
            Box::new(Expr::Bin(
                BinOp::Gt,
                Box::new(rd(A)),
                Box::new(Expr::int(32, 0)),
            )),
        );
        let cg = compile_expr(&g, &prim_infos(&d)).expect("compiles");
        assert!(
            matches!(cg.eval, GuardEval::Word(_)),
            "guard should lower to the bare-word form"
        );
        // And it evaluates with interpreter-identical cost and verdict.
        let s = Store::new_flat(&d);
        let mut frame = NativeFrame::new();
        let mut c_nat = Cost::default();
        let v_nat = eval_guard_native(&mut frame, &s, &cg, &mut c_nat).unwrap();
        let mut s2 = Store::new_flat(&d);
        let mut c_ast = Cost::default();
        let v_ast = eval_guard_ro(&mut s2, &g, &mut c_ast).unwrap();
        assert_eq!(v_nat, v_ast);
        assert_eq!(c_nat, c_ast);
    }
}
