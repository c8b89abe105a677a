//! The compiled execution backend: rule programs lowered to
//! closure-threaded native code over the flat arena store.
//!
//! Each guard and rule body is lowered once, when a scheduler is built,
//! straight from the (already lifted and sequentialized) AST into a tree
//! of monomorphized Rust closures threaded into a single callable, so
//! control flow stays structured and no node is dispatched at run time.
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
//! ## Words and packed regions
//!
//! The target is a flat-arena store ([`Store::new_flat`]); tree-backed
//! stores are not lowered for at all (the schedulers interpret there).
//! Every value a lowered closure handles is in the flat store's own
//! representation, the `write_flat` bit packing:
//!
//! - a scalar of width ≤ 64 is a `u64` word returned by its closure;
//! - any other value is written as packed bits into [`NativeFrame`]
//!   scratch at a destination bit the caller passes in at run time, so
//!   an expression is lowered once whatever region it lands in.
//!
//! Let-bound aggregates, constructor results, functional updates and
//! the operands of aggregate `==`/`!=` live in scratch regions reserved
//! at lower time. Field names and element strides resolve to bit
//! offsets at lower time. Register reads, FIFO and source heads, and
//! register-file cells are read in place through
//! [`Store::call_value_word_at`] and its packed sibling; writes,
//! enqueues and updates hand over the element's packed bits. The one
//! [`Value`] a lowered rule builds is the element a sink keeps.
//!
//! ## What is rejected
//!
//! Lowering is total: a scheduler that lowers its rules (a compiled
//! `SwRunner`, or any `HwSim`, over a flat store) lowers every one of
//! them, or it is not built. [`compile_plans`] refuses a design, with
//! an [`ElabError`] naming the rule and whether its guard or its body
//! failed, when a rule holds something it cannot prove charge- and
//! result-identical to the interpreter: an unelaborated `Named` target,
//! an unbound variable, or a shape the interpreter would reject or
//! reshape at run time — a non-Bool condition or guard, `Cond` arms or
//! vector elements of unequal layouts, an empty vector, an update whose
//! new element or field has another layout, arithmetic on an aggregate,
//! a method the primitive does not have, a payload whose width is not
//! the primitive's, and an aggregate constant that does not decode back
//! to itself. A well-typed elaborated design holds none of these; the
//! AST interpreter stays only as the reference oracle.

use crate::ast::{Action, Expr, PrimId, PrimMethod, Target};
use crate::design::Design;
use crate::error::{ElabError, ExecError, ExecResult};
use crate::exec::RuleOutcome;
use crate::prim::PrimSpec;
use crate::store::{Cost, ShadowPolicy, Store, Txn, TxnLog};
use crate::types::{FieldLayout, Layout, LayoutKind};
use crate::value::{
    copy_bits, copy_bits_within, get_bits, mask, put_bits, sign_extend, BinOp, UnOp, Value,
};
use crate::xform::RulePlan;
use std::fmt;
use std::sync::Arc;

/// Scratch space for compiled rules: one word per let-bound scalar and
/// one bit-packed region per aggregate, addressed by bit offset. One
/// frame is kept per scheduler and reused across every guard and body
/// execution; it grows to the largest program's footprint once and is
/// never cleared (every word is written before it is read).
#[derive(Debug, Default)]
pub struct NativeFrame {
    words: Vec<u64>,
}

impl NativeFrame {
    /// A fresh, empty frame.
    pub fn new() -> NativeFrame {
        NativeFrame::default()
    }

    #[inline]
    fn ensure(&mut self, n: usize) {
        if self.words.len() < n {
            self.words.resize(n, 0);
        }
    }
}

type ActThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<()> + Send + Sync>;
type WordThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<u64> + Send + Sync>;
type PlaceThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<Place> + Send + Sync>;
/// Writes a value's packed bits into frame scratch at the destination
/// bit given as the last argument.
type PackThunk = Box<
    dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame, usize) -> ExecResult<()> + Send + Sync,
>;

/// The scalar type of an unboxed word. Mirrors the three leaf [`Value`]
/// variants; the word is always the value's `write_flat` bit pattern in
/// the low `width()` bits.
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

    fn layout(self) -> Layout {
        let kind = match self {
            WordTy::Bool => LayoutKind::Bool,
            WordTy::Bits(w) => LayoutKind::Bits(w),
            WordTy::Int(w) => LayoutKind::Int(w),
        };
        Layout {
            width: self.width(),
            kind,
        }
    }
}

/// Lower-time knowledge about one primitive, derived from the
/// [`Design`]: which methods lower and the packed layout of its element.
struct PrimInfo {
    kind: PrimKindInfo,
    layout: Arc<Layout>,
}

/// The lowering-relevant primitive kind (mirrors `flat.rs`'s arena
/// mapping: synchronizers flatten to FIFOs; sources and sinks stay boxed
/// and are reached through the store's packed entry points).
#[derive(Clone, Copy)]
enum PrimKindInfo {
    Reg,
    Fifo,
    RegFile { size: usize },
    Source,
    Sink,
}

/// Builds the per-primitive layout table the lowering keys on.
fn prim_infos(design: &Design) -> Vec<PrimInfo> {
    design
        .prims
        .iter()
        .map(|p| {
            let kind = match &p.spec {
                PrimSpec::Reg { .. } => PrimKindInfo::Reg,
                PrimSpec::Fifo { .. } | PrimSpec::Sync { .. } => PrimKindInfo::Fifo,
                PrimSpec::RegFile { size, .. } => PrimKindInfo::RegFile { size: *size },
                PrimSpec::Source { .. } => PrimKindInfo::Source,
                PrimSpec::Sink { .. } => PrimKindInfo::Sink,
            };
            PrimInfo {
                kind,
                layout: Arc::new(Layout::of(&p.spec.value_type())),
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

/// Whether two equal-width packed spans of frame scratch hold the same
/// bits — structural equality of two values of one layout.
fn bits_eq(words: &[u64], a: usize, b: usize, width: u32) -> bool {
    let mut done = 0u32;
    while done < width {
        let n = (width - done).min(64);
        let at = done as usize;
        if get_bits(words, a + at, n) != get_bits(words, b + at, n) {
            return false;
        }
        done += n;
    }
    true
}

/// How a let-bound name is stored in the frame: an unboxed word, or a
/// bit-packed region holding a value of `layout`.
#[derive(Clone)]
enum Binding {
    Word { slot: usize, ty: WordTy },
    Packed { base: usize, layout: Arc<Layout> },
}

/// A lowered expression: a scalar word, or a writer of packed bits.
enum Lowered {
    Word(WordThunk, WordTy),
    Packed(PackThunk, Arc<Layout>),
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

fn action_in_guard(m: PrimMethod) -> ExecError {
    ExecError::Malformed(format!(
        "action method `{m:?}` called in a guard expression"
    ))
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

    /// Charges one read without performing one — used when a place is
    /// resolved first and its packed bits are fetched later, so the
    /// charge lands where the interpreter's `call_value` puts it.
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

    /// Uncharged packed read into frame scratch; same charging contract
    /// as [`Self::peek_word`].
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

    /// An argument-free action (`deq`, `clear`): one write charged.
    #[inline]
    fn call_action_noarg(&mut self, id: PrimId, m: PrimMethod) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action(id, m, &[]),
            NativePort::Ro { .. } => Err(action_in_guard(m)),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_at(id, m, &[])
            }
        }
    }

    /// Word-level `call_action`: one write charged, the payload an
    /// unboxed word. `cell` is signed so regfile index errors keep the
    /// interpreter's error order (see [`Store::call_action_word_at`]).
    #[inline]
    fn call_action_word(&mut self, id: PrimId, m: PrimMethod, cell: i64, w: u64) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action_word(id, m, cell, w),
            NativePort::Ro { .. } => Err(action_in_guard(m)),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_word_at(id, m, cell, w)
            }
        }
    }

    /// Packed `call_action` from frame scratch bits.
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
            NativePort::Ro { .. } => Err(action_in_guard(m)),
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

    /// Opens a `localGuard`'s discardable frame and returns its index,
    /// as the interpreter's `push_frame` does; only a transaction that
    /// can roll back has one.
    fn local_guard_start(&mut self) -> ExecResult<usize> {
        match self {
            NativePort::Txn(t) if t.policy != ShadowPolicy::InPlace => Ok(t.push_frame()),
            _ => Err(ExecError::Malformed(
                "localGuard reached an in-place (guard-lifted) execution".into(),
            )),
        }
    }

    /// Closes a `localGuard`'s frame given its body's result: merged
    /// into its parent on success; on failure discarded, with every
    /// frame a failing `Par` left above it and one rollback charged, a
    /// guard failure absorbed and any other error passed on.
    fn local_guard_end(&mut self, at: usize, r: ExecResult<()>) -> ExecResult<()> {
        let NativePort::Txn(t) = self else {
            return r;
        };
        match r {
            Ok(()) => t.pop_merge(),
            Err(e) => {
                t.discard_from(at);
                match e {
                    ExecError::GuardFail => Ok(()),
                    e => Err(e),
                }
            }
        }
    }

    fn par_end(&mut self) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.par_end(),
            _ => Ok(()),
        }
    }
}

/// A guard lowered to a closure returning its Bool verdict as a word
/// (see [`compile_plans`]).
pub struct CompiledExpr {
    eval: WordThunk,
    words: usize,
}

impl fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledExpr")
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// A rule body lowered to a native closure for a flat-arena store.
pub struct CompiledAction {
    thunk: ActThunk,
    words: usize,
}

impl fmt::Debug for CompiledAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledAction")
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// A [`RulePlan`] lowered to native closures.
#[derive(Debug)]
pub struct NativeRule {
    /// The lifted guard: `Some` exactly when the plan has one.
    pub guard: Option<CompiledExpr>,
    /// The rule body.
    pub body: CompiledAction,
}

/// Compile-time lexical scope: let-bound names resolved to bindings,
/// plus the frame footprint the lowered closures need and the
/// per-primitive layout table the lowering keys on.
struct Lowerer<'d> {
    scope: Vec<(String, Binding)>,
    /// Scratch footprint, in 64-bit words.
    words: usize,
    prims: &'d [PrimInfo],
    /// Layouts built so far, reused so equal constructors share one.
    layouts: Vec<Arc<Layout>>,
}

impl<'d> Lowerer<'d> {
    fn new(prims: &'d [PrimInfo]) -> Lowerer<'d> {
        Lowerer {
            scope: Vec::new(),
            words: 0,
            prims,
            layouts: Vec::new(),
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

    /// Reserves a contiguous scratch region for `bits` packed bits and
    /// returns its base bit offset.
    fn alloc_region(&mut self, bits: u32) -> usize {
        let at = self.words;
        self.words += (bits as usize).div_ceil(64).max(1);
        at * 64
    }

    /// A shared copy of `l`: an equal layout built earlier, else `l`.
    fn intern(&mut self, l: Layout) -> Arc<Layout> {
        if let Some(found) = self.layouts.iter().find(|x| ***x == l) {
            return Arc::clone(found);
        }
        let l = Arc::new(l);
        self.layouts.push(Arc::clone(&l));
        l
    }

    /// Lowers an expression. Each arm evaluates, charges and fails
    /// exactly where [`crate::exec::eval`] does, and its word or packed
    /// bits are the `write_flat` bits of the interpreter's value.
    fn lower(&mut self, e: &Expr) -> Option<Lowered> {
        Some(match e {
            Expr::Const(v) => return self.constant(v),
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Word { slot, ty } => {
                    Lowered::Word(Box::new(move |_, f| Ok(f.words[slot])), ty)
                }
                Binding::Packed { .. } => return self.place_read(e),
            },
            Expr::Un(op, a) => {
                let (at, aty) = self.word(a)?;
                let m = mask(aty.width());
                let apply: fn(u64, u64) -> u64 = match (*op, aty) {
                    (UnOp::Not, WordTy::Bool) => |w, _| w ^ 1,
                    (UnOp::Neg, WordTy::Int(_)) | (UnOp::Neg, WordTy::Bits(_)) => {
                        |w, m| w.wrapping_neg() & m
                    }
                    (UnOp::Inv, WordTy::Int(_)) | (UnOp::Inv, WordTy::Bits(_)) => |w, m| !w & m,
                    _ => return None,
                };
                Lowered::Word(
                    Box::new(move |p, f| {
                        let w = at(p, f)?;
                        p.cost().ops += 1;
                        Ok(apply(w, m))
                    }),
                    aty,
                )
            }
            Expr::Bin(op, a, b) => return self.binary(*op, a, b),
            Expr::Cond(c, t, fl) => {
                let c = self.cond(c)?;
                match (self.lower(t)?, self.lower(fl)?) {
                    (Lowered::Word(t, tty), Lowered::Word(fl, fty)) if tty == fty => Lowered::Word(
                        Box::new(move |p, f| {
                            let vc = c(p, f)? != 0;
                            p.cost().ops += 1;
                            if vc {
                                t(p, f)
                            } else {
                                fl(p, f)
                            }
                        }),
                        tty,
                    ),
                    (Lowered::Packed(t, tl), Lowered::Packed(fl, fll)) if tl == fll => {
                        Lowered::Packed(
                            Box::new(move |p, f, dst| {
                                let vc = c(p, f)? != 0;
                                p.cost().ops += 1;
                                if vc {
                                    t(p, f, dst)
                                } else {
                                    fl(p, f, dst)
                                }
                            }),
                            tl,
                        )
                    }
                    _ => return None,
                }
            }
            Expr::When(v, g) => {
                // The guard is evaluated first, like the interpreter.
                let g = self.cond(g)?;
                let check: ActThunk = Box::new(move |p, f| {
                    let gv = g(p, f)? != 0;
                    p.cost().ops += 1;
                    if gv {
                        Ok(())
                    } else {
                        Err(ExecError::GuardFail)
                    }
                });
                then(check, self.lower(v)?)
            }
            Expr::Let(n, v, b) => {
                let (vt, binding) = self.bind_value(v)?;
                self.scope.push((n.clone(), binding));
                let b = self.lower(b);
                self.scope.pop();
                then(vt, b?)
            }
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                let probe = matches!(
                    (self.info(id)?.kind, m),
                    (
                        PrimKindInfo::Fifo,
                        PrimMethod::NotEmpty | PrimMethod::NotFull
                    ) | (PrimKindInfo::Source, PrimMethod::NotEmpty)
                        | (PrimKindInfo::Sink, PrimMethod::NotFull)
                );
                if probe && args.is_empty() {
                    // Occupancy probes are 1-bit words already.
                    return Some(Lowered::Word(
                        Box::new(move |p, _| p.call_value_word(id, m, 0, 0, 1)),
                        WordTy::Bool,
                    ));
                }
                return self.place_read(e);
            }
            Expr::Field(..) | Expr::Index(..) => return self.place_read(e),
            Expr::MkVec(es) => {
                let mut parts = Vec::with_capacity(es.len());
                let mut elem: Option<Arc<Layout>> = None;
                for el in es {
                    let (t, l) = self.pack(el)?;
                    if elem.as_ref().is_some_and(|x| *x != l) {
                        return None;
                    }
                    elem.get_or_insert(l);
                    parts.push(t);
                }
                let elem = elem?;
                let (len, stride) = (es.len(), elem.width);
                let layout = self.intern(Layout {
                    width: len as u32 * stride,
                    kind: LayoutKind::Vector { len, stride, elem },
                });
                Lowered::Packed(
                    Box::new(move |p, f, dst| {
                        for (k, t) in parts.iter().enumerate() {
                            t(p, f, dst + k * stride as usize)?;
                        }
                        p.cost().ops += len as u64;
                        Ok(())
                    }),
                    layout,
                )
            }
            Expr::MkStruct(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                let mut fields = Vec::with_capacity(fs.len());
                let mut offset = 0u32;
                for (name, el) in fs {
                    let (t, layout) = self.pack(el)?;
                    parts.push((offset as usize, t));
                    let width = layout.width;
                    fields.push(FieldLayout {
                        name: name.clone(),
                        offset,
                        layout,
                    });
                    offset += width;
                }
                let n = fs.len() as u64;
                let layout = self.intern(Layout {
                    width: offset,
                    kind: LayoutKind::Struct { fields },
                });
                Lowered::Packed(
                    Box::new(move |p, f, dst| {
                        for (off, t) in &parts {
                            t(p, f, dst + off)?;
                        }
                        p.cost().ops += n;
                        Ok(())
                    }),
                    layout,
                )
            }
            Expr::UpdateIndex(v, i, x) => {
                let (vt, layout) = self.pack(v)?;
                let LayoutKind::Vector { len, stride, elem } = &layout.kind else {
                    return None;
                };
                let (len, stride, elem) = (*len, *stride as usize, Arc::clone(elem));
                let (it, ity) = self.word(i)?;
                let (xt, xl) = self.pack(x)?;
                if xl != elem {
                    return None;
                }
                // An out-of-range new element is still evaluated and
                // charged before the bounds error; it lands here.
                let spare = self.alloc_region(elem.width);
                Lowered::Packed(
                    Box::new(move |p, f, dst| {
                        vt(p, f, dst)?;
                        let iv = ity.view_int(it(p, f)?);
                        let idx = index(iv)?;
                        xt(p, f, if idx < len { dst + idx * stride } else { spare })?;
                        // Functional update costs a copy of the vector.
                        p.cost().ops += len as u64;
                        if idx >= len {
                            return Err(ExecError::Bounds(format!("index {idx} out of {len}")));
                        }
                        Ok(())
                    }),
                    layout,
                )
            }
            Expr::UpdateField(v, name, x) => {
                let (vt, layout) = self.pack(v)?;
                let LayoutKind::Struct { fields } = &layout.kind else {
                    return None;
                };
                let fl = fields.iter().find(|fl| &fl.name == name)?;
                let (foff, flay) = (fl.offset as usize, Arc::clone(&fl.layout));
                let (xt, xl) = self.pack(x)?;
                if xl != flay {
                    return None;
                }
                Lowered::Packed(
                    Box::new(move |p, f, dst| {
                        vt(p, f, dst)?;
                        xt(p, f, dst + foff)?;
                        p.cost().ops += 1;
                        Ok(())
                    }),
                    layout,
                )
            }
        })
    }

    /// A scalar expression's word closure; `None` for anything else.
    fn word(&mut self, e: &Expr) -> Option<(WordThunk, WordTy)> {
        match self.lower(e)? {
            Lowered::Word(t, ty) => Some((t, ty)),
            Lowered::Packed(..) => None,
        }
    }

    /// A Bool-typed condition or guard.
    fn cond(&mut self, e: &Expr) -> Option<WordThunk> {
        match self.word(e)? {
            (t, WordTy::Bool) => Some(t),
            _ => None,
        }
    }

    /// Any expression as a writer of its packed bits, with its layout.
    fn pack(&mut self, e: &Expr) -> Option<(PackThunk, Arc<Layout>)> {
        Some(match self.lower(e)? {
            Lowered::Packed(t, l) => (t, l),
            Lowered::Word(t, ty) => {
                let width = ty.width();
                (
                    Box::new(move |p, f, dst| {
                        let w = t(p, f)?;
                        put_bits(&mut f.words, dst, width, w);
                        Ok(())
                    }),
                    self.intern(ty.layout()),
                )
            }
        })
    }

    /// A constant: scalars are immediate words, aggregates pre-pack at
    /// lower time.
    fn constant(&mut self, v: &Value) -> Option<Lowered> {
        if let Some((ty, w)) = WordTy::of_value(v) {
            return Some(Lowered::Word(Box::new(move |_, _| Ok(w)), ty));
        }
        let layout = Layout::of(&v.type_of());
        let mut ws = vec![0u64; layout.words64()];
        // A heterogeneous vector or a non-canonical scalar inside does
        // not survive its own layout; the interpreter keeps those.
        if v.write_flat(&mut ws, 0) != layout.width as usize
            || Value::read_flat(&layout, &ws, 0) != *v
        {
            return None;
        }
        let width = layout.width;
        Some(Lowered::Packed(
            Box::new(move |_, f, dst| {
                copy_bits(&ws, 0, &mut f.words, dst, width);
                Ok(())
            }),
            self.intern(layout),
        ))
    }

    /// Binary operators: scalar arithmetic and comparisons on words
    /// (mirroring [`Value::bin_op`], division errors included), and
    /// `==`/`!=` on two aggregates of one layout as a bit comparison of
    /// their packed regions.
    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Option<Lowered> {
        let charge = op.cpu_cost();
        let (at, aty, bt, bty) = match (self.lower(a)?, self.lower(b)?) {
            (Lowered::Word(at, aty), Lowered::Word(bt, bty)) => (at, aty, bt, bty),
            (Lowered::Packed(at, al), Lowered::Packed(bt, bl))
                if al == bl
                    && matches!(op, BinOp::Eq | BinOp::Ne)
                    && matches!(
                        al.kind,
                        LayoutKind::Vector { .. } | LayoutKind::Struct { .. }
                    ) =>
            {
                let width = al.width;
                let (ra, rb) = (self.alloc_region(width), self.alloc_region(width));
                let ne = op == BinOp::Ne;
                return Some(Lowered::Word(
                    Box::new(move |p, f| {
                        at(p, f, ra)?;
                        bt(p, f, rb)?;
                        p.cost().ops += charge;
                        Ok((bits_eq(&f.words, ra, rb, width) != ne) as u64)
                    }),
                    WordTy::Bool,
                ));
            }
            _ => return None,
        };
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
            return Some(Lowered::Word(
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
            return Some(Lowered::Word(
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
        // Arithmetic wraps at the left operand's width; a Bool left
        // operand promotes to Int(64), like `as_int`.
        let (width, rty) = match aty {
            WordTy::Bool => (64, WordTy::Int(64)),
            WordTy::Bits(w) => (w, WordTy::Bits(w)),
            WordTy::Int(w) => (w, WordTy::Int(w)),
        };
        let m = mask(width);
        Some(Lowered::Word(
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
        ))
    }

    /// Lowers a let-bound value to an unboxed word slot or a packed
    /// region. The returned thunk performs the store; charges are
    /// exactly the value expression's own (the store itself is free, as
    /// in the interpreter).
    fn bind_value(&mut self, v: &Expr) -> Option<(ActThunk, Binding)> {
        Some(match self.lower(v)? {
            Lowered::Word(wt, ty) => {
                let slot = self.words;
                self.words += 1;
                let t: ActThunk = Box::new(move |p, f| {
                    f.words[slot] = wt(p, f)?;
                    Ok(())
                });
                (t, Binding::Word { slot, ty })
            }
            Lowered::Packed(pt, layout) => {
                let base = self.alloc_region(layout.width);
                (
                    Box::new(move |p, f| pt(p, f, base)),
                    Binding::Packed { base, layout },
                )
            }
        })
    }

    /// Reads the value at an access chain: a word for a scalar leaf, a
    /// packed copy otherwise. The place chain carries every charge.
    fn place_read(&mut self, e: &Expr) -> Option<Lowered> {
        let (pt, layout) = self.agg_place(e)?;
        Some(match WordTy::of_layout(&layout) {
            Some(ty) => {
                let width = ty.width();
                Lowered::Word(
                    Box::new(move |p, f| {
                        let pl = pt(p, f)?;
                        read_place_word(p, f, pl, width)
                    }),
                    ty,
                )
            }
            None => {
                let width = layout.width;
                Lowered::Packed(
                    Box::new(move |p, f, dst| {
                        let pl = pt(p, f)?;
                        copy_place_packed(p, f, pl, width, dst)
                    }),
                    layout,
                )
            }
        })
    }

    /// Resolves an access chain (a let-bound aggregate, `prim.read()`,
    /// `.field`, `[index]`) to a packed [`Place`] without copying any
    /// intermediate value. Field offsets fold at lower time; element
    /// strides multiply a runtime index. The place thunk charges exactly
    /// what the interpreter charges, in the same order: the port read
    /// first (including the empty-FIFO guard failure, so later field and
    /// index ops are not charged on the failing path), then one op per
    /// field or index step.
    fn agg_place(&mut self, e: &Expr) -> Option<(PlaceThunk, Arc<Layout>)> {
        match e {
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Packed { base, layout } => Some((
                    Box::new(move |_, _| {
                        Ok(Place {
                            kind: PlaceKind::Frame { bit: base },
                            off: 0,
                        })
                    }),
                    layout,
                )),
                Binding::Word { .. } => None,
            },
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                let info = self.info(id)?;
                let layout = Arc::clone(&info.layout);
                let at = move |cell| Place {
                    kind: PlaceKind::Prim { id, m, cell },
                    off: 0,
                };
                match (info.kind, m, args.as_slice()) {
                    (PrimKindInfo::Reg, PrimMethod::RegRead, []) => Some((
                        Box::new(move |p, _| {
                            p.charge_read();
                            Ok(at(0))
                        }),
                        layout,
                    )),
                    (PrimKindInfo::Fifo | PrimKindInfo::Source, PrimMethod::First, []) => Some((
                        Box::new(move |p, _| {
                            p.charge_read();
                            if p.peek_word(id, PrimMethod::NotEmpty, 0, 0, 1)? == 0 {
                                return Err(ExecError::GuardFail);
                            }
                            Ok(at(0))
                        }),
                        layout,
                    )),
                    (PrimKindInfo::RegFile { size }, PrimMethod::Sub, [i]) => {
                        let (it, ity) = self.word(i)?;
                        Some((
                            Box::new(move |p, f| {
                                let iv = ity.view_int(it(p, f)?);
                                p.charge_read();
                                let cell = index(iv)?;
                                if cell >= size {
                                    return Err(ExecError::Bounds(format!(
                                        "sub {cell} out of {size}"
                                    )));
                                }
                                Ok(at(cell))
                            }),
                            layout,
                        ))
                    }
                    _ => None,
                }
            }
            Expr::Field(v, name) => {
                let (inner, layout) = self.base_place(v)?;
                let LayoutKind::Struct { fields } = &layout.kind else {
                    return None;
                };
                let fl = fields.iter().find(|fl| &fl.name == name)?;
                let foff = fl.offset;
                Some((
                    Box::new(move |p, f| {
                        let mut pl = inner(p, f)?;
                        p.cost().ops += 1;
                        pl.off += foff;
                        Ok(pl)
                    }),
                    Arc::clone(&fl.layout),
                ))
            }
            Expr::Index(v, i) => {
                let (inner, layout) = self.base_place(v)?;
                let LayoutKind::Vector { len, stride, elem } = &layout.kind else {
                    return None;
                };
                let (len, stride) = (*len, *stride);
                let elem = Arc::clone(elem);
                let (it, ity) = self.word(i)?;
                Some((
                    Box::new(move |p, f| {
                        let mut pl = inner(p, f)?;
                        let idx = index(ity.view_int(it(p, f)?))?;
                        p.cost().ops += 1;
                        if idx >= len {
                            return Err(ExecError::Bounds(format!("index {idx} out of {len}")));
                        }
                        pl.off += idx as u32 * stride;
                        Ok(pl)
                    }),
                    elem,
                ))
            }
            _ => None,
        }
    }

    /// The base of a field or index step: another access chain, or any
    /// other aggregate expression packed into a fresh region.
    fn base_place(&mut self, v: &Expr) -> Option<(PlaceThunk, Arc<Layout>)> {
        if matches!(
            v,
            Expr::Var(_) | Expr::Call(..) | Expr::Field(..) | Expr::Index(..)
        ) {
            return self.agg_place(v);
        }
        let (vt, layout) = self.pack(v)?;
        let bit = self.alloc_region(layout.width);
        Some((
            Box::new(move |p, f| {
                vt(p, f, bit)?;
                Ok(Place {
                    kind: PlaceKind::Frame { bit },
                    off: 0,
                })
            }),
            layout,
        ))
    }

    /// An action-method call: register writes, FIFO and sink enqueues
    /// and register-file updates take their payload as a word or as
    /// packed scratch bits; `deq` and `clear` take none. The payload
    /// width must equal the primitive's element width (a sink's payload
    /// its layout) — the interpreter's run-time shape check, proved at
    /// lower time.
    fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &[Expr]) -> Option<ActThunk> {
        let info = self.info(id)?;
        let lane = info.layout.width;
        match (info.kind, m, args) {
            (PrimKindInfo::Reg, PrimMethod::RegWrite, [e])
            | (PrimKindInfo::Fifo, PrimMethod::Enq, [e]) => match self.lower(e)? {
                Lowered::Word(wt, ty) if ty.width() == lane => Some(Box::new(move |p, f| {
                    let w = wt(p, f)?;
                    p.call_action_word(id, m, 0, w)
                })),
                Lowered::Packed(pt, l) if l.width == lane => {
                    let dst = self.alloc_region(lane);
                    Some(Box::new(move |p, f| {
                        pt(p, f, dst)?;
                        p.call_action_packed(id, m, 0, &f.words, dst)
                    }))
                }
                _ => None,
            },
            (PrimKindInfo::Sink, PrimMethod::Enq, [e]) => {
                let (pt, l) = self.pack(e)?;
                if l != info.layout {
                    return None;
                }
                let dst = self.alloc_region(lane);
                Some(Box::new(move |p, f| {
                    pt(p, f, dst)?;
                    p.call_action_packed(id, m, 0, &f.words, dst)
                }))
            }
            (PrimKindInfo::RegFile { .. }, PrimMethod::Upd, [i, e]) => {
                let (it, ity) = self.word(i)?;
                match self.lower(e)? {
                    Lowered::Word(wt, ty) if ty.width() == lane => Some(Box::new(move |p, f| {
                        let iv = ity.view_int(it(p, f)?);
                        let w = wt(p, f)?;
                        p.call_action_word(id, m, iv, w)
                    })),
                    Lowered::Packed(pt, l) if l.width == lane => {
                        let dst = self.alloc_region(lane);
                        Some(Box::new(move |p, f| {
                            let iv = ity.view_int(it(p, f)?);
                            pt(p, f, dst)?;
                            p.call_action_packed(id, m, iv, &f.words, dst)
                        }))
                    }
                    _ => None,
                }
            }
            (PrimKindInfo::Fifo, PrimMethod::Deq | PrimMethod::Clear, [])
            | (PrimKindInfo::Source, PrimMethod::Deq, []) => {
                Some(Box::new(move |p, _| p.call_action_noarg(id, m)))
            }
            _ => None,
        }
    }

    fn action(&mut self, a: &Action) -> Option<ActThunk> {
        Some(match a {
            Action::NoAction => Box::new(|_, _| Ok(())),
            Action::Write(t, e) => {
                let (id, m) = prim_target(t)?;
                return self.call_action(id, m, std::slice::from_ref(e));
            }
            Action::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                return self.call_action(id, m, args);
            }
            Action::If(c, th, el) => {
                let c = self.cond(c)?;
                let th = self.action(th)?;
                let el = self.action(el)?;
                Box::new(move |p, f| {
                    let vc = c(p, f)? != 0;
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
                let g = self.cond(g)?;
                let x = self.action(x)?;
                Box::new(move |p, f| {
                    let gv = g(p, f)? != 0;
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
                let c = self.cond(c)?;
                let body = self.action(body)?;
                Box::new(move |p, f| {
                    let mut iters = 0u64;
                    loop {
                        let cv = c(p, f)? != 0;
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
            Action::LocalGuard(x) => {
                let x = self.action(x)?;
                Box::new(move |p, f| {
                    let at = p.local_guard_start()?;
                    let r = x(p, f);
                    p.local_guard_end(at, r)
                })
            }
        })
    }
}

/// Runs `first`, then the lowered expression (a `let` store before its
/// body, a `when` guard before its value).
fn then(first: ActThunk, rest: Lowered) -> Lowered {
    match rest {
        Lowered::Word(t, ty) => Lowered::Word(
            Box::new(move |p, f| {
                first(p, f)?;
                t(p, f)
            }),
            ty,
        ),
        Lowered::Packed(t, l) => Lowered::Packed(
            Box::new(move |p, f, dst| {
                first(p, f)?;
                t(p, f, dst)
            }),
            l,
        ),
    }
}

/// A run-time index as `usize`, with [`Value::as_index`]'s error.
#[inline]
fn index(iv: i64) -> ExecResult<usize> {
    usize::try_from(iv).map_err(|_| ExecError::Bounds(format!("negative index {iv}")))
}

fn prim_target(t: &Target) -> Option<(PrimId, PrimMethod)> {
    match t {
        Target::Prim(id, m) => Some((*id, *m)),
        Target::Named(..) => None,
    }
}

/// Lowers a guard to a closure returning its verdict as a word, or
/// `None` when the guard is rejected (see the module docs).
fn compile_expr(e: &Expr, infos: &[PrimInfo]) -> Option<CompiledExpr> {
    let mut l = Lowerer::new(infos);
    let eval = l.cond(e)?;
    Some(CompiledExpr {
        eval,
        words: l.words,
    })
}

/// Lowers a rule body, or `None` when it is rejected (see the module
/// docs).
fn compile_action(a: &Action, infos: &[PrimInfo]) -> Option<CompiledAction> {
    let mut l = Lowerer::new(infos);
    let thunk = l.action(a)?;
    Some(CompiledAction {
        thunk,
        words: l.words,
    })
}

fn compile_plan(plan: &RulePlan, infos: &[PrimInfo]) -> Result<NativeRule, ElabError> {
    let rejected = |part: &str| {
        ElabError::new(format!(
            "rule `{}`: its {part} does not lower to native code (an unelaborated \
             target, an unbound variable, or an ill-typed or shape-changing expression)",
            plan.name
        ))
    };
    let guard = match &plan.guard {
        Some(g) => Some(compile_expr(g, infos).ok_or_else(|| rejected("guard"))?),
        None => None,
    };
    let body = compile_action(&plan.body, infos).ok_or_else(|| rejected("body"))?;
    Ok(NativeRule { guard, body })
}

/// Lowers every plan of a design to native closures for a flat-arena
/// store. The design supplies the primitive element layouts the packed
/// representation is built from (see the module docs).
///
/// # Errors
///
/// Names the first rule whose guard or body does not lower (see the
/// module docs' "What is rejected").
pub fn compile_plans(plans: &[RulePlan], design: &Design) -> Result<Vec<NativeRule>, ElabError> {
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
    frame.ensure(guard.words);
    let mut port = NativePort::Ro { store, cost };
    match (guard.eval)(&mut port, frame) {
        Ok(w) => Ok(w != 0),
        Err(ExecError::GuardFail) => Ok(false),
        Err(e) => Err(e),
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
    frame.ensure(body.words);
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
    frame.ensure(body.words);
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
    use crate::builder::dsl::{
        add, and, cint, cond, eq, field, gt, index, let_a, local_guard, loop_a, lt, mkstruct,
        mkvec, ne, par, seq, sub_e, upd_field, upd_index, var, when_a, when_e,
    };
    use crate::design::{Design, PrimDef};
    use crate::exec::{eval_guard_ro, run_rule, run_rule_inplace};
    use crate::prim::{PrimSpec, PrimState};
    use crate::sched::{ExecBackend, HwSim, SwRunner};
    use crate::types::Type;
    use crate::xform::{compile_rule, CompileOpts, ExecMode};

    const A: PrimId = PrimId(0);
    const F: PrimId = PrimId(1);
    const B: PrimId = PrimId(2);

    fn reg(path: &str, init: Value) -> PrimDef {
        PrimDef {
            path: Path::new(path),
            spec: PrimSpec::Reg { init },
        }
    }

    fn design(prims: Vec<PrimDef>) -> Design {
        Design {
            name: "t".into(),
            prims,
            ..Default::default()
        }
    }

    fn d3() -> Design {
        design(vec![
            reg("a", Value::int(32, 0)),
            PrimDef {
                path: Path::new("f"),
                spec: PrimSpec::Fifo {
                    depth: 2,
                    ty: Type::Int(32),
                },
            },
            reg("b", Value::int(32, 0)),
        ])
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
    fn call(id: PrimId, m: PrimMethod, args: Vec<Expr>) -> Expr {
        Expr::Call(Target::Prim(id, m), args)
    }
    fn act(id: PrimId, m: PrimMethod, args: Vec<Expr>) -> Action {
        Action::Call(Target::Prim(id, m), args)
    }
    fn rule(name: &str, body: Action) -> RuleDef {
        RuleDef {
            name: name.into(),
            body,
        }
    }
    fn put(s: &mut Store, id: PrimId, m: PrimMethod, v: Value) {
        s.call_action_at(id, m, &[v]).unwrap();
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
        let native = compile_plan(&plan, &prim_infos(design)).expect("rule lowers");
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
        let (out_ast, cost_ast) = run_rule(&mut s_ast, &plan.body, ShadowPolicy::Partial).unwrap();
        let (out_nat, cost_nat) = run_rule_native(
            &mut frame,
            &mut TxnLog::new(),
            &mut s_nat,
            &native.body,
            ShadowPolicy::Partial,
        )
        .unwrap();
        assert_eq!(out_ast, out_nat, "outcome for {}", rule.name);
        assert_eq!(cost_ast, cost_nat, "body cost for {}", rule.name);
        assert_same_state(&s_ast, &s_nat, design, &rule.name);
    }

    /// A body that must fail with a non-guard error: the native backend
    /// on a flat store and the interpreter on a tree store report the
    /// same text.
    fn assert_error_parity(body: &Action, design: &Design) {
        let cb = compile_action(body, &prim_infos(design)).expect("body compiles natively");
        let err_nat = run_rule_native(
            &mut NativeFrame::new(),
            &mut TxnLog::new(),
            &mut Store::new_flat(design),
            &cb,
            ShadowPolicy::Partial,
        )
        .unwrap_err();
        let err_ast = run_rule(&mut Store::new(design), body, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err_nat}"), format!("{err_ast}"));
    }

    /// A body run as written, without lifting: native on a flat store
    /// against the interpreter on a tree store, in outcome, cost and
    /// state.
    fn assert_body_parity(body: &Action, design: &Design, setup: impl Fn(&mut Store)) {
        let cb = compile_action(body, &prim_infos(design)).expect("body compiles natively");
        let mut s_ast = Store::new(design);
        setup(&mut s_ast);
        let mut s_nat = Store::new_flat(design);
        setup(&mut s_nat);
        let ast = run_rule(&mut s_ast, body, ShadowPolicy::Partial).unwrap();
        let nat = run_rule_native(
            &mut NativeFrame::new(),
            &mut TxnLog::new(),
            &mut s_nat,
            &cb,
            ShadowPolicy::Partial,
        )
        .unwrap();
        assert_eq!(ast, nat, "outcome and cost of {body:?}");
        assert_same_state(&s_ast, &s_nat, design, "localGuard");
    }

    /// In-place parity for fully lifted rules: native on flat against the
    /// interpreter on tree.
    fn assert_inplace_parity(rule: &RuleDef, design: &Design) {
        let plan = compile_rule(rule, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace, "{} must lift", rule.name);
        let native = compile_plan(&plan, &prim_infos(design)).expect("rule lowers");
        let mut s_ast = Store::new(design);
        let mut s_nat = Store::new_flat(design);
        let c_ast = run_rule_inplace(&mut s_ast, &plan.body).unwrap();
        let c_nat =
            run_rule_inplace_native(&mut NativeFrame::new(), &mut s_nat, &native.body).unwrap();
        assert_eq!(c_ast, c_nat, "in-place cost for {}", rule.name);
        assert_same_state(&s_ast, &s_nat, design, &rule.name);
    }

    /// The paper's running example: `Rule foo {a := 1; f.enq(a); a := 0}`.
    fn rule_foo() -> RuleDef {
        rule(
            "foo",
            seq(vec![wr(A, cint(32, 1)), enq(F, rd(A)), wr(A, cint(32, 0))]),
        )
    }

    #[test]
    fn native_execution_matches_interpreter() {
        let d = d3();
        let fill = |s: &mut Store| {
            for _ in 0..2 {
                put(s, F, PrimMethod::Enq, Value::int(32, 0));
            }
        };
        assert_native_parity(&rule_foo(), &d, |_| {});
        assert_native_parity(&rule_foo(), &d, fill);
        // Conditional both ways.
        let c = rule(
            "c",
            Action::If(
                Box::new(gt(rd(A), cint(32, 0))),
                Box::new(enq(F, rd(A))),
                Box::new(wr(B, cint(32, 9))),
            ),
        );
        assert_native_parity(&c, &d, |_| {});
        assert_native_parity(&c, &d, |s| {
            put(s, A, PrimMethod::RegWrite, Value::int(32, 3))
        });
        // Nested lets with shadowing.
        let lets = let_a(
            "x",
            cint(32, 3),
            let_a("x", add(var("x"), cint(32, 1)), wr(A, var("x"))),
        );
        assert_native_parity(&rule("lets", lets), &d, |_| {});
        // A loop with per-iteration condition cost.
        let lp = loop_a(lt(rd(A), cint(32, 3)), wr(A, add(rd(A), cint(32, 1))));
        assert_native_parity(&rule("lp", lp), &d, |_| {});
        // A let-bound functional vector update, indexed.
        let v = mkvec(vec![cint(32, 10), cint(32, 20), cint(32, 30)]);
        let vecs = let_a(
            "v",
            upd_index(v, cint(32, 1), cint(32, 99)),
            wr(
                A,
                add(index(var("v"), cint(32, 1)), index(var("v"), cint(32, 2))),
            ),
        );
        assert_native_parity(&rule("vecs", vecs), &d, |_| {});
        // A let-bound functional struct update, projected.
        let st = mkstruct(vec![("re", cint(32, 7)), ("im", cint(32, 8))]);
        let structs = let_a(
            "s",
            upd_field(st, "im", cint(32, 80)),
            wr(A, field(var("s"), "im")),
        );
        assert_native_parity(&rule("structs", structs), &d, |_| {});
        // A residual mid-sequence guard (deq;enq on the same FIFO) — the
        // native body must fail/rollback exactly like the interpreter.
        let residual = rule(
            "res",
            seq(vec![act(F, PrimMethod::Deq, vec![]), enq(F, cint(32, 1))]),
        );
        assert_native_parity(&residual, &d, |_| {});
        assert_native_parity(&residual, &d, |s| {
            put(s, F, PrimMethod::Enq, Value::int(32, 5))
        });
        // A true swap keeps its Par body; the native closure drives the
        // same par_start/par_mid/par_end frame discipline.
        let swap = rule("swap", par(vec![wr(A, rd(B)), wr(B, rd(A))]));
        assert_native_parity(&swap, &d, |s| {
            put(s, A, PrimMethod::RegWrite, Value::int(32, 7))
        });
        // When-expression guard folding.
        let when = wr(A, when_e(rd(B), gt(rd(B), cint(32, 5))));
        assert_native_parity(&rule("when_e", when), &d, |_| {});
    }

    #[test]
    fn native_inplace_matches_interpreter() {
        let d = d3();
        assert_inplace_parity(&rule_foo(), &d);
        // The lifter turns localGuard into a plain conditional, which the
        // native backend executes in place.
        let lg = Action::LocalGuard(Box::new(enq(F, cint(32, 1))));
        assert_inplace_parity(&rule("lg", lg), &d);
    }

    #[test]
    fn local_guard_matches_interpreter() {
        let d = d3();
        let set_a =
            |v: i64| move |s: &mut Store| put(s, A, PrimMethod::RegWrite, Value::int(32, v));
        // localGuard { a := a + 1; when a < 3: f.enq(a) }; b := a + 10.
        // The guard reads the body's own write, so it stays inside the
        // frame: it commits from a = 0 and is discarded from a = 5, and
        // the rule goes on either way.
        let body = seq(vec![
            local_guard(seq(vec![
                wr(A, add(rd(A), cint(32, 1))),
                when_a(lt(rd(A), cint(32, 3)), enq(F, rd(A))),
            ])),
            wr(B, add(rd(A), cint(32, 10))),
        ]);
        assert_body_parity(&body, &d, set_a(0));
        assert_body_parity(&body, &d, set_a(5));
        // A failing parallel branch leaves its frames open above the
        // localGuard's; all of them are discarded, whichever branch fails.
        for (x, y) in [(Expr::f(), Expr::t()), (Expr::t(), Expr::f())] {
            let body = seq(vec![
                local_guard(par(vec![
                    when_a(x, wr(A, cint(32, 1))),
                    when_a(y, wr(B, cint(32, 2))),
                ])),
                enq(F, add(rd(A), rd(B))),
            ]);
            assert_body_parity(&body, &d, set_a(7));
        }
        // Nested in a Loop: while b < 4 { b := b + 1; localGuard
        // { f.enq(b); when b != 2 } } discards b = 2 and, once f is
        // full, b = 4.
        let body = loop_a(
            lt(rd(B), cint(32, 4)),
            seq(vec![
                wr(B, add(rd(B), cint(32, 1))),
                local_guard(seq(vec![
                    enq(F, rd(B)),
                    when_a(ne(rd(B), cint(32, 2)), Action::NoAction),
                ])),
            ]),
        );
        assert_body_parity(&body, &d, |_| {});
        // Nested localGuards: the inner one fails, the outer one commits.
        let body = local_guard(seq(vec![
            wr(A, cint(32, 4)),
            local_guard(when_a(Expr::f(), wr(B, cint(32, 1)))),
        ]));
        assert_body_parity(&body, &d, |_| {});
        // Any error other than a guard failure propagates.
        let double = local_guard(par(vec![wr(A, cint(32, 1)), wr(A, cint(32, 2))]));
        assert_error_parity(&double, &d);
        // In place there is no frame to discard: both refuse it.
        let cb = compile_action(&double, &prim_infos(&d)).unwrap();
        let e_nat = run_rule_inplace_native(&mut NativeFrame::new(), &mut Store::new_flat(&d), &cb)
            .unwrap_err();
        let e_ast = run_rule_inplace(&mut Store::new(&d), &double).unwrap_err();
        assert_eq!(format!("{e_nat}"), format!("{e_ast}"));
    }

    #[test]
    fn double_write_reported_identically() {
        let body = par(vec![wr(A, cint(32, 1)), wr(A, cint(32, 2))]);
        assert_error_parity(&body, &d3());
    }

    #[test]
    fn guard_failures_fold_to_false() {
        let d = d3();
        let s = Store::new_flat(&d);
        let mut frame = NativeFrame::new();
        let mut cost = Cost::default();
        // Guard reads f.first on an empty FIFO -> false, not an error.
        let g = gt(call(F, PrimMethod::First, vec![]), cint(32, 0));
        let cg = compile_expr(&g, &prim_infos(&d)).unwrap();
        assert!(!eval_guard_native(&mut frame, &s, &cg, &mut cost).unwrap());
        assert_eq!(cost.guard_evals, 1);
        // And cost parity with the interpreter on the failure path.
        let mut s2 = Store::new(&d);
        let mut cost2 = Cost::default();
        assert!(!eval_guard_ro(&mut s2, &g, &mut cost2).unwrap());
        assert_eq!(cost, cost2);
    }

    fn pair_ty() -> Type {
        Type::Struct(vec![
            ("re".into(), Type::Int(32)),
            ("im".into(), Type::Int(32)),
        ])
    }

    fn mkpair(re: i64, im: i64) -> Expr {
        mkstruct(vec![("re", cint(32, re)), ("im", cint(32, im))])
    }

    fn pair_val(re: i64, im: i64) -> Value {
        Value::Struct(vec![
            ("re".into(), Value::int(32, re)),
            ("im".into(), Value::int(32, im)),
        ])
    }

    /// A design exercising the packed paths: a complex-pair FIFO, a
    /// regfile, scalar registers at awkward widths, a pair register, a
    /// source of pair vectors, a pair sink and a vector register.
    fn d_word() -> Design {
        let boxed = |path: &str, spec| PrimDef {
            path: Path::new(path),
            spec,
        };
        let sw = || "SW".to_string();
        design(vec![
            reg("a", Value::int(32, 0)),
            boxed(
                "f",
                PrimSpec::Fifo {
                    depth: 2,
                    ty: Type::Vector(2, Box::new(pair_ty())),
                },
            ),
            boxed(
                "rf",
                PrimSpec::RegFile {
                    size: 4,
                    ty: Type::Int(63),
                    init: vec![],
                },
            ),
            reg("n63", Value::int(63, -5)),
            reg("b64", Value::bits(64, u64::MAX - 2)),
            reg("s", pair_val(0, 0)),
            boxed(
                "src",
                PrimSpec::Source {
                    ty: Type::Vector(2, Box::new(pair_ty())),
                    domain: sw(),
                },
            ),
            boxed(
                "snk",
                PrimSpec::Sink {
                    ty: pair_ty(),
                    domain: sw(),
                },
            ),
            reg("v", Value::Vec(vec![Value::int(32, 0); 3])),
        ])
    }

    const FV: PrimId = PrimId(1);
    const RF: PrimId = PrimId(2);
    const N63: PrimId = PrimId(3);
    const B64: PrimId = PrimId(4);
    const S: PrimId = PrimId(5);
    const SRC: PrimId = PrimId(6);
    const SNK: PrimId = PrimId(7);
    const V: PrimId = PrimId(8);

    #[test]
    fn word_path_aggregate_fifo_chain() {
        let d = d_word();
        // let x = f.first in { a := x[1].im; f.deq; f.enq([{1,2},{3,4}]) }
        let body = let_a(
            "x",
            call(FV, PrimMethod::First, vec![]),
            seq(vec![
                wr(A, field(index(var("x"), cint(32, 1)), "im")),
                act(FV, PrimMethod::Deq, vec![]),
                enq(FV, mkvec(vec![mkpair(1, 2), mkpair(3, 4)])),
            ]),
        );
        let r = rule("agg", body);
        // Empty FIFO: guard-fails identically everywhere.
        assert_native_parity(&r, &d, |_| {});
        let payload = Value::Vec(vec![pair_val(7, -9), pair_val(11, 13)]);
        assert_native_parity(&r, &d, move |s| {
            put(s, FV, PrimMethod::Enq, payload.clone())
        });
    }

    #[test]
    fn word_path_regfile_and_widths() {
        let d = d_word();
        // rf.upd(a, n63 + 1); n63 := rf.sub(a) - 7; b64 := ~b64; a := a + 1
        let body = seq(vec![
            act(RF, PrimMethod::Upd, vec![rd(A), add(rd(N63), cint(63, 1))]),
            wr(
                N63,
                sub_e(call(RF, PrimMethod::Sub, vec![rd(A)]), cint(63, 7)),
            ),
            wr(B64, Expr::Un(UnOp::Inv, Box::new(rd(B64)))),
            wr(A, add(rd(A), cint(32, 1))),
        ]);
        let r = rule("rfw", body);
        assert_native_parity(&r, &d, |_| {});
        assert_native_parity(&r, &d, |s| {
            put(s, A, PrimMethod::RegWrite, Value::int(32, 3))
        });
    }

    #[test]
    fn word_path_regfile_error_parity() {
        // Out-of-range and negative dynamic upd: identical error text.
        let d = d_word();
        for i in [9, -1] {
            let body = act(RF, PrimMethod::Upd, vec![cint(32, i), cint(63, 1)]);
            assert_error_parity(&body, &d);
        }
    }

    #[test]
    fn guards_lower_and_match_interpreter() {
        let d = d_word();
        // A typical guard, f.notEmpty && (a > 0), and one comparing
        // aggregates.
        let guards = [
            and(
                call(FV, PrimMethod::NotEmpty, vec![]),
                gt(rd(A), cint(32, 0)),
            ),
            ne(rd(S), mkpair(0, 1)),
        ];
        for g in guards {
            let cg = compile_expr(&g, &prim_infos(&d)).expect("compiles");
            let s = Store::new_flat(&d);
            let mut c_nat = Cost::default();
            let v_nat = eval_guard_native(&mut NativeFrame::new(), &s, &cg, &mut c_nat).unwrap();
            let mut c_ast = Cost::default();
            let v_ast = eval_guard_ro(&mut Store::new(&d), &g, &mut c_ast).unwrap();
            assert_eq!((v_nat, c_nat), (v_ast, c_ast));
        }
    }

    /// One rule per shape the module docs' "What is rejected" lists,
    /// named after it, with the part that does not lower.
    fn rejected_rules() -> Vec<(RuleDef, &'static str)> {
        let guarded = |name: &str, g: Expr| (rule(name, when_a(g, Action::NoAction)), "guard");
        let body = |name: &str, a: Action| (rule(name, a), "body");
        let at0 = |v: Expr| wr(A, index(v, cint(32, 0)));
        let hetero = vec![Value::int(32, 1), Value::bits(32, 2)];
        let no = || Action::NoAction;
        vec![
            body(
                "unelaborated_target",
                Action::Call(Target::Named("x".into(), "enq".into()), vec![]),
            ),
            guarded("unbound_variable", var("nope")),
            guarded("non_bool_guard", rd(A)),
            body(
                "non_bool_condition",
                Action::If(Box::new(rd(A)), Box::new(no()), Box::new(no())),
            ),
            body(
                "unequal_vector_elements",
                at0(mkvec(hetero.iter().cloned().map(Expr::Const).collect())),
            ),
            body("empty_vector", at0(mkvec(vec![]))),
            body(
                "unequal_cond_arms",
                wr(
                    S,
                    cond(Expr::t(), rd(S), mkstruct(vec![("re", cint(32, 1))])),
                ),
            ),
            body(
                "update_of_another_layout",
                wr(V, upd_index(rd(V), cint(32, 0), cint(16, 1))),
            ),
            body("aggregate_arithmetic", wr(S, add(rd(S), rd(S)))),
            // Lifting hoists the enq's implicit `notFull` guard, which a
            // register lacks too, so the guard is what fails first.
            (
                rule("missing_method", act(A, PrimMethod::Enq, vec![cint(32, 1)])),
                "guard",
            ),
            body("payload_of_another_width", wr(A, cint(16, 1))),
            body(
                "non_canonical_constant",
                at0(Expr::Const(Value::Vec(hetero))),
            ),
        ]
    }

    #[test]
    fn lowering_rejects_what_only_the_interpreter_handles() {
        let d = d_word();
        let rejected = rejected_rules();
        assert_eq!(rejected.len(), 12);
        for (r, part) in rejected {
            let plans = [compile_rule(&r, CompileOpts::default())];
            let err = compile_plans(&plans, &d).unwrap_err();
            let want = format!("rule `{}`: its {part} does not lower", r.name);
            assert!(err.message().starts_with(&want), "{err}");
        }
        // The same shapes, well-typed, lower.
        let infos = prim_infos(&d);
        let at0 = wr(A, index(mkvec(vec![cint(32, 1), cint(32, 2)]), cint(32, 0)));
        assert!(compile_action(&at0, &infos).is_some());
        assert!(compile_expr(&eq(rd(S), mkpair(1, 2)), &infos).is_some());
    }

    /// A compiled scheduler over a flat store refuses every rejected
    /// shape when it is built, naming the rule; the reference backend
    /// still builds a runner for it.
    #[test]
    fn compiled_schedulers_refuse_what_does_not_lower() {
        for (r, part) in rejected_rules() {
            let mut d = d_word();
            d.rules.push(r);
            let name = &d.rules[0].name;
            let want = format!("rule `{name}`: its {part} does not lower");
            let sw = SwRunner::new(&d, ExecBackend::Compiled.sw_options()).unwrap_err();
            assert!(sw.message().starts_with(&want), "{sw}");
            let hw = HwSim::with_store(&d, Store::new_flat(&d)).unwrap_err();
            assert!(hw.message().starts_with(&want), "{hw}");
            SwRunner::new(&d, ExecBackend::Naive.sw_options()).unwrap();
            HwSim::with_store(&d, Store::new(&d)).unwrap();
        }
    }

    #[test]
    fn packed_cond_of_structs_matches_interpreter() {
        let d = d_word();
        let a_pos = gt(rd(A), cint(32, 0));
        let built = mkstruct(vec![("re", rd(A)), ("im", add(rd(A), cint(32, 1)))]);
        // Guarded on a Cond-of-structs comparison:
        // s := a > 0 ? {re: a, im: a + 1} : {re: 7, im: -7};
        // a := (a < 5 ? s : {re: 1, im: 2}).im
        let body = when_a(
            ne(cond(a_pos.clone(), rd(S), mkpair(9, 9)), mkpair(4, 4)),
            seq(vec![
                wr(S, cond(a_pos, built, mkpair(7, -7))),
                wr(
                    A,
                    field(cond(lt(rd(A), cint(32, 5)), rd(S), mkpair(1, 2)), "im"),
                ),
            ]),
        );
        let r = rule("cond_structs", body);
        for a in [0, 3, 9] {
            assert_native_parity(&r, &d, |s| {
                put(s, A, PrimMethod::RegWrite, Value::int(32, a));
                put(s, S, PrimMethod::RegWrite, pair_val(4, 4));
            });
        }
    }

    #[test]
    fn packed_aggregate_eq_ne_match_interpreter() {
        let d = d_word();
        let vec123 = mkvec(vec![cint(32, 1), cint(32, 2), cint(32, 3)]);
        // a := s == {7, 8} ? 1 : (v != [1, 2, 3] ? 2 : 3)
        let body = wr(
            A,
            cond(
                eq(rd(S), mkpair(7, 8)),
                cint(32, 1),
                cond(ne(rd(V), vec123), cint(32, 2), cint(32, 3)),
            ),
        );
        let r = rule("agg_eq", body);
        // Equal, unequal, and unequal only in the last packed bit.
        let top = i64::from(i32::MIN);
        for (s, v) in [
            ((7, 8), [1, 2, 3]),
            ((7, 9), [1, 2, 3]),
            ((7, 8 + top), [1, 2, 3 + top]),
            ((0, 0), [0, 0, 0]),
        ] {
            assert_native_parity(&r, &d, move |st| {
                put(st, S, PrimMethod::RegWrite, pair_val(s.0, s.1));
                let v = Value::Vec(v.iter().map(|&k| Value::int(32, k)).collect());
                put(st, V, PrimMethod::RegWrite, v);
            });
        }
    }

    #[test]
    fn packed_index_and_update_errors_match_interpreter() {
        let d = d_word();
        let vec3 = || mkvec(vec![cint(32, 10), cint(32, 20), cint(32, 30)]);
        let upd = |i: i64| wr(V, upd_index(rd(V), cint(32, i), cint(32, 9)));
        let idx = |v: Expr, i: i64| wr(A, index(v, cint(32, i)));
        assert_native_parity(&rule("upd", upd(2)), &d, |_| {});
        // Out of range and negative: identical error text.
        for body in [
            upd(3),
            upd(-1),
            idx(vec3(), 3),
            idx(vec3(), -2),
            idx(upd_index(vec3(), cint(32, 7), cint(32, 1)), 0),
        ] {
            assert_error_parity(&body, &d);
        }
    }

    #[test]
    fn heterogeneous_vector_is_refused_compiled_and_runs_on_the_reference() {
        let mut d = d_word();
        let hetero = mkvec(vec![cint(32, 5), Expr::Const(Value::bits(32, 6))]);
        let body = wr(A, add(rd(A), index(hetero, cint(32, 0))));
        d.rules.push(rule("hetero", body));
        let err = SwRunner::new(&d, ExecBackend::Compiled.sw_options()).unwrap_err();
        assert!(
            err.message()
                .starts_with("rule `hetero`: its body does not lower"),
            "{err}"
        );
        let mut naive = SwRunner::new(&d, ExecBackend::Naive.sw_options()).unwrap();
        for _ in 0..3 {
            assert!(naive.try_rule(0).unwrap());
        }
        assert_eq!(naive.interpreted_rules(), 1);
        assert_eq!(naive.store.get_state(A), PrimState::Reg(Value::int(32, 15)));
    }

    #[test]
    fn source_first_of_an_aggregate_matches_interpreter() {
        let d = d_word();
        let first = || call(SRC, PrimMethod::First, vec![]);
        let x = || var("x");
        // let x = src.first in
        //   { a := x[1].im + src.first[0].re; snk.enq(x[0]); src.deq }
        let body = let_a(
            "x",
            first(),
            seq(vec![
                wr(
                    A,
                    add(
                        field(index(x(), cint(32, 1)), "im"),
                        field(index(first(), cint(32, 0)), "re"),
                    ),
                ),
                enq(SNK, index(x(), cint(32, 0))),
                act(SRC, PrimMethod::Deq, vec![]),
            ]),
        );
        let r = rule(
            "src_first",
            when_a(call(SRC, PrimMethod::NotEmpty, vec![]), body),
        );
        // Empty source: the guard fails identically.
        assert_native_parity(&r, &d, |_| {});
        assert_native_parity(&r, &d, |s| {
            for k in 0..2 {
                s.push_source(SRC, Value::Vec(vec![pair_val(k, -k), pair_val(-7 * k, 9)]));
            }
        });
    }
}
