//! Program state and the light-weight transactional run-time (§6.1–6.2).
//!
//! A [`Store`] holds the committed state of every primitive. A [`Txn`] is a
//! change-log shadow layered over the store: rule execution populates the
//! log, a successful rule commits it, and a guard failure rolls it back by
//! discarding it. Parallel action composition opens sibling frames that are
//! merged with double-write detection, and `localGuard` uses a frame whose
//! failure is absorbed instead of propagated — the C++ scheme the paper
//! describes ("shadows for rules are persistent/reused; shadows for
//! parallel actions are created dynamically").
//!
//! The log itself is persistent: every transaction borrows a [`TxnLog`]
//! that its scheduler keeps for its whole life. Frames are marks into
//! the log's entry vector, and flat-store shadows are spans of its one
//! word arena, so once the log has grown to a design's largest firing a
//! transaction — parallel branches included — allocates nothing.

use crate::ast::{PrimId, PrimMethod};
use crate::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use crate::design::Design;
use crate::error::{ExecError, ExecResult};
use crate::flat::{self, FlatKind, FlatPrim, FlatStore};
use crate::prim::PrimState;
use crate::types::Type;
use crate::value::{copy_bits, get_bits, put_bits, wire_to_flat, Value};
use std::collections::VecDeque;
use std::sync::Arc;

pub use crate::flat::PAGE_WORDS;

/// A set of dirty slots touched since some epoch, with O(1) dedup'd
/// marking and O(dirty) drain. The store keeps two independent trackers:
/// one drained by the event-driven schedulers each step (indexed by
/// primitive), one drained by incremental checkpoints at each cut
/// (indexed by primitive on the tree backend; by arena page, then dyn,
/// then spill slot on the flat backend).
#[derive(Debug, Clone)]
struct DirtyTracker {
    flags: Vec<bool>,
    list: Vec<usize>,
    /// Bumped by every mark, a repeated one included, and never reset by
    /// a drain (see [`Store::write_gen`]).
    gen: u64,
}

impl DirtyTracker {
    fn clean(n: usize) -> DirtyTracker {
        DirtyTracker {
            flags: vec![false; n],
            list: Vec::new(),
            gen: 0,
        }
    }

    fn all(n: usize) -> DirtyTracker {
        DirtyTracker {
            flags: vec![true; n],
            list: (0..n).collect(),
            gen: 0,
        }
    }

    fn mark(&mut self, i: usize) {
        self.gen += 1;
        if !self.flags[i] {
            self.flags[i] = true;
            self.list.push(i);
        }
    }

    fn mark_all(&mut self) {
        self.gen += 1;
        self.list.clear();
        self.flags.iter_mut().for_each(|f| *f = true);
        self.list.extend(0..self.flags.len());
    }

    fn drain_into(&mut self, out: &mut Vec<usize>) {
        for i in &self.list {
            self.flags[*i] = false;
        }
        out.append(&mut self.list);
    }
}

/// Marks every checkpoint page overlapping `words` arena words from
/// `start` dirty.
fn mark_span(t: &mut DirtyTracker, start: usize, words: usize) {
    if words == 0 {
        return;
    }
    for pg in (start / PAGE_WORDS)..=((start + words - 1) / PAGE_WORDS) {
        t.mark(pg);
    }
}

/// An incremental checkpoint of a store: one shared handle per primitive.
/// Taking a snapshot deep-copies only the primitives dirtied since the
/// previous cut (see [`Store::snapshot_cow`]); the rest alias the copies
/// already made at earlier cuts, so checkpoint cost is proportional to
/// the dirty words, not the total state.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    inner: SnapInner,
}

/// Backend-specific snapshot payload.
#[derive(Debug, Clone)]
enum SnapInner {
    /// One shared handle per primitive (the tree store's unit of copy).
    Tree(Vec<Arc<PrimState>>),
    /// Shared arena pages plus boxed sidecars (the flat store's units).
    Flat(FlatSnap),
}

/// Flat-store snapshot: fixed-size arena pages, the boxed dyn states,
/// and the FIFO spill sidecars, each shared copy-on-write.
#[derive(Debug, Clone)]
struct FlatSnap {
    /// Codec kind tag per primitive, for shape validation.
    kinds: Arc<Vec<u8>>,
    pages: Vec<Arc<Vec<u64>>>,
    dyns: Vec<Arc<PrimState>>,
    spills: Vec<Arc<VecDeque<Value>>>,
}

/// Sentinel prim count marking a flat-encoded snapshot. A tree snapshot's
/// count is a real primitive count and can never reach this value.
const FLAT_SNAP_SENTINEL: u64 = u64::MAX;

impl StoreSnapshot {
    /// The number of primitives captured.
    pub fn len(&self) -> usize {
        match &self.inner {
            SnapInner::Tree(states) => states.len(),
            SnapInner::Flat(fs) => fs.kinds.len(),
        }
    }

    /// True if the snapshot has no state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this snapshot was captured from an arena-flattened store.
    pub fn is_flat(&self) -> bool {
        matches!(self.inner, SnapInner::Flat(_))
    }

    /// Borrows a primitive's captured state.
    ///
    /// # Panics
    ///
    /// Panics on a flat snapshot, whose unit of capture is the arena
    /// page, not the primitive; restore through [`Store::restore_cow`]
    /// instead.
    pub fn state(&self, id: PrimId) -> &PrimState {
        match &self.inner {
            SnapInner::Tree(states) => &states[id.0],
            SnapInner::Flat(_) => panic!("per-primitive state access on a flat snapshot"),
        }
    }

    /// True if this snapshot has the same backend and shape as `store`,
    /// i.e. [`Store::restore_cow`] would not panic. Used to validate
    /// decoded checkpoints against a live topology without panicking.
    pub fn shape_matches(&self, store: &Store) -> bool {
        match (&self.inner, &store.backend) {
            (SnapInner::Tree(states), Backend::Tree { states: live, .. }) => {
                states.len() == live.len()
            }
            (SnapInner::Flat(fs), Backend::Flat(f)) => {
                *fs.kinds == f.meta.kind_tags
                    && fs.pages.len() == f.meta.n_pages
                    && fs.dyns.len() == f.meta.n_dyns
                    && fs.spills.len() == f.meta.n_spills
            }
            _ => false,
        }
    }

    /// Appends this snapshot's stable binary encoding. A tree snapshot is
    /// a count followed by each primitive's self-describing state, in
    /// slot order — byte-identical to the v1 format. A flat snapshot is
    /// a sentinel (`u64::MAX`) count followed by kind tags, raw arena
    /// pages, dyn states, and spill queues. Slot order is the design's
    /// elaboration order, which is deterministic for a given source
    /// program — that is what makes the encoding comparable across
    /// processes.
    pub fn encode(&self, w: &mut ByteWriter) {
        match &self.inner {
            SnapInner::Tree(states) => {
                w.u64(states.len() as u64);
                for st in states {
                    st.encode(w);
                }
            }
            SnapInner::Flat(fs) => {
                w.u64(FLAT_SNAP_SENTINEL);
                w.u64(fs.kinds.len() as u64);
                for t in fs.kinds.iter() {
                    w.u8(*t);
                }
                w.u64(fs.pages.len() as u64);
                for pg in &fs.pages {
                    for word in pg.iter() {
                        w.u64(*word);
                    }
                }
                w.u64(fs.dyns.len() as u64);
                for st in &fs.dyns {
                    st.encode(w);
                }
                w.u64(fs.spills.len() as u64);
                for sp in &fs.spills {
                    w.u64(sp.len() as u64);
                    for v in sp.iter() {
                        v.encode(w);
                    }
                }
            }
        }
    }

    /// Decodes a snapshot previously written by [`StoreSnapshot::encode`]
    /// — either encoding, from either format version.
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<StoreSnapshot> {
        let n = r.u64()?;
        if n != FLAT_SNAP_SENTINEL {
            if n > r.remaining() as u64 {
                return Err(CodecError::Truncated);
            }
            let mut states = Vec::with_capacity(n as usize);
            for _ in 0..n {
                states.push(Arc::new(PrimState::decode(r)?));
            }
            return Ok(StoreSnapshot {
                inner: SnapInner::Tree(states),
            });
        }
        let nk = r.seq_len(1)?;
        let mut kinds = Vec::with_capacity(nk);
        for _ in 0..nk {
            let t = r.u8()?;
            if t > 4 {
                return Err(CodecError::Malformed("snapshot kind tag out of range"));
            }
            kinds.push(t);
        }
        let np = r.seq_len(PAGE_WORDS * 8)?;
        let mut pages = Vec::with_capacity(np);
        for _ in 0..np {
            let mut pg = vec![0u64; PAGE_WORDS];
            for word in pg.iter_mut() {
                *word = r.u64()?;
            }
            pages.push(Arc::new(pg));
        }
        let nd = r.seq_len(1)?;
        let mut dyns = Vec::with_capacity(nd);
        for _ in 0..nd {
            dyns.push(Arc::new(PrimState::decode(r)?));
        }
        let ns = r.seq_len(1)?;
        let mut spills = Vec::with_capacity(ns);
        for _ in 0..ns {
            let len = r.seq_len(1)?;
            let mut sp = VecDeque::with_capacity(len);
            for _ in 0..len {
                sp.push_back(Value::decode(r)?);
            }
            spills.push(Arc::new(sp));
        }
        Ok(StoreSnapshot {
            inner: SnapInner::Flat(FlatSnap {
                kinds: Arc::new(kinds),
                pages,
                dyns,
                spills,
            }),
        })
    }

    /// The kind name of each captured primitive, for shape validation
    /// against a design without panicking.
    pub fn kind_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        (0..self.len()).map(move |i| match &self.inner {
            SnapInner::Tree(states) => states[i].kind_name(),
            SnapInner::Flat(fs) => flat::kind_name_of_tag(fs.kinds[i]),
        })
    }
}

/// Committed state of every primitive in a design.
///
/// The store also tracks which primitives have been mutated — every
/// mutation funnels through [`Store::state_mut`] or
/// [`Store::push_source`] — feeding two consumers: the event-driven
/// schedulers (which re-evaluate only guards whose read set intersects
/// the dirty set) and incremental checkpoints (which copy only the delta
/// since the last cut). Equality compares the committed state only, not
/// the bookkeeping.
#[derive(Debug, Clone)]
pub struct Store {
    backend: Backend,
    /// Primitives mutated since the scheduler last drained.
    sched_dirty: DirtyTracker,
    /// Checkpoint slots (tree: primitives; flat: pages, then dyns, then
    /// spills) mutated since the last incremental snapshot.
    ckpt_dirty: DirtyTracker,
    /// Total words deep-copied by incremental snapshots so far.
    ckpt_copied_words: u64,
}

/// The two state representations a [`Store`] can run on. The tree
/// backend is the reference oracle; the flat backend is the optimized
/// arena representation, proven equivalent by the differential fuzz farm.
#[derive(Debug, Clone)]
enum Backend {
    /// Boxed [`PrimState`] per primitive, mutated by tree walks.
    Tree {
        states: Vec<PrimState>,
        /// Copy-on-write mirror of `states` as of the last incremental
        /// snapshot; entries not ckpt-dirty are bit-identical to `states`.
        mirror: Vec<Arc<PrimState>>,
    },
    /// Bit-packed contiguous arena (see [`crate::flat`]).
    Flat(FlatStore),
}

impl PartialEq for Store {
    fn eq(&self, other: &Store) -> bool {
        match (&self.backend, &other.backend) {
            (Backend::Tree { states: a, .. }, Backend::Tree { states: b, .. }) => a == b,
            // Compare logically across representations: decode every
            // primitive. (A raw arena compare would be wrong — a dequeue
            // leaves stale bits in vacated ring slots.)
            _ => {
                self.len() == other.len()
                    && (0..self.len())
                        .all(|i| self.get_state(PrimId(i)) == other.get_state(PrimId(i)))
            }
        }
    }
}

impl Store {
    /// Creates the initial tree-backed store for a design (every
    /// primitive at reset). All primitives start scheduler-dirty (no
    /// guard verdict can be assumed) and checkpoint-clean (the mirror
    /// equals the reset state).
    pub fn new(design: &Design) -> Store {
        Store::new_like(design, false)
    }

    /// Creates the initial arena-flattened store for a design.
    pub fn new_flat(design: &Design) -> Store {
        Store::new_like(design, true)
    }

    /// Creates the initial store on the requested backend.
    pub fn new_like(design: &Design, flat: bool) -> Store {
        let n = design.prims.len();
        if flat {
            let f = FlatStore::new(design);
            let ckpt_slots = f.meta.n_pages + f.meta.n_dyns + f.meta.n_spills;
            Store {
                backend: Backend::Flat(f),
                sched_dirty: DirtyTracker::all(n),
                ckpt_dirty: DirtyTracker::clean(ckpt_slots),
                ckpt_copied_words: 0,
            }
        } else {
            let states: Vec<PrimState> = design
                .prims
                .iter()
                .map(|p| p.spec.initial_state())
                .collect();
            let mirror = states.iter().map(|s| Arc::new(s.clone())).collect();
            Store {
                backend: Backend::Tree { states, mirror },
                sched_dirty: DirtyTracker::all(n),
                ckpt_dirty: DirtyTracker::clean(n),
                ckpt_copied_words: 0,
            }
        }
    }

    /// True if this store runs on the arena-flattened backend.
    pub fn is_flat(&self) -> bool {
        matches!(self.backend, Backend::Flat(_))
    }

    /// The flat backend, for shadow-entry helpers that are only ever
    /// reached with a flat base.
    fn flat(&self) -> &FlatStore {
        match &self.backend {
            Backend::Flat(f) => f,
            Backend::Tree { .. } => unreachable!("flat shadow entry over a tree store"),
        }
    }

    /// The number of primitives.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Tree { states, .. } => states.len(),
            Backend::Flat(f) => f.meta.prims.len(),
        }
    }

    /// True if the design has no state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows a primitive's committed state.
    ///
    /// # Panics
    ///
    /// Panics on a flat store, which has no boxed per-primitive state to
    /// borrow; use [`Store::get_state`] / [`Store::call_value_at`].
    pub fn state(&self, id: PrimId) -> &PrimState {
        match &self.backend {
            Backend::Tree { states, .. } => &states[id.0],
            Backend::Flat(_) => panic!("tree state access on a flat store (use get_state)"),
        }
    }

    /// Invokes a value method directly against the committed state, on
    /// either backend. Charges nothing; callers meter their own reads.
    /// This is the scheduler's guard-probe hot path: on the flat backend
    /// it is pointer-free integer reads over the arena.
    pub fn call_value_at(&self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<Value> {
        match &self.backend {
            Backend::Tree { states, .. } => states[id.0].call_value(m, args),
            Backend::Flat(f) => {
                let p = &f.meta.prims[id.0];
                match p.kind {
                    FlatKind::Reg => flat::reg_call_value(p, f.block(p), m),
                    FlatKind::Fifo { spill, .. } => {
                        flat::fifo_call_value(p, f.block(p), &f.spills[spill], m)
                    }
                    FlatKind::RegFile { .. } => {
                        flat::regfile_call_value(p, flat::Cells::Whole(f.block(p)), m, args)
                    }
                    FlatKind::Dyn { idx } => f.dyns[idx].call_value(m, args),
                }
            }
        }
    }

    /// Invokes an action method directly against the committed state, on
    /// either backend — the unshadowed analogue of
    /// `state_mut(id).call_action(..)`, with identical marking: the
    /// primitive is conservatively dirtied before the action runs, even
    /// if the action then fails its guard.
    pub fn call_action_at(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<()> {
        self.sched_dirty.mark(id.0);
        match &mut self.backend {
            Backend::Tree { states, .. } => {
                self.ckpt_dirty.mark(id.0);
                states[id.0].call_action(m, args)
            }
            Backend::Flat(f) => {
                let meta = Arc::clone(&f.meta);
                let p = &meta.prims[id.0];
                match p.kind {
                    FlatKind::Reg => {
                        mark_span(&mut self.ckpt_dirty, p.start, p.words);
                        let block = &mut f.arena[p.start..p.start + p.words];
                        flat::reg_call_action(p, block, m, args)
                    }
                    FlatKind::Fifo { spill, .. } => {
                        mark_span(&mut self.ckpt_dirty, p.start, p.words);
                        self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + spill);
                        let block = &mut f.arena[p.start..p.start + p.words];
                        flat::fifo_call_action(p, block, &mut f.spills[spill], m, args)
                    }
                    FlatKind::RegFile { .. } => {
                        let block = &mut f.arena[p.start..p.start + p.words];
                        let ckpt = &mut self.ckpt_dirty;
                        flat::regfile_call_action_whole(p, block, m, args, |cell| {
                            mark_span(ckpt, p.start + cell * p.lane, p.lane);
                        })
                    }
                    FlatKind::Dyn { idx } => {
                        self.ckpt_dirty.mark(meta.n_pages + idx);
                        f.dyns[idx].call_action(m, args)
                    }
                }
            }
        }
    }

    /// Word-level value read against the committed state of a flat store
    /// (ROADMAP "Word-level lowering"): returns `width` bits starting at
    /// bit `off` of the addressed element, as a masked `u64`, without
    /// materializing a [`Value`]. Supported combinations:
    ///
    /// - `Reg` / [`PrimMethod::RegRead`] — `cell` ignored;
    /// - `Fifo` / [`PrimMethod::First`] (guard-fails when empty),
    ///   [`PrimMethod::NotEmpty`] and [`PrimMethod::NotFull`] (0/1,
    ///   `cell`/`off`/`width` ignored);
    /// - `RegFile` / [`PrimMethod::Sub`] — `cell` is the cell index;
    /// - `Source` / [`PrimMethod::First`] (the head value's packed bits,
    ///   guard-fails when empty) and [`PrimMethod::NotEmpty`], `Sink` /
    ///   [`PrimMethod::NotFull`].
    ///
    /// Charges nothing; ports meter their own reads, exactly like
    /// [`Store::call_value_at`]. The compiled backend only emits this for
    /// leaf spans of width ≤ 64 whose offsets were resolved at lower
    /// time; the bits are identical to packing the boxed read's result.
    ///
    /// ```
    /// use bcl_core::ast::{PrimId, PrimMethod};
    /// use bcl_core::design::{Design, PrimDef};
    /// use bcl_core::prim::PrimSpec;
    /// use bcl_core::store::Store;
    /// use bcl_core::value::Value;
    ///
    /// let design = Design {
    ///     name: "t".into(),
    ///     prims: vec![PrimDef {
    ///         path: "a".into(),
    ///         spec: PrimSpec::Reg { init: Value::int(32, -2) },
    ///     }],
    ///     ..Default::default()
    /// };
    /// let s = Store::new_flat(&design);
    /// // The packed two's-complement bits of -2 in 32 bits.
    /// let w = s.call_value_word_at(PrimId(0), PrimMethod::RegRead, 0, 0, 32).unwrap();
    /// assert_eq!(w, 0xFFFF_FFFE);
    /// ```
    ///
    /// # Errors
    ///
    /// [`ExecError::GuardFail`] for `first` on an empty FIFO,
    /// [`ExecError::Bounds`] for an out-of-range register-file cell (same
    /// text as the boxed `sub`), and [`ExecError::Type`] on a tree-backed
    /// store or an unsupported method/kind combination.
    pub fn call_value_word_at(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        let Backend::Flat(f) = &self.backend else {
            return Err(ExecError::Type(
                "word-level access on a tree-backed store".into(),
            ));
        };
        let p = &f.meta.prims[id.0];
        match (p.kind, m) {
            (FlatKind::Reg, PrimMethod::RegRead) => Ok(get_bits(f.block(p), off as usize, width)),
            (FlatKind::Fifo { spill, .. }, PrimMethod::First) => {
                flat::fifo_first_word(p, f.block(p), &f.spills[spill], off, width)
            }
            (FlatKind::Fifo { cap, spill }, PrimMethod::NotEmpty) => {
                let total = flat::fifo_geom(f.block(p)).1 + f.spills[spill].len();
                let _ = cap;
                Ok((total > 0) as u64)
            }
            (FlatKind::Fifo { cap, spill }, PrimMethod::NotFull) => {
                let total = flat::fifo_geom(f.block(p)).1 + f.spills[spill].len();
                Ok((total < cap) as u64)
            }
            (FlatKind::RegFile { size }, PrimMethod::Sub) => {
                if cell >= size {
                    return Err(ExecError::Bounds(format!("sub {cell} out of {size}")));
                }
                Ok(get_bits(
                    f.block(p),
                    cell * p.lane * 64 + off as usize,
                    width,
                ))
            }
            (FlatKind::Dyn { idx }, m) => flat::dyn_value_word(&f.dyns[idx], m, off, width),
            _ => Err(ExecError::Type(format!(
                "word-level {} not supported on {}",
                m.name(),
                p.kind_name
            ))),
        }
    }

    /// Word-level action against the committed state of a flat store: the
    /// writing counterpart of [`Store::call_value_word_at`]. `w` holds the
    /// element's packed bits (the lowering only emits this when the element
    /// type fits one word, so the boxed path's width check is statically
    /// true). Supported: `Reg`/[`PrimMethod::RegWrite`],
    /// `Fifo`/[`PrimMethod::Enq`], `RegFile`/[`PrimMethod::Upd`].
    ///
    /// `cell` is signed because the register-file index error order is part
    /// of the contract: dirtiness is marked and (in a transaction) the
    /// shadow is priced *before* a negative or out-of-range index errors,
    /// exactly like the boxed `upd`.
    ///
    /// ```
    /// use bcl_core::ast::{PrimId, PrimMethod};
    /// use bcl_core::design::{Design, PrimDef};
    /// use bcl_core::prim::PrimSpec;
    /// use bcl_core::store::Store;
    /// use bcl_core::value::Value;
    ///
    /// let design = Design {
    ///     name: "t".into(),
    ///     prims: vec![PrimDef {
    ///         path: "a".into(),
    ///         spec: PrimSpec::Reg { init: Value::int(16, 0) },
    ///     }],
    ///     ..Default::default()
    /// };
    /// let mut s = Store::new_flat(&design);
    /// s.call_action_word_at(PrimId(0), PrimMethod::RegWrite, 0, 0x7FFF).unwrap();
    /// assert_eq!(
    ///     s.call_value_at(PrimId(0), PrimMethod::RegRead, &[]).unwrap(),
    ///     Value::int(16, 32767),
    /// );
    /// ```
    ///
    /// # Errors
    ///
    /// [`ExecError::GuardFail`] for `enq` on a full FIFO,
    /// [`ExecError::Bounds`] for a negative or out-of-range `upd` index
    /// (same text and order as the boxed path), and [`ExecError::Type`]
    /// on a tree store or unsupported combination.
    pub fn call_action_word_at(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        w: u64,
    ) -> ExecResult<()> {
        self.sched_dirty.mark(id.0);
        let Backend::Flat(f) = &mut self.backend else {
            return Err(ExecError::Type(
                "word-level access on a tree-backed store".into(),
            ));
        };
        let meta = Arc::clone(&f.meta);
        let p = &meta.prims[id.0];
        match (p.kind, m) {
            (FlatKind::Reg, PrimMethod::RegWrite) => {
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                put_bits(
                    &mut f.arena[p.start..p.start + p.words],
                    0,
                    p.layout.width,
                    w,
                );
                Ok(())
            }
            (FlatKind::Fifo { spill, .. }, PrimMethod::Enq) => {
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + spill);
                let spill_len = f.spills[spill].len();
                let block = &mut f.arena[p.start..p.start + p.words];
                flat::fifo_enq_word(p, block, spill_len, w)
            }
            (FlatKind::RegFile { size }, PrimMethod::Upd) => {
                let cell = usize::try_from(cell)
                    .map_err(|_| ExecError::Bounds(format!("negative index {cell}")))?;
                if cell >= size {
                    return Err(ExecError::Bounds(format!("upd {cell} out of {size}")));
                }
                let at = p.start + cell * p.lane;
                mark_span(&mut self.ckpt_dirty, at, p.lane);
                put_bits(&mut f.arena[at..at + p.lane], 0, p.layout.width, w);
                Ok(())
            }
            _ => Err(ExecError::Type(format!(
                "word-level {} not supported on {}",
                m.name(),
                p.kind_name
            ))),
        }
    }

    /// Packed-aggregate value read: copies `width` bits starting at bit
    /// `off` of the addressed element into `dst` at `dst_bit`, without
    /// decoding. Same method/kind coverage as [`Store::call_value_word_at`]
    /// minus the occupancy probes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn call_value_packed_at(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
        dst: &mut [u64],
        dst_bit: usize,
    ) -> ExecResult<()> {
        let Backend::Flat(f) = &self.backend else {
            return Err(ExecError::Type(
                "word-level access on a tree-backed store".into(),
            ));
        };
        let p = &f.meta.prims[id.0];
        match (p.kind, m) {
            (FlatKind::Reg, PrimMethod::RegRead) => {
                copy_bits(f.block(p), off as usize, dst, dst_bit, width);
                Ok(())
            }
            (FlatKind::Fifo { spill, .. }, PrimMethod::First) => {
                flat::fifo_first_packed(p, f.block(p), &f.spills[spill], off, width, dst, dst_bit)
            }
            (FlatKind::RegFile { size }, PrimMethod::Sub) => {
                if cell >= size {
                    return Err(ExecError::Bounds(format!("sub {cell} out of {size}")));
                }
                copy_bits(
                    f.block(p),
                    cell * p.lane * 64 + off as usize,
                    dst,
                    dst_bit,
                    width,
                );
                Ok(())
            }
            (FlatKind::Dyn { idx }, m) => {
                flat::dyn_value_packed(&f.dyns[idx], m, off, width, dst, dst_bit)
            }
            _ => Err(ExecError::Type(format!(
                "word-level {} not supported on {}",
                m.name(),
                p.kind_name
            ))),
        }
    }

    /// Packed-aggregate action: writes the element's `p.layout.width`
    /// packed bits from `src[src_bit..]`. Same coverage, marking, and
    /// error order as [`Store::call_action_word_at`], plus a sink's
    /// `enq`, which decodes the one [`Value`] the sink keeps.
    pub(crate) fn call_action_packed_at(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        src: &[u64],
        src_bit: usize,
    ) -> ExecResult<()> {
        self.sched_dirty.mark(id.0);
        let Backend::Flat(f) = &mut self.backend else {
            return Err(ExecError::Type(
                "word-level access on a tree-backed store".into(),
            ));
        };
        let meta = Arc::clone(&f.meta);
        let p = &meta.prims[id.0];
        match (p.kind, m) {
            (FlatKind::Reg, PrimMethod::RegWrite) => {
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                copy_bits(
                    src,
                    src_bit,
                    &mut f.arena[p.start..p.start + p.words],
                    0,
                    p.layout.width,
                );
                Ok(())
            }
            (FlatKind::Fifo { spill, .. }, PrimMethod::Enq) => {
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + spill);
                let spill_len = f.spills[spill].len();
                let block = &mut f.arena[p.start..p.start + p.words];
                flat::fifo_enq_packed(p, block, spill_len, src, src_bit)
            }
            (FlatKind::RegFile { size }, PrimMethod::Upd) => {
                let cell = usize::try_from(cell)
                    .map_err(|_| ExecError::Bounds(format!("negative index {cell}")))?;
                if cell >= size {
                    return Err(ExecError::Bounds(format!("upd {cell} out of {size}")));
                }
                let at = p.start + cell * p.lane;
                mark_span(&mut self.ckpt_dirty, at, p.lane);
                copy_bits(
                    src,
                    src_bit,
                    &mut f.arena[at..at + p.lane],
                    0,
                    p.layout.width,
                );
                Ok(())
            }
            (FlatKind::Dyn { idx }, m) => {
                self.ckpt_dirty.mark(meta.n_pages + idx);
                flat::dyn_action_packed(&mut f.dyns[idx], p, m, src, src_bit)
            }
            _ => Err(ExecError::Type(format!(
                "word-level {} not supported on {}",
                m.name(),
                p.kind_name
            ))),
        }
    }

    /// Decodes a primitive's full committed state (owned), on either
    /// backend.
    pub fn get_state(&self, id: PrimId) -> PrimState {
        match &self.backend {
            Backend::Tree { states, .. } => states[id.0].clone(),
            Backend::Flat(f) => f.get_state(id),
        }
    }

    /// Replaces a primitive's committed state wholesale (checkpoint
    /// rehydration and partition splicing). The primitive is marked
    /// dirty for both consumers, like any other mutation.
    ///
    /// # Panics
    ///
    /// On a flat store, panics if the state's kind or shape does not
    /// match the compiled slot (a tree store accepts anything). A FIFO
    /// spliced above its capacity overflows into the spill sidecar.
    pub fn set_state(&mut self, id: PrimId, st: PrimState) {
        self.sched_dirty.mark(id.0);
        match &mut self.backend {
            Backend::Tree { states, .. } => {
                self.ckpt_dirty.mark(id.0);
                states[id.0] = st;
            }
            Backend::Flat(f) => {
                let meta = Arc::clone(&f.meta);
                let p = &meta.prims[id.0];
                let write_lane = |arena: &mut [u64], at: usize, v: &Value| {
                    let wrote = v.write_flat(&mut arena[at..at + p.lane], 0);
                    assert_eq!(
                        wrote, p.layout.width as usize,
                        "set_state value shape mismatch on primitive #{}",
                        id.0
                    );
                };
                match (p.kind, st) {
                    (FlatKind::Reg, PrimState::Reg(v)) => {
                        mark_span(&mut self.ckpt_dirty, p.start, p.words);
                        write_lane(&mut f.arena, p.start, &v);
                    }
                    (FlatKind::Fifo { cap, spill }, PrimState::Fifo { items, .. }) => {
                        mark_span(&mut self.ckpt_dirty, p.start, p.words);
                        self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + spill);
                        let n = items.len().min(cap);
                        let mut items = items;
                        let overflow = items.split_off(n);
                        for (i, v) in items.iter().enumerate() {
                            write_lane(&mut f.arena, p.start + 2 + i * p.lane, v);
                        }
                        f.arena[p.start] = 0;
                        f.arena[p.start + 1] = n as u64;
                        f.spills[spill] = overflow;
                    }
                    (FlatKind::RegFile { size }, PrimState::RegFile(cells)) => {
                        assert_eq!(
                            cells.len(),
                            size,
                            "set_state register file size mismatch on primitive #{}",
                            id.0
                        );
                        mark_span(&mut self.ckpt_dirty, p.start, p.words);
                        for (i, v) in cells.iter().enumerate() {
                            write_lane(&mut f.arena, p.start + i * p.lane, v);
                        }
                    }
                    (FlatKind::Dyn { idx }, st) => {
                        assert_eq!(
                            st.kind_name(),
                            p.kind_name,
                            "set_state kind mismatch on primitive #{}",
                            id.0
                        );
                        self.ckpt_dirty.mark(meta.n_pages + idx);
                        f.dyns[idx] = st;
                    }
                    (_, other) => panic!(
                        "set_state kind mismatch on primitive #{}: {} slot given {}",
                        id.0,
                        p.kind_name,
                        other.kind_name()
                    ),
                }
            }
        }
    }

    /// Current occupancy of a FIFO primitive (ring plus spill on the
    /// flat backend); 0 for any other primitive kind.
    pub fn fifo_len(&self, id: PrimId) -> usize {
        match &self.backend {
            Backend::Tree { states, .. } => match &states[id.0] {
                PrimState::Fifo { items, .. } => items.len(),
                _ => 0,
            },
            Backend::Flat(f) => {
                let p = &f.meta.prims[id.0];
                match p.kind {
                    FlatKind::Fifo { spill, .. } => {
                        flat::fifo_geom(f.block(p)).1 + f.spills[spill].len()
                    }
                    _ => 0,
                }
            }
        }
    }

    /// Writes the front value of a FIFO primitive in transactor wire
    /// format (32-bit words) into `out`, replacing its contents, so a
    /// caller that reuses `out` sends without allocating. Returns
    /// `false`, with `out` untouched, if the FIFO is empty or the
    /// primitive is not a FIFO. On the flat backend the words are copied
    /// straight out of the arena without materializing a [`Value`].
    pub fn fifo_front_wire(&self, id: PrimId, out: &mut Vec<u32>) -> bool {
        match &self.backend {
            Backend::Tree { states, .. } => match &states[id.0] {
                PrimState::Fifo { items, .. } => match items.front() {
                    Some(v) => {
                        out.clear();
                        out.extend_from_slice(&v.to_words());
                        true
                    }
                    None => false,
                },
                _ => false,
            },
            Backend::Flat(f) => {
                let p = &f.meta.prims[id.0];
                match p.kind {
                    FlatKind::Fifo { spill, .. } => {
                        flat::fifo_front_wire(p, f.block(p), &f.spills[spill], out)
                    }
                    _ => false,
                }
            }
        }
    }

    /// Dequeues the front of a FIFO primitive.
    ///
    /// # Errors
    ///
    /// [`ExecError::GuardFail`] if the FIFO is empty, like `deq`.
    pub fn fifo_deq(&mut self, id: PrimId) -> ExecResult<()> {
        self.call_action_at(id, PrimMethod::Deq, &[])
    }

    /// Enqueues a value given in transactor wire format onto a FIFO
    /// primitive — the receive half of transactor marshaling. On the
    /// flat backend the words are written straight into the arena slot
    /// without materializing a [`Value`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Type`] if the word stream is shorter than `ty`
    /// requires (checked before any state is touched, exactly like the
    /// tree path's decode-then-enqueue), [`ExecError::GuardFail`] if
    /// the FIFO is full.
    pub fn enq_wire(&mut self, id: PrimId, ty: &Type, wire: &[u32]) -> ExecResult<()> {
        if let Backend::Flat(f) = &mut self.backend {
            let meta = Arc::clone(&f.meta);
            if let Some(p) = meta.prims.get(id.0) {
                if let FlatKind::Fifo { cap, spill } = p.kind {
                    let need = ty.width() as usize;
                    let avail = wire.len() * 32;
                    if avail < need {
                        return Err(ExecError::Type(format!(
                            "word stream too short: need {need} bits, have {avail}"
                        )));
                    }
                    self.sched_dirty.mark(id.0);
                    mark_span(&mut self.ckpt_dirty, p.start, p.words);
                    self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + spill);
                    let (head, len) = flat::fifo_geom(&f.arena[p.start..p.start + p.words]);
                    if len + f.spills[spill].len() >= cap {
                        return Err(ExecError::GuardFail);
                    }
                    let slot = (head + len) % cap;
                    let at = p.start + 2 + slot * p.lane;
                    wire_to_flat(p.layout.width, wire, &mut f.arena[at..at + p.lane])?;
                    f.arena[p.start + 1] = (len + 1) as u64;
                    return Ok(());
                }
            }
        }
        let v = Value::from_words(ty, wire)?;
        self.call_action_at(id, PrimMethod::Enq, &[v])
    }

    /// Applies a committed shadow to the store. Tree shadows (and dyn
    /// shadows on the flat backend) replace the whole state; flat shadows
    /// copy back out of the log's word arena exactly the words they
    /// cover — for a register-file cell log that is Θ(touched cells),
    /// which is what keeps incremental checkpoints proportional to the
    /// words written.
    fn apply_shadow(&mut self, id: PrimId, s: Shadow, words: &[u64]) {
        if let Shadow::Tree(st) = s {
            self.set_state(id, st);
            return;
        }
        self.sched_dirty.mark(id.0);
        let Backend::Flat(f) = &mut self.backend else {
            unreachable!("flat shadow entry over a tree store");
        };
        let meta = Arc::clone(&f.meta);
        let p = &meta.prims[id.0];
        match s {
            Shadow::Tree(_) => unreachable!("handled above"),
            Shadow::Reg { at, len } => {
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                f.arena[p.start..p.start + p.words].copy_from_slice(&words[at..at + len]);
            }
            Shadow::Fifo { at, len, spill } => {
                let FlatKind::Fifo { spill: si, .. } = p.kind else {
                    unreachable!("fifo shadow on a non-fifo");
                };
                mark_span(&mut self.ckpt_dirty, p.start, p.words);
                self.ckpt_dirty.mark(meta.n_pages + meta.n_dyns + si);
                f.arena[p.start..p.start + p.words].copy_from_slice(&words[at..at + len]);
                f.spills[si] = spill;
            }
            Shadow::Cells { mut head, lane } => {
                while head != flat::NIL {
                    let at = p.start + words[head] as usize * lane;
                    mark_span(&mut self.ckpt_dirty, at, lane);
                    f.arena[at..at + lane].copy_from_slice(&words[head + 2..head + 2 + lane]);
                    head = words[head + 1] as usize;
                }
            }
        }
    }

    /// Mutably borrows a primitive's committed state (used by test
    /// benches, not by rule execution). The primitive is conservatively
    /// marked dirty.
    ///
    /// # Panics
    ///
    /// Panics on a flat store, which has no boxed per-primitive state to
    /// borrow; use [`Store::call_action_at`] / [`Store::set_state`].
    pub fn state_mut(&mut self, id: PrimId) -> &mut PrimState {
        self.sched_dirty.mark(id.0);
        match &mut self.backend {
            Backend::Tree { states, .. } => {
                self.ckpt_dirty.mark(id.0);
                &mut states[id.0]
            }
            Backend::Flat(_) => panic!("tree state access on a flat store (use set_state)"),
        }
    }

    /// Pushes a value into a `Source` primitive (test-bench input).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `Source`.
    pub fn push_source(&mut self, id: PrimId, v: Value) {
        self.try_push_source(id, v)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Store::push_source`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Type`] when `id` is out of range or not a `Source`.
    pub fn try_push_source(&mut self, id: PrimId, v: Value) -> ExecResult<()> {
        match &mut self.backend {
            Backend::Tree { states, .. } => match states.get_mut(id.0) {
                Some(PrimState::Source { queue }) => {
                    queue.push_back(v);
                    self.sched_dirty.mark(id.0);
                    self.ckpt_dirty.mark(id.0);
                    Ok(())
                }
                Some(other) => Err(ExecError::Type(format!(
                    "push_source on {}",
                    other.kind_name()
                ))),
                None => Err(ExecError::Type(format!(
                    "push_source on unknown primitive #{}",
                    id.0
                ))),
            },
            Backend::Flat(f) => {
                let meta = Arc::clone(&f.meta);
                let Some(p) = meta.prims.get(id.0) else {
                    return Err(ExecError::Type(format!(
                        "push_source on unknown primitive #{}",
                        id.0
                    )));
                };
                let FlatKind::Dyn { idx } = p.kind else {
                    return Err(ExecError::Type(format!("push_source on {}", p.kind_name)));
                };
                match &mut f.dyns[idx] {
                    PrimState::Source { queue } => {
                        queue.push_back(v);
                        self.sched_dirty.mark(id.0);
                        self.ckpt_dirty.mark(meta.n_pages + idx);
                        Ok(())
                    }
                    other => Err(ExecError::Type(format!(
                        "push_source on {}",
                        other.kind_name()
                    ))),
                }
            }
        }
    }

    /// Number of values still pending in a `Source`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `Source`.
    pub fn source_pending(&self, id: PrimId) -> usize {
        self.try_source_pending(id)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Store::source_pending`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Type`] when `id` is out of range or not a `Source`.
    pub fn try_source_pending(&self, id: PrimId) -> ExecResult<usize> {
        match self.dyn_state(id, "source_pending")? {
            PrimState::Source { queue } => Ok(queue.len()),
            other => Err(ExecError::Type(format!(
                "source_pending on {}",
                other.kind_name()
            ))),
        }
    }

    /// Resolves a primitive to its boxed state on either backend, for
    /// the source/sink test-bench accessors: the tree backend boxes
    /// everything, the flat backend boxes exactly its dyns. A flat arena
    /// primitive produces the same kind-mismatch error the tree would.
    fn dyn_state(&self, id: PrimId, what: &str) -> ExecResult<&PrimState> {
        match &self.backend {
            Backend::Tree { states, .. } => states
                .get(id.0)
                .ok_or_else(|| ExecError::Type(format!("{what} on unknown primitive #{}", id.0))),
            Backend::Flat(f) => {
                let Some(p) = f.meta.prims.get(id.0) else {
                    return Err(ExecError::Type(format!(
                        "{what} on unknown primitive #{}",
                        id.0
                    )));
                };
                match p.kind {
                    FlatKind::Dyn { idx } => Ok(&f.dyns[idx]),
                    _ => Err(ExecError::Type(format!("{what} on {}", p.kind_name))),
                }
            }
        }
    }

    /// The values a `Sink` has consumed so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `Sink`.
    pub fn sink_values(&self, id: PrimId) -> &[Value] {
        self.try_sink_values(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Store::sink_values`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Type`] when `id` is out of range or not a `Sink`.
    pub fn try_sink_values(&self, id: PrimId) -> ExecResult<&[Value]> {
        match self.dyn_state(id, "sink_values")? {
            PrimState::Sink { consumed } => Ok(consumed),
            other => Err(ExecError::Type(format!(
                "sink_values on {}",
                other.kind_name()
            ))),
        }
    }

    /// Total words currently held by all primitives (used by the
    /// full-shadow ablation to price a whole-state copy). Identical
    /// across backends for well-typed state.
    pub fn total_words(&self) -> u64 {
        match &self.backend {
            Backend::Tree { states, .. } => states.iter().map(PrimState::size_words).sum(),
            Backend::Flat(f) => f.total_words(),
        }
    }

    /// Captures an incremental snapshot: deep-copies only the primitives
    /// mutated since the previous `snapshot_cow` (or since creation), and
    /// aliases the rest from the copy-on-write mirror. The returned
    /// snapshot is immutable and cheap to clone.
    pub fn snapshot_cow(&mut self) -> StoreSnapshot {
        let mut dirty = Vec::new();
        self.ckpt_dirty.drain_into(&mut dirty);
        match &mut self.backend {
            Backend::Tree { states, mirror } => {
                for i in dirty {
                    let st = &states[i];
                    self.ckpt_copied_words += st.size_words();
                    mirror[i] = Arc::new(st.clone());
                }
                StoreSnapshot {
                    inner: SnapInner::Tree(mirror.clone()),
                }
            }
            Backend::Flat(f) => {
                let meta = Arc::clone(&f.meta);
                for i in dirty {
                    if i < meta.n_pages {
                        // Dirty arena pages copy by fixed-size memcpy, so
                        // copied words are counted in 64-bit arena words
                        // (pages × PAGE_WORDS), proportional to the words
                        // actually written between cuts — not the total
                        // state and not the tree's per-value unit.
                        self.ckpt_copied_words += PAGE_WORDS as u64;
                        f.page_mirror[i] =
                            Arc::new(f.arena[i * PAGE_WORDS..(i + 1) * PAGE_WORDS].to_vec());
                    } else if i < meta.n_pages + meta.n_dyns {
                        let d = i - meta.n_pages;
                        self.ckpt_copied_words += f.dyns[d].size_words();
                        f.dyn_mirror[d] = Arc::new(f.dyns[d].clone());
                    } else {
                        let s = i - meta.n_pages - meta.n_dyns;
                        self.ckpt_copied_words += f.spills[s]
                            .iter()
                            .map(|v| v.type_of().words() as u64)
                            .sum::<u64>();
                        f.spill_mirror[s] = Arc::new(f.spills[s].clone());
                    }
                }
                StoreSnapshot {
                    inner: SnapInner::Flat(FlatSnap {
                        kinds: Arc::new(meta.kind_tags.clone()),
                        pages: f.page_mirror.clone(),
                        dyns: f.dyn_mirror.clone(),
                        spills: f.spill_mirror.clone(),
                    }),
                }
            }
        }
    }

    /// Restores every primitive from an incremental snapshot. After this
    /// call the store is bit-identical to the moment the snapshot was
    /// taken; the mirror re-aliases the snapshot so the next
    /// `snapshot_cow` again copies only what changes from here on.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different design
    /// (primitive count mismatch).
    pub fn restore_cow(&mut self, snap: &StoreSnapshot) {
        assert_eq!(self.len(), snap.len(), "snapshot from a different design");
        match (&mut self.backend, &snap.inner) {
            (Backend::Tree { states, mirror }, SnapInner::Tree(from)) => {
                for (st, arc) in states.iter_mut().zip(from) {
                    st.clone_from(arc);
                }
                mirror.clone_from(from);
                self.ckpt_dirty = DirtyTracker::clean(states.len());
            }
            (Backend::Flat(f), SnapInner::Flat(fs)) => {
                assert_eq!(
                    fs.pages.len(),
                    f.meta.n_pages,
                    "snapshot from a different design"
                );
                assert_eq!(
                    fs.dyns.len(),
                    f.meta.n_dyns,
                    "snapshot from a different design"
                );
                assert_eq!(
                    fs.spills.len(),
                    f.meta.n_spills,
                    "snapshot from a different design"
                );
                for (i, pg) in fs.pages.iter().enumerate() {
                    f.arena[i * PAGE_WORDS..(i + 1) * PAGE_WORDS].copy_from_slice(pg);
                }
                for (d, arc) in f.dyns.iter_mut().zip(&fs.dyns) {
                    d.clone_from(arc);
                }
                for (s, arc) in f.spills.iter_mut().zip(&fs.spills) {
                    s.clone_from(arc);
                }
                f.page_mirror.clone_from(&fs.pages);
                f.dyn_mirror.clone_from(&fs.dyns);
                f.spill_mirror.clone_from(&fs.spills);
                self.ckpt_dirty =
                    DirtyTracker::clean(f.meta.n_pages + f.meta.n_dyns + f.meta.n_spills);
            }
            _ => panic!("snapshot from a different store backend"),
        }
        // Guard caches were built against the pre-restore state.
        self.sched_dirty.mark_all();
    }

    /// Moves the primitives dirtied since the last drain into `out`
    /// (appended; `out` is not cleared). Used by the event-driven
    /// schedulers to invalidate cached guard verdicts.
    pub fn drain_sched_dirty(&mut self, out: &mut Vec<PrimId>) {
        for i in &self.sched_dirty.list {
            self.sched_dirty.flags[*i] = false;
        }
        out.extend(self.sched_dirty.list.drain(..).map(PrimId));
    }

    /// True when no primitive has been written since the scheduler last
    /// drained ([`Store::drain_sched_dirty`]).
    pub(crate) fn sched_clean(&self) -> bool {
        self.sched_dirty.list.is_empty()
    }

    /// The write generation: bumped by every mutation of the committed
    /// state (each time a primitive is marked scheduler-dirty, and by
    /// every restore) and never reset by a drain. A consumer that does
    /// not drain the dirty set compares two readings to tell whether
    /// anything was written in between. A freshly built store starts at
    /// 0, so readings are comparable only on one store.
    pub fn write_gen(&self) -> u64 {
        self.sched_dirty.gen
    }

    /// Total words deep-copied by incremental snapshots over this store's
    /// lifetime — the measurable cost of checkpointing, proportional to
    /// the state actually dirtied between cuts.
    pub fn ckpt_copied_words(&self) -> u64 {
        self.ckpt_copied_words
    }
}

/// Shadow allocation policy (§6.3 "Partial Shadowing" ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShadowPolicy {
    /// Clone a primitive into the log only when it is first written
    /// (what the optimized compiler does).
    #[default]
    Partial,
    /// Price a full copy of all state at transaction start (what a naive
    /// transactional implementation does). Functionally identical; only the
    /// metered cost differs.
    Full,
    /// No shadowing at all: writes go straight to the committed store.
    /// Only legal for rules whose guards were fully lifted (§6.3 "perform
    /// the computation in situ to avoid the cost of commit entirely") —
    /// parallel composition and `localGuard` are rejected under this
    /// policy, and a guard failure mid-rule is a compiler bug.
    InPlace,
}

/// Execution cost counters. These are the quantities the generated C++
/// would spend real time on; the software cost model converts them to CPU
/// cycles (see [`crate::sched::CostModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Weighted ALU operations executed.
    pub ops: u64,
    /// Primitive value-method invocations.
    pub reads: u64,
    /// Primitive action-method invocations.
    pub writes: u64,
    /// Words copied into shadows (clone-on-write or full-copy).
    pub shadow_words: u64,
    /// Words copied at commit.
    pub commit_words: u64,
    /// Transactions rolled back (guard failures after partial execution).
    pub rollbacks: u64,
    /// Guard expressions evaluated by the scheduler.
    pub guard_evals: u64,
    /// Guard evaluations skipped because the cached verdict was still
    /// valid (no primitive in the guard's read set was dirtied). Carries
    /// no cycle weight — it measures work avoided, not work done.
    pub guard_evals_skipped: u64,
    /// Transactions that required try/catch-style setup (not guard-lifted).
    pub txn_setups: u64,
    /// Transactions executed on the lifted, in-place fast path.
    pub inplace_runs: u64,
}

impl Cost {
    /// Appends the counters' stable binary encoding (ten `u64`s in
    /// declaration order).
    pub fn encode(&self, w: &mut ByteWriter) {
        for v in [
            self.ops,
            self.reads,
            self.writes,
            self.shadow_words,
            self.commit_words,
            self.rollbacks,
            self.guard_evals,
            self.guard_evals_skipped,
            self.txn_setups,
            self.inplace_runs,
        ] {
            w.u64(v);
        }
    }

    /// Decodes counters previously written by [`Cost::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Cost> {
        Ok(Cost {
            ops: r.u64()?,
            reads: r.u64()?,
            writes: r.u64()?,
            shadow_words: r.u64()?,
            commit_words: r.u64()?,
            rollbacks: r.u64()?,
            guard_evals: r.u64()?,
            guard_evals_skipped: r.u64()?,
            txn_setups: r.u64()?,
            inplace_runs: r.u64()?,
        })
    }

    /// Adds another counter set into this one.
    pub fn add(&mut self, other: &Cost) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.shadow_words += other.shadow_words;
        self.commit_words += other.commit_words;
        self.rollbacks += other.rollbacks;
        self.guard_evals += other.guard_evals;
        self.guard_evals_skipped += other.guard_evals_skipped;
        self.txn_setups += other.txn_setups;
        self.inplace_runs += other.inplace_runs;
    }
}

/// One primitive's shadow in a [`TxnLog`]. On the flat backend a shadow
/// is a span of the log's word arena — a copied register lane, a copied
/// FIFO ring block, or a chain of register-file cell records (only the
/// touched cells are ever copied). On the tree backend, and for boxed
/// flat primitives (sources/sinks), it is an owned cloned [`PrimState`].
#[derive(Debug)]
enum Shadow {
    /// Whole cloned state.
    Tree(PrimState),
    /// Copied register lane at `words[at..at + len]`.
    Reg { at: usize, len: usize },
    /// Copied FIFO ring block (`[head, len, slots..]`) at
    /// `words[at..at + len]`, plus the spill.
    Fifo {
        at: usize,
        len: usize,
        spill: VecDeque<Value>,
    },
    /// Sparse register-file log: a chain of `[cell, next, lane..]`
    /// records through the word arena, newest first (see
    /// [`flat::log_cell`]). Reads of untouched cells fall through to the
    /// base arena.
    Cells { head: usize, lane: usize },
}

/// Builds the first-touch shadow of a primitive from the base store,
/// copying flat state into the log's word arena.
fn make_shadow(base: &Store, words: &mut Vec<u64>, id: PrimId) -> Shadow {
    match &base.backend {
        Backend::Tree { states, .. } => Shadow::Tree(states[id.0].clone()),
        Backend::Flat(f) => {
            let p = &f.meta.prims[id.0];
            let at = words.len();
            match p.kind {
                FlatKind::Reg => {
                    words.extend_from_slice(f.block(p));
                    Shadow::Reg { at, len: p.words }
                }
                FlatKind::Fifo { spill, .. } => {
                    words.extend_from_slice(f.block(p));
                    Shadow::Fifo {
                        at,
                        len: p.words,
                        spill: f.spills[spill].clone(),
                    }
                }
                FlatKind::RegFile { .. } => Shadow::Cells {
                    head: flat::NIL,
                    lane: p.lane,
                },
                FlatKind::Dyn { idx } => Shadow::Tree(f.dyns[idx].clone()),
            }
        }
    }
}

/// The metered size of a shadowed primitive in words — the same quantity
/// [`PrimState::size_words`] reports for the equivalent tree state, so
/// shadow and commit costs are cycle-identical across backends. (A sparse
/// cell log still prices the whole register file: the cost model meters
/// what the generated C++ would copy for that primitive, not the log's
/// physical size.)
fn shadow_size_words(base: &Store, words: &[u64], id: PrimId, s: &Shadow) -> u64 {
    fn flat_prim(base: &Store, id: PrimId) -> &FlatPrim {
        &base.flat().meta.prims[id.0]
    }
    match s {
        Shadow::Tree(st) => st.size_words(),
        Shadow::Reg { .. } => flat_prim(base, id).ty.words() as u64,
        Shadow::Fifo { at, spill, .. } => {
            let p = flat_prim(base, id);
            let len = words[at + 1] as usize + spill.len();
            (len as u64 * p.ty.words() as u64).max(1)
        }
        Shadow::Cells { .. } => {
            let p = flat_prim(base, id);
            let FlatKind::RegFile { size } = p.kind else {
                unreachable!("cell log on a non-regfile");
            };
            (size as u64 * p.ty.words() as u64).max(1)
        }
    }
}

/// Invokes a value method against a shadow (reads fall through to the
/// base arena for cells the log has not touched).
fn shadow_call_value(
    base: &Store,
    words: &[u64],
    id: PrimId,
    s: &Shadow,
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<Value> {
    match s {
        Shadow::Tree(st) => st.call_value(m, args),
        Shadow::Reg { at, len } => {
            flat::reg_call_value(&base.flat().meta.prims[id.0], &words[*at..at + len], m)
        }
        Shadow::Fifo { at, len, spill } => flat::fifo_call_value(
            &base.flat().meta.prims[id.0],
            &words[*at..at + len],
            spill,
            m,
        ),
        Shadow::Cells { head, .. } => {
            let f = base.flat();
            let p = &f.meta.prims[id.0];
            flat::regfile_call_value(
                p,
                flat::Cells::Log {
                    words,
                    head: *head,
                    base: f.block(p),
                },
                m,
                args,
            )
        }
    }
}

/// Invokes an action method against a shadow. Register-file writes copy
/// only the touched cell out of the base arena into the log.
fn shadow_call_action(
    base: &Store,
    words: &mut Vec<u64>,
    id: PrimId,
    s: &mut Shadow,
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<()> {
    match s {
        Shadow::Tree(st) => st.call_action(m, args),
        Shadow::Reg { at, len } => flat::reg_call_action(
            &base.flat().meta.prims[id.0],
            &mut words[*at..*at + *len],
            m,
            args,
        ),
        Shadow::Fifo { at, len, spill } => flat::fifo_call_action(
            &base.flat().meta.prims[id.0],
            &mut words[*at..*at + *len],
            spill,
            m,
            args,
        ),
        Shadow::Cells { head, .. } => {
            let f = base.flat();
            let p = &f.meta.prims[id.0];
            flat::regfile_call_action_log(p, words, head, f.block(p), m, args)
        }
    }
}

/// The lane of register-file cell `cell` as seen through a cell log:
/// the logged record if the cell was touched, else the base arena.
fn cell_view<'a>(
    base: &'a Store,
    words: &'a [u64],
    p: &FlatPrim,
    head: usize,
    cell: usize,
) -> ExecResult<&'a [u64]> {
    let FlatKind::RegFile { size } = p.kind else {
        unreachable!("cell log on a non-regfile");
    };
    if cell >= size {
        return Err(ExecError::Bounds(format!("sub {cell} out of {size}")));
    }
    let base = base.flat().block(p);
    Ok(flat::Cells::Log { words, head, base }.lane(p, cell))
}

/// Word-level value read against a shadow: the unboxed counterpart of
/// [`shadow_call_value`]. A `Tree` shadow here is a source or sink (the
/// only boxed primitives of a flat store).
#[allow(clippy::too_many_arguments)]
fn shadow_value_word(
    base: &Store,
    words: &[u64],
    id: PrimId,
    s: &Shadow,
    m: PrimMethod,
    cell: usize,
    off: u32,
    width: u32,
) -> ExecResult<u64> {
    let p = &base.flat().meta.prims[id.0];
    match (s, m) {
        (Shadow::Reg { at, len }, PrimMethod::RegRead) => {
            Ok(get_bits(&words[*at..at + len], off as usize, width))
        }
        (Shadow::Fifo { at, len, spill }, PrimMethod::First) => {
            flat::fifo_first_word(p, &words[*at..at + len], spill, off, width)
        }
        (Shadow::Fifo { at, spill, .. }, PrimMethod::NotEmpty) => {
            Ok((words[at + 1] as usize + spill.len() > 0) as u64)
        }
        (Shadow::Fifo { at, spill, .. }, PrimMethod::NotFull) => {
            let FlatKind::Fifo { cap, .. } = p.kind else {
                unreachable!("fifo shadow on a non-fifo");
            };
            Ok(((words[at + 1] as usize + spill.len()) < cap) as u64)
        }
        (Shadow::Cells { head, .. }, PrimMethod::Sub) => Ok(get_bits(
            cell_view(base, words, p, *head, cell)?,
            off as usize,
            width,
        )),
        (Shadow::Tree(st), m) => flat::dyn_value_word(st, m, off, width),
        _ => unreachable!("word-level read of a method the lowering does not emit"),
    }
}

/// Packed-aggregate value read against a shadow (copies bits instead of
/// returning one word).
#[allow(clippy::too_many_arguments)]
fn shadow_value_packed(
    base: &Store,
    words: &[u64],
    id: PrimId,
    s: &Shadow,
    m: PrimMethod,
    cell: usize,
    off: u32,
    width: u32,
    dst: &mut [u64],
    dst_bit: usize,
) -> ExecResult<()> {
    let p = &base.flat().meta.prims[id.0];
    match (s, m) {
        (Shadow::Reg { at, len }, PrimMethod::RegRead) => {
            copy_bits(&words[*at..at + len], off as usize, dst, dst_bit, width);
            Ok(())
        }
        (Shadow::Fifo { at, len, spill }, PrimMethod::First) => {
            flat::fifo_first_packed(p, &words[*at..at + len], spill, off, width, dst, dst_bit)
        }
        (Shadow::Cells { head, .. }, PrimMethod::Sub) => {
            let lane = cell_view(base, words, p, *head, cell)?;
            copy_bits(lane, off as usize, dst, dst_bit, width);
            Ok(())
        }
        (Shadow::Tree(st), m) => flat::dyn_value_packed(st, m, off, width, dst, dst_bit),
        _ => unreachable!("packed read of a method the lowering does not emit"),
    }
}

/// Validates a register-file `upd` index and returns the touched cell's
/// lane offset in the log, copying the cell in on first touch. The
/// bounds checks fire after the shadow exists and before the cell is
/// copied, like the boxed path.
fn upd_cell(
    base: &Store,
    words: &mut Vec<u64>,
    p: &FlatPrim,
    head: &mut usize,
    cell: i64,
) -> ExecResult<usize> {
    let FlatKind::RegFile { size } = p.kind else {
        unreachable!("cell log on a non-regfile");
    };
    let cell =
        usize::try_from(cell).map_err(|_| ExecError::Bounds(format!("negative index {cell}")))?;
    if cell >= size {
        return Err(ExecError::Bounds(format!("upd {cell} out of {size}")));
    }
    Ok(flat::log_cell(p, words, head, base.flat().block(p), cell))
}

/// Word-level action against a shadow: the unboxed counterpart of
/// [`shadow_call_action`], with the same error order as the boxed path.
fn shadow_word_action(
    base: &Store,
    words: &mut Vec<u64>,
    id: PrimId,
    s: &mut Shadow,
    m: PrimMethod,
    cell: i64,
    w: u64,
) -> ExecResult<()> {
    let p = &base.flat().meta.prims[id.0];
    match (s, m) {
        (Shadow::Reg { at, len }, PrimMethod::RegWrite) => {
            put_bits(&mut words[*at..*at + *len], 0, p.layout.width, w);
            Ok(())
        }
        (Shadow::Fifo { at, len, spill }, PrimMethod::Enq) => {
            flat::fifo_enq_word(p, &mut words[*at..*at + *len], spill.len(), w)
        }
        (Shadow::Cells { head, .. }, PrimMethod::Upd) => {
            let at = upd_cell(base, words, p, head, cell)?;
            put_bits(&mut words[at..at + p.lane], 0, p.layout.width, w);
            Ok(())
        }
        _ => unreachable!("word-level action on a boxed shadow"),
    }
}

/// Packed-aggregate action against a shadow.
#[allow(clippy::too_many_arguments)]
fn shadow_packed_action(
    base: &Store,
    words: &mut Vec<u64>,
    id: PrimId,
    s: &mut Shadow,
    m: PrimMethod,
    cell: i64,
    src: &[u64],
    src_bit: usize,
) -> ExecResult<()> {
    let p = &base.flat().meta.prims[id.0];
    match (s, m) {
        (Shadow::Reg { at, len }, PrimMethod::RegWrite) => {
            copy_bits(src, src_bit, &mut words[*at..*at + *len], 0, p.layout.width);
            Ok(())
        }
        (Shadow::Fifo { at, len, spill }, PrimMethod::Enq) => {
            flat::fifo_enq_packed(p, &mut words[*at..*at + *len], spill.len(), src, src_bit)
        }
        (Shadow::Cells { head, .. }, PrimMethod::Upd) => {
            let at = upd_cell(base, words, p, head, cell)?;
            copy_bits(src, src_bit, &mut words[at..at + p.lane], 0, p.layout.width);
            Ok(())
        }
        (Shadow::Tree(st), m) => flat::dyn_action_packed(st, p, m, src, src_bit),
        _ => unreachable!("packed action of a method the lowering does not emit"),
    }
}

/// One shadowed primitive in a [`TxnLog`] frame.
#[derive(Debug)]
struct LogEntry {
    id: PrimId,
    /// Mutated through this frame (a shadow copied in by an action that
    /// then failed is not).
    written: bool,
    shadow: Shadow,
}

/// Where an open frame's entries and words begin.
#[derive(Debug, Clone, Copy)]
struct FrameMark {
    entry: usize,
    word: usize,
    /// The first branch of an in-flight parallel composition: kept in
    /// place for the merge but invisible to lookups, so the second
    /// branch observes only the state both branches started from.
    stashed: bool,
}

/// The reusable storage behind every [`Txn`]: one shadow-entry vector
/// cut into frames by marks, and one word arena holding the flat
/// shadows (register lanes, FIFO ring blocks, register-file cell
/// records). Each scheduler owns one log and lends it to every firing,
/// so in steady state a transaction allocates nothing — the paper's
/// "shadows for rules are persistent/reused" (§6.2). Frames are a stack
/// over both vectors: opening one records the lengths, discarding one
/// truncates back to them. [`Txn::new`] clears the log, so a firing that
/// aborted with an error leaks nothing into the next.
#[derive(Debug, Default)]
pub struct TxnLog {
    entries: Vec<LogEntry>,
    frames: Vec<FrameMark>,
    words: Vec<u64>,
}

impl TxnLog {
    /// An empty log. It allocates on first use and keeps its capacity.
    pub fn new() -> TxnLog {
        TxnLog::default()
    }

    /// Empties the log and opens the root frame.
    fn reset(&mut self) {
        self.entries.clear();
        self.words.clear();
        self.frames.clear();
        self.push_frame();
    }

    fn push_frame(&mut self) {
        self.frames.push(FrameMark {
            entry: self.entries.len(),
            word: self.words.len(),
            stashed: false,
        });
    }

    /// Closes every frame from index `keep` up, dropping their entries
    /// and words.
    fn unwind(&mut self, keep: usize) {
        let m = self.frames[keep];
        self.frames.truncate(keep);
        self.entries.truncate(m.entry);
        self.words.truncate(m.word);
    }

    /// The innermost visible entry for `id` among the lowest `frames`
    /// frames, searched top-down (stashed frames are skipped).
    fn find(&self, id: PrimId, frames: usize) -> Option<usize> {
        let mut end = self
            .frames
            .get(frames)
            .map_or(self.entries.len(), |m| m.entry);
        for m in self.frames[..frames].iter().rev() {
            if !m.stashed {
                if let Some(i) = self.entries[m.entry..end].iter().position(|e| e.id == id) {
                    return Some(m.entry + i);
                }
            }
            end = m.entry;
        }
        None
    }

    /// The entry a read of `id` observes, if any.
    fn view(&self, id: PrimId) -> Option<&LogEntry> {
        self.find(id, self.frames.len()).map(|i| &self.entries[i])
    }

    /// A copy of entry `j`'s shadow, with its words duplicated at the
    /// end of the arena.
    fn copy_shadow(&mut self, j: usize) -> Shadow {
        let words = &mut self.words;
        match &self.entries[j].shadow {
            Shadow::Tree(st) => Shadow::Tree(st.clone()),
            &Shadow::Reg { at, len } => {
                let new = words.len();
                words.extend_from_within(at..at + len);
                Shadow::Reg { at: new, len }
            }
            Shadow::Fifo { at, len, spill } => {
                let new = words.len();
                words.extend_from_within(*at..at + len);
                Shadow::Fifo {
                    at: new,
                    len: *len,
                    spill: spill.clone(),
                }
            }
            &Shadow::Cells { head, lane } => {
                let mut new = flat::NIL;
                let mut at = head;
                while at != flat::NIL {
                    let rec = words.len();
                    words.extend_from_within(at..at + 2 + lane);
                    words[rec + 1] = new as u64;
                    new = rec;
                    at = words[at + 1] as usize;
                }
                Shadow::Cells { head: new, lane }
            }
        }
    }

    /// Folds every frame above `parent` into it: each written entry
    /// replaces the parent's entry for the same primitive or joins the
    /// parent's frame; unwritten copies are dropped. Their words stay in
    /// the arena until the parent frame itself is closed.
    fn merge_into(&mut self, parent: usize) {
        let p_start = self.frames[parent].entry;
        let c_start = self.frames[parent + 1].entry;
        self.frames.truncate(parent + 1);
        let mut keep = c_start;
        for r in c_start..self.entries.len() {
            if !self.entries[r].written {
                continue;
            }
            let id = self.entries[r].id;
            match self.entries[p_start..c_start]
                .iter()
                .position(|e| e.id == id)
            {
                Some(i) => self.entries.swap(p_start + i, r),
                None => {
                    self.entries.swap(keep, r);
                    keep += 1;
                }
            }
        }
        self.entries.truncate(keep);
    }
}

/// A transaction: a stack of shadow frames, kept in a borrowed
/// [`TxnLog`], over a base store.
///
/// Reads search the frames top-down and fall through to the base. The
/// first write to a primitive in a frame copies it into that frame — a
/// word-arena copy of its lane, ring block or touched cell on the flat
/// backend, a cloned state on the tree backend.
#[derive(Debug)]
pub struct Txn<'s> {
    base: &'s mut Store,
    log: &'s mut TxnLog,
    /// Cost counters for this transaction.
    pub cost: Cost,
    /// Shadow pricing policy.
    pub policy: ShadowPolicy,
    /// Safety bound on `loop` iterations.
    pub max_loop_iters: u64,
}

impl<'s> Txn<'s> {
    /// Opens a transaction with a single root frame, clearing whatever
    /// an earlier transaction left in `log`.
    pub fn new(base: &'s mut Store, log: &'s mut TxnLog, policy: ShadowPolicy) -> Txn<'s> {
        let mut cost = Cost::default();
        if policy == ShadowPolicy::Full {
            cost.shadow_words = base.total_words();
        }
        log.reset();
        Txn {
            base,
            log,
            cost,
            policy,
            max_loop_iters: 1_000_000,
        }
    }

    /// Invokes a value method through the log: the frames are searched
    /// top-down, and a miss reads the committed store directly.
    pub fn call_value(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<Value> {
        self.cost.reads += 1;
        match self.log.view(id) {
            Some(e) => shadow_call_value(self.base, &self.log.words, id, &e.shadow, m, args),
            None => self.base.call_value_at(id, m, args),
        }
    }

    /// Invokes an action method, shadowing the primitive into the top
    /// frame on first write (partial shadowing). Under
    /// [`ShadowPolicy::InPlace`] the write goes straight to the committed
    /// store.
    pub fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<()> {
        self.cost.writes += 1;
        if self.policy == ShadowPolicy::InPlace {
            return self.base.call_action_at(id, m, args);
        }
        let i = self.ensure_shadow_entry(id);
        let log = &mut *self.log;
        let e = &mut log.entries[i];
        shadow_call_action(self.base, &mut log.words, id, &mut e.shadow, m, args)?;
        e.written = true;
        Ok(())
    }

    /// Ensures the top frame holds a shadow entry for `id` and returns
    /// its index: copies the nearest lower-frame shadow if one exists (it
    /// carries that frame's occupancy), else shadows the committed state.
    /// First touch under [`ShadowPolicy::Partial`] prices the shadow into
    /// `cost.shadow_words` — this happens *before* any action-level error
    /// (e.g. a bad register-file index), which is why the word-level
    /// entry points below share this helper with [`Txn::call_action`].
    fn ensure_shadow_entry(&mut self, id: PrimId) -> usize {
        let log = &mut *self.log;
        let top = log.frames.len() - 1;
        let start = log.frames[top].entry;
        if let Some(i) = log.entries[start..].iter().position(|e| e.id == id) {
            return start + i;
        }
        let shadow = match log.find(id, top) {
            Some(j) => log.copy_shadow(j),
            None => make_shadow(self.base, &mut log.words, id),
        };
        if self.policy == ShadowPolicy::Partial {
            self.cost.shadow_words += shadow_size_words(self.base, &log.words, id, &shadow);
        }
        log.entries.push(LogEntry {
            id,
            written: false,
            shadow,
        });
        log.entries.len() - 1
    }

    /// Word-level [`Txn::call_value`]: charges one read, then reads the
    /// packed span through the frames without materializing a
    /// [`Value`]. Coverage mirrors [`Store::call_value_word_at`].
    pub(crate) fn call_value_word(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        self.cost.reads += 1;
        self.peek_value_word(id, m, cell, off, width)
    }

    /// Uncharged shadow-aware word read: used for availability probes
    /// that precede a separately-charged access (e.g. checking a FIFO is
    /// non-empty before charging its `first`), where the boxed path also
    /// charges nothing.
    pub(crate) fn peek_value_word(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        match self.log.view(id) {
            Some(e) => shadow_value_word(
                self.base,
                &self.log.words,
                id,
                &e.shadow,
                m,
                cell,
                off,
                width,
            ),
            None => self.base.call_value_word_at(id, m, cell, off, width),
        }
    }

    /// Uncharged shadow-aware packed read (the aggregate counterpart of
    /// [`Txn::peek_value_word`]); the caller meters the access.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn peek_value_packed(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
        dst: &mut [u64],
        dst_bit: usize,
    ) -> ExecResult<()> {
        match self.log.view(id) {
            Some(e) => shadow_value_packed(
                self.base,
                &self.log.words,
                id,
                &e.shadow,
                m,
                cell,
                off,
                width,
                dst,
                dst_bit,
            ),
            None => self
                .base
                .call_value_packed_at(id, m, cell, off, width, dst, dst_bit),
        }
    }

    /// Word-level [`Txn::call_action`]: same charge (one write), same
    /// first-touch shadow creation and pricing, same error order — only
    /// the payload is an unboxed word instead of a [`Value`].
    pub(crate) fn call_action_word(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        w: u64,
    ) -> ExecResult<()> {
        self.cost.writes += 1;
        if self.policy == ShadowPolicy::InPlace {
            return self.base.call_action_word_at(id, m, cell, w);
        }
        let i = self.ensure_shadow_entry(id);
        let log = &mut *self.log;
        let e = &mut log.entries[i];
        shadow_word_action(self.base, &mut log.words, id, &mut e.shadow, m, cell, w)?;
        e.written = true;
        Ok(())
    }

    /// Packed-aggregate [`Txn::call_action`]: writes the element's packed
    /// bits from `src[src_bit..]` with boxed-identical metering.
    pub(crate) fn call_action_packed(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        src: &[u64],
        src_bit: usize,
    ) -> ExecResult<()> {
        self.cost.writes += 1;
        if self.policy == ShadowPolicy::InPlace {
            return self.base.call_action_packed_at(id, m, cell, src, src_bit);
        }
        let i = self.ensure_shadow_entry(id);
        let log = &mut *self.log;
        let e = &mut log.entries[i];
        shadow_packed_action(
            self.base,
            &mut log.words,
            id,
            &mut e.shadow,
            m,
            cell,
            src,
            src_bit,
        )?;
        e.written = true;
        Ok(())
    }

    /// Pushes a fresh frame (for `localGuard`) and returns its index,
    /// for [`Txn::discard_from`].
    pub fn push_frame(&mut self) -> usize {
        self.log.push_frame();
        self.log.frames.len() - 1
    }

    /// Closes frame `at` and every frame above it, discarding their
    /// effects, and charges one rollback (a `localGuard` whose body
    /// failed). A compiled body can fail with parallel-branch frames
    /// still open above its own, so `at` need not be the top frame.
    pub fn discard_from(&mut self, at: usize) {
        self.log.unwind(at);
        self.cost.rollbacks += 1;
    }

    /// Pops the top frame and merges its writes into the new top (used
    /// by `localGuard` success).
    pub fn pop_merge(&mut self) -> ExecResult<()> {
        self.log.merge_into(self.log.frames.len() - 2);
        Ok(())
    }

    /// Runs two closures as parallel branches: both observe the state as of
    /// now, neither observes the other, and their write sets must be
    /// disjoint (the DOUBLE WRITE ERROR of §6.1).
    ///
    /// # Errors
    ///
    /// Propagates guard failures and other errors from either branch;
    /// returns `DoubleWrite` if both branches mutate the same primitive.
    pub fn run_par<F, G>(&mut self, f: F, g: G) -> ExecResult<()>
    where
        F: FnOnce(&mut Txn<'s>) -> ExecResult<()>,
        G: FnOnce(&mut Txn<'s>) -> ExecResult<()>,
    {
        self.run_par_ctx(&mut (), |t, _| f(t), |t, _| g(t))
    }

    /// [`Txn::run_par`] with a caller context threaded through both
    /// branches sequentially, driven through [`Txn::par_start`],
    /// [`Txn::par_mid`] and [`Txn::par_end`] like a compiled `Par`. The
    /// branches still run against isolated frames; only the context is
    /// shared, letting the interpreter reuse one environment instead of
    /// cloning it per branch. A failing branch closes both branch frames
    /// before its error propagates.
    pub fn run_par_ctx<C, F, G>(&mut self, ctx: &mut C, f: F, g: G) -> ExecResult<()>
    where
        F: FnOnce(&mut Txn<'s>, &mut C) -> ExecResult<()>,
        G: FnOnce(&mut Txn<'s>, &mut C) -> ExecResult<()>,
    {
        self.par_start()?;
        let keep = self.log.frames.len() - 1;
        if let Err(e) = f(self, ctx) {
            self.log.unwind(keep);
            return Err(e);
        }
        self.par_mid();
        if let Err(e) = g(self, ctx) {
            self.log.unwind(keep);
            return Err(e);
        }
        self.par_end()
    }

    /// Parallel composition, step one of three: opens the isolation frame
    /// for the first branch. Compiled rules call `par_start` /
    /// `par_mid` / `par_end` around the two branches of a `Par`;
    /// [`Txn::run_par_ctx`] is the same three steps around two closures.
    ///
    /// # Errors
    ///
    /// Rejects parallel composition under [`ShadowPolicy::InPlace`].
    pub fn par_start(&mut self) -> ExecResult<()> {
        if self.policy == ShadowPolicy::InPlace {
            return Err(ExecError::Malformed(
                "parallel composition reached an in-place (guard-lifted) execution".into(),
            ));
        }
        self.log.push_frame();
        Ok(())
    }

    /// Between parallel branches: stashes the first branch's frame (so
    /// the second observes only entry state) and opens the second
    /// branch's frame.
    pub fn par_mid(&mut self) {
        self.log
            .frames
            .last_mut()
            .expect("par_mid without par_start")
            .stashed = true;
        self.log.push_frame();
    }

    /// After the second branch: the double-write check, then the merge of
    /// both branches' writes into the frame they started from.
    ///
    /// # Errors
    ///
    /// `DoubleWrite` naming the smallest primitive both branches mutated;
    /// both branch frames are closed first.
    pub fn par_end(&mut self) -> ExecResult<()> {
        let log = &mut *self.log;
        let b = log.frames.len() - 1;
        // Frames: [.., parent, a (stashed), b]; the root is never stashed.
        assert!(
            b >= 2 && log.frames[b - 1].stashed,
            "par_end without par_mid"
        );
        let a = b - 1;
        let (fa, fb) =
            log.entries[log.frames[a].entry..].split_at(log.frames[b].entry - log.frames[a].entry);
        let clash = fb
            .iter()
            .filter(|e| e.written && fa.iter().any(|x| x.written && x.id == e.id))
            .map(|e| e.id)
            .min();
        if let Some(id) = clash {
            log.unwind(a);
            return Err(ExecError::DoubleWrite(format!("primitive #{}", id.0)));
        }
        log.merge_into(a - 1);
        Ok(())
    }

    /// Commits the root frame into the base store. Consumes the transaction.
    ///
    /// # Panics
    ///
    /// Panics if branch frames are still open.
    pub fn commit(mut self) -> Cost {
        assert_eq!(self.log.frames.len(), 1, "unbalanced frames at commit");
        let log = &mut *self.log;
        for e in log.entries.drain(..) {
            if e.written {
                self.cost.commit_words += shadow_size_words(self.base, &log.words, e.id, &e.shadow);
                self.base.apply_shadow(e.id, e.shadow, &log.words);
            }
        }
        log.unwind(0);
        self.cost
    }

    /// Abandons the transaction (rule guard failure), leaving the base
    /// store untouched.
    pub fn rollback(mut self) -> Cost {
        self.cost.rollbacks += 1;
        self.log.unwind(0);
        self.cost
    }

    /// Number of open frames visible to reads (a stashed parallel branch
    /// does not count).
    pub fn depth(&self) -> usize {
        self.log.frames.iter().filter(|m| !m.stashed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PrimDef;
    use crate::prim::PrimSpec;
    use crate::types::Type;

    fn design2() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: "a".into(),
                    spec: PrimSpec::Reg {
                        init: Value::int(8, 1),
                    },
                },
                PrimDef {
                    path: "b".into(),
                    spec: PrimSpec::Reg {
                        init: Value::int(8, 2),
                    },
                },
                PrimDef {
                    path: "q".into(),
                    spec: PrimSpec::Fifo {
                        depth: 1,
                        ty: Type::Int(8),
                    },
                },
            ],
            ..Default::default()
        }
    }

    const A: PrimId = PrimId(0);
    const B: PrimId = PrimId(1);
    const Q: PrimId = PrimId(2);

    #[test]
    fn commit_applies_writes() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        assert_eq!(
            t.call_value(A, PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 9)
        );
        let cost = t.commit();
        assert!(cost.commit_words >= 1);
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 9)
        );
    }

    #[test]
    fn snapshot_restore_round_trips_all_state() {
        let d = design2();
        let mut s = Store::new(&d);
        s.state_mut(A)
            .call_action(PrimMethod::RegWrite, &[Value::int(8, 7)])
            .unwrap();
        s.state_mut(Q)
            .call_action(PrimMethod::Enq, &[Value::int(8, 5)])
            .unwrap();
        let copy = s.clone();
        let snap = s.snapshot_cow();
        // Mutate everything, then rewind.
        s.state_mut(A)
            .call_action(PrimMethod::RegWrite, &[Value::int(8, 1)])
            .unwrap();
        s.state_mut(Q).call_action(PrimMethod::Deq, &[]).unwrap();
        assert_ne!(s, copy);
        s.restore_cow(&snap);
        assert_eq!(s, copy);
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 7)
        );
        assert_eq!(
            s.state(Q).call_value(PrimMethod::First, &[]).unwrap(),
            Value::int(8, 5)
        );
    }

    #[test]
    fn rollback_discards_writes() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        let cost = t.rollback();
        assert_eq!(cost.rollbacks, 1);
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 1)
        );
    }

    #[test]
    fn parallel_swap_semantics() {
        // a := b | b := a must swap, both reading pre-state.
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        t.run_par(
            |t| {
                let vb = t.call_value(B, PrimMethod::RegRead, &[])?;
                t.call_action(A, PrimMethod::RegWrite, &[vb])
            },
            |t| {
                let va = t.call_value(A, PrimMethod::RegRead, &[])?;
                t.call_action(B, PrimMethod::RegWrite, &[va])
            },
        )
        .unwrap();
        t.commit();
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 2)
        );
        assert_eq!(
            s.state(B).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 1)
        );
    }

    #[test]
    fn double_write_detected() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        let r = t.run_par(
            |t| t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 3)]),
            |t| t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 4)]),
        );
        assert!(matches!(r, Err(ExecError::DoubleWrite(_))));
    }

    #[test]
    fn parallel_double_deq_is_double_write() {
        // The paper's example: two parallel branches both dequeue the same
        // FIFO — a dynamic error.
        let d = design2();
        let mut s = Store::new(&d);
        s.state_mut(Q)
            .call_action(PrimMethod::Enq, &[Value::int(8, 7)])
            .unwrap();
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        let r = t.run_par(
            |t| t.call_action(Q, PrimMethod::Deq, &[]),
            |t| t.call_action(Q, PrimMethod::Deq, &[]),
        );
        assert!(matches!(r, Err(ExecError::DoubleWrite(_))));
    }

    #[test]
    fn seq_observes_prior_writes() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 5)])
            .unwrap();
        let v = t.call_value(A, PrimMethod::RegRead, &[]).unwrap();
        t.call_action(B, PrimMethod::RegWrite, &[v]).unwrap();
        t.commit();
        assert_eq!(
            s.state(B).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 5)
        );
    }

    #[test]
    fn local_guard_frame_discard() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        let at = t.push_frame();
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        t.discard_from(at); // as if the guarded body failed
        assert_eq!(
            t.call_value(A, PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 1)
        );
        t.push_frame();
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 7)])
            .unwrap();
        t.pop_merge().unwrap();
        t.commit();
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 7)
        );
    }

    #[test]
    fn full_shadow_policy_prices_whole_store() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let t = Txn::new(&mut s, &mut log, ShadowPolicy::Full);
        assert!(t.cost.shadow_words >= 3);
    }

    #[test]
    fn partial_shadow_prices_only_touched() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        assert_eq!(t.cost.shadow_words, 0);
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 0)])
            .unwrap();
        assert_eq!(t.cost.shadow_words, 1);
        // second write to same prim: no new shadow
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 1)])
            .unwrap();
        assert_eq!(t.cost.shadow_words, 1);
    }

    #[test]
    fn cow_snapshot_copies_only_dirty_words() {
        let d = design2();
        let mut s = Store::new(&d);
        // First cut: nothing mutated since creation, so nothing copied.
        let snap0 = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), 0);
        // Dirty one register, checkpoint: only that register is copied.
        s.state_mut(A)
            .call_action(PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        let snap1 = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), 1);
        // Idle cut: still nothing new to copy.
        let _snap2 = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), 1);
        // Restores are exact.
        s.state_mut(A)
            .call_action(PrimMethod::RegWrite, &[Value::int(8, 3)])
            .unwrap();
        s.restore_cow(&snap1);
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 9)
        );
        s.restore_cow(&snap0);
        assert_eq!(
            s.state(A).call_value(PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 1)
        );
    }

    #[test]
    fn sched_dirty_drains_once_and_remarks() {
        let d = design2();
        let mut s = Store::new(&d);
        let mut dirty = Vec::new();
        // A fresh store is conservatively all-dirty.
        s.drain_sched_dirty(&mut dirty);
        assert_eq!(dirty.len(), 3);
        dirty.clear();
        s.drain_sched_dirty(&mut dirty);
        assert!(dirty.is_empty());
        // Double-touching a primitive marks it once.
        s.state_mut(B);
        s.state_mut(B);
        s.drain_sched_dirty(&mut dirty);
        assert_eq!(dirty, vec![B]);
    }

    #[test]
    fn txn_commit_marks_written_prims_sched_dirty() {
        let d = design2();
        let mut s = Store::new(&d);
        s.drain_sched_dirty(&mut Vec::new());
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        t.call_value(B, PrimMethod::RegRead, &[]).unwrap();
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        t.commit();
        let mut dirty = Vec::new();
        s.drain_sched_dirty(&mut dirty);
        // Only the written primitive is dirty; the read one is not.
        assert_eq!(dirty, vec![A]);
    }

    /// Every `&mut self` mutator of the committed state, and a committed
    /// transaction, bumps the write generation on both backends; reads,
    /// drains, snapshots and a rolled-back transaction do not.
    #[test]
    fn every_mutation_bumps_the_write_generation() {
        let mut d = design2();
        d.prims.push(PrimDef {
            path: "in".into(),
            spec: PrimSpec::Source {
                ty: Type::Int(8),
                domain: "SW".into(),
            },
        });
        let src = PrimId(3);
        for flat in [false, true] {
            let mut s = Store::new_like(&d, flat);
            let bumps = |s: &mut Store, what: &str, f: &mut dyn FnMut(&mut Store)| {
                let before = s.write_gen();
                f(s);
                assert!(s.write_gen() > before, "{what} (flat={flat}) did not bump");
            };
            let cow = s.snapshot_cow();
            bumps(&mut s, "call_action_at", &mut |s| {
                s.call_action_at(Q, PrimMethod::Enq, &[Value::int(8, 3)])
                    .unwrap();
            });
            bumps(&mut s, "fifo_deq", &mut |s| s.fifo_deq(Q).unwrap());
            bumps(&mut s, "enq_wire", &mut |s| {
                s.enq_wire(Q, &Type::Int(8), &[7]).unwrap();
            });
            bumps(&mut s, "set_state", &mut |s| {
                s.set_state(A, PrimState::Reg(Value::int(8, 4)));
            });
            if !flat {
                bumps(&mut s, "state_mut", &mut |s| {
                    s.state_mut(B);
                });
            }
            bumps(&mut s, "push_source", &mut |s| {
                s.push_source(src, Value::int(8, 1));
            });
            bumps(&mut s, "try_push_source", &mut |s| {
                s.try_push_source(src, Value::int(8, 2)).unwrap();
            });
            bumps(&mut s, "committed Txn", &mut |s| {
                let mut log = TxnLog::new();
                let mut t = Txn::new(s, &mut log, ShadowPolicy::Partial);
                t.call_action(B, PrimMethod::RegWrite, &[Value::int(8, 9)])
                    .unwrap();
                t.commit();
            });
            let mid = s.snapshot_cow();
            bumps(&mut s, "restore_cow", &mut |s| s.restore_cow(&cow));
            bumps(&mut s, "restore_cow (mid-run cut)", &mut |s| {
                s.restore_cow(&mid);
            });

            let before = s.write_gen();
            s.drain_sched_dirty(&mut Vec::new());
            assert!(s.sched_clean());
            let _ = s.snapshot_cow();
            let _ = s.call_value_at(A, PrimMethod::RegRead, &[]).unwrap();
            let _ = (
                s.fifo_len(Q),
                s.fifo_front_wire(Q, &mut Vec::new()),
                s.source_pending(src),
            );
            let mut log = TxnLog::new();
            let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
            t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 1)])
                .unwrap();
            t.rollback();
            assert_eq!(s.write_gen(), before, "flat={flat}: a non-mutation bumped");
            assert!(s.sched_clean());
        }
    }

    #[test]
    fn source_sink_roundtrip() {
        let d = Design {
            name: "io".into(),
            prims: vec![
                PrimDef {
                    path: "in".into(),
                    spec: PrimSpec::Source {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
                PrimDef {
                    path: "out".into(),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
            ],
            ..Default::default()
        };
        let mut s = Store::new(&d);
        s.push_source(PrimId(0), Value::int(8, 42));
        assert_eq!(s.source_pending(PrimId(0)), 1);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        let v = t.call_value(PrimId(0), PrimMethod::First, &[]).unwrap();
        t.call_action(PrimId(0), PrimMethod::Deq, &[]).unwrap();
        t.call_action(PrimId(1), PrimMethod::Enq, &[v]).unwrap();
        t.commit();
        assert_eq!(s.source_pending(PrimId(0)), 0);
        assert_eq!(s.sink_values(PrimId(1)), &[Value::int(8, 42)]);
    }

    // ---- flat backend ---------------------------------------------------

    fn design_rf() -> Design {
        let mut d = design2();
        d.prims.push(PrimDef {
            path: "rf".into(),
            spec: PrimSpec::RegFile {
                size: 8,
                ty: Type::Int(32),
                init: vec![Value::int(32, 1), Value::int(32, 2), Value::int(32, 3)],
            },
        });
        d
    }

    const RF: PrimId = PrimId(3);

    /// Runs an identical transaction script on a store and reports the
    /// cost plus the decoded final states.
    fn scripted_txn(s: &mut Store) -> (Cost, Vec<PrimState>) {
        let mut log = TxnLog::new();
        let mut t = Txn::new(s, &mut log, ShadowPolicy::Partial);
        t.call_action(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        assert_eq!(
            t.call_value(A, PrimMethod::RegRead, &[]).unwrap(),
            Value::int(8, 9)
        );
        t.call_action(Q, PrimMethod::Enq, &[Value::int(8, 5)])
            .unwrap();
        // Depth-1 FIFO: a second enqueue through the shadow guard-fails.
        assert_eq!(
            t.call_action(Q, PrimMethod::Enq, &[Value::int(8, 6)]),
            Err(ExecError::GuardFail)
        );
        t.call_action(
            RF,
            PrimMethod::Upd,
            &[Value::int(32, 2), Value::int(32, 42)],
        )
        .unwrap();
        assert_eq!(
            t.call_value(RF, PrimMethod::Sub, &[Value::int(32, 2)])
                .unwrap(),
            Value::int(32, 42)
        );
        // Untouched cell reads fall through to the committed base.
        assert_eq!(
            t.call_value(RF, PrimMethod::Sub, &[Value::int(32, 0)])
                .unwrap(),
            Value::int(32, 1)
        );
        let cost = t.commit();
        let states = (0..s.len()).map(|i| s.get_state(PrimId(i))).collect();
        (cost, states)
    }

    #[test]
    fn flat_backend_matches_tree_costs_and_state() {
        let d = design_rf();
        let mut tree = Store::new(&d);
        let mut flat = Store::new_flat(&d);
        assert!(flat.is_flat() && !tree.is_flat());
        let (ct, st) = scripted_txn(&mut tree);
        let (cf, sf) = scripted_txn(&mut flat);
        assert_eq!(ct, cf, "flat txn cost must be cycle-identical to tree");
        assert_eq!(st, sf, "flat state must decode bit-identical to tree");
        assert_eq!(tree, flat);
        assert_eq!(tree.total_words(), flat.total_words());
        // Same guard-probe answers straight off the committed stores.
        for id in [A, B, Q] {
            for m in [PrimMethod::RegRead, PrimMethod::NotEmpty, PrimMethod::First] {
                assert_eq!(
                    tree.call_value_at(id, m, &[]),
                    flat.call_value_at(id, m, &[])
                );
            }
        }
    }

    #[test]
    fn flat_error_texts_match_tree() {
        let d = design_rf();
        let mut tree = Store::new(&d);
        let mut flat = Store::new_flat(&d);
        let probes: &[(PrimId, PrimMethod, Vec<Value>)] = &[
            (Q, PrimMethod::Deq, vec![]),
            (A, PrimMethod::Enq, vec![Value::int(8, 1)]),
            (RF, PrimMethod::Upd, vec![]),
            (RF, PrimMethod::Upd, vec![Value::int(32, 9)]),
            (
                RF,
                PrimMethod::Upd,
                vec![Value::int(32, 99), Value::int(32, 0)],
            ),
            (A, PrimMethod::RegWrite, vec![]),
        ];
        for (id, m, args) in probes {
            assert_eq!(
                tree.call_action_at(*id, *m, args),
                flat.call_action_at(*id, *m, args),
                "action {m:?} on #{id:?}"
            );
        }
        assert_eq!(
            tree.call_value_at(RF, PrimMethod::Sub, &[Value::int(32, 99)]),
            flat.call_value_at(RF, PrimMethod::Sub, &[Value::int(32, 99)])
        );
        assert_eq!(
            tree.call_value_at(A, PrimMethod::First, &[]),
            flat.call_value_at(A, PrimMethod::First, &[])
        );
        assert_eq!(
            tree.try_push_source(A, Value::int(8, 0)),
            flat.try_push_source(A, Value::int(8, 0))
        );
        assert_eq!(
            tree.try_source_pending(PrimId(99)).unwrap_err(),
            flat.try_source_pending(PrimId(99)).unwrap_err()
        );
    }

    #[test]
    fn flat_cow_copies_dirty_pages_only() {
        let d = design_rf();
        let mut s = Store::new_flat(&d);
        let snap0 = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), 0);
        s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(8, 9)])
            .unwrap();
        let snap1 = s.snapshot_cow();
        // One small register dirties exactly one arena page.
        assert_eq!(s.ckpt_copied_words(), PAGE_WORDS as u64);
        let _ = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), PAGE_WORDS as u64);
        s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(8, 3)])
            .unwrap();
        s.restore_cow(&snap1);
        assert_eq!(s.get_state(A), PrimState::Reg(Value::int(8, 9)));
        s.restore_cow(&snap0);
        assert_eq!(s.get_state(A), PrimState::Reg(Value::int(8, 1)));
    }

    #[test]
    fn flat_snapshot_encodes_and_decodes() {
        let d = design_rf();
        let mut s = Store::new_flat(&d);
        s.call_action_at(Q, PrimMethod::Enq, &[Value::int(8, 5)])
            .unwrap();
        s.call_action_at(
            RF,
            PrimMethod::Upd,
            &[Value::int(32, 1), Value::int(32, -7)],
        )
        .unwrap();
        let snap = s.snapshot_cow();
        assert!(snap.is_flat());
        let mut w = ByteWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = StoreSnapshot::decode(&mut r).unwrap();
        assert!(back.is_flat() && back.shape_matches(&s));
        assert_eq!(
            snap.kind_names().collect::<Vec<_>>(),
            back.kind_names().collect::<Vec<_>>()
        );
        // Mutate, then rewind through the decoded bytes.
        s.call_action_at(Q, PrimMethod::Deq, &[]).unwrap();
        s.restore_cow(&back);
        assert_eq!(s.fifo_len(Q), 1);
        assert_eq!(
            s.call_value_at(RF, PrimMethod::Sub, &[Value::int(32, 1)])
                .unwrap(),
            Value::int(32, -7)
        );
        // A tree snapshot of the same design does not shape-match.
        let tree_snap = Store::new(&d).snapshot_cow();
        assert!(!tree_snap.shape_matches(&s));
        assert!(tree_snap.shape_matches(&Store::new(&d)));
    }

    #[test]
    fn flat_set_state_spills_fifo_overflow() {
        let d = design2();
        let mut s = Store::new_flat(&d);
        let items: VecDeque<Value> = (1..=3).map(|i| Value::int(8, i)).collect();
        s.set_state(
            Q,
            PrimState::Fifo {
                depth: 1,
                items: items.clone(),
            },
        );
        assert_eq!(s.fifo_len(Q), 3);
        assert_eq!(s.get_state(Q), PrimState::Fifo { depth: 1, items });
        // Full (ring + spill): enq guard-fails, like an overfull tree FIFO.
        assert_eq!(
            s.call_action_at(Q, PrimMethod::Enq, &[Value::int(8, 9)]),
            Err(ExecError::GuardFail)
        );
        // Dequeue drains in order through the spill refill.
        for i in 1..=3 {
            assert_eq!(
                s.call_value_at(Q, PrimMethod::First, &[]).unwrap(),
                Value::int(8, i)
            );
            s.fifo_deq(Q).unwrap();
        }
        assert_eq!(s.fifo_len(Q), 0);
    }

    #[test]
    fn flat_wire_fifo_api_matches_tree() {
        let d = design2();
        let mut tree = Store::new(&d);
        let mut flat = Store::new_flat(&d);
        let ty = Type::Int(8);
        let wire = Value::int(8, -3).to_words();
        tree.enq_wire(Q, &ty, &wire).unwrap();
        flat.enq_wire(Q, &ty, &wire).unwrap();
        assert_eq!(tree.fifo_len(Q), 1);
        assert_eq!(flat.fifo_len(Q), 1);
        let front = |s: &Store| {
            let mut out = vec![9u32; 3];
            s.fifo_front_wire(Q, &mut out).then_some(out)
        };
        assert_eq!(front(&tree), front(&flat));
        assert_eq!(front(&flat).unwrap(), wire);
        // Full FIFO: both refuse with a guard failure.
        assert_eq!(tree.enq_wire(Q, &ty, &wire), Err(ExecError::GuardFail));
        assert_eq!(flat.enq_wire(Q, &ty, &wire), Err(ExecError::GuardFail));
        // Short streams: byte-identical error, state untouched.
        let short = tree.enq_wire(Q, &Type::Int(64), &wire).unwrap_err();
        assert_eq!(short, flat.enq_wire(Q, &Type::Int(64), &wire).unwrap_err());
        assert_eq!(
            short,
            ExecError::Type("word stream too short: need 64 bits, have 32".into())
        );
        tree.fifo_deq(Q).unwrap();
        flat.fifo_deq(Q).unwrap();
        assert_eq!(front(&tree), None);
        assert_eq!(front(&flat), None);
        assert_eq!(flat.fifo_deq(Q), Err(ExecError::GuardFail));
        // Non-FIFO primitives answer the probes benignly.
        assert_eq!(flat.fifo_len(A), 0);
        assert!(!flat.fifo_front_wire(A, &mut Vec::new()));
    }

    #[test]
    fn flat_source_sink_roundtrip() {
        let d = Design {
            name: "io".into(),
            prims: vec![
                PrimDef {
                    path: "in".into(),
                    spec: PrimSpec::Source {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
                PrimDef {
                    path: "out".into(),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
            ],
            ..Default::default()
        };
        let mut s = Store::new_flat(&d);
        s.push_source(PrimId(0), Value::int(8, 42));
        assert_eq!(s.source_pending(PrimId(0)), 1);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        let v = t.call_value(PrimId(0), PrimMethod::First, &[]).unwrap();
        t.call_action(PrimId(0), PrimMethod::Deq, &[]).unwrap();
        t.call_action(PrimId(1), PrimMethod::Enq, &[v]).unwrap();
        t.commit();
        assert_eq!(s.source_pending(PrimId(0)), 0);
        assert_eq!(s.sink_values(PrimId(1)), &[Value::int(8, 42)]);
    }

    #[test]
    fn flat_regfile_checkpoint_is_theta_k() {
        // A register file far larger than one checkpoint page: k cell
        // writes through a committed transaction must copy Θ(k) pages,
        // not the whole table.
        let table = 4096usize;
        let d = Design {
            name: "big".into(),
            prims: vec![PrimDef {
                path: "rf".into(),
                spec: PrimSpec::RegFile {
                    size: table,
                    ty: Type::Bits(64),
                    init: vec![],
                },
            }],
            ..Default::default()
        };
        let mut s = Store::new_flat(&d);
        let _ = s.snapshot_cow();
        assert_eq!(s.ckpt_copied_words(), 0);
        let mut log = TxnLog::new();
        let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        for i in 0..4u64 {
            t.call_action(
                PrimId(0),
                PrimMethod::Upd,
                &[Value::bits(64, i * 577), Value::bits(64, i + 1)],
            )
            .unwrap();
        }
        t.commit();
        let _ = s.snapshot_cow();
        // 4 touched cells, each one 64-bit lane → at most 4 pages copied
        // (exactly 4 here since the cells are spread > PAGE_WORDS apart).
        assert_eq!(s.ckpt_copied_words(), 4 * PAGE_WORDS as u64);
        for i in 0..4u64 {
            assert_eq!(
                s.call_value_at(PrimId(0), PrimMethod::Sub, &[Value::bits(64, i * 577)])
                    .unwrap(),
                Value::bits(64, i + 1)
            );
        }
    }

    // ---- transaction-log reuse -------------------------------------------

    type Script = fn(&mut Txn<'_>) -> ExecResult<()>;

    /// Runs a script as one firing, ending it the way a scheduler does:
    /// commit on success, roll back on a guard failure, and drop the
    /// transaction (log left as the error found it) on any other error.
    fn fire(s: &mut Store, log: &mut TxnLog, script: Script) -> (ExecResult<()>, Cost) {
        let mut t = Txn::new(s, log, ShadowPolicy::Partial);
        match script(&mut t) {
            Ok(()) => (Ok(()), t.commit()),
            Err(ExecError::GuardFail) => (Err(ExecError::GuardFail), t.rollback()),
            Err(e) => (Err(e), t.cost),
        }
    }

    fn w(t: &mut Txn<'_>, id: PrimId, v: i64) -> ExecResult<()> {
        t.call_action(id, PrimMethod::RegWrite, &[Value::int(8, v)])
    }

    fn upd(t: &mut Txn<'_>, cell: i64, v: i64) -> ExecResult<()> {
        t.call_action(
            RF,
            PrimMethod::Upd,
            &[Value::int(32, cell), Value::int(32, v)],
        )
    }

    /// Asserts that a transaction opened on `log` observes exactly the
    /// committed state of every primitive of `design_rf`.
    fn assert_reads_committed(s: &mut Store, log: &mut TxnLog) {
        let committed: Vec<PrimState> = (0..s.len()).map(|i| s.get_state(PrimId(i))).collect();
        let t = &mut Txn::new(s, log, ShadowPolicy::Partial);
        let mut probes = vec![
            (A, PrimMethod::RegRead, vec![]),
            (B, PrimMethod::RegRead, vec![]),
            (Q, PrimMethod::NotEmpty, vec![]),
            (Q, PrimMethod::First, vec![]),
        ];
        probes.extend((0..8).map(|c| (RF, PrimMethod::Sub, vec![Value::int(32, c)])));
        for (id, m, args) in probes {
            assert_eq!(
                t.call_value(id, m, &args),
                committed[id.0].call_value(m, &args),
                "{id:?}.{m:?}{args:?} must read committed state"
            );
        }
    }

    #[test]
    fn one_log_serves_commit_rollback_errors_and_nested_par() {
        let steps: [(&str, Script, ExecResult<()>); 5] = [
            (
                "commit",
                |t| {
                    w(t, A, 9)?;
                    t.call_action(Q, PrimMethod::Enq, &[Value::int(8, 5)])?;
                    upd(t, 2, 42)
                },
                Ok(()),
            ),
            (
                "rollback",
                |t| {
                    w(t, B, 7)?;
                    upd(t, 1, 5)?;
                    t.call_action(Q, PrimMethod::Deq, &[])?;
                    Err(ExecError::GuardFail)
                },
                Err(ExecError::GuardFail),
            ),
            (
                "double write from par_end",
                |t| {
                    t.par_start()?;
                    w(t, B, 1)?;
                    upd(t, 3, 3)?;
                    t.par_mid();
                    w(t, A, 2)?;
                    w(t, B, 2)?;
                    t.par_end()
                },
                Err(ExecError::DoubleWrite("primitive #1".into())),
            ),
            (
                "regfile bounds after first touch",
                |t| {
                    upd(t, 0, 11)?;
                    upd(t, 99, 1)
                },
                Err(ExecError::Bounds("upd 99 out of 8".into())),
            ),
            (
                "nested par",
                |t| {
                    t.par_start()?;
                    t.par_start()?;
                    w(t, A, 3)?;
                    upd(t, 4, 4)?;
                    t.par_mid();
                    w(t, B, 4)?;
                    t.par_end()?;
                    t.par_mid();
                    t.call_action(Q, PrimMethod::Deq, &[])?;
                    t.par_end()
                },
                Ok(()),
            ),
        ];
        for flat in [false, true] {
            let d = design_rf();
            let mut s = Store::new_like(&d, flat);
            let mut log = TxnLog::new();
            for (name, script, want) in steps.iter().cloned() {
                let mut fresh = s.clone();
                let reference = fire(&mut fresh, &mut TxnLog::new(), script);
                let reused = fire(&mut s, &mut log, script);
                assert_eq!(reused.0, want, "{name} (flat: {flat})");
                assert_eq!(reused, reference, "{name}: reused log vs fresh log");
                assert!(s == fresh, "{name}: committed state vs fresh log");
                assert_reads_committed(&mut s, &mut log);
            }
            let reg = |s: &Store, id| s.get_state(id).call_value(PrimMethod::RegRead, &[]);
            assert_eq!(reg(&s, A), Ok(Value::int(8, 3)));
            assert_eq!(reg(&s, B), Ok(Value::int(8, 4)));
            assert_eq!(
                s.get_state(Q).call_value(PrimMethod::NotEmpty, &[]),
                Ok(Value::Bool(false))
            );
            let cells: Vec<_> = (0..5)
                .map(|c| {
                    s.get_state(RF)
                        .call_value(PrimMethod::Sub, &[Value::int(32, c)])
                        .unwrap()
                })
                .collect();
            let want = [1, 2, 42, 0, 4].map(|v| Value::int(32, v));
            assert_eq!(cells, want, "flat: {flat}");
        }
    }

    #[test]
    fn par_double_write_names_smallest_of_three_overlaps() {
        for flat in [false, true] {
            let d = design_rf();
            let mut s = Store::new_like(&d, flat);
            let mut log = TxnLog::new();
            let want = Err(ExecError::DoubleWrite("primitive #0".into()));
            let mut t = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
            let r = t.run_par(
                |t| {
                    upd(t, 1, 1)?;
                    w(t, B, 1)?;
                    w(t, A, 1)
                },
                |t| {
                    w(t, A, 2)?;
                    upd(t, 2, 2)?;
                    w(t, B, 2)
                },
            );
            assert_eq!(r, want, "interpreted (flat: {flat})");
            assert_eq!(t.depth(), 1, "a failed merge closes both branch frames");
            t.par_start().unwrap();
            w(&mut t, B, 1).unwrap();
            upd(&mut t, 6, 1).unwrap();
            w(&mut t, A, 1).unwrap();
            t.par_mid();
            upd(&mut t, 7, 2).unwrap();
            w(&mut t, A, 2).unwrap();
            w(&mut t, B, 2).unwrap();
            assert_eq!(t.par_end(), want, "compiled (flat: {flat})");
            assert_eq!(t.depth(), 1);
        }
    }
}
