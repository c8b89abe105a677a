//! The arena-flattened store backend (ROADMAP "Arena-flatten the store").
//!
//! Every primitive whose occupancy is statically bounded — registers,
//! FIFOs, register files — lives as bit-packed 64-bit words in one
//! contiguous arena, addressed by a per-primitive [`FlatPrim`] compiled
//! from the design. Guard probes and rule-body reads become integer
//! loads through a compiled [`Layout`]; checkpoint deep-copies become
//! copies of dirty fixed-size arena pages; transactor wire marshaling
//! reads 32-bit words straight out of the arena.
//!
//! Unbounded primitives (test-bench sources/sinks) stay boxed as
//! [`PrimState`] "dyns" alongside the arena, and a FIFO spliced above
//! its capacity by the failover machinery overflows into a boxed
//! "spill" sidecar (a spill is only ever non-empty while its ring is
//! full, so ordering is preserved).
//!
//! Behavior — success/failure, error text, guard semantics, and the
//! modeled cost accounting — is bit- and cycle-identical to the
//! tree-walking [`PrimState`] oracle in `prim.rs`; the differential
//! fuzz farm (`tests/fuzz_farm.rs`) pins that equivalence. The one
//! intentional divergence: the tree store lets an ill-typed program
//! store a value of the wrong shape in a register and read it back,
//! while the flat store rejects the write with a type error. Designs
//! that pass `analysis::validate` never hit that path.

use crate::ast::{PrimId, PrimMethod};
use crate::design::Design;
use crate::error::{ExecError, ExecResult};
use crate::prim::{PrimSpec, PrimState};
use crate::types::{Layout, Type};
use crate::value::{copy_bits, flat_to_wire_in, get_bits, put_bits, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Arena words (64-bit) per copy-on-write checkpoint page. The arena is
/// padded to a page multiple so every page copy is exactly this long.
pub const PAGE_WORDS: usize = 64;

/// How a primitive's state is represented in a [`FlatStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlatKind {
    /// One value lane in the arena.
    Reg,
    /// Ring buffer in the arena: `[head, len, slot 0, .., slot cap-1]`,
    /// plus a boxed spill sidecar for splice-induced overflow.
    Fifo {
        /// Capacity (the FIFO's declared depth).
        cap: usize,
        /// Index into [`FlatStore::spills`].
        spill: usize,
    },
    /// `size` value lanes in the arena.
    RegFile {
        /// Number of cells.
        size: usize,
    },
    /// Boxed tree state (sources/sinks — unbounded occupancy).
    Dyn {
        /// Index into [`FlatStore::dyns`].
        idx: usize,
    },
}

/// Compiled placement of one primitive in the arena.
#[derive(Debug, Clone)]
pub(crate) struct FlatPrim {
    pub kind: FlatKind,
    /// First arena word of this primitive's block.
    pub start: usize,
    /// Arena words occupied by the block.
    pub words: usize,
    /// 64-bit words per element lane (`layout.words64()`).
    pub lane: usize,
    /// Dense bit layout of one element.
    pub layout: Layout,
    /// Element type (for wire-format word counts and decode).
    pub ty: Type,
    /// Kind name for error messages, matching [`PrimState::kind_name`]
    /// of the equivalent tree state (a `Sync` spec runs as "Fifo").
    pub kind_name: &'static str,
}

impl FlatPrim {
    /// Tree-equivalent metered size in words of one element
    /// (`Value::type_of().words()` of a well-typed element).
    fn elem_size_words(&self) -> u64 {
        self.ty.words() as u64
    }
}

/// The compiled, immutable shape of a design's flat store: shared by the
/// store, its transaction shadows, and every checkpoint of it.
#[derive(Debug)]
pub(crate) struct FlatMeta {
    pub prims: Vec<FlatPrim>,
    pub n_pages: usize,
    pub n_dyns: usize,
    pub n_spills: usize,
    /// Codec kind tag per primitive (the `PRIM_*` tags of `codec.rs`),
    /// recorded in snapshots for shape validation.
    pub kind_tags: Vec<u8>,
}

/// The arena-backed store: bit-packed committed state plus the boxed
/// sidecars and the copy-on-write mirrors used by incremental
/// checkpoints (pages for the arena, whole states for the sidecars).
#[derive(Debug, Clone)]
pub(crate) struct FlatStore {
    pub meta: Arc<FlatMeta>,
    pub arena: Vec<u64>,
    pub dyns: Vec<PrimState>,
    pub spills: Vec<VecDeque<Value>>,
    pub page_mirror: Vec<Arc<Vec<u64>>>,
    pub dyn_mirror: Vec<Arc<PrimState>>,
    pub spill_mirror: Vec<Arc<VecDeque<Value>>>,
}

impl FlatStore {
    /// Compiles the arena layout for a design and initializes every
    /// primitive at reset (same reset state as `PrimSpec::initial_state`).
    pub fn new(design: &Design) -> FlatStore {
        let mut prims = Vec::with_capacity(design.prims.len());
        let mut kind_tags = Vec::with_capacity(design.prims.len());
        let mut cursor = 0usize;
        let mut n_dyns = 0usize;
        let mut n_spills = 0usize;
        for p in &design.prims {
            let ty = p.spec.value_type();
            let layout = Layout::of(&ty);
            let lane = layout.words64();
            let (kind, words, kind_name) = match &p.spec {
                PrimSpec::Reg { .. } => (FlatKind::Reg, lane, "Reg"),
                PrimSpec::Fifo { depth, .. } | PrimSpec::Sync { depth, .. } => {
                    let spill = n_spills;
                    n_spills += 1;
                    (
                        FlatKind::Fifo { cap: *depth, spill },
                        2 + depth * lane,
                        "Fifo",
                    )
                }
                PrimSpec::RegFile { size, .. } => {
                    (FlatKind::RegFile { size: *size }, size * lane, "RegFile")
                }
                PrimSpec::Source { .. } => {
                    let idx = n_dyns;
                    n_dyns += 1;
                    (FlatKind::Dyn { idx }, 0, "Source")
                }
                PrimSpec::Sink { .. } => {
                    let idx = n_dyns;
                    n_dyns += 1;
                    (FlatKind::Dyn { idx }, 0, "Sink")
                }
            };
            kind_tags.push(kind_tag_of(kind_name));
            prims.push(FlatPrim {
                kind,
                start: cursor,
                words,
                lane,
                layout,
                ty,
                kind_name,
            });
            cursor += words;
        }
        let n_pages = cursor.div_ceil(PAGE_WORDS);
        let arena_words = n_pages * PAGE_WORDS;
        let meta = Arc::new(FlatMeta {
            prims,
            n_pages,
            n_dyns,
            n_spills,
            kind_tags,
        });

        let mut arena = vec![0u64; arena_words];
        let mut dyns = Vec::with_capacity(n_dyns);
        for (fp, p) in meta.prims.iter().zip(&design.prims) {
            match (&fp.kind, &p.spec) {
                (FlatKind::Reg, PrimSpec::Reg { init }) => {
                    init.write_flat(&mut arena[fp.start..fp.start + fp.words], 0);
                }
                (FlatKind::RegFile { size }, PrimSpec::RegFile { init, .. }) => {
                    // Padded with zeros (already zero) and truncated to size,
                    // like `initial_state`.
                    for (i, v) in init.iter().take(*size).enumerate() {
                        let at = fp.start + i * fp.lane;
                        v.write_flat(&mut arena[at..at + fp.lane], 0);
                    }
                }
                (FlatKind::Dyn { .. }, spec) => dyns.push(spec.initial_state()),
                _ => {}
            }
        }
        let spills = vec![VecDeque::new(); n_spills];
        let page_mirror = (0..n_pages)
            .map(|p| Arc::new(arena[p * PAGE_WORDS..(p + 1) * PAGE_WORDS].to_vec()))
            .collect();
        let dyn_mirror = dyns.iter().map(|d| Arc::new(d.clone())).collect();
        let spill_mirror = spills
            .iter()
            .map(|s: &VecDeque<Value>| Arc::new(s.clone()))
            .collect();
        FlatStore {
            meta,
            arena,
            dyns,
            spills,
            page_mirror,
            dyn_mirror,
            spill_mirror,
        }
    }

    pub fn block(&self, p: &FlatPrim) -> &[u64] {
        &self.arena[p.start..p.start + p.words]
    }

    /// Decodes a primitive's full tree-equivalent state out of the arena.
    pub fn get_state(&self, id: PrimId) -> PrimState {
        let p = &self.meta.prims[id.0];
        match p.kind {
            FlatKind::Reg => PrimState::Reg(Value::read_flat(&p.layout, self.block(p), 0)),
            FlatKind::Fifo { cap, spill } => {
                let block = self.block(p);
                let (head, len) = fifo_geom(block);
                let mut items = VecDeque::with_capacity(len + self.spills[spill].len());
                for i in 0..len {
                    let slot = (head + i) % cap;
                    items.push_back(Value::read_flat(&p.layout, block, (2 + slot * p.lane) * 64));
                }
                items.extend(self.spills[spill].iter().cloned());
                PrimState::Fifo { depth: cap, items }
            }
            FlatKind::RegFile { size } => {
                let block = self.block(p);
                PrimState::RegFile(
                    (0..size)
                        .map(|i| Value::read_flat(&p.layout, block, i * p.lane * 64))
                        .collect(),
                )
            }
            FlatKind::Dyn { idx } => self.dyns[idx].clone(),
        }
    }

    /// Tree-equivalent metered size of a primitive's current state, equal
    /// to `PrimState::size_words` of [`FlatStore::get_state`] for
    /// well-typed contents.
    pub fn size_words_of(&self, id: PrimId) -> u64 {
        let p = &self.meta.prims[id.0];
        match p.kind {
            FlatKind::Reg => p.elem_size_words(),
            FlatKind::Fifo { spill, .. } => {
                let len = fifo_geom(self.block(p)).1 + self.spills[spill].len();
                (len as u64 * p.elem_size_words()).max(1)
            }
            FlatKind::RegFile { size } => (size as u64 * p.elem_size_words()).max(1),
            FlatKind::Dyn { idx } => self.dyns[idx].size_words(),
        }
    }

    pub fn total_words(&self) -> u64 {
        (0..self.meta.prims.len())
            .map(|i| self.size_words_of(PrimId(i)))
            .sum()
    }
}

/// Maps a kind name to its codec `PRIM_*` tag (see `codec.rs`).
pub(crate) fn kind_tag_of(kind_name: &str) -> u8 {
    match kind_name {
        "Reg" => 0,
        "Fifo" => 1,
        "RegFile" => 2,
        "Source" => 3,
        _ => 4,
    }
}

/// Maps a codec `PRIM_*` tag back to a kind name.
pub(crate) fn kind_name_of_tag(tag: u8) -> &'static str {
    match tag {
        0 => "Reg",
        1 => "Fifo",
        2 => "RegFile",
        3 => "Source",
        _ => "Sink",
    }
}

// ---- word-level primitive operations ------------------------------------
//
// These are free functions over word slices (not methods on FlatStore) so
// the transactional shadow entries in `store.rs` — detached copies of a
// register lane, a FIFO block, or a sparse set of register-file cells —
// run exactly the same code as in-place execution.

pub(crate) fn fifo_geom(block: &[u64]) -> (usize, usize) {
    (block[0] as usize, block[1] as usize)
}

fn value_unsupported(m: PrimMethod, kind: &str) -> ExecError {
    ExecError::Type(format!(
        "value method {} not supported on {}",
        m.name(),
        kind
    ))
}

fn action_unsupported(m: PrimMethod, kind: &str) -> ExecError {
    ExecError::Type(format!(
        "action method {} not supported on {}",
        m.name(),
        kind
    ))
}

/// Writes a value into an element lane, rejecting shape mismatches (the
/// flat store cannot represent a value wider than its compiled slot).
fn write_value(p: &FlatPrim, lane: &mut [u64], v: &Value) -> ExecResult<()> {
    let wrote = v.write_flat(lane, 0);
    if wrote != p.layout.width as usize {
        return Err(ExecError::Type(format!(
            "flat store write of {wrote} bits into a {}-bit slot",
            p.layout.width
        )));
    }
    Ok(())
}

pub(crate) fn reg_call_value(p: &FlatPrim, lane: &[u64], m: PrimMethod) -> ExecResult<Value> {
    match m {
        PrimMethod::RegRead => Ok(Value::read_flat(&p.layout, lane, 0)),
        _ => Err(value_unsupported(m, p.kind_name)),
    }
}

pub(crate) fn reg_call_action(
    p: &FlatPrim,
    lane: &mut [u64],
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<()> {
    match m {
        PrimMethod::RegWrite => {
            let v = args
                .first()
                .ok_or_else(|| ExecError::Type("_write needs a value".into()))?;
            write_value(p, lane, v)
        }
        _ => Err(action_unsupported(m, p.kind_name)),
    }
}

pub(crate) fn fifo_call_value(
    p: &FlatPrim,
    block: &[u64],
    spill: &VecDeque<Value>,
    m: PrimMethod,
) -> ExecResult<Value> {
    let FlatKind::Fifo { cap, .. } = p.kind else {
        unreachable!("fifo op on non-fifo");
    };
    let (head, len) = fifo_geom(block);
    let total = len + spill.len();
    match m {
        PrimMethod::First => {
            if len > 0 {
                Ok(Value::read_flat(&p.layout, block, (2 + head * p.lane) * 64))
            } else {
                spill.front().cloned().ok_or(ExecError::GuardFail)
            }
        }
        PrimMethod::NotEmpty => Ok(Value::Bool(total > 0)),
        PrimMethod::NotFull => Ok(Value::Bool(total < cap)),
        _ => Err(value_unsupported(m, p.kind_name)),
    }
}

pub(crate) fn fifo_call_action(
    p: &FlatPrim,
    block: &mut [u64],
    spill: &mut VecDeque<Value>,
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<()> {
    let FlatKind::Fifo { cap, .. } = p.kind else {
        unreachable!("fifo op on non-fifo");
    };
    let (head, len) = fifo_geom(block);
    let total = len + spill.len();
    match m {
        PrimMethod::Enq => {
            if total >= cap {
                return Err(ExecError::GuardFail);
            }
            let v = args
                .first()
                .ok_or_else(|| ExecError::Type("enq needs a value".into()))?;
            // total < cap and the spill is only non-empty when the ring is
            // full, so len < cap here.
            let slot = (head + len) % cap;
            let at = 2 + slot * p.lane;
            write_value(p, &mut block[at..at + p.lane], v)?;
            block[1] = (len + 1) as u64;
            Ok(())
        }
        PrimMethod::Deq => {
            if total == 0 {
                return Err(ExecError::GuardFail);
            }
            if len > 0 {
                let head = (head + 1) % cap;
                let mut len = len - 1;
                block[0] = head as u64;
                // Refill the ring from the spill, preserving order.
                if let Some(v) = spill.pop_front() {
                    let slot = (head + len) % cap;
                    let at = 2 + slot * p.lane;
                    write_value(p, &mut block[at..at + p.lane], &v)?;
                    len += 1;
                }
                block[1] = len as u64;
            } else {
                spill.pop_front();
            }
            Ok(())
        }
        PrimMethod::Clear => {
            block[0] = 0;
            block[1] = 0;
            spill.clear();
            Ok(())
        }
        _ => Err(action_unsupported(m, p.kind_name)),
    }
}

/// Ends a chain of register-file cell records in a transaction log's
/// word arena. Each record is `[cell, next, lane..]`: the cell index,
/// the arena offset of the previous record of the same shadow (or
/// `NIL`), then the cell's copied lane.
pub(crate) const NIL: usize = usize::MAX;

/// The arena offset of cell `cell`'s logged lane in the record chain
/// starting at `head`, if the cell was touched.
fn logged_cell(words: &[u64], mut head: usize, cell: usize) -> Option<usize> {
    while head != NIL {
        if words[head] == cell as u64 {
            return Some(head + 2);
        }
        head = words[head + 1] as usize;
    }
    None
}

/// The arena offset of cell `cell`'s logged lane, first copying the cell
/// out of the committed `base` block into a new record at the end of
/// `words` if the chain does not hold it yet.
pub(crate) fn log_cell(
    p: &FlatPrim,
    words: &mut Vec<u64>,
    head: &mut usize,
    base: &[u64],
    cell: usize,
) -> usize {
    if let Some(at) = logged_cell(words, *head, cell) {
        return at;
    }
    let at = words.len();
    words.push(cell as u64);
    words.push(*head as u64);
    words.extend_from_slice(&base[cell * p.lane..(cell + 1) * p.lane]);
    *head = at;
    at + 2
}

/// Read view of a register file's cells: the whole committed block, or a
/// transaction's cell-record chain falling through to the base arena.
pub(crate) enum Cells<'a> {
    Whole(&'a [u64]),
    Log {
        words: &'a [u64],
        head: usize,
        base: &'a [u64],
    },
}

impl<'a> Cells<'a> {
    /// Cell `i`'s lane (the caller has bounds-checked `i`).
    pub(crate) fn lane(&self, p: &FlatPrim, i: usize) -> &'a [u64] {
        match *self {
            Cells::Whole(block) => &block[i * p.lane..(i + 1) * p.lane],
            Cells::Log { words, head, base } => match logged_cell(words, head, i) {
                Some(at) => &words[at..at + p.lane],
                None => &base[i * p.lane..(i + 1) * p.lane],
            },
        }
    }
}

pub(crate) fn regfile_call_value(
    p: &FlatPrim,
    cells: Cells<'_>,
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<Value> {
    let FlatKind::RegFile { size } = p.kind else {
        unreachable!("regfile op on non-regfile");
    };
    match m {
        PrimMethod::Sub => {
            let idx = args
                .first()
                .ok_or_else(|| ExecError::Type("sub needs an index".into()))?
                .as_index()?;
            if idx >= size {
                return Err(ExecError::Bounds(format!("sub {idx} out of {size}")));
            }
            Ok(Value::read_flat(&p.layout, cells.lane(p, idx), 0))
        }
        _ => Err(value_unsupported(m, p.kind_name)),
    }
}

/// Parses and validates `upd` arguments; shared by the in-place and
/// shadowed register-file writes. Error order matches `prim.rs`: missing
/// index, bad index, missing value, then bounds.
fn upd_args(size: usize, args: &[Value]) -> ExecResult<(usize, &Value)> {
    let idx = args
        .first()
        .ok_or_else(|| ExecError::Type("upd needs an index".into()))?
        .as_index()?;
    let val = args
        .get(1)
        .ok_or_else(|| ExecError::Type("upd needs a value".into()))?;
    if idx >= size {
        return Err(ExecError::Bounds(format!("upd {idx} out of {size}")));
    }
    Ok((idx, val))
}

/// In-place register-file action. `mark` is called with the cell index
/// before the write lands, so the caller can mark exactly that cell's
/// pages checkpoint-dirty (before, not after: a mistyped value can
/// partially write its lane and still error).
pub(crate) fn regfile_call_action_whole(
    p: &FlatPrim,
    block: &mut [u64],
    m: PrimMethod,
    args: &[Value],
    mut mark: impl FnMut(usize),
) -> ExecResult<()> {
    let FlatKind::RegFile { size } = p.kind else {
        unreachable!("regfile op on non-regfile");
    };
    match m {
        PrimMethod::Upd => {
            let (idx, val) = upd_args(size, args)?;
            mark(idx);
            write_value(p, &mut block[idx * p.lane..(idx + 1) * p.lane], val)
        }
        _ => Err(action_unsupported(m, p.kind_name)),
    }
}

/// Shadowed register-file action: the word-diff log. Only the touched
/// cell is copied out of the base arena into the record chain.
pub(crate) fn regfile_call_action_log(
    p: &FlatPrim,
    words: &mut Vec<u64>,
    head: &mut usize,
    base: &[u64],
    m: PrimMethod,
    args: &[Value],
) -> ExecResult<()> {
    let FlatKind::RegFile { size } = p.kind else {
        unreachable!("regfile op on non-regfile");
    };
    match m {
        PrimMethod::Upd => {
            let (idx, val) = upd_args(size, args)?;
            let at = log_cell(p, words, head, base, idx);
            write_value(p, &mut words[at..at + p.lane], val)
        }
        _ => Err(action_unsupported(m, p.kind_name)),
    }
}

// ---- word-level fast paths (ROADMAP "Word-level lowering") ---------------
//
// The compiled backend keeps single-word leaf values in registers end to
// end: these helpers read and write raw bit spans of an element lane
// without ever materializing a `Value`. Like the boxed operations above,
// they are free functions over word slices so the transactional shadow
// entries in `store.rs` share them with in-place execution. All of them
// assume the caller (the lowering pass in `compile.rs`) has proven the
// accessed span is a leaf of width ≤ 64 inside the element layout.

/// Reads a bit span of a boxed element (a FIFO's spill front, a
/// source's head) as one word.
fn boxed_bits(v: &Value, off: u32, width: u32) -> u64 {
    let mut w = [0u64];
    v.write_flat_span(off, width, &mut w, 0);
    w[0]
}

/// Reads `width` bits at bit `off` of a FIFO's front element.
///
/// # Errors
///
/// [`ExecError::GuardFail`] when the FIFO (ring and spill) is empty,
/// exactly like `first`.
pub(crate) fn fifo_first_word(
    p: &FlatPrim,
    block: &[u64],
    spill: &VecDeque<Value>,
    off: u32,
    width: u32,
) -> ExecResult<u64> {
    let (head, len) = fifo_geom(block);
    if len > 0 {
        Ok(get_bits(
            block,
            (2 + head * p.lane) * 64 + off as usize,
            width,
        ))
    } else {
        match spill.front() {
            Some(v) => Ok(boxed_bits(v, off, width)),
            None => Err(ExecError::GuardFail),
        }
    }
}

/// Copies `width` bits at bit `off` of a FIFO's front element into `dst`
/// at `dst_bit` (packed aggregate reads: whole elements or sub-aggregates
/// move without decoding).
///
/// # Errors
///
/// [`ExecError::GuardFail`] when the FIFO is empty, like `first`.
pub(crate) fn fifo_first_packed(
    p: &FlatPrim,
    block: &[u64],
    spill: &VecDeque<Value>,
    off: u32,
    width: u32,
    dst: &mut [u64],
    dst_bit: usize,
) -> ExecResult<()> {
    let (head, len) = fifo_geom(block);
    if len > 0 {
        copy_bits(
            block,
            (2 + head * p.lane) * 64 + off as usize,
            dst,
            dst_bit,
            width,
        );
        Ok(())
    } else {
        match spill.front() {
            Some(v) => {
                v.write_flat_span(off, width, dst, dst_bit);
                Ok(())
            }
            None => Err(ExecError::GuardFail),
        }
    }
}

/// Enqueues a single-word element given as its packed bits. Guard
/// ordering and ring arithmetic match [`fifo_call_action`]'s `Enq` —
/// only the `Value` unpacking is gone. The caller guarantees
/// `p.layout.width ≤ 64` and equal to the value's width, which is what
/// makes the boxed path's shape check statically true.
pub(crate) fn fifo_enq_word(
    p: &FlatPrim,
    block: &mut [u64],
    spill_len: usize,
    w: u64,
) -> ExecResult<()> {
    let FlatKind::Fifo { cap, .. } = p.kind else {
        unreachable!("fifo op on non-fifo");
    };
    let (head, len) = fifo_geom(block);
    if len + spill_len >= cap {
        return Err(ExecError::GuardFail);
    }
    let slot = (head + len) % cap;
    put_bits(block, (2 + slot * p.lane) * 64, p.layout.width, w);
    block[1] = (len + 1) as u64;
    Ok(())
}

/// Enqueues an element given as `p.layout.width` packed bits at
/// `src[src_bit..]` — the zero-copy aggregate counterpart of
/// [`fifo_enq_word`].
pub(crate) fn fifo_enq_packed(
    p: &FlatPrim,
    block: &mut [u64],
    spill_len: usize,
    src: &[u64],
    src_bit: usize,
) -> ExecResult<()> {
    let FlatKind::Fifo { cap, .. } = p.kind else {
        unreachable!("fifo op on non-fifo");
    };
    let (head, len) = fifo_geom(block);
    if len + spill_len >= cap {
        return Err(ExecError::GuardFail);
    }
    let slot = (head + len) % cap;
    copy_bits(
        src,
        src_bit,
        block,
        (2 + slot * p.lane) * 64,
        p.layout.width,
    );
    block[1] = (len + 1) as u64;
    Ok(())
}

/// Word-level read of a boxed source or sink: `first` yields `width`
/// bits at bit `off` of the source's head value, `notEmpty`/`notFull`
/// are 1-bit words. Guard failure and error text match
/// [`PrimState::call_value`].
pub(crate) fn dyn_value_word(
    st: &PrimState,
    m: PrimMethod,
    off: u32,
    width: u32,
) -> ExecResult<u64> {
    match (st, m) {
        (PrimState::Source { queue }, PrimMethod::First) => queue
            .front()
            .map(|v| boxed_bits(v, off, width))
            .ok_or(ExecError::GuardFail),
        (PrimState::Source { queue }, PrimMethod::NotEmpty) => Ok(!queue.is_empty() as u64),
        (PrimState::Sink { .. }, PrimMethod::NotFull) => Ok(1),
        (st, m) => Err(value_unsupported(m, st.kind_name())),
    }
}

/// Packed read of a source's head: copies `width` bits at bit `off` of
/// its `write_flat` packing into `dst` at `dst_bit`.
pub(crate) fn dyn_value_packed(
    st: &PrimState,
    m: PrimMethod,
    off: u32,
    width: u32,
    dst: &mut [u64],
    dst_bit: usize,
) -> ExecResult<()> {
    match (st, m) {
        (PrimState::Source { queue }, PrimMethod::First) => {
            let v = queue.front().ok_or(ExecError::GuardFail)?;
            v.write_flat_span(off, width, dst, dst_bit);
            Ok(())
        }
        (st, m) => Err(value_unsupported(m, st.kind_name())),
    }
}

/// A sink `enq` from packed bits: decodes the one [`Value`] the sink
/// stores, through the sink's element layout.
pub(crate) fn dyn_action_packed(
    st: &mut PrimState,
    p: &FlatPrim,
    m: PrimMethod,
    src: &[u64],
    src_bit: usize,
) -> ExecResult<()> {
    match (st, m) {
        (PrimState::Sink { consumed }, PrimMethod::Enq) => {
            consumed.push(Value::read_flat(&p.layout, src, src_bit));
            Ok(())
        }
        (st, m) => Err(action_unsupported(m, st.kind_name())),
    }
}

/// The front wire words of a flat FIFO, written into `out` without
/// decoding to a `Value`: the hot path of transactor arbitration.
/// `false` when the FIFO is empty.
pub(crate) fn fifo_front_wire(
    p: &FlatPrim,
    block: &[u64],
    spill: &VecDeque<Value>,
    out: &mut Vec<u32>,
) -> bool {
    let (head, len) = fifo_geom(block);
    if len > 0 {
        let at = 2 + head * p.lane;
        flat_to_wire_in(&block[at..at + p.lane], p.layout.width, out);
        true
    } else if let Some(v) = spill.front() {
        out.clear();
        out.extend_from_slice(&v.to_words());
        true
    } else {
        false
    }
}
