//! Runtime values and the primitive operations over them.
//!
//! A [`Value`] is the dynamic counterpart of a [`Type`].
//! Values know how to marshal themselves to and from 32-bit words — this is
//! the single, compiler-owned bit-level layout that both the hardware and
//! software partitions share (§2.3 / §4.4 of the paper).

use crate::error::{ExecError, ExecResult};
use crate::types::{Layout, LayoutKind, Type};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An unsigned bit vector; `bits` is truncated to `width` bits.
    Bits {
        /// Bit width.
        width: u32,
        /// The bits, truncated to `width`.
        bits: u64,
    },
    /// A signed two's-complement integer; `val` is sign-extended from `width`.
    Int {
        /// Bit width.
        width: u32,
        /// The value, sign-extended from `width` bits.
        val: i64,
    },
    /// A homogeneous vector.
    Vec(Vec<Value>),
    /// A record; field order is the layout order.
    Struct(Vec<(String, Value)>),
}

/// Unary operators of the kernel expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Inv,
}

/// Binary operators of the kernel expression language.
///
/// `FixMul(f)` is fixed-point multiplication with `f` fractional bits:
/// `(a * b) >> f` computed in 128-bit intermediate precision. The paper's
/// Vorbis evaluation uses 32-bit values with 24 fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Fixed-point multiply with the given number of fractional bits.
    FixMul(u32),
    /// Fixed-point divide with the given number of fractional bits:
    /// `(a << f) / b` in 128-bit intermediate precision. Division by zero
    /// is an error.
    FixDiv(u32),
    /// Signed division (round toward zero). Division by zero is an error.
    Div,
    /// Remainder. Division by zero is an error.
    Rem,
    /// Bitwise (or boolean) and.
    And,
    /// Bitwise (or boolean) or.
    Or,
    /// Bitwise (or boolean) xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Minimum of two integers.
    Min,
    /// Maximum of two integers.
    Max,
}

impl BinOp {
    /// True for comparison operators (result type Bool).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// A rough per-operation cost in CPU cycles, used by the software cost
    /// model (§6.3): multiplies and divides are more expensive than simple
    /// ALU operations.
    pub fn cpu_cost(self) -> u64 {
        match self {
            BinOp::Mul | BinOp::FixMul(_) => 3,
            BinOp::Div | BinOp::Rem | BinOp::FixDiv(_) => 12,
            _ => 1,
        }
    }
}

pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

pub(crate) fn sign_extend(width: u32, bits: u64) -> i64 {
    if width == 0 || width >= 64 {
        return bits as i64;
    }
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

impl Value {
    /// The canonical `false`/`true` values.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// An unsigned bit vector, truncating `bits` to `width`.
    pub fn bits(width: u32, bits: u64) -> Value {
        Value::Bits {
            width,
            bits: bits & mask(width),
        }
    }

    /// A signed integer, wrapping `val` into `width` bits.
    pub fn int(width: u32, val: i64) -> Value {
        Value::Int {
            width,
            val: sign_extend(width, (val as u64) & mask(width)),
        }
    }

    /// A 32-bit fixed-point value from a float, with `frac` fractional bits.
    pub fn fix_from_f64(x: f64, frac: u32) -> Value {
        Value::int(32, (x * (1i64 << frac) as f64).round() as i64)
    }

    /// Converts a fixed-point value back to a float (for testing/inspection).
    pub fn fix_to_f64(&self, frac: u32) -> ExecResult<f64> {
        Ok(self.as_int()? as f64 / (1i64 << frac) as f64)
    }

    /// A complex value over two components.
    pub fn complex(re: Value, im: Value) -> Value {
        Value::Struct(vec![("re".into(), re), ("im".into(), im)])
    }

    /// The default (zero) value of a type.
    pub fn zero(ty: &Type) -> Value {
        match ty {
            Type::Bool => Value::Bool(false),
            Type::Bits(w) => Value::Bits { width: *w, bits: 0 },
            Type::Int(w) => Value::Int { width: *w, val: 0 },
            Type::Vector(n, t) => Value::Vec(vec![Value::zero(t); *n]),
            Type::Struct(fs) => Value::Struct(
                fs.iter()
                    .map(|(n, t)| (n.clone(), Value::zero(t)))
                    .collect(),
            ),
        }
    }

    /// The type of this value.
    pub fn type_of(&self) -> Type {
        match self {
            Value::Bool(_) => Type::Bool,
            Value::Bits { width, .. } => Type::Bits(*width),
            Value::Int { width, .. } => Type::Int(*width),
            Value::Vec(vs) => {
                let elem = vs.first().map(|v| v.type_of()).unwrap_or(Type::Bits(0));
                Type::Vector(vs.len(), Box::new(elem))
            }
            Value::Struct(fs) => {
                Type::Struct(fs.iter().map(|(n, v)| (n.clone(), v.type_of())).collect())
            }
        }
    }

    /// Extracts a boolean, or a type error.
    pub fn as_bool(&self) -> ExecResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ExecError::Type(format!("expected Bool, got {other}"))),
        }
    }

    /// Extracts a signed integer view of any scalar.
    pub fn as_int(&self) -> ExecResult<i64> {
        match self {
            Value::Int { val, .. } => Ok(*val),
            Value::Bits { bits, .. } => Ok(*bits as i64),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(ExecError::Type(format!("expected scalar, got {other}"))),
        }
    }

    /// Extracts an unsigned index (for vector / register-file addressing).
    pub fn as_index(&self) -> ExecResult<usize> {
        let i = self.as_int()?;
        usize::try_from(i).map_err(|_| ExecError::Bounds(format!("negative index {i}")))
    }

    /// Borrows the elements of a vector value.
    pub fn as_vec(&self) -> ExecResult<&[Value]> {
        match self {
            Value::Vec(vs) => Ok(vs),
            other => Err(ExecError::Type(format!("expected Vector, got {other}"))),
        }
    }

    /// Borrows a struct field by name.
    pub fn field(&self, name: &str) -> ExecResult<&Value> {
        match self {
            Value::Struct(fs) => fs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .ok_or_else(|| ExecError::Type(format!("no field `{name}`"))),
            other => Err(ExecError::Type(format!("expected struct, got {other}"))),
        }
    }

    /// Indexes a vector value.
    pub fn index(&self, i: usize) -> ExecResult<&Value> {
        let vs = self.as_vec()?;
        vs.get(i)
            .ok_or_else(|| ExecError::Bounds(format!("index {i} out of {}", vs.len())))
    }

    /// Returns a copy of this vector with element `i` replaced.
    pub fn update_index(&self, i: usize, v: Value) -> ExecResult<Value> {
        let vs = self.as_vec()?;
        if i >= vs.len() {
            return Err(ExecError::Bounds(format!("index {i} out of {}", vs.len())));
        }
        let mut out = vs.to_vec();
        out[i] = v;
        Ok(Value::Vec(out))
    }

    /// Returns a copy of this struct with field `name` replaced.
    pub fn update_field(&self, name: &str, v: Value) -> ExecResult<Value> {
        match self {
            Value::Struct(fs) => {
                let mut out = fs.clone();
                let slot = out
                    .iter_mut()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| ExecError::Type(format!("no field `{name}`")))?;
                slot.1 = v;
                Ok(Value::Struct(out))
            }
            other => Err(ExecError::Type(format!("expected struct, got {other}"))),
        }
    }

    /// Applies a unary operator.
    pub fn un_op(op: UnOp, a: &Value) -> ExecResult<Value> {
        match (op, a) {
            (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
            (UnOp::Neg, Value::Int { width, val }) => Ok(Value::int(*width, val.wrapping_neg())),
            (UnOp::Neg, Value::Bits { width, bits }) => {
                Ok(Value::bits(*width, (bits.wrapping_neg()) & mask(*width)))
            }
            (UnOp::Inv, Value::Bits { width, bits }) => Ok(Value::bits(*width, !bits)),
            (UnOp::Inv, Value::Int { width, val }) => Ok(Value::int(*width, !val)),
            (op, a) => Err(ExecError::Type(format!("cannot apply {op:?} to {a}"))),
        }
    }

    /// Applies a binary operator. Comparison operators yield `Bool`; all
    /// arithmetic wraps at the left operand's width (hardware semantics).
    ///
    /// # Errors
    ///
    /// Returns a type error for mismatched operand shapes, and a
    /// `Malformed` error for division by zero.
    pub fn bin_op(op: BinOp, a: &Value, b: &Value) -> ExecResult<Value> {
        use BinOp::*;
        // Boolean logic.
        if let (Value::Bool(x), Value::Bool(y)) = (a, b) {
            return match op {
                And => Ok(Value::Bool(*x && *y)),
                Or => Ok(Value::Bool(*x || *y)),
                Xor => Ok(Value::Bool(*x ^ *y)),
                Eq => Ok(Value::Bool(x == y)),
                Ne => Ok(Value::Bool(x != y)),
                _ => Err(ExecError::Type(format!("cannot apply {op:?} to Bool"))),
            };
        }
        // Structural equality on aggregates.
        if matches!(a, Value::Vec(_) | Value::Struct(_)) {
            return match op {
                Eq => Ok(Value::Bool(a == b)),
                Ne => Ok(Value::Bool(a != b)),
                _ => Err(ExecError::Type(format!("cannot apply {op:?} to aggregate"))),
            };
        }
        let (x, y) = (a.as_int()?, b.as_int()?);
        if op.is_comparison() {
            let r = match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            };
            return Ok(Value::Bool(r));
        }
        let width = match a {
            Value::Int { width, .. } | Value::Bits { width, .. } => *width,
            _ => 64,
        };
        let r: i64 = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            FixMul(f) => {
                let wide = (x as i128) * (y as i128);
                (wide >> f) as i64
            }
            FixDiv(f) => {
                if y == 0 {
                    return Err(ExecError::Malformed("fixed-point division by zero".into()));
                }
                (((x as i128) << f) / (y as i128)) as i64
            }
            Div => {
                if y == 0 {
                    return Err(ExecError::Malformed("division by zero".into()));
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(ExecError::Malformed("remainder by zero".into()));
                }
                x.wrapping_rem(y)
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32 & 63),
            Shr => x.wrapping_shr(y as u32 & 63),
            Min => x.min(y),
            Max => x.max(y),
            _ => unreachable!(),
        };
        match a {
            Value::Bits { .. } => Ok(Value::bits(width, r as u64)),
            _ => Ok(Value::int(width, r)),
        }
    }

    /// Marshals this value into a little-endian bit stream packed in 32-bit
    /// words, exactly `self.type_of().words()` long. This is the transactor
    /// wire format (§4.4): field/element order, LSB-first within a word.
    pub fn to_words(&self) -> Vec<u32> {
        let mut bits: Vec<bool> = Vec::with_capacity(self.type_of().width() as usize);
        self.collect_bits(&mut bits);
        let mut words = vec![0u32; bits.len().div_ceil(32).max(1)];
        for (i, b) in bits.iter().enumerate() {
            if *b {
                words[i / 32] |= 1 << (i % 32);
            }
        }
        words
    }

    fn collect_bits(&self, out: &mut Vec<bool>) {
        match self {
            Value::Bool(b) => out.push(*b),
            Value::Bits { width, bits } => {
                for i in 0..*width {
                    out.push((bits >> i) & 1 == 1);
                }
            }
            Value::Int { width, val } => {
                let bits = (*val as u64) & mask(*width);
                for i in 0..*width {
                    out.push((bits >> i) & 1 == 1);
                }
            }
            Value::Vec(vs) => {
                for v in vs {
                    v.collect_bits(out);
                }
            }
            Value::Struct(fs) => {
                for (_, v) in fs {
                    v.collect_bits(out);
                }
            }
        }
    }

    /// Demarshals a value of type `ty` from a word stream produced by
    /// [`Value::to_words`].
    ///
    /// # Errors
    ///
    /// Returns a type error if the stream is too short.
    pub fn from_words(ty: &Type, words: &[u32]) -> ExecResult<Value> {
        let need = ty.width() as usize;
        let avail = words.len() * 32;
        if avail < need {
            return Err(ExecError::Type(format!(
                "word stream too short: need {need} bits, have {avail}"
            )));
        }
        let mut pos = 0usize;
        Self::read_bits(ty, words, &mut pos)
    }

    fn read_bits(ty: &Type, words: &[u32], pos: &mut usize) -> ExecResult<Value> {
        let mut take = |n: u32| -> u64 {
            let mut v = 0u64;
            for i in 0..n {
                let p = *pos + i as usize;
                if (words[p / 32] >> (p % 32)) & 1 == 1 {
                    v |= 1 << i;
                }
            }
            *pos += n as usize;
            v
        };
        Ok(match ty {
            Type::Bool => Value::Bool(take(1) == 1),
            Type::Bits(w) => Value::bits(*w, take(*w)),
            Type::Int(w) => {
                let raw = take(*w);
                Value::Int {
                    width: *w,
                    val: sign_extend(*w, raw),
                }
            }
            Type::Vector(n, t) => {
                let mut vs = Vec::with_capacity(*n);
                for _ in 0..*n {
                    vs.push(Self::read_bits(t, words, pos)?);
                }
                Value::Vec(vs)
            }
            Type::Struct(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for (n, t) in fs {
                    out.push((n.clone(), Self::read_bits(t, words, pos)?));
                }
                Value::Struct(out)
            }
        })
    }

    // ---- flat (arena) representation ------------------------------------

    /// Writes this value's dense bit packing into `words` (bit-packed
    /// 64-bit words) starting at bit `offset`, returning the number of
    /// bits written. The packing is bit-identical to the wire stream of
    /// [`Value::to_words`]; only the word granularity differs.
    ///
    /// Bits that would land past the end of `words` are dropped rather
    /// than panicking (that only happens for values wider than the slot
    /// they are written into, i.e. ill-typed programs).
    pub fn write_flat(&self, words: &mut [u64], offset: usize) -> usize {
        match self {
            Value::Bool(b) => {
                put_bits(words, offset, 1, *b as u64);
                1
            }
            Value::Bits { width, bits } => {
                put_bits(words, offset, *width, *bits);
                *width as usize
            }
            Value::Int { width, val } => {
                put_bits(words, offset, *width, *val as u64);
                *width as usize
            }
            Value::Vec(vs) => {
                let mut at = offset;
                for v in vs {
                    at += v.write_flat(words, at);
                }
                at - offset
            }
            Value::Struct(fs) => {
                let mut at = offset;
                for (_, v) in fs {
                    at += v.write_flat(words, at);
                }
                at - offset
            }
        }
    }

    /// Writes the `width` bits at bit `off` of this value's
    /// [`Value::write_flat`] packing into `dst` at bit `dst_bit`, without
    /// packing the rest of the value or allocating: how a boxed
    /// primitive's element (a source's head) is read field by field.
    /// Bits past the value's own width read as zero.
    pub(crate) fn write_flat_span(&self, off: u32, width: u32, dst: &mut [u64], dst_bit: usize) {
        fn walk(v: &Value, pos: &mut usize, lo: usize, hi: usize, dst: &mut [u64], at: usize) {
            if *pos >= hi {
                return;
            }
            let (w, bits) = match v {
                Value::Vec(vs) => {
                    for x in vs {
                        walk(x, pos, lo, hi, dst, at);
                    }
                    return;
                }
                Value::Struct(fs) => {
                    for (_, x) in fs {
                        walk(x, pos, lo, hi, dst, at);
                    }
                    return;
                }
                Value::Bool(b) => (1, *b as u64),
                Value::Bits { width, bits } => (*width as usize, *bits),
                Value::Int { width, val } => (*width as usize, *val as u64),
            };
            let (start, end) = (*pos, *pos + w);
            *pos = end;
            let (a, b) = (start.max(lo), end.min(hi));
            if a < b {
                let chunk = bits.checked_shr((a - start) as u32).unwrap_or(0);
                put_bits(dst, at + (a - lo), (b - a) as u32, chunk);
            }
        }
        copy_bits(&[], 0, dst, dst_bit, width);
        let lo = off as usize;
        walk(self, &mut 0, lo, lo + width as usize, dst, dst_bit);
    }

    /// Reads a value of the given [`Layout`] out of bit-packed 64-bit
    /// words starting at bit `offset`. The inverse of [`Value::write_flat`]
    /// for well-typed values; integers come back canonically sign-extended
    /// exactly as [`Value::from_words`] produces them.
    pub fn read_flat(layout: &Layout, words: &[u64], offset: usize) -> Value {
        match &layout.kind {
            LayoutKind::Bool => Value::Bool(get_bits(words, offset, 1) == 1),
            LayoutKind::Bits(w) => Value::bits(*w, get_bits(words, offset, *w)),
            LayoutKind::Int(w) => Value::Int {
                width: *w,
                val: sign_extend(*w, get_bits(words, offset, *w)),
            },
            LayoutKind::Vector { len, stride, elem } => {
                let stride = *stride as usize;
                // Leaf-element vectors (the common payload shape) decode
                // in a flat loop; only aggregate elements recurse.
                match &elem.kind {
                    LayoutKind::Int(w) => Value::Vec(
                        (0..*len)
                            .map(|i| Value::Int {
                                width: *w,
                                val: sign_extend(*w, get_bits(words, offset + i * stride, *w)),
                            })
                            .collect(),
                    ),
                    LayoutKind::Bits(w) => Value::Vec(
                        (0..*len)
                            .map(|i| Value::bits(*w, get_bits(words, offset + i * stride, *w)))
                            .collect(),
                    ),
                    _ => Value::Vec(
                        (0..*len)
                            .map(|i| Value::read_flat(elem, words, offset + i * stride))
                            .collect(),
                    ),
                }
            }
            LayoutKind::Struct { fields } => Value::Struct(
                fields
                    .iter()
                    .map(|f| {
                        let at = offset + f.offset as usize;
                        // Leaf fields decode inline; aggregates recurse.
                        let v = match &f.layout.kind {
                            LayoutKind::Bool => Value::Bool(get_bits(words, at, 1) == 1),
                            LayoutKind::Bits(w) => Value::bits(*w, get_bits(words, at, *w)),
                            LayoutKind::Int(w) => Value::Int {
                                width: *w,
                                val: sign_extend(*w, get_bits(words, at, *w)),
                            },
                            _ => Value::read_flat(&f.layout, words, at),
                        };
                        (f.name.clone(), v)
                    })
                    .collect(),
            ),
        }
    }
}

/// Writes the low `width` bits of `v` into the bit-packed `words` at bit
/// `offset` (LSB-first), clearing what was there. Bits of `v` beyond the
/// destination width are ignored; destination bits past `width` are left
/// untouched. Writes that would run past `words` are silently truncated.
#[inline]
pub fn put_bits(words: &mut [u64], offset: usize, width: u32, v: u64) {
    let w = width as usize;
    let bit = offset % 64;
    // Fast path mirror of [`get_bits`]: the write lands in one word.
    if bit + w <= 64 {
        if let Some(x) = words.get_mut(offset / 64) {
            let lo = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            *x = (*x & !(lo << bit)) | ((v & lo) << bit);
        }
        return;
    }
    put_bits_spanning(words, offset, w, v)
}

/// Cross-word tail of [`put_bits`].
#[cold]
fn put_bits_spanning(words: &mut [u64], offset: usize, w: usize, v: u64) {
    let mut at = offset;
    let mut src = 0usize;
    let mut remaining = w;
    while remaining > 0 {
        let word = at / 64;
        if word >= words.len() {
            return;
        }
        let bit = at % 64;
        let n = (64 - bit).min(remaining);
        let chunk = if src >= 64 {
            0
        } else {
            let raw = v >> src;
            if n >= 64 {
                raw
            } else {
                raw & ((1u64 << n) - 1)
            }
        };
        let m = if n >= 64 {
            u64::MAX
        } else {
            ((1u64 << n) - 1) << bit
        };
        words[word] = (words[word] & !m) | (chunk << bit);
        at += n;
        src += n;
        remaining -= n;
    }
}

/// Reads the `width` bits at bit `offset` from the bit-packed `words`
/// (LSB-first). Only the first 64 bits contribute (wider layouts are never
/// produced by the frontend); reads past the end of `words` yield zeros.
#[inline]
pub fn get_bits(words: &[u64], offset: usize, width: u32) -> u64 {
    let w = (width as usize).min(64);
    let bit = offset % 64;
    // Fast path: the read fits inside one word (every leaf of a layout
    // whose fields are word-aligned or narrower than the tail of its
    // word — the overwhelmingly common case on the guard-probe path).
    if bit + w <= 64 {
        let Some(&x) = words.get(offset / 64) else {
            return 0;
        };
        return if w == 64 {
            x
        } else {
            (x >> bit) & ((1u64 << w) - 1)
        };
    }
    get_bits_spanning(words, offset, w)
}

/// Cross-word tail of [`get_bits`], kept out of line so the fast path
/// inlines well.
#[cold]
fn get_bits_spanning(words: &[u64], offset: usize, w: usize) -> u64 {
    let mut out = 0u64;
    let mut at = offset;
    let mut got = 0usize;
    let mut remaining = w;
    while remaining > 0 {
        let word = at / 64;
        if word >= words.len() {
            break;
        }
        let bit = at % 64;
        let n = (64 - bit).min(remaining);
        let raw = if n >= 64 {
            words[word]
        } else {
            (words[word] >> bit) & ((1u64 << n) - 1)
        };
        out |= raw << got;
        at += n;
        got += n;
        remaining -= n;
    }
    out
}

/// Copies `width` bits from `src` (starting at bit `src_bit`) into `dst`
/// (starting at bit `dst_bit`), 64 bits at a time. The word-lowering
/// analogue of `memcpy`: packed aggregates move between the arena, shadow
/// logs, and compiled-frame scratch buffers without ever decoding to a
/// [`Value`]. Bits outside the copied span are left untouched on both
/// sides.
#[inline]
pub fn copy_bits(src: &[u64], src_bit: usize, dst: &mut [u64], dst_bit: usize, width: u32) {
    let w = width as usize;
    let mut done = 0usize;
    while done < w {
        let n = (w - done).min(64) as u32;
        let v = get_bits(src, src_bit + done, n);
        put_bits(dst, dst_bit + done, n, v);
        done += n as usize;
    }
}

/// [`copy_bits`] between two non-overlapping spans of the *same* buffer
/// (compiled-frame scratch moves, e.g. a packed `let` binding feeding a
/// packed method argument).
#[inline]
pub fn copy_bits_within(words: &mut [u64], src_bit: usize, dst_bit: usize, width: u32) {
    let w = width as usize;
    let mut done = 0usize;
    while done < w {
        let n = (w - done).min(64) as u32;
        let v = get_bits(words, src_bit + done, n);
        put_bits(words, dst_bit + done, n, v);
        done += n as usize;
    }
}

/// Converts a bit-packed 64-bit lane of the given bit width into the
/// 32-bit transactor wire format. Byte-identical to calling
/// [`Value::to_words`] on the decoded value (including the minimum length
/// of one word for zero-width types), provided bits past `width` in the
/// lane are zero — which the flat store guarantees.
pub fn flat_to_wire(words: &[u64], width: u32) -> Vec<u32> {
    let mut out = Vec::new();
    flat_to_wire_in(words, width, &mut out);
    out
}

/// [`flat_to_wire`] replacing the contents of `out`, whose capacity the
/// caller reuses.
pub(crate) fn flat_to_wire_in(words: &[u64], width: u32, out: &mut Vec<u32>) {
    let n = (width as usize).div_ceil(32).max(1);
    out.clear();
    out.extend((0..n).map(|i| {
        let src = words.get(i / 2).copied().unwrap_or(0);
        if i % 2 == 0 {
            src as u32
        } else {
            (src >> 32) as u32
        }
    }));
}

/// Copies a 32-bit wire stream into a bit-packed 64-bit lane of the given
/// bit width, masking stream bits past `width` to zero. `lane` must be
/// `width.div_ceil(64)` words long. Bit-identical to demarshaling with
/// [`Value::from_words`] and re-packing with [`Value::write_flat`].
///
/// # Errors
///
/// The same "word stream too short" type error as [`Value::from_words`].
pub fn wire_to_flat(width: u32, wire: &[u32], lane: &mut [u64]) -> ExecResult<()> {
    let need = width as usize;
    let avail = wire.len() * 32;
    if avail < need {
        return Err(ExecError::Type(format!(
            "word stream too short: need {need} bits, have {avail}"
        )));
    }
    for (i, slot) in lane.iter_mut().enumerate() {
        let lo = wire.get(2 * i).copied().unwrap_or(0) as u64;
        let hi = wire.get(2 * i + 1).copied().unwrap_or(0) as u64;
        *slot = lo | (hi << 32);
    }
    let tail = need % 64;
    if tail != 0 {
        if let Some(last) = lane.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
    Ok(())
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bits { width, bits } => write!(f, "{width}'h{bits:x}"),
            Value::Int { val, .. } => write!(f, "{val}"),
            Value::Vec(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Struct(fs) => {
                write!(f, "{{")?;
                for (i, (n, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_wrapping() {
        let v = Value::int(8, 200);
        assert_eq!(v.as_int().unwrap(), -56);
        let v = Value::int(8, -1);
        assert_eq!(v.as_int().unwrap(), -1);
        let v = Value::bits(8, 0x1ff);
        assert_eq!(v.as_int().unwrap(), 0xff);
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let a = Value::int(8, 100);
        let b = Value::int(8, 100);
        let s = Value::bin_op(BinOp::Add, &a, &b).unwrap();
        assert_eq!(s.as_int().unwrap(), -56); // 200 wraps in 8 bits
        let m = Value::bin_op(
            BinOp::Mul,
            &Value::int(32, 1 << 20),
            &Value::int(32, 1 << 20),
        )
        .unwrap();
        assert_eq!(m.as_int().unwrap(), 0); // 2^40 wraps in 32 bits
    }

    #[test]
    fn fixdiv_matches_float() {
        let frac = 16;
        let a = Value::fix_from_f64(3.0, frac);
        let b = Value::fix_from_f64(-1.5, frac);
        let q = Value::bin_op(BinOp::FixDiv(frac), &a, &b).unwrap();
        let got = q.as_int().unwrap() as f64 / (1 << frac) as f64;
        assert!((got + 2.0).abs() < 1e-4, "got {got}");
        let z = Value::int(32, 0);
        assert!(Value::bin_op(BinOp::FixDiv(frac), &a, &z).is_err());
    }

    #[test]
    fn fixmul_matches_float() {
        let frac = 24;
        let a = Value::fix_from_f64(1.5, frac);
        let b = Value::fix_from_f64(-2.25, frac);
        let p = Value::bin_op(BinOp::FixMul(frac), &a, &b).unwrap();
        let got = p.fix_to_f64(frac).unwrap();
        assert!((got - (-3.375)).abs() < 1e-6, "got {got}");
    }

    #[test]
    fn comparisons_yield_bool() {
        let a = Value::int(32, 3);
        let b = Value::int(32, 5);
        assert_eq!(Value::bin_op(BinOp::Lt, &a, &b).unwrap(), Value::Bool(true));
        assert_eq!(
            Value::bin_op(BinOp::Ge, &a, &b).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(Value::bin_op(BinOp::Eq, &a, &a).unwrap(), Value::Bool(true));
    }

    #[test]
    fn bool_logic() {
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        assert_eq!(
            Value::bin_op(BinOp::And, &t, &f).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(Value::bin_op(BinOp::Or, &t, &f).unwrap(), Value::Bool(true));
        assert_eq!(
            Value::bin_op(BinOp::Xor, &t, &t).unwrap(),
            Value::Bool(false)
        );
        assert!(Value::bin_op(BinOp::Add, &t, &f).is_err());
    }

    #[test]
    fn division_by_zero_is_error() {
        let a = Value::int(32, 7);
        let z = Value::int(32, 0);
        assert!(Value::bin_op(BinOp::Div, &a, &z).is_err());
        assert!(Value::bin_op(BinOp::Rem, &a, &z).is_err());
    }

    #[test]
    fn aggregate_equality() {
        let v1 = Value::Vec(vec![Value::int(8, 1), Value::int(8, 2)]);
        let v2 = Value::Vec(vec![Value::int(8, 1), Value::int(8, 2)]);
        assert_eq!(
            Value::bin_op(BinOp::Eq, &v1, &v2).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::bin_op(BinOp::Add, &v1, &v2).is_err());
    }

    #[test]
    fn zero_of_type() {
        let ty = Type::vector(3, Type::complex(Type::fixpt()));
        let z = Value::zero(&ty);
        assert_eq!(z.type_of(), ty);
        assert_eq!(
            z.index(2).unwrap().field("im").unwrap().as_int().unwrap(),
            0
        );
    }

    #[test]
    fn update_ops() {
        let v = Value::Vec(vec![Value::int(8, 1), Value::int(8, 2)]);
        let v2 = v.update_index(1, Value::int(8, 9)).unwrap();
        assert_eq!(v2.index(1).unwrap().as_int().unwrap(), 9);
        assert!(v.update_index(5, Value::int(8, 0)).is_err());
        let s = Value::complex(Value::int(8, 1), Value::int(8, 2));
        let s2 = s.update_field("re", Value::int(8, 7)).unwrap();
        assert_eq!(s2.field("re").unwrap().as_int().unwrap(), 7);
        assert!(s.update_field("zz", Value::int(8, 0)).is_err());
    }

    #[test]
    fn marshal_roundtrip_scalars() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::bits(17, 0x1abcd),
            Value::int(32, -12345),
            Value::int(5, -16),
        ] {
            let ty = v.type_of();
            let words = v.to_words();
            assert_eq!(words.len(), ty.words());
            let back = Value::from_words(&ty, &words).unwrap();
            assert_eq!(back, v, "roundtrip of {v}");
        }
    }

    #[test]
    fn marshal_roundtrip_aggregates() {
        let v = Value::Vec(vec![
            Value::complex(Value::int(32, -5), Value::int(32, 1 << 20)),
            Value::complex(Value::int(32, 42), Value::int(32, -1)),
        ]);
        let ty = v.type_of();
        assert_eq!(ty.words(), 4);
        let words = v.to_words();
        let back = Value::from_words(&ty, &words).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn marshal_short_stream_is_error() {
        let ty = Type::vector(4, Type::Int(32));
        assert!(Value::from_words(&ty, &[0, 0]).is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            Value::un_op(UnOp::Not, &Value::Bool(true)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Value::un_op(UnOp::Neg, &Value::int(8, 5))
                .unwrap()
                .as_int()
                .unwrap(),
            -5
        );
        assert_eq!(
            Value::un_op(UnOp::Inv, &Value::bits(4, 0b0101)).unwrap(),
            Value::bits(4, 0b1010)
        );
        assert!(Value::un_op(UnOp::Not, &Value::int(8, 0)).is_err());
    }

    #[test]
    fn shifts() {
        let a = Value::bits(16, 0x00f0);
        assert_eq!(
            Value::bin_op(BinOp::Shl, &a, &Value::int(8, 4)).unwrap(),
            Value::bits(16, 0x0f00)
        );
        assert_eq!(
            Value::bin_op(BinOp::Shr, &a, &Value::int(8, 4)).unwrap(),
            Value::bits(16, 0x000f)
        );
    }

    #[test]
    fn flat_roundtrip_matches_wire() {
        let vals = [
            Value::Bool(true),
            Value::bits(1, 1),
            Value::bits(17, 0x1abcd),
            Value::bits(63, (1u64 << 62) | 5),
            Value::bits(64, u64::MAX - 3),
            Value::int(32, -12345),
            Value::int(5, -16),
            Value::Vec(vec![
                Value::complex(Value::int(32, -5), Value::int(32, 1 << 20)),
                Value::complex(Value::int(32, 42), Value::int(32, -1)),
            ]),
            Value::Struct(vec![
                ("a".into(), Value::Bool(true)),
                ("b".into(), Value::bits(7, 0x55)),
                ("c".into(), Value::Vec(vec![Value::int(13, -9); 5])),
            ]),
        ];
        for v in vals {
            let ty = v.type_of();
            let lay = Layout::of(&ty);
            let mut words = vec![0u64; lay.words64()];
            assert_eq!(v.write_flat(&mut words, 0), lay.width as usize);
            // Identity through the flat representation.
            assert_eq!(
                Value::read_flat(&lay, &words, 0),
                v,
                "flat roundtrip of {v}"
            );
            // Bit-identical to the 32-bit wire format.
            assert_eq!(flat_to_wire(&words, lay.width), v.to_words(), "wire of {v}");
            let mut wire = vec![7u32; 9];
            flat_to_wire_in(&words, lay.width, &mut wire);
            assert_eq!(wire, v.to_words(), "reused wire buffer of {v}");
            // And back from the wire into a lane.
            let mut lane = vec![0xfeedu64; lay.words64()];
            wire_to_flat(lay.width, &v.to_words(), &mut lane).unwrap();
            assert_eq!(lane, words, "wire_to_flat of {v}");
        }
    }

    #[test]
    fn flat_unaligned_offsets() {
        // Write at a non-word-aligned offset straddling a word boundary.
        let v = Value::bits(64, 0xdead_beef_cafe_f00d);
        let lay = Layout::of(&v.type_of());
        let mut words = vec![0u64; 3];
        v.write_flat(&mut words, 37);
        assert_eq!(Value::read_flat(&lay, &words, 37), v);
        // Neighboring bits stay untouched.
        assert_eq!(get_bits(&words, 0, 37), 0);
        assert_eq!(get_bits(&words, 101, 27), 0);
        // Overwrite clears stale bits.
        Value::bits(64, 1).write_flat(&mut words, 37);
        assert_eq!(Value::read_flat(&lay, &words, 37), Value::bits(64, 1));
    }

    #[test]
    fn wire_to_flat_short_stream_is_error() {
        let mut lane = [0u64; 2];
        let e = wire_to_flat(128, &[0, 0], &mut lane).unwrap_err();
        assert_eq!(
            e,
            ExecError::Type("word stream too short: need 128 bits, have 64".into())
        );
        // Matches from_words' error text exactly.
        let e2 = Value::from_words(&Type::vector(4, Type::Int(32)), &[0, 0]).unwrap_err();
        assert_eq!(
            e2,
            ExecError::Type("word stream too short: need 128 bits, have 64".into())
        );
    }

    #[test]
    fn min_max() {
        let a = Value::int(32, 3);
        let b = Value::int(32, -5);
        assert_eq!(
            Value::bin_op(BinOp::Min, &a, &b).unwrap().as_int().unwrap(),
            -5
        );
        assert_eq!(
            Value::bin_op(BinOp::Max, &a, &b).unwrap().as_int().unwrap(),
            3
        );
    }
}
