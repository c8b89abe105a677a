//! The BCL type language.
//!
//! BCL is statically typed and every type has a fixed bit width, which is
//! what makes automatic marshaling across the HW/SW boundary possible
//! (§2.3 of the paper: "Data Format Issues"). The compiler — not the user —
//! owns the bit-level layout, so hardware and software always agree on it.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A BCL type. All types are finite and have a known bit width.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// Boolean, 1 bit.
    Bool,
    /// Unsigned bit vector of the given width (`Bit#(n)` in BSV).
    Bits(u32),
    /// Signed two's-complement integer of the given width (`Int#(n)`).
    Int(u32),
    /// Homogeneous vector of `len` elements (`Vector#(len, t)`).
    Vector(usize, Box<Type>),
    /// Record with named fields, laid out first-field-at-MSB like BSV structs.
    Struct(Vec<(String, Type)>),
}

impl Type {
    /// Fixed-point number: 32-bit signed with 24 fractional bits, as used by
    /// the paper's Vorbis evaluation ("32-bit fixed point values with 24-bits
    /// of fractional precision").
    pub fn fixpt() -> Type {
        Type::Int(32)
    }

    /// Complex number over the given component type: `struct {re, im}`.
    pub fn complex(component: Type) -> Type {
        Type::Struct(vec![
            ("re".to_string(), component.clone()),
            ("im".to_string(), component),
        ])
    }

    /// A vector type of `len` elements.
    pub fn vector(len: usize, elem: Type) -> Type {
        Type::Vector(len, Box::new(elem))
    }

    /// The bit width of this type: the number of bits a value of this type
    /// occupies when marshaled.
    pub fn width(&self) -> u32 {
        match self {
            Type::Bool => 1,
            Type::Bits(w) | Type::Int(w) => *w,
            Type::Vector(n, t) => (*n as u32) * t.width(),
            Type::Struct(fields) => fields.iter().map(|(_, t)| t.width()).sum(),
        }
    }

    /// The number of 32-bit words needed to marshal a value of this type
    /// (the transactor granularity of §4.4).
    pub fn words(&self) -> usize {
        self.width().div_ceil(32) as usize
    }

    /// Looks up a struct field, returning `(offset_in_fields, type)`.
    pub fn field(&self, name: &str) -> Option<(usize, &Type)> {
        match self {
            Type::Struct(fields) => fields
                .iter()
                .enumerate()
                .find(|(_, (n, _))| n == name)
                .map(|(i, (_, t))| (i, t)),
            _ => None,
        }
    }

    /// The element type of a vector.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Vector(_, t) => Some(t),
            _ => None,
        }
    }

    /// True if this is a scalar (non-aggregate) type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Bool | Type::Bits(_) | Type::Int(_))
    }
}

/// Compiled bit-level layout of a [`Type`] — the arena-store counterpart
/// of the wire format. Every leaf's bit offset is fixed when the layout is
/// compiled, so flat reads and writes are pointer-free integer operations
/// over bit-packed 64-bit words (ROADMAP "Arena-flatten the store").
///
/// The packing is dense and LSB-first, bit-for-bit identical to the
/// transactor wire marshaling of [`crate::value::Value::to_words`]: a value
/// occupies exactly `width` bits, vector element `i` starts `i * stride`
/// bits in, and struct fields follow declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Total bit width; equals [`Type::width`] of the compiled type.
    pub width: u32,
    /// Shape-specific layout.
    pub kind: LayoutKind,
}

/// Shape of a [`Layout`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutKind {
    /// 1-bit boolean.
    Bool,
    /// Unsigned bit vector of the given width.
    Bits(u32),
    /// Signed two's-complement integer of the given width.
    Int(u32),
    /// Dense homogeneous vector: element `i` starts at bit `i * stride`.
    Vector {
        /// Element count.
        len: usize,
        /// Bit stride between consecutive elements (the element width).
        stride: u32,
        /// Element layout, shared so a sub-layout can be handed out
        /// without a deep copy.
        elem: Arc<Layout>,
    },
    /// Record: fields at precomputed bit offsets, declaration order.
    Struct {
        /// Per-field layouts with their bit offsets from the struct start.
        fields: Vec<FieldLayout>,
    },
}

/// One field of a [`LayoutKind::Struct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Bit offset from the start of the struct.
    pub offset: u32,
    /// The field's own layout (shared, like a vector's element).
    pub layout: Arc<Layout>,
}

impl Layout {
    /// Compiles the flat layout of a type.
    pub fn of(ty: &Type) -> Layout {
        match ty {
            Type::Bool => Layout {
                width: 1,
                kind: LayoutKind::Bool,
            },
            Type::Bits(w) => Layout {
                width: *w,
                kind: LayoutKind::Bits(*w),
            },
            Type::Int(w) => Layout {
                width: *w,
                kind: LayoutKind::Int(*w),
            },
            Type::Vector(n, t) => {
                let elem = Layout::of(t);
                let stride = elem.width;
                Layout {
                    width: (*n as u32) * stride,
                    kind: LayoutKind::Vector {
                        len: *n,
                        stride,
                        elem: Arc::new(elem),
                    },
                }
            }
            Type::Struct(fs) => {
                let mut offset = 0u32;
                let fields: Vec<FieldLayout> = fs
                    .iter()
                    .map(|(name, t)| {
                        let layout = Arc::new(Layout::of(t));
                        let f = FieldLayout {
                            name: name.clone(),
                            offset,
                            layout,
                        };
                        offset += f.layout.width;
                        f
                    })
                    .collect();
                Layout {
                    width: offset,
                    kind: LayoutKind::Struct { fields },
                }
            }
        }
    }

    /// The number of 64-bit arena words needed to hold one value of this
    /// layout. Unlike the 32-bit wire format ([`Type::words`] padded with
    /// [`crate::value::Value::to_words`]'s minimum of one), a zero-width
    /// layout genuinely occupies zero arena words.
    pub fn words64(&self) -> usize {
        (self.width as usize).div_ceil(64)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "Bool"),
            Type::Bits(w) => write!(f, "Bit#({w})"),
            Type::Int(w) => write!(f, "Int#({w})"),
            Type::Vector(n, t) => write!(f, "Vector#({n}, {t})"),
            Type::Struct(fields) => {
                write!(f, "struct {{")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t}")?;
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
    fn scalar_widths() {
        assert_eq!(Type::Bool.width(), 1);
        assert_eq!(Type::Bits(17).width(), 17);
        assert_eq!(Type::Int(32).width(), 32);
        assert_eq!(Type::fixpt().width(), 32);
    }

    #[test]
    fn aggregate_widths() {
        let cplx = Type::complex(Type::fixpt());
        assert_eq!(cplx.width(), 64);
        let frame = Type::vector(64, cplx.clone());
        assert_eq!(frame.width(), 64 * 64);
        assert_eq!(frame.words(), 128);
        let s = Type::Struct(vec![("a".into(), Type::Bool), ("b".into(), Type::Bits(7))]);
        assert_eq!(s.width(), 8);
        assert_eq!(s.words(), 1);
    }

    #[test]
    fn word_count_rounds_up() {
        assert_eq!(Type::Bits(1).words(), 1);
        assert_eq!(Type::Bits(32).words(), 1);
        assert_eq!(Type::Bits(33).words(), 2);
        assert_eq!(Type::Bits(64).words(), 2);
    }

    #[test]
    fn field_lookup() {
        let cplx = Type::complex(Type::Int(16));
        let (idx, t) = cplx.field("im").expect("has im");
        assert_eq!(idx, 1);
        assert_eq!(*t, Type::Int(16));
        assert!(cplx.field("zz").is_none());
        assert!(Type::Bool.field("re").is_none());
    }

    #[test]
    fn elem_lookup() {
        let v = Type::vector(4, Type::Bool);
        assert_eq!(v.elem(), Some(&Type::Bool));
        assert_eq!(Type::Bool.elem(), None);
    }

    #[test]
    fn layout_offsets_are_dense() {
        let cplx = Type::complex(Type::Int(16));
        let lay = Layout::of(&Type::vector(3, cplx));
        assert_eq!(lay.width, 3 * 32);
        assert_eq!(lay.words64(), 2);
        let LayoutKind::Vector { len, stride, elem } = &lay.kind else {
            panic!("expected vector layout");
        };
        assert_eq!((*len, *stride), (3, 32));
        let LayoutKind::Struct { fields } = &elem.kind else {
            panic!("expected struct layout");
        };
        assert_eq!(fields[0].offset, 0);
        assert_eq!(fields[1].offset, 16);
        assert_eq!(fields[1].name, "im");
        // Zero-width layouts occupy no arena words.
        assert_eq!(Layout::of(&Type::Bits(0)).words64(), 0);
        assert_eq!(Layout::of(&Type::Bits(64)).words64(), 1);
        assert_eq!(Layout::of(&Type::Bits(65)).words64(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Type::vector(4, Type::Bits(8)).to_string(),
            "Vector#(4, Bit#(8))"
        );
        assert_eq!(
            Type::complex(Type::Int(32)).to_string(),
            "struct {re: Int#(32), im: Int#(32)}"
        );
    }
}
