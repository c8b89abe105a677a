//! # bcl-core — Kernel BCL: a hardware/software codesign language runtime
//!
//! A from-scratch reproduction of the Bluespec Codesign Language (BCL) of
//! *King, Dave, Arvind — "Automatic Generation of Hardware/Software
//! Interfaces", ASPLOS 2012*. BCL describes a whole embedded design — both
//! the parts destined for hardware and the low-level software that drives
//! them — as one program of **guarded atomic actions** (rules) over
//! explicitly declared state, and lets the designer place the HW/SW cut by
//! inserting **synchronizers**; the compiler then generates both sides and
//! the interface between them.
//!
//! ## Pipeline
//!
//! 1. Build a [`program::Program`] — via [`builder::ModuleBuilder`] and the
//!    [`builder::dsl`] combinators, or by parsing textual BCL with the
//!    `bcl-frontend` crate.
//! 2. [`elab::elaborate`] flattens the module hierarchy into a
//!    [`design::Design`]: primitive state elements plus rules.
//! 3. [`domain::infer_domains`] type-checks computational domains;
//!    [`partition::partition`] splits the design at its synchronizers into
//!    per-domain partitions plus [`partition::ChannelSpec`]s.
//! 4. Software partitions execute on [`sched::SwRunner`] — an optimizing
//!    runtime with guard lifting ([`xform`]), shadow state and
//!    commit/rollback ([`store`]), and pluggable scheduling strategies.
//!    Hardware partitions execute on [`sched::HwSim`], a cycle-accurate
//!    BSV-style synchronous scheduler. The `bcl-platform` crate connects
//!    them through generated transactors over a modeled bus.
//!
//! ## Example
//!
//! ```
//! use bcl_core::builder::{dsl::*, ModuleBuilder};
//! use bcl_core::program::Program;
//! use bcl_core::sched::{SwOptions, SwRunner};
//! use bcl_core::value::Value;
//!
//! let mut m = ModuleBuilder::new("Gcd");
//! m.reg("x", Value::int(32, 105));
//! m.reg("y", Value::int(32, 45));
//! m.rule(
//!     "swap",
//!     when_a(
//!         and(gt(read("x"), read("y")), ne(read("y"), cint(32, 0))),
//!         par(vec![write("x", read("y")), write("y", read("x"))]),
//!     ),
//! );
//! m.rule(
//!     "subtract",
//!     when_a(
//!         and(le(read("x"), read("y")), ne(read("y"), cint(32, 0))),
//!         write("y", sub_e(read("y"), read("x"))),
//!     ),
//! );
//! let design = bcl_core::elab::elaborate(&Program::with_root(m.build())).unwrap();
//! let mut runner = SwRunner::new(&design, SwOptions::default()).unwrap();
//! runner.run_until_quiescent(1_000).unwrap();
//! let x = design.prim_id("x").unwrap();
//! assert_eq!(
//!     runner.store.state(x).call_value(bcl_core::ast::PrimMethod::RegRead, &[]).unwrap(),
//!     Value::int(32, 15),
//! );
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builder;
pub mod codec;
pub mod compile;
pub mod design;
pub mod domain;
pub mod elab;
pub mod error;
pub mod exec;
mod flat;
pub mod partition;
pub mod prim;
pub mod program;
pub mod sched;
pub mod store;
pub mod types;
pub mod value;
pub mod xform;

pub use analysis::validate;
pub use ast::{Action, Expr, Path, PrimId, PrimMethod, RuleDef, Target};
pub use codec::{ByteReader, ByteWriter, CodecError, CodecResult};
pub use design::Design;
pub use elab::elaborate;
pub use error::{DomainError, ElabError, ExecError, ExecResult, ValidateError};
pub use program::{ModuleDef, Program};
pub use store::{Cost, ShadowPolicy, Store};
pub use types::Type;
pub use value::{BinOp, UnOp, Value};
