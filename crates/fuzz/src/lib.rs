//! The differential fuzz farm (ROADMAP item 4c).
//!
//! Every equivalence guarantee the workspace ships — fault-free
//! executor agreement, failover/failback identity, checkpoint
//! round-trips — is pinned by hand-written designs (Vorbis, the ray
//! tracer, echo). The paper's claim, though, is about *arbitrary*
//! guarded-atomic-action designs. This crate closes that gap with
//! three pieces:
//!
//! * [`gen`] — proptest strategies over a structured [`gen::DesignSpec`]
//!   that expands into arbitrary well-typed kernel programs (registers,
//!   FIFOs, register files, accumulator rule pairs, fork/join diamonds,
//!   submodule value methods, multi-domain channel assignments), plus
//!   random link-fault/partition-fault/recovery-policy schedules.
//! * [`diff`] — the harness: each generated design runs through the
//!   naive reference interpreter, the compiled backend, the fused
//!   single-process design, and the compiled N-partition co-simulation
//!   under faults; all four value streams must equal the spec's
//!   independently computed gold model, and modeled cycle counts must
//!   be identical where the comparison is meaningful (reference vs.
//!   compiled).
//! * [`shrink`] + [`corpus`] — spec-level minimization of failing
//!   cases (the vendored proptest stub does not shrink) and replay of
//!   checked-in `tests/corpus/*.bcl` regressions through every
//!   executor.
//!
//! The static front door these tests lean on is
//! [`bcl_core::analysis::validate`]: `validate(d).is_ok()` must imply
//! the whole pipeline is panic-free on `d`.

#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::run_case;
pub use gen::{arb_design, arb_faults, DesignSpec, FaultPlan};
pub use shrink::shrink_case;
