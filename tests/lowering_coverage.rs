//! Lowering coverage: on the compiled backend every rule of every
//! shipped partition runs as native closures, none on the interpreter.
//!
//! Lowering is total: a compiled scheduler over a flat store runs every
//! rule native, and a design with a rule that does not lower is refused
//! when the scheduler is built (see `bcl_core::compile`'s "What is
//! rejected"). This pins that the ten Figure 13 partitions and the
//! three-domain variants all build and run compiled, that the backend
//! `Cosim::new` is asked for reaches both sides, and that a compiled
//! co-simulation refuses, by name, a rule that does not lower.

use bcl_core::ast::Expr;
use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::design::Design;
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::ExecBackend;
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, LinkConfig};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{Render, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{Decode, VorbisPartition};

#[test]
fn vorbis_partitions_run_fully_compiled() {
    let frames = frame_stream(1, 3);
    for part in VorbisPartition::ALL.into_iter().chain([VorbisPartition::G]) {
        let app = Decode(part, &frames);
        let build = |b| harness::build(&app, FaultConfig::none(), RecoveryPolicy::Fail, b);
        let cosim = build(ExecBackend::Compiled).unwrap();
        assert_eq!(
            cosim.interpreted_rules(),
            0,
            "Vorbis partition {} has interpreted rules",
            part.label()
        );
        let naive = build(ExecBackend::Naive).unwrap();
        assert!(naive.interpreted_rules() > 0, "the reference interprets");
    }
}

#[test]
fn raytrace_partitions_run_fully_compiled() {
    let bvh = build_bvh(&make_scene(16, 5));
    for part in RtPartition::ALL.into_iter().chain([RtPartition::E]) {
        let cosim = harness::build(
            &Render(part, &bvh, 2, 2),
            FaultConfig::none(),
            RecoveryPolicy::Fail,
            ExecBackend::Compiled,
        )
        .unwrap();
        assert_eq!(
            cosim.interpreted_rules(),
            0,
            "ray tracer partition {} has interpreted rules",
            part.label()
        );
    }
}

/// src(SW) -> toHw -> echo(HW) -> toSw -> snk(SW), where `echo` adds
/// `bias` to every item.
fn echo_design(bias: Expr) -> Design {
    let mut m = ModuleBuilder::new("Echo");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("toHw", 2, Type::Int(32), SW, HW);
    m.channel("toSw", 2, Type::Int(32), HW, SW);
    m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
    m.rule(
        "echo",
        with_first("x", "toHw", enq("toSw", add(var("x"), bias))),
    );
    m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

#[test]
fn cosim_new_runs_the_requested_backend_on_both_sides() {
    let parts = partition(&echo_design(cint(32, 1)), SW).unwrap();
    for backend in [ExecBackend::Compiled, ExecBackend::Naive] {
        let mut cs =
            Cosim::new(&parts, SW, HW, LinkConfig::default(), backend.sw_options()).unwrap();
        let want = if backend.compiled() { 0 } else { 3 };
        assert_eq!(cs.interpreted_rules(), want, "{backend:?}");
        for i in 0..8 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs.run_until(|c| c.sink_count("snk") == 8, 100_000).unwrap();
        assert!(out.is_done(), "{backend:?}: {out:?}");
        // Only event-driven schedulers, software or hardware, skip a
        // guard evaluation.
        let (_, skipped) = cs.guard_eval_totals();
        assert_eq!(skipped > 0, backend.event_driven(), "{backend:?}");
    }
}

#[test]
fn compiled_cosim_refuses_a_rule_that_does_not_lower() {
    // Vector elements of unequal layouts: the reference interprets it,
    // the compiled backend refuses the design.
    let hetero = mkvec(vec![cint(32, 0), Expr::Const(Value::bits(32, 0))]);
    let parts = partition(&echo_design(index(hetero, cint(32, 0))), SW).unwrap();
    let build = |backend: ExecBackend| {
        Cosim::new(&parts, SW, HW, LinkConfig::default(), backend.sw_options())
    };
    let err = build(ExecBackend::Compiled).unwrap_err().to_string();
    assert!(
        err.contains("rule `echo`: its body does not lower"),
        "{err}"
    );
    assert_eq!(build(ExecBackend::Naive).unwrap().interpreted_rules(), 3);
}
