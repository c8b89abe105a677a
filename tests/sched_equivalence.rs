//! The compiled backend is an *optimization*, not a semantics change:
//! with event-driven guard scheduling (verdict caching and dirty-set
//! invalidation) and native rules on the flat arena store, both
//! schedulers must produce exactly the trace the naive reference
//! produces — the naive evaluate-every-guard scheduler interpreting the
//! rules over the tree store: the same rules firing in the same order,
//! the same sink streams, the same hardware cycle counts, and (for
//! software, thanks to cost-replay on cache hits) the same modeled CPU
//! cycles. The only observable difference is the `guard_evals_skipped`
//! counter, which records the avoided work.
//!
//! CI pins `PROPTEST_SEED` so failures reproduce exactly.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::design::Design;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, HwSim, Strategy, SwOptions, SwRunner};
use bcl_core::store::Store;
use bcl_core::types::Type;
use bcl_core::value::Value;
use proptest::prelude::*;

/// A pipeline of `stages` FIFO stages plus a register-guarded marker
/// rule, so the guard population mixes FIFO occupancy guards (hot: they
/// change every firing) with a register comparison guard (cold: it
/// changes once), exercising both the invalidation and the caching side
/// of the event-driven scheduler.
fn test_design(stages: usize, depth: usize) -> Design {
    let q = |s: usize| format!("q{s}");
    let mut m = ModuleBuilder::new("EqPipe");
    m.source("src", Type::Int(32), "HW");
    m.sink("snk", Type::Int(32), "HW");
    for s in 0..stages {
        m.fifo(q(s), depth, Type::Int(32));
    }
    m.reg("count", Value::int(32, 0));
    m.rule("feed", with_first("x", "src", enq("q0", var("x"))));
    for s in 0..stages - 1 {
        m.rule(
            format!("s{s}"),
            with_first(
                "x",
                &q(s),
                enq(&q(s + 1), add(var("x"), cint(32, s as i64 + 1))),
            ),
        );
    }
    m.rule(
        "drain",
        with_first(
            "x",
            &q(stages - 1),
            par(vec![
                enq("snk", var("x")),
                write("count", add(read("count"), cint(32, 1))),
            ]),
        ),
    );
    // Fires exactly once, when the third item drains.
    m.rule(
        "mark",
        when_a(
            eq(read("count"), cint(32, 3)),
            write("count", add(read("count"), cint(32, 100))),
        ),
    );
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

fn preload(design: &Design, inputs: &[i64], flat: bool) -> Store {
    let mut store = Store::new_like(design, flat);
    let src = design.prim_id("src").unwrap();
    for &i in inputs {
        store.push_source(src, Value::int(32, i));
    }
    store
}

fn sink_ints(design: &Design, store: &Store) -> Vec<i64> {
    let snk = design.prim_id("snk").unwrap();
    store
        .sink_values(snk)
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

/// Runs the software scheduler to quiescence on `opts`, recording the
/// per-step fired/quiescent outcome. Returns (trace, per-rule fired
/// counts, cpu_cycles, sink stream, guard evaluations skipped).
fn run_sw_opts(
    design: &Design,
    inputs: &[i64],
    opts: SwOptions,
) -> (Vec<bool>, Vec<u64>, u64, Vec<i64>, u64) {
    let mut r = SwRunner::with_store(design, preload(design, inputs, opts.flat), opts).unwrap();
    let mut trace = Vec::new();
    for _ in 0..100_000 {
        let fired = r.step().unwrap();
        trace.push(fired);
        if !fired {
            break;
        }
    }
    let rep = r.report();
    let out = sink_ints(design, &r.store);
    (
        trace,
        rep.fired,
        rep.cpu_cycles,
        out,
        r.cost.guard_evals_skipped,
    )
}

/// [`run_sw_opts`] on one of the two backends.
fn run_sw(
    design: &Design,
    inputs: &[i64],
    strategy: Strategy,
    backend: ExecBackend,
) -> (Vec<bool>, Vec<u64>, u64, Vec<i64>, u64) {
    let opts = SwOptions {
        strategy,
        ..backend.sw_options()
    };
    run_sw_opts(design, inputs, opts)
}

/// Runs the hardware simulator to quiescence, recording the per-cycle
/// firing count. Returns (trace, per-rule fired counts, cycles, peak
/// concurrency, sink stream, guard_evals, guard_evals_skipped).
#[allow(clippy::type_complexity)]
fn run_hw_on(
    design: &Design,
    inputs: &[i64],
    event_driven: bool,
    compiled: bool,
) -> (Vec<usize>, Vec<u64>, u64, usize, Vec<i64>, u64, u64) {
    let mut sim = HwSim::with_store(design, preload(design, inputs, compiled)).unwrap();
    sim.event_driven = event_driven;
    sim.set_compiled(compiled);
    let mut trace = Vec::new();
    for _ in 0..100_000 {
        let fired = sim.step().unwrap();
        trace.push(fired);
        if fired == 0 {
            break;
        }
    }
    let rep = sim.report();
    let out = sink_ints(design, &sim.store);
    (
        trace,
        rep.fired,
        rep.cycles,
        rep.peak_concurrency,
        out,
        rep.guard_evals,
        rep.guard_evals_skipped,
    )
}

/// [`run_hw_on`] on one of the two backends.
#[allow(clippy::type_complexity)]
fn run_hw(
    design: &Design,
    inputs: &[i64],
    backend: ExecBackend,
) -> (Vec<usize>, Vec<u64>, u64, usize, Vec<i64>, u64, u64) {
    run_hw_on(design, inputs, backend.event_driven(), backend.compiled())
}

const STRATEGIES: [Strategy; 3] = [Strategy::RoundRobin, Strategy::Priority, Strategy::Dataflow];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn sw_event_driven_matches_naive_reference(
        stages in 2usize..5,
        depth in 1usize..4,
        strat in 0usize..3,
        inputs in proptest::collection::vec(-100i64..100, 1..12),
    ) {
        let design = test_design(stages, depth);
        let strategy = STRATEGIES[strat];
        let (t_e, fired_e, cpu_e, out_e, _skipped) =
            run_sw(&design, &inputs, strategy, ExecBackend::Compiled);
        let (t_n, fired_n, cpu_n, out_n, skipped_n) =
            run_sw(&design, &inputs, strategy, ExecBackend::Naive);
        prop_assert_eq!(t_e, t_n, "fired traces diverge ({strategy:?})");
        prop_assert_eq!(fired_e, fired_n, "per-rule firing counts diverge");
        prop_assert_eq!(cpu_e, cpu_n, "modeled cpu_cycles diverge");
        prop_assert_eq!(out_e, out_n, "sink streams diverge");
        prop_assert_eq!(skipped_n, 0, "naive mode must never skip");
    }

    #[test]
    fn hw_event_driven_matches_naive_reference(
        stages in 2usize..5,
        depth in 1usize..4,
        inputs in proptest::collection::vec(-100i64..100, 1..12),
    ) {
        let design = test_design(stages, depth);
        let (t_e, fired_e, cyc_e, peak_e, out_e, evals_e, skipped_e) =
            run_hw(&design, &inputs, ExecBackend::Compiled);
        let (t_n, fired_n, cyc_n, peak_n, out_n, evals_n, skipped_n) =
            run_hw(&design, &inputs, ExecBackend::Naive);
        prop_assert_eq!(t_e, t_n, "per-cycle firing traces diverge");
        prop_assert_eq!(fired_e, fired_n, "per-rule firing counts diverge");
        prop_assert_eq!(cyc_e, cyc_n, "cycle counts diverge");
        prop_assert_eq!(peak_e, peak_n, "peak concurrency diverges");
        prop_assert_eq!(out_e, out_n, "sink streams diverge");
        prop_assert_eq!(skipped_n, 0, "naive mode must never skip");
        prop_assert!(skipped_e > 0, "event-driven mode found nothing to skip");
        prop_assert_eq!(evals_e + skipped_e, evals_n,
            "evaluated + skipped must account for every naive evaluation");
    }

    #[test]
    fn sw_compiled_matches_interpreter(
        stages in 2usize..5,
        depth in 1usize..4,
        strat in 0usize..3,
        inputs in proptest::collection::vec(-100i64..100, 1..12),
    ) {
        // Native rules alone, scheduling held fixed: naive scheduling of
        // native rules on the flat store must match the reference
        // bit for bit — trace, per-rule counts, modeled cpu_cycles, and
        // sink streams.
        let design = test_design(stages, depth);
        let strategy = STRATEGIES[strat];
        let reference = run_sw(&design, &inputs, strategy, ExecBackend::Naive);
        let native = run_sw_opts(&design, &inputs, SwOptions {
            strategy,
            event_driven: false,
            flat: true,
            compiled: true,
            ..Default::default()
        });
        prop_assert_eq!(reference, native, "compiled sw run diverges ({strategy:?})");
    }

    #[test]
    fn hw_compiled_matches_interpreter(
        stages in 2usize..5,
        depth in 1usize..4,
        inputs in proptest::collection::vec(-100i64..100, 1..12),
    ) {
        // Native rules alone, under naive scheduling: identical down to
        // the guard-evaluation counters.
        let design = test_design(stages, depth);
        let reference = run_hw(&design, &inputs, ExecBackend::Naive);
        let native = run_hw_on(&design, &inputs, false, true);
        prop_assert_eq!(reference, native, "compiled hw run diverges");
    }
}

/// The quiescent case is where event-driven scheduling shines: once
/// nothing can fire and nothing is written, re-probing costs zero guard
/// evaluations in hardware (all verdicts stay cached).
#[test]
fn hw_quiescent_cycles_cost_no_guard_evals() {
    let design = test_design(3, 2);
    let mut sim = HwSim::with_store(&design, Store::new_flat(&design)).unwrap();
    sim.set_compiled(true);
    assert_eq!(sim.step().unwrap(), 0);
    let after_first = sim.report().guard_evals;
    for _ in 0..50 {
        assert_eq!(sim.step().unwrap(), 0);
    }
    let rep = sim.report();
    assert_eq!(
        rep.guard_evals, after_first,
        "idle cycles must re-use every cached verdict"
    );
    assert!(rep.guard_evals_skipped >= 50);
}

/// Software cost-replay: cache hits charge the recorded cost delta, so
/// cpu_cycles are pinned while real guard work drops.
#[test]
fn sw_cache_hits_replay_cost_without_reevaluating() {
    // Priority probing restarts at rule 0 every step, so upstream rules
    // whose read state did not change between steps are re-probed
    // constantly — exactly what the verdict cache elides.
    let design = test_design(4, 2);
    let inputs: Vec<i64> = (0..20).collect();
    let (_, _, cpu_e, out_e, skipped) =
        run_sw(&design, &inputs, Strategy::Priority, ExecBackend::Compiled);
    let (_, _, cpu_n, out_n, _) = run_sw(&design, &inputs, Strategy::Priority, ExecBackend::Naive);
    assert_eq!(cpu_e, cpu_n);
    assert_eq!(out_e, out_n);
    assert!(skipped > 0, "priority probing must hit the verdict cache");
}
