//! Steady-state allocation check for rule transactions.
//!
//! A scheduler lends one reusable transaction log to every firing, so
//! once its buffers have grown to the design's footprint a clock cycle
//! of [`HwSim::step`] or a [`SwRunner::step`] must not touch the heap —
//! not on commit, not on rollback, not through parallel branches. This
//! binary installs a counting global allocator that counts only while
//! the measuring thread has switched it on, so the harness's own
//! threads do not disturb the count.
//!
//! Both designs are word-typed (every value is an `Int(32)`), so every
//! rule lowers to word closures on the flat store and no boxed `Value`
//! is ever built.
//!
//! An idle co-simulated cycle — an accelerator with nothing to fire and
//! a transactor with nothing to move — must not touch the heap either.
//!
//! The all-software Vorbis decoder moves 64-element vectors of complex
//! structs through every rule; run compiled, its rules work on packed
//! frame regions, and the only allocations left per frame are the
//! decoded output the sink keeps and the growth of the sink's list.
//!
//! A message crossing a perfect link reuses the transactor's receive
//! buffer and a word buffer of an earlier delivered message, so the ray
//! tracer's per-ray allocations are what its software side keeps.
//!
//! Construction hands each layer's output on by move or shared
//! reference: building a co-simulation copies no partition design, and
//! the Vorbis program builds only the IFFT it instantiates.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::design::Design;
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, HwSim, Strategy, SwOptions, SwRunner};
use bcl_core::store::Store;
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::xform::ExecMode;
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::FaultConfig;
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{Render, RtPartition};
use bcl_vorbis::bcl::{build_backend, build_design, BackendOptions};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{Decode, VorbisPartition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed through.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by this thread while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn i32c(v: i64) -> bcl_core::ast::Expr {
    cint(32, v)
}

/// `r := r == last ? 0 : r + 1`.
fn wrap_inc(r: &str, last: i64) -> bcl_core::ast::Action {
    write(
        r,
        cond(eq(read(r), i32c(last)), i32c(0), add(read(r), i32c(1))),
    )
}

/// A closed three-stage hardware pipeline that runs forever: `produce`
/// writes two registers, a FIFO and a register-file cell in one `Par`;
/// `relay` moves items between FIFOs; `consume` steps a phase register
/// and its guard fails once the phase wraps to 0, until `rearm` (which
/// conflicts with it, so never shares its cycle) sets it to 1 again.
fn hw_design() -> Design {
    let mut m = ModuleBuilder::new("AllocHw");
    m.reg("n", Value::int(32, 0));
    m.reg("slot", Value::int(32, 0));
    m.reg("acc", Value::int(32, 0));
    m.reg("phase", Value::int(32, 1));
    m.fifo("q", 2, Type::Int(32));
    m.fifo("r", 2, Type::Int(32));
    m.regfile("hist", 8, Type::Int(32), vec![]);
    m.rule(
        "produce",
        par(vec![
            enq("q", read("n")),
            write("n", add(read("n"), i32c(1))),
            upd("hist", read("slot"), read("n")),
            wrap_inc("slot", 7),
        ]),
    );
    m.rule(
        "relay",
        with_first("x", "q", enq("r", mul(var("x"), i32c(3)))),
    );
    m.rule(
        "consume",
        when_a(
            ne(read("phase"), i32c(0)),
            with_first(
                "y",
                "r",
                par(vec![
                    write("acc", add(read("acc"), var("y"))),
                    wrap_inc("phase", 2),
                ]),
            ),
        ),
    );
    m.rule(
        "rearm",
        when_a(eq(read("phase"), i32c(0)), write("phase", i32c(1))),
    );
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

/// A software partition whose `step` rule keeps a guard that lifting
/// cannot hoist: it reads `c` after the rule's own write to `c`, so it
/// is checked mid-transaction. It fails (rolling back) whenever `c`
/// would wrap to 0, until `rearm` resets `c`.
fn sw_design() -> Design {
    let mut m = ModuleBuilder::new("AllocSw");
    m.reg("c", Value::int(32, 0));
    m.reg("u", Value::int(32, 0));
    m.fifo("w", 4, Type::Int(32));
    m.rule(
        "step",
        seq(vec![
            wrap_inc("c", 3),
            when_a(ne(read("c"), i32c(0)), enq("w", read("c"))),
        ]),
    );
    m.rule("rearm", when_a(eq(read("c"), i32c(3)), write("c", i32c(0))));
    m.rule("drain", with_first("z", "w", write("u", var("z"))));
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

#[test]
fn hw_step_allocates_nothing_in_steady_state() {
    let d = hw_design();
    let mut sim = HwSim::with_store(&d, Store::new_flat(&d)).unwrap();
    sim.set_compiled(true);
    for _ in 0..200 {
        sim.step().unwrap();
    }
    let before = sim.report();
    let allocs = allocs_during(|| {
        for _ in 0..1000 {
            sim.step().unwrap();
        }
    });
    let after = sim.report();
    let fired: Vec<u64> = (0..d.rules.len())
        .map(|i| after.fired[i] - before.fired[i])
        .collect();
    assert!(
        fired.iter().all(|&f| f > 0),
        "every rule must fire while measured: {fired:?}"
    );
    assert!(
        fired[2] < 1000,
        "consume's guard must fail on some cycles: {fired:?}"
    );
    assert_eq!(allocs, 0, "1000 HwSim::step calls allocated");
}

#[test]
fn sw_step_allocates_nothing_in_steady_state() {
    let d = sw_design();
    // Priority order tries `step` before `rearm`, so `step` meets the
    // wrap and rolls back instead of `rearm` always getting there first.
    let opts = SwOptions {
        strategy: Strategy::Priority,
        ..ExecBackend::Compiled.sw_options()
    };
    let mut sw = SwRunner::new(&d, opts).unwrap();
    assert_eq!(sw.plan(0).mode, ExecMode::Transactional);
    assert!(sw.plan(0).residual, "step's guard must stay in the body");
    for _ in 0..200 {
        assert!(sw.step().unwrap());
    }
    let before = (sw.report(), sw.cost.rollbacks);
    let allocs = allocs_during(|| {
        for _ in 0..1000 {
            sw.step().unwrap();
        }
    });
    let after = (sw.report(), sw.cost.rollbacks);
    assert!(
        after.0.fired[0] > before.0.fired[0],
        "step must commit while measured"
    );
    assert!(after.1 > before.1, "step must roll back while measured");
    assert_eq!(allocs, 0, "1000 SwRunner::step calls allocated");
}

/// src(SW) -> toHw -> echo(HW) -> toSw -> snk(SW).
fn echo_design() -> Design {
    let mut m = ModuleBuilder::new("Echo");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("toHw", 2, Type::Int(32), SW, HW);
    m.channel("toSw", 2, Type::Int(32), HW, SW);
    m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
    m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
    m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

#[test]
fn idle_cosim_step_allocates_nothing() {
    let parts = partition(&echo_design(), SW).unwrap();
    let mut cs = Cosim::multi(
        &parts,
        SW,
        &[HwPartitionCfg::new(HW).with_compiled(true)],
        InterHwRouting::ViaHub,
        ExecBackend::Compiled.sw_options(),
    )
    .unwrap();
    for i in 0..8 {
        cs.push_source("src", Value::int(32, i));
    }
    let out = cs.run_until(|c| c.sink_count("snk") == 8, 100_000).unwrap();
    assert!(out.is_done(), "{out:?}");
    for _ in 0..200 {
        cs.step().unwrap();
    }
    let (cycles, evals) = (cs.fpga_cycles, cs.guard_eval_totals().0);
    let allocs = allocs_during(|| {
        for _ in 0..1000 {
            cs.step().unwrap();
        }
    });
    assert_eq!(cs.fpga_cycles, cycles + 1000);
    assert_eq!(
        cs.guard_eval_totals().0,
        evals,
        "an idle cycle evaluated a guard"
    );
    assert_eq!(allocs, 0, "1000 idle Cosim::step calls allocated");
}

/// Frames decoded by the Vorbis allocation check.
const VORBIS_FRAMES: usize = 16;

#[test]
fn vorbis_software_run_allocates_only_the_sink_output() {
    // All frames are queued while the system is built, outside the
    // measured window; the window is the run to the last frame.
    let frames = frame_stream(VORBIS_FRAMES, 11);
    let mut cosim = harness::build(
        &Decode(VorbisPartition::F, &frames),
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Compiled,
    )
    .unwrap();
    assert_eq!(cosim.interpreted_rules(), 0);
    let mut done = false;
    let allocs = allocs_during(|| {
        done = cosim
            .run_until(|c| c.sink_count("audioDev") == VORBIS_FRAMES, 100_000_000)
            .unwrap()
            .is_done();
    });
    assert!(done, "the decoder did not finish");
    // Per frame: the PCM vector the sink stores, plus an amortized share
    // of the sink list's growth and of the first firings' scratch growth.
    assert!(
        allocs <= 8 * VORBIS_FRAMES as u64,
        "{allocs} allocations for {VORBIS_FRAMES} frames"
    );
}

/// Allocations during the run of ray tracer partition C (traversal and
/// intersection in hardware, 12 words per ray over a perfect link) over
/// a `side`×`side` image, construction and queued rays excluded.
fn raytrace_c_run_allocs(side: usize) -> u64 {
    let bvh = build_bvh(&make_scene(64, 5));
    let mut cosim = harness::build(
        &Render(RtPartition::C, &bvh, side, side),
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Compiled,
    )
    .unwrap();
    let rays = side * side;
    let mut done = false;
    let allocs = allocs_during(|| {
        done = cosim
            .run_until(|c| c.sink_count("bitmap") == rays, 100_000_000)
            .unwrap()
            .is_done();
    });
    assert!(done, "the tracer did not finish at {side}x{side}");
    allocs
}

#[test]
fn raytrace_run_allocates_at_most_three_times_per_ray() {
    // The per-scene share cancels in the difference of two image sizes.
    // What is left per ray is the `{pix, shade}` struct the sink keeps
    // (its field vector and two field names), plus the sink list's two
    // doublings from 64 to 256 entries.
    let (small, large) = (raytrace_c_run_allocs(8), raytrace_c_run_allocs(16));
    let extra_rays = 16 * 16 - 8 * 8;
    assert!(
        large.saturating_sub(small) <= 3 * extra_rays + 2,
        "{small} allocations at 8x8, {large} at 16x16: more than 3 per ray"
    );
}

/// What `Cosim::multi` may allocate beyond its runners on Vorbis
/// partition C: the shallow copy of the partitioning (domain names,
/// channel specs, domain map), the links, the transactors and the
/// per-partition channel lists and routes.
const COSIM_BUILD_BUDGET: u64 = 400;

#[test]
fn cosim_build_copies_no_design() {
    let design = build_design(&BackendOptions {
        domains: VorbisPartition::C.domains(),
        ..Default::default()
    })
    .unwrap();
    let parts = partition(&design, SW).unwrap();
    let opts = SwOptions {
        strategy: Strategy::Dataflow,
        ..ExecBackend::Compiled.sw_options()
    };
    let hw_domains = parts.hw_domains(SW);
    assert_eq!(hw_domains, [HW], "partition C has one accelerator");
    let cfgs: Vec<HwPartitionCfg> = hw_domains
        .iter()
        .map(|d| HwPartitionCfg::new(d).with_compiled(true))
        .collect();

    // The schedulers `multi` builds, on the same designs and options.
    let sw = parts.partition(SW).unwrap();
    let mut runners = allocs_during(|| drop(SwRunner::new(sw, opts).unwrap()));
    for d in &hw_domains {
        let hw = parts.partition(d).unwrap();
        runners += allocs_during(|| {
            let mut sim = HwSim::with_store(hw, Store::new_like(hw, opts.flat)).unwrap();
            sim.set_compiled(true);
            drop(sim);
        });
    }
    let multi = allocs_during(|| {
        drop(Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, opts).unwrap());
    });

    // The budget must be too small to hide one copy of either design.
    let copy = |d: &Design| allocs_during(|| drop(d.clone()));
    let smallest_copy = copy(sw).min(copy(parts.partition(HW).unwrap()));
    assert!(
        COSIM_BUILD_BUDGET < smallest_copy,
        "a design copy costs only {smallest_copy} allocations"
    );
    assert!(
        multi <= runners + COSIM_BUILD_BUDGET,
        "Cosim::multi made {multi} allocations; its runners alone make {runners}"
    );
}

#[test]
fn vorbis_program_builds_only_the_instantiated_ifft() {
    for (pipelined, name) in [(true, "IFFTPipe"), (false, "IFFTComb")] {
        let p = build_backend(&BackendOptions {
            pipelined_ifft: pipelined,
            ..Default::default()
        });
        let iffts: Vec<&str> = p
            .modules
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| n.starts_with("IFFT"))
            .collect();
        assert_eq!(iffts, [name], "pipelined_ifft = {pipelined}");
    }
}
