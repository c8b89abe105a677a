//! Cycle-count regression pins for the shipped partitions.
//!
//! The co-simulation's timing model is part of the artifact: Figure 13's
//! conclusions are statements about cycle counts, and the N-partition
//! generalization of the cosim promises that an N=1 configuration is
//! bit- AND cycle-identical to the original two-domain machine. These
//! tests pin the exact no-fault `fpga_cycles` / `sw_cpu_cycles` of every
//! shipped partition on fixed inputs, so any timing drift — a changed
//! pump order, an extra budget charge, a reordered rule — fails loudly
//! instead of silently skewing the paper's numbers.
//!
//! If a change legitimately alters the timing model, re-baseline these
//! constants in the same commit and say why.

use bcl_core::sched::ExecBackend;
use bcl_core::Value;
use bcl_platform::cosim::{Cosim, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, PartitionFault};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{run_partition as rt_run, Render, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition as vorbis_run, Decode, VorbisPartition};

/// (partition, fpga_cycles, sw_cpu_cycles) on `frame_stream(3, 21)`.
const VORBIS_BASELINE: &[(VorbisPartition, u64, u64)] = &[
    (VorbisPartition::A, 10_876, 33_944),
    (VorbisPartition::B, 7_701, 5_858),
    (VorbisPartition::C, 9_861, 4_904),
    (VorbisPartition::D, 2_736, 1_358),
    (VorbisPartition::E, 1_726, 388),
    (VorbisPartition::F, 8_716, 34_862),
    (VorbisPartition::G, 4_894, 388), // three-domain (IMDCT+IFFT | window)
];

/// (partition, fpga_cycles, sw_cpu_cycles) on `make_scene(48, 5)`, 4×4.
const RT_BASELINE: &[(RtPartition, u64, u64)] = &[
    (RtPartition::A, 19_188, 76_749),
    (RtPartition::B, 51_597, 68_187),
    (RtPartition::C, 2_564, 2_076),
    (RtPartition::D, 29_136, 33_482),
    (RtPartition::E, 40_004, 2_076), // three-domain (traversal | geometry)
];

/// Runs a co-simulation built on `backend` until `sink` holds `want`
/// values, after checking that its software store has the backend's
/// representation (flat arena for the compiled backend, tree for the
/// reference). Returns `(fpga_cycles, sw_cpu_cycles, sink values)`.
fn run_built(
    mut cosim: Cosim,
    backend: ExecBackend,
    sink: &str,
    want: usize,
) -> (u64, u64, Vec<Value>) {
    let outcome = cosim
        .run_until(|c| c.sink_count(sink) == want, 10_000_000)
        .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
    assert!(outcome.is_done(), "{backend:?} did not finish: {outcome:?}");
    assert_eq!(
        cosim.sw.snapshot().store().is_flat(),
        backend.flat(),
        "{backend:?} ran on the wrong store representation"
    );
    (
        outcome.fpga_cycles(),
        cosim.sw.cpu_cycles(),
        cosim.sink_values(sink).to_vec(),
    )
}

#[test]
fn vorbis_partition_cycle_counts_are_pinned() {
    let frames = frame_stream(3, 21);
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in VORBIS_BASELINE {
        let run = vorbis_run(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        if (run.fpga_cycles, run.sw_cpu_cycles) != (fpga, cpu) {
            failures.push(format!(
                "partition {}: expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                p.label(),
                run.fpga_cycles,
                run.sw_cpu_cycles
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn vorbis_compiled_backend_cycle_counts_are_pinned() {
    // The compiled backend and the naive reference must both land on the
    // exact pinned cycles for every shipped partition — bit- and
    // cycle-identity, not "close enough" — and decode the same PCM.
    let frames = frame_stream(3, 21);
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in VORBIS_BASELINE {
        let naive = harness::run(
            &Decode(p, &frames),
            FaultConfig::none(),
            RecoveryPolicy::Fail,
            ExecBackend::Naive,
        )
        .unwrap_or_else(|e| panic!("{p:?} (naive): {e}"));
        let run = vorbis_run(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert_eq!(
            run.output,
            naive.output,
            "partition {} PCM diverged",
            p.label()
        );
        for (leg, r) in [("naive", &naive), ("compiled", &run)] {
            if (r.fpga_cycles, r.sw_cpu_cycles) != (fpga, cpu) {
                failures.push(format!(
                    "partition {} ({leg}): expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                    p.label(),
                    r.fpga_cycles,
                    r.sw_cpu_cycles
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn vorbis_flat_store_cycle_counts_are_pinned() {
    // The flat arena store (compiled backend) must land on the same
    // pinned cycles and sink values as the tree store (reference).
    let frames = frame_stream(3, 21);
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in VORBIS_BASELINE {
        let app = Decode(p, &frames);
        let [tree, flat] = [ExecBackend::Naive, ExecBackend::Compiled].map(|b| {
            let cosim = harness::build(&app, FaultConfig::none(), RecoveryPolicy::Fail, b)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            run_built(cosim, b, "audioDev", frames.len())
        });
        assert_eq!(flat.2, tree.2, "partition {} flat PCM diverged", p.label());
        for (leg, r) in [("tree", &tree), ("flat", &flat)] {
            if (r.0, r.1) != (fpga, cpu) {
                failures.push(format!(
                    "partition {} ({leg}): expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                    p.label(),
                    r.0,
                    r.1
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn vorbis_failback_trace_is_pinned() {
    // One pinned die → failover → revive trace: partition E on
    // `frame_stream(3, 21)` (fault-free baseline 1_726 cycles), killed at
    // cycle 800, spliced into software after a 200-cycle grace period,
    // revived at cycle 2_500, finishing the decode back in hardware. The
    // cycle counts cover the whole lifecycle — death detection, splice,
    // software-owned decoding, state-image transfer, and the hardware
    // tail — so any drift in the failover *or* failback timing model
    // fails loudly.
    let frames = frame_stream(3, 21);
    let clean = vorbis_run(VorbisPartition::E, &frames).unwrap();
    let faults = FaultConfig::none()
        .with_partition_fault(PartitionFault::DieAt(800))
        .with_partition_fault(PartitionFault::ReviveAt(2_500));
    let run = harness::run(
        &Decode(VorbisPartition::E, &frames),
        faults,
        RecoveryPolicy::failover(200),
        ExecBackend::Compiled,
    )
    .unwrap();
    assert!(
        run.failed_over && run.revived,
        "the trace must exercise both"
    );
    assert_eq!(run.output, clean.output, "failback must not change the PCM");
    assert_eq!(run.hw_partitions, 1, "the decode must finish in hardware");
    assert_eq!(
        (run.fpga_cycles, run.sw_cpu_cycles),
        (4_621, 7_552),
        "failback trace timing drifted: got fpga={} cpu={}",
        run.fpga_cycles,
        run.sw_cpu_cycles
    );
}

#[test]
fn vorbis_checkpoint_restore_keeps_pinned_cycles() {
    // Serialize mid-decode, restore into a *freshly built* co-simulation
    // (what a new process would construct), finish there — and still land
    // on the exact pinned cycle counts of an uninterrupted run. Covers a
    // software-heavy (B), hardware-heavy (E), and three-domain (G)
    // partition, each split roughly mid-stream.
    let frames = frame_stream(3, 21);
    let picks = [VorbisPartition::B, VorbisPartition::E, VorbisPartition::G];
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in VORBIS_BASELINE.iter().filter(|(p, ..)| picks.contains(p)) {
        let (run, bytes) = harness::run_migrated(
            &Decode(p, &frames),
            FaultConfig::none(),
            RecoveryPolicy::Fail,
            fpga / 2,
        )
        .unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert!(bytes > 0, "partition {} snapshot is empty", p.label());
        if (run.fpga_cycles, run.sw_cpu_cycles) != (fpga, cpu) {
            failures.push(format!(
                "partition {} (migrated): expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                p.label(),
                run.fpga_cycles,
                run.sw_cpu_cycles
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn raytrace_checkpoint_restore_keeps_pinned_cycles() {
    // Same restore-and-finish pin for the three-domain ray tracer: the
    // migrated run must land on partition E's exact baseline cycles.
    let bvh = build_bvh(&make_scene(48, 5));
    let &(p, fpga, cpu) = RT_BASELINE
        .iter()
        .find(|(p, ..)| *p == RtPartition::E)
        .unwrap();
    let (run, bytes) = harness::run_migrated(
        &Render(p, &bvh, 4, 4),
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        fpga / 2,
    )
    .unwrap_or_else(|e| panic!("{p:?}: {e}"));
    assert!(bytes > 0, "snapshot is empty");
    assert_eq!(
        (run.fpga_cycles, run.sw_cpu_cycles),
        (fpga, cpu),
        "migrated raytrace E drifted: got fpga={} cpu={}",
        run.fpga_cycles,
        run.sw_cpu_cycles
    );
}

#[test]
fn echo_checkpoint_restore_keeps_pinned_cycles() {
    // The minimal echo design (the persist-format fixture design) gets
    // the same treatment: checkpoint to bytes mid-run, restore into a
    // fresh Cosim, and pin both halves to the uninterrupted trace.
    use bcl_core::builder::{dsl::*, ModuleBuilder};
    use bcl_core::domain::{HW, SW};
    use bcl_core::program::Program;
    use bcl_core::types::Type;
    use bcl_core::value::Value;
    use bcl_platform::cosim::Cosim;
    use bcl_platform::link::LinkConfig;

    let build = || {
        let mut m = ModuleBuilder::new("Echo");
        m.source("src", Type::Int(32), SW);
        m.sink("snk", Type::Int(32), SW);
        m.sync("toHw", 2, Type::Int(32), SW, HW);
        m.sync("toSw", 2, Type::Int(32), HW, SW);
        m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
        m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
        m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
        let design = bcl_core::elaborate(&Program::with_root(m.build())).unwrap();
        let parts = bcl_core::partition::partition(&design, SW).unwrap();
        let mut cosim =
            Cosim::new(&parts, SW, HW, LinkConfig::default(), Default::default()).unwrap();
        for i in 0..16i64 {
            cosim.push_source("src", Value::int(32, i * 5 + 2));
        }
        cosim
    };
    let finish = |c: &mut Cosim| {
        let out = c.run_until(|c| c.sink_count("snk") == 16, 100_000).unwrap();
        assert!(out.is_done());
        (out.fpga_cycles(), c.sw.cpu_cycles())
    };

    let mut clean = build();
    let baseline = finish(&mut clean);

    let mut first = build();
    let out = first.run_until(|c| c.fpga_cycles >= 40, 100_000).unwrap();
    assert!(out.is_done(), "echo never reached the split cycle");
    let bytes = first.snapshot_bytes().unwrap();
    let mut second = build();
    second.resume_from(&mut bytes.as_slice()).unwrap();
    assert_eq!(
        finish(&mut second),
        baseline,
        "echo migrated run drifted from the uninterrupted trace"
    );
}

#[test]
fn raytrace_partition_cycle_counts_are_pinned() {
    let bvh = build_bvh(&make_scene(48, 5));
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in RT_BASELINE {
        let run = rt_run(p, &bvh, 4, 4).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        if (run.fpga_cycles, run.sw_cpu_cycles) != (fpga, cpu) {
            failures.push(format!(
                "partition {}: expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                p.label(),
                run.fpga_cycles,
                run.sw_cpu_cycles
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn raytrace_compiled_backend_cycle_counts_are_pinned() {
    let bvh = build_bvh(&make_scene(48, 5));
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in RT_BASELINE {
        let naive = harness::run(
            &Render(p, &bvh, 4, 4),
            FaultConfig::none(),
            RecoveryPolicy::Fail,
            ExecBackend::Naive,
        )
        .unwrap_or_else(|e| panic!("{p:?} (naive): {e}"));
        let run = rt_run(p, &bvh, 4, 4).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert_eq!(
            run.output,
            naive.output,
            "partition {} image diverged",
            p.label()
        );
        for (leg, r) in [("naive", &naive), ("compiled", &run)] {
            if (r.fpga_cycles, r.sw_cpu_cycles) != (fpga, cpu) {
                failures.push(format!(
                    "partition {} ({leg}): expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                    p.label(),
                    r.fpga_cycles,
                    r.sw_cpu_cycles
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn raytrace_flat_store_cycle_counts_are_pinned() {
    let bvh = build_bvh(&make_scene(48, 5));
    let mut failures = Vec::new();
    for &(p, fpga, cpu) in RT_BASELINE {
        let app = Render(p, &bvh, 4, 4);
        let [tree, flat] = [ExecBackend::Naive, ExecBackend::Compiled].map(|b| {
            let cosim = harness::build(&app, FaultConfig::none(), RecoveryPolicy::Fail, b)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            run_built(cosim, b, "bitmap", 16)
        });
        assert_eq!(
            flat.2,
            tree.2,
            "partition {} flat image diverged",
            p.label()
        );
        for (leg, r) in [("tree", &tree), ("flat", &flat)] {
            if (r.0, r.1) != (fpga, cpu) {
                failures.push(format!(
                    "partition {} ({leg}): expected fpga={fpga} cpu={cpu}, got fpga={} cpu={}",
                    p.label(),
                    r.0,
                    r.1
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
