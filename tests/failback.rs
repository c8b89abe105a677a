//! The failback headline property: for any die → failover → revive
//! schedule, the run produces *bit-identical* final outputs to the
//! fault-free run — on the echo micro-design and on the real Vorbis and
//! raytracer partitions — and a revived run resumes accruing FPGA cycles
//! (no silent software-only tail: after `ReviveAt` the partition executes
//! rules in hardware again).
//!
//! The lifecycle under test is documented in DESIGN.md § "Partition
//! lifecycle and failback": Running → Dead → SoftwareOwned → Reviving →
//! Running.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, SwOptions};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, PartitionLifecycle, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, LinkConfig, PartitionFault};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{run_partition as rt_run, Render, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition as vorbis_run, Decode, VorbisPartition};
use proptest::prelude::*;

/// src(SW) -> toHw -> echo(HW) -> toSw -> snk(SW): the smallest design
/// whose every item must cross the hardware partition.
fn echo_design() -> bcl_core::design::Design {
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

/// Runs the Echo cosim under a die/revive schedule with a failover
/// policy, returning (sink values, fpga_cycles, revived, hw_cycles).
fn run_echo_failback(
    schedule: &[PartitionFault],
    grace: u64,
    inputs: &[i64],
) -> (Vec<i64>, u64, bool, Option<u64>) {
    let mut faults = FaultConfig::none();
    for &f in schedule {
        faults = faults.with_partition_fault(f);
    }
    let parts = partition(&echo_design(), SW).unwrap();
    let mut cs = Cosim::with_faults(
        &parts,
        SW,
        HW,
        LinkConfig::default(),
        faults,
        SwOptions::default(),
    )
    .unwrap();
    cs.set_recovery_policy(RecoveryPolicy::failover(grace));
    for &i in inputs {
        cs.push_source("src", Value::int(32, i));
    }
    let want = inputs.len();
    let out = cs
        .run_until(|c| c.sink_count("snk") == want, 10_000_000)
        .unwrap();
    assert!(out.is_done(), "echo did not complete: {out:?}");
    let vals = cs
        .sink_values("snk")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let running = cs.partition_lifecycle(HW) == Some(PartitionLifecycle::Running);
    let hw_cycles = cs.partition_hw_cycles(HW).filter(|_| running);
    (vals, out.fpga_cycles(), cs.revived(), hw_cycles)
}

/// A die → revive chain: up to two generations of death and scripted
/// revival. `ReviveAt` cycles that elapse while the partition is still
/// dead fire as soon as the splice completes, so any ordering is legal.
fn arb_failback_schedule() -> impl Strategy<Value = (Vec<PartitionFault>, u64)> {
    (
        50u64..600,  // first death
        1u64..1_500, // revive delay after the death
        0u64..1_000, // optional second death delay (0 = none)
        1u64..1_500, // second revive delay
        20u64..200,  // failover grace
    )
        .prop_map(|(die1, rdelta1, die2_delta, rdelta2, grace)| {
            let mut s = vec![
                PartitionFault::DieAt(die1),
                PartitionFault::ReviveAt(die1 + rdelta1),
            ];
            if die2_delta > 0 {
                let die2 = die1 + rdelta1 + die2_delta;
                s.push(PartitionFault::DieAt(die2));
                s.push(PartitionFault::ReviveAt(die2 + rdelta2));
            }
            (s, grace)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn echo_is_bit_identical_under_any_failback_schedule(
        (schedule, grace) in arb_failback_schedule(),
        inputs in proptest::collection::vec(-1000i64..1000, 40..120),
    ) {
        let (clean, _, _, _) = run_echo_failback(&[], grace, &inputs);
        prop_assert_eq!(&clean, &inputs, "fault-free echo must be the identity");
        let (vals, cycles_a, revived, hw_cycles) =
            run_echo_failback(&schedule, grace, &inputs);
        prop_assert_eq!(&vals, &clean, "die → failover → revive changed the stream");
        // Determinism: the same schedule reproduces the same cycle count.
        let (_, cycles_b, _, _) = run_echo_failback(&schedule, grace, &inputs);
        prop_assert_eq!(cycles_a, cycles_b, "failback runs must be reproducible");
        // No silent software-only tail: when a revival fired and the
        // state transfer completed before the end of the run, the
        // partition must have executed cycles in hardware again.
        if revived {
            if let Some(hw) = hw_cycles {
                prop_assert!(hw > 0, "revived partition never cycled in hardware");
            }
        }
    }
}

#[test]
fn echo_revival_strictly_accrues_hardware_cycles() {
    // Deterministic mid-run revival: scripted one cycle after the death,
    // it fires the moment the failover splice completes (`ReviveAt`
    // cycles in the past fire at the next recovery scan), while most of
    // the input stream is still queued. The FPGA cycle counter of the
    // revived partition must then strictly increase until the end.
    let inputs: Vec<i64> = (0..100).collect();
    let schedule = [PartitionFault::DieAt(150), PartitionFault::ReviveAt(151)];
    let mut faults = FaultConfig::none();
    for &f in &schedule {
        faults = faults.with_partition_fault(f);
    }
    let parts = partition(&echo_design(), SW).unwrap();
    let mut cs = Cosim::with_faults(
        &parts,
        SW,
        HW,
        LinkConfig::default(),
        faults,
        SwOptions::default(),
    )
    .unwrap();
    cs.set_recovery_policy(RecoveryPolicy::failover(40));
    for &i in &inputs {
        cs.push_source("src", Value::int(32, i));
    }
    // Step until the revived partition is executing again.
    while cs.partition_lifecycle(HW) != Some(PartitionLifecycle::Running) || !cs.revived() {
        cs.step().unwrap();
        assert!(cs.fpga_cycles < 1_000_000, "revival never completed");
    }
    let at_handback = cs.partition_hw_cycles(HW).unwrap();
    let out = cs
        .run_until(|c| c.sink_count("snk") == inputs.len(), 10_000_000)
        .unwrap();
    assert!(out.is_done(), "revived echo did not complete: {out:?}");
    let at_end = cs.partition_hw_cycles(HW).unwrap();
    assert!(
        at_end > at_handback,
        "FPGA cycles must strictly increase post-revival ({at_end} !> {at_handback})"
    );
    let vals: Vec<i64> = cs
        .sink_values("snk")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(vals, inputs, "the revived run changed the stream");
}

proptest! {
    // Each case decodes the stream twice; keep the count low.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn vorbis_failback_is_bit_identical_and_finishes_in_hardware(
        die_pct in 30u64..60,
    ) {
        let frames = frame_stream(2, 11);
        let clean = vorbis_run(VorbisPartition::E, &frames).unwrap();
        // Die somewhere in the first two thirds, revive immediately after
        // the splice: the rest of the decode must run in hardware.
        let die_at = clean.fpga_cycles * die_pct / 100;
        let faults = FaultConfig::none()
            .with_partition_fault(PartitionFault::DieAt(die_at))
            .with_partition_fault(PartitionFault::ReviveAt(die_at + 1));
        let app = Decode(VorbisPartition::E, &frames);
        let run = harness::run(
            &app,
            faults,
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        prop_assert!(run.failed_over, "the death must strike mid-decode");
        prop_assert!(run.revived, "the revival must fire");
        prop_assert_eq!(&run.output, &clean.output, "failback changed the PCM");
        prop_assert_eq!(run.hw_partitions, 1, "the decode must finish in hardware");
    }

    #[test]
    fn raytrace_failback_is_bit_identical_and_finishes_in_hardware(
        die_pct in 30u64..60,
    ) {
        let bvh = build_bvh(&make_scene(16, 2));
        let clean = rt_run(RtPartition::E, &bvh, 2, 2).unwrap();
        let die_at = clean.fpga_cycles * die_pct / 100;
        let faults = FaultConfig::none()
            .with_partition_fault(PartitionFault::DieAt(die_at))
            .with_partition_fault(PartitionFault::ReviveAt(die_at + 1));
        let app = Render(RtPartition::E, &bvh, 2, 2);
        let run = harness::run(
            &app,
            faults,
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        prop_assert!(run.failed_over, "the death must strike mid-render");
        prop_assert!(run.revived, "the revival must fire");
        prop_assert_eq!(&run.output, &clean.output, "failback changed the image");
        prop_assert_eq!(run.hw_partitions, 2, "both accelerators must finish in hardware");
    }
}
