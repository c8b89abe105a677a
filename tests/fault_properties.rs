//! The robustness headline property: for any fault schedule with loss
//! rate below 1.0, a co-simulation over the faulty link produces
//! *bit-identical* output to the fault-free run — the generated reliable
//! transport completely hides drops, corruption, duplication, and
//! reordering — and the whole run is deterministic: the same seed always
//! yields the same cycle count and fault tally.
//!
//! A dead direction (100% loss) must terminate through the stall
//! detector with per-channel diagnostics, not by exhausting the cycle
//! budget.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, SwOptions};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, CosimOutcome, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, LinkConfig, PartitionFault};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition, Decode, VorbisPartition};
use proptest::prelude::*;

/// src(SW) -> toHw -> echo(HW) -> toSw -> snk(SW): the simplest design
/// that exercises both link directions.
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

/// Runs the Echo cosim under `faults`, returning the sink stream and the
/// cycle count. Panics on timeout or stall — with loss < 1.0 the
/// transport must always get through.
fn run_echo(faults: FaultConfig, inputs: &[i64]) -> (Vec<i64>, u64) {
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
    (vals, out.fpga_cycles())
}

/// Runs the Echo cosim under link faults *and* a scripted partition-fault
/// schedule, recovering with `policy`. Panics unless the run completes.
fn run_echo_recovery(
    mut faults: FaultConfig,
    schedule: &[PartitionFault],
    policy: RecoveryPolicy,
    inputs: &[i64],
) -> (Vec<i64>, u64) {
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
    cs.set_recovery_policy(policy);
    for &i in inputs {
        cs.push_source("src", Value::int(32, i));
    }
    let want = inputs.len();
    let out = cs
        .run_until(|c| c.sink_count("snk") == want, 10_000_000)
        .unwrap();
    assert!(out.is_done(), "echo did not recover: {out:?}");
    let vals = cs
        .sink_values("snk")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    (vals, out.fpga_cycles())
}

/// A scripted partition-fault schedule: up to three resets/deaths with
/// strike cycles drawn from `cycles` (early enough to land mid-run —
/// faults scheduled after completion never fire).
fn arb_partition_schedule(
    cycles: std::ops::Range<u64>,
) -> impl Strategy<Value = Vec<PartitionFault>> {
    proptest::collection::vec((any::<bool>(), cycles), 0..=3).prop_map(|v| {
        v.into_iter()
            .map(|(fatal, cycle)| {
                if fatal {
                    PartitionFault::DieAt(cycle)
                } else {
                    PartitionFault::ResetAt(cycle)
                }
            })
            .collect()
    })
}

/// A fault schedule with every rate drawn from [0, 0.5].
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (any::<u64>(), 0u32..=50, 0u32..=50, 0u32..=50, 0u32..=50).prop_map(
        |(seed, drop, corrupt, dup, reorder)| {
            FaultConfig::uniform(
                seed,
                drop as f64 / 100.0,
                corrupt as f64 / 100.0,
                dup as f64 / 100.0,
                reorder as f64 / 100.0,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn echo_is_bit_identical_under_any_fault_schedule(
        faults in arb_faults(),
        inputs in proptest::collection::vec(-1000i64..1000, 1..12),
    ) {
        let (clean, clean_cycles) = run_echo(FaultConfig::none(), &inputs);
        prop_assert_eq!(&clean, &inputs, "fault-free echo must be the identity");
        let (faulty, cycles_a) = run_echo(faults.clone(), &inputs);
        prop_assert_eq!(&faulty, &clean, "faults must be invisible in the output");
        // Same seed, same schedule, same cycle count — exactly.
        let (_, cycles_b) = run_echo(faults, &inputs);
        prop_assert_eq!(cycles_a, cycles_b, "fault runs must be reproducible");
        prop_assert!(cycles_a >= clean_cycles, "recovery can only add cycles");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn echo_recovers_from_any_partition_fault_schedule(
        faults in arb_faults(),
        schedule in arb_partition_schedule(1..500u64),
        interval in 50u64..400,
        inputs in proptest::collection::vec(-1000i64..1000, 1..12),
    ) {
        // Baseline: same link faults, no partition faults. The reliable
        // transport already makes this bit-identical to the input.
        let (clean, clean_cycles) = run_echo(faults.clone(), &inputs);
        // Restart-from-checkpoint: any schedule of resets and deaths is
        // invisible in the output *and* in the cycle count — the replay
        // past each fired fault converges to the undisturbed trajectory
        // (the link fault PRNG is part of the checkpoint, so even random
        // link faults replay identically).
        let (restarted, cycles) = run_echo_recovery(
            faults.clone(),
            &schedule,
            RecoveryPolicy::restart(interval),
            &inputs,
        );
        prop_assert_eq!(&restarted, &clean, "restart leaked the faults");
        prop_assert_eq!(cycles, clean_cycles, "restart replay must be cycle-identical");
        // Software takeover: values still bit-identical (the fused design
        // is semantically interchangeable); timing may differ.
        let (failed_over, _) = run_echo_recovery(
            faults,
            &schedule,
            RecoveryPolicy::failover(interval),
            &inputs,
        );
        prop_assert_eq!(&failed_over, &clean, "failover changed the values");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn serialized_restore_replays_the_same_fault_schedule(
        faults in arb_faults(),
        inputs in proptest::collection::vec(-1000i64..1000, 4..12),
        split in 50u64..300,
    ) {
        // The link-fault PRNG is part of the snapshot: restoring a
        // *serialized* checkpoint in a fresh co-simulation (what another
        // process would build) must replay the exact same fault schedule
        // as restoring the in-memory checkpoint — same values, same cycle
        // count, same fault tally.
        let build = || {
            let parts = partition(&echo_design(), SW).unwrap();
            let mut cs = Cosim::with_faults(
                &parts,
                SW,
                HW,
                LinkConfig::default(),
                faults.clone(),
                SwOptions::default(),
            )
            .unwrap();
            for &i in &inputs {
                cs.push_source("src", Value::int(32, i));
            }
            cs
        };
        let want = inputs.len();
        let finish = |cs: &mut Cosim| {
            let out = cs
                .run_until(|c| c.sink_count("snk") == want, 10_000_000)
                .unwrap();
            assert!(out.is_done(), "echo did not complete: {out:?}");
            let vals: Vec<i64> = cs
                .sink_values("snk")
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect();
            (vals, out.fpga_cycles(), cs.link_stats())
        };

        let mut original = build();
        original
            .run_until(|c| c.fpga_cycles >= split, 10_000_000)
            .unwrap();
        let ckpt = original.checkpoint();
        let bytes = original.snapshot_bytes().unwrap();

        // Path A: in-memory restore, same process, same Cosim object.
        original.restore(&ckpt);
        let (vals_mem, cycles_mem, link_mem) = finish(&mut original);

        // Path B: deserialize into a freshly built co-simulation.
        let mut fresh = build();
        fresh.resume_from(&mut bytes.as_slice()).unwrap();
        let (vals_ser, cycles_ser, link_ser) = finish(&mut fresh);

        prop_assert_eq!(&vals_ser, &vals_mem, "values diverged across serialization");
        prop_assert_eq!(cycles_ser, cycles_mem, "cycle count diverged across serialization");
        prop_assert_eq!(link_ser, link_mem, "fault tally diverged: the PRNG did not round-trip");
    }
}

#[test]
fn no_fault_checkpoint_restore_reproduces_the_run_exactly() {
    // Acceptance criterion: a checkpoint/restore round trip with no
    // faults at all reproduces the exact fault-free cycle count.
    let inputs: Vec<i64> = (0..10).collect();
    let (clean, clean_cycles) = run_echo(FaultConfig::none(), &inputs);
    let parts = partition(&echo_design(), SW).unwrap();
    let mut cs = Cosim::with_faults(
        &parts,
        SW,
        HW,
        LinkConfig::default(),
        FaultConfig::none(),
        SwOptions::default(),
    )
    .unwrap();
    for &i in &inputs {
        cs.push_source("src", Value::int(32, i));
    }
    for _ in 0..120 {
        cs.step().unwrap();
    }
    let ckpt = cs.checkpoint();
    for _ in 0..200 {
        cs.step().unwrap(); // wander ahead, then rewind
    }
    cs.restore(&ckpt);
    let out = cs
        .run_until(|c| c.sink_count("snk") == inputs.len(), 10_000_000)
        .unwrap();
    assert!(out.is_done(), "restored echo did not complete: {out:?}");
    assert_eq!(out.fpga_cycles(), clean_cycles, "cycle count must be exact");
    let vals: Vec<i64> = cs
        .sink_values("snk")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(vals, clean);
}

proptest! {
    // The app smoke test is heavier, so fewer cases.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn vorbis_decodes_bit_identically_under_faults(faults in arb_faults()) {
        // Partition E (full back-end in HW) crosses the link once in each
        // direction per frame — every fault lands on real payload.
        let frames = frame_stream(2, 11);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        let app = Decode(VorbisPartition::E, &frames);
        let run_faulty =
            |faults| harness::run(&app, faults, RecoveryPolicy::Fail, ExecBackend::Compiled);
        let faulty = run_faulty(faults.clone()).unwrap();
        prop_assert_eq!(&faulty.output, &clean.output, "PCM must be bit-identical");
        let again = run_faulty(faults).unwrap();
        prop_assert_eq!(faulty.fpga_cycles, again.fpga_cycles, "cycles must reproduce");
        prop_assert_eq!(faulty.link, again.link, "fault tally must reproduce");
    }
}

proptest! {
    // Heavier still: each case decodes the stream three times.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn vorbis_recovers_from_partition_faults(
        schedule in arb_partition_schedule(1..30_000u64),
        interval in 2_000u64..8_000,
    ) {
        let frames = frame_stream(2, 11);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        let faults = |s: &[PartitionFault]| {
            s.iter().fold(FaultConfig::none(), |f, &p| f.with_partition_fault(p))
        };
        let app = Decode(VorbisPartition::E, &frames);
        let run = |policy| harness::run(&app, faults(&schedule), policy, ExecBackend::Compiled);
        let restart = run(RecoveryPolicy::restart(interval)).unwrap();
        prop_assert_eq!(&restart.output, &clean.output, "restart leaked into the PCM");
        prop_assert_eq!(restart.fpga_cycles, clean.fpga_cycles, "restart must be cycle-identical");
        let failover = run(RecoveryPolicy::failover(interval)).unwrap();
        prop_assert_eq!(&failover.output, &clean.output, "failover changed the PCM");
    }
}

#[test]
fn dead_direction_ends_in_stall_not_cycle_exhaustion() {
    // 100% HW→SW loss: results can never come back. The run must end via
    // the stall detector, long before the (enormous) cycle limit, and
    // carry per-channel diagnostics pointing at the dead channel.
    let parts = partition(&echo_design(), SW).unwrap();
    let faults = FaultConfig {
        drop: [0.0, 1.0],
        ..FaultConfig::none()
    };
    let mut cs = Cosim::with_faults(
        &parts,
        SW,
        HW,
        LinkConfig::default(),
        faults,
        SwOptions::default(),
    )
    .unwrap();
    cs.push_source("src", Value::int(32, 42));
    let out = cs
        .run_until(|c| c.sink_count("snk") == 1, u64::MAX / 2)
        .unwrap();
    match out {
        CosimOutcome::Stalled {
            fpga_cycles,
            channels,
        } => {
            assert!(
                fpga_cycles < 1_000_000,
                "stall fired at {fpga_cycles}, expected early"
            );
            let dead = channels
                .iter()
                .find(|c| c.name == "toSw")
                .expect("toSw diagnosed");
            assert_eq!(dead.accepted, 0, "nothing ever arrived: {dead}");
            assert!(dead.retransmits > 0, "the sender kept retrying: {dead}");
            assert!(dead.unacked > 0, "the frame stayed queued: {dead}");
        }
        other => panic!("expected CosimOutcome::Stalled, got {other:?}"),
    }
}

#[test]
fn scripted_single_faults_are_recovered() {
    // Each scripted fault kind, applied to the very first SW→HW frame,
    // must be invisible in the output.
    use bcl_platform::link::{Dir, FaultKind};
    let inputs: Vec<i64> = (0..6).collect();
    for kind in [
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Reorder,
    ] {
        let faults = FaultConfig::none().with_scripted(Dir::SwToHw, 0, kind);
        let (vals, _) = run_echo(faults, &inputs);
        assert_eq!(vals, inputs, "scripted {kind:?} leaked into the output");
    }
}
