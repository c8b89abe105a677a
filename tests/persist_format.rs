//! The durable `BCKP` snapshot format: bit-/cycle-identical resume
//! across serialization (including mid-recovery states), typed
//! rejection of wrong-design and stale snapshots, adversarial decoding
//! (random truncations, byte flips, section reorderings — proptest,
//! never a panic, on *both* shipped format versions), and format
//! stability against two committed golden fixtures: `echo_v1.bckp`
//! (tree-backed, stamped v1 — proves the v2 decoder still reads every
//! v1 file) and `echo_v2.bckp` (flat-arena-backed, stamped v2). A
//! format change requires deliberately regenerating them with
//! `cargo test -- --ignored regenerate_golden_fixture`.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, SwOptions};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{
    Cosim, HwPartitionCfg, InterHwRouting, PartitionLifecycle, RecoveryPolicy,
};
use bcl_platform::harness::{self, Application};
use bcl_platform::link::{FaultConfig, LinkConfig, PartitionFault};
use bcl_platform::persist::{CheckpointPolicy, PersistError};
use bcl_platform::{Checkpoint, FORMAT_VERSION, MIN_FORMAT_VERSION};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{Render, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{Decode, VorbisPartition};
use proptest::prelude::*;
use std::sync::OnceLock;

const FIXTURE: &str = "tests/fixtures/echo_v1.bckp";
/// Flat-arena-backed snapshot written by the current (v2) writer: the
/// store section uses the sentinel + raw-page encoding that v1 readers
/// never produced.
const FIXTURE_V2: &str = "tests/fixtures/echo_v2.bckp";
/// Cycle at which the golden fixtures were captured (pinned: a format or
/// fingerprint change makes a fixture fail to resume, forcing a
/// deliberate regeneration).
const FIXTURE_CYCLE: u64 = 500;
const INPUTS: i64 = 40;

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

/// A fresh echo cosim with the given die/revive schedule and failover
/// recovery, inputs already queued. Identical construction in every
/// test (and notionally in every process) — the migration contract.
fn echo_cosim(schedule: &[PartitionFault]) -> Cosim {
    echo_cosim_on(schedule, false)
}

fn echo_cosim_on(schedule: &[PartitionFault], flat: bool) -> Cosim {
    echo_cosim_with(
        schedule,
        SwOptions {
            flat,
            ..SwOptions::default()
        },
    )
}

fn echo_cosim_with(schedule: &[PartitionFault], opts: SwOptions) -> Cosim {
    let mut faults = FaultConfig::none();
    for &f in schedule {
        faults = faults.with_partition_fault(f);
    }
    let parts = partition(&echo_design(), SW).unwrap();
    let mut cs = Cosim::with_faults(&parts, SW, HW, LinkConfig::default(), faults, opts).unwrap();
    cs.set_recovery_policy(RecoveryPolicy::failover(100));
    for i in 0..INPUTS {
        cs.push_source("src", Value::int(32, i * 3 + 1));
    }
    cs
}

/// Die (and fail over) at 400, revive at 600 — the revive lands between
/// the cycle-500 snapshot point and completion (~700), so a resumed run
/// must still execute the failback splice.
const DIE_REVIVE: &[PartitionFault] = &[PartitionFault::DieAt(400), PartitionFault::ReviveAt(600)];

fn run_to_cycle(cs: &mut Cosim, cycle: u64) {
    let out = cs
        .run_until(|c| c.fpga_cycles >= cycle, 10_000_000)
        .unwrap();
    assert!(out.is_done(), "did not reach cycle {cycle}: {out:?}");
}

fn finish(cs: &mut Cosim) -> (Vec<i64>, u64) {
    let want = INPUTS as usize;
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

/// A context-rich snapshot — taken while the partition is software-
/// owned, so the file carries CONTEXT (with a SwOwned record) and
/// LASTCKPT sections on top of the checkpoint itself.
fn rich_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| rich_snapshot_bytes_on(false))
}

/// Same capture point, but from a cosim whose software store is the
/// bit-packed flat arena — the snapshot carries the v2-only sentinel
/// encoding.
fn rich_snapshot_bytes_flat() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| rich_snapshot_bytes_on(true))
}

fn rich_snapshot_bytes_on(flat: bool) -> Vec<u8> {
    let mut cs = echo_cosim_on(DIE_REVIVE, flat);
    run_to_cycle(&mut cs, FIXTURE_CYCLE);
    assert_eq!(
        cs.partition_lifecycle(HW),
        Some(PartitionLifecycle::SoftwareOwned)
    );
    cs.snapshot_bytes().unwrap()
}

/// Resumes `bytes` into a freshly constructed echo cosim.
fn resume_fresh(bytes: &[u8]) -> Result<Cosim, PersistError> {
    resume_fresh_on(bytes, false)
}

fn resume_fresh_on(bytes: &[u8], flat: bool) -> Result<Cosim, PersistError> {
    let mut cs = echo_cosim_on(DIE_REVIVE, flat);
    cs.resume_from(&mut &bytes[..])?;
    Ok(cs)
}

/// One snapshot image per shipped format version: the committed v1
/// golden fixture and a freshly captured v2 (flat) image. The
/// adversarial decoders below must hold on both.
fn version_images() -> [&'static [u8]; 2] {
    static V1: OnceLock<Vec<u8>> = OnceLock::new();
    let v1 = V1.get_or_init(|| std::fs::read(FIXTURE).expect("missing golden fixture"));
    [v1, rich_snapshot_bytes_flat()]
}

// ---- resume identity ----------------------------------------------------

#[test]
fn serialized_resume_is_bit_and_cycle_identical_mid_run() {
    let mut original = echo_cosim(&[]);
    run_to_cycle(&mut original, 150);
    let bytes = original.snapshot_bytes().unwrap();
    let (vals_a, cycles_a) = finish(&mut original);

    let mut resumed = echo_cosim(&[]);
    resumed.resume_from(&mut &bytes[..]).unwrap();
    assert_eq!(resumed.fpga_cycles, 150);
    let (vals_b, cycles_b) = finish(&mut resumed);
    assert_eq!(vals_a, vals_b, "sink streams diverged after resume");
    assert_eq!(cycles_a, cycles_b, "cycle counts diverged after resume");
}

#[test]
fn software_owned_state_resumes_identically() {
    let mut original = echo_cosim(DIE_REVIVE);
    run_to_cycle(&mut original, 500);
    assert_eq!(
        original.partition_lifecycle(HW),
        Some(PartitionLifecycle::SoftwareOwned)
    );
    let bytes = original.snapshot_bytes().unwrap();

    let mut resumed = resume_fresh(&bytes).unwrap();
    assert_eq!(
        resumed.partition_lifecycle(HW),
        Some(PartitionLifecycle::SoftwareOwned),
        "resume lost the software-owned splice"
    );
    assert!(resumed.failed_over());

    let (vals_a, cycles_a) = finish(&mut original);
    let (vals_b, cycles_b) = finish(&mut resumed);
    assert_eq!(vals_a, vals_b);
    assert_eq!(cycles_a, cycles_b);
    assert!(
        resumed.revived(),
        "failback splice did not execute after resume"
    );
}

#[test]
fn reviving_state_resumes_identically() {
    let mut original = echo_cosim(DIE_REVIVE);
    // Just past the scripted revive: the state image is still crossing
    // the link, so the partition is held in Reviving.
    run_to_cycle(&mut original, 603);
    assert_eq!(
        original.partition_lifecycle(HW),
        Some(PartitionLifecycle::Reviving),
        "expected to catch the partition mid-revival"
    );
    let bytes = original.snapshot_bytes().unwrap();

    let mut resumed = resume_fresh(&bytes).unwrap();
    assert_eq!(
        resumed.partition_lifecycle(HW),
        Some(PartitionLifecycle::Reviving)
    );
    let (vals_a, cycles_a) = finish(&mut original);
    let (vals_b, cycles_b) = finish(&mut resumed);
    assert_eq!(vals_a, vals_b);
    assert_eq!(cycles_a, cycles_b);
}

/// The snapshot does not record whether the partition ran compiled; a
/// compiled cosim resumed while the partition is software-owned must
/// still revive it compiled, like the uninterrupted run.
#[test]
fn resumed_compiled_cosim_revives_its_partition_compiled() {
    let compiled = || echo_cosim_with(DIE_REVIVE, ExecBackend::Compiled.sw_options());
    let mut original = compiled();
    run_to_cycle(&mut original, FIXTURE_CYCLE);
    assert_eq!(
        original.partition_lifecycle(HW),
        Some(PartitionLifecycle::SoftwareOwned)
    );
    let bytes = original.snapshot_bytes().unwrap();
    let mut resumed = compiled();
    resumed.resume_from(&mut &bytes[..]).unwrap();
    let (vals_a, cycles_a) = finish(&mut original);
    let (vals_b, cycles_b) = finish(&mut resumed);
    assert_eq!((vals_a, cycles_a), (vals_b, cycles_b));
    for cs in [&original, &resumed] {
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Running)
        );
        assert_eq!(
            cs.interpreted_rules(),
            0,
            "the revived partition interprets"
        );
    }
}

#[test]
fn dead_state_resumes_identically() {
    // No recovery policy: the partition dies and stays Dead.
    let parts = partition(&echo_design(), SW).unwrap();
    let build = || {
        let mut cs = Cosim::with_faults(
            &parts,
            SW,
            HW,
            LinkConfig::default(),
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(100)),
            SwOptions::default(),
        )
        .unwrap();
        cs.push_source("src", Value::int(32, 9));
        cs
    };
    let mut original = build();
    for _ in 0..150 {
        original.step().unwrap();
    }
    assert_eq!(
        original.partition_lifecycle(HW),
        Some(PartitionLifecycle::Dead)
    );
    let bytes = original.snapshot_bytes().unwrap();
    let mut resumed = build();
    resumed.resume_from(&mut &bytes[..]).unwrap();
    assert_eq!(
        resumed.partition_lifecycle(HW),
        Some(PartitionLifecycle::Dead),
        "resume resurrected a dead partition"
    );
    for _ in 0..100 {
        original.step().unwrap();
        resumed.step().unwrap();
    }
    assert_eq!(original.fpga_cycles, resumed.fpga_cycles);
    assert_eq!(original.sink_count("snk"), resumed.sink_count("snk"));
}

/// src(SW) -> c0 -> +1 (HW) -> c1 -> *2 (HW2) -> c2 -> +3 (HW3) -> c3 ->
/// snk(SW): three hardware partitions in a chain, so on fabric routing
/// the HW2 -> HW3 fabric link survives a failover of HW.
fn chain_cosim(schedule: &[PartitionFault]) -> Cosim {
    let mut m = ModuleBuilder::new("Chain");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("c0", 2, Type::Int(32), SW, HW);
    m.channel("c1", 2, Type::Int(32), HW, "HW2");
    m.channel("c2", 2, Type::Int(32), "HW2", "HW3");
    m.channel("c3", 2, Type::Int(32), "HW3", SW);
    m.rule("feed", with_first("x", "src", enq("c0", var("x"))));
    m.rule(
        "inc",
        with_first("x", "c0", enq("c1", add(var("x"), cint(32, 1)))),
    );
    m.rule(
        "dbl",
        with_first("x", "c1", enq("c2", mul(var("x"), cint(32, 2)))),
    );
    m.rule(
        "add3",
        with_first("x", "c2", enq("c3", add(var("x"), cint(32, 3)))),
    );
    m.rule("drain", with_first("x", "c3", enq("snk", var("x"))));
    let design = bcl_core::elaborate(&Program::with_root(m.build())).unwrap();
    let parts = partition(&design, SW).unwrap();
    let mut faults = FaultConfig::none();
    for &f in schedule {
        faults = faults.with_partition_fault(f);
    }
    let cfgs = [
        HwPartitionCfg::new(HW).with_faults(faults),
        HwPartitionCfg::new("HW2"),
        HwPartitionCfg::new("HW3"),
    ];
    let routing = InterHwRouting::fabric();
    let mut cs = Cosim::multi(&parts, SW, &cfgs, routing, SwOptions::default()).unwrap();
    cs.set_recovery_policy(RecoveryPolicy::failover(100));
    for i in 0..INPUTS {
        cs.push_source("src", Value::int(32, i * 3 + 1));
    }
    cs
}

/// Resume after a failover on a topology with more than one hardware
/// partition: replaying the splice rebuilds the surviving HW2 -> HW3
/// fabric link, and the resumed run is bit- and cycle-identical to the
/// uninterrupted one — with HW still software-owned at the snapshot
/// and at the end, revived after the snapshot, and revived before it.
#[test]
fn fabric_failover_resumes_identically() {
    use PartitionFault::{DieAt, ReviveAt};
    let want: Vec<i64> = (0..INPUTS).map(|i| (i * 3 + 2) * 2 + 3).collect();
    for (schedule, at, lifecycle, revived) in [
        (
            &[DieAt(400)][..],
            500,
            PartitionLifecycle::SoftwareOwned,
            false,
        ),
        (
            &[DieAt(400), ReviveAt(600)],
            500,
            PartitionLifecycle::SoftwareOwned,
            true,
        ),
        (
            &[DieAt(400), ReviveAt(600)],
            700,
            PartitionLifecycle::Running,
            true,
        ),
    ] {
        let mut original = chain_cosim(schedule);
        run_to_cycle(&mut original, at);
        assert_eq!(original.partition_lifecycle(HW), Some(lifecycle));
        let bytes = original.snapshot_bytes().unwrap();
        let mut resumed = chain_cosim(schedule);
        resumed.resume_from(&mut &bytes[..]).unwrap();
        assert_eq!(resumed.hw_domains(), original.hw_domains(), "{schedule:?}");
        let (vals_a, cycles_a) = finish(&mut original);
        let (vals_b, cycles_b) = finish(&mut resumed);
        assert_eq!(vals_a, want, "{schedule:?}");
        assert_eq!((vals_a, cycles_a), (vals_b, cycles_b), "{schedule:?}");
        assert_eq!(resumed.revived(), revived, "{schedule:?}");
        assert_eq!(resumed.fabric_stats(), original.fabric_stats());
        assert!(resumed.fabric_stats().words_to_hw > 0, "no fabric traffic");
    }
}

// ---- typed rejection ----------------------------------------------------

#[test]
fn wrong_design_is_rejected_with_fingerprint_mismatch() {
    let bytes = rich_snapshot_bytes();
    // Same shape, one extra pipeline stage: a different design.
    let mut m = ModuleBuilder::new("Echo");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("toHw", 2, Type::Int(32), SW, HW);
    m.channel("toSw", 3, Type::Int(32), HW, SW); // depth differs
    m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
    m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
    m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
    let other = bcl_core::elaborate(&Program::with_root(m.build())).unwrap();
    let parts = partition(&other, SW).unwrap();
    let mut cs = Cosim::new(&parts, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
    assert!(matches!(
        cs.resume_from(&mut &bytes[..]),
        Err(PersistError::FingerprintMismatch { .. })
    ));
}

#[test]
fn resume_into_stepped_cosim_is_rejected() {
    let bytes = rich_snapshot_bytes();
    let mut cs = echo_cosim(DIE_REVIVE);
    cs.step().unwrap();
    assert!(matches!(
        cs.resume_from(&mut &bytes[..]),
        Err(PersistError::TopologyMismatch(_))
    ));
}

/// Runs an application partition through the harness three ways:
/// uninterrupted, autosaving into a fresh directory, and resumed from the
/// snapshot file the autosaving run left. The autosave interval puts the
/// last save at 80% of the run, so the resumed run has work left to do.
/// Both must match the uninterrupted run's output and modeled cycles,
/// and resuming from a file that does not exist must fail.
fn assert_autosave_resumes_identically<A: Application>(app: &A, name: &str) {
    let (none, fail) = (FaultConfig::none, RecoveryPolicy::Fail);
    let clean = harness::run(app, none(), fail, ExecBackend::Compiled).expect(name);
    let interval = clean.fpga_cycles * 2 / 5;
    let dir = std::env::temp_dir().join(format!("bcl_autosave_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let saved = harness::run_autosaving(app, none(), fail, interval, &dir).expect(name);
    let snapshot = CheckpointPolicy::new(interval, &dir).snapshot_path();
    let resumed = harness::resume(app, none(), fail, &snapshot).expect(name);
    let missing = harness::resume(app, none(), fail, &dir.join("missing.bckp"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        missing.is_err(),
        "{name}: resume must read the snapshot file"
    );
    for (leg, r) in [("autosaving", &saved), ("resumed", &resumed)] {
        assert_eq!(r.output, clean.output, "{name} ({leg}): output diverged");
        assert_eq!(
            (r.fpga_cycles, r.sw_cpu_cycles),
            (clean.fpga_cycles, clean.sw_cpu_cycles),
            "{name} ({leg}): modeled cycles diverged"
        );
    }
}

#[test]
fn vorbis_autosave_resumes_identically_through_the_harness() {
    let frames = frame_stream(3, 21);
    assert_autosave_resumes_identically(&Decode(VorbisPartition::E, &frames), "vorbis_e");
}

#[test]
fn raytrace_autosave_resumes_identically_through_the_harness() {
    let bvh = build_bvh(&make_scene(48, 5));
    assert_autosave_resumes_identically(&Render(RtPartition::C, &bvh, 4, 4), "raytrace_c");
}

// ---- adversarial decoding (satellite 1) ---------------------------------

/// Byte ranges `[start, end)` of each section (past the 24-byte
/// header), derived from the container layout.
fn section_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = 24;
    while off < bytes.len() {
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let end = off + 12 + len + 4;
        out.push((off, end));
        off = end;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any strict prefix of a valid snapshot — of either format
    /// version — fails to decode, and never panics or over-allocates.
    #[test]
    fn truncations_are_rejected(cut in any::<u64>()) {
        for bytes in version_images() {
            let n = (cut as usize) % bytes.len();
            prop_assert!(Checkpoint::read_from(&mut &bytes[..n]).is_err());
            prop_assert!(resume_fresh(&bytes[..n]).is_err());
        }
    }

    /// Any single-byte corruption anywhere in a file of either version
    /// is rejected: every byte is covered by the magic, a CRC, or is
    /// CRC material.
    #[test]
    fn byte_flips_are_rejected((pos, mask) in (any::<u64>(), 1u8..=255)) {
        for bytes in version_images() {
            let mut bad = bytes.to_vec();
            let i = (pos as usize) % bad.len();
            bad[i] ^= mask;
            prop_assert!(Checkpoint::read_from(&mut bad.as_slice()).is_err(), "flip at {}", i);
            prop_assert!(resume_fresh(&bad).is_err());
        }
    }

    /// Swapping any two sections violates the canonical order and is
    /// rejected (index tags catch swaps of same-kind sections).
    #[test]
    fn section_reorderings_are_rejected((a, b) in (any::<u64>(), any::<u64>())) {
        for bytes in version_images() {
            let ranges = section_ranges(bytes);
            let i = (a as usize) % ranges.len();
            let j = (b as usize) % ranges.len();
            prop_assume!(i != j);
            let (i, j) = (i.min(j), i.max(j));
            let mut swapped = bytes[..ranges[i].0].to_vec();
            swapped.extend_from_slice(&bytes[ranges[j].0..ranges[j].1]);
            swapped.extend_from_slice(&bytes[ranges[i].1..ranges[j].0]);
            swapped.extend_from_slice(&bytes[ranges[i].0..ranges[i].1]);
            swapped.extend_from_slice(&bytes[ranges[j].1..]);
            prop_assert!(Checkpoint::read_from(&mut swapped.as_slice()).is_err());
            prop_assert!(resume_fresh(&swapped).is_err());
        }
    }

    /// Corruption *behind* the CRC (flip a payload byte, re-seal the
    /// section checksum) reaches the structural decoders; they must
    /// return typed errors or benign data — never panic or OOM. This is
    /// the no-length-trusted-preallocation property under fire.
    #[test]
    fn resealed_corruption_never_panics((sec, pos, mask) in (any::<u64>(), any::<u64>(), 1u8..=255)) {
        for bytes in version_images() {
            let ranges = section_ranges(bytes);
            let (start, end) = ranges[(sec as usize) % ranges.len()];
            let mut bad = bytes.to_vec();
            let body = start..end - 4;
            let i = body.start + (pos as usize) % body.len();
            bad[i] ^= mask;
            let crc = bcl_platform::wire::crc32_bytes(&bad[body.clone()]);
            bad[end - 4..end].copy_from_slice(&crc.to_le_bytes());
            // Must not panic; Ok (benign payload mutation) and Err are
            // both acceptable outcomes — on either store backend.
            let _ = Checkpoint::read_from(&mut bad.as_slice());
            let _ = resume_fresh(&bad);
            let _ = resume_fresh_on(&bad, true);
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn random_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(Checkpoint::read_from(&mut data.as_slice()).is_err());
    }
}

// ---- format stability (golden fixtures) ----------------------------------

fn read_fixture(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path} ({e}); regenerate deliberately with \
             `cargo test -- --ignored regenerate_golden_fixture`"
        )
    })
}

/// The version field (bytes 4..8 of the header) of a snapshot image.
fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

/// The committed fixtures really are cross-version evidence: the v1
/// file is stamped with the oldest supported version, the v2 file (and
/// anything the current writer emits) with the current one.
#[test]
fn fixtures_carry_their_committed_format_versions() {
    assert_eq!(version_of(&read_fixture(FIXTURE)), MIN_FORMAT_VERSION);
    assert_eq!(version_of(&read_fixture(FIXTURE_V2)), FORMAT_VERSION);
    assert_eq!(version_of(rich_snapshot_bytes()), FORMAT_VERSION);
}

/// Backward compatibility: the v2 decoder reads a file written by the
/// v1 writer, and the resumed run completes bit-for-bit.
#[test]
fn golden_v1_fixture_still_decodes_and_resumes() {
    let bytes = read_fixture(FIXTURE);
    let ckpt = Checkpoint::read_from(&mut bytes.as_slice()).expect(
        "committed v1 .bckp no longer decodes — the v1 compatibility contract is \
         broken; the reader must accept every version down to MIN_FORMAT_VERSION",
    );
    assert_eq!(ckpt.fpga_cycles(), FIXTURE_CYCLE);
    // Not just parseable: the fixture must still *resume* against the
    // current elaboration (fingerprint + topology + state layout).
    let mut resumed = resume_fresh(&bytes).expect(
        "v1 golden fixture decodes but no longer resumes — design fingerprint or \
         snapshot semantics changed; regenerate the fixture deliberately",
    );
    let (vals, _) = finish(&mut resumed);
    assert_eq!(vals.len(), INPUTS as usize);
    assert_eq!(vals[0], 1);
}

/// Current-format stability: the flat-arena v2 fixture decodes and
/// resumes into a flat-backed cosim, landing the same output stream
/// and cycle count as the v1 (tree) fixture — the two backends are
/// interchangeable down to the durable image.
#[test]
fn golden_v2_fixture_still_decodes_and_resumes() {
    let bytes = read_fixture(FIXTURE_V2);
    let ckpt = Checkpoint::read_from(&mut bytes.as_slice()).expect(
        "committed v2 .bckp no longer decodes — the on-disk format changed; \
         bump FORMAT_VERSION and regenerate the fixture deliberately",
    );
    assert_eq!(ckpt.fpga_cycles(), FIXTURE_CYCLE);
    let mut resumed = resume_fresh_on(&bytes, true).expect(
        "v2 golden fixture decodes but no longer resumes — design fingerprint or \
         flat snapshot semantics changed; regenerate the fixture deliberately",
    );
    let (vals, cycles) = finish(&mut resumed);
    assert_eq!(vals.len(), INPUTS as usize);
    assert_eq!(vals[0], 1);

    let mut tree = resume_fresh(&read_fixture(FIXTURE)).unwrap();
    let (tree_vals, tree_cycles) = finish(&mut tree);
    assert_eq!(vals, tree_vals, "flat resume diverged from tree resume");
    assert_eq!(cycles, tree_cycles, "flat resume cycle count diverged");
}

/// A snapshot captured from one store backend is rejected — with a
/// typed error, never a panic — when resumed into the other.
#[test]
fn cross_backend_resume_is_typed_topology_mismatch() {
    let flat_into_tree = resume_fresh(&read_fixture(FIXTURE_V2));
    assert!(matches!(
        flat_into_tree,
        Err(PersistError::TopologyMismatch(_))
    ));
    let tree_into_flat = resume_fresh_on(&read_fixture(FIXTURE), true);
    assert!(matches!(
        tree_into_flat,
        Err(PersistError::TopologyMismatch(_))
    ));
}

/// Deliberate regeneration of the golden fixtures after a format change:
/// `cargo test --test persist_format -- --ignored regenerate_golden_fixture`.
///
/// The current writer always stamps [`FORMAT_VERSION`]; a tree
/// snapshot's body is byte-identical to the v1 encoding, so the v1
/// fixture is the tree image with the version field patched back to 1
/// and the header CRC re-sealed.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all("tests/fixtures").unwrap();
    let mut v1 = rich_snapshot_bytes().to_vec();
    v1[4..8].copy_from_slice(&MIN_FORMAT_VERSION.to_le_bytes());
    let crc = bcl_platform::wire::crc32_bytes(&v1[..20]);
    v1[20..24].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(FIXTURE, v1).unwrap();
    std::fs::write(FIXTURE_V2, rich_snapshot_bytes_flat()).unwrap();
}
