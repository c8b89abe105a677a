//! Cross-crate integration: the Vorbis back-end through every layer of
//! the system — builder, elaboration, domain inference, partitioning,
//! co-simulation — against the native and event-driven baselines.

use bcl_vorbis::bcl::{build_design, BackendOptions};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{run_partition, VorbisPartition};
use bcl_vorbis::sysc::run_systemc_baseline;

#[test]
fn all_eight_implementations_agree() {
    // Six partitions + hand-written native + SystemC-style, all decoding
    // the same stream to the same bits — the paper's interoperability
    // claim made executable.
    let frames = frame_stream(5, 71);
    let golden = NativeBackend::new().run(&frames);
    for p in VorbisPartition::ALL {
        let run = run_partition(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert_eq!(run.output, golden, "partition {}", p.label());
    }
    let sysc = run_systemc_baseline(&frames, Default::default());
    assert_eq!(sysc.pcm, golden, "SystemC-style baseline");
}

#[test]
fn partition_cost_shape_matches_figure_13() {
    let frames = frame_stream(15, 2012);
    let t = |p| run_partition(p, &frames).unwrap().fpga_cycles;
    let a = t(VorbisPartition::A);
    let c = t(VorbisPartition::C);
    let d = t(VorbisPartition::D);
    let e = t(VorbisPartition::E);
    let f = t(VorbisPartition::F);
    // §7.1: "the slowest partition is not the one which computes
    // everything in SW (F). In fact, partitions A and C are both slightly
    // slower than F."
    assert!(a > f, "A={a} F={f}");
    assert!(c > f, "C={c} F={f}");
    // Full-hardware back-end wins; IMDCT+IFFT in hardware is second.
    assert!(e < d && d < f, "E={e} D={d} F={f}");
}

#[test]
fn baseline_relationship_matches_figure_13() {
    let frames = frame_stream(15, 2012);
    let f = run_partition(VorbisPartition::F, &frames).unwrap();
    let mut native = NativeBackend::new();
    native.run(&frames);
    let f2 = native.cpu_cycles() / 4;
    let f1 = run_systemc_baseline(&frames, Default::default()).cpu_cycles / 4;
    // "The SystemC implementation is roughly 3x slower"; "the manual C++
    // version is slightly faster than the generated one".
    let ratio = f1 as f64 / f2 as f64;
    assert!((2.0..4.5).contains(&ratio), "F1/F2 = {ratio:.2}");
    assert!(f2 < f.fpga_cycles, "hand-written must beat generated");
    assert!(
        f.fpga_cycles < f1,
        "generated ({}) must beat event-driven simulation ({f1})",
        f.fpga_cycles
    );
}

#[test]
fn hardware_partitions_pass_the_hw_legality_check() {
    use bcl_core::domain::{HW, SW};
    use bcl_core::partition::partition;
    use bcl_core::sched::hw_check;
    for p in VorbisPartition::ALL {
        let opts = BackendOptions {
            domains: p.domains(),
            ..Default::default()
        };
        let d = build_design(&opts).unwrap();
        let parts = partition(&d, SW).unwrap();
        if let Ok(hw) = parts.partition(HW) {
            hw_check(hw).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        }
    }
}

#[test]
fn generated_code_emits_for_both_sides() {
    use bcl_core::domain::{HW, SW};
    use bcl_core::partition::partition;
    let opts = BackendOptions {
        domains: VorbisPartition::D.domains(),
        ..Default::default()
    };
    let d = build_design(&opts).unwrap();
    let parts = partition(&d, SW).unwrap();
    let bsv = bcl_backend::emit_bsv(parts.partition(HW).unwrap()).unwrap();
    assert!(bsv.contains("module mk"));
    assert!(bsv.contains("rule ifft_stage1"), "{bsv}");
    let cxx = bcl_backend::emit_cxx(parts.partition(SW).unwrap(), Default::default());
    assert!(cxx.contains("bool drain()"), "SW keeps the drain rule");
}

#[test]
fn determinism_across_runs() {
    let frames = frame_stream(6, 3);
    let r1 = run_partition(VorbisPartition::C, &frames).unwrap();
    let r2 = run_partition(VorbisPartition::C, &frames).unwrap();
    assert_eq!(r1.output, r2.output);
    assert_eq!(
        r1.fpga_cycles, r2.fpga_cycles,
        "the whole cosim is deterministic"
    );
    assert_eq!(r1.link, r2.link);
}
