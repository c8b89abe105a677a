//! Lowering coverage: on the compiled backend every rule of every
//! shipped partition runs as native closures, none on the interpreter.
//!
//! The compiled backend falls back to the AST interpreter, per guard and
//! per body, for what its lowering declines (see `bcl_core::compile`).
//! That fallback is correct but slow, and nothing else would notice a
//! rule drifting onto it, so this pins the count at zero for the ten
//! Figure 13 partitions and the three-domain variants.

use bcl_core::sched::ExecBackend;
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{build_cosim as rt_build_cosim, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{build_cosim as vorbis_build_cosim, VorbisPartition};

#[test]
fn vorbis_partitions_run_fully_compiled() {
    let frames = frame_stream(1, 3);
    for part in VorbisPartition::ALL.into_iter().chain([VorbisPartition::G]) {
        let cosim = vorbis_build_cosim(part, &frames, ExecBackend::Compiled).unwrap();
        assert_eq!(
            cosim.interpreted_rules(),
            0,
            "Vorbis partition {} has interpreted rules",
            part.label()
        );
        let naive = vorbis_build_cosim(part, &frames, ExecBackend::Naive).unwrap();
        assert!(naive.interpreted_rules() > 0, "the reference interprets");
    }
}

#[test]
fn raytrace_partitions_run_fully_compiled() {
    let bvh = build_bvh(&make_scene(16, 5));
    for part in RtPartition::ALL.into_iter().chain([RtPartition::E]) {
        let cosim = rt_build_cosim(part, &bvh, 2, 2, ExecBackend::Compiled).unwrap();
        assert_eq!(
            cosim.interpreted_rules(),
            0,
            "ray tracer partition {} has interpreted rules",
            part.label()
        );
    }
}
