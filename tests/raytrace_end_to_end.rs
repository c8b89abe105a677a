//! Cross-crate integration: the ray tracer through the full pipeline,
//! including the partition-economics claims of §7.2.

use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::{gen_rays, make_scene};
use bcl_raytrace::native::{render, render_with_stats, TraceStats};
use bcl_raytrace::partitions::{run_partition, RtPartition};

#[test]
fn all_partitions_render_the_native_image() {
    let bvh = build_bvh(&make_scene(64, 33));
    let (w, h) = (4, 4);
    let golden = render(&bvh, &gen_rays(w, h));
    for p in RtPartition::ALL {
        let run = run_partition(p, &bvh, w, h).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert_eq!(run.output, golden, "partition {}", p.label());
    }
}

#[test]
fn partition_cost_shape_matches_figure_13_right() {
    let bvh = build_bvh(&make_scene(96, 17));
    let t = |p| run_partition(p, &bvh, 6, 6).unwrap().fpga_cycles;
    let (a, b, c, d) = (
        t(RtPartition::A),
        t(RtPartition::B),
        t(RtPartition::C),
        t(RtPartition::D),
    );
    // §7.2: "The fastest partitioning given (C) has the ray/geometry
    // intersection engine implemented in hardware, and the scene geometry
    // stored in low-latency-access on-chip block RAMs. ... Configurations
    // B and D, though they both use HW acceleration, are slower than the
    // pure software implementation."
    assert!(c < a, "C={c} A={a}");
    assert!(b > a, "B={b} A={a}");
    assert!(d > a, "D={d} A={a}");
    // And C is dramatically faster, not marginally.
    assert!(c * 3 < a, "C={c} should be several times faster than A={a}");
}

#[test]
fn traffic_reflects_the_scene_memory_placement() {
    let bvh = build_bvh(&make_scene(48, 9));
    let b = run_partition(RtPartition::B, &bvh, 4, 4).unwrap();
    let c = run_partition(RtPartition::C, &bvh, 4, 4).unwrap();
    let d = run_partition(RtPartition::D, &bvh, 4, 4).unwrap();
    // B ships triangle data with every request; C ships each ray once.
    assert!(b.link.words_to_hw > c.link.words_to_hw);
    // D's responses flow SW->HW (hit records back to the traversal FSM).
    assert!(d.link.msgs_to_hw > c.link.msgs_to_hw);
    // C's only HW-bound traffic is the ray stream: 10 words per ray.
    assert_eq!(c.link.words_to_hw, 16 * 10);
}

#[test]
fn traversal_stats_are_consistent_with_bvh_structure() {
    let scene = make_scene(128, 5);
    let bvh = build_bvh(&scene);
    let rays = gen_rays(8, 8);
    let mut stats = TraceStats::default();
    render_with_stats(&bvh, &rays, &mut stats);
    assert!(stats.steps >= stats.leaves, "every leaf visit is a step");
    assert!(
        stats.tri_tests <= stats.leaves * bcl_raytrace::bvh::LEAF_SIZE as u64,
        "leaf size bounds tests per visit"
    );
    assert!(stats.hits <= rays.len() as u64);
}

#[test]
fn determinism_across_runs() {
    let bvh = build_bvh(&make_scene(32, 4));
    let r1 = run_partition(RtPartition::D, &bvh, 4, 2).unwrap();
    let r2 = run_partition(RtPartition::D, &bvh, 4, 2).unwrap();
    assert_eq!(r1.output, r2.output);
    assert_eq!(r1.fpga_cycles, r2.fpga_cycles);
}
