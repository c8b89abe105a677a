//! The four HW/SW decompositions of the ray tracer (Figure 14) and what
//! the [`harness`] needs to measure them on the modeled platform
//! (Figure 13, right).
//!
//! | Partition | BVH Trav + Box Inter + BVH Mem | Geom Inter | Scene Mem |
//! |---|---|---|---|
//! | A (full SW) | SW | SW | SW |
//! | B | SW | **HW** | SW (triangles shipped per request) |
//! | C | **HW** | **HW** | **HW** (on-chip block RAM) |
//! | D | **HW** | SW | SW |
//!
//! Ray Gen and the Bitmap always stay in software. The paper's findings:
//! C is fastest (intersection engine plus scene in BRAM — only rays and
//! hits cross the bus); B and D are *slower than all-software A* because
//! each leaf visit pays a bus crossing.

use crate::bcl::{build_design, image_of_values, RtConfig};
use crate::bvh::Bvh;
use bcl_core::design::Design;
use bcl_core::domain::{HW, HW2, SW};
use bcl_core::error::ElabError;
use bcl_core::sched::ExecBackend;
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, RecoveryPolicy};
use bcl_platform::harness::{self, Application, PartitionRun};
use bcl_platform::link::FaultConfig;
use bcl_platform::PlatformError;

pub use bcl_platform::harness::ml507_link;

/// The partitions evaluated in Figure 13 (right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtPartition {
    /// Full software.
    A,
    /// Geometry intersection in hardware, scene memory in software.
    B,
    /// Traversal + intersection in hardware with on-chip scene memory.
    C,
    /// Traversal in hardware, geometry intersection + scene in software.
    D,
    /// Traversal and geometry intersection in *separate* accelerators
    /// (scene memory on-chip with the intersection engine): the
    /// three-domain decomposition exercising the multi-accelerator
    /// co-simulation — the request/response streams cross between the
    /// two hardware partitions.
    E,
}

impl RtPartition {
    /// All partitions in presentation order.
    pub const ALL: [RtPartition; 4] = [
        RtPartition::A,
        RtPartition::B,
        RtPartition::C,
        RtPartition::D,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            RtPartition::A => "A",
            RtPartition::B => "B",
            RtPartition::C => "C",
            RtPartition::D => "D",
            RtPartition::E => "E",
        }
    }

    /// Human-readable description.
    pub fn description(&self) -> &'static str {
        match self {
            RtPartition::A => "full SW",
            RtPartition::B => "Geom Inter in HW, scene in SW",
            RtPartition::C => "Trav+Geom in HW, scene in BRAM",
            RtPartition::D => "Trav in HW, Geom+scene in SW",
            RtPartition::E => "Trav and Geom+scene in separate accelerators",
        }
    }

    /// The builder configuration for this partition.
    pub fn config(&self, width: usize, height: usize) -> RtConfig {
        let (trav, geom, remote) = match self {
            RtPartition::A => (SW, SW, false),
            RtPartition::B => (SW, HW, true),
            RtPartition::C => (HW, HW, false),
            RtPartition::D => (HW, SW, false),
            RtPartition::E => (HW, HW2, false),
        };
        RtConfig {
            trav: trav.into(),
            geom: geom.into(),
            remote_scene: remote,
            width,
            height,
            depth: 4,
        }
    }
}

/// The result of tracing a scene under one partition: `output` is the
/// rendered image in pixel order, `items` the rays traced.
pub type RtRun = PartitionRun<RtPartition>;

/// One partition rendering a `width`×`height` image of a scene: what the
/// [`harness`] needs to build and run it. In partition E the fault model
/// hits the traversal accelerator.
#[derive(Debug, Clone, Copy)]
pub struct Render<'a>(
    /// Partition measured.
    pub RtPartition,
    /// The scene's bounding volume hierarchy.
    pub &'a Bvh,
    /// Image width in pixels.
    pub usize,
    /// Image height in pixels.
    pub usize,
);

impl Application for Render<'_> {
    type Partition = RtPartition;
    const SOURCE: &'static str = "pixSrc";
    const SINK: &'static str = "bitmap";
    const CYCLES_PER_ITEM: u64 = 60_000;
    const CYCLE_SLACK: u64 = 50_000;

    fn partition(&self) -> RtPartition {
        self.0
    }

    fn placement(&self) -> Vec<String> {
        let cfg = self.0.config(self.2, self.3);
        vec![cfg.trav, cfg.geom]
    }

    fn design(&self) -> Result<Design, ElabError> {
        let cfg = self.0.config(self.2, self.3);
        build_design(self.1, &cfg)
    }

    fn items(&self) -> usize {
        self.2 * self.3
    }

    fn input(&self, i: usize) -> Value {
        Value::int(32, i as i64)
    }

    fn decode(&self, values: &[Value]) -> Vec<i64> {
        image_of_values(values, self.items())
    }
}

/// Renders a scene under one partition on the production
/// [`ExecBackend::Compiled`] path; the other variants are the
/// [`harness`] functions applied to a [`Render`].
///
/// # Errors
///
/// Build, partitioning and platform errors, and simulation timeouts.
pub fn run_partition(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
) -> Result<RtRun, PlatformError> {
    let app = Render(which, bvh, width, height);
    harness::run(
        &app,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Compiled,
    )
}

/// [`harness::build`] for a partition, with the ray stream queued:
/// `event_driven` selects [`ExecBackend::Compiled`], `false` the
/// [`ExecBackend::Naive`] reference.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn make_cosim(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    event_driven: bool,
) -> Result<Cosim, PlatformError> {
    let backend = if event_driven {
        ExecBackend::Compiled
    } else {
        ExecBackend::Naive
    };
    let app = Render(which, bvh, width, height);
    harness::build(&app, faults, policy, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::build_bvh;
    use crate::geom::{gen_rays, make_scene};
    use crate::native::render;

    #[test]
    fn every_partition_renders_identically() {
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let want = render(&bvh, &gen_rays(w, h));
        for p in RtPartition::ALL {
            let run = run_partition(p, &bvh, w, h).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(run.output, want, "partition {}", p.label());
        }
    }

    #[test]
    fn figure13_right_shape_holds() {
        // C fastest; B and D slower than all-software A (§7.2).
        let scene = make_scene(96, 17);
        let bvh = build_bvh(&scene);
        let (w, h) = (6, 6);
        let t = |p| {
            run_partition(p, &bvh, w, h)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"))
                .fpga_cycles
        };
        let (a, b, c, d) = (
            t(RtPartition::A),
            t(RtPartition::B),
            t(RtPartition::C),
            t(RtPartition::D),
        );
        assert!(c < a, "C ({c}) must beat full software ({a})");
        assert!(b > a, "B ({b}) must lose to full software ({a})");
        assert!(d > a, "D ({d}) must lose to full software ({a})");
    }

    #[test]
    fn partition_faults_recover_to_identical_image() {
        use bcl_platform::link::PartitionFault;
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let clean = run_partition(RtPartition::C, &bvh, 2, 2).unwrap();
        let restart = harness::run(
            &Render(RtPartition::C, &bvh, 2, 2),
            FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(2_000)),
            RecoveryPolicy::restart(1_000),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert_eq!(restart.output, clean.output);
        assert_eq!(restart.fpga_cycles, clean.fpga_cycles);
        let failover = harness::run(
            &Render(RtPartition::C, &bvh, 2, 2),
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(2_000)),
            RecoveryPolicy::failover(1_000),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert_eq!(failover.output, clean.output);
    }

    #[test]
    fn three_domain_partition_renders_identically_and_survives_death() {
        use bcl_platform::link::PartitionFault;
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let want = render(&bvh, &gen_rays(w, h));
        let clean = run_partition(RtPartition::E, &bvh, w, h).unwrap();
        assert_eq!(clean.output, want, "partition E output mismatch");
        assert_eq!(clean.hw_partitions, 2, "E runs two accelerators");
        // Kill the traversal accelerator mid-render: the image must come
        // out bit-identical, with the intersection accelerator still in
        // hardware at the end.
        let die_at = clean.fpga_cycles / 2;
        let failover = harness::run(
            &Render(RtPartition::E, &bvh, w, h),
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert!(
            failover.fpga_cycles > die_at,
            "the fault must strike mid-render"
        );
        assert_eq!(failover.output, clean.output);
        assert!(failover.failed_over);
        assert_eq!(
            failover.hw_partitions, 1,
            "the intersection accelerator must survive in hardware"
        );
    }

    #[test]
    fn traversal_death_then_revival_finishes_render_in_hardware() {
        use bcl_platform::link::PartitionFault;
        // Full lifecycle on the two-accelerator partition: the traversal
        // accelerator dies mid-render, software absorbs it (the
        // intersection accelerator keeps running in hardware), then a
        // scripted revival splices traversal back out into hardware and
        // the render finishes with both accelerators live.
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let clean = run_partition(RtPartition::E, &bvh, w, h).unwrap();
        let die_at = clean.fpga_cycles / 2;
        // Shortly after the failover grace period (die_at / 4): with the
        // intersection accelerator still in hardware the software-owned
        // phase is not dramatically slower, so an early revival is the
        // only schedule guaranteed to fire before the render completes.
        let revive_at = die_at + die_at / 2;
        let run = harness::run(
            &Render(RtPartition::E, &bvh, w, h),
            FaultConfig::none()
                .with_partition_fault(PartitionFault::DieAt(die_at))
                .with_partition_fault(PartitionFault::ReviveAt(revive_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert!(run.failed_over, "the death must strike mid-render");
        assert!(run.revived, "the revival must fire before the render ends");
        assert_eq!(
            run.output, clean.output,
            "die → failover → revive must not change the image"
        );
        assert_eq!(
            run.hw_partitions, 2,
            "both accelerators must finish the render in hardware"
        );
    }

    #[test]
    fn compiled_matches_naive_reference_on_partitions() {
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        for p in [RtPartition::A, RtPartition::C] {
            let app = Render(p, &bvh, w, h);
            let base = harness::run(
                &app,
                FaultConfig::none(),
                RecoveryPolicy::Fail,
                ExecBackend::Naive,
            )
            .unwrap();
            let compiled = run_partition(p, &bvh, w, h).unwrap();
            assert_eq!(compiled.output, base.output, "partition {}", p.label());
            assert_eq!(
                compiled.fpga_cycles,
                base.fpga_cycles,
                "partition {}",
                p.label()
            );
            assert_eq!(
                compiled.sw_cpu_cycles,
                base.sw_cpu_cycles,
                "partition {}",
                p.label()
            );
        }
    }

    #[test]
    fn full_sw_has_no_traffic() {
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let run = run_partition(RtPartition::A, &bvh, 2, 2).unwrap();
        assert_eq!(run.link.msgs_to_hw, 0);
    }

    #[test]
    fn partition_b_ships_triangles() {
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let b = run_partition(RtPartition::B, &bvh, 2, 2).unwrap();
        let c = run_partition(RtPartition::C, &bvh, 2, 2).unwrap();
        assert!(
            b.link.words_to_hw > c.link.words_to_hw,
            "B ({} words) carries triangle data; C ({} words) only rays",
            b.link.words_to_hw,
            c.link.words_to_hw
        );
    }
}
