//! The six HW/SW decompositions of the Vorbis back-end (Figure 12) and
//! what the [`harness`] needs to measure them on the modeled platform
//! (Figure 13, left).
//!
//! | Partition | IMDCT FSMs + tables | IFFT core | Window |
//! |---|---|---|---|
//! | F (full SW) | SW | SW | SW |
//! | A | SW | SW | **HW** |
//! | B | SW | **HW** | SW |
//! | C | SW | **HW** | **HW** |
//! | D | **HW** | **HW** | SW |
//! | E (full HW back-end) | **HW** | **HW** | **HW** |
//!
//! The input stream always originates in software (the Vorbis front end
//! is plain C++ in the paper) and the PCM output is always consumed in
//! software.

use crate::bcl::{build_design, frame_value, pcm_of_values, BackendOptions, VorbisDomains};
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

/// The partitions evaluated in Figure 13 (left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VorbisPartition {
    /// Window in hardware; IMDCT and IFFT in software.
    A,
    /// IFFT core in hardware.
    B,
    /// IFFT core and window in hardware, IMDCT in software.
    C,
    /// IMDCT and IFFT in hardware, window in software.
    D,
    /// Entire back-end in hardware.
    E,
    /// Entire back-end in software.
    F,
    /// IMDCT and IFFT in one accelerator, windowing in a second: the
    /// three-domain decomposition exercising the multi-accelerator
    /// co-simulation (the `chPost` stream crosses between the two
    /// hardware partitions).
    G,
}

impl VorbisPartition {
    /// All partitions, in the paper's presentation order.
    pub const ALL: [VorbisPartition; 6] = [
        VorbisPartition::A,
        VorbisPartition::B,
        VorbisPartition::C,
        VorbisPartition::D,
        VorbisPartition::E,
        VorbisPartition::F,
    ];

    /// The label used in Figure 13.
    pub fn label(&self) -> &'static str {
        match self {
            VorbisPartition::A => "A",
            VorbisPartition::B => "B",
            VorbisPartition::C => "C",
            VorbisPartition::D => "D",
            VorbisPartition::E => "E",
            VorbisPartition::F => "F",
            VorbisPartition::G => "G",
        }
    }

    /// Human-readable description of the hardware contents.
    pub fn description(&self) -> &'static str {
        match self {
            VorbisPartition::A => "window in HW",
            VorbisPartition::B => "IFFT in HW",
            VorbisPartition::C => "IFFT + window in HW",
            VorbisPartition::D => "IMDCT + IFFT in HW",
            VorbisPartition::E => "full back-end in HW",
            VorbisPartition::F => "full SW",
            VorbisPartition::G => "IMDCT + IFFT in one accelerator, window in a second",
        }
    }

    /// Domain placement for this partition.
    pub fn domains(&self) -> VorbisDomains {
        let (imdct, ifft, window) = match self {
            VorbisPartition::A => (SW, SW, HW),
            VorbisPartition::B => (SW, HW, SW),
            VorbisPartition::C => (SW, HW, HW),
            VorbisPartition::D => (HW, HW, SW),
            VorbisPartition::E => (HW, HW, HW),
            VorbisPartition::F => (SW, SW, SW),
            VorbisPartition::G => (HW, HW, HW2),
        };
        VorbisDomains {
            imdct: imdct.into(),
            ifft: ifft.into(),
            window: window.into(),
        }
    }
}

/// The result of running one partition over a frame stream: `output` is
/// the decoded PCM, `items` the frames decoded.
pub type VorbisRun = PartitionRun<VorbisPartition>;

/// One partition decoding a frame stream: what the [`harness`] needs to
/// build and run it. In partition G the fault model hits IMDCT+IFFT.
#[derive(Debug, Clone, Copy)]
pub struct Decode<'a>(
    /// Partition measured.
    pub VorbisPartition,
    /// Input frames, one source value each.
    pub &'a [Vec<i64>],
);

impl Application for Decode<'_> {
    type Partition = VorbisPartition;
    const SOURCE: &'static str = "src";
    const SINK: &'static str = "audioDev";
    // Generous: even the slowest partition needs < 40k cycles per frame.
    const CYCLES_PER_ITEM: u64 = 40_000;
    const CYCLE_SLACK: u64 = 10_000;

    fn partition(&self) -> VorbisPartition {
        self.0
    }

    fn placement(&self) -> Vec<String> {
        let d = self.0.domains();
        vec![d.imdct, d.ifft, d.window]
    }

    fn design(&self) -> Result<Design, ElabError> {
        let opts = BackendOptions {
            domains: self.0.domains(),
            ..Default::default()
        };
        build_design(&opts)
    }

    fn items(&self) -> usize {
        self.1.len()
    }

    fn input(&self, i: usize) -> Value {
        frame_value(&self.1[i])
    }

    fn decode(&self, values: &[Value]) -> Vec<i64> {
        pcm_of_values(values)
    }
}

/// Decodes a frame stream under one partition on the production
/// [`ExecBackend::Compiled`] path; the other variants are the
/// [`harness`] functions applied to a [`Decode`].
///
/// # Errors
///
/// Build, partitioning and platform errors, and simulation timeouts.
pub fn run_partition(
    which: VorbisPartition,
    frames: &[Vec<i64>],
) -> Result<VorbisRun, PlatformError> {
    let app = Decode(which, frames);
    harness::run(
        &app,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Compiled,
    )
}

/// [`harness::build`] for a partition, with the input frames queued:
/// `event_driven` selects [`ExecBackend::Compiled`], `false` the
/// [`ExecBackend::Naive`] reference.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn make_cosim(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    event_driven: bool,
) -> Result<Cosim, PlatformError> {
    let backend = if event_driven {
        ExecBackend::Compiled
    } else {
        ExecBackend::Naive
    };
    let app = Decode(which, frames);
    harness::build(&app, faults, policy, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::frame_stream;
    use crate::native::NativeBackend;

    #[test]
    fn every_partition_decodes_identically() {
        let frames = frame_stream(3, 21);
        let expected = NativeBackend::new().run(&frames);
        for p in VorbisPartition::ALL {
            let run = run_partition(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(
                run.output,
                expected,
                "partition {} output mismatch",
                p.label()
            );
            assert!(run.fpga_cycles > 0);
        }
    }

    #[test]
    fn partition_faults_recover_to_identical_pcm() {
        use bcl_platform::link::PartitionFault;
        let frames = frame_stream(2, 21);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        // Mid-decode reset, restart from checkpoint: identical PCM *and*
        // identical end-to-end time (the replay converges to the
        // fault-free trajectory).
        let restart = harness::run(
            &Decode(VorbisPartition::E, &frames),
            FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(5_000)),
            RecoveryPolicy::restart(2_000),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert_eq!(restart.output, clean.output);
        assert_eq!(restart.fpga_cycles, clean.fpga_cycles);
        // Mid-decode death, software takeover: identical PCM, slower.
        let failover = harness::run(
            &Decode(VorbisPartition::E, &frames),
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(5_000)),
            RecoveryPolicy::failover(2_000),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert_eq!(failover.output, clean.output);
    }

    #[test]
    fn accelerator_death_then_revival_finishes_decode_in_hardware() {
        use bcl_platform::link::PartitionFault;
        // The full lifecycle on the all-hardware partition: the
        // accelerator dies mid-decode, software takes over, then a
        // scripted revival moves the live state back into hardware and
        // the decode finishes there — bit-identical to the clean run.
        let frames = frame_stream(2, 21);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        let die_at = clean.fpga_cycles / 2;
        // Well inside the software-owned phase: software decodes at a
        // fraction of hardware speed, so one clean-run-length after the
        // death it still has most of the remaining frames queued.
        let revive_at = die_at + clean.fpga_cycles;
        let run = harness::run(
            &Decode(VorbisPartition::E, &frames),
            FaultConfig::none()
                .with_partition_fault(PartitionFault::DieAt(die_at))
                .with_partition_fault(PartitionFault::ReviveAt(revive_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert!(run.failed_over, "the death must strike mid-decode");
        assert!(run.revived, "the revival must fire before the decode ends");
        assert_eq!(
            run.output, clean.output,
            "die → failover → revive must not change the PCM"
        );
        assert_eq!(
            run.hw_partitions, 1,
            "the decode must finish back in hardware"
        );
    }

    #[test]
    fn three_domain_partition_decodes_identically() {
        let frames = frame_stream(3, 21);
        let expected = NativeBackend::new().run(&frames);
        let run = run_partition(VorbisPartition::G, &frames).unwrap();
        assert_eq!(run.output, expected, "G output mismatch");
        assert_eq!(run.hw_partitions, 2, "G runs two accelerators");
        assert!(!run.failed_over);
    }

    #[test]
    fn three_domain_accelerator_death_fails_over_survivor_stays_in_hw() {
        use bcl_platform::link::PartitionFault;
        // The headline multi-accelerator scenario: the IMDCT+IFFT
        // accelerator dies mid-stream, the run completes bit-identical to
        // the fault-free decode, and the window accelerator keeps
        // executing in hardware throughout.
        let frames = frame_stream(3, 21);
        let clean = run_partition(VorbisPartition::G, &frames).unwrap();
        let die_at = clean.fpga_cycles / 2;
        let failover = harness::run(
            &Decode(VorbisPartition::G, &frames),
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
            ExecBackend::Compiled,
        )
        .unwrap();
        assert!(
            failover.fpga_cycles > die_at,
            "the fault must strike mid-stream"
        );
        assert_eq!(
            failover.output, clean.output,
            "death must not corrupt the PCM"
        );
        assert!(failover.failed_over);
        assert_eq!(
            failover.hw_partitions, 1,
            "the window accelerator must survive in hardware"
        );
    }

    #[test]
    fn compiled_matches_naive_reference_on_partitions() {
        let frames = frame_stream(2, 21);
        for p in [VorbisPartition::E, VorbisPartition::F] {
            let app = Decode(p, &frames);
            let base = harness::run(
                &app,
                FaultConfig::none(),
                RecoveryPolicy::Fail,
                ExecBackend::Naive,
            )
            .unwrap();
            let compiled = run_partition(p, &frames).unwrap();
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
    fn full_sw_has_no_link_traffic() {
        let frames = frame_stream(2, 3);
        let run = run_partition(VorbisPartition::F, &frames).unwrap();
        assert_eq!(run.link.msgs_to_hw, 0);
        assert_eq!(run.link.msgs_to_sw, 0);
    }

    #[test]
    fn full_hw_crosses_only_frames_and_pcm() {
        let frames = frame_stream(2, 3);
        let run = run_partition(VorbisPartition::E, &frames).unwrap();
        // chIn: K words per frame; chOut: K words per frame.
        assert_eq!(run.link.words_to_hw, (2 * crate::kernel::K) as u64);
        assert_eq!(run.link.words_to_sw, (2 * crate::kernel::K) as u64);
    }

    #[test]
    fn per_partition_traffic_matches_the_analysis() {
        // Words per frame crossing the bus, per partition (the §7.1
        // communication analysis): raw frame = 32 words, complex frame =
        // 128, real frame = 64, PCM = 32.
        let frames = frame_stream(4, 1);
        let words = |p| {
            let r = run_partition(p, &frames).unwrap();
            ((r.link.words_to_hw + r.link.words_to_sw) / 4) as usize
        };
        assert_eq!(
            words(VorbisPartition::A),
            64 + 32,
            "real frame over, PCM back"
        );
        assert_eq!(
            words(VorbisPartition::B),
            128 + 128,
            "complex frame each way"
        );
        assert_eq!(
            words(VorbisPartition::C),
            128 + 128 + 64 + 32,
            "four crossings"
        );
        assert_eq!(words(VorbisPartition::D), 32 + 64, "raw over, real back");
        assert_eq!(words(VorbisPartition::E), 32 + 32, "raw over, PCM back");
        assert_eq!(words(VorbisPartition::F), 0);
    }

    #[test]
    fn figure13_shape_holds_on_small_stream() {
        // The qualitative claims of §7.1, on a short stream:
        //  - E is the fastest;
        //  - A and C are slower than F (window/IFFT moves don't pay);
        //  - D beats F (one crossing, frame-granularity transfers).
        let frames = frame_stream(12, 77);
        let t = |p| run_partition(p, &frames).unwrap().fpga_cycles;
        let (a, c, d, e, f) = (
            t(VorbisPartition::A),
            t(VorbisPartition::C),
            t(VorbisPartition::D),
            t(VorbisPartition::E),
            t(VorbisPartition::F),
        );
        assert!(e < f, "E ({e}) must beat F ({f})");
        assert!(e < d, "E ({e}) must beat D ({d})");
        assert!(d < f, "D ({d}) must beat F ({f})");
        assert!(a > f, "A ({a}) must be slower than F ({f})");
        assert!(c > f, "C ({c}) must be slower than F ({f})");
    }
}
