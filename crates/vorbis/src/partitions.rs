//! The six HW/SW decompositions of the Vorbis back-end (Figure 12) and
//! the harness that measures them on the modeled platform (Figure 13,
//! left).
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
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::sched::{ExecBackend, Strategy, SwOptions};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::link::{FaultConfig, LinkConfig, LinkStats};
use bcl_platform::PlatformError;

/// Domain name of the second accelerator in multi-accelerator
/// partitions (the first uses [`HW`]).
pub const HW2: &str = "HW2";

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
        if let VorbisPartition::G = self {
            return VorbisDomains {
                imdct: HW.to_string(),
                ifft: HW.to_string(),
                window: HW2.to_string(),
            };
        }
        let pick = |hw: bool| if hw { HW.to_string() } else { SW.to_string() };
        let (imdct, ifft, window) = match self {
            VorbisPartition::A => (false, false, true),
            VorbisPartition::B => (false, true, false),
            VorbisPartition::C => (false, true, true),
            VorbisPartition::D => (true, true, false),
            VorbisPartition::E => (true, true, true),
            VorbisPartition::F => (false, false, false),
            VorbisPartition::G => unreachable!(),
        };
        VorbisDomains {
            imdct: pick(imdct),
            ifft: pick(ifft),
            window: pick(window),
        }
    }
}

/// The modeled ML507 platform configuration used for all Figure 13
/// measurements: the LocalLink defaults plus a driver that pays 32 CPU
/// cycles per marshaled word — uncached PLB accesses plus cache
/// management around the HDMA buffers, each tens of cycles on a PPC440.
pub fn ml507_link() -> LinkConfig {
    LinkConfig {
        sw_word_cost: 32,
        ..Default::default()
    }
}

/// The result of running one partition over a frame stream.
#[derive(Debug, Clone)]
pub struct VorbisRun {
    /// Partition measured.
    pub partition: VorbisPartition,
    /// End-to-end execution time in FPGA cycles (the Figure 13 metric).
    pub fpga_cycles: u64,
    /// CPU cycles consumed by the software partition (incl. driver work).
    pub sw_cpu_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// Decoded PCM stream.
    pub pcm: Vec<i64>,
    /// Frames decoded.
    pub frames: usize,
    /// Hardware partitions still executing in hardware at the end of the
    /// run (partitions spliced into software by a failover don't count).
    pub hw_partitions: usize,
    /// True if a partition was failed over to software during the run.
    pub failed_over: bool,
    /// True if a software-owned partition was revived back into hardware
    /// during the run.
    pub revived: bool,
    /// Guards actually evaluated across all schedulers (cache hits are
    /// excluded; naive mode would evaluate `guard_evals +
    /// guard_evals_skipped` times).
    pub guard_evals: u64,
    /// Guard evaluations the event-driven schedulers skipped.
    pub guard_evals_skipped: u64,
}

impl VorbisRun {
    /// FPGA cycles per frame.
    pub fn cycles_per_frame(&self) -> f64 {
        self.fpga_cycles as f64 / self.frames.max(1) as f64
    }
}

/// Runs a partition over a frame stream on the modeled platform, with
/// every scheduler on the production [`ExecBackend::Compiled`] path.
///
/// # Errors
///
/// Propagates elaboration/partitioning/platform errors (all of which
/// indicate internal bugs rather than user error) and simulation timeouts.
pub fn run_partition(
    which: VorbisPartition,
    frames: &[Vec<i64>],
) -> Result<VorbisRun, PlatformError> {
    run_partition_with_faults(which, frames, FaultConfig::none())
}

/// Runs a partition on a link with deterministic fault injection: the
/// transactor's reliable transport must hide the faults, so the decoded
/// PCM is bit-identical to a fault-free run (it just takes longer).
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_with_faults(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
) -> Result<VorbisRun, PlatformError> {
    run_partition_with_recovery(which, frames, faults, RecoveryPolicy::Fail)
}

/// Runs a partition with both a fault model and a recovery policy for
/// scripted hardware-partition faults: restart-from-checkpoint replays to
/// the exact fault-free trajectory, failover-to-software finishes the
/// stream with the lost partition fused into software (any other
/// accelerators keep running in hardware). Either way the decoded PCM is
/// bit-identical to a fault-free run.
///
/// The fault model (including scripted partition faults) applies to the
/// *first* hardware partition — for the multi-accelerator partition G
/// that is the IMDCT+IFFT accelerator; the window accelerator runs on a
/// clean link. Channels between two accelerators route through the
/// software hub, as on the paper's bus-attached platform.
///
/// # Errors
///
/// Same conditions as [`run_partition`], plus partition loss when the
/// policy gives up.
pub fn run_partition_with_recovery(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
) -> Result<VorbisRun, PlatformError> {
    run_partition_full(which, frames, faults, policy, true)
}

/// Runs a partition on the [`ExecBackend::Naive`] reference: every
/// scheduler evaluates every guard each step and interprets the rules
/// over tree stores. Cycle counts and PCM are identical to
/// [`run_partition`]; only simulator wall-clock time differs. Used as the
/// test oracle for the compiled backend.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_naive(
    which: VorbisPartition,
    frames: &[Vec<i64>],
) -> Result<VorbisRun, PlatformError> {
    run_partition_full(
        which,
        frames,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        false,
    )
}

/// Builds the fault-free co-simulation for a partition on the given
/// executor backend, with the input frames queued but nothing run yet.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn build_cosim(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    backend: ExecBackend,
) -> Result<Cosim, PlatformError> {
    make_cosim_full(
        which,
        frames,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        backend,
    )
}

/// Builds the co-simulation for a partition exactly as every run entry
/// point does, with the input frames queued. Deterministic in its
/// arguments, so two processes calling it with the same arguments get
/// interchangeable systems — the contract [`resume_partition`] and
/// [`run_partition_migrated`] rely on (the design fingerprint pins it).
/// `event_driven` selects [`ExecBackend::Compiled`]; `false` selects the
/// [`ExecBackend::Naive`] reference.
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
    make_cosim_full(which, frames, faults, policy, backend)
}

fn make_cosim_full(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    backend: ExecBackend,
) -> Result<Cosim, PlatformError> {
    let domains = which.domains();
    let opts = BackendOptions {
        domains: domains.clone(),
        ..Default::default()
    };
    let design = build_design(&opts).map_err(|e| PlatformError::new(e.to_string()))?;
    let parts = partition(&design, SW).map_err(|e| PlatformError::new(e.to_string()))?;
    let sw_opts = SwOptions {
        strategy: Strategy::Dataflow,
        ..backend.sw_options()
    };
    let mut hw_domains: Vec<&str> = Vec::new();
    for d in [&domains.imdct, &domains.ifft, &domains.window] {
        if d != SW && !hw_domains.contains(&d.as_str()) {
            hw_domains.push(d);
        }
    }
    if hw_domains.is_empty() {
        // Keep the two-domain configuration shape for all-software runs.
        hw_domains.push(HW);
    }
    let cfgs: Vec<HwPartitionCfg> = hw_domains
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let cfg = HwPartitionCfg::new(d)
                .with_link(ml507_link())
                .with_event_driven(backend.event_driven())
                .with_compiled(backend.compiled());
            if i == 0 {
                cfg.with_faults(faults.clone())
            } else {
                cfg
            }
        })
        .collect();
    let mut cosim = Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_opts)?;
    cosim.set_recovery_policy(policy);
    for f in frames {
        cosim.push_source("src", frame_value(f));
    }
    Ok(cosim)
}

/// Runs a built co-simulation to stream completion and assembles the
/// [`VorbisRun`]. Works identically for fresh and resumed systems.
fn finish_run(
    mut cosim: Cosim,
    which: VorbisPartition,
    want: usize,
    faulty: bool,
) -> Result<VorbisRun, PlatformError> {
    // Generous bound: even the slowest partition needs < 40k cycles/frame.
    // Heavy fault injection multiplies that by retransmission rounds.
    let mut max_cycles = 40_000u64 * want as u64 + 10_000;
    if faulty {
        max_cycles = max_cycles.saturating_mul(500);
    }
    let outcome = cosim
        .run_until(|c| c.sink_count("audioDev") == want, max_cycles)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    if !outcome.is_done() {
        return Err(PlatformError::new(format!(
            "partition {} did not finish ({outcome:?}) with {}/{} frames",
            which.label(),
            cosim.sink_count("audioDev"),
            want
        )));
    }
    let (guard_evals, guard_evals_skipped) = cosim.guard_eval_totals();
    Ok(VorbisRun {
        partition: which,
        fpga_cycles: outcome.fpga_cycles(),
        sw_cpu_cycles: cosim.sw.cpu_cycles(),
        link: cosim.link_stats(),
        pcm: pcm_of_values(cosim.sink_values("audioDev")),
        frames: want,
        hw_partitions: cosim.hw_partition_count(),
        failed_over: cosim.failed_over(),
        revived: cosim.revived(),
        guard_evals,
        guard_evals_skipped,
    })
}

fn run_partition_full(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    event_driven: bool,
) -> Result<VorbisRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let cosim = make_cosim(which, frames, faults, policy, event_driven)?;
    finish_run(cosim, which, frames.len(), faulty)
}

/// Runs a partition while autosaving crash-consistent snapshots every
/// `interval` FPGA cycles into `dir` (see
/// [`CheckpointPolicy`](bcl_platform::persist::CheckpointPolicy)). If
/// the process dies mid-decode, [`resume_partition`] picks the run back
/// up from the latest complete autosave, bit- and cycle-identically.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus snapshot
/// I/O failures.
pub fn run_partition_autosaving(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    interval: u64,
    dir: &std::path::Path,
) -> Result<VorbisRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut cosim = make_cosim(which, frames, faults, policy, true)?;
    cosim.set_autosave(bcl_platform::persist::CheckpointPolicy::new(interval, dir));
    finish_run(cosim, which, frames.len(), faulty)
}

/// Resumes a decode from a snapshot file written by an autosaving run
/// (or an explicit [`Cosim::write_snapshot_file`]) in a fresh process:
/// rebuilds the co-simulation from the same arguments, restores the
/// snapshot into it, and finishes the stream. The completed run is bit-
/// and cycle-identical to one that was never interrupted.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus every typed
/// snapshot error (corrupt bytes, wrong design, topology skew).
pub fn resume_partition(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    snapshot: &std::path::Path,
) -> Result<VorbisRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut cosim = make_cosim(which, frames, faults, policy, true)?;
    cosim
        .resume_from_file(snapshot)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    finish_run(cosim, which, frames.len(), faulty)
}

/// Live migration in-process: runs a partition to `split_cycle`,
/// serializes the whole system to bytes, restores them into a *freshly
/// built* co-simulation (exactly what a new process would construct),
/// and finishes the stream there. Returns the completed run and the
/// snapshot size in bytes.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus every typed
/// snapshot error.
pub fn run_partition_migrated(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
    split_cycle: u64,
) -> Result<(VorbisRun, usize), PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut first = make_cosim(which, frames, faults.clone(), policy, true)?;
    let out = first
        .run_until(|c| c.fpga_cycles >= split_cycle, u64::MAX)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    if !out.is_done() {
        return Err(PlatformError::new(format!(
            "partition {} never reached split cycle {split_cycle} ({out:?})",
            which.label()
        )));
    }
    let bytes = first
        .snapshot_bytes()
        .map_err(|e| PlatformError::new(e.to_string()))?;
    drop(first);
    let mut second = make_cosim(which, frames, faults, policy, true)?;
    second
        .resume_from(&mut bytes.as_slice())
        .map_err(|e| PlatformError::new(e.to_string()))?;
    let run = finish_run(second, which, frames.len(), faulty)?;
    Ok((run, bytes.len()))
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
            assert_eq!(run.pcm, expected, "partition {} output mismatch", p.label());
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
        let restart = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(5_000)),
            RecoveryPolicy::restart(2_000),
        )
        .unwrap();
        assert_eq!(restart.pcm, clean.pcm);
        assert_eq!(restart.fpga_cycles, clean.fpga_cycles);
        // Mid-decode death, software takeover: identical PCM, slower.
        let failover = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(5_000)),
            RecoveryPolicy::failover(2_000),
        )
        .unwrap();
        assert_eq!(failover.pcm, clean.pcm);
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
        let run = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none()
                .with_partition_fault(PartitionFault::DieAt(die_at))
                .with_partition_fault(PartitionFault::ReviveAt(revive_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(run.failed_over, "the death must strike mid-decode");
        assert!(run.revived, "the revival must fire before the decode ends");
        assert_eq!(
            run.pcm, clean.pcm,
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
        assert_eq!(run.pcm, expected, "G output mismatch");
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
        let failover = run_partition_with_recovery(
            VorbisPartition::G,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(
            failover.fpga_cycles > die_at,
            "the fault must strike mid-stream"
        );
        assert_eq!(failover.pcm, clean.pcm, "death must not corrupt the PCM");
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
            let base = run_partition_naive(p, &frames).unwrap();
            let compiled = run_partition(p, &frames).unwrap();
            assert_eq!(compiled.pcm, base.pcm, "partition {}", p.label());
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
