//! One run harness for the application case studies (§7): build a
//! partition on the modeled ML507 platform, queue its inputs, run until
//! the sink holds one value per input, and report a [`PartitionRun`].
//! An application supplies only what differs, through [`Application`];
//! this module owns the lifecycle and its variants — fault injection with
//! a recovery policy and the naive reference ([`run`]), autosave
//! ([`run_autosaving`]), resume ([`resume`]) and live migration
//! ([`run_migrated`]).

use crate::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use crate::link::{FaultConfig, LinkConfig, LinkStats};
use crate::persist::CheckpointPolicy;
use crate::PlatformError;
use bcl_core::design::Design;
use bcl_core::domain::{HW, SW};
use bcl_core::error::ElabError;
use bcl_core::partition::partition;
use bcl_core::sched::{ExecBackend, Strategy, SwOptions};
use bcl_core::value::Value;
use std::fmt;
use std::path::Path;

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

/// What an application supplies to the harness: one value of an
/// implementing type names a partition plus its input stream.
pub trait Application {
    /// The decomposition a run measures.
    type Partition: Copy + fmt::Debug;
    /// Source the inputs are queued on.
    const SOURCE: &'static str;
    /// Sink that receives one value per input.
    const SINK: &'static str;
    /// FPGA cycles a run may take per input, on top of `CYCLE_SLACK`;
    /// an unfinished run fails at that budget (500 times it under an
    /// active fault model, which multiplies work by retransmissions).
    const CYCLES_PER_ITEM: u64;
    /// Fixed part of the cycle budget.
    const CYCLE_SLACK: u64;

    /// The partition measured.
    fn partition(&self) -> Self::Partition;
    /// Domain of each placed block of the design, in placement order.
    /// The distinct non-software entries are the hardware partitions;
    /// the first one gets the fault model.
    fn placement(&self) -> Vec<String>;
    /// Builds and elaborates the design for this placement.
    ///
    /// # Errors
    ///
    /// Elaboration errors.
    fn design(&self) -> Result<Design, ElabError>;
    /// Number of inputs (and of sink values a complete run produces).
    fn items(&self) -> usize;
    /// The `i`-th input value.
    fn input(&self, i: usize) -> Value;
    /// Decodes the sink's values into the application's output.
    fn decode(&self, values: &[Value]) -> Vec<i64>;
}

/// The result of running one partition of an application over its
/// input stream.
#[derive(Debug, Clone)]
pub struct PartitionRun<P> {
    /// Partition measured.
    pub partition: P,
    /// End-to-end execution time in FPGA cycles (the Figure 13 metric).
    pub fpga_cycles: u64,
    /// CPU cycles the software partition's rules consumed. Driver work
    /// (marshaling words across the link) is not counted here: it
    /// delays the software partition and so shows up in `fpga_cycles`.
    pub sw_cpu_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// Decoded output (PCM samples, or pixel shades in pixel order).
    pub output: Vec<i64>,
    /// Inputs processed (frames decoded, rays traced).
    pub items: usize,
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

impl<P> PartitionRun<P> {
    /// FPGA cycles per input.
    pub fn cycles_per_item(&self) -> f64 {
        self.fpga_cycles as f64 / self.items.max(1) as f64
    }
}

/// Builds the co-simulation for a partition with its inputs queued.
/// Channels between two accelerators route through the software hub, as
/// on the paper's bus-attached platform. Deterministic in its arguments
/// (the design fingerprint pins it), so a fresh process gets an
/// interchangeable system: [`resume`] and [`run_migrated`] rely on that.
///
/// # Errors
///
/// Elaboration, partitioning and platform errors (internal bugs).
pub fn build<A: Application>(
    app: &A,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    backend: ExecBackend,
) -> Result<Cosim, PlatformError> {
    let design = app.design().map_err(err)?;
    let parts = partition(&design, SW).map_err(err)?;
    let mut hw_domains: Vec<String> = Vec::new();
    for d in app.placement() {
        if d != SW && !hw_domains.contains(&d) {
            hw_domains.push(d);
        }
    }
    if hw_domains.is_empty() {
        // Keep the two-domain configuration shape for all-software runs.
        hw_domains.push(HW.to_string());
    }
    let mut faults = Some(faults);
    let cfgs: Vec<HwPartitionCfg> = hw_domains
        .iter()
        .map(|d| {
            let cfg = HwPartitionCfg::new(d)
                .with_link(ml507_link())
                .with_event_driven(backend.event_driven())
                .with_compiled(backend.compiled());
            match faults.take() {
                Some(f) => cfg.with_faults(f),
                None => cfg,
            }
        })
        .collect();
    let sw_opts = SwOptions {
        strategy: Strategy::Dataflow,
        ..backend.sw_options()
    };
    let mut cosim = Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_opts)?;
    cosim.set_recovery_policy(policy);
    for i in 0..app.items() {
        cosim.push_source(A::SOURCE, app.input(i));
    }
    Ok(cosim)
}

/// Runs a partition over its inputs on `backend`. The reliable transport
/// hides link faults and `policy` recovers from scripted partition
/// faults, so the output is bit-identical to a fault-free run.
/// [`ExecBackend::Naive`] is the reference oracle: same cycles and output.
///
/// # Errors
///
/// As [`build`], plus timeouts and partition loss when `policy` gives up.
pub fn run<A: Application>(
    app: &A,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    backend: ExecBackend,
) -> Result<PartitionRun<A::Partition>, PlatformError> {
    let budget = budget(app, &faults);
    finish(app, build(app, faults, policy, backend)?, budget)
}

/// Runs a partition while autosaving a crash-consistent snapshot every
/// `interval` FPGA cycles into `dir` (see [`CheckpointPolicy`]), from
/// which [`resume`] finishes the run bit- and cycle-identically.
///
/// # Errors
///
/// As [`run`], plus snapshot I/O failures.
pub fn run_autosaving<A: Application>(
    app: &A,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    interval: u64,
    dir: &Path,
) -> Result<PartitionRun<A::Partition>, PlatformError> {
    let budget = budget(app, &faults);
    let mut cosim = build(app, faults, policy, ExecBackend::Compiled)?;
    cosim.set_autosave(CheckpointPolicy::new(interval, dir));
    finish(app, cosim, budget)
}

/// Rebuilds the co-simulation, restores a snapshot file written by an
/// autosaving run or [`Cosim::write_snapshot_file`] into it, and finishes
/// the stream, bit- and cycle-identically to an uninterrupted run.
///
/// # Errors
///
/// As [`run`], plus every typed snapshot error (corrupt bytes, wrong
/// design, topology skew).
pub fn resume<A: Application>(
    app: &A,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    snapshot: &Path,
) -> Result<PartitionRun<A::Partition>, PlatformError> {
    let budget = budget(app, &faults);
    let mut cosim = build(app, faults, policy, ExecBackend::Compiled)?;
    cosim.resume_from_file(snapshot).map_err(err)?;
    finish(app, cosim, budget)
}

/// In-process live migration: runs a partition to `split_cycle`,
/// serializes it, restores the bytes into a freshly built co-simulation
/// and finishes there. Returns the run and the snapshot size in bytes.
///
/// # Errors
///
/// As [`run`], plus every typed snapshot error.
pub fn run_migrated<A: Application>(
    app: &A,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    split_cycle: u64,
) -> Result<(PartitionRun<A::Partition>, usize), PlatformError> {
    let budget = budget(app, &faults);
    let mut first = build(app, faults.clone(), policy, ExecBackend::Compiled)?;
    let out = first
        .run_until(|c| c.fpga_cycles >= split_cycle, u64::MAX)
        .map_err(err)?;
    if !out.is_done() {
        return Err(PlatformError::new(format!(
            "partition {:?} never reached split cycle {split_cycle} ({out:?})",
            app.partition()
        )));
    }
    let bytes = first.snapshot_bytes().map_err(err)?;
    drop(first);
    let mut second = build(app, faults, policy, ExecBackend::Compiled)?;
    second.resume_from(&mut bytes.as_slice()).map_err(err)?;
    Ok((finish(app, second, budget)?, bytes.len()))
}

fn err(e: impl fmt::Display) -> PlatformError {
    PlatformError::new(e.to_string())
}

fn budget<A: Application>(app: &A, faults: &FaultConfig) -> u64 {
    let cycles = A::CYCLES_PER_ITEM * app.items() as u64 + A::CYCLE_SLACK;
    if faults.is_active() || faults.has_partition_faults() {
        cycles.saturating_mul(500)
    } else {
        cycles
    }
}

/// Runs a built co-simulation until the sink is full and assembles the
/// [`PartitionRun`]. Works identically for fresh and resumed systems.
fn finish<A: Application>(
    app: &A,
    mut cosim: Cosim,
    max_cycles: u64,
) -> Result<PartitionRun<A::Partition>, PlatformError> {
    let want = app.items();
    let outcome = cosim
        .run_until(|c| c.sink_count(A::SINK) == want, max_cycles)
        .map_err(err)?;
    if !outcome.is_done() {
        return Err(PlatformError::new(format!(
            "partition {:?} did not finish ({outcome:?}) with {}/{want} values at {}",
            app.partition(),
            cosim.sink_count(A::SINK),
            A::SINK
        )));
    }
    let (guard_evals, guard_evals_skipped) = cosim.guard_eval_totals();
    Ok(PartitionRun {
        partition: app.partition(),
        fpga_cycles: outcome.fpga_cycles(),
        sw_cpu_cycles: cosim.sw.cpu_cycles(),
        link: cosim.link_stats(),
        output: app.decode(cosim.sink_values(A::SINK)),
        items: want,
        hw_partitions: cosim.hw_partition_count(),
        failed_over: cosim.failed_over(),
        revived: cosim.revived(),
        guard_evals,
        guard_evals_skipped,
    })
}
