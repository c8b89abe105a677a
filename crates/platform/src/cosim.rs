//! HW/SW co-simulation: the full generated system of Figure 6 running on
//! the modeled platform of Figure 11, generalized to N accelerators.
//!
//! A [`Cosim`] couples one software partition (executed by [`SwRunner`]
//! under the CPU cost model, at 400 MHz) with any number of hardware
//! partitions, each executed cycle-accurately by its own [`HwSim`] and
//! coupled through its own generated [`Transactor`] over its own
//! [`Link`] — per-partition clock ratio, fault schedule, transport
//! state, and stall detector included. Time advances in FPGA cycles;
//! the software side receives `cpu_per_fpga` CPU cycles of budget per
//! FPGA cycle, from which driver marshaling work is deducted before
//! rule execution — moving data is not free for the processor.
//!
//! Channels between two *hardware* partitions are routed per
//! [`InterHwRouting`]: through the software hub (two link hops with the
//! CPU paying marshaling on both — the paper's bus-attached platform),
//! or directly over a shared fabric link that never touches the CPU.
//!
//! The paper's semantic-interchangeability claim survives the
//! generalization: any assignment of modules to domains yields the same
//! value streams, with only the compute/communication ratio changing.
//! The equivalence test harness (`tests/partition_equivalence.rs`) pins
//! this over randomized partitionings.

use crate::link::{FaultConfig, Link, LinkConfig, LinkSnapshot, LinkStats, PartitionFault};
use crate::persist::{
    self, CheckpointPolicy, PersistError, PersistResult, SEC_CONTEXT, SEC_FABRIC, SEC_LASTCKPT,
    SEC_META, SEC_PART, SEC_SW,
};
use crate::transactor::{
    ChannelDiag, ChannelReport, Transactor, TransactorSnapshot, TransportStats,
};
use crate::PlatformError;
use bcl_core::ast::{Path, PrimId};
use bcl_core::codec::{self, ByteReader, ByteWriter, CodecResult};
use bcl_core::design::{Design, PrimDef};
use bcl_core::error::{ExecError, ExecResult};
use bcl_core::partition::{fuse_domains, split_domain, ChannelSpec, Partitioned};
use bcl_core::prim::{PrimSpec, PrimState};
use bcl_core::sched::{HwSim, HwSnapshot, SwOptions, SwRunner, SwSnapshot};
use bcl_core::store::{Store, StoreSnapshot};
use bcl_core::value::Value;
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// How a co-simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimOutcome {
    /// The completion predicate became true after this many FPGA cycles.
    Done {
        /// Total FPGA cycles elapsed.
        fpga_cycles: u64,
    },
    /// The cycle limit was reached first.
    Timeout {
        /// Total FPGA cycles elapsed.
        fpga_cycles: u64,
    },
    /// Fault injection wedged the transport: data was pending but no
    /// channel made sequence progress for the stall threshold (e.g. a
    /// direction with 100% loss). Only reported when faults are active —
    /// a perfect link that merely runs out of cycles is a [`Timeout`].
    ///
    /// [`Timeout`]: CosimOutcome::Timeout
    Stalled {
        /// Total FPGA cycles elapsed.
        fpga_cycles: u64,
        /// Per-channel sequence/credit snapshots (of the stalled
        /// partition's transactor) at the moment the stall was declared.
        channels: Vec<ChannelDiag>,
    },
    /// A hardware-partition fault struck and the recovery policy gave up:
    /// either [`RecoveryPolicy::RestartFromCheckpoint`] exhausted its
    /// retry budget, or a fault fired before any checkpoint existed to
    /// recover from.
    PartitionLost {
        /// Total FPGA cycles elapsed.
        fpga_cycles: u64,
        /// Recovery attempts made before giving up.
        retries: u32,
    },
}

impl CosimOutcome {
    /// The elapsed FPGA cycles regardless of outcome.
    pub fn fpga_cycles(&self) -> u64 {
        match self {
            CosimOutcome::Done { fpga_cycles }
            | CosimOutcome::Timeout { fpga_cycles }
            | CosimOutcome::Stalled { fpga_cycles, .. }
            | CosimOutcome::PartitionLost { fpga_cycles, .. } => *fpga_cycles,
        }
    }

    /// True if the predicate was met.
    pub fn is_done(&self) -> bool {
        matches!(self, CosimOutcome::Done { .. })
    }

    /// True if the transport stall detector fired.
    pub fn is_stalled(&self) -> bool {
        matches!(self, CosimOutcome::Stalled { .. })
    }
}

/// What a [`Cosim`] does when a scripted [`PartitionFault`] wipes a
/// hardware partition mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// No recovery: the fault wipes the partition's hardware and
    /// transport state and the run is left to stall or time out. This is
    /// the pre-checkpoint behavior and the default.
    #[default]
    Fail,
    /// Auto-checkpoint every `interval` FPGA cycles; on a fault, wipe
    /// only the faulted partition, then restore the last globally
    /// consistent checkpoint and replay. Only the lost partition was
    /// rebooted, but the rollback is coordinated across all partitions —
    /// channels couple them, so a one-sided rewind would desynchronize
    /// the streams. Because a checkpoint is a consistent cut and
    /// scripted faults fire at most once, the replayed run converges to
    /// the exact fault-free trajectory — same sink values, same final
    /// cycle count. Repeated faults back the checkpoint cadence off
    /// exponentially; after `max_retries` restores the run ends with
    /// [`CosimOutcome::PartitionLost`].
    RestartFromCheckpoint {
        /// FPGA cycles between automatic checkpoints.
        interval: u64,
        /// Restores allowed before declaring the partition lost.
        max_retries: u32,
    },
    /// Auto-checkpoint every `interval` cycles; on a fault, rebuild the
    /// lost partition's state from the last checkpoint plus the channel
    /// traffic that was in transit at the cut, splice *that partition
    /// alone* into the software domain (via `fuse_domains`), and
    /// continue with the surviving partitions still executing in
    /// hardware — slower, but the value streams are bit-identical (the
    /// paper's semantic-interchangeability claim made operational). A
    /// later fault on a surviving partition fails that one over too.
    FailoverToSoftware {
        /// FPGA cycles between automatic checkpoints.
        interval: u64,
    },
}

impl RecoveryPolicy {
    /// Restart-from-checkpoint with the default retry budget (8).
    pub fn restart(interval: u64) -> RecoveryPolicy {
        RecoveryPolicy::RestartFromCheckpoint {
            interval,
            max_retries: 8,
        }
    }

    /// Failover-to-software with the given checkpoint cadence.
    pub fn failover(interval: u64) -> RecoveryPolicy {
        RecoveryPolicy::FailoverToSoftware { interval }
    }

    fn checkpoint_interval(&self) -> Option<u64> {
        match self {
            RecoveryPolicy::Fail => None,
            RecoveryPolicy::RestartFromCheckpoint { interval, .. }
            | RecoveryPolicy::FailoverToSoftware { interval } => Some(*interval),
        }
    }
}

/// Configuration of one hardware partition in a multi-accelerator
/// co-simulation: which domain it executes, the link that attaches it
/// to the CPU, the fault model (including scripted partition faults)
/// for that link, and the accelerator's clock divider.
#[derive(Debug, Clone)]
pub struct HwPartitionCfg {
    /// The domain (partition) this accelerator executes.
    pub domain: String,
    /// Physical parameters of this partition's CPU link.
    pub link: LinkConfig,
    /// Fault model for this partition's link and scripted partition
    /// faults (`ResetAt`/`DieAt`) for the accelerator itself.
    pub faults: FaultConfig,
    /// The accelerator steps once every `clock_div` FPGA cycles: 1 is
    /// full speed, 2 a half-rate clock region, and so on. Transactor
    /// pumping is unaffected — the link interface runs at bus speed.
    pub clock_div: u64,
    /// Event-driven guard scheduling for this partition's simulator
    /// (see [`HwSim::event_driven`]); `false` selects the naive
    /// evaluate-every-guard reference mode. Cycle counts are identical
    /// either way; only simulator wall-clock time differs.
    pub event_driven: bool,
    /// Closure-threaded native execution for this partition's simulator
    /// (see [`HwSim::set_compiled`]). Firings, cycle counts, and state
    /// are bit-identical either way; only simulator wall-clock time
    /// differs.
    pub compiled: bool,
}

impl HwPartitionCfg {
    /// A full-speed partition on a default link with no faults.
    pub fn new(domain: &str) -> HwPartitionCfg {
        HwPartitionCfg {
            domain: domain.to_string(),
            link: LinkConfig::default(),
            faults: FaultConfig::none(),
            clock_div: 1,
            event_driven: true,
            compiled: false,
        }
    }

    /// Replaces the link configuration.
    pub fn with_link(mut self, link: LinkConfig) -> HwPartitionCfg {
        self.link = link;
        self
    }

    /// Replaces the fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> HwPartitionCfg {
        self.faults = faults;
        self
    }

    /// Replaces the clock divider.
    pub fn with_clock_div(mut self, div: u64) -> HwPartitionCfg {
        self.clock_div = div.max(1);
        self
    }

    /// Selects event-driven (`true`, the default) or naive reference
    /// (`false`) guard scheduling for this partition.
    pub fn with_event_driven(mut self, on: bool) -> HwPartitionCfg {
        self.event_driven = on;
        self
    }

    /// Selects closure-threaded native execution (`true`) or the AST
    /// interpreter (`false`, the default) for this partition's
    /// simulator.
    pub fn with_compiled(mut self, on: bool) -> HwPartitionCfg {
        self.compiled = on;
        self
    }
}

/// How channels between two *hardware* partitions are routed.
#[derive(Debug, Clone, Default)]
pub enum InterHwRouting {
    /// Through the software hub: each HW→HW channel becomes two link
    /// hops (producer partition → CPU hub FIFO → consumer partition),
    /// with the CPU paying marshaling cost on both. This models the
    /// paper's bus-attached platform, where all traffic crosses the
    /// processor bus.
    #[default]
    ViaHub,
    /// Directly, over a dedicated shared-fabric link per partition pair
    /// that never touches the CPU (no software marshaling cost).
    Fabric {
        /// Physical parameters of each fabric link.
        link: LinkConfig,
        /// Fault model for fabric links (scripted partition faults in
        /// here are ignored — those belong to [`HwPartitionCfg`]).
        faults: FaultConfig,
    },
}

impl InterHwRouting {
    /// Fabric routing on a default, fault-free link.
    pub fn fabric() -> InterHwRouting {
        InterHwRouting::Fabric {
            link: LinkConfig::default(),
            faults: FaultConfig::none(),
        }
    }
}

/// Where a configured hardware partition currently is in its life.
///
/// ```text
///            DieAt + FailoverToSoftware
///  Running ------------------------------> Dead (transient, same step)
///     ^                                      |
///     |                                      | splice into SW partition
///     | active_at reached                    v
///  Reviving <---------------------------- SoftwareOwned
///            ReviveAt / Cosim::revive
/// ```
///
/// `Dead` is also the terminal state under [`RecoveryPolicy::Fail`]
/// (the partition stays down and the run stalls or times out). See
/// `DESIGN.md` § "Partition lifecycle and failback".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLifecycle {
    /// Executing rules in hardware and pumping its links.
    Running,
    /// Struck by a fatal fault and not (yet) recovered: no cycles
    /// execute, nothing is pumped.
    Dead,
    /// Spliced into the software partition by
    /// [`RecoveryPolicy::FailoverToSoftware`]: its rules execute on the
    /// CPU inside the fused software design.
    SoftwareOwned,
    /// Re-partitioned back out of software after a revival; the live
    /// state is in transit over the link and the partition starts
    /// executing once the transfer latency has elapsed.
    Reviving,
}

/// What the co-simulation remembers about a partition that was spliced
/// into software by a failover, so it can be revived later: the full
/// hardware configuration plus the unfired remainder of its scripted
/// fault schedule.
#[derive(Debug, Clone)]
struct SwOwned {
    domain: String,
    link_cfg: LinkConfig,
    faults: FaultConfig,
    clock_div: u64,
    event_driven: bool,
    compiled: bool,
    fault_schedule: Vec<PartitionFault>,
    fault_fired: Vec<bool>,
}

/// Where one original channel physically runs.
#[derive(Debug, Clone)]
enum RouteKind {
    /// On the CPU link of one partition (SW ↔ that partition).
    Direct { part: usize, ci: usize },
    /// HW → HW through the software hub: hop 1 (producer partition's
    /// link, into the hub FIFO) and hop 2 (consumer partition's link,
    /// out of the hub FIFO).
    Hub {
        from_part: usize,
        from_ci: usize,
        to_part: usize,
        to_ci: usize,
        hub: PrimId,
    },
    /// HW → HW on a dedicated fabric link.
    Fabric { fab: usize, ci: usize },
}

/// One hardware partition at runtime.
#[derive(Debug)]
struct HwPart {
    domain: String,
    /// Shared with the partitioning the partition came from.
    design: Arc<Design>,
    hw: HwSim,
    /// Interface logic for this partition's CPU link; `None` when no
    /// channel touches this partition's link.
    transactor: Option<Transactor>,
    link: Link,
    clock_div: u64,
    alive: bool,
    fault_schedule: Vec<PartitionFault>,
    /// Which scripted faults have already fired. Deliberately *not*
    /// checkpointed: a fault is an event in the environment, so
    /// rewinding the system must not re-arm it (that way a restore
    /// replays past the fault instead of looping on it).
    fault_fired: Vec<bool>,
    /// Stall detector: transactor progress at the last observed advance.
    last_progress: u64,
    /// Stall detector: cycle of the last observed advance.
    last_progress_cycle: u64,
    /// First FPGA cycle at which this partition executes and pumps. 0
    /// for partitions up from the start; a revived partition is held in
    /// [`PartitionLifecycle::Reviving`] until the cycle its reloaded
    /// state has finished crossing the link.
    active_at: u64,
}

/// A dedicated link between two hardware partitions (Fabric routing).
#[derive(Debug)]
struct FabricLink {
    /// Partition indices; `a < b`, and `a` plays the link's A side.
    a: usize,
    b: usize,
    transactor: Transactor,
    link: Link,
    last_progress: u64,
    last_progress_cycle: u64,
}

/// Per-partition slice of a [`Checkpoint`].
#[derive(Debug, Clone)]
struct PartSnap {
    hw: HwSnapshot,
    transactor: Option<TransactorSnapshot>,
    link: LinkSnapshot,
    alive: bool,
    last_progress: u64,
    last_progress_cycle: u64,
    active_at: u64,
}

/// Per-fabric-link slice of a [`Checkpoint`].
#[derive(Debug, Clone)]
struct FabSnap {
    transactor: TransactorSnapshot,
    link: LinkSnapshot,
    last_progress: u64,
    last_progress_cycle: u64,
}

/// A globally consistent cut of a co-simulation, captured between FPGA
/// cycles: the software store and scheduler state, and — for every
/// hardware partition and every fabric link — the store, the
/// transactor's transport state (per-channel sequence/ACK/credit/
/// retransmission queues), the link (frames in flight *and* the fault
/// PRNG streams), and the cycle/budget counters.
///
/// The cut is consistent because the whole system advances in one
/// deterministic `step()`: nothing is in the middle of an operation at a
/// step boundary, so restoring every component to the same boundary
/// yields a state the uninterrupted system actually passes through.
/// [`Cosim::restore`] therefore guarantees that a restored run is bit-
/// and cycle-identical to one that was never interrupted.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    sw: SwSnapshot,
    parts: Vec<PartSnap>,
    fabric: Vec<FabSnap>,
    fpga_cycles: u64,
    sw_debt: u64,
    /// Fingerprint of the design/partitioning this cut was taken from
    /// (see [`Cosim::fingerprint`]); carried into the on-disk header so
    /// a snapshot can never be restored into the wrong design.
    fingerprint: u64,
}

impl Checkpoint {
    /// The FPGA cycle at which this checkpoint was captured.
    pub fn fpga_cycles(&self) -> u64 {
        self.fpga_cycles
    }

    /// Fingerprint of the design/partitioning this checkpoint belongs
    /// to — written into the `BCKP` header and checked on resume.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes this checkpoint in the durable `BCKP` format (see
    /// [`crate::persist`]): versioned header with the design
    /// fingerprint, then one CRC-protected section per component in
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Only I/O errors: encoding in-memory state cannot fail.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> PersistResult<()> {
        persist::write_container(w, self.fingerprint, &self.to_sections())
    }

    /// Parses a `BCKP` snapshot. Strictly panic-free: any malformed,
    /// truncated, bit-flipped, or version-skewed input yields a typed
    /// [`PersistError`], and no declared length is trusted for
    /// allocation before the bytes backing it have been seen. Optional
    /// `CONTEXT`/`LASTCKPT` sections are validated too (and used by
    /// [`Cosim::resume_from`]).
    ///
    /// # Errors
    ///
    /// See [`PersistError`] — one variant per way an input can be bad.
    pub fn read_from(r: &mut impl std::io::Read) -> PersistResult<Checkpoint> {
        let c = persist::read_container(r)?;
        let ckpt = Checkpoint::from_sections(c.fingerprint, &c.sections)?;
        for (kind, payload) in &c.sections {
            match *kind {
                SEC_CONTEXT => {
                    ResumeContext::decode_payload(payload)?;
                }
                SEC_LASTCKPT => {
                    Checkpoint::decode_flat(payload, c.fingerprint)?;
                }
                _ => {}
            }
        }
        Ok(ckpt)
    }

    /// The checkpoint's own sections in canonical file order:
    /// `META`, `SW`, `PART`×N (index-tagged), `FABRIC`×M (index-tagged).
    fn to_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut out = Vec::new();
        let mut meta = ByteWriter::new();
        meta.u64(self.fpga_cycles);
        meta.u64(self.sw_debt);
        meta.u64(self.parts.len() as u64);
        meta.u64(self.fabric.len() as u64);
        out.push((SEC_META, meta.into_bytes()));
        let mut sw = ByteWriter::new();
        self.sw.encode(&mut sw);
        out.push((SEC_SW, sw.into_bytes()));
        for (i, p) in self.parts.iter().enumerate() {
            let mut b = ByteWriter::new();
            b.u32(i as u32);
            p.encode(&mut b);
            out.push((SEC_PART, b.into_bytes()));
        }
        for (i, f) in self.fabric.iter().enumerate() {
            let mut b = ByteWriter::new();
            b.u32(i as u32);
            f.encode(&mut b);
            out.push((SEC_FABRIC, b.into_bytes()));
        }
        out
    }

    /// Rebuilds a checkpoint from parsed container sections, enforcing
    /// the canonical order (`META`, `SW`, `PART`×N in index order,
    /// `FABRIC`×M in index order, then optionally `CONTEXT` and/or
    /// `LASTCKPT`, in that order).
    fn from_sections(fingerprint: u64, sections: &[(u32, Vec<u8>)]) -> PersistResult<Checkpoint> {
        let mut it = sections.iter();
        let (kind, meta) = it
            .next()
            .ok_or(PersistError::Malformed("snapshot has no sections"))?;
        if *kind != SEC_META {
            return Err(PersistError::Malformed("first section must be META"));
        }
        let mut r = ByteReader::new(meta);
        let fpga_cycles = r.u64()?;
        let sw_debt = r.u64()?;
        let n_parts = r.u64()?;
        let n_fabric = r.u64()?;
        r.finish()?;
        // Counts are validated against the sections actually present
        // before any loop or allocation sized by them.
        let budget = sections.len() as u64;
        if n_parts > budget || n_fabric > budget {
            return Err(PersistError::Malformed("META counts exceed section count"));
        }
        let (kind, swp) = it.next().ok_or(PersistError::Truncated)?;
        if *kind != SEC_SW {
            return Err(PersistError::Malformed("second section must be SW"));
        }
        let mut r = ByteReader::new(swp);
        let sw = SwSnapshot::decode(&mut r)?;
        r.finish()?;
        let mut parts = Vec::new();
        for i in 0..n_parts {
            let (kind, payload) = it.next().ok_or(PersistError::Truncated)?;
            if *kind != SEC_PART {
                return Err(PersistError::Malformed("expected a PART section"));
            }
            let mut r = ByteReader::new(payload);
            if u64::from(r.u32()?) != i {
                return Err(PersistError::Malformed("PART sections out of order"));
            }
            parts.push(PartSnap::decode(&mut r)?);
            r.finish()?;
        }
        let mut fabric = Vec::new();
        for i in 0..n_fabric {
            let (kind, payload) = it.next().ok_or(PersistError::Truncated)?;
            if *kind != SEC_FABRIC {
                return Err(PersistError::Malformed("expected a FABRIC section"));
            }
            let mut r = ByteReader::new(payload);
            if u64::from(r.u32()?) != i {
                return Err(PersistError::Malformed("FABRIC sections out of order"));
            }
            fabric.push(FabSnap::decode(&mut r)?);
            r.finish()?;
        }
        let rest: Vec<u32> = it.map(|(k, _)| *k).collect();
        let ok = matches!(
            rest.as_slice(),
            [] | [SEC_CONTEXT] | [SEC_LASTCKPT] | [SEC_CONTEXT, SEC_LASTCKPT]
        );
        if !ok {
            return Err(PersistError::Malformed("unexpected trailing sections"));
        }
        Ok(Checkpoint {
            sw,
            parts,
            fabric,
            fpga_cycles,
            sw_debt,
            fingerprint,
        })
    }

    /// Flat single-buffer encoding, used for the nested `LASTCKPT`
    /// section (the last automatic recovery checkpoint rides inside the
    /// outer snapshot).
    fn encode_flat(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.fpga_cycles);
        w.u64(self.sw_debt);
        self.sw.encode(&mut w);
        w.u64(self.parts.len() as u64);
        for p in &self.parts {
            p.encode(&mut w);
        }
        w.u64(self.fabric.len() as u64);
        for f in &self.fabric {
            f.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Inverse of [`encode_flat`](Self::encode_flat).
    fn decode_flat(payload: &[u8], fingerprint: u64) -> PersistResult<Checkpoint> {
        let mut r = ByteReader::new(payload);
        let fpga_cycles = r.u64()?;
        let sw_debt = r.u64()?;
        let sw = SwSnapshot::decode(&mut r)?;
        let n = r.seq_len(8)?;
        let mut parts = Vec::new();
        for _ in 0..n {
            parts.push(PartSnap::decode(&mut r)?);
        }
        let n = r.seq_len(8)?;
        let mut fabric = Vec::new();
        for _ in 0..n {
            fabric.push(FabSnap::decode(&mut r)?);
        }
        r.finish()?;
        Ok(Checkpoint {
            sw,
            parts,
            fabric,
            fpga_cycles,
            sw_debt,
            fingerprint,
        })
    }
}

impl PartSnap {
    fn encode(&self, w: &mut ByteWriter) {
        self.hw.encode(w);
        match &self.transactor {
            Some(t) => {
                w.bool(true);
                t.encode(w);
            }
            None => w.bool(false),
        }
        self.link.encode(w);
        w.bool(self.alive);
        w.u64(self.last_progress);
        w.u64(self.last_progress_cycle);
        w.u64(self.active_at);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<PartSnap> {
        Ok(PartSnap {
            hw: HwSnapshot::decode(r)?,
            transactor: if r.bool()? {
                Some(TransactorSnapshot::decode(r)?)
            } else {
                None
            },
            link: LinkSnapshot::decode(r)?,
            alive: r.bool()?,
            last_progress: r.u64()?,
            last_progress_cycle: r.u64()?,
            active_at: r.u64()?,
        })
    }
}

impl FabSnap {
    fn encode(&self, w: &mut ByteWriter) {
        self.transactor.encode(w);
        self.link.encode(w);
        w.u64(self.last_progress);
        w.u64(self.last_progress_cycle);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<FabSnap> {
        Ok(FabSnap {
            transactor: TransactorSnapshot::decode(r)?,
            link: LinkSnapshot::decode(r)?,
            last_progress: r.u64()?,
            last_progress_cycle: r.u64()?,
        })
    }
}

impl SwOwned {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.domain);
        self.link_cfg.encode(w);
        self.faults.encode(w);
        w.u64(self.clock_div);
        w.bool(self.event_driven);
        w.u64(self.fault_schedule.len() as u64);
        for f in &self.fault_schedule {
            f.encode(w);
        }
        codec::encode_bools(w, &self.fault_fired);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<SwOwned> {
        let domain = r.str()?;
        let link_cfg = LinkConfig::decode(r)?;
        let faults = FaultConfig::decode(r)?;
        let clock_div = r.u64()?;
        let event_driven = r.bool()?;
        let n = r.seq_len(9)?;
        let mut fault_schedule = Vec::new();
        for _ in 0..n {
            fault_schedule.push(PartitionFault::decode(r)?);
        }
        let fault_fired = codec::decode_bools(r)?;
        if fault_fired.len() != fault_schedule.len() {
            return Err(codec::CodecError::Malformed(
                "fault-fired flag count disagrees with fault schedule",
            ));
        }
        Ok(SwOwned {
            domain,
            link_cfg,
            faults,
            clock_div,
            event_driven,
            // Not persisted (it would change the snapshot format for a
            // wall-clock-only flag); replay takes it, with
            // `event_driven`, from the live partition being replayed.
            compiled: false,
            fault_schedule,
            fault_fired,
        })
    }
}

impl RecoveryPolicy {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            RecoveryPolicy::Fail => w.u8(0),
            RecoveryPolicy::RestartFromCheckpoint {
                interval,
                max_retries,
            } => {
                w.u8(1);
                w.u64(*interval);
                w.u32(*max_retries);
            }
            RecoveryPolicy::FailoverToSoftware { interval } => {
                w.u8(2);
                w.u64(*interval);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<RecoveryPolicy> {
        match r.u8()? {
            0 => Ok(RecoveryPolicy::Fail),
            1 => Ok(RecoveryPolicy::RestartFromCheckpoint {
                interval: r.u64()?,
                max_retries: r.u32()?,
            }),
            2 => Ok(RecoveryPolicy::FailoverToSoftware { interval: r.u64()? }),
            _ => Err(codec::CodecError::Malformed("bad recovery-policy tag")),
        }
    }
}

/// Everything beyond the consistent cut itself that a fresh process
/// needs to resume a run mid-recovery: the active policy and its
/// counters, which partitions are software-owned (with their full
/// revival records), and the environment's fault-fired flags — which
/// are deliberately *not* part of in-memory checkpoints (a restore must
/// not re-arm a fault) but must cross the process boundary.
struct ResumeContext {
    policy: RecoveryPolicy,
    next_ckpt_at: u64,
    retries: u32,
    consecutive_faults: u32,
    lost_at: Option<u64>,
    failed_over: bool,
    revived: bool,
    absorbed: Vec<String>,
    software_owned: Vec<SwOwned>,
    /// Per live partition, `(domain, fault_fired)`.
    live_fault_fired: Vec<(String, Vec<bool>)>,
}

impl ResumeContext {
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.policy.encode(&mut w);
        w.u64(self.next_ckpt_at);
        w.u32(self.retries);
        w.u32(self.consecutive_faults);
        match self.lost_at {
            Some(at) => {
                w.bool(true);
                w.u64(at);
            }
            None => w.bool(false),
        }
        w.bool(self.failed_over);
        w.bool(self.revived);
        w.u64(self.absorbed.len() as u64);
        for d in &self.absorbed {
            w.str(d);
        }
        w.u64(self.software_owned.len() as u64);
        for rec in &self.software_owned {
            rec.encode(&mut w);
        }
        w.u64(self.live_fault_fired.len() as u64);
        for (dom, fired) in &self.live_fault_fired {
            w.str(dom);
            codec::encode_bools(&mut w, fired);
        }
        w.into_bytes()
    }

    fn decode_payload(payload: &[u8]) -> PersistResult<ResumeContext> {
        let mut r = ByteReader::new(payload);
        let policy = RecoveryPolicy::decode(&mut r)?;
        let next_ckpt_at = r.u64()?;
        let retries = r.u32()?;
        let consecutive_faults = r.u32()?;
        let lost_at = if r.bool()? { Some(r.u64()?) } else { None };
        let failed_over = r.bool()?;
        let revived = r.bool()?;
        let n = r.seq_len(8)?;
        let mut absorbed = Vec::new();
        for _ in 0..n {
            absorbed.push(r.str()?);
        }
        let n = r.seq_len(16)?;
        let mut software_owned = Vec::new();
        for _ in 0..n {
            software_owned.push(SwOwned::decode(&mut r)?);
        }
        let n = r.seq_len(16)?;
        let mut live_fault_fired = Vec::new();
        for _ in 0..n {
            let dom = r.str()?;
            let fired = codec::decode_bools(&mut r)?;
            live_fault_fired.push((dom, fired));
        }
        r.finish()?;
        Ok(ResumeContext {
            policy,
            next_ckpt_at,
            retries,
            consecutive_faults,
            lost_at,
            failed_over,
            revived,
            absorbed,
            software_owned,
            live_fault_fired,
        })
    }
}

/// FNV-1a over the debug rendering of the software domain, the
/// configured hardware-domain order, and the full original
/// partitioning. Any change to the design, the partition assignment, or
/// the partition order changes the fingerprint; failover and revive do
/// *not* (they fold the same original partitioning), so a snapshot
/// taken mid-recovery still matches the re-elaborated design.
fn design_fingerprint(sw_domain: &str, order: &[String], parts: &Partitioned) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{sw_domain:?}|{order:?}|{parts:?}").expect("hashing cannot fail");
    h.0
}

/// FNV-1a fed by `write!`, so a debug rendering is hashed as it is
/// formatted instead of being collected into a string first.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A co-simulation of a partitioned design over N hardware partitions.
#[derive(Debug)]
pub struct Cosim {
    /// The software partition's runner.
    pub sw: SwRunner,
    /// The software design actually executing: the software partition,
    /// augmented with hub FIFOs when HW↔HW channels route via the hub
    /// (otherwise shared with `parts`).
    sw_design: Arc<Design>,
    /// The hardware partitions, in configuration order (which is also
    /// pump order — deterministic).
    parts_list: Vec<HwPart>,
    /// Dedicated HW↔HW links (Fabric routing).
    fabric: Vec<FabricLink>,
    /// Physical route of each channel, aligned with `parts.channels`.
    routes: Vec<RouteKind>,
    /// The (un-augmented) partitioning currently executing; replaced
    /// wholesale, never mutated: by the fused partitioning when a
    /// partition fails over, by the split one when it is revived.
    parts: Arc<Partitioned>,
    /// FPGA cycles elapsed.
    pub fpga_cycles: u64,
    /// Pending software work (driver transfers + rule overshoot) not yet
    /// paid for out of the per-cycle CPU budget.
    sw_debt: u64,
    sw_domain: String,
    /// The first-configured hardware domain (kept for the two-domain
    /// compatibility accessors).
    primary_hw_domain: String,
    /// CPU cycles of software budget per FPGA cycle (taken from the
    /// first partition's link configuration).
    cpu_per_fpga: u64,
    routing: InterHwRouting,
    /// FPGA cycles without transport sequence progress (while work is
    /// pending) before [`CosimOutcome::Stalled`] is declared. Only armed
    /// on entities whose fault model is active.
    stall_threshold: u64,
    /// Software execution options (kept to rebuild the runner on
    /// failover).
    sw_opts: SwOptions,
    /// True once `FailoverToSoftware` has spliced at least one dead
    /// partition into the software domain.
    failed_over: bool,
    /// True once at least one software-owned partition has been revived
    /// back into hardware.
    revived: bool,
    /// Partitions currently owned by software (spliced in by a
    /// failover), with everything needed to revive them.
    software_owned: Vec<SwOwned>,
    /// Domains absorbed into the software partition, in absorption
    /// order — the fold that `split_domain` replays to revive one.
    absorbed: Vec<String>,
    /// The partitioning as originally configured, before any failover
    /// replaced `parts` (the same allocation until then). The anchor for
    /// inverse splices.
    orig_parts: Arc<Partitioned>,
    /// The originally configured hardware domain order, for putting a
    /// revived partition back in its deterministic pump slot.
    orig_order: Vec<String>,
    /// Active recovery policy.
    policy: RecoveryPolicy,
    /// Last automatic checkpoint taken by the recovery policy.
    last_ckpt: Option<Checkpoint>,
    /// Next FPGA cycle at which an automatic checkpoint is due.
    next_ckpt_at: u64,
    /// Restores performed so far.
    retries: u32,
    /// Faults since the last surviving checkpoint (drives backoff).
    consecutive_faults: u32,
    /// Set when recovery gives up; reported as `PartitionLost`.
    lost_at: Option<u64>,
    /// Fingerprint of the original design + partitioning + domain
    /// order, invariant across failover/revive (see
    /// [`Cosim::fingerprint`]). Computed from `orig_parts` and
    /// `orig_order` on first use, so a run that never checkpoints never
    /// pays for it.
    fingerprint: OnceCell<u64>,
    /// Durable autosave policy, if enabled.
    autosave: Option<CheckpointPolicy>,
    /// Next FPGA cycle at which an autosave is due.
    autosave_next: u64,
}

/// Default stall threshold: far beyond the retransmission backoff cap
/// (~8 round trips), so a live-but-lossy link never trips it, while a
/// dead direction is reported without exhausting the cycle limit.
pub const DEFAULT_STALL_THRESHOLD: u64 = 50_000;

/// Everything `plan_topology` derives from a partitioning: the
/// (possibly hub-augmented) software design, per-partition channel
/// lists, fabric pair channel lists, and the per-channel route table.
struct Topology {
    sw_design: Arc<Design>,
    /// Per configured partition, the channels on its CPU link.
    part_specs: Vec<Vec<ChannelSpec>>,
    /// Fabric links: (a, b) partition indices with their channels.
    fabric: Vec<(usize, usize, Vec<ChannelSpec>)>,
    routes: Vec<RouteKind>,
}

/// What [`Cosim::splice_out`] retired: the state a failover migrates
/// into the fused software store.
struct Retired {
    sw_store: Store,
    sw_design: Arc<Design>,
    part: HwPart,
    /// The partitioning before the splice.
    parts: Arc<Partitioned>,
    /// Per channel of `parts`, its index after the splice, or `None` if
    /// it became an internal FIFO of the software design.
    channel_map: Vec<Option<usize>>,
}

/// Path prefix of the software-side FIFOs that carry hub-routed
/// HW → HW channels.
const HUB_PREFIX: &str = "__hub.";

/// Classifies every channel of `p` against the hardware partitions in
/// `domains` (in order) and plans the physical topology. The software
/// design is `p`'s own unless a hub FIFO is appended to it, which copies
/// it once.
fn plan_topology(
    p: &Partitioned,
    sw_domain: &str,
    domains: &[String],
    routing: &InterHwRouting,
) -> Result<Topology, PlatformError> {
    // Clones the `Arc` handle, not the design.
    let mut sw_design = p
        .shared(sw_domain)
        .map_err(|_| {
            PlatformError::new(format!(
                "malformed partitioning: no `{sw_domain}` (software) partition — \
                 the driver loop must have somewhere to run"
            ))
        })?
        .clone();
    let part_of = |d: &str| domains.iter().position(|x| x == d);

    let mut part_specs: Vec<Vec<ChannelSpec>> = vec![Vec::new(); domains.len()];
    let mut fabric: Vec<(usize, usize, Vec<ChannelSpec>)> = Vec::new();
    let mut routes = Vec::with_capacity(p.channels.len());

    for c in &p.channels {
        let from_sw = c.from_domain == sw_domain;
        let to_sw = c.to_domain == sw_domain;
        let locate_hw = |d: &str| {
            part_of(d).ok_or_else(|| {
                PlatformError::new(format!(
                    "channel `{}` references domain `{d}`, which has no hardware \
                     partition configuration",
                    c.name
                ))
            })
        };
        if from_sw && to_sw {
            return Err(PlatformError::new(format!(
                "channel `{}` has both endpoints in the software domain",
                c.name
            )));
        } else if from_sw || to_sw {
            let part = locate_hw(if from_sw {
                &c.to_domain
            } else {
                &c.from_domain
            })?;
            routes.push(RouteKind::Direct {
                part,
                ci: part_specs[part].len(),
            });
            part_specs[part].push(c.clone());
        } else {
            let from_part = locate_hw(&c.from_domain)?;
            let to_part = locate_hw(&c.to_domain)?;
            match routing {
                InterHwRouting::ViaHub => {
                    // The hub FIFO lives in the software design; the
                    // channel becomes two latency-insensitive hops.
                    let hub_path = format!("{HUB_PREFIX}{}", c.name);
                    let sw_design = Arc::make_mut(&mut sw_design);
                    let hub = PrimId(sw_design.prims.len());
                    sw_design.prims.push(PrimDef {
                        path: Path::new(&hub_path),
                        spec: PrimSpec::Fifo {
                            depth: c.depth.max(1),
                            ty: c.ty.clone(),
                        },
                    });
                    let h1 = ChannelSpec {
                        name: format!("{}#h1", c.name),
                        ty: c.ty.clone(),
                        depth: c.depth,
                        from_domain: c.from_domain.clone(),
                        to_domain: sw_domain.to_string(),
                        tx_path: c.tx_path.clone(),
                        rx_path: hub_path.clone(),
                    };
                    let h2 = ChannelSpec {
                        name: format!("{}#h2", c.name),
                        ty: c.ty.clone(),
                        depth: c.depth,
                        from_domain: sw_domain.to_string(),
                        to_domain: c.to_domain.clone(),
                        tx_path: hub_path,
                        rx_path: c.rx_path.clone(),
                    };
                    routes.push(RouteKind::Hub {
                        from_part,
                        from_ci: part_specs[from_part].len(),
                        to_part,
                        to_ci: part_specs[to_part].len(),
                        hub,
                    });
                    part_specs[from_part].push(h1);
                    part_specs[to_part].push(h2);
                }
                InterHwRouting::Fabric { .. } => {
                    let (a, b) = (from_part.min(to_part), from_part.max(to_part));
                    let fab = match fabric.iter().position(|(x, y, _)| (*x, *y) == (a, b)) {
                        Some(i) => i,
                        None => {
                            fabric.push((a, b, Vec::new()));
                            fabric.len() - 1
                        }
                    };
                    routes.push(RouteKind::Fabric {
                        fab,
                        ci: fabric[fab].2.len(),
                    });
                    fabric[fab].2.push(c.clone());
                }
            }
        }
    }
    Ok(Topology {
        sw_design,
        part_specs,
        fabric,
        routes,
    })
}

impl Cosim {
    /// Builds a two-domain co-simulation from a partitioned design.
    ///
    /// The design must have a `sw_domain` partition; a `hw_domain`
    /// partition and channels between the two are optional (an
    /// all-software partitioning runs without a link). For more than one
    /// hardware partition use [`Cosim::multi`]. The hardware partition
    /// runs the backend `sw_opts` selects: its `event_driven` and
    /// `compiled` flags apply to both sides.
    ///
    /// # Errors
    ///
    /// Rejects designs with partitions in other domains, hardware
    /// partitions that fail the hardware legality check, or malformed
    /// channels.
    pub fn new(
        p: &Partitioned,
        sw_domain: &str,
        hw_domain: &str,
        link_cfg: LinkConfig,
        sw_opts: SwOptions,
    ) -> Result<Cosim, PlatformError> {
        Cosim::with_faults(
            p,
            sw_domain,
            hw_domain,
            link_cfg,
            FaultConfig::none(),
            sw_opts,
        )
    }

    /// Builds a two-domain co-simulation whose link injects
    /// deterministic faults. With an active fault model the transactor
    /// switches to its framed reliable transport and the stall detector
    /// is armed; with [`FaultConfig::none`] this is identical to
    /// [`Cosim::new`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cosim::new`].
    pub fn with_faults(
        p: &Partitioned,
        sw_domain: &str,
        hw_domain: &str,
        link_cfg: LinkConfig,
        faults: FaultConfig,
        sw_opts: SwOptions,
    ) -> Result<Cosim, PlatformError> {
        for d in p.partitions.keys() {
            if d != sw_domain && d != hw_domain {
                return Err(PlatformError::new(format!(
                    "partition `{d}` is neither `{sw_domain}` nor `{hw_domain}`; \
                     use `Cosim::multi` for multi-accelerator topologies"
                )));
            }
        }
        let cfg = HwPartitionCfg {
            domain: hw_domain.to_string(),
            link: link_cfg,
            faults,
            clock_div: 1,
            event_driven: sw_opts.event_driven,
            compiled: sw_opts.compiled,
        };
        Cosim::multi(
            p,
            sw_domain,
            std::slice::from_ref(&cfg),
            InterHwRouting::ViaHub,
            sw_opts,
        )
    }

    /// Builds a co-simulation of one software domain plus N hardware
    /// partitions, each with its own link, fault schedule, and clock
    /// divider. Configurations whose domain is absent from the
    /// partitioning are skipped (so one topology description can serve
    /// designs that collapse some domains away). Channels between two
    /// hardware partitions are routed per `routing`.
    ///
    /// The software CPU budget ratio (`cpu_per_fpga`) is taken from the
    /// first configuration's link.
    ///
    /// # Errors
    ///
    /// Rejects duplicate or software-domain configurations, partitions
    /// not covered by any configuration, hardware partitions that fail
    /// the legality check, and malformed channels.
    pub fn multi(
        p: &Partitioned,
        sw_domain: &str,
        cfgs: &[HwPartitionCfg],
        routing: InterHwRouting,
        sw_opts: SwOptions,
    ) -> Result<Cosim, PlatformError> {
        for (i, c) in cfgs.iter().enumerate() {
            if c.domain == sw_domain {
                return Err(PlatformError::new(format!(
                    "hardware partition cfg names the software domain `{sw_domain}`"
                )));
            }
            if cfgs[..i].iter().any(|x| x.domain == c.domain) {
                return Err(PlatformError::new(format!(
                    "duplicate hardware partition cfg for domain `{}`",
                    c.domain
                )));
            }
        }
        let cpu_per_fpga = cfgs
            .first()
            .map(|c| c.link.cpu_per_fpga)
            .unwrap_or_else(|| LinkConfig::default().cpu_per_fpga);
        let active: Vec<&HwPartitionCfg> = cfgs
            .iter()
            .filter(|c| p.partitions.contains_key(&c.domain))
            .collect();
        for d in p.partitions.keys() {
            if d != sw_domain && !active.iter().any(|c| &c.domain == d) {
                return Err(PlatformError::new(format!(
                    "partition `{d}` has no hardware configuration and is not the \
                     software domain `{sw_domain}`"
                )));
            }
        }
        // One shallow copy: the cosim and every partition it runs share
        // the caller's designs.
        let p = Arc::new(p.clone());
        let domains: Vec<String> = active.iter().map(|c| c.domain.clone()).collect();
        let topo = plan_topology(&p, sw_domain, &domains, &routing)?;
        let sw = SwRunner::new(&topo.sw_design, sw_opts)
            .map_err(|e| PlatformError::new(e.to_string()))?;

        let mut parts_list = Vec::with_capacity(active.len());
        for cfg in &active {
            let design = p
                .shared(&cfg.domain)
                .map(Arc::clone)
                .map_err(|e| PlatformError::new(e.to_string()))?;
            let mut hw = HwSim::with_store(&design, Store::new_like(&design, sw_opts.flat))
                .map_err(|e| PlatformError::new(e.to_string()))?;
            hw.event_driven = cfg.event_driven;
            hw.set_compiled(cfg.compiled);
            let fault_schedule = cfg.faults.partition.clone();
            parts_list.push(HwPart {
                domain: cfg.domain.clone(),
                design,
                hw,
                transactor: None,
                link: Link::with_faults(cfg.link, cfg.faults.clone()),
                clock_div: cfg.clock_div.max(1),
                alive: true,
                fault_fired: vec![false; fault_schedule.len()],
                fault_schedule,
                last_progress: 0,
                last_progress_cycle: 0,
                active_at: 0,
            });
        }

        let mut cosim = Cosim {
            sw,
            sw_design: Arc::clone(&topo.sw_design),
            parts_list,
            fabric: Vec::new(),
            routes: Vec::new(),
            parts: Arc::clone(&p),
            fpga_cycles: 0,
            sw_debt: 0,
            sw_domain: sw_domain.to_string(),
            primary_hw_domain: cfgs.first().map(|c| c.domain.clone()).unwrap_or_default(),
            cpu_per_fpga,
            routing,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
            sw_opts,
            failed_over: false,
            revived: false,
            software_owned: Vec::new(),
            absorbed: Vec::new(),
            orig_parts: p,
            orig_order: domains,
            policy: RecoveryPolicy::Fail,
            last_ckpt: None,
            next_ckpt_at: 0,
            retries: 0,
            consecutive_faults: 0,
            lost_at: None,
            fingerprint: OnceCell::new(),
            autosave: None,
            autosave_next: 0,
        };
        cosim.adopt(topo)?;
        Ok(cosim)
    }

    /// Selects the recovery policy for scripted partition faults. Set it
    /// before running: policies that restore need an automatic
    /// checkpoint to exist when the first fault strikes, and the first
    /// one is taken on the first step after the policy is set.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// True while every configured hardware partition is up (always true
    /// before any `DieAt` fault; false once all partitions have failed
    /// over to software).
    pub fn hw_alive(&self) -> bool {
        if self.failed_over && self.parts_list.is_empty() {
            return false;
        }
        self.parts_list.iter().all(|p| p.alive)
    }

    /// True once `FailoverToSoftware` has spliced at least one dead
    /// partition into the software domain.
    pub fn failed_over(&self) -> bool {
        self.failed_over
    }

    /// Pending software work (driver transfers + rule overshoot) not yet
    /// paid out of the per-cycle CPU budget.
    pub fn sw_debt(&self) -> u64 {
        self.sw_debt
    }

    /// Overrides the stall threshold (FPGA cycles of no transport
    /// progress, while work is pending, before a run reports
    /// [`CosimOutcome::Stalled`]).
    pub fn set_stall_threshold(&mut self, cycles: u64) {
        self.stall_threshold = cycles.max(1);
    }

    /// The software partition's design (including any hub FIFOs).
    pub fn sw_design(&self) -> &Design {
        &self.sw_design
    }

    /// The first hardware partition's design, if any.
    pub fn hw_design(&self) -> Option<&Design> {
        self.parts_list.first().map(|p| &*p.design)
    }

    /// The software domain name.
    pub fn sw_domain(&self) -> &str {
        &self.sw_domain
    }

    /// The first-configured hardware domain name.
    pub fn hw_domain(&self) -> &str {
        &self.primary_hw_domain
    }

    /// Number of hardware partitions currently executing in hardware.
    pub fn hw_partition_count(&self) -> usize {
        self.parts_list.len()
    }

    /// Rules of the software runner and of every hardware partition that
    /// run their guard or body on the AST interpreter (see
    /// [`SwRunner::interpreted_rules`] and [`HwSim::interpreted_rules`]).
    pub fn interpreted_rules(&self) -> usize {
        self.sw.interpreted_rules()
            + self
                .parts_list
                .iter()
                .map(|p| p.hw.interpreted_rules())
                .sum::<usize>()
    }

    /// The hardware partitions' domains, in execution order.
    pub fn hw_domains(&self) -> Vec<&str> {
        self.parts_list.iter().map(|p| p.domain.as_str()).collect()
    }

    /// Whether the named hardware partition is alive; `None` if no such
    /// partition is executing in hardware (e.g. after it failed over).
    pub fn partition_alive(&self, domain: &str) -> Option<bool> {
        self.parts_list
            .iter()
            .find(|p| p.domain == domain)
            .map(|p| p.alive)
    }

    /// Hardware cycles executed by the named partition's simulator.
    pub fn partition_hw_cycles(&self, domain: &str) -> Option<u64> {
        self.parts_list
            .iter()
            .find(|p| p.domain == domain)
            .map(|p| p.hw.cycles)
    }

    /// Traffic totals for the named partition's CPU link.
    pub fn partition_link_stats(&self, domain: &str) -> Option<LinkStats> {
        self.parts_list
            .iter()
            .find(|p| p.domain == domain)
            .map(|p| p.link.stats())
    }

    /// Locates a primitive by path: in the software design (`None`) or
    /// in a hardware partition (`Some(index)`).
    fn locate(&self, path: &str) -> Option<(Option<usize>, PrimId)> {
        if let Some(id) = self.sw_design.prim_id(path) {
            return Some((None, id));
        }
        for (i, p) in self.parts_list.iter().enumerate() {
            if let Some(id) = p.design.prim_id(path) {
                return Some((Some(i), id));
            }
        }
        None
    }

    /// Checks that `path` resolves to a primitive of the kind accepted by
    /// `want`, in any partition.
    fn locate_kind(
        &self,
        path: &str,
        want: &str,
        ok: impl Fn(&PrimSpec) -> bool,
    ) -> Result<(Option<usize>, PrimId), PlatformError> {
        let (part, id) = self
            .locate(path)
            .ok_or_else(|| PlatformError::new(format!("no primitive `{path}` in any partition")))?;
        let design = match part {
            Some(i) => &self.parts_list[i].design,
            None => &self.sw_design,
        };
        let spec = &design.prim(id).spec;
        if !ok(spec) {
            return Err(PlatformError::new(format!(
                "`{path}` is a {}, not a {want}",
                spec_kind(spec)
            )));
        }
        Ok((part, id))
    }

    /// Pushes a value into a named `Source`, reporting failures instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns an error if the path is absent from every partition or
    /// names a primitive that is not a `Source`.
    pub fn try_push_source(&mut self, path: &str, v: Value) -> Result<(), PlatformError> {
        let (part, id) =
            self.locate_kind(path, "Source", |s| matches!(s, PrimSpec::Source { .. }))?;
        match part {
            Some(i) => self.parts_list[i].hw.store.push_source(id, v),
            None => self.sw.store.push_source(id, v),
        }
        Ok(())
    }

    /// Reads the values a named `Sink` has consumed, reporting failures
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns an error if the path is absent from every partition or
    /// names a primitive that is not a `Sink`.
    pub fn try_sink_values(&self, path: &str) -> Result<&[Value], PlatformError> {
        let (part, id) = self.locate_kind(path, "Sink", |s| matches!(s, PrimSpec::Sink { .. }))?;
        Ok(match part {
            Some(i) => self.parts_list[i].hw.store.sink_values(id),
            None => self.sw.store.sink_values(id),
        })
    }

    /// Pushes a value into a named `Source`.
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a `Source` in any partition;
    /// use [`Cosim::try_push_source`] for the non-panicking variant.
    pub fn push_source(&mut self, path: &str, v: Value) {
        self.try_push_source(path, v)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Reads the values a named `Sink` has consumed.
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a `Sink` in any partition;
    /// use [`Cosim::try_sink_values`] for the non-panicking variant.
    pub fn sink_values(&self, path: &str) -> &[Value] {
        self.try_sink_values(path).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of values consumed by a sink.
    pub fn sink_count(&self, path: &str) -> usize {
        self.sink_values(path).len()
    }

    /// Total words copied by incremental store snapshots so far, summed
    /// over the software partition and every live hardware partition.
    /// Grows with the number of *dirty* words between checkpoints, not
    /// with total state size.
    pub fn checkpoint_copied_words(&self) -> u64 {
        self.sw.store.ckpt_copied_words()
            + self
                .parts_list
                .iter()
                .map(|p| p.hw.store.ckpt_copied_words())
                .sum::<u64>()
    }

    /// `(guard_evals, guard_evals_skipped)` summed over the software
    /// runner and every live hardware partition: guards *actually*
    /// evaluated vs. evaluations the event-driven schedulers avoided
    /// (zero in naive reference mode). The software cost counter models
    /// replayed evaluations as real ones to keep `cpu_cycles` pinned, so
    /// the skipped count is subtracted back out here.
    pub fn guard_eval_totals(&self) -> (u64, u64) {
        let mut evals = self
            .sw
            .cost
            .guard_evals
            .saturating_sub(self.sw.cost.guard_evals_skipped);
        let mut skipped = self.sw.cost.guard_evals_skipped;
        for p in &self.parts_list {
            let rep = p.hw.report();
            evals += rep.guard_evals;
            skipped += rep.guard_evals_skipped;
        }
        (evals, skipped)
    }

    /// Captures a globally consistent cut of the whole system — every
    /// partition, every link — at the current step boundary (see
    /// [`Checkpoint`]). Checkpoints observe, never perturb, execution:
    /// taking one changes no simulated state. The borrow is mutable only
    /// because store snapshots are incremental — each one copies just the
    /// primitives written since the previous checkpoint (transactor FIFO
    /// pumps dirty their prims through the same store choke points as
    /// rule bodies) and advances the store's copy-on-write mirror.
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint {
            sw: self.sw.snapshot(),
            parts: self
                .parts_list
                .iter_mut()
                .map(|p| PartSnap {
                    hw: p.hw.snapshot(),
                    transactor: p.transactor.as_ref().map(Transactor::snapshot),
                    link: p.link.snapshot(),
                    alive: p.alive,
                    last_progress: p.last_progress,
                    last_progress_cycle: p.last_progress_cycle,
                    active_at: p.active_at,
                })
                .collect(),
            fabric: self
                .fabric
                .iter()
                .map(|f| FabSnap {
                    transactor: f.transactor.snapshot(),
                    link: f.link.snapshot(),
                    last_progress: f.last_progress,
                    last_progress_cycle: f.last_progress_cycle,
                })
                .collect(),
            fpga_cycles: self.fpga_cycles,
            sw_debt: self.sw_debt,
            fingerprint: self.fingerprint(),
        }
    }

    /// Rewinds the system to a checkpoint. The restored run is bit- and
    /// cycle-identical to one that was never interrupted: stores,
    /// scheduler state, transport state, in-flight frames, the fault
    /// PRNGs, and every counter resume from the same consistent cut
    /// across all partitions. Scripted partition faults that already
    /// fired stay fired — a restore replays *past* a fault, it does not
    /// re-arm it.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a differently shaped system
    /// (partition count, transactor presence, or design topology
    /// differs).
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        assert_eq!(
            self.parts_list.len(),
            ckpt.parts.len(),
            "checkpoint topology mismatch: partition count differs"
        );
        assert_eq!(
            self.fabric.len(),
            ckpt.fabric.len(),
            "checkpoint topology mismatch: fabric link count differs"
        );
        self.sw.restore(&ckpt.sw);
        for (p, snap) in self.parts_list.iter_mut().zip(&ckpt.parts) {
            p.hw.restore(&snap.hw);
            match (&mut p.transactor, &snap.transactor) {
                (Some(t), Some(s)) => t.restore(s),
                (None, None) => {}
                _ => panic!("checkpoint topology mismatch: transactor presence differs"),
            }
            p.link.restore(&snap.link);
            p.alive = snap.alive;
            p.last_progress = snap.last_progress;
            p.last_progress_cycle = snap.last_progress_cycle;
            p.active_at = snap.active_at;
        }
        for (f, snap) in self.fabric.iter_mut().zip(&ckpt.fabric) {
            f.transactor.restore(&snap.transactor);
            f.link.restore(&snap.link);
            f.last_progress = snap.last_progress;
            f.last_progress_cycle = snap.last_progress_cycle;
        }
        self.fpga_cycles = ckpt.fpga_cycles;
        self.sw_debt = ckpt.sw_debt;
    }

    /// Stable fingerprint of this co-simulation's design: FNV-1a over
    /// the software domain, the configured hardware-domain order, and
    /// the original partitioning. Two `Cosim`s built from the same
    /// elaborated design with the same configuration — even in
    /// different processes — get the same fingerprint, which is what
    /// lets a snapshot written by one process be resumed by another
    /// ([`Cosim::resume_from_file`]) while a snapshot from any *other*
    /// design is rejected with [`PersistError::FingerprintMismatch`].
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| design_fingerprint(&self.sw_domain, &self.orig_order, &self.orig_parts))
    }

    /// Enables durable autosave: every `policy.interval` FPGA cycles
    /// (first save on the next step), [`Cosim::step`] writes a complete
    /// snapshot atomically to `policy.snapshot_path()`. If the process
    /// is killed at any instant, the file holds the latest complete
    /// snapshot and [`Cosim::resume_from_file`] continues the run bit-
    /// and cycle-identically in a fresh process.
    ///
    /// Note that the all-software fast path of [`Cosim::run_until`]
    /// does not step cycle-by-cycle and therefore never autosaves;
    /// autosave is meaningful for runs with hardware partitions.
    pub fn set_autosave(&mut self, policy: CheckpointPolicy) {
        self.autosave_next = self.fpga_cycles;
        self.autosave = Some(policy);
    }

    /// The live recovery/resume context (everything
    /// [`Cosim::resume_from`] needs beyond the checkpoint itself).
    fn resume_context(&self) -> ResumeContext {
        ResumeContext {
            policy: self.policy,
            next_ckpt_at: self.next_ckpt_at,
            retries: self.retries,
            consecutive_faults: self.consecutive_faults,
            lost_at: self.lost_at,
            failed_over: self.failed_over,
            revived: self.revived,
            absorbed: self.absorbed.clone(),
            software_owned: self.software_owned.clone(),
            live_fault_fired: self
                .parts_list
                .iter()
                .map(|p| (p.domain.clone(), p.fault_fired.clone()))
                .collect(),
        }
    }

    /// Serializes the complete current system — checkpoint, recovery
    /// context, and the last automatic recovery checkpoint — as one
    /// `BCKP` snapshot. This is the full resume image: unlike
    /// [`Checkpoint::write_to`] it also captures mid-recovery state
    /// (software-owned partitions, fault-fired flags, retry counters),
    /// so a run killed while a partition is Dead, SoftwareOwned, or
    /// Reviving resumes exactly where it was.
    ///
    /// # Errors
    ///
    /// Encoding itself cannot fail; errors are impossible here but the
    /// signature matches the I/O-bearing wrappers.
    pub fn snapshot_bytes(&mut self) -> PersistResult<Vec<u8>> {
        let ckpt = self.checkpoint();
        let mut sections = ckpt.to_sections();
        sections.push((SEC_CONTEXT, self.resume_context().encode_payload()));
        if let Some(last) = &self.last_ckpt {
            sections.push((SEC_LASTCKPT, last.encode_flat()));
        }
        let mut out = Vec::new();
        persist::write_container(&mut out, self.fingerprint(), &sections)?;
        Ok(out)
    }

    /// Writes the full resume image (see [`Cosim::snapshot_bytes`]) to
    /// a stream — e.g. a pipe to another process for live migration.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying writer.
    pub fn write_snapshot_to(&mut self, w: &mut impl std::io::Write) -> PersistResult<()> {
        let bytes = self.snapshot_bytes()?;
        w.write_all(&bytes)?;
        Ok(())
    }

    /// Writes the full resume image to `path` crash-consistently (temp
    /// file + fsync + rename; see [`persist::write_atomically`]).
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem.
    pub fn write_snapshot_file(&mut self, path: &std::path::Path) -> PersistResult<()> {
        let bytes = self.snapshot_bytes()?;
        persist::write_atomically(path, &bytes)
    }

    /// Resumes a snapshot written by [`Cosim::write_snapshot_to`] /
    /// [`Cosim::write_snapshot_file`] (or a bare
    /// [`Checkpoint::write_to`] image) into this freshly constructed
    /// co-simulation. `self` must have been built from the same design
    /// and configuration — typically by re-running elaboration and
    /// `Cosim::multi` with identical arguments in a new process — and
    /// must not have stepped yet. After a successful resume the run
    /// continues bit- and cycle-identically to the one that wrote the
    /// snapshot, including mid-recovery states: software-owned
    /// partitions are re-spliced structurally before state is restored,
    /// fault-fired flags and retry counters carry over, and the last
    /// recovery checkpoint is reinstated so a later fault still has its
    /// recovery point.
    ///
    /// # Errors
    ///
    /// Every bad input is a typed [`PersistError`] — corrupt or
    /// truncated bytes, a version skew, a snapshot from a different
    /// design ([`PersistError::FingerprintMismatch`]), or a decoded
    /// system whose shape disagrees with this one
    /// ([`PersistError::TopologyMismatch`]). `self` is only mutated
    /// once validation has passed the point of no return (the state
    /// restore itself cannot fail afterwards).
    pub fn resume_from(&mut self, r: &mut impl std::io::Read) -> PersistResult<()> {
        let c = persist::read_container(r)?;
        self.resume_container(c)
    }

    /// [`Cosim::resume_from`] reading from a file, e.g. the autosave
    /// written by [`Cosim::set_autosave`].
    ///
    /// # Errors
    ///
    /// As [`Cosim::resume_from`], plus file-open errors.
    pub fn resume_from_file(&mut self, path: &std::path::Path) -> PersistResult<()> {
        let mut f = std::fs::File::open(path)?;
        self.resume_from(&mut f)
    }

    fn resume_container(&mut self, c: persist::Container) -> PersistResult<()> {
        if self.fpga_cycles != 0 || self.failed_over || !self.software_owned.is_empty() {
            return Err(PersistError::TopologyMismatch(
                "resume requires a freshly constructed Cosim (cycle 0, no prior recovery)"
                    .to_string(),
            ));
        }
        if c.fingerprint != self.fingerprint() {
            return Err(PersistError::FingerprintMismatch {
                expected: self.fingerprint(),
                found: c.fingerprint,
            });
        }
        let ckpt = Checkpoint::from_sections(c.fingerprint, &c.sections)?;
        let mut ctx = None;
        let mut last = None;
        for (kind, payload) in &c.sections {
            match *kind {
                SEC_CONTEXT => ctx = Some(ResumeContext::decode_payload(payload)?),
                SEC_LASTCKPT => last = Some(Checkpoint::decode_flat(payload, c.fingerprint)?),
                _ => {}
            }
        }
        if let Some(ctx) = &ctx {
            if ctx.absorbed.len() != ctx.software_owned.len()
                || !ctx
                    .absorbed
                    .iter()
                    .zip(&ctx.software_owned)
                    .all(|(d, rec)| d == &rec.domain)
            {
                return Err(PersistError::Malformed(
                    "resume context: absorbed list disagrees with software-owned records",
                ));
            }
            // Replay the failover splices so the topology matches the
            // snapshot; the state lands with the restore below. The
            // backend flags stay the live partition's (the record does
            // not persist `compiled`); the rest is the snapshot's record.
            for rec in &ctx.software_owned {
                let Some(pi) = self.parts_list.iter().position(|p| p.domain == rec.domain) else {
                    return Err(PersistError::TopologyMismatch(format!(
                        "snapshot says `{}` failed over, but it is not a live partition here",
                        rec.domain
                    )));
                };
                self.splice_out(pi)
                    .map_err(|e| PersistError::TopologyMismatch(e.to_string()))?;
                let live = self
                    .software_owned
                    .last_mut()
                    .expect("splice_out records the partition");
                *live = SwOwned {
                    event_driven: live.event_driven,
                    compiled: live.compiled,
                    ..rec.clone()
                };
            }
        }
        self.checkpoint_matches(&ckpt)?;
        self.restore(&ckpt);
        if let Some(ctx) = ctx {
            self.policy = ctx.policy;
            self.next_ckpt_at = ctx.next_ckpt_at;
            self.retries = ctx.retries;
            self.consecutive_faults = ctx.consecutive_faults;
            self.lost_at = ctx.lost_at;
            self.failed_over = ctx.failed_over;
            self.revived = ctx.revived;
            if ctx.live_fault_fired.len() != self.parts_list.len() {
                return Err(PersistError::TopologyMismatch(format!(
                    "snapshot has fault flags for {} live partitions, this system has {}",
                    ctx.live_fault_fired.len(),
                    self.parts_list.len()
                )));
            }
            for (dom, fired) in ctx.live_fault_fired {
                let Some(p) = self.parts_list.iter_mut().find(|p| p.domain == dom) else {
                    return Err(PersistError::TopologyMismatch(format!(
                        "snapshot names live partition `{dom}`, which this system lacks"
                    )));
                };
                if p.fault_fired.len() != fired.len() {
                    return Err(PersistError::TopologyMismatch(format!(
                        "fault schedule length differs for partition `{dom}`"
                    )));
                }
                p.fault_fired = fired;
            }
        }
        if let Some(last) = last {
            self.checkpoint_matches(&last)?;
            self.last_ckpt = Some(last);
        }
        // If autosave was armed before the resume, re-anchor it to the
        // restored clock.
        if self.autosave.is_some() {
            self.autosave_next = self.fpga_cycles;
        }
        Ok(())
    }

    /// Verifies — without panicking — that a decoded checkpoint has
    /// exactly the shape [`Cosim::restore`] (and the restores it
    /// delegates to) would otherwise assert: partition and fabric
    /// counts, transactor presence and channel counts, store layouts,
    /// and per-scheduler rule counts.
    fn checkpoint_matches(&self, ckpt: &Checkpoint) -> PersistResult<()> {
        fn store_matches(
            snap: &StoreSnapshot,
            design: &Design,
            live: &Store,
            what: &str,
        ) -> PersistResult<()> {
            if snap.is_flat() != live.is_flat() {
                let name = |f: bool| if f { "flat" } else { "tree" };
                return Err(PersistError::TopologyMismatch(format!(
                    "{what}: snapshot uses the {} backend, this system uses {}",
                    name(snap.is_flat()),
                    name(live.is_flat())
                )));
            }
            if !snap.shape_matches(live) {
                return Err(PersistError::TopologyMismatch(format!(
                    "{what}: snapshot layout does not match this system's store"
                )));
            }
            let kinds: Vec<&'static str> = snap.kind_names().collect();
            if kinds.len() != design.prims.len() {
                return Err(PersistError::TopologyMismatch(format!(
                    "{what}: snapshot has {} primitives, design has {}",
                    kinds.len(),
                    design.prims.len()
                )));
            }
            for (i, (k, p)) in kinds.iter().zip(&design.prims).enumerate() {
                if *k != p.spec.initial_state().kind_name() {
                    return Err(PersistError::TopologyMismatch(format!(
                        "{what}: primitive {i} is a {k}, design expects {}",
                        p.spec.initial_state().kind_name()
                    )));
                }
            }
            Ok(())
        }
        if ckpt.parts.len() != self.parts_list.len() {
            return Err(PersistError::TopologyMismatch(format!(
                "snapshot has {} hardware partitions, this system has {}",
                ckpt.parts.len(),
                self.parts_list.len()
            )));
        }
        if ckpt.fabric.len() != self.fabric.len() {
            return Err(PersistError::TopologyMismatch(format!(
                "snapshot has {} fabric links, this system has {}",
                ckpt.fabric.len(),
                self.fabric.len()
            )));
        }
        if ckpt.sw.rule_count() != self.sw_design.rules.len() {
            return Err(PersistError::TopologyMismatch(format!(
                "software snapshot has {} rules, design has {}",
                ckpt.sw.rule_count(),
                self.sw_design.rules.len()
            )));
        }
        store_matches(
            ckpt.sw.store(),
            &self.sw_design,
            &self.sw.store,
            "software store",
        )?;
        for (i, (snap, part)) in ckpt.parts.iter().zip(&self.parts_list).enumerate() {
            if snap.hw.rule_count() != part.design.rules.len() {
                return Err(PersistError::TopologyMismatch(format!(
                    "partition {i} snapshot has {} rules, design has {}",
                    snap.hw.rule_count(),
                    part.design.rules.len()
                )));
            }
            store_matches(
                snap.hw.store(),
                &part.design,
                &part.hw.store,
                "partition store",
            )?;
            match (&snap.transactor, &part.transactor) {
                (Some(s), Some(t)) => {
                    if s.channel_count() != t.channel_count() {
                        return Err(PersistError::TopologyMismatch(format!(
                            "partition {i} snapshot has {} channels, transactor has {}",
                            s.channel_count(),
                            t.channel_count()
                        )));
                    }
                }
                (None, None) => {}
                _ => {
                    return Err(PersistError::TopologyMismatch(format!(
                        "partition {i}: transactor presence differs between snapshot and system"
                    )));
                }
            }
        }
        for (i, (snap, fab)) in ckpt.fabric.iter().zip(&self.fabric).enumerate() {
            if snap.transactor.channel_count() != fab.transactor.channel_count() {
                return Err(PersistError::TopologyMismatch(format!(
                    "fabric link {i} snapshot has {} channels, transactor has {}",
                    snap.transactor.channel_count(),
                    fab.transactor.channel_count()
                )));
            }
        }
        Ok(())
    }

    /// Recovery bookkeeping at the top of each step: takes the automatic
    /// checkpoint when one is due, then fires any scripted partition
    /// faults scheduled for the current cycle.
    fn recovery_tick(&mut self) -> ExecResult<()> {
        if self.parts_list.is_empty() && self.software_owned.is_empty() {
            // All-software from the start: nothing to fault or revive.
            return Ok(());
        }
        if !self.parts_list.is_empty() {
            if let Some(interval) = self.policy.checkpoint_interval() {
                if self.fpga_cycles >= self.next_ckpt_at {
                    self.last_ckpt = Some(self.checkpoint());
                    self.next_ckpt_at = self.fpga_cycles + interval.max(1);
                    self.consecutive_faults = 0;
                }
            }
        }
        loop {
            // Scripted faults against partitions executing in hardware.
            // `ReviveAt` never fires here: while a partition is running
            // it stays armed (unfired), so it can still trigger during
            // the post-rewind replay once the partition is
            // software-owned.
            let mut due = None;
            'scan: for pi in 0..self.parts_list.len() {
                let p = &self.parts_list[pi];
                for fi in 0..p.fault_schedule.len() {
                    if !p.fault_fired[fi]
                        && !matches!(p.fault_schedule[fi], PartitionFault::ReviveAt(_))
                        && p.fault_schedule[fi].cycle() == self.fpga_cycles
                    {
                        due = Some((pi, fi));
                        break 'scan;
                    }
                }
            }
            if let Some((pi, fi)) = due {
                self.parts_list[pi].fault_fired[fi] = true;
                let fault = self.parts_list[pi].fault_schedule[fi];
                self.apply_partition_fault(pi, fault)?;
                if self.lost_at.is_some() {
                    break;
                }
                // A failover removed a partition (indices shifted) and a
                // restart rewound the clock — either way, rescan from
                // scratch; `fault_fired` prevents re-firing.
                continue;
            }
            // Scripted revivals of software-owned partitions. A `DieAt`
            // or `ResetAt` scheduled while the partition is software-
            // owned silently never fires — software cannot be killed by
            // its accelerator's fault schedule. The comparison is `<=`
            // rather than `==`: a `ReviveAt` whose cycle elapses while
            // the partition is still dead (the failover grace period has
            // not run out, so it is not software-owned yet) fires as soon
            // as the splice completes instead of being missed forever.
            let mut revive = None;
            'rscan: for si in 0..self.software_owned.len() {
                let r = &self.software_owned[si];
                for fi in 0..r.fault_schedule.len() {
                    if !r.fault_fired[fi]
                        && matches!(r.fault_schedule[fi], PartitionFault::ReviveAt(_))
                        && r.fault_schedule[fi].cycle() <= self.fpga_cycles
                    {
                        revive = Some((si, fi));
                        break 'rscan;
                    }
                }
            }
            let Some((si, fi)) = revive else { break };
            // Mark fired on the record *before* the revival moves the
            // schedule into the rebuilt partition, so it cannot re-fire.
            self.software_owned[si].fault_fired[fi] = true;
            self.revive_partition(si)?;
            // Rescan: the revived partition may have another fault due
            // this same cycle (a die → revive → die chain).
        }
        Ok(())
    }

    /// Models a partition fault: wipes the partition's volatile state,
    /// its transport protocol state, the frames on its wires (CPU link
    /// and any fabric links it touches), then invokes the recovery
    /// policy.
    fn apply_partition_fault(&mut self, pi: usize, fault: PartitionFault) -> ExecResult<()> {
        {
            let p = &mut self.parts_list[pi];
            p.hw.reset_state(&p.design);
            if let Some(t) = &mut p.transactor {
                t.reset_transport();
            }
            p.link.clear_in_flight();
            if fault.is_fatal() {
                p.alive = false;
            }
        }
        for f in &mut self.fabric {
            if f.a == pi || f.b == pi {
                f.transactor.reset_transport();
                f.link.clear_in_flight();
            }
        }
        match self.policy {
            RecoveryPolicy::Fail => Ok(()),
            RecoveryPolicy::RestartFromCheckpoint {
                interval,
                max_retries,
            } => {
                let Some(ckpt) = self.last_ckpt.clone() else {
                    self.lost_at = Some(self.fpga_cycles);
                    return Ok(());
                };
                if self.retries >= max_retries {
                    self.lost_at = Some(self.fpga_cycles);
                    return Ok(());
                }
                self.retries += 1;
                self.consecutive_faults += 1;
                // Only the faulted partition was wiped, but the rollback
                // is a coordinated global cut: channels couple the
                // partitions, so the survivors rewind to the same
                // boundary and the replay stays deterministic.
                self.restore(&ckpt);
                // The restored image had the partition up; rebooting
                // from it brings the hardware back even after a fatal
                // fault.
                self.parts_list[pi].alive = true;
                // Exponential backoff on the checkpoint cadence while
                // faults keep striking, so a fault storm cannot pin the
                // run in a checkpoint/restore cycle.
                let backoff = interval.max(1) << self.consecutive_faults.min(6);
                self.next_ckpt_at = self.fpga_cycles + backoff;
                Ok(())
            }
            RecoveryPolicy::FailoverToSoftware { interval } => {
                self.failover_partition(pi, interval)
            }
        }
    }

    /// Everything in flight on every channel — between its tx FIFO and
    /// rx FIFO, exclusive — oldest value first: what a splice must carry
    /// across the transport restart. Each transactor's traffic is
    /// decoded once.
    fn backlog(&self) -> ExecResult<Vec<Vec<Value>>> {
        let mut parts = self
            .parts_list
            .iter()
            .map(|p| match &p.transactor {
                Some(t) => t.in_transit_values(&p.link),
                None => Ok(Vec::new()),
            })
            .collect::<ExecResult<Vec<_>>>()?;
        let mut fabric = self
            .fabric
            .iter()
            .map(|f| f.transactor.in_transit_values(&f.link))
            .collect::<ExecResult<Vec<_>>>()?;
        let mut take = |pi: usize, ci: usize| std::mem::take(&mut parts[pi][ci]);
        Ok(self
            .routes
            .iter()
            .map(|route| match route {
                RouteKind::Direct { part, ci } => take(*part, *ci),
                RouteKind::Fabric { fab, ci } => std::mem::take(&mut fabric[*fab][*ci]),
                RouteKind::Hub {
                    from_part,
                    from_ci,
                    to_part,
                    to_ci,
                    hub,
                } => {
                    // Oldest first: hop-2 wire (already left the hub),
                    // then the hub FIFO, then the hop-1 wire.
                    let mut v = take(*to_part, *to_ci);
                    if let PrimState::Fifo { items, .. } = self.sw.store.get_state(*hub) {
                        v.extend(items);
                    }
                    v.extend(take(*from_part, *from_ci));
                    v
                }
            })
            .collect())
    }

    /// Fails a single partition over to software: rewinds to the last
    /// checkpoint, splices the dead partition out (its domain fused into
    /// software, every transport rebuilt), migrates the software and dead
    /// partition state into the fused store by path, and re-seeds the
    /// in-transit traffic, so the surviving partitions keep executing in
    /// hardware. Value-stream preserving, not cycle-exact — the
    /// survivors' transports restart from scratch.
    fn failover_partition(&mut self, pi: usize, interval: u64) -> ExecResult<()> {
        let Some(ckpt) = self.last_ckpt.take() else {
            self.lost_at = Some(self.fpga_cycles);
            return Ok(());
        };
        self.restore(&ckpt);
        let mut backlog = self.backlog()?;
        let old = self
            .splice_out(pi)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;
        let state = PathIndex::new(&[
            (&old.sw_design, &old.sw_store),
            (&old.part.design, &old.part.hw.store),
        ]);
        state.migrate(&self.sw_design, &mut self.sw.store);
        // A channel between software and the dead partition is now one
        // FIFO holding, oldest first, its rx half, its wire, its tx half.
        for ((spec, mapped), wire) in old
            .parts
            .channels
            .iter()
            .zip(&old.channel_map)
            .zip(&mut backlog)
        {
            if mapped.is_none() {
                let mut items = state.fifo_items(&spec.rx_path);
                items.extend(wire.drain(..));
                items.extend(state.fifo_items(&spec.tx_path));
                set_fifo(&self.sw_design, &mut self.sw.store, &spec.name, items);
            }
        }
        self.reseed(
            old.channel_map
                .iter()
                .zip(backlog)
                .filter_map(|(j, wire)| Some(((*j)?, wire))),
        );
        if self.parts_list.is_empty() {
            self.last_ckpt = None;
        } else {
            // The splice is itself a consistent cut; checkpoint it so a
            // fault on a survivor before the next cadence tick still has
            // somewhere to recover to.
            self.last_ckpt = Some(self.checkpoint());
            self.next_ckpt_at = self.fpga_cycles + interval.max(1);
        }
        Ok(())
    }

    /// Splices partition `pi` into the software domain: fuses its domain
    /// into software, re-plans the topology without it, installs a
    /// runner for the fused design over a reset store, adopts the
    /// topology, and records the partition as software-owned with the
    /// unfired remainder of its fault schedule, so a `ReviveAt` (or an
    /// explicit [`Cosim::revive`]) can bring it back. The runner is built
    /// before anything is retired, so a design it refuses leaves the
    /// cosim as it was. Failover migrates state out of what is returned;
    /// resume restores a snapshot instead.
    fn splice_out(&mut self, pi: usize) -> Result<Retired, PlatformError> {
        let dom = &self.parts_list[pi].domain;
        let fusion = fuse_domains(&self.parts, dom, &self.sw_domain)
            .map_err(|e| PlatformError::new(e.to_string()))?;
        let domains: Vec<String> = self
            .parts_list
            .iter()
            .filter(|p| p.domain != *dom)
            .map(|p| p.domain.clone())
            .collect();
        let topo = plan_topology(&fusion.parts, &self.sw_domain, &domains, &self.routing)?;
        let mut sw = SwRunner::new(&topo.sw_design, self.sw_opts)
            .map_err(|e| PlatformError::new(e.to_string()))?;
        sw.cost = self.sw.cost;
        let part = self.parts_list.remove(pi);
        self.software_owned.push(SwOwned {
            domain: part.domain.clone(),
            link_cfg: *part.link.config(),
            faults: part.link.fault_config().clone(),
            clock_div: part.clock_div,
            event_driven: part.hw.event_driven,
            compiled: part.hw.compiled(),
            fault_schedule: part.fault_schedule.clone(),
            fault_fired: part.fault_fired.clone(),
        });
        self.absorbed.push(part.domain.clone());
        self.failed_over = true;
        let retired = Retired {
            sw_store: std::mem::replace(&mut self.sw, sw).store,
            sw_design: Arc::clone(&self.sw_design),
            part,
            parts: std::mem::replace(&mut self.parts, Arc::new(fusion.parts)),
            channel_map: fusion.channel_map,
        };
        self.adopt(topo)?;
        Ok(retired)
    }

    /// Adopts a planned topology around the software runner already
    /// installed for `topo.sw_design`: every partition gets a fresh
    /// CPU-link transactor and clear wires, every fabric pair a fresh
    /// link, and the topology's routes replace the old ones. Every
    /// sequence space restarts from scratch, so no stale frame may
    /// survive on any wire. Construction, failover, revive and resume
    /// all build the platform here.
    fn adopt(&mut self, topo: Topology) -> Result<(), PlatformError> {
        let now = self.fpga_cycles;
        self.sw_design = topo.sw_design;
        self.routes = topo.routes;
        for (part, specs) in self.parts_list.iter_mut().zip(&topo.part_specs) {
            part.transactor = if specs.is_empty() {
                None
            } else {
                Some(
                    Transactor::new(
                        specs,
                        &self.sw_domain,
                        &self.sw_design,
                        &part.domain,
                        &part.design,
                    )
                    .map_err(|e| PlatformError::new(e.to_string()))?,
                )
            };
            part.link.clear_in_flight();
            part.last_progress = 0;
            part.last_progress_cycle = now;
        }
        self.fabric = Vec::with_capacity(topo.fabric.len());
        for (a, b, specs) in &topo.fabric {
            let InterHwRouting::Fabric { link, faults } = &self.routing else {
                unreachable!("hub routing plans no fabric");
            };
            let (pa, pb) = (&self.parts_list[*a], &self.parts_list[*b]);
            self.fabric.push(FabricLink {
                a: *a,
                b: *b,
                transactor: Transactor::new(specs, &pa.domain, &pa.design, &pb.domain, &pb.design)
                    .map_err(|e| PlatformError::new(e.to_string()))?,
                link: Link::with_faults(*link, faults.clone()),
                last_progress: 0,
                last_progress_cycle: now,
            });
        }
        Ok(())
    }

    /// Puts in-transit traffic collected before a splice back at the
    /// front of each channel's tx FIFO, order preserved. `seeds` pairs a
    /// channel index of the adopted partitioning with its traffic. A FIFO
    /// transiently above its nominal depth is safe on latency-insensitive
    /// edges: `enq` blocks until it drains.
    fn reseed(&mut self, seeds: impl IntoIterator<Item = (usize, Vec<Value>)>) {
        for (j, wire) in seeds {
            if wire.is_empty() {
                continue;
            }
            let spec = &self.parts.channels[j];
            let (design, store) = if spec.from_domain == self.sw_domain {
                (&self.sw_design, &mut self.sw.store)
            } else {
                let part = self
                    .parts_list
                    .iter_mut()
                    .find(|p| p.domain == spec.from_domain)
                    .expect("tx partition exists");
                (&part.design, &mut part.hw.store)
            };
            let id = design.prim_id(&spec.tx_path).expect("tx half exists");
            let mut st = store.get_state(id);
            if let PrimState::Fifo { items, .. } = &mut st {
                for v in wire.into_iter().rev() {
                    items.push_front(v);
                }
                store.set_state(id, st);
            }
        }
    }

    /// Revives a software-owned partition back into hardware — the
    /// inverse of [`failover_partition`](Self::failover_partition).
    ///
    /// Unlike failover there is no rewind: the current step boundary is
    /// already a globally consistent cut (nothing was lost — software
    /// owns the partition's state, and every transport is quiescent
    /// between steps), so the handback extracts the live state as-is.
    /// The splice: collect every channel's in-transit traffic, re-fold
    /// the partitioning without the revived domain (`split_domain`),
    /// migrate both sides' state by primitive path, split rehydrated
    /// channels' merged FIFO contents across the new tx/rx halves,
    /// adopt the new topology (fresh go-back-N sequence spaces, credits,
    /// CRC framing), re-seed the collected traffic, charge the CPU for
    /// marshaling the state image, and hold the partition in `Reviving`
    /// until the image has crossed the link.
    fn revive_partition(&mut self, si: usize) -> ExecResult<()> {
        let rec = self.software_owned.remove(si);
        let dom = rec.domain.clone();

        // 1. Collect per-channel in-transit values while the old
        //    transports are still alive (oldest first).
        let backlog = self.backlog()?;

        // 2. Inverse splice: re-fold everything still absorbed, leaving
        //    the revived domain as its own partition again.
        let fission = split_domain(
            &self.orig_parts,
            &self.parts,
            &self.absorbed,
            &dom,
            &self.sw_domain,
        )
        .map_err(|e| ExecError::Malformed(e.to_string()))?;
        self.absorbed.retain(|d| d != &dom);

        // 3. Put the revived partition back in its configured pump slot
        //    and re-plan the physical topology.
        let pos_of = |d: &str| {
            self.orig_order
                .iter()
                .position(|x| x == d)
                .unwrap_or(usize::MAX)
        };
        let insert_at = self
            .parts_list
            .iter()
            .take_while(|p| pos_of(&p.domain) < pos_of(&dom))
            .count();
        let mut domains: Vec<String> = self.parts_list.iter().map(|p| p.domain.clone()).collect();
        domains.insert(insert_at, dom.clone());
        let topo = plan_topology(&fission.parts, &self.sw_domain, &domains, &self.routing)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;

        // 4. Migrate both sides' state by path out of the fused software
        //    store. A rehydrated channel was an internal FIFO of the
        //    fused design: the consumer-side rx half gets the oldest
        //    values up to its depth (exactly what the credit invariant
        //    allows — `credits_used = fifo_len(rx) + in_flight`), the
        //    producer-side tx half holds the rest (transiently above
        //    nominal depth is safe on latency-insensitive edges).
        let revived_design = fission
            .parts
            .shared(&dom)
            .map(Arc::clone)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;
        let flat = self.sw_opts.flat;
        let mut hw_store = Store::new_like(&revived_design, flat);
        let mut sw_store = Store::new_like(&topo.sw_design, flat);
        let state = PathIndex::new(&[(&self.sw_design, &self.sw.store)]);
        state.migrate(&revived_design, &mut hw_store);
        state.migrate(&topo.sw_design, &mut sw_store);
        for &ci in &fission.rehydrated {
            let spec = &fission.parts.channels[ci];
            let mut rx_items = state.fifo_items(&spec.name);
            let tx_items = rx_items.split_off(rx_items.len().min(spec.depth));
            let (tx, rx) = if spec.from_domain == dom {
                (
                    (&revived_design, &mut hw_store),
                    (&topo.sw_design, &mut sw_store),
                )
            } else {
                (
                    (&topo.sw_design, &mut sw_store),
                    (&revived_design, &mut hw_store),
                )
            };
            set_fifo(tx.0, tx.1, &spec.tx_path, tx_items);
            set_fifo(rx.0, rx.1, &spec.rx_path, rx_items);
        }

        // 5. Debt accounting across the handback: the CPU marshals the
        //    whole state image into the DMA buffer (paid for out of the
        //    budget like any driver transfer), and the partition only
        //    starts executing once the image has crossed the link.
        let words = hw_store.total_words();
        let link = Link::with_faults(rec.link_cfg, rec.faults.clone());
        self.sw_debt += link.sw_transfer_cost(words as usize);
        let active_at = self.fpga_cycles
            + rec.link_cfg.one_way_latency
            + words.div_ceil(rec.link_cfg.words_per_cycle.max(1));

        // 6. Rebuild the partition (fresh simulator over the reloaded
        //    store, fresh link transport with deterministically reseeded
        //    fault PRNGs), adopt the topology around it, and re-seed the
        //    collected traffic. Rehydrated channels carried no wire
        //    traffic (they were internal FIFOs).
        let mut hw = HwSim::with_store(&revived_design, hw_store)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;
        hw.event_driven = rec.event_driven;
        hw.set_compiled(rec.compiled);
        let mut sw = SwRunner::with_store(&topo.sw_design, sw_store, self.sw_opts)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;
        sw.cost = self.sw.cost;
        self.sw = sw;
        self.parts = Arc::new(fission.parts);
        self.parts_list.insert(
            insert_at,
            HwPart {
                domain: dom,
                design: revived_design,
                hw,
                transactor: None,
                link,
                clock_div: rec.clock_div,
                alive: true,
                fault_schedule: rec.fault_schedule,
                fault_fired: rec.fault_fired,
                last_progress: 0,
                last_progress_cycle: self.fpga_cycles,
                active_at,
            },
        );
        self.adopt(topo)
            .map_err(|e| ExecError::Malformed(e.to_string()))?;
        self.reseed(fission.channel_map.into_iter().zip(backlog));

        // 7. The handback is itself a consistent cut; checkpoint it so a
        //    fault before the next cadence tick has somewhere to recover
        //    to. (Older checkpoints describe the pre-revival topology
        //    and must never be restored into this one.)
        self.revived = true;
        self.last_ckpt = Some(self.checkpoint());
        if let Some(interval) = self.policy.checkpoint_interval() {
            self.next_ckpt_at = self.fpga_cycles + interval.max(1);
        }
        Ok(())
    }

    /// Explicitly revives a software-owned partition back into hardware,
    /// as if a [`PartitionFault::ReviveAt`] fired at the current cycle:
    /// the partition's live state is extracted out of the fused software
    /// design, transferred over its link (the CPU pays the marshaling
    /// cost, the partition stays in [`PartitionLifecycle::Reviving`] for
    /// the transfer latency), and co-execution resumes with fresh
    /// transport state. Final value streams are unaffected.
    ///
    /// # Errors
    ///
    /// Fails if `domain` is not currently software-owned (it never
    /// failed over, is still running, or was already revived).
    pub fn revive(&mut self, domain: &str) -> Result<(), PlatformError> {
        let si = self
            .software_owned
            .iter()
            .position(|r| r.domain == domain)
            .ok_or_else(|| {
                PlatformError::new(format!(
                    "partition `{domain}` is not software-owned; only a partition \
                     previously spliced in by FailoverToSoftware can be revived"
                ))
            })?;
        self.revive_partition(si)
            .map_err(|e| PlatformError::new(e.to_string()))
    }

    /// True once at least one software-owned partition has been revived
    /// back into hardware.
    pub fn revived(&self) -> bool {
        self.revived
    }

    /// Where the named partition currently is in its lifecycle, or
    /// `None` if no such hardware partition was ever configured.
    pub fn partition_lifecycle(&self, domain: &str) -> Option<PartitionLifecycle> {
        if let Some(p) = self.parts_list.iter().find(|p| p.domain == domain) {
            return Some(if !p.alive {
                PartitionLifecycle::Dead
            } else if self.fpga_cycles < p.active_at {
                PartitionLifecycle::Reviving
            } else {
                PartitionLifecycle::Running
            });
        }
        if self.software_owned.iter().any(|r| r.domain == domain) {
            return Some(PartitionLifecycle::SoftwareOwned);
        }
        None
    }

    /// Advances the system by one FPGA clock cycle: each live partition
    /// steps (per its clock divider) and pumps its CPU link, fabric
    /// links pump between live partitions, and software spends its CPU
    /// budget (driver debt first).
    ///
    /// After a fatal partition fault under [`RecoveryPolicy::Fail`] that
    /// partition no longer executes or pumps — a dead partition accrues
    /// no CPU debt. After the recovery policy has given up
    /// (`PartitionLost`) the step is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors from any partition or transactor.
    pub fn step(&mut self) -> ExecResult<()> {
        if self.lost_at.is_some() {
            return Ok(());
        }
        // Durable autosave first, at the step boundary — the cut the
        // snapshot captures is the end of the previous cycle, before
        // this cycle's faults fire.
        let due = match &self.autosave {
            Some(p) if self.fpga_cycles >= self.autosave_next => {
                Some((p.interval.max(1), p.snapshot_path()))
            }
            _ => None,
        };
        if let Some((interval, path)) = due {
            self.autosave_next = self.fpga_cycles + interval;
            self.write_snapshot_file(&path)
                .map_err(|e| ExecError::Malformed(format!("autosave failed: {e}")))?;
        }
        self.recovery_tick()?;
        if self.lost_at.is_some() {
            return Ok(());
        }
        let now = self.fpga_cycles;
        for part in &mut self.parts_list {
            // A reviving partition neither executes nor pumps until its
            // state image has finished crossing the link.
            if !part.alive || now < part.active_at {
                continue;
            }
            if part.clock_div <= 1 || now.is_multiple_of(part.clock_div) {
                part.hw.step()?;
            }
            if let Some(t) = &mut part.transactor {
                let charged =
                    t.pump(&mut self.sw.store, &mut part.hw.store, &mut part.link, now)?;
                self.sw_debt += charged;
            }
        }
        for k in 0..self.fabric.len() {
            let (a, b) = (self.fabric[k].a, self.fabric[k].b);
            let ready = |p: &HwPart| p.alive && now >= p.active_at;
            if !(ready(&self.parts_list[a]) && ready(&self.parts_list[b])) {
                continue;
            }
            let (pa, pb) = parts_pair(&mut self.parts_list, a, b);
            let f = &mut self.fabric[k];
            // Fabric transfers never touch the CPU: the marshaling cost
            // the pump reports is hardware-side and is discarded.
            f.transactor
                .pump(&mut pa.hw.store, &mut pb.hw.store, &mut f.link, now)?;
        }
        // Software gets cpu_per_fpga cycles of budget; driver work
        // (sw_debt) is paid first.
        let mut budget = self.cpu_per_fpga;
        if self.sw_debt >= budget {
            self.sw_debt -= budget;
        } else {
            budget -= self.sw_debt;
            self.sw_debt = 0;
            let (spent, _quiescent) = self.sw.run_for(budget)?;
            self.sw_debt += spent.saturating_sub(budget);
        }
        self.fpga_cycles += 1;
        Ok(())
    }

    /// Runs until `done` returns true or `max_cycles` FPGA cycles elapse.
    ///
    /// All-software partitionings (no hardware, no channels) are run on a
    /// fast path: the software executes to quiescence and elapsed time is
    /// its CPU time divided by the clock ratio.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors.
    pub fn run_until(
        &mut self,
        done: impl Fn(&Cosim) -> bool,
        max_cycles: u64,
    ) -> ExecResult<CosimOutcome> {
        if self.parts_list.is_empty() && self.fabric.is_empty() && !self.failed_over {
            // Pure software: no cycle-by-cycle interleaving needed. (Not
            // taken after a failover — the splice preserved the FPGA
            // cycle count, which this path would clobber.)
            let ratio = self.cpu_per_fpga;
            loop {
                self.fpga_cycles = self.sw.cpu_cycles().div_ceil(ratio);
                if done(self) {
                    return Ok(CosimOutcome::Done {
                        fpga_cycles: self.fpga_cycles,
                    });
                }
                if self.fpga_cycles >= max_cycles {
                    return Ok(CosimOutcome::Timeout {
                        fpga_cycles: self.fpga_cycles,
                    });
                }
                if !self.sw.step()? {
                    // Quiescent but not done.
                    return Ok(CosimOutcome::Timeout {
                        fpga_cycles: self.fpga_cycles,
                    });
                }
            }
        }
        while self.fpga_cycles < max_cycles {
            if done(self) {
                return Ok(CosimOutcome::Done {
                    fpga_cycles: self.fpga_cycles,
                });
            }
            self.step()?;
            if let Some(at) = self.lost_at {
                return Ok(CosimOutcome::PartitionLost {
                    fpga_cycles: at,
                    retries: self.retries,
                });
            }
            if let Some(stalled) = self.check_stall() {
                return Ok(stalled);
            }
        }
        Ok(CosimOutcome::Timeout {
            fpga_cycles: self.fpga_cycles,
        })
    }

    /// Declares a stall when some armed entity (a partition whose fault
    /// model is active, or a faulty fabric link) has transport work
    /// pending but has made no sequence progress for `stall_threshold`
    /// cycles. Graceful degradation: the run ends with per-channel
    /// diagnostics of the wedged entity instead of burning the full
    /// cycle budget.
    fn check_stall(&mut self) -> Option<CosimOutcome> {
        let now = self.fpga_cycles;
        for i in 0..self.parts_list.len() {
            let p = &self.parts_list[i];
            let Some(t) = &p.transactor else { continue };
            if !p.link.faults_active() && p.fault_schedule.is_empty() {
                continue;
            }
            if now < p.active_at {
                // Reviving: nothing pumps by design, so the frozen
                // progress counter is not a stall.
                let p = &mut self.parts_list[i];
                p.last_progress_cycle = now;
                continue;
            }
            let progress = t.progress();
            let pending = t.pending_work(&self.sw.store, &p.hw.store);
            let p = &mut self.parts_list[i];
            if progress != p.last_progress || !pending {
                p.last_progress = progress;
                p.last_progress_cycle = now;
                continue;
            }
            if now - p.last_progress_cycle >= self.stall_threshold {
                let p = &self.parts_list[i];
                return Some(CosimOutcome::Stalled {
                    fpga_cycles: now,
                    channels: p
                        .transactor
                        .as_ref()
                        .expect("armed entity has transactor")
                        .diagnostics(&self.sw.store, &p.hw.store),
                });
            }
        }
        for k in 0..self.fabric.len() {
            let f = &self.fabric[k];
            let armed = f.link.faults_active()
                || !self.parts_list[f.a].fault_schedule.is_empty()
                || !self.parts_list[f.b].fault_schedule.is_empty();
            if !armed {
                continue;
            }
            if now < self.parts_list[f.a].active_at || now < self.parts_list[f.b].active_at {
                let f = &mut self.fabric[k];
                f.last_progress_cycle = now;
                continue;
            }
            let progress = f.transactor.progress();
            let pending = f.transactor.pending_work(
                &self.parts_list[f.a].hw.store,
                &self.parts_list[f.b].hw.store,
            );
            let f = &mut self.fabric[k];
            if progress != f.last_progress || !pending {
                f.last_progress = progress;
                f.last_progress_cycle = now;
                continue;
            }
            if now - f.last_progress_cycle >= self.stall_threshold {
                let f = &self.fabric[k];
                return Some(CosimOutcome::Stalled {
                    fpga_cycles: now,
                    channels: f.transactor.diagnostics(
                        &self.parts_list[f.a].hw.store,
                        &self.parts_list[f.b].hw.store,
                    ),
                });
            }
        }
        None
    }

    /// Bus-level traffic totals: the sum over every partition's CPU
    /// link (fabric links are separate — see [`Cosim::fabric_stats`]).
    pub fn link_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for p in &self.parts_list {
            s.merge(&p.link.stats());
        }
        s
    }

    /// Traffic totals over all fabric (HW↔HW) links.
    pub fn fabric_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for f in &self.fabric {
            s.merge(&f.link.stats());
        }
        s
    }

    /// The first partition's link fault model, if any hardware partition
    /// exists.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.parts_list.first().map(|p| p.link.fault_config())
    }

    /// Transport-level statistics (CRC rejects, pure-ACK frames) summed
    /// over every transactor; all zero on perfect links.
    pub fn transport_stats(&self) -> TransportStats {
        let mut s = TransportStats::default();
        for p in &self.parts_list {
            if let Some(t) = &p.transactor {
                s.merge(&t.transport_stats());
            }
        }
        for f in &self.fabric {
            s.merge(&f.transactor.transport_stats());
        }
        s
    }

    /// Per-channel transfer summaries, partition transactors first (in
    /// execution order), then fabric links.
    pub fn channel_report(&self) -> Vec<ChannelReport> {
        let mut out = Vec::new();
        for p in &self.parts_list {
            if let Some(t) = &p.transactor {
                out.extend(t.report());
            }
        }
        for f in &self.fabric {
            out.extend(f.transactor.report());
        }
        out
    }
}

/// Committed primitive state of the designs a splice retires, found by
/// path: fusion and fission keep every primitive's path, and a channel
/// internal to a fused design is a FIFO named after the channel.
struct PathIndex<'a>(HashMap<&'a str, (&'a Store, PrimId)>);

impl<'a> PathIndex<'a> {
    /// Indexes each `(design, store)` source once.
    fn new(sources: &[(&'a Design, &'a Store)]) -> PathIndex<'a> {
        let mut index = HashMap::new();
        for &(design, store) in sources {
            for (i, prim) in design.prims.iter().enumerate() {
                index.insert(prim.path.as_str(), (store, PrimId(i)));
            }
        }
        PathIndex(index)
    }

    /// Copies into `store`, a store of `design`, the state of every
    /// primitive found here by path. Hub FIFOs are skipped: their
    /// contents travel in the backlog.
    fn migrate(&self, design: &Design, store: &mut Store) {
        for (i, prim) in design.prims.iter().enumerate() {
            if prim.path.as_str().starts_with(HUB_PREFIX) {
                continue;
            }
            if let Some(&(src, id)) = self.0.get(prim.path.as_str()) {
                store.set_state(PrimId(i), src.get_state(id));
            }
        }
    }

    /// The queue of the FIFO at `path`, oldest value first.
    fn fifo_items(&self, path: &str) -> VecDeque<Value> {
        let &(store, id) = self.0.get(path).expect("channel FIFO exists");
        match store.get_state(id) {
            PrimState::Fifo { items, .. } => items,
            _ => VecDeque::new(),
        }
    }
}

/// Replaces the queue of the FIFO at `path` in `store`, a store of
/// `design`.
fn set_fifo(design: &Design, store: &mut Store, path: &str, items: VecDeque<Value>) {
    let id = design.prim_id(path).expect("channel FIFO exists");
    let mut st = store.get_state(id);
    if let PrimState::Fifo { items: slot, .. } = &mut st {
        *slot = items;
        store.set_state(id, st);
    }
}

/// Two distinct mutable elements of the partition list.
fn parts_pair(parts: &mut [HwPart], a: usize, b: usize) -> (&mut HwPart, &mut HwPart) {
    debug_assert!(a < b, "fabric pairs are ordered");
    let (lo, hi) = parts.split_at_mut(b);
    (&mut lo[a], &mut hi[0])
}

/// Human-readable kind of a primitive spec, for error messages.
fn spec_kind(spec: &PrimSpec) -> &'static str {
    match spec {
        PrimSpec::Reg { .. } => "Reg",
        PrimSpec::Fifo { .. } => "Fifo",
        PrimSpec::RegFile { .. } => "RegFile",
        PrimSpec::Sync { .. } => "Sync",
        PrimSpec::Source { .. } => "Source",
        PrimSpec::Sink { .. } => "Sink",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcl_core::builder::{dsl::*, ModuleBuilder};
    use bcl_core::domain::{HW, SW};
    use bcl_core::elaborate;
    use bcl_core::partition::{fuse_syncs, partition};
    use bcl_core::program::Program;
    use bcl_core::types::Type;

    /// Second hardware domain for multi-accelerator tests.
    const HW2: &str = "HW2";

    /// src(SW) -> inSync -> HW (+1000) -> outSync -> snk(SW)
    fn offload_design(hw: bool) -> bcl_core::design::Design {
        let (from, to) = if hw { (SW, HW) } else { (SW, SW) };
        let mut m = ModuleBuilder::new("Offload");
        m.source("src", Type::Int(32), SW);
        m.sink("snk", Type::Int(32), SW);
        m.channel("inSync", 4, Type::Int(32), from, to);
        m.channel("outSync", 4, Type::Int(32), to, from);
        m.rule("feed", with_first("x", "src", enq("inSync", var("x"))));
        m.rule(
            "compute",
            with_first("x", "inSync", enq("outSync", add(var("x"), cint(32, 1000)))),
        );
        m.rule("drain", with_first("y", "outSync", enq("snk", var("y"))));
        elaborate(&Program::with_root(m.build())).unwrap()
    }

    /// src(SW) -> s1 -> stage1(d1, +1) -> s2 -> stage2(d2, +10) -> s3 ->
    /// snk(SW): a three-domain pipeline whose middle channel crosses two
    /// hardware partitions when `d1 != d2`.
    fn chain_design(d1: &str, d2: &str) -> bcl_core::design::Design {
        let mut m = ModuleBuilder::new("Chain");
        m.source("src", Type::Int(32), SW);
        m.sink("snk", Type::Int(32), SW);
        m.channel("s1", 4, Type::Int(32), SW, d1);
        m.channel("s2", 4, Type::Int(32), d1, d2);
        m.channel("s3", 4, Type::Int(32), d2, SW);
        m.rule("feed", with_first("x", "src", enq("s1", var("x"))));
        m.rule(
            "stage1",
            with_first("x", "s1", enq("s2", add(var("x"), cint(32, 1)))),
        );
        m.rule(
            "stage2",
            with_first("x", "s2", enq("s3", add(var("x"), cint(32, 10)))),
        );
        m.rule("drain", with_first("y", "s3", enq("snk", var("y"))));
        elaborate(&Program::with_root(m.build())).unwrap()
    }

    fn sink_ints(cs: &Cosim, path: &str) -> Vec<i64> {
        cs.sink_values(path)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn hw_offload_round_trip() {
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let mut cs = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
        for i in 0..5 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs.run_until(|c| c.sink_count("snk") == 5, 100_000).unwrap();
        assert!(out.is_done(), "timed out: {out:?}");
        assert_eq!(sink_ints(&cs, "snk"), vec![1000, 1001, 1002, 1003, 1004]);
        // Round trip includes two link crossings: at least ~100 cycles.
        assert!(out.fpga_cycles() >= 100, "cycles = {}", out.fpga_cycles());
        let stats = cs.link_stats();
        assert_eq!(stats.msgs_to_hw, 5);
        assert_eq!(stats.msgs_to_sw, 5);
    }

    #[test]
    fn pure_sw_fast_path_matches_output() {
        let d = fuse_syncs(&offload_design(false));
        let p = partition(&d, SW).unwrap();
        let mut cs = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
        assert_eq!(cs.hw_partition_count(), 0);
        for i in 0..5 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs
            .run_until(|c| c.sink_count("snk") == 5, 1_000_000)
            .unwrap();
        assert!(out.is_done());
        assert_eq!(sink_ints(&cs, "snk"), vec![1000, 1001, 1002, 1003, 1004]);
        // No link traffic in pure software.
        assert_eq!(cs.link_stats().msgs_to_hw, 0);
    }

    #[test]
    fn partitioned_and_fused_agree() {
        // The LIBDN latency-insensitivity claim, end to end: identical
        // output streams regardless of the partitioning.
        let inputs: Vec<i64> = (0..8).map(|i| i * 3 - 5).collect();
        let run = |hw: bool| -> Vec<i64> {
            let d = if hw {
                offload_design(true)
            } else {
                fuse_syncs(&offload_design(false))
            };
            let p = partition(&d, SW).unwrap();
            let mut cs =
                Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
            for &i in &inputs {
                cs.push_source("src", Value::int(32, i));
            }
            let out = cs
                .run_until(|c| c.sink_count("snk") == inputs.len(), 1_000_000)
                .unwrap();
            assert!(out.is_done());
            sink_ints(&cs, "snk")
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn timeout_reported() {
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let mut cs = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
        cs.push_source("src", Value::int(32, 1));
        let out = cs.run_until(|c| c.sink_count("snk") == 99, 200).unwrap();
        assert!(!out.is_done());
        assert_eq!(out.fpga_cycles(), 200);
    }

    #[test]
    fn faulty_link_output_is_bit_identical_and_reproducible() {
        use crate::link::FaultConfig;
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let run = |faults: FaultConfig| {
            let mut cs = Cosim::with_faults(
                &p,
                SW,
                HW,
                LinkConfig::default(),
                faults,
                SwOptions::default(),
            )
            .unwrap();
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            let out = cs
                .run_until(|c| c.sink_count("snk") == 8, 5_000_000)
                .unwrap();
            assert!(out.is_done(), "did not finish: {out:?}");
            (
                sink_ints(&cs, "snk"),
                out.fpga_cycles(),
                cs.link_stats(),
                cs.channel_report(),
            )
        };
        let (clean, clean_cycles, ..) = run(FaultConfig::none());
        let (faulty, c1, stats, report) = run(FaultConfig::uniform(9, 0.25, 0.2, 0.15, 0.15));
        assert_eq!(faulty, clean, "reliable transport must hide the faults");
        assert!(
            stats.faults_injected() > 0,
            "faults must actually fire: {stats:?}"
        );
        assert!(
            report
                .iter()
                .any(|r| r.retransmits > 0 || r.dup_suppressed > 0),
            "recovery machinery must have engaged: {report:?}"
        );
        assert!(c1 > clean_cycles, "recovery costs cycles");
        // Determinism: the same seed reproduces the exact same run.
        let (_, c2, stats2, _) = run(FaultConfig::uniform(9, 0.25, 0.2, 0.15, 0.15));
        assert_eq!(c1, c2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn dead_direction_stalls_with_diagnostics() {
        use crate::link::FaultConfig;
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        // 100% loss SW→HW: requests never arrive, retransmission can
        // never succeed, and the stall detector must end the run early
        // with per-channel state — not the cycle-limit timeout.
        let faults = FaultConfig {
            drop: [1.0, 0.0],
            ..FaultConfig::uniform(3, 0.0, 0.0, 0.0, 0.0)
        };
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_stall_threshold(10_000);
        cs.push_source("src", Value::int(32, 1));
        let out = cs
            .run_until(|c| c.sink_count("snk") == 1, 100_000_000)
            .unwrap();
        match &out {
            CosimOutcome::Stalled {
                fpga_cycles,
                channels,
            } => {
                assert!(
                    *fpga_cycles < 1_000_000,
                    "stall must fire early, not at the limit"
                );
                let diag = channels
                    .iter()
                    .find(|c| c.name == "inSync")
                    .expect("inSync diagnosed");
                assert!(diag.unacked > 0, "undeliverable frame sits unacked: {diag}");
                assert!(diag.retransmits > 0, "sender kept trying: {diag}");
                assert_eq!(diag.accepted, 0, "receiver never saw it: {diag}");
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn sw_debt_throttles_software() {
        // With an expensive driver, completion takes more cycles.
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let run = |word_cost: u64| {
            let cfg = LinkConfig {
                sw_word_cost: word_cost,
                ..Default::default()
            };
            let mut cs = Cosim::new(&p, SW, HW, cfg, SwOptions::default()).unwrap();
            for i in 0..10 {
                cs.push_source("src", Value::int(32, i));
            }
            cs.run_until(|c| c.sink_count("snk") == 10, 1_000_000)
                .unwrap()
                .fpga_cycles()
        };
        let cheap = run(1);
        let pricey = run(400);
        assert!(
            pricey > cheap,
            "driver cost must slow completion: {pricey} !> {cheap}"
        );
    }

    #[test]
    fn missing_sw_partition_is_a_malformed_error() {
        let d = offload_design(true);
        let mut p = partition(&d, SW).unwrap();
        p.partitions.remove(SW);
        let err = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default())
            .expect_err("must be rejected, not silently substituted");
        let msg = err.to_string();
        assert!(
            msg.contains("malformed") && msg.contains("software"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn two_domain_constructor_rejects_extra_partitions() {
        let d = chain_design(HW, HW2);
        let p = partition(&d, SW).unwrap();
        let err = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default())
            .expect_err("three domains need Cosim::multi");
        let msg = err.to_string();
        assert!(msg.contains("Cosim::multi"), "must point at multi: {msg}");
    }

    #[test]
    fn multi_rejects_bad_configurations() {
        let d = chain_design(HW, HW2);
        let p = partition(&d, SW).unwrap();
        let dup = [HwPartitionCfg::new(HW), HwPartitionCfg::new(HW)];
        let err = Cosim::multi(&p, SW, &dup, InterHwRouting::ViaHub, SwOptions::default())
            .expect_err("duplicate cfg");
        assert!(err.to_string().contains("duplicate"), "{err}");
        let sw_cfg = [HwPartitionCfg::new(SW)];
        let err = Cosim::multi(
            &p,
            SW,
            &sw_cfg,
            InterHwRouting::ViaHub,
            SwOptions::default(),
        )
        .expect_err("sw cfg");
        assert!(err.to_string().contains("software domain"), "{err}");
        let missing = [HwPartitionCfg::new(HW)];
        let err = Cosim::multi(
            &p,
            SW,
            &missing,
            InterHwRouting::ViaHub,
            SwOptions::default(),
        )
        .expect_err("HW2 uncovered");
        assert!(err.to_string().contains("HW2"), "{err}");
    }

    #[test]
    fn try_accessors_report_errors_instead_of_panicking() {
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let tx_path = p.channels[0].tx_path.clone();
        let mut cs = Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();

        let err = cs.try_push_source("nope", Value::int(32, 1)).unwrap_err();
        assert!(err.to_string().contains("no primitive `nope`"));
        let err = cs.try_sink_values("nope").unwrap_err();
        assert!(err.to_string().contains("no primitive `nope`"));

        // Wrong kind: a channel FIFO half is not a Source, a Sink is not
        // a Source, and a Source is not a Sink.
        let err = cs.try_push_source(&tx_path, Value::int(32, 1)).unwrap_err();
        assert!(err.to_string().contains("is a Fifo, not a Source"), "{err}");
        let err = cs.try_push_source("snk", Value::int(32, 1)).unwrap_err();
        assert!(err.to_string().contains("is a Sink, not a Source"), "{err}");
        let err = cs.try_sink_values("src").unwrap_err();
        assert!(err.to_string().contains("is a Source, not a Sink"), "{err}");

        // The happy path still works through the same machinery.
        cs.try_push_source("src", Value::int(32, 7)).unwrap();
        assert!(cs.try_sink_values("snk").unwrap().is_empty());
    }

    #[test]
    fn checkpoint_restore_is_bit_and_cycle_identical() {
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let mk = || {
            let mut cs =
                Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            cs
        };
        // Uninterrupted reference run.
        let mut reference = mk();
        let ref_out = reference
            .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
            .unwrap();
        assert!(ref_out.is_done());

        // Interrupted run: advance, checkpoint, wander off, restore,
        // finish. Must reproduce the exact cycle count and values.
        let mut cs = mk();
        for _ in 0..150 {
            cs.step().unwrap();
        }
        let ckpt = cs.checkpoint();
        assert_eq!(ckpt.fpga_cycles(), 150);
        for _ in 0..300 {
            cs.step().unwrap();
        }
        cs.restore(&ckpt);
        assert_eq!(cs.fpga_cycles, 150);
        let out = cs
            .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
            .unwrap();
        assert!(out.is_done());
        assert_eq!(out.fpga_cycles(), ref_out.fpga_cycles());
        assert_eq!(cs.sink_values("snk"), reference.sink_values("snk"));
        assert_eq!(cs.link_stats(), reference.link_stats());
    }

    #[test]
    fn budget_accounting_survives_restore_exactly() {
        // cpu_cycles and sw_debt must replay exactly across a restore,
        // under a driver expensive enough to keep debt nonzero.
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let cfg = LinkConfig {
            sw_word_cost: 400,
            ..Default::default()
        };
        let mut cs = Cosim::new(&p, SW, HW, cfg, SwOptions::default()).unwrap();
        for i in 0..10 {
            cs.push_source("src", Value::int(32, i));
        }
        for _ in 0..300 {
            cs.step().unwrap();
        }
        let ckpt = cs.checkpoint();
        let mut trajectory = Vec::new();
        for _ in 0..200 {
            cs.step().unwrap();
            trajectory.push((cs.fpga_cycles, cs.sw_debt(), cs.sw.cpu_cycles()));
        }
        assert!(
            trajectory.iter().any(|&(_, debt, _)| debt > 0),
            "test must exercise nonzero debt"
        );
        cs.restore(&ckpt);
        let mut replay = Vec::new();
        for _ in 0..200 {
            cs.step().unwrap();
            replay.push((cs.fpga_cycles, cs.sw_debt(), cs.sw.cpu_cycles()));
        }
        assert_eq!(trajectory, replay);
    }

    #[test]
    fn die_without_recovery_stalls_with_diagnostics() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let faults = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(200));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_stall_threshold(5_000);
        for i in 0..8 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs
            .run_until(|c| c.sink_count("snk") == 8, 10_000_000)
            .unwrap();
        assert!(out.is_stalled(), "expected a stall, got {out:?}");
        assert!(!cs.hw_alive());
        assert!(cs.sink_count("snk") < 8, "dead hardware cannot finish");
    }

    #[test]
    fn restart_from_checkpoint_is_bit_and_cycle_identical() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let run = |faults: FaultConfig, policy: RecoveryPolicy| {
            let mut cs = Cosim::with_faults(
                &p,
                SW,
                HW,
                LinkConfig::default(),
                faults,
                SwOptions::default(),
            )
            .unwrap();
            cs.set_recovery_policy(policy);
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            let out = cs
                .run_until(|c| c.sink_count("snk") == 8, 10_000_000)
                .unwrap();
            assert!(out.is_done(), "did not finish: {out:?}");
            (sink_ints(&cs, "snk"), out.fpga_cycles())
        };
        let (clean, clean_cycles) = run(FaultConfig::none(), RecoveryPolicy::Fail);
        let faults = FaultConfig::none()
            .with_partition_fault(PartitionFault::ResetAt(120))
            .with_partition_fault(PartitionFault::DieAt(260));
        let (vals, cycles) = run(faults, RecoveryPolicy::restart(100));
        assert_eq!(vals, clean, "restart must hide the faults");
        assert_eq!(
            cycles, clean_cycles,
            "replay past a fired fault converges to the fault-free trajectory"
        );
    }

    #[test]
    fn failover_to_software_preserves_the_value_streams() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let clean: Vec<i64> = {
            let mut cs =
                Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            assert!(cs
                .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
                .unwrap()
                .is_done());
            sink_ints(&cs, "snk")
        };
        let faults = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(180));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::failover(50));
        for i in 0..8 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs
            .run_until(|c| c.sink_count("snk") == 8, 10_000_000)
            .unwrap();
        assert!(out.is_done(), "failover must finish the job: {out:?}");
        assert!(cs.failed_over());
        assert!(!cs.hw_alive());
        assert_eq!(
            cs.hw_partition_count(),
            0,
            "hardware is gone after failover"
        );
        assert_eq!(
            sink_ints(&cs, "snk"),
            clean,
            "software takeover must not change values"
        );
    }

    #[test]
    fn retry_exhaustion_reports_partition_lost() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let faults = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(100));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::RestartFromCheckpoint {
            interval: 50,
            max_retries: 0,
        });
        cs.push_source("src", Value::int(32, 1));
        let out = cs
            .run_until(|c| c.sink_count("snk") == 1, 1_000_000)
            .unwrap();
        match out {
            CosimOutcome::PartitionLost {
                fpga_cycles,
                retries,
            } => {
                assert_eq!(fpga_cycles, 100);
                assert_eq!(retries, 0);
            }
            other => panic!("expected PartitionLost, got {other:?}"),
        }
    }

    // ---- multi-partition tests --------------------------------------

    /// Runs the three-domain chain over two hardware partitions and
    /// returns the sink stream plus the finished cosim.
    fn run_chain(
        routing: InterHwRouting,
        cfgs: &[HwPartitionCfg],
        policy: RecoveryPolicy,
        n: i64,
    ) -> (Vec<i64>, Cosim) {
        let d = chain_design(HW, HW2);
        let p = partition(&d, SW).unwrap();
        let mut cs = Cosim::multi(&p, SW, cfgs, routing, SwOptions::default()).unwrap();
        cs.set_recovery_policy(policy);
        for i in 0..n {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs
            .run_until(|c| c.sink_count("snk") == n as usize, 10_000_000)
            .unwrap();
        assert!(out.is_done(), "did not finish: {out:?}");
        (sink_ints(&cs, "snk"), cs)
    }

    fn plain_cfgs() -> Vec<HwPartitionCfg> {
        vec![HwPartitionCfg::new(HW), HwPartitionCfg::new(HW2)]
    }

    #[test]
    fn hub_and_fabric_routing_agree_with_all_software() {
        // Semantic interchangeability across physical topologies: the
        // all-software run, the hub-routed and the fabric-routed
        // two-accelerator runs all produce the same stream.
        let expect: Vec<i64> = (0..12).map(|i| i + 11).collect();
        let sw_only = {
            let d = fuse_syncs(&chain_design(SW, SW));
            let p = partition(&d, SW).unwrap();
            let mut cs =
                Cosim::multi(&p, SW, &[], InterHwRouting::ViaHub, SwOptions::default()).unwrap();
            for i in 0..12 {
                cs.push_source("src", Value::int(32, i));
            }
            assert!(cs
                .run_until(|c| c.sink_count("snk") == 12, 10_000_000)
                .unwrap()
                .is_done());
            sink_ints(&cs, "snk")
        };
        let (hub, hub_cs) = run_chain(
            InterHwRouting::ViaHub,
            &plain_cfgs(),
            RecoveryPolicy::Fail,
            12,
        );
        let (fab, fab_cs) = run_chain(
            InterHwRouting::fabric(),
            &plain_cfgs(),
            RecoveryPolicy::Fail,
            12,
        );
        assert_eq!(sw_only, expect);
        assert_eq!(hub, expect);
        assert_eq!(fab, expect);
        assert_eq!(hub_cs.hw_partition_count(), 2);
        assert_eq!(hub_cs.hw_domains(), vec![HW, HW2]);
        // Hub routing pays for the HW↔HW hop on the CPU links; fabric
        // keeps it off the bus entirely.
        assert!(hub_cs.fabric_stats().msgs_to_hw == 0);
        assert!(fab_cs.fabric_stats().msgs_to_hw > 0);
        assert!(
            hub_cs.link_stats().msgs_to_hw > fab_cs.link_stats().msgs_to_hw,
            "hub routing must add CPU-link traffic"
        );
    }

    #[test]
    fn single_partition_multi_matches_two_domain_constructor_exactly() {
        // N=1 through Cosim::multi is the same machine as the two-domain
        // constructor: bit- and cycle-identical.
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let run = |multi: bool| {
            let mut cs = if multi {
                Cosim::multi(
                    &p,
                    SW,
                    &[HwPartitionCfg::new(HW)],
                    InterHwRouting::ViaHub,
                    SwOptions::default(),
                )
                .unwrap()
            } else {
                Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap()
            };
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            let out = cs
                .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
                .unwrap();
            assert!(out.is_done());
            (sink_ints(&cs, "snk"), out.fpga_cycles(), cs.link_stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn per_partition_clock_divider_slows_completion_but_not_values() {
        let expect: Vec<i64> = (0..8).map(|i| i + 11).collect();
        let (fast, fast_cs) = run_chain(
            InterHwRouting::ViaHub,
            &plain_cfgs(),
            RecoveryPolicy::Fail,
            8,
        );
        let slow_cfgs = vec![
            HwPartitionCfg::new(HW),
            HwPartitionCfg::new(HW2).with_clock_div(64),
        ];
        let (slow, slow_cs) =
            run_chain(InterHwRouting::ViaHub, &slow_cfgs, RecoveryPolicy::Fail, 8);
        assert_eq!(fast, expect);
        assert_eq!(slow, expect, "a slow clock region must not change values");
        assert!(
            slow_cs.fpga_cycles > fast_cs.fpga_cycles,
            "half-speed partition must cost wall-clock: {} !> {}",
            slow_cs.fpga_cycles,
            fast_cs.fpga_cycles
        );
    }

    #[test]
    fn per_partition_fault_schedules_are_independent() {
        use crate::link::{FaultConfig, PartitionFault};
        // A lossy link on one partition and a reset on the other: the
        // stream still comes out bit-identical.
        let (clean, _) = run_chain(
            InterHwRouting::ViaHub,
            &plain_cfgs(),
            RecoveryPolicy::Fail,
            10,
        );
        let cfgs = vec![
            HwPartitionCfg::new(HW).with_faults(FaultConfig::uniform(11, 0.2, 0.15, 0.1, 0.1)),
            HwPartitionCfg::new(HW2).with_faults(
                FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(400)),
            ),
        ];
        let (vals, cs) = run_chain(
            InterHwRouting::ViaHub,
            &cfgs,
            RecoveryPolicy::restart(150),
            10,
        );
        assert_eq!(vals, clean);
        assert!(
            cs.partition_link_stats(HW).unwrap().faults_injected() > 0,
            "faults must fire on HW's link"
        );
        assert_eq!(
            cs.partition_link_stats(HW2).unwrap().faults_injected(),
            0,
            "HW2's link is clean"
        );
    }

    #[test]
    fn multi_checkpoint_restore_is_bit_and_cycle_identical() {
        let d = chain_design(HW, HW2);
        let p = partition(&d, SW).unwrap();
        let mk = || {
            let mut cs = Cosim::multi(
                &p,
                SW,
                &plain_cfgs(),
                InterHwRouting::ViaHub,
                SwOptions::default(),
            )
            .unwrap();
            for i in 0..8 {
                cs.push_source("src", Value::int(32, i));
            }
            cs
        };
        let mut reference = mk();
        let ref_out = reference
            .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
            .unwrap();
        assert!(ref_out.is_done());

        let mut cs = mk();
        for _ in 0..200 {
            cs.step().unwrap();
        }
        let ckpt = cs.checkpoint();
        for _ in 0..400 {
            cs.step().unwrap();
        }
        cs.restore(&ckpt);
        assert_eq!(cs.fpga_cycles, 200);
        let out = cs
            .run_until(|c| c.sink_count("snk") == 8, 1_000_000)
            .unwrap();
        assert!(out.is_done());
        assert_eq!(out.fpga_cycles(), ref_out.fpga_cycles());
        assert_eq!(cs.sink_values("snk"), reference.sink_values("snk"));
        assert_eq!(cs.link_stats(), reference.link_stats());
    }

    #[test]
    fn partial_restart_is_bit_and_cycle_identical() {
        use crate::link::{FaultConfig, PartitionFault};
        let (clean, clean_cs) = run_chain(
            InterHwRouting::ViaHub,
            &plain_cfgs(),
            RecoveryPolicy::Fail,
            8,
        );
        let cfgs = vec![
            HwPartitionCfg::new(HW),
            HwPartitionCfg::new(HW2).with_faults(
                FaultConfig::none()
                    .with_partition_fault(PartitionFault::ResetAt(300))
                    .with_partition_fault(PartitionFault::DieAt(700)),
            ),
        ];
        let (vals, cs) = run_chain(
            InterHwRouting::ViaHub,
            &cfgs,
            RecoveryPolicy::restart(100),
            8,
        );
        assert_eq!(vals, clean, "restart must hide the faults");
        assert_eq!(
            cs.fpga_cycles, clean_cs.fpga_cycles,
            "replay past a fired fault converges to the fault-free trajectory"
        );
        assert_eq!(
            cs.hw_partition_count(),
            2,
            "both partitions still in hardware"
        );
    }

    #[test]
    fn partial_failover_keeps_survivors_in_hardware() {
        use crate::link::{FaultConfig, PartitionFault};
        for routing in [InterHwRouting::ViaHub, InterHwRouting::fabric()] {
            // 200 items: the hub-routed software-owned phase moves only
            // ~2 items per 100 cycles, so ReviveAt(2000) fires mid-run.
            let (clean, _) = run_chain(routing.clone(), &plain_cfgs(), RecoveryPolicy::Fail, 200);
            let cfgs = vec![
                HwPartitionCfg::new(HW),
                HwPartitionCfg::new(HW2).with_faults(
                    FaultConfig::none().with_partition_fault(PartitionFault::DieAt(250)),
                ),
            ];
            let (vals, cs) = run_chain(routing, &cfgs, RecoveryPolicy::failover(100), 200);
            assert!(
                cs.fpga_cycles > 250,
                "the fault must strike mid-run, not after completion"
            );
            assert_eq!(vals, clean, "failover must not change the stream");
            assert!(cs.failed_over());
            assert_eq!(
                cs.hw_partition_count(),
                1,
                "the survivor must still execute in hardware"
            );
            assert_eq!(cs.partition_alive(HW), Some(true));
            assert_eq!(
                cs.partition_alive(HW2),
                None,
                "HW2 was spliced into software"
            );
            assert!(
                cs.partition_link_stats(HW).unwrap().msgs_to_hw > 0,
                "the survivor kept using its link"
            );
        }
    }

    #[test]
    fn revive_after_failover_finishes_in_hardware() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        // 200 items keeps the software-owned phase busy well past the
        // revive point (software drains ~9 items per 100 cycles here).
        let clean: Vec<i64> = {
            let mut cs =
                Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
            for i in 0..200 {
                cs.push_source("src", Value::int(32, i));
            }
            assert!(cs
                .run_until(|c| c.sink_count("snk") == 200, 1_000_000)
                .unwrap()
                .is_done());
            sink_ints(&cs, "snk")
        };
        let faults = FaultConfig::none()
            .with_partition_fault(PartitionFault::DieAt(180))
            .with_partition_fault(PartitionFault::ReviveAt(1_500));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::failover(50));
        for i in 0..200 {
            cs.push_source("src", Value::int(32, i));
        }
        // Walk the lifecycle: Running until the death, SoftwareOwned
        // after the splice, Reviving through the state transfer,
        // Running again after it.
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Running)
        );
        while cs.fpga_cycles < 1_000 {
            cs.step().unwrap();
        }
        assert!(cs.failed_over());
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::SoftwareOwned)
        );
        assert_eq!(cs.hw_partition_count(), 0);
        while cs.fpga_cycles < 1_501 {
            cs.step().unwrap();
        }
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Reviving),
            "state image still crossing the link"
        );
        assert!(cs.revived());
        assert_eq!(cs.hw_partition_count(), 1);
        assert_eq!(cs.partition_hw_cycles(HW), Some(0), "not yet executing");
        let out = cs
            .run_until(|c| c.sink_count("snk") == 200, 10_000_000)
            .unwrap();
        assert!(out.is_done(), "revived run must finish: {out:?}");
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Running)
        );
        assert!(
            cs.partition_hw_cycles(HW).unwrap() > 0,
            "the revived partition must execute rules in hardware again"
        );
        assert_eq!(
            sink_ints(&cs, "snk"),
            clean,
            "die → failover → revive must not change the stream"
        );
    }

    #[test]
    fn explicit_revive_matches_scripted_revive_values() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let faults = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(180));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::failover(50));
        // Reviving a running partition is an error.
        assert!(cs.revive(HW).is_err());
        for i in 0..200 {
            cs.push_source("src", Value::int(32, i));
        }
        while cs.fpga_cycles < 1_500 {
            cs.step().unwrap();
        }
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::SoftwareOwned)
        );
        cs.revive(HW).unwrap();
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Reviving)
        );
        // Reviving twice is an error.
        assert!(cs.revive(HW).is_err());
        let out = cs
            .run_until(|c| c.sink_count("snk") == 200, 10_000_000)
            .unwrap();
        assert!(out.is_done(), "{out:?}");
        assert!(cs.partition_hw_cycles(HW).unwrap() > 0);
        assert_eq!(
            sink_ints(&cs, "snk"),
            (0..200).map(|i| i + 1000).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn revive_survives_multi_partition_chains_on_both_routings() {
        use crate::link::{FaultConfig, PartitionFault};
        for routing in [InterHwRouting::ViaHub, InterHwRouting::fabric()] {
            // 200 items: the hub-routed software-owned phase moves only
            // ~2 items per 100 cycles, so ReviveAt(2000) fires mid-run.
            let (clean, _) = run_chain(routing.clone(), &plain_cfgs(), RecoveryPolicy::Fail, 200);
            let cfgs = vec![
                HwPartitionCfg::new(HW),
                HwPartitionCfg::new(HW2).with_faults(
                    FaultConfig::none()
                        .with_partition_fault(PartitionFault::DieAt(250))
                        .with_partition_fault(PartitionFault::ReviveAt(2_000)),
                ),
            ];
            let (vals, cs) = run_chain(routing, &cfgs, RecoveryPolicy::failover(100), 200);
            assert_eq!(vals, clean, "failover + revive must not change the stream");
            assert!(cs.failed_over() && cs.revived());
            assert_eq!(
                cs.hw_partition_count(),
                2,
                "both partitions back in hardware"
            );
            assert_eq!(
                cs.hw_domains(),
                vec![HW, HW2],
                "the revived partition returns to its configured slot"
            );
        }
    }

    #[test]
    fn die_revive_die_chain_still_converges() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        // 400 items so every fault lands mid-run: the first revival
        // completes around cycle 1_270, the second death strikes the
        // partition while it is running again, and the second revival
        // fires with work still queued in the software-owned phase.
        let faults = FaultConfig::none()
            .with_partition_fault(PartitionFault::DieAt(180))
            .with_partition_fault(PartitionFault::ReviveAt(1_200))
            .with_partition_fault(PartitionFault::DieAt(1_400))
            .with_partition_fault(PartitionFault::ReviveAt(2_600));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::failover(50));
        for i in 0..400 {
            cs.push_source("src", Value::int(32, i));
        }
        let out = cs
            .run_until(|c| c.sink_count("snk") == 400, 10_000_000)
            .unwrap();
        assert!(out.is_done(), "{out:?}");
        assert_eq!(
            sink_ints(&cs, "snk"),
            (0..400).map(|i| i + 1000).collect::<Vec<i64>>()
        );
        assert_eq!(
            cs.partition_lifecycle(HW),
            Some(PartitionLifecycle::Running)
        );
    }

    #[test]
    fn revive_charges_the_cpu_for_the_state_transfer() {
        use crate::link::{FaultConfig, PartitionFault};
        let d = offload_design(true);
        let p = partition(&d, SW).unwrap();
        let faults = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(180));
        let mut cs = Cosim::with_faults(
            &p,
            SW,
            HW,
            LinkConfig::default(),
            faults,
            SwOptions::default(),
        )
        .unwrap();
        cs.set_recovery_policy(RecoveryPolicy::failover(50));
        for i in 0..12 {
            cs.push_source("src", Value::int(32, i));
        }
        while cs.fpga_cycles < 1_500 {
            cs.step().unwrap();
        }
        let debt_before = cs.sw_debt();
        cs.revive(HW).unwrap();
        assert!(
            cs.sw_debt() > debt_before,
            "marshaling the state image must cost CPU cycles: {} !> {}",
            cs.sw_debt(),
            debt_before
        );
    }

    #[test]
    fn dead_partition_accrues_no_cpu_debt() {
        use crate::link::{FaultConfig, PartitionFault};
        // One partition dies with no recovery. Once the system drains,
        // software must settle to zero debt: a dead partition's link is
        // never pumped, so it can never charge the CPU again.
        let d = chain_design(HW, HW2);
        let p = partition(&d, SW).unwrap();
        let cfgs = vec![
            HwPartitionCfg::new(HW),
            HwPartitionCfg::new(HW2)
                .with_faults(FaultConfig::none().with_partition_fault(PartitionFault::DieAt(150))),
        ];
        let mut cs =
            Cosim::multi(&p, SW, &cfgs, InterHwRouting::ViaHub, SwOptions::default()).unwrap();
        for i in 0..50 {
            cs.push_source("src", Value::int(32, i));
        }
        for _ in 0..20_000 {
            cs.step().unwrap();
        }
        assert_eq!(cs.partition_alive(HW2), Some(false));
        // The dead partition's link is never pumped again: its traffic
        // counters freeze, and software debt stays bounded by the (tiny)
        // per-cycle guard-polling cost — the unbounded marshal-debt
        // accrual a pumped-but-dead link would cause cannot happen.
        let frozen = cs.partition_link_stats(HW2).unwrap();
        // One guard-polling sweep costs a handful of CPU cycles; allow a
        // few sweeps' worth. Unbounded growth (the bug this pins) would
        // blow far past this within the 500 steps below.
        let poll_bound = 8 * LinkConfig::default().cpu_per_fpga;
        for _ in 0..500 {
            cs.step().unwrap();
            assert!(
                cs.sw_debt() <= poll_bound,
                "a dead partition must never accrue debt: {}",
                cs.sw_debt()
            );
        }
        assert_eq!(
            cs.partition_link_stats(HW2).unwrap(),
            frozen,
            "a dead partition's link must stay silent"
        );
    }
}
