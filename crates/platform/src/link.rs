//! The physical channel model.
//!
//! Stands in for the paper's experimental platform (Figure 11): a Xilinx
//! ML507 where the PPC440 (400 MHz) talks to FPGA logic (100 MHz) over
//! LocalLink with embedded HDMA engines. The paper reports a ~100
//! FPGA-cycle round-trip latency and up to 400 MB/s of streaming
//! bandwidth; the defaults here reproduce exactly those numbers
//! (50-cycle one-way latency, one 32-bit word per 100 MHz cycle).
//!
//! Time is measured in FPGA cycles throughout. The link is full duplex:
//! each direction has its own serialization resource.
//!
//! ## Fault injection
//!
//! Real LocalLink/DMA-class interconnects drop, corrupt, duplicate, and
//! reorder frames. [`FaultConfig`] turns this model into an *unreliable*
//! channel: each direction gets an independent, seed-derived PRNG stream
//! and per-frame drop/corrupt/duplicate/reorder probabilities, plus a
//! deterministic script of targeted faults ("drop the Nth SW→HW frame").
//! The same seed and send sequence always produces the same fault
//! schedule, so co-simulations under fault injection are exactly
//! reproducible. Injected faults are tallied per direction in
//! [`LinkStats`]; surviving the faults is the job of the reliable
//! transport in [`crate::transactor`].

use bcl_core::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use std::collections::VecDeque;

/// Direction of travel across a partition boundary.
///
/// A link always has an "A side" and a "B side". On a CPU-attached
/// link the A side is the software partition; on a shared-fabric link
/// between two hardware partitions the A side is whichever partition
/// the cosim designated when it built the link's transactor — the
/// names below read `Sw`/`Hw` for the dominant case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the software (A-side) partition to the hardware (B-side)
    /// partition.
    SwToHw,
    /// From the hardware (B-side) partition to the software (A-side)
    /// partition.
    HwToSw,
}

impl Dir {
    fn idx(self) -> usize {
        match self {
            Dir::SwToHw => 0,
            Dir::HwToSw => 1,
        }
    }

    /// The opposite direction (the one ACKs for this direction's data
    /// travel in).
    pub fn opposite(self) -> Dir {
        match self {
            Dir::SwToHw => Dir::HwToSw,
            Dir::HwToSw => Dir::SwToHw,
        }
    }
}

/// Physical-channel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// One-way message latency in FPGA cycles (default 50, i.e. a ~100
    /// cycle round trip as measured in §7).
    pub one_way_latency: u64,
    /// Serialization bandwidth in 32-bit words per FPGA cycle (default 1,
    /// i.e. 400 MB/s at 100 MHz).
    pub words_per_cycle: u64,
    /// CPU cycles the software driver spends per marshaled word
    /// (uncached bus access / memcpy into the DMA buffer).
    pub sw_word_cost: u64,
    /// Fixed CPU cycles per message on the software side (bus transaction
    /// setup — this is the §2 "overhead of a bus transaction" that burst
    /// transfer amortizes).
    pub sw_msg_overhead: u64,
    /// CPU cycles per FPGA cycle (default 4: 400 MHz / 100 MHz).
    pub cpu_per_fpga: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            one_way_latency: 50,
            words_per_cycle: 1,
            sw_word_cost: 8,
            sw_msg_overhead: 64,
            cpu_per_fpga: 4,
        }
    }
}

/// A message in flight: a marshaled value on one virtual channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Index of the virtual channel (synchronizer) this belongs to.
    pub channel: usize,
    /// Marshaled payload.
    pub words: Vec<u32>,
}

/// A kind of injected link fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is silently discarded (it still occupies the wire).
    Drop,
    /// Random bits inside one 32-bit word of the frame are flipped.
    Corrupt,
    /// A second copy of the frame is delivered shortly after the first.
    Duplicate,
    /// The frame is delayed by a random amount, letting later frames
    /// overtake it.
    Reorder,
}

/// A scripted fault against the hardware *partition* itself rather than
/// the link: the modeled FPGA resets or dies at a given FPGA cycle,
/// wiping its store and all transport state. The co-simulation applies
/// these; recovering from them is the job of the recovery policy
/// (`bcl_platform::cosim::RecoveryPolicy`). Each scripted fault fires at
/// most once per run — it models an event in the environment, so it is
/// deliberately *not* part of a checkpoint and does not re-fire when a
/// recovery policy rewinds the cycle counter past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionFault {
    /// At this FPGA cycle the hardware partition resets: its store
    /// returns to power-on values, the transactors lose their transport
    /// state, and frames on the wire are discarded — but the partition
    /// keeps executing from the reset state.
    ResetAt(u64),
    /// At this FPGA cycle the hardware partition goes down and stays
    /// down (no cycles execute, nothing is pumped); only a recovery
    /// policy can bring the system back.
    DieAt(u64),
    /// At this FPGA cycle the hardware partition comes back to life. It
    /// only has an effect while the partition is software-owned (after a
    /// `DieAt` was survived by `RecoveryPolicy::FailoverToSoftware`):
    /// the co-simulation extracts the partition's live state back out of
    /// the fused software design, reloads the hardware store, rebuilds
    /// the transactor transport from scratch, and resumes co-execution.
    /// While the partition is running in hardware a `ReviveAt` is
    /// ignored (and stays armed, so a later death can still be revived).
    ReviveAt(u64),
}

impl PartitionFault {
    /// The FPGA cycle at which the fault strikes.
    pub fn cycle(&self) -> u64 {
        match self {
            PartitionFault::ResetAt(c) | PartitionFault::DieAt(c) | PartitionFault::ReviveAt(c) => {
                *c
            }
        }
    }

    /// True if the partition stays down after the fault.
    pub fn is_fatal(&self) -> bool {
        matches!(self, PartitionFault::DieAt(_))
    }
}

/// A scripted fault: deterministically applied to the `nth` (0-based)
/// frame sent in direction `dir`, regardless of the random rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Direction of the targeted frame.
    pub dir: Dir,
    /// 0-based index of the targeted frame within that direction's send
    /// sequence.
    pub nth: u64,
    /// What happens to it.
    pub kind: FaultKind,
}

/// Deterministic, seed-driven fault model for the link.
///
/// All probabilities are per frame, in `[0, 1]`, applied independently
/// per direction (indexed by [`Dir`]: `[SwToHw, HwToSw]`). With the
/// default [`FaultConfig::none`] the link behaves exactly like the
/// original perfect channel and the transactor takes its zero-overhead
/// fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// PRNG seed; the same seed reproduces the same fault schedule.
    pub seed: u64,
    /// Per-direction probability of dropping a frame.
    pub drop: [f64; 2],
    /// Per-direction probability of corrupting a frame (bit flips within
    /// one word; always caught by the transactor's CRC32).
    pub corrupt: [f64; 2],
    /// Per-direction probability of duplicating a frame.
    pub duplicate: [f64; 2],
    /// Per-direction probability of delaying a frame past its
    /// successors.
    pub reorder: [f64; 2],
    /// Targeted faults applied on top of the random rates.
    pub script: Vec<ScriptedFault>,
    /// Scripted faults against the hardware partition itself (resets and
    /// deaths). These do not affect the link's frame-level fault schedule
    /// and do not disable the transactor's fast path on an otherwise
    /// perfect link.
    pub partition: Vec<PartitionFault>,
}

impl FaultConfig {
    /// A perfect link: no faults, transactor fast path enabled.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop: [0.0; 2],
            corrupt: [0.0; 2],
            duplicate: [0.0; 2],
            reorder: [0.0; 2],
            script: Vec::new(),
            partition: Vec::new(),
        }
    }

    /// The same fault rates in both directions.
    pub fn uniform(
        seed: u64,
        drop: f64,
        corrupt: f64,
        duplicate: f64,
        reorder: f64,
    ) -> FaultConfig {
        FaultConfig {
            seed,
            drop: [drop; 2],
            corrupt: [corrupt; 2],
            duplicate: [duplicate; 2],
            reorder: [reorder; 2],
            script: Vec::new(),
            partition: Vec::new(),
        }
    }

    /// Adds a scripted fault (builder style).
    pub fn with_scripted(mut self, dir: Dir, nth: u64, kind: FaultKind) -> FaultConfig {
        self.script.push(ScriptedFault { dir, nth, kind });
        self
    }

    /// Adds a scripted hardware-partition fault (builder style).
    pub fn with_partition_fault(mut self, f: PartitionFault) -> FaultConfig {
        self.partition.push(f);
        self
    }

    /// True if any partition-level fault (reset/death) is scripted.
    pub fn has_partition_faults(&self) -> bool {
        !self.partition.is_empty()
    }

    /// True if any *link-level* fault can ever fire. When false, the
    /// transactor runs its unframed fast path and behaves exactly like
    /// the seed model — partition faults alone do not disable the fast
    /// path, since they do not touch frames on the wire.
    pub fn is_active(&self) -> bool {
        !self.script.is_empty()
            || self
                .drop
                .iter()
                .chain(&self.corrupt)
                .chain(&self.duplicate)
                .chain(&self.reorder)
                .any(|&p| p > 0.0)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// SplitMix64: small, fast, and deterministic — one stream per link
/// direction so the two directions' fault schedules are independent.
#[derive(Debug, Clone)]
struct FaultRng {
    state: u64,
}

impl FaultRng {
    fn new(seed: u64, salt: u64) -> FaultRng {
        FaultRng {
            state: seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            // Still consume a draw so rate changes don't shift the rest
            // of the schedule.
            let _ = self.next_u64();
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform value in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[derive(Debug, Clone)]
struct Direction {
    /// When the serializer is next free (FPGA cycle).
    busy_until: u64,
    /// In-flight messages, kept sorted by delivery time (stable for
    /// equal times, so the fault-free path preserves send order).
    in_flight: VecDeque<(u64, Message)>,
    words_sent: u64,
    messages_sent: u64,
    /// Frames handed to `send` so far (indexes the fault script).
    frames_seen: u64,
    rng: FaultRng,
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    reordered: u64,
}

impl Direction {
    fn new(seed: u64, salt: u64) -> Direction {
        Direction {
            busy_until: 0,
            in_flight: VecDeque::new(),
            words_sent: 0,
            messages_sent: 0,
            frames_seen: 0,
            rng: FaultRng::new(seed, salt),
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
        }
    }

    /// Inserts a frame keeping the queue sorted by delivery time;
    /// insertion after equal times preserves send order.
    fn insert_sorted(&mut self, at: u64, msg: Message) {
        let pos = self.in_flight.partition_point(|(t, _)| *t <= at);
        self.in_flight.insert(pos, (at, msg));
    }
}

/// Cumulative traffic and fault statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Words sent SW→HW.
    pub words_to_hw: u64,
    /// Words sent HW→SW.
    pub words_to_sw: u64,
    /// Messages sent SW→HW.
    pub msgs_to_hw: u64,
    /// Messages sent HW→SW.
    pub msgs_to_sw: u64,
    /// Frames dropped by fault injection, SW→HW.
    pub dropped_to_hw: u64,
    /// Frames dropped by fault injection, HW→SW.
    pub dropped_to_sw: u64,
    /// Frames corrupted by fault injection, SW→HW.
    pub corrupted_to_hw: u64,
    /// Frames corrupted by fault injection, HW→SW.
    pub corrupted_to_sw: u64,
    /// Frames duplicated by fault injection, SW→HW.
    pub duplicated_to_hw: u64,
    /// Frames duplicated by fault injection, HW→SW.
    pub duplicated_to_sw: u64,
    /// Frames delayed past their successors by fault injection, SW→HW.
    pub reordered_to_hw: u64,
    /// Frames delayed past their successors by fault injection, HW→SW.
    pub reordered_to_sw: u64,
}

impl LinkStats {
    /// Accumulates another link's counters into this one. The multi-
    /// partition cosim sums per-partition links into a single bus-level
    /// view ("to_hw" then means "away from software" on any link).
    pub fn merge(&mut self, other: &LinkStats) {
        self.words_to_hw += other.words_to_hw;
        self.words_to_sw += other.words_to_sw;
        self.msgs_to_hw += other.msgs_to_hw;
        self.msgs_to_sw += other.msgs_to_sw;
        self.dropped_to_hw += other.dropped_to_hw;
        self.dropped_to_sw += other.dropped_to_sw;
        self.corrupted_to_hw += other.corrupted_to_hw;
        self.corrupted_to_sw += other.corrupted_to_sw;
        self.duplicated_to_hw += other.duplicated_to_hw;
        self.duplicated_to_sw += other.duplicated_to_sw;
        self.reordered_to_hw += other.reordered_to_hw;
        self.reordered_to_sw += other.reordered_to_sw;
    }

    /// Total frames affected by any injected fault.
    pub fn faults_injected(&self) -> u64 {
        self.dropped_to_hw
            + self.dropped_to_sw
            + self.corrupted_to_hw
            + self.corrupted_to_sw
            + self.duplicated_to_hw
            + self.duplicated_to_sw
            + self.reordered_to_hw
            + self.reordered_to_sw
    }
}

/// The complete mutable state of a [`Link`]: both directions'
/// serializer clocks, in-flight frames, statistics, and — crucially —
/// the fault PRNG streams, so a restored run replays the exact same
/// fault schedule it would have seen uninterrupted.
#[derive(Debug, Clone)]
pub struct LinkSnapshot {
    dirs: [Direction; 2],
}

impl LinkConfig {
    /// Appends this configuration's stable binary encoding (five `u64`s).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.one_way_latency);
        w.u64(self.words_per_cycle);
        w.u64(self.sw_word_cost);
        w.u64(self.sw_msg_overhead);
        w.u64(self.cpu_per_fpga);
    }

    /// Decodes a configuration written by [`LinkConfig::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<LinkConfig> {
        Ok(LinkConfig {
            one_way_latency: r.u64()?,
            words_per_cycle: r.u64()?,
            sw_word_cost: r.u64()?,
            sw_msg_overhead: r.u64()?,
            cpu_per_fpga: r.u64()?,
        })
    }
}

impl Dir {
    fn encode(self, w: &mut ByteWriter) {
        w.u8(self.idx() as u8);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<Dir> {
        match r.u8()? {
            0 => Ok(Dir::SwToHw),
            1 => Ok(Dir::HwToSw),
            _ => Err(CodecError::Malformed("unknown link direction")),
        }
    }
}

impl FaultKind {
    fn encode(self, w: &mut ByteWriter) {
        w.u8(match self {
            FaultKind::Drop => 0,
            FaultKind::Corrupt => 1,
            FaultKind::Duplicate => 2,
            FaultKind::Reorder => 3,
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultKind> {
        match r.u8()? {
            0 => Ok(FaultKind::Drop),
            1 => Ok(FaultKind::Corrupt),
            2 => Ok(FaultKind::Duplicate),
            3 => Ok(FaultKind::Reorder),
            _ => Err(CodecError::Malformed("unknown fault kind")),
        }
    }
}

impl PartitionFault {
    /// Appends this scripted partition fault's stable binary encoding.
    pub fn encode(&self, w: &mut ByteWriter) {
        let (tag, cycle) = match self {
            PartitionFault::ResetAt(c) => (0u8, *c),
            PartitionFault::DieAt(c) => (1, *c),
            PartitionFault::ReviveAt(c) => (2, *c),
        };
        w.u8(tag);
        w.u64(cycle);
    }

    /// Decodes a fault written by [`PartitionFault::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<PartitionFault> {
        let tag = r.u8()?;
        let cycle = r.u64()?;
        match tag {
            0 => Ok(PartitionFault::ResetAt(cycle)),
            1 => Ok(PartitionFault::DieAt(cycle)),
            2 => Ok(PartitionFault::ReviveAt(cycle)),
            _ => Err(CodecError::Malformed("unknown partition-fault tag")),
        }
    }
}

impl FaultConfig {
    /// Appends this fault model's stable binary encoding: seed, the four
    /// per-direction rate pairs as IEEE-754 bits, and both fault scripts.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.seed);
        for rates in [&self.drop, &self.corrupt, &self.duplicate, &self.reorder] {
            w.f64(rates[0]);
            w.f64(rates[1]);
        }
        w.u64(self.script.len() as u64);
        for s in &self.script {
            s.dir.encode(w);
            w.u64(s.nth);
            s.kind.encode(w);
        }
        w.u64(self.partition.len() as u64);
        for p in &self.partition {
            p.encode(w);
        }
    }

    /// Decodes a fault model written by [`FaultConfig::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultConfig> {
        let seed = r.u64()?;
        let mut rates = [[0.0f64; 2]; 4];
        for pair in &mut rates {
            pair[0] = r.f64()?;
            pair[1] = r.f64()?;
        }
        let n = r.seq_len(10)?;
        let mut script = Vec::with_capacity(n);
        for _ in 0..n {
            let dir = Dir::decode(r)?;
            let nth = r.u64()?;
            let kind = FaultKind::decode(r)?;
            script.push(ScriptedFault { dir, nth, kind });
        }
        let n = r.seq_len(9)?;
        let mut partition = Vec::with_capacity(n);
        for _ in 0..n {
            partition.push(PartitionFault::decode(r)?);
        }
        Ok(FaultConfig {
            seed,
            drop: rates[0],
            corrupt: rates[1],
            duplicate: rates[2],
            reorder: rates[3],
            script,
            partition,
        })
    }
}

impl Message {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.channel);
        w.u64(self.words.len() as u64);
        for word in &self.words {
            w.u32(*word);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<Message> {
        let channel = r.usize()?;
        let n = r.seq_len(4)?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(r.u32()?);
        }
        Ok(Message { channel, words })
    }
}

impl Direction {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.busy_until);
        w.u64(self.in_flight.len() as u64);
        for (at, msg) in &self.in_flight {
            w.u64(*at);
            msg.encode(w);
        }
        w.u64(self.words_sent);
        w.u64(self.messages_sent);
        w.u64(self.frames_seen);
        w.u64(self.rng.state);
        w.u64(self.dropped);
        w.u64(self.corrupted);
        w.u64(self.duplicated);
        w.u64(self.reordered);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<Direction> {
        let busy_until = r.u64()?;
        let n = r.seq_len(24)?;
        let mut in_flight = VecDeque::with_capacity(n);
        for _ in 0..n {
            let at = r.u64()?;
            in_flight.push_back((at, Message::decode(r)?));
        }
        Ok(Direction {
            busy_until,
            in_flight,
            words_sent: r.u64()?,
            messages_sent: r.u64()?,
            frames_seen: r.u64()?,
            rng: FaultRng { state: r.u64()? },
            dropped: r.u64()?,
            corrupted: r.u64()?,
            duplicated: r.u64()?,
            reordered: r.u64()?,
        })
    }
}

impl LinkSnapshot {
    /// Appends this snapshot's stable binary encoding — both directions'
    /// serializer clocks, in-flight frames, statistics, and fault-PRNG
    /// states, so a decoded snapshot replays the exact same fault
    /// schedule the capturing link would have.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.dirs[0].encode(w);
        self.dirs[1].encode(w);
    }

    /// Decodes a snapshot written by [`LinkSnapshot::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<LinkSnapshot> {
        Ok(LinkSnapshot {
            dirs: [Direction::decode(r)?, Direction::decode(r)?],
        })
    }
}

/// The modeled physical link.
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    faults: FaultConfig,
    faults_active: bool,
    dirs: [Direction; 2],
}

impl Link {
    /// Creates a perfect link with the given parameters.
    pub fn new(cfg: LinkConfig) -> Link {
        Link::with_faults(cfg, FaultConfig::none())
    }

    /// Creates a link with deterministic fault injection.
    pub fn with_faults(cfg: LinkConfig, faults: FaultConfig) -> Link {
        let dirs = [
            Direction::new(faults.seed, 1),
            Direction::new(faults.seed, 2),
        ];
        let faults_active = faults.is_active();
        Link {
            cfg,
            faults,
            faults_active,
            dirs,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The fault model.
    pub fn fault_config(&self) -> &FaultConfig {
        &self.faults
    }

    /// True if this link can ever drop, corrupt, duplicate, or reorder a
    /// frame. The transactor keys its protocol choice off this.
    pub fn faults_active(&self) -> bool {
        self.faults_active
    }

    /// Enqueues a message at time `now`, returning its delivery time.
    /// Serialization occupies the direction's bandwidth back-to-back
    /// (burst behaviour: a long message is one DMA burst). Under fault
    /// injection the frame may additionally be dropped, corrupted,
    /// duplicated, or delayed — deterministically for a given seed and
    /// send sequence.
    pub fn send(&mut self, dir: Dir, msg: Message, now: u64) -> u64 {
        let Link {
            cfg,
            faults,
            faults_active,
            dirs,
        } = self;
        let one_way = cfg.one_way_latency;
        let words_per_cycle = cfg.words_per_cycle;
        let d = &mut dirs[dir.idx()];
        let words = msg.words.len() as u64;
        let start = d.busy_until.max(now);
        let ser = words.div_ceil(words_per_cycle).max(1);
        d.busy_until = start + ser;
        let deliver_at = d.busy_until + one_way;
        d.words_sent += words;
        d.messages_sent += 1;
        let frame_idx = d.frames_seen;
        d.frames_seen += 1;

        if !*faults_active {
            d.in_flight.push_back((deliver_at, msg));
            return deliver_at;
        }

        // Independent random draws first, then scripted overrides. The
        // draws happen unconditionally (even when a script already
        // decided the same kind) so editing the script never shifts the
        // random schedule downstream of it.
        let di = dir.idx();
        let mut drop = d.rng.chance(faults.drop[di]);
        let mut corrupt = d.rng.chance(faults.corrupt[di]);
        let mut duplicate = d.rng.chance(faults.duplicate[di]);
        let mut reorder = d.rng.chance(faults.reorder[di]);
        for s in &faults.script {
            if s.dir == dir && s.nth == frame_idx {
                match s.kind {
                    FaultKind::Drop => drop = true,
                    FaultKind::Corrupt => corrupt = true,
                    FaultKind::Duplicate => duplicate = true,
                    FaultKind::Reorder => reorder = true,
                }
            }
        }

        if drop {
            d.dropped += 1;
            return deliver_at;
        }
        let mut msg = msg;
        if corrupt && !msg.words.is_empty() {
            // Flip 1–3 bits inside one word: a burst error of at most 32
            // bits, which CRC32 detects with certainty.
            let w = d.rng.below(msg.words.len() as u64) as usize;
            let flips = 1 + d.rng.below(3);
            for _ in 0..flips {
                msg.words[w] ^= 1 << d.rng.below(32);
            }
            d.corrupted += 1;
        }
        let mut at = deliver_at;
        if reorder {
            // Delay far enough that back-to-back successors overtake it.
            at += 1 + d.rng.below(2 * one_way + 1);
            d.reordered += 1;
        }
        let dup_at = if duplicate {
            d.duplicated += 1;
            Some(at + 1 + d.rng.below(one_way + 1))
        } else {
            None
        };
        d.insert_sorted(at, msg.clone());
        if let Some(t) = dup_at {
            d.insert_sorted(t, msg);
        }
        deliver_at
    }

    /// Pops every message whose delivery time is `<= now` in the given
    /// direction and appends them to `out`, in delivery order, so a
    /// caller that reuses `out` receives without allocating.
    pub fn deliveries(&mut self, dir: Dir, now: u64, out: &mut Vec<Message>) {
        let d = &mut self.dirs[dir.idx()];
        while let Some((t, msg)) = d.in_flight.pop_front() {
            if t <= now {
                out.push(msg);
            } else {
                d.in_flight.push_front((t, msg));
                break;
            }
        }
    }

    /// The earliest delivery cycle among the frames in flight in either
    /// direction, or `u64::MAX` on an empty wire: [`Link::deliveries`]
    /// returns nothing before it. O(1), because each direction's queue
    /// is kept sorted by delivery time and `deliveries` pops from the
    /// front.
    pub fn next_due(&self) -> u64 {
        self.dirs
            .iter()
            .filter_map(|d| d.in_flight.front().map(|(t, _)| *t))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Number of messages still in flight in a direction.
    pub fn in_flight(&self, dir: Dir) -> usize {
        self.dirs[dir.idx()].in_flight.len()
    }

    /// The messages currently in flight in a direction, in delivery
    /// order. The software-failover path uses this to recover in-transit
    /// values from a fault-free (unframed) link.
    pub fn in_flight_messages(&self, dir: Dir) -> impl Iterator<Item = &Message> {
        self.dirs[dir.idx()].in_flight.iter().map(|(_, m)| m)
    }

    /// Captures the link's complete mutable state for a later
    /// [`Link::restore`].
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            dirs: self.dirs.clone(),
        }
    }

    /// Rewinds the link to a previously captured snapshot: in-flight
    /// frames, serializer occupancy, statistics, and the fault PRNG
    /// streams all return to the capture instant.
    pub fn restore(&mut self, snap: &LinkSnapshot) {
        self.dirs.clone_from(&snap.dirs);
    }

    /// Discards every frame currently on the wire in both directions, as
    /// a partition reset does (the DMA session is severed). Serializer
    /// timing, statistics, and the fault PRNG streams are untouched.
    pub fn clear_in_flight(&mut self) {
        for d in &mut self.dirs {
            d.in_flight.clear();
        }
    }

    /// Traffic totals.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            words_to_hw: self.dirs[0].words_sent,
            words_to_sw: self.dirs[1].words_sent,
            msgs_to_hw: self.dirs[0].messages_sent,
            msgs_to_sw: self.dirs[1].messages_sent,
            dropped_to_hw: self.dirs[0].dropped,
            dropped_to_sw: self.dirs[1].dropped,
            corrupted_to_hw: self.dirs[0].corrupted,
            corrupted_to_sw: self.dirs[1].corrupted,
            duplicated_to_hw: self.dirs[0].duplicated,
            duplicated_to_sw: self.dirs[1].duplicated,
            reordered_to_hw: self.dirs[0].reordered,
            reordered_to_sw: self.dirs[1].reordered,
        }
    }

    /// CPU-cycle cost for the software side to marshal (or demarshal) a
    /// message of `words` words.
    pub fn sw_transfer_cost(&self, words: usize) -> u64 {
        self.cfg.sw_msg_overhead + self.cfg.sw_word_cost * words as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(ch: usize, n: usize) -> Message {
        Message {
            channel: ch,
            words: vec![0xaa; n],
        }
    }

    /// The messages delivered by `now`, in a fresh buffer.
    fn delivered(l: &mut Link, dir: Dir, now: u64) -> Vec<Message> {
        let mut out = Vec::new();
        l.deliveries(dir, now, &mut out);
        out
    }

    #[test]
    fn latency_is_config_plus_serialization() {
        let mut l = Link::new(LinkConfig::default());
        let t = l.send(Dir::SwToHw, msg(0, 1), 0);
        assert_eq!(t, 51, "1 cycle serialization + 50 latency");
        assert!(delivered(&mut l, Dir::SwToHw, 50).is_empty());
        assert_eq!(delivered(&mut l, Dir::SwToHw, 51).len(), 1);
        assert_eq!(l.in_flight(Dir::SwToHw), 0);
    }

    #[test]
    fn round_trip_is_about_100_cycles() {
        // The §7 headline: ping at t=0, echo immediately, response arrives
        // ~2 * (latency + serialization) ≈ 102 cycles later.
        let mut l = Link::new(LinkConfig::default());
        let t1 = l.send(Dir::SwToHw, msg(0, 1), 0);
        let t2 = l.send(Dir::HwToSw, msg(0, 1), t1);
        assert_eq!(t2, 102);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        let mut l = Link::new(LinkConfig::default());
        // A 128-word frame occupies the link 128 cycles.
        let t = l.send(Dir::SwToHw, msg(0, 128), 0);
        assert_eq!(t, 178);
        // The next message queues behind it.
        let t2 = l.send(Dir::SwToHw, msg(0, 128), 0);
        assert_eq!(t2, 306);
        // The opposite direction is independent (full duplex).
        let t3 = l.send(Dir::HwToSw, msg(0, 1), 0);
        assert_eq!(t3, 51);
    }

    #[test]
    fn deliveries_preserve_order() {
        let mut l = Link::new(LinkConfig::default());
        l.send(Dir::SwToHw, msg(1, 1), 0);
        l.send(Dir::SwToHw, msg(2, 1), 0);
        let d = delivered(&mut l, Dir::SwToHw, 1000);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].channel, 1);
        assert_eq!(d[1].channel, 2);
    }

    #[test]
    fn next_due_is_the_earliest_delivery_in_either_direction() {
        let mut l = Link::with_faults(
            LinkConfig::default(),
            FaultConfig::uniform(11, 0.0, 0.0, 0.3, 0.5),
        );
        assert_eq!(l.next_due(), u64::MAX, "empty wire");
        for now in 0..40 {
            l.send(Dir::SwToHw, msg(0, 3), now);
            l.send(Dir::HwToSw, msg(0, 1), now * 2);
        }
        let mut now = 0;
        while l.next_due() != u64::MAX {
            let due = l.next_due();
            assert!(due >= now, "delivery times only move forward");
            for t in now..due {
                assert!(delivered(&mut l, Dir::SwToHw, t).is_empty());
                assert!(delivered(&mut l, Dir::HwToSw, t).is_empty());
            }
            let got = delivered(&mut l, Dir::SwToHw, due).len()
                + delivered(&mut l, Dir::HwToSw, due).len();
            assert!(got > 0, "something is delivered at {due}");
            now = due + 1;
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Link::new(LinkConfig::default());
        l.send(Dir::SwToHw, msg(0, 10), 0);
        l.send(Dir::HwToSw, msg(0, 3), 0);
        let s = l.stats();
        assert_eq!(s.words_to_hw, 10);
        assert_eq!(s.words_to_sw, 3);
        assert_eq!(s.msgs_to_hw, 1);
        assert_eq!(s.msgs_to_sw, 1);
    }

    #[test]
    fn sw_cost_scales_with_words() {
        let l = Link::new(LinkConfig::default());
        assert_eq!(l.sw_transfer_cost(0), 64);
        assert_eq!(l.sw_transfer_cost(10), 64 + 80);
    }

    #[test]
    fn scripted_drop_discards_exactly_the_nth_frame() {
        let faults = FaultConfig::none().with_scripted(Dir::SwToHw, 1, FaultKind::Drop);
        let mut l = Link::with_faults(LinkConfig::default(), faults);
        for ch in 0..3 {
            l.send(Dir::SwToHw, msg(ch, 1), 0);
        }
        let d = delivered(&mut l, Dir::SwToHw, 10_000);
        let chans: Vec<usize> = d.iter().map(|m| m.channel).collect();
        assert_eq!(chans, vec![0, 2], "frame #1 dropped, others intact");
        assert_eq!(l.stats().dropped_to_hw, 1);
        // Stats still count the dropped frame as sent: it occupied the wire.
        assert_eq!(l.stats().msgs_to_hw, 3);
    }

    #[test]
    fn scripted_corrupt_flips_bits_and_counts() {
        let faults = FaultConfig::none().with_scripted(Dir::HwToSw, 0, FaultKind::Corrupt);
        let mut l = Link::with_faults(LinkConfig::default(), faults);
        l.send(Dir::HwToSw, msg(0, 4), 0);
        let d = delivered(&mut l, Dir::HwToSw, 10_000);
        assert_eq!(d.len(), 1);
        assert_ne!(d[0].words, vec![0xaa; 4], "payload must differ");
        assert_eq!(l.stats().corrupted_to_sw, 1);
    }

    #[test]
    fn scripted_duplicate_delivers_twice() {
        let faults = FaultConfig::none().with_scripted(Dir::SwToHw, 0, FaultKind::Duplicate);
        let mut l = Link::with_faults(LinkConfig::default(), faults);
        l.send(Dir::SwToHw, msg(7, 2), 0);
        let d = delivered(&mut l, Dir::SwToHw, 10_000);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], d[1]);
        assert_eq!(l.stats().duplicated_to_hw, 1);
    }

    #[test]
    fn scripted_reorder_lets_successor_overtake() {
        let faults = FaultConfig::none().with_scripted(Dir::SwToHw, 0, FaultKind::Reorder);
        let mut l = Link::with_faults(LinkConfig::default(), faults);
        l.send(Dir::SwToHw, msg(1, 1), 0);
        l.send(Dir::SwToHw, msg(2, 1), 0);
        let d = delivered(&mut l, Dir::SwToHw, 10_000);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].channel, 2, "delayed frame overtaken");
        assert_eq!(d[1].channel, 1);
        assert_eq!(l.stats().reordered_to_hw, 1);
    }

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let run = || {
            let mut l = Link::with_faults(
                LinkConfig::default(),
                FaultConfig::uniform(42, 0.3, 0.2, 0.1, 0.1),
            );
            for i in 0..200 {
                l.send(Dir::SwToHw, msg(i % 4, 1 + i % 3), i as u64);
            }
            let delivered = delivered(&mut l, Dir::SwToHw, 1_000_000);
            (l.stats(), delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inactive_faults_cost_nothing() {
        // FaultConfig::none() must leave the model bit-for-bit identical
        // to the seed behaviour, including delivery times.
        let mut a = Link::new(LinkConfig::default());
        let mut b = Link::with_faults(LinkConfig::default(), FaultConfig::none());
        for i in 0..50 {
            assert_eq!(
                a.send(Dir::SwToHw, msg(0, 1 + i % 5), i as u64),
                b.send(Dir::SwToHw, msg(0, 1 + i % 5), i as u64)
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert!(!b.faults_active());
    }

    #[test]
    fn snapshot_restore_replays_faults_and_deliveries() {
        let faults = FaultConfig::uniform(7, 0.3, 0.2, 0.1, 0.1);
        let mut l = Link::with_faults(LinkConfig::default(), faults);
        for i in 0..50 {
            l.send(Dir::SwToHw, msg(i % 3, 1), i as u64);
        }
        let snap = l.snapshot();
        let run = |l: &mut Link| {
            for i in 50..100 {
                l.send(Dir::SwToHw, msg(i % 3, 1), i as u64);
            }
            (delivered(l, Dir::SwToHw, 1_000_000), l.stats())
        };
        let first = run(&mut l);
        l.restore(&snap);
        let second = run(&mut l);
        assert_eq!(first, second, "PRNG and wire state must rewind exactly");
    }

    #[test]
    fn partition_faults_do_not_disable_fast_path() {
        let f = FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(100));
        assert!(f.has_partition_faults());
        assert!(!f.is_active(), "link-level faults stay off");
        assert_eq!(PartitionFault::ResetAt(100).cycle(), 100);
        assert!(!PartitionFault::ResetAt(100).is_fatal());
        assert!(PartitionFault::DieAt(5).is_fatal());
        let l = Link::with_faults(LinkConfig::default(), f);
        assert!(!l.faults_active());
    }

    #[test]
    fn clear_in_flight_drops_the_wire_only() {
        let mut l = Link::new(LinkConfig::default());
        l.send(Dir::SwToHw, msg(0, 1), 0);
        l.send(Dir::HwToSw, msg(1, 1), 0);
        assert_eq!(l.in_flight(Dir::SwToHw), 1);
        l.clear_in_flight();
        assert_eq!(l.in_flight(Dir::SwToHw), 0);
        assert_eq!(l.in_flight(Dir::HwToSw), 0);
        let s = l.stats();
        assert_eq!(s.msgs_to_hw, 1, "statistics survive the wipe");
        assert_eq!(s.msgs_to_sw, 1);
    }

    #[test]
    fn sustained_streaming_hits_full_bandwidth() {
        // 400 MB/s at 100 MHz = 1 word/cycle: sending 1000 single-word
        // messages back-to-back occupies exactly 1000 cycles of link time.
        let mut l = Link::new(LinkConfig::default());
        let mut last = 0;
        for _ in 0..1000 {
            last = l.send(Dir::SwToHw, msg(0, 1), 0);
        }
        assert_eq!(last, 1000 + 50);
    }
}
