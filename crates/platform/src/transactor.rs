//! Generated transactors: mapping synchronizers onto the physical link
//! (§4.4, Figure 6).
//!
//! Each synchronizer of the partitioned design becomes a *virtual channel*
//! (an LIBDN FIFO). The transactor marshals values into 32-bit words,
//! arbitrates the single physical link among all channels (round-robin at
//! message granularity), and enforces credit-based flow control: a message
//! is sent only when the receive-side FIFO is guaranteed to have space for
//! it on arrival. Credits are what rule out deadlock and head-of-line
//! blocking — a stalled consumer can never wedge the shared link for other
//! channels.
//!
//! ## Reliable transport
//!
//! On a perfect link (the default, [`crate::link::FaultConfig::none`])
//! the transactor
//! sends bare marshaled payloads, exactly like the paper's platform — the
//! fast path adds zero overhead. When the link is constructed with an
//! active fault model, every message instead becomes a framed,
//! CRC32-protected transfer (see [`crate::wire`]) and the transactor runs
//! a go-back-N reliable-delivery protocol per channel:
//!
//! * data frames carry per-channel sequence numbers; the receiver accepts
//!   only the next in-order sequence, suppresses duplicates, and discards
//!   reordered/overtaking frames (they will be retransmitted in order);
//! * cumulative ACKs piggyback on reverse-direction data frames, with
//!   pure-ACK frames generated after a short delay when no reverse
//!   traffic is available to carry them;
//! * unacknowledged frames sit in a per-channel retransmission queue; a
//!   retransmit timer with exponential backoff resends the whole window
//!   (go-back-N) when the cumulative ACK stops advancing;
//! * a credit is reserved when a sequence number is first transmitted and
//!   recovered only when that sequence is *accepted* — retransmissions
//!   reuse the reserved credit, so flow control stays deadlock-free under
//!   arbitrary loss.
//!
//! The net effect is the paper's latency-insensitivity story extended to
//! an unreliable physical channel: for any fault schedule with loss rate
//! below 1.0, applications observe exactly the same value streams as on
//! a perfect link.

use crate::link::{Dir, Link, Message};
use crate::wire::{Frame, FLAG_ACK, FLAG_DATA, FLAG_RETRANSMIT};
use bcl_core::ast::PrimId;
#[cfg(test)]
use bcl_core::ast::PrimMethod;
use bcl_core::codec::{ByteReader, ByteWriter, CodecResult};
use bcl_core::error::{ExecError, ExecResult};
use bcl_core::partition::ChannelSpec;
use bcl_core::prim::PrimSpec;
use bcl_core::store::Store;
use bcl_core::types::Type;
use bcl_core::value::Value;
use std::collections::VecDeque;

/// FPGA cycles a receiver waits for piggyback opportunities before
/// generating a pure-ACK frame.
const ACK_DELAY: u64 = 8;

/// Cap on exponential backoff, as a multiple of the base retransmission
/// timeout. Kept small so that even long runs of lost retransmissions
/// keep probing the link every few round trips — the stall detector, not
/// the backoff, is what gives up.
const RTO_MAX_MULT: u64 = 8;

/// Runtime state of one virtual channel.
#[derive(Debug)]
struct ChannelRt {
    name: String,
    ty: Type,
    depth: usize,
    dir: Dir,
    /// Transmit FIFO in the producer partition's store.
    tx: PrimId,
    /// Receive FIFO in the consumer partition's store.
    rx: PrimId,
    /// Credits in use: sequence numbers sent but not yet accepted by the
    /// receiver. Retransmissions do not change this — their credit stays
    /// reserved from the first transmission until acceptance.
    in_flight: usize,
    /// Data messages handed to the link for the first time.
    sent: u64,

    // ---- reliable-transport state (used only when faults are active) ----
    /// Next fresh sequence number to assign (sequence numbers start at 1;
    /// 0 means "nothing yet" in ACK space).
    next_seq: u32,
    /// Sender side: highest cumulative ACK received.
    acked: u32,
    /// Receiver side: highest in-order sequence accepted.
    accepted: u32,
    /// Receiver side: an ACK (or re-ACK) should be conveyed to the sender.
    ack_dirty: bool,
    /// When an ACK for this channel last left the receiver.
    last_ack_tx: u64,
    /// Retransmission queue: (seq, marshaled payload) for every
    /// unacknowledged data frame, oldest first.
    unacked: VecDeque<(u32, Vec<u32>)>,
    /// When the oldest unacknowledged frame was last (re)transmitted.
    oldest_sent_at: u64,
    /// Current retransmission timeout (doubles on each expiry, capped).
    rto: u64,
    /// Frames retransmitted.
    retransmits: u64,
    /// Messages accepted into the receive FIFO.
    delivered: u64,
    /// Duplicate data frames suppressed by the receiver.
    dup_suppressed: u64,
    /// Out-of-order (overtaking) data frames discarded by the receiver.
    out_of_order_dropped: u64,
    /// ACKs (piggybacked or pure) sent for this channel's data.
    acks_sent: u64,
}

/// Per-channel traffic summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReport {
    /// Synchronizer path.
    pub name: String,
    /// Messages transferred (first transmissions, not retransmits).
    pub messages: u64,
    /// Words per message.
    pub words_per_msg: usize,
    /// Messages accepted into the receive FIFO.
    pub delivered: u64,
    /// Data frames retransmitted.
    pub retransmits: u64,
    /// Duplicate data frames suppressed on receive.
    pub dup_suppressed: u64,
    /// Reordered/overtaking data frames discarded on receive.
    pub out_of_order_dropped: u64,
    /// ACKs sent (piggybacked or pure) for this channel's data.
    pub acks_sent: u64,
}

/// Transport-level statistics not attributable to a single channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames discarded for CRC mismatch, SW→HW.
    pub crc_rejects_to_hw: u64,
    /// Frames discarded for CRC mismatch, HW→SW.
    pub crc_rejects_to_sw: u64,
    /// Pure-ACK frames sent SW→HW.
    pub ack_frames_to_hw: u64,
    /// Pure-ACK frames sent HW→SW.
    pub ack_frames_to_sw: u64,
}

impl TransportStats {
    /// Accumulates another transactor's counters into this one; the
    /// multi-partition cosim sums per-partition transports.
    pub fn merge(&mut self, other: &TransportStats) {
        self.crc_rejects_to_hw += other.crc_rejects_to_hw;
        self.crc_rejects_to_sw += other.crc_rejects_to_sw;
        self.ack_frames_to_hw += other.ack_frames_to_hw;
        self.ack_frames_to_sw += other.ack_frames_to_sw;
    }
}

/// A per-channel snapshot of sequence/credit state, produced when a
/// co-simulation stalls (see [`crate::cosim::CosimOutcome::Stalled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDiag {
    /// Synchronizer path.
    pub name: String,
    /// Data direction.
    pub dir: Dir,
    /// Next fresh sequence number the sender would assign.
    pub next_seq: u32,
    /// Highest cumulative ACK the sender has seen.
    pub acked: u32,
    /// Highest in-order sequence the receiver has accepted.
    pub accepted: u32,
    /// Credits in use (sequences sent, not yet accepted).
    pub in_flight: usize,
    /// Frames sitting in the retransmission queue.
    pub unacked: usize,
    /// Credit limit (channel depth).
    pub depth: usize,
    /// Values waiting in the transmit FIFO.
    pub tx_backlog: usize,
    /// Values waiting in the receive FIFO.
    pub rx_occupancy: usize,
    /// Frames retransmitted so far.
    pub retransmits: u64,
}

impl std::fmt::Display for ChannelDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "channel `{}` ({:?}): seq {}/ack {}/accepted {}, {} in flight, \
             {} unacked, {}/{} credits, tx backlog {}, rx occupancy {}, {} retransmits",
            self.name,
            self.dir,
            self.next_seq,
            self.acked,
            self.accepted,
            self.in_flight,
            self.unacked,
            self.in_flight + self.rx_occupancy,
            self.depth,
            self.tx_backlog,
            self.rx_occupancy,
            self.retransmits,
        )
    }
}

/// The mutable transport state of one channel, as captured by
/// [`Transactor::snapshot`].
#[derive(Debug, Clone)]
struct ChannelSnap {
    in_flight: usize,
    sent: u64,
    next_seq: u32,
    acked: u32,
    accepted: u32,
    ack_dirty: bool,
    last_ack_tx: u64,
    unacked: VecDeque<(u32, Vec<u32>)>,
    oldest_sent_at: u64,
    rto: u64,
    retransmits: u64,
    delivered: u64,
    dup_suppressed: u64,
    out_of_order_dropped: u64,
    acks_sent: u64,
}

/// Everything mutable in a [`Transactor`]: per-channel sequence, ACK,
/// credit, and retransmission state, the arbitration cursors, the
/// transport statistics, and the progress counter. Restoring makes the
/// transport resume bit-identically from the capture instant.
#[derive(Debug, Clone)]
pub struct TransactorSnapshot {
    channels: Vec<ChannelSnap>,
    rr: usize,
    ack_rr: usize,
    stats: TransportStats,
    progress: u64,
}

impl ChannelSnap {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.in_flight);
        w.u64(self.sent);
        w.u32(self.next_seq);
        w.u32(self.acked);
        w.u32(self.accepted);
        w.bool(self.ack_dirty);
        w.u64(self.last_ack_tx);
        w.u64(self.unacked.len() as u64);
        for (seq, words) in &self.unacked {
            w.u32(*seq);
            w.u64(words.len() as u64);
            for word in words {
                w.u32(*word);
            }
        }
        w.u64(self.oldest_sent_at);
        w.u64(self.rto);
        w.u64(self.retransmits);
        w.u64(self.delivered);
        w.u64(self.dup_suppressed);
        w.u64(self.out_of_order_dropped);
        w.u64(self.acks_sent);
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<ChannelSnap> {
        let in_flight = r.usize()?;
        let sent = r.u64()?;
        let next_seq = r.u32()?;
        let acked = r.u32()?;
        let accepted = r.u32()?;
        let ack_dirty = r.bool()?;
        let last_ack_tx = r.u64()?;
        let n = r.seq_len(12)?;
        let mut unacked = VecDeque::with_capacity(n);
        for _ in 0..n {
            let seq = r.u32()?;
            let m = r.seq_len(4)?;
            let mut words = Vec::with_capacity(m);
            for _ in 0..m {
                words.push(r.u32()?);
            }
            unacked.push_back((seq, words));
        }
        Ok(ChannelSnap {
            in_flight,
            sent,
            next_seq,
            acked,
            accepted,
            ack_dirty,
            last_ack_tx,
            unacked,
            oldest_sent_at: r.u64()?,
            rto: r.u64()?,
            retransmits: r.u64()?,
            delivered: r.u64()?,
            dup_suppressed: r.u64()?,
            out_of_order_dropped: r.u64()?,
            acks_sent: r.u64()?,
        })
    }
}

impl TransactorSnapshot {
    /// Number of channels the capturing transactor had, for shape
    /// validation without panicking.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Appends this snapshot's stable binary encoding.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.channels.len() as u64);
        for ch in &self.channels {
            ch.encode(w);
        }
        w.usize(self.rr);
        w.usize(self.ack_rr);
        w.u64(self.stats.crc_rejects_to_hw);
        w.u64(self.stats.crc_rejects_to_sw);
        w.u64(self.stats.ack_frames_to_hw);
        w.u64(self.stats.ack_frames_to_sw);
        w.u64(self.progress);
    }

    /// Decodes a snapshot written by [`TransactorSnapshot::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<TransactorSnapshot> {
        // A channel record is at least its fixed-size fields long.
        let n = r.seq_len(85)?;
        let mut channels = Vec::with_capacity(n);
        for _ in 0..n {
            channels.push(ChannelSnap::decode(r)?);
        }
        Ok(TransactorSnapshot {
            channels,
            rr: r.usize()?,
            ack_rr: r.usize()?,
            stats: TransportStats {
                crc_rejects_to_hw: r.u64()?,
                crc_rejects_to_sw: r.u64()?,
                ack_frames_to_hw: r.u64()?,
                ack_frames_to_sw: r.u64()?,
            },
            progress: r.u64()?,
        })
    }
}

/// Moves values between a software-partition store and a
/// hardware-partition store across a [`Link`].
#[derive(Debug)]
pub struct Transactor {
    channels: Vec<ChannelRt>,
    rr: usize,
    /// Rotates piggyback ACK selection among channels.
    ack_rr: usize,
    stats: TransportStats,
    /// Monotonic counter bumped whenever any channel makes sequence
    /// progress (a frame accepted or a cumulative ACK advanced). The
    /// cosim's stall detector watches this.
    progress: u64,
    /// Left by the last pump if it delivered and sent nothing; `None`
    /// after any pump that moved a frame, and after a restore or reset.
    quiet: Option<Quiet>,
    /// Scratch for the messages one pump receives, reused by every pump.
    rx: Vec<Message>,
    /// Word buffers of delivered express messages, reused by the next
    /// sends, so a steady-state express pump allocates nothing.
    spare: Vec<Vec<u32>>,
}

/// What a pump that moved nothing saw. Such a pump changes only the
/// arbitration cursor, and so does every later one until a store is
/// written, a frame falls due on the link, or a transport timer expires.
#[derive(Debug, Clone, Copy)]
struct Quiet {
    /// Write generations of the software-side and hardware-side stores.
    gens: (u64, u64),
    /// The earliest retransmit or delayed-ACK deadline (reliable path).
    timer_due: u64,
}

impl Transactor {
    /// Builds a transactor from channel specs, resolving the tx/rx FIFO
    /// paths in the two partition designs.
    ///
    /// # Errors
    ///
    /// Returns an error if a channel references a domain other than the
    /// two given, a path missing from its partition, or a path that
    /// resolves to a primitive that is not a FIFO (the transactor can
    /// only pump FIFOs; anything else indicates a malformed partitioning).
    pub fn new(
        specs: &[ChannelSpec],
        sw_domain: &str,
        sw_design: &bcl_core::design::Design,
        hw_domain: &str,
        hw_design: &bcl_core::design::Design,
    ) -> Result<Transactor, ExecError> {
        if specs.len() > 256 {
            return Err(ExecError::Malformed(format!(
                "{} channels exceed the 8-bit channel-id space of the wire format",
                specs.len()
            )));
        }
        let mut channels = Vec::with_capacity(specs.len());
        for c in specs {
            let (dir, tx_design, rx_design) =
                if c.from_domain == sw_domain && c.to_domain == hw_domain {
                    (Dir::SwToHw, sw_design, hw_design)
                } else if c.from_domain == hw_domain && c.to_domain == sw_domain {
                    (Dir::HwToSw, hw_design, sw_design)
                } else {
                    return Err(ExecError::Malformed(format!(
                        "channel `{}` spans `{}`->`{}`, expected `{sw_domain}`/`{hw_domain}`",
                        c.name, c.from_domain, c.to_domain
                    )));
                };
            let tx = tx_design
                .prim_id(&c.tx_path)
                .ok_or_else(|| ExecError::Malformed(format!("missing tx fifo `{}`", c.tx_path)))?;
            let rx = rx_design
                .prim_id(&c.rx_path)
                .ok_or_else(|| ExecError::Malformed(format!("missing rx fifo `{}`", c.rx_path)))?;
            for (what, design, id, path) in [
                ("tx", tx_design, tx, &c.tx_path),
                ("rx", rx_design, rx, &c.rx_path),
            ] {
                if !matches!(design.prim(id).spec, PrimSpec::Fifo { .. }) {
                    return Err(ExecError::Malformed(format!(
                        "channel `{}` {what} path `{path}` is not a FIFO",
                        c.name
                    )));
                }
            }
            if c.ty.words() >= (1 << 12) {
                return Err(ExecError::Malformed(format!(
                    "channel `{}` payload of {} words exceeds the wire format's 12-bit length field",
                    c.name,
                    c.ty.words()
                )));
            }
            channels.push(ChannelRt {
                name: c.name.clone(),
                ty: c.ty.clone(),
                depth: c.depth,
                dir,
                tx,
                rx,
                in_flight: 0,
                sent: 0,
                next_seq: 1,
                acked: 0,
                accepted: 0,
                ack_dirty: false,
                last_ack_tx: 0,
                unacked: VecDeque::new(),
                oldest_sent_at: 0,
                rto: 0,
                retransmits: 0,
                delivered: 0,
                dup_suppressed: 0,
                out_of_order_dropped: 0,
                acks_sent: 0,
            });
        }
        Ok(Transactor {
            channels,
            rr: 0,
            ack_rr: 0,
            stats: TransportStats::default(),
            progress: 0,
            quiet: None,
            rx: Vec::new(),
            spare: Vec::new(),
        })
    }

    /// The number of virtual channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Monotonic sequence-progress counter (accepted frames + cumulative
    /// ACK advances); flat while the transport is wedged.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Transport-level statistics (CRC rejects, pure-ACK frames).
    pub fn transport_stats(&self) -> TransportStats {
        self.stats
    }

    fn fifo_len(store: &Store, id: PrimId) -> usize {
        store.fifo_len(id)
    }

    /// Wraps a receive-side enqueue error the way the credit protocol
    /// expects: a short word stream is a marshaling error and propagates
    /// as-is (exactly like the old decode-then-enqueue path), anything
    /// else means the FIFO was full despite the credit accounting.
    fn wrap_rx_err(name: &str, e: ExecError) -> ExecError {
        match e {
            ExecError::Type(msg) if msg.starts_with("word stream too short") => {
                ExecError::Type(msg)
            }
            e => ExecError::Malformed(format!("rx fifo `{name}` overflow despite credits: {e}")),
        }
    }

    /// Base retransmission timeout for the link: a round trip plus ACK
    /// delay and serialization slack.
    fn rto_base(link: &Link) -> u64 {
        2 * link.config().one_way_latency + 2 * ACK_DELAY + 32
    }

    /// One pump iteration, at FPGA-cycle `now`: deliver arrived messages
    /// into receive FIFOs, then arbitrate pending transmit FIFOs onto the
    /// link. Returns the CPU cycles of software driver work performed
    /// (marshaling on SW→HW sends, demarshaling on HW→SW deliveries).
    ///
    /// On a fault-free link this is the zero-overhead fast path of the
    /// paper's platform; with faults active it runs the reliable
    /// transport documented at module level.
    ///
    /// After a pump that delivered and sent nothing, the next one only
    /// advances the arbitration cursor, in O(1), while neither store has
    /// been written, no frame is due on the link, and no transport timer
    /// has expired.
    ///
    /// # Errors
    ///
    /// Propagates marshaling errors and transport-protocol violations
    /// (both indicate a malformed design or a transactor bug — injected
    /// faults never surface as errors; they are absorbed by the
    /// protocol).
    pub fn pump(
        &mut self,
        sw_store: &mut Store,
        hw_store: &mut Store,
        link: &mut Link,
        now: u64,
    ) -> ExecResult<u64> {
        let gens = (sw_store.write_gen(), hw_store.write_gen());
        let due = link.next_due();
        if self
            .quiet
            .is_some_and(|q| q.gens == gens && now < due && now < q.timer_due)
        {
            self.advance_rr();
            return Ok(0);
        }
        self.quiet = None;
        let sent = Self::frames_sent(link);
        let charged = if link.faults_active() {
            self.pump_reliable(sw_store, hw_store, link, now)?
        } else {
            self.pump_express(sw_store, hw_store, link, now)?
        };
        if now < due && Self::frames_sent(link) == sent {
            self.quiet = Some(Quiet {
                gens: (sw_store.write_gen(), hw_store.write_gen()),
                timer_due: self.timer_due(link),
            });
        }
        Ok(charged)
    }

    fn frames_sent(link: &Link) -> u64 {
        let s = link.stats();
        s.msgs_to_hw + s.msgs_to_sw
    }

    fn advance_rr(&mut self) {
        let n = self.channels.len();
        if n > 0 {
            self.rr = (self.rr + 1) % n;
        }
    }

    /// The earliest cycle at which a retransmit timer or a delayed pure
    /// ACK falls due, with the same comparisons as the reliable pump.
    /// Neither exists on a perfect link.
    fn timer_due(&self, link: &Link) -> u64 {
        if !link.faults_active() {
            return u64::MAX;
        }
        let rto_base = Self::rto_base(link);
        let mut due = u64::MAX;
        for ch in &self.channels {
            if !ch.unacked.is_empty() {
                let rto = if ch.rto == 0 { rto_base } else { ch.rto };
                due = due.min(ch.oldest_sent_at.saturating_add(rto));
            }
            if ch.ack_dirty {
                due = due.min(ch.last_ack_tx.saturating_add(ACK_DELAY));
            }
        }
        due
    }

    /// The original perfect-link pump: bare payloads, omniscient credit
    /// bookkeeping, no framing overhead.
    fn pump_express(
        &mut self,
        sw_store: &mut Store,
        hw_store: &mut Store,
        link: &mut Link,
        now: u64,
    ) -> ExecResult<u64> {
        let mut sw_cycles = 0u64;

        // Phase 1: deliveries.
        let mut rx = std::mem::take(&mut self.rx);
        for dir in [Dir::SwToHw, Dir::HwToSw] {
            link.deliveries(dir, now, &mut rx);
            for msg in rx.drain(..) {
                let ch = &mut self.channels[msg.channel];
                let rx_store: &mut Store = match dir {
                    Dir::SwToHw => hw_store,
                    Dir::HwToSw => sw_store,
                };
                rx_store
                    .enq_wire(ch.rx, &ch.ty, &msg.words)
                    .map_err(|e| Self::wrap_rx_err(&ch.name, e))?;
                ch.in_flight -= 1;
                ch.delivered += 1;
                self.progress += 1;
                if dir == Dir::HwToSw {
                    sw_cycles += link.sw_transfer_cost(msg.words.len());
                }
                self.spare.push(msg.words);
            }
        }
        self.rx = rx;

        // Phase 2: arbitration — round-robin over channels, draining each
        // transmit FIFO as far as credits allow. Bandwidth is enforced by
        // the link's serialization model; credits bound in-flight data per
        // channel so one blocked consumer cannot monopolize buffering.
        let n = self.channels.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            let ch = &mut self.channels[i];
            loop {
                let (tx_store, rx_store): (&mut Store, &Store) = match ch.dir {
                    Dir::SwToHw => (sw_store, hw_store),
                    Dir::HwToSw => (hw_store, sw_store),
                };
                let credits_used = Self::fifo_len(rx_store, ch.rx) + ch.in_flight;
                if credits_used >= ch.depth {
                    break;
                }
                let mut words = self.spare.pop().unwrap_or_default();
                if !tx_store.fifo_front_wire(ch.tx, &mut words) {
                    self.spare.push(words);
                    break;
                }
                tx_store.fifo_deq(ch.tx)?;
                if ch.dir == Dir::SwToHw {
                    sw_cycles += link.sw_transfer_cost(words.len());
                }
                link.send(ch.dir, Message { channel: i, words }, now);
                ch.in_flight += 1;
                ch.sent += 1;
            }
        }
        self.advance_rr();
        Ok(sw_cycles)
    }

    /// The reliable pump: framed, CRC-checked, sequence-numbered,
    /// ACK-driven go-back-N transfer.
    fn pump_reliable(
        &mut self,
        sw_store: &mut Store,
        hw_store: &mut Store,
        link: &mut Link,
        now: u64,
    ) -> ExecResult<u64> {
        let mut sw_cycles = 0u64;
        let rto_base = Self::rto_base(link);

        // Phase 1: receive — CRC-validate, process ACKs, accept in-order
        // data, suppress duplicates, discard overtakers.
        let mut rx = std::mem::take(&mut self.rx);
        for dir in [Dir::SwToHw, Dir::HwToSw] {
            link.deliveries(dir, now, &mut rx);
            for msg in rx.drain(..) {
                let frame = match Frame::decode(&msg.words) {
                    Some(f) => f,
                    None => {
                        match dir {
                            Dir::SwToHw => self.stats.crc_rejects_to_hw += 1,
                            Dir::HwToSw => self.stats.crc_rejects_to_sw += 1,
                        }
                        continue;
                    }
                };
                if frame.is_ack() {
                    self.process_ack(&frame, dir, now, rto_base)?;
                }
                if frame.is_data() {
                    sw_cycles += self.process_data(&frame, dir, sw_store, hw_store, link)?;
                }
            }
        }
        self.rx = rx;

        // Phase 2: retransmission timers — go-back-N resend of the whole
        // unacknowledged window, with exponential backoff.
        let n = self.channels.len();
        for i in 0..n {
            let ch = &mut self.channels[i];
            if ch.unacked.is_empty() {
                continue;
            }
            let rto = if ch.rto == 0 { rto_base } else { ch.rto };
            if now < ch.oldest_sent_at.saturating_add(rto) {
                continue;
            }
            let frames: Vec<(u32, Vec<u32>)> = ch.unacked.iter().cloned().collect();
            let dir = ch.dir;
            ch.retransmits += frames.len() as u64;
            ch.oldest_sent_at = now;
            ch.rto = (rto * 2).min(rto_base * RTO_MAX_MULT);
            for (seq, payload) in frames {
                if dir == Dir::SwToHw {
                    sw_cycles += link.sw_transfer_cost(payload.len());
                }
                let frame = Frame {
                    channel: i as u8,
                    flags: FLAG_DATA | FLAG_RETRANSMIT,
                    ack_channel: 0,
                    seq,
                    ack: 0,
                    payload,
                };
                link.send(
                    dir,
                    Message {
                        channel: i,
                        words: frame.encode(),
                    },
                    now,
                );
            }
        }

        // Phase 3: arbitration of fresh data, round-robin under credits.
        // A credit is consumed per fresh sequence number; retransmissions
        // above reuse theirs, so loss can never leak credits.
        for k in 0..n {
            let i = (self.rr + k) % n;
            loop {
                let ch = &self.channels[i];
                let (tx_store, rx_store): (&mut Store, &Store) = match ch.dir {
                    Dir::SwToHw => (sw_store, hw_store),
                    Dir::HwToSw => (hw_store, sw_store),
                };
                let credits_used = Self::fifo_len(rx_store, ch.rx) + ch.in_flight;
                if credits_used >= ch.depth {
                    break;
                }
                let mut payload = Vec::new();
                if !tx_store.fifo_front_wire(ch.tx, &mut payload) {
                    break;
                }
                tx_store.fifo_deq(ch.tx)?;
                let dir = ch.dir;
                if dir == Dir::SwToHw {
                    sw_cycles += link.sw_transfer_cost(payload.len());
                }
                let (ack_channel, ack) = self.take_piggyback_ack(dir, now);
                let ch = &mut self.channels[i];
                let seq = ch.next_seq;
                ch.next_seq = ch.next_seq.wrapping_add(1);
                let flags = FLAG_DATA | if ack_channel.is_some() { FLAG_ACK } else { 0 };
                let frame = Frame {
                    channel: i as u8,
                    flags,
                    ack_channel: ack_channel.unwrap_or(0),
                    seq,
                    ack,
                    payload: payload.clone(),
                };
                if ch.unacked.is_empty() {
                    ch.oldest_sent_at = now;
                    ch.rto = rto_base;
                }
                ch.unacked.push_back((seq, payload));
                ch.in_flight += 1;
                ch.sent += 1;
                link.send(
                    dir,
                    Message {
                        channel: i,
                        words: frame.encode(),
                    },
                    now,
                );
            }
        }
        self.advance_rr();

        // Phase 4: pure-ACK frames for receivers whose ACKs found no
        // piggyback ride within ACK_DELAY cycles.
        for i in 0..n {
            let ch = &self.channels[i];
            if !ch.ack_dirty || now < ch.last_ack_tx.saturating_add(ACK_DELAY) {
                continue;
            }
            let ack_dir = ch.dir.opposite();
            let ch = &mut self.channels[i];
            ch.ack_dirty = false;
            ch.last_ack_tx = now;
            ch.acks_sent += 1;
            let frame = Frame {
                channel: i as u8,
                flags: FLAG_ACK,
                ack_channel: i as u8,
                seq: 0,
                ack: ch.accepted,
                payload: Vec::new(),
            };
            match ack_dir {
                Dir::SwToHw => {
                    // The SW driver pays the per-message setup cost to
                    // emit an ACK frame.
                    sw_cycles += link.sw_transfer_cost(0);
                    self.stats.ack_frames_to_hw += 1;
                }
                Dir::HwToSw => self.stats.ack_frames_to_sw += 1,
            }
            link.send(
                ack_dir,
                Message {
                    channel: i,
                    words: frame.encode(),
                },
                now,
            );
        }

        Ok(sw_cycles)
    }

    /// Applies a cumulative ACK carried by a frame arriving in `dir`.
    fn process_ack(&mut self, frame: &Frame, dir: Dir, now: u64, rto_base: u64) -> ExecResult<()> {
        let idx = frame.ack_channel as usize;
        let ch = self
            .channels
            .get_mut(idx)
            .ok_or_else(|| ExecError::Transport(format!("ACK for unknown channel {idx}")))?;
        // The ACK travels against the channel's data direction.
        if ch.dir == dir {
            return Err(ExecError::Transport(format!(
                "ACK for channel `{}` arrived in its own data direction",
                ch.name
            )));
        }
        let a = frame.ack;
        if a.wrapping_sub(ch.acked) > u32::MAX / 2 {
            // Stale (older) cumulative ACK — e.g. a reordered or
            // duplicated ACK frame; ignore.
            return Ok(());
        }
        if a >= ch.next_seq {
            return Err(ExecError::Transport(format!(
                "ACK {a} for channel `{}` exceeds last sent sequence {}",
                ch.name,
                ch.next_seq.wrapping_sub(1)
            )));
        }
        if a != ch.acked {
            ch.acked = a;
            while ch.unacked.front().is_some_and(|(s, _)| *s <= a) {
                ch.unacked.pop_front();
            }
            // Progress: restart the timer for the remaining window and
            // reset backoff.
            ch.oldest_sent_at = now;
            ch.rto = rto_base;
            self.progress += 1;
        }
        Ok(())
    }

    /// Accepts, suppresses, or discards a data frame arriving in `dir`.
    /// Returns SW driver cycles charged.
    fn process_data(
        &mut self,
        frame: &Frame,
        dir: Dir,
        sw_store: &mut Store,
        hw_store: &mut Store,
        link: &Link,
    ) -> ExecResult<u64> {
        let idx = frame.channel as usize;
        let ch = self
            .channels
            .get_mut(idx)
            .ok_or_else(|| ExecError::Transport(format!("data frame for unknown channel {idx}")))?;
        if ch.dir != dir {
            return Err(ExecError::Transport(format!(
                "data frame for channel `{}` arrived against its direction",
                ch.name
            )));
        }
        let seq = frame.seq;
        if seq != ch.accepted.wrapping_add(1) {
            // Duplicate (already accepted) or overtaker (a gap precedes
            // it). Either way it is not enqueued, and the receiver
            // re-ACKs so a sender whose ACKs were lost can resynchronize.
            if ch.accepted.wrapping_sub(seq) < u32::MAX / 2 {
                ch.dup_suppressed += 1;
            } else {
                ch.out_of_order_dropped += 1;
            }
            ch.ack_dirty = true;
            return Ok(0);
        }
        if frame.payload.len() != ch.ty.words() {
            return Err(ExecError::Transport(format!(
                "channel `{}` payload of {} words, expected {}",
                ch.name,
                frame.payload.len(),
                ch.ty.words()
            )));
        }
        let rx_store: &mut Store = match dir {
            Dir::SwToHw => hw_store,
            Dir::HwToSw => sw_store,
        };
        rx_store
            .enq_wire(ch.rx, &ch.ty, &frame.payload)
            .map_err(|e| Self::wrap_rx_err(&ch.name, e))?;
        ch.accepted = seq;
        ch.in_flight -= 1;
        ch.delivered += 1;
        ch.ack_dirty = true;
        self.progress += 1;
        if dir == Dir::HwToSw {
            Ok(link.sw_transfer_cost(frame.payload.len()))
        } else {
            Ok(0)
        }
    }

    /// Picks one channel with a pending ACK whose ACK direction is
    /// `dir`, marks it conveyed, and returns its (channel id, cumulative
    /// ACK). Rotates so no channel's ACKs are starved.
    fn take_piggyback_ack(&mut self, dir: Dir, now: u64) -> (Option<u8>, u32) {
        let n = self.channels.len();
        for k in 0..n {
            let i = (self.ack_rr + k) % n;
            let ch = &mut self.channels[i];
            if ch.ack_dirty && ch.dir == dir.opposite() {
                ch.ack_dirty = false;
                ch.last_ack_tx = now;
                ch.acks_sent += 1;
                self.ack_rr = (i + 1) % n;
                return (Some(i as u8), ch.accepted);
            }
        }
        (None, 0)
    }

    /// True when nothing is buffered, in flight, or awaiting
    /// acknowledgment on any channel (transmit FIFOs may still be
    /// refilled by rules).
    pub fn idle(&self, sw_store: &Store, hw_store: &Store) -> bool {
        self.channels.iter().all(|ch| {
            let tx_store = match ch.dir {
                Dir::SwToHw => sw_store,
                Dir::HwToSw => hw_store,
            };
            ch.in_flight == 0 && ch.unacked.is_empty() && Self::fifo_len(tx_store, ch.tx) == 0
        })
    }

    /// True while the transport holds obligations that should eventually
    /// produce sequence progress: backlogged transmit FIFOs, reserved
    /// credits, or unacknowledged frames. The stall detector only arms
    /// itself while this holds.
    pub fn pending_work(&self, sw_store: &Store, hw_store: &Store) -> bool {
        self.channels.iter().any(|ch| {
            let tx_store = match ch.dir {
                Dir::SwToHw => sw_store,
                Dir::HwToSw => hw_store,
            };
            ch.in_flight > 0 || !ch.unacked.is_empty() || Self::fifo_len(tx_store, ch.tx) > 0
        })
    }

    /// Captures the transactor's complete mutable state for a later
    /// [`Transactor::restore`].
    pub fn snapshot(&self) -> TransactorSnapshot {
        TransactorSnapshot {
            channels: self
                .channels
                .iter()
                .map(|ch| ChannelSnap {
                    in_flight: ch.in_flight,
                    sent: ch.sent,
                    next_seq: ch.next_seq,
                    acked: ch.acked,
                    accepted: ch.accepted,
                    ack_dirty: ch.ack_dirty,
                    last_ack_tx: ch.last_ack_tx,
                    unacked: ch.unacked.clone(),
                    oldest_sent_at: ch.oldest_sent_at,
                    rto: ch.rto,
                    retransmits: ch.retransmits,
                    delivered: ch.delivered,
                    dup_suppressed: ch.dup_suppressed,
                    out_of_order_dropped: ch.out_of_order_dropped,
                    acks_sent: ch.acks_sent,
                })
                .collect(),
            rr: self.rr,
            ack_rr: self.ack_rr,
            stats: self.stats,
            progress: self.progress,
        }
    }

    /// Rewinds the transport to a previously captured snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a transactor with a different
    /// channel table.
    pub fn restore(&mut self, snap: &TransactorSnapshot) {
        assert_eq!(
            self.channels.len(),
            snap.channels.len(),
            "snapshot from a different channel table"
        );
        for (ch, s) in self.channels.iter_mut().zip(&snap.channels) {
            ch.in_flight = s.in_flight;
            ch.sent = s.sent;
            ch.next_seq = s.next_seq;
            ch.acked = s.acked;
            ch.accepted = s.accepted;
            ch.ack_dirty = s.ack_dirty;
            ch.last_ack_tx = s.last_ack_tx;
            ch.unacked.clone_from(&s.unacked);
            ch.oldest_sent_at = s.oldest_sent_at;
            ch.rto = s.rto;
            ch.retransmits = s.retransmits;
            ch.delivered = s.delivered;
            ch.dup_suppressed = s.dup_suppressed;
            ch.out_of_order_dropped = s.out_of_order_dropped;
            ch.acks_sent = s.acks_sent;
        }
        self.rr = snap.rr;
        self.ack_rr = snap.ack_rr;
        self.stats = snap.stats;
        self.progress = snap.progress;
        self.quiet = None;
    }

    /// Wipes all per-channel transport state back to power-on, as a
    /// partition reset does to the generated interface logic on both
    /// sides of the severed link: sequence numbers, ACK state, reserved
    /// credits, and retransmission queues are all lost. The cumulative
    /// statistics and progress counter survive — they belong to the
    /// observer, not the hardware.
    pub fn reset_transport(&mut self) {
        for ch in &mut self.channels {
            ch.in_flight = 0;
            ch.next_seq = 1;
            ch.acked = 0;
            ch.accepted = 0;
            ch.ack_dirty = false;
            ch.last_ack_tx = 0;
            ch.unacked.clear();
            ch.oldest_sent_at = 0;
            ch.rto = 0;
        }
        self.rr = 0;
        self.ack_rr = 0;
        self.quiet = None;
    }

    /// For the software-failover path: per channel (index-aligned with
    /// the channel table), the values that were sent but not yet accepted
    /// by the receiver at this instant, oldest first. On a reliable
    /// (faulty) link these are decoded from the retransmission queues,
    /// counting only sequences beyond the receiver's cumulative accept
    /// point (an un-ACKed but already-delivered frame must not be counted
    /// twice). On a perfect link they are read off the wire directly.
    ///
    /// # Errors
    ///
    /// Propagates demarshaling errors (indicates a corrupted queue, which
    /// the CRC layer rules out).
    pub fn in_transit_values(&self, link: &Link) -> ExecResult<Vec<Vec<Value>>> {
        let mut out: Vec<Vec<Value>> = self.channels.iter().map(|_| Vec::new()).collect();
        if link.faults_active() {
            for (i, ch) in self.channels.iter().enumerate() {
                for (seq, payload) in &ch.unacked {
                    let ahead = seq.wrapping_sub(ch.accepted);
                    if ahead == 0 || ahead > u32::MAX / 2 {
                        continue; // already accepted, ACK still in flight
                    }
                    out[i].push(Value::from_words(&ch.ty, payload)?);
                }
            }
        } else {
            for dir in [Dir::SwToHw, Dir::HwToSw] {
                for msg in link.in_flight_messages(dir) {
                    let Some(ch) = self.channels.get(msg.channel) else {
                        continue;
                    };
                    if ch.dir != dir {
                        continue;
                    }
                    out[msg.channel].push(Value::from_words(&ch.ty, &msg.words)?);
                }
            }
        }
        Ok(out)
    }

    /// Per-channel summaries.
    pub fn report(&self) -> Vec<ChannelReport> {
        self.channels
            .iter()
            .map(|c| ChannelReport {
                name: c.name.clone(),
                messages: c.sent,
                words_per_msg: c.ty.words(),
                delivered: c.delivered,
                retransmits: c.retransmits,
                dup_suppressed: c.dup_suppressed,
                out_of_order_dropped: c.out_of_order_dropped,
                acks_sent: c.acks_sent,
            })
            .collect()
    }

    /// Per-channel sequence/credit snapshots for stall diagnostics.
    pub fn diagnostics(&self, sw_store: &Store, hw_store: &Store) -> Vec<ChannelDiag> {
        self.channels
            .iter()
            .map(|ch| {
                let (tx_store, rx_store) = match ch.dir {
                    Dir::SwToHw => (sw_store, hw_store),
                    Dir::HwToSw => (hw_store, sw_store),
                };
                ChannelDiag {
                    name: ch.name.clone(),
                    dir: ch.dir,
                    next_seq: ch.next_seq,
                    acked: ch.acked,
                    accepted: ch.accepted,
                    in_flight: ch.in_flight,
                    unacked: ch.unacked.len(),
                    depth: ch.depth,
                    tx_backlog: Self::fifo_len(tx_store, ch.tx),
                    rx_occupancy: Self::fifo_len(rx_store, ch.rx),
                    retransmits: ch.retransmits,
                }
            })
            .collect()
    }
}

#[cfg(test)]
impl Transactor {
    /// Drops the quiet record, so the next pump takes the full path.
    fn forget_quiet(&mut self) {
        self.quiet = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use bcl_core::ast::Path;
    use bcl_core::design::{Design, PrimDef};
    use bcl_core::prim::PrimSpec;

    /// Two stores with one channel SW->HW: sw has `c.tx`, hw has `c.rx`.
    fn setup(depth: usize) -> (Design, Design, Vec<ChannelSpec>) {
        let sw = Design {
            name: "sw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.tx"),
                spec: PrimSpec::Fifo {
                    depth,
                    ty: Type::Int(32),
                },
            }],
            ..Default::default()
        };
        let hw = Design {
            name: "hw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.rx"),
                spec: PrimSpec::Fifo {
                    depth,
                    ty: Type::Int(32),
                },
            }],
            ..Default::default()
        };
        let specs = vec![ChannelSpec {
            name: "c".into(),
            ty: Type::Int(32),
            depth,
            from_domain: "SW".into(),
            to_domain: "HW".into(),
            tx_path: "c.tx".into(),
            rx_path: "c.rx".into(),
        }];
        (sw, hw, specs)
    }

    #[test]
    fn value_crosses_the_link() {
        let (swd, hwd, specs) = setup(2);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let tx = swd.prim_id("c.tx").unwrap();
        let rx = hwd.prim_id("c.rx").unwrap();
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, -7)])
            .unwrap();

        let sw_cost = t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        assert!(sw_cost > 0, "driver pays marshaling cost");
        assert!(!t.idle(&sw, &hw), "message in flight");
        // Before latency elapses, nothing arrives.
        t.pump(&mut sw, &mut hw, &mut link, 10).unwrap();
        assert_eq!(Transactor::fifo_len(&hw, rx), 0);
        // After latency, the value lands in the rx fifo.
        t.pump(&mut sw, &mut hw, &mut link, 60).unwrap();
        assert_eq!(
            hw.state(rx).call_value(PrimMethod::First, &[]).unwrap(),
            Value::int(32, -7)
        );
        assert!(t.idle(&sw, &hw));
    }

    #[test]
    fn credits_bound_in_flight_data() {
        let (swd, hwd, specs) = setup(2);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let tx = swd.prim_id("c.tx").unwrap();
        // Fill tx beyond the channel depth over several pumps: the
        // transactor may only keep `depth` messages un-consumed.
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, 1)])
            .unwrap();
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, 2)])
            .unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        assert_eq!(link.in_flight(Dir::SwToHw), 2, "two credits, two sends");
        // Refill tx; no credits left, so nothing more is sent even after
        // delivery (the rx fifo is still full).
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, 3)])
            .unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 200).unwrap();
        assert_eq!(Transactor::fifo_len(&sw, tx), 1, "third message held back");
        // Consumer drains one: a credit frees and the send proceeds.
        let rx = hwd.prim_id("c.rx").unwrap();
        hw.state_mut(rx).call_action(PrimMethod::Deq, &[]).unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 201).unwrap();
        assert_eq!(Transactor::fifo_len(&sw, tx), 0);
    }

    #[test]
    fn stalled_consumer_does_not_block_other_channels() {
        // Head-of-line blocking regression: channel `a`'s consumer never
        // drains its rx FIFO, exhausting `a`'s credits. Channel `b` shares
        // the link and must keep streaming at full rate regardless.
        let mk = |n: &str, depth| PrimDef {
            path: Path::new(n),
            spec: PrimSpec::Fifo {
                depth,
                ty: Type::Int(32),
            },
        };
        let swd = Design {
            name: "sw".into(),
            prims: vec![mk("a.tx", 8), mk("b.tx", 8)],
            ..Default::default()
        };
        let hwd = Design {
            name: "hw".into(),
            prims: vec![mk("a.rx", 2), mk("b.rx", 2)],
            ..Default::default()
        };
        let spec = |n: &str| ChannelSpec {
            name: n.into(),
            ty: Type::Int(32),
            depth: 2,
            from_domain: "SW".into(),
            to_domain: "HW".into(),
            tx_path: format!("{n}.tx"),
            rx_path: format!("{n}.rx"),
        };
        let specs = vec![spec("a"), spec("b")];
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let a_tx = swd.prim_id("a.tx").unwrap();
        let b_tx = swd.prim_id("b.tx").unwrap();
        let b_rx = hwd.prim_id("b.rx").unwrap();
        let mut b_received = 0u64;
        let mut b_fed = 0u64;
        for now in 0..4000u64 {
            // `a` is kept saturated; its consumer never deqs.
            while Transactor::fifo_len(&sw, a_tx) < 8 {
                sw.state_mut(a_tx)
                    .call_action(PrimMethod::Enq, &[Value::int(32, -1)])
                    .unwrap();
            }
            if Transactor::fifo_len(&sw, b_tx) < 8 {
                sw.state_mut(b_tx)
                    .call_action(PrimMethod::Enq, &[Value::int(32, b_fed as i64)])
                    .unwrap();
                b_fed += 1;
            }
            t.pump(&mut sw, &mut hw, &mut link, now).unwrap();
            // `b`'s consumer drains eagerly.
            while Transactor::fifo_len(&hw, b_rx) > 0 {
                assert_eq!(
                    hw.state(b_rx).call_value(PrimMethod::First, &[]).unwrap(),
                    Value::int(32, b_received as i64),
                    "b's stream must arrive intact and in order"
                );
                hw.state_mut(b_rx)
                    .call_action(PrimMethod::Deq, &[])
                    .unwrap();
                b_received += 1;
            }
        }
        // `a` froze after its 2 credits were spent...
        let a = &t.report()[0];
        assert_eq!(a.messages, 2, "a stopped at its credit limit");
        // ...while `b` kept flowing at its full credit-limited rate
        // (depth 2 per ~51-cycle round trip ≈ 150 messages in 4000
        // cycles), unaffected by `a`'s stall.
        assert!(b_received > 100, "b made only {b_received} deliveries");
    }

    #[test]
    fn in_transit_values_reads_the_wire_on_a_perfect_link() {
        let (swd, hwd, specs) = setup(4);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let tx = swd.prim_id("c.tx").unwrap();
        for v in [10, 20] {
            sw.state_mut(tx)
                .call_action(PrimMethod::Enq, &[Value::int(32, v)])
                .unwrap();
        }
        t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        let vals = t.in_transit_values(&link).unwrap();
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0], vec![Value::int(32, 10), Value::int(32, 20)]);
        // After delivery nothing is in transit.
        t.pump(&mut sw, &mut hw, &mut link, 1000).unwrap();
        assert!(t.in_transit_values(&link).unwrap()[0].is_empty());
    }

    #[test]
    fn snapshot_restore_resumes_reliable_transport_exactly() {
        use crate::link::FaultConfig;
        let (swd, hwd, specs) = setup(4);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::with_faults(
            LinkConfig::default(),
            FaultConfig::uniform(3, 0.25, 0.1, 0.1, 0.1),
        );
        let tx = swd.prim_id("c.tx").unwrap();
        let rx = hwd.prim_id("c.rx").unwrap();
        let mut fed = 0i64;
        for now in 0..400u64 {
            if Transactor::fifo_len(&sw, tx) < 4 {
                sw.state_mut(tx)
                    .call_action(PrimMethod::Enq, &[Value::int(32, fed)])
                    .unwrap();
                fed += 1;
            }
            t.pump(&mut sw, &mut hw, &mut link, now).unwrap();
        }
        let (snap_t, snap_l) = (t.snapshot(), link.snapshot());
        let (snap_sw, snap_hw) = (sw.snapshot_cow(), hw.snapshot_cow());
        let run = |t: &mut Transactor, link: &mut Link, sw: &mut Store, hw: &mut Store| {
            let mut got = Vec::new();
            for now in 400..2000u64 {
                t.pump(sw, hw, link, now).unwrap();
                while Transactor::fifo_len(hw, rx) > 0 {
                    got.push(hw.state(rx).call_value(PrimMethod::First, &[]).unwrap());
                    hw.state_mut(rx).call_action(PrimMethod::Deq, &[]).unwrap();
                }
            }
            (got, t.progress(), t.transport_stats())
        };
        let first = run(&mut t, &mut link, &mut sw, &mut hw);
        t.restore(&snap_t);
        link.restore(&snap_l);
        sw.restore_cow(&snap_sw);
        hw.restore_cow(&snap_hw);
        let second = run(&mut t, &mut link, &mut sw, &mut hw);
        assert_eq!(first, second, "restored transport must replay exactly");
    }

    #[test]
    fn reset_transport_wipes_protocol_state_keeps_stats() {
        let (swd, hwd, specs) = setup(2);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let tx = swd.prim_id("c.tx").unwrap();
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, 1)])
            .unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        assert!(t.pending_work(&sw, &hw), "a credit is reserved");
        let delivered_before = t.report()[0].messages;
        t.reset_transport();
        assert!(!t.pending_work(&sw, &hw), "reserved credits wiped");
        assert_eq!(t.report()[0].messages, delivered_before, "stats survive");
        let d = t.diagnostics(&sw, &hw);
        assert_eq!((d[0].next_seq, d[0].acked, d[0].accepted), (1, 0, 0));
    }

    /// One channel each way: `a` SW→HW and `b` HW→SW.
    fn duplex(depth: usize) -> (Design, Design, Vec<ChannelSpec>) {
        let fifo = |n: &str| PrimDef {
            path: Path::new(n),
            spec: PrimSpec::Fifo {
                depth,
                ty: Type::Int(32),
            },
        };
        let sw = Design {
            name: "sw".into(),
            prims: vec![fifo("a.tx"), fifo("b.rx")],
            ..Default::default()
        };
        let hw = Design {
            name: "hw".into(),
            prims: vec![fifo("a.rx"), fifo("b.tx")],
            ..Default::default()
        };
        let spec = |n: &str, from: &str, to: &str| ChannelSpec {
            name: n.into(),
            ty: Type::Int(32),
            depth,
            from_domain: from.into(),
            to_domain: to.into(),
            tx_path: format!("{n}.tx"),
            rx_path: format!("{n}.rx"),
        };
        (sw, hw, vec![spec("a", "SW", "HW"), spec("b", "HW", "SW")])
    }

    fn snapshot_bytes(t: &Transactor) -> Vec<u8> {
        let mut w = ByteWriter::new();
        t.snapshot().encode(&mut w);
        w.into_bytes()
    }

    /// The quiet-pump fast path against the full pump as oracle: two
    /// identical systems driven by the same random schedule of tx-FIFO
    /// enqueues on both sides, rx-FIFO dequeues, and idle gaps, one of
    /// them forgetting its quiet record before every pump. Every cycle's
    /// charge, link and transport statistics, and transactor state
    /// (arbitration cursors included) must agree.
    #[test]
    fn quiet_pumps_match_full_pumps() {
        use crate::link::FaultConfig;
        let (swd, hwd, specs) = duplex(3);
        let (a_tx, b_rx) = (swd.prim_id("a.tx").unwrap(), swd.prim_id("b.rx").unwrap());
        let (a_rx, b_tx) = (hwd.prim_id("a.rx").unwrap(), hwd.prim_id("b.tx").unwrap());
        for faults in [
            FaultConfig::none(),
            FaultConfig::uniform(5, 0.3, 0.1, 0.1, 0.1),
        ] {
            let system = || {
                (
                    Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap(),
                    Store::new_flat(&swd),
                    Store::new_flat(&hwd),
                    Link::with_faults(LinkConfig::default(), faults.clone()),
                )
            };
            let mut fast = system();
            let mut full = system();
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let (mut gap, mut fed, mut recorded) = (0u64, 0i64, 0u64);
            for now in 0..6000u64 {
                if gap > 0 {
                    gap -= 1;
                } else {
                    let r = next();
                    let act = |s: &mut (Transactor, Store, Store, Link)| match r % 4 {
                        0 => {
                            let _ =
                                s.1.call_action_at(a_tx, PrimMethod::Enq, &[Value::int(32, fed)]);
                        }
                        1 => {
                            let _ =
                                s.2.call_action_at(b_tx, PrimMethod::Enq, &[Value::int(32, fed)]);
                        }
                        2 => {
                            let _ = s.2.fifo_deq(a_rx);
                        }
                        _ => {
                            let _ = s.1.fifo_deq(b_rx);
                        }
                    };
                    act(&mut fast);
                    act(&mut full);
                    fed += 1;
                    if (r >> 2) % 4 == 0 {
                        gap = (r >> 8) % 150;
                    }
                }
                if fast.0.quiet.is_some() {
                    recorded += 1;
                }
                full.0.forget_quiet();
                let (t, sw, hw, link) = &mut fast;
                let c_fast = t.pump(sw, hw, link, now).unwrap();
                let (t, sw, hw, link) = &mut full;
                let c_full = t.pump(sw, hw, link, now).unwrap();
                assert_eq!(c_fast, c_full, "cycle {now}: charge");
                assert_eq!(fast.3.stats(), full.3.stats(), "cycle {now}: link stats");
                assert_eq!(
                    fast.0.transport_stats(),
                    full.0.transport_stats(),
                    "cycle {now}: transport stats"
                );
                assert_eq!(
                    snapshot_bytes(&fast.0),
                    snapshot_bytes(&full.0),
                    "cycle {now}: transactor state"
                );
                assert!(fast.1 == full.1 && fast.2 == full.2, "cycle {now}: stores");
            }
            assert!(
                recorded > 2000,
                "a quiet record before only {recorded} pumps"
            );
            assert!(fast.0.report().iter().all(|c| c.delivered > 20));
            if faults.is_active() {
                assert!(fast.0.report().iter().any(|c| c.retransmits > 0));
                assert!(fast.0.transport_stats().ack_frames_to_hw > 0);
            }
        }
    }

    #[test]
    fn restore_and_reset_transport_forget_the_quiet_record() {
        let (swd, hwd, specs) = duplex(2);
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        assert!(t.quiet.is_none(), "a new transactor has no record");
        let (mut sw, mut hw) = (Store::new(&swd), Store::new(&hwd));
        let mut link = Link::new(LinkConfig::default());
        let snap = t.snapshot();
        t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        assert!(t.quiet.is_some(), "an empty pump leaves a record");
        t.restore(&snap);
        assert!(t.quiet.is_none());
        t.pump(&mut sw, &mut hw, &mut link, 1).unwrap();
        assert!(t.quiet.is_some());
        t.reset_transport();
        assert!(t.quiet.is_none());
        // A write to either store ends the quiet run.
        t.pump(&mut sw, &mut hw, &mut link, 2).unwrap();
        let a_tx = swd.prim_id("a.tx").unwrap();
        sw.call_action_at(a_tx, PrimMethod::Enq, &[Value::int(32, 1)])
            .unwrap();
        assert!(t.pump(&mut sw, &mut hw, &mut link, 3).unwrap() > 0);
        assert!(t.quiet.is_none(), "a pump that sent leaves no record");
    }

    #[test]
    fn unknown_domain_is_error() {
        let (swd, hwd, mut specs) = setup(1);
        specs[0].to_domain = "DSP".into();
        assert!(Transactor::new(&specs, "SW", &swd, "HW", &hwd).is_err());
    }

    #[test]
    fn non_fifo_endpoint_is_error() {
        // A channel whose tx path resolves to a register must be rejected
        // at construction, not silently treated as an empty FIFO.
        let sw = Design {
            name: "sw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.tx"),
                spec: PrimSpec::Reg {
                    init: Value::int(32, 0),
                },
            }],
            ..Default::default()
        };
        let hw = Design {
            name: "hw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.rx"),
                spec: PrimSpec::Fifo {
                    depth: 2,
                    ty: Type::Int(32),
                },
            }],
            ..Default::default()
        };
        let specs = vec![ChannelSpec {
            name: "c".into(),
            ty: Type::Int(32),
            depth: 2,
            from_domain: "SW".into(),
            to_domain: "HW".into(),
            tx_path: "c.tx".into(),
            rx_path: "c.rx".into(),
        }];
        let err = Transactor::new(&specs, "SW", &sw, "HW", &hw).unwrap_err();
        assert!(
            matches!(&err, ExecError::Malformed(m) if m.contains("not a FIFO")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn aggregate_values_marshal_across() {
        // A vector of complex fixed-point values survives the crossing.
        let ty = Type::vector(4, Type::complex(Type::fixpt()));
        let swd = Design {
            name: "sw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.tx"),
                spec: PrimSpec::Fifo {
                    depth: 1,
                    ty: ty.clone(),
                },
            }],
            ..Default::default()
        };
        let hwd = Design {
            name: "hw".into(),
            prims: vec![PrimDef {
                path: Path::new("c.rx"),
                spec: PrimSpec::Fifo {
                    depth: 1,
                    ty: ty.clone(),
                },
            }],
            ..Default::default()
        };
        let specs = vec![ChannelSpec {
            name: "c".into(),
            ty: ty.clone(),
            depth: 1,
            from_domain: "SW".into(),
            to_domain: "HW".into(),
            tx_path: "c.tx".into(),
            rx_path: "c.rx".into(),
        }];
        let mut t = Transactor::new(&specs, "SW", &swd, "HW", &hwd).unwrap();
        let mut sw = Store::new(&swd);
        let mut hw = Store::new(&hwd);
        let mut link = Link::new(LinkConfig::default());
        let frame = Value::Vec(
            (0..4)
                .map(|i| Value::complex(Value::int(32, i), Value::int(32, -i)))
                .collect(),
        );
        let tx = swd.prim_id("c.tx").unwrap();
        let rx = hwd.prim_id("c.rx").unwrap();
        sw.state_mut(tx)
            .call_action(PrimMethod::Enq, std::slice::from_ref(&frame))
            .unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 0).unwrap();
        t.pump(&mut sw, &mut hw, &mut link, 1000).unwrap();
        assert_eq!(
            hw.state(rx).call_value(PrimMethod::First, &[]).unwrap(),
            frame
        );
        assert_eq!(link.stats().words_to_hw, ty.words() as u64);
    }
}
