//! The synchronous hardware scheduler and cycle-accurate simulator (§6.4).
//!
//! This module stands in for the BSV compiler + Verilog + FPGA of the
//! paper. Per clock cycle it (1) evaluates every rule's lifted guard
//! against the cycle-start state, (2) greedily selects a maximal set of
//! rules that are pairwise conflict-free per the static conflict matrix
//! (the Esposito/Hoe scheduling scheme the paper cites [17, 41, 42]), and
//! (3) fires them all. Shadows are "wires": because each rule executes in
//! a single cycle, guard evaluation against cycle-start state followed by
//! a multiplexed register update is exactly what the transaction commit
//! does, at zero modeled cost.

use super::RuleExec;
use crate::analysis::{ConflictInfo, Sensitivity};
use crate::ast::{Action, PrimId};
use crate::codec::{self, ByteReader, ByteWriter, CodecResult};
use crate::design::Design;
use crate::error::{ElabError, ExecResult};
use crate::exec::RuleOutcome;
use crate::store::{Cost, ShadowPolicy, Store, StoreSnapshot};
use crate::xform::{compile_design, CompileOpts, RulePlan};

/// Checks that a design is implementable in hardware: no sequential
/// composition and no dynamic loops inside rules (§6.4: "loops with
/// dynamic bounds can't be executed in a single cycle").
///
/// # Errors
///
/// Names the first offending rule.
pub fn hw_check(design: &Design) -> Result<(), ElabError> {
    for r in &design.rules {
        if r.body.has_seq_or_loop() {
            return Err(ElabError::new(format!(
                "rule `{}` uses sequential composition or a loop; not implementable in hardware",
                r.name
            )));
        }
        if contains_local_guard(&r.body) {
            return Err(ElabError::new(format!(
                "rule `{}` uses localGuard; not supported in hardware",
                r.name
            )));
        }
    }
    Ok(())
}

fn contains_local_guard(a: &Action) -> bool {
    match a {
        Action::LocalGuard(_) => true,
        Action::NoAction | Action::Write(..) | Action::Call(..) => false,
        Action::If(_, x, y) | Action::Par(x, y) | Action::Seq(x, y) => {
            contains_local_guard(x) || contains_local_guard(y)
        }
        Action::When(_, x) | Action::Let(_, _, x) | Action::Loop(_, x) => contains_local_guard(x),
    }
}

/// Per-simulation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HwReport {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Total rule firings.
    pub total_fired: u64,
    /// Firings per rule.
    pub fired: Vec<u64>,
    /// Maximum number of rules fired in any one cycle (concurrency).
    pub peak_concurrency: usize,
    /// Guards actually evaluated (cache misses under event-driven
    /// scheduling; every guard, every cycle otherwise).
    pub guard_evals: u64,
    /// Guard evaluations skipped because the cached verdict was valid.
    pub guard_evals_skipped: u64,
}

impl HwReport {
    /// Accumulates another partition's statistics into this one (cycles
    /// and peak concurrency take the maximum, counters sum).
    pub fn merge(&mut self, other: &HwReport) {
        self.cycles = self.cycles.max(other.cycles);
        self.total_fired += other.total_fired;
        self.peak_concurrency = self.peak_concurrency.max(other.peak_concurrency);
        self.guard_evals += other.guard_evals;
        self.guard_evals_skipped += other.guard_evals_skipped;
        self.fired.extend_from_slice(&other.fired);
    }
}

/// The mutable state of a [`HwSim`]: the committed store, the cycle
/// counter, and the firing statistics. The per-cycle `CAN_FIRE` scratch
/// is recomputed every step and needs no snapshot. Restoring makes the
/// simulator bit- and cycle-identical to the capture instant.
#[derive(Debug, Clone)]
pub struct HwSnapshot {
    store: StoreSnapshot,
    cycles: u64,
    fired: Vec<u64>,
    total_fired: u64,
    peak: usize,
}

impl HwSnapshot {
    /// The captured store, for shape validation against a design.
    pub fn store(&self) -> &StoreSnapshot {
        &self.store
    }

    /// Number of rules the capturing simulator had.
    pub fn rule_count(&self) -> usize {
        self.fired.len()
    }

    /// Appends this snapshot's stable binary encoding.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.store.encode(w);
        w.u64(self.cycles);
        codec::encode_u64s(w, &self.fired);
        w.u64(self.total_fired);
        w.usize(self.peak);
    }

    /// Decodes a snapshot previously written by [`HwSnapshot::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<HwSnapshot> {
        Ok(HwSnapshot {
            store: StoreSnapshot::decode(r)?,
            cycles: r.u64()?,
            fired: codec::decode_u64s(r)?,
            total_fired: r.u64()?,
            peak: r.usize()?,
        })
    }
}

/// Cycle-accurate simulator of one (hardware) partition.
#[derive(Debug)]
pub struct HwSim {
    plans: Vec<RulePlan>,
    conflicts: ConflictInfo,
    sens: Sensitivity,
    /// The committed design state.
    pub store: Store,
    /// Clock cycles elapsed.
    pub cycles: u64,
    /// Event-driven scheduling: cache guard verdicts and re-evaluate only
    /// rules whose read set intersects the prims written since the last
    /// evaluation. `false` falls back to the naive evaluate-everything
    /// reference mode (identical observable behavior, used as a test
    /// oracle and benchmark baseline).
    pub event_driven: bool,
    fired: Vec<u64>,
    total_fired: u64,
    peak: usize,
    scratch_ready: Vec<bool>,
    verdicts: Vec<Option<bool>>,
    dirty_scratch: Vec<PrimId>,
    /// WILL_FIRE set of the current cycle, kept across steps (and across
    /// a step that fails) so a cycle allocates nothing.
    selected_scratch: Vec<usize>,
    guard_evals: u64,
    guard_evals_skipped: u64,
    /// Rules with a lifted guard (the rest are always ready).
    guarded: u64,
    /// The last event-driven step selected no rule: every rule is guarded
    /// and its cached verdict is false. Until the store is written again,
    /// a step can only skip every guard and fire nothing.
    idle: bool,
    pub(super) exec: RuleExec,
}

impl HwSim {
    /// Builds a simulator for a design with a fresh store.
    ///
    /// # Errors
    ///
    /// Fails [`hw_check`] for software-only constructs.
    pub fn new(design: &Design) -> Result<HwSim, ElabError> {
        HwSim::with_store(design, Store::new(design))
    }

    /// Builds a simulator over an existing store. Over a flat-arena
    /// store the rules are lowered to native closures here, so
    /// [`HwSim::set_compiled`] can switch them on after construction.
    ///
    /// # Errors
    ///
    /// Fails [`hw_check`] for software-only constructs, and over a flat
    /// store names the first rule whose guard or body does not lower
    /// (see [`crate::compile`]'s "What is rejected").
    pub fn with_store(design: &Design, store: Store) -> Result<HwSim, ElabError> {
        hw_check(design)?;
        // Always lift in hardware: guards become the rule's CAN_FIRE
        // signal. Never sequentialize: parallel composition is free.
        let plans = compile_design(
            design,
            CompileOpts {
                lift: true,
                sequentialize: false,
            },
        );
        let n = plans.len();
        let sens = Sensitivity::of_plans(&plans, store.len());
        let exec = RuleExec::new(&plans, design, &store, false)?;
        let guarded = plans.iter().filter(|p| p.guard.is_some()).count() as u64;
        Ok(HwSim {
            plans,
            conflicts: ConflictInfo::of_design(design),
            sens,
            store,
            cycles: 0,
            event_driven: true,
            fired: vec![0; n],
            total_fired: 0,
            peak: 0,
            scratch_ready: vec![false; n],
            verdicts: vec![None; n],
            dirty_scratch: Vec::new(),
            selected_scratch: Vec::new(),
            guard_evals: 0,
            guard_evals_skipped: 0,
            guarded,
            idle: false,
            exec,
        })
    }

    /// The number of rules.
    pub fn rule_count(&self) -> usize {
        self.plans.len()
    }

    /// Executes guards and bodies through the closure-threaded native
    /// backend ([`crate::compile`]) when `on`, through the AST
    /// interpreter otherwise (the default). Takes effect only over a
    /// flat-arena store, the lowering's target; over a tree store the
    /// simulator interprets. Observable behavior (firings, cycles,
    /// state) is bit-identical; only wall-clock time changes.
    pub fn set_compiled(&mut self, on: bool) {
        self.exec.set_native(on);
    }

    /// Whether the simulator runs its rules native (see
    /// [`HwSim::set_compiled`]).
    pub fn compiled(&self) -> bool {
        self.exec.native
    }

    /// How many rules run on the AST interpreter: none when the
    /// simulator is compiled over a flat store, every rule otherwise.
    pub fn interpreted_rules(&self) -> usize {
        self.exec.interpreted(&self.plans)
    }

    /// Simulates one clock cycle; returns the number of rules fired.
    /// Under event-driven scheduling, a cycle that follows one which
    /// selected no rule costs O(1) until the store is written again.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors (double write, unsound designs).
    pub fn step(&mut self) -> ExecResult<usize> {
        if self.idle && self.event_driven && self.store.sched_clean() {
            // Nothing was written since a step that selected no rule:
            // every cached verdict is still false, so the full step below
            // would skip every guard and fire nothing. Count it the same.
            self.guard_evals_skipped += self.guarded;
            self.cycles += 1;
            return Ok(0);
        }
        self.idle = false;
        let n = self.plans.len();
        let mut ignored = Cost::default();
        if self.event_driven {
            // Invalidate cached verdicts of rules that read a prim written
            // since their last evaluation.
            self.store.drain_sched_dirty(&mut self.dirty_scratch);
            for id in self.dirty_scratch.drain(..) {
                for &r in &self.sens.readers_of[id.0] {
                    self.verdicts[r] = None;
                }
            }
            // CAN_FIRE: cached verdict where still valid, fresh
            // evaluation otherwise.
            for i in 0..n {
                let plan = &self.plans[i];
                self.scratch_ready[i] = match plan.guard {
                    None => true,
                    Some(_) => {
                        if let Some(v) = self.verdicts[i] {
                            self.guard_evals_skipped += 1;
                            v
                        } else {
                            let v = self.exec.guard(&mut self.store, i, plan, &mut ignored)?;
                            self.guard_evals += 1;
                            self.verdicts[i] = Some(v);
                            v
                        }
                    }
                };
            }
        } else {
            // Naive reference mode: evaluate every guard against
            // cycle-start state, every cycle.
            for i in 0..n {
                let plan = &self.plans[i];
                self.scratch_ready[i] = match plan.guard {
                    Some(_) => {
                        self.guard_evals += 1;
                        self.exec.guard(&mut self.store, i, plan, &mut ignored)?
                    }
                    None => true,
                };
            }
        }
        // WILL_FIRE: greedy maximal conflict-free subset in urgency
        // (definition) order.
        let mut selected = std::mem::take(&mut self.selected_scratch);
        selected.clear();
        for i in 0..n {
            if self.scratch_ready[i] && selected.iter().all(|&j| !self.conflicts.conflicts(i, j)) {
                selected.push(i);
            }
        }
        let fired = self.fire(&selected);
        self.idle = self.event_driven && selected.is_empty();
        self.selected_scratch = selected;
        let fired_now = fired?;
        self.cycles += 1;
        self.peak = self.peak.max(fired_now);
        Ok(fired_now)
    }

    /// Fires the WILL_FIRE set. It is pairwise conflict-free, so
    /// sequential application equals concurrent application; each rule's
    /// shadow is wires (zero software cost — we discard the counters).
    fn fire(&mut self, selected: &[usize]) -> ExecResult<usize> {
        let mut fired_now = 0;
        for &i in selected {
            let (out, _c) =
                self.exec
                    .body(&mut self.store, i, &self.plans[i], ShadowPolicy::Partial)?;
            if out == RuleOutcome::Fired {
                self.fired[i] += 1;
                self.total_fired += 1;
                fired_now += 1;
            }
            // A residual-guard failure (rare: rules the lifter could not
            // fully analyze) simply means the rule does not fire this
            // cycle — same as CAN_FIRE low.
        }
        Ok(fired_now)
    }

    /// Runs until a cycle fires nothing, or `max_cycles` elapse. Returns
    /// the number of cycles simulated by this call.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> ExecResult<u64> {
        let start = self.cycles;
        while self.cycles - start < max_cycles {
            if self.step()? == 0 {
                break;
            }
        }
        Ok(self.cycles - start)
    }

    /// Captures the simulator's complete mutable state for a later
    /// [`HwSim::restore`]. Takes `&mut self` because the snapshot is
    /// incremental: only prims written since the previous snapshot are
    /// copied; clean ones share the previous snapshot's `Arc`s.
    pub fn snapshot(&mut self) -> HwSnapshot {
        HwSnapshot {
            store: self.store.snapshot_cow(),
            cycles: self.cycles,
            fired: self.fired.clone(),
            total_fired: self.total_fired,
            peak: self.peak,
        }
    }

    /// Rewinds the simulator to a previously captured snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a simulator of a different design.
    pub fn restore(&mut self, snap: &HwSnapshot) {
        assert_eq!(
            self.fired.len(),
            snap.fired.len(),
            "snapshot from a different design"
        );
        self.store.restore_cow(&snap.store);
        self.cycles = snap.cycles;
        self.fired.clone_from(&snap.fired);
        self.total_fired = snap.total_fired;
        self.peak = snap.peak;
        // restore_cow marks the whole store sched-dirty, so every cached
        // verdict is invalidated on the next step; clearing here just keeps
        // the cache honest if introspected before then.
        self.verdicts.fill(None);
        self.idle = false;
    }

    /// Wipes the committed state back to power-on values, as a partition
    /// reset does. The cycle counter and cumulative statistics are kept:
    /// they model the observer's clock, not the partition's state.
    pub fn reset_state(&mut self, design: &Design) {
        self.store = Store::new_like(design, self.store.is_flat());
        self.verdicts.fill(None);
        self.idle = false;
    }

    /// A snapshot of simulation statistics.
    pub fn report(&self) -> HwReport {
        HwReport {
            cycles: self.cycles,
            total_fired: self.total_fired,
            fired: self.fired.clone(),
            peak_concurrency: self.peak,
            guard_evals: self.guard_evals,
            guard_evals_skipped: self.guard_evals_skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Path, PrimId, PrimMethod, RuleDef, Target};
    use crate::design::PrimDef;
    use crate::prim::PrimSpec;
    use crate::types::Type;
    use crate::value::{BinOp, Value};

    /// A 3-stage elastic pipeline: src -> q0 -> q1 -> sink, each stage a
    /// rule. In hardware all three stages must fire in the same cycle once
    /// the pipeline is full.
    fn pipeline3() -> Design {
        let src = PrimId(0);
        let q0 = PrimId(1);
        let q1 = PrimId(2);
        let snk = PrimId(3);
        let stage = |from: PrimId, to: PrimId, scale: i64| {
            Action::Par(
                Box::new(Action::Call(
                    Target::Prim(to, PrimMethod::Enq),
                    vec![Expr::Bin(
                        BinOp::Mul,
                        Box::new(Expr::Call(Target::Prim(from, PrimMethod::First), vec![])),
                        Box::new(Expr::int(32, scale)),
                    )],
                )),
                Box::new(Action::Call(Target::Prim(from, PrimMethod::Deq), vec![])),
            )
        };
        Design {
            name: "pipe3".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("src"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: "HW".into(),
                    },
                },
                PrimDef {
                    path: Path::new("q0"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("q1"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("snk"),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(32),
                        domain: "HW".into(),
                    },
                },
            ],
            rules: vec![
                RuleDef {
                    name: "s0".into(),
                    body: stage(src, q0, 2),
                },
                RuleDef {
                    name: "s1".into(),
                    body: stage(q0, q1, 3),
                },
                RuleDef {
                    name: "s2".into(),
                    body: stage(q1, snk, 1),
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_achieves_full_concurrency() {
        let d = pipeline3();
        let mut store = Store::new(&d);
        let n = 20;
        for i in 0..n {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut sim = HwSim::with_store(&d, store).unwrap();
        sim.run_until_quiescent(1000).unwrap();
        let rep = sim.report();
        assert_eq!(rep.peak_concurrency, 3, "all three stages in one cycle");
        // Throughput ~1 item/cycle: n items need about n + pipeline depth.
        assert!(rep.cycles <= (n as u64) + 5, "cycles = {}", rep.cycles);
        let out: Vec<i64> = sim
            .store
            .sink_values(PrimId(3))
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(out.len(), n as usize);
        assert_eq!(out[0], 0);
        assert_eq!(out[5], 30, "5 * 2 * 3");
    }

    #[test]
    fn compiled_backend_is_cycle_identical() {
        // Native rules on the flat store against the interpreter on the
        // tree store, under both scheduling modes.
        for event_driven in [false, true] {
            let mut runs = Vec::new();
            for compiled in [false, true] {
                let d = pipeline3();
                let mut store = Store::new_like(&d, compiled);
                for i in 0..20 {
                    store.push_source(PrimId(0), Value::int(32, i));
                }
                let mut sim = HwSim::with_store(&d, store).unwrap();
                sim.event_driven = event_driven;
                sim.set_compiled(compiled);
                sim.run_until_quiescent(1000).unwrap();
                runs.push((sim.store.sink_values(PrimId(3)).to_vec(), sim.report()));
            }
            assert_eq!(runs[0], runs[1], "event_driven={event_driven}");
        }
    }

    #[test]
    fn quiescent_when_empty() {
        let d = pipeline3();
        let mut sim = HwSim::new(&d).unwrap();
        assert_eq!(sim.step().unwrap(), 0);
        let ran = sim.run_until_quiescent(100).unwrap();
        assert_eq!(ran, 1, "one empty probe cycle then stop");
    }

    /// Drains `pipeline3` fed with `n` items; returns the quiescent sim.
    fn drained_pipeline3(n: i64) -> HwSim {
        let d = pipeline3();
        let mut store = Store::new(&d);
        for i in 0..n {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut sim = HwSim::with_store(&d, store).unwrap();
        sim.run_until_quiescent(1000).unwrap();
        assert!(sim.idle, "a step that selected nothing leaves the sim idle");
        sim
    }

    #[test]
    fn idle_steps_cost_a_flag_check_and_count_like_full_steps() {
        let mut sim = drained_pipeline3(5);
        assert_eq!(sim.guarded, 3);
        let before = sim.report();
        for _ in 0..1000 {
            assert_eq!(sim.step().unwrap(), 0);
        }
        let after = sim.report();
        assert_eq!(after.cycles, before.cycles + 1000);
        assert_eq!(after.guard_evals, before.guard_evals);
        assert_eq!(
            after.guard_evals_skipped,
            before.guard_evals_skipped + 1000 * sim.guarded
        );
        assert_eq!(
            (after.total_fired, after.peak_concurrency),
            (before.total_fired, before.peak_concurrency)
        );
        // Input wakes it on the very next cycle.
        sim.store.push_source(PrimId(0), Value::int(32, 9));
        assert_eq!(sim.step().unwrap(), 1);
        assert!(!sim.idle);
    }

    #[test]
    fn restore_and_reset_leave_the_idle_fast_path() {
        let d = pipeline3();
        let mut sim = drained_pipeline3(4);
        let snap = sim.snapshot();
        sim.step().unwrap();
        assert!(sim.idle);
        sim.restore(&snap);
        assert!(!sim.idle);
        let evals = sim.report().guard_evals;
        sim.step().unwrap();
        assert_eq!(sim.report().guard_evals, evals + 3, "restore re-evaluates");
        assert!(sim.idle);
        sim.reset_state(&d);
        assert!(!sim.idle);
        sim.step().unwrap();
        assert_eq!(sim.report().guard_evals, evals + 6, "reset re-evaluates");
        // Switching to the naive reference evaluates every guard again.
        sim.event_driven = false;
        sim.step().unwrap();
        assert_eq!(sim.report().guard_evals, evals + 9);
        assert!(!sim.idle);
    }

    /// The fast path against the full event-driven step as oracle: the
    /// same input schedule, with the idle flag cleared before every step
    /// of the oracle, gives identical reports, sinks and states.
    #[test]
    fn idle_fast_path_matches_the_full_step() {
        let d = pipeline3();
        let run = |fast: bool| {
            let mut sim = HwSim::with_store(&d, Store::new(&d)).unwrap();
            let mut fed = 0;
            for cycle in 0..600u64 {
                if cycle % 97 < 6 || cycle % 41 == 0 {
                    sim.store.push_source(PrimId(0), Value::int(32, fed));
                    fed += 1;
                }
                if !fast {
                    sim.idle = false;
                }
                sim.step().unwrap();
            }
            (sim.report(), sim.store)
        };
        let (fast, oracle) = (run(true), run(false));
        assert_eq!(fast.0, oracle.0);
        assert_eq!(fast.1, oracle.1);
        assert!(fast.0.guard_evals_skipped > 1000, "{:?}", fast.0);
    }

    #[test]
    fn conflicting_rules_serialize_across_cycles() {
        // Two rules both enq the same FIFO: only one per cycle may fire.
        let q = PrimId(0);
        let d = Design {
            name: "conflict".into(),
            prims: vec![PrimDef {
                path: Path::new("q"),
                spec: PrimSpec::Fifo {
                    depth: 8,
                    ty: Type::Int(32),
                },
            }],
            rules: vec![
                RuleDef {
                    name: "a".into(),
                    body: Action::Call(Target::Prim(q, PrimMethod::Enq), vec![Expr::int(32, 1)]),
                },
                RuleDef {
                    name: "b".into(),
                    body: Action::Call(Target::Prim(q, PrimMethod::Enq), vec![Expr::int(32, 2)]),
                },
            ],
            ..Default::default()
        };
        let mut sim = HwSim::new(&d).unwrap();
        assert_eq!(sim.step().unwrap(), 1, "only one enq per cycle");
        assert_eq!(sim.step().unwrap(), 1);
        let rep = sim.report();
        assert_eq!(rep.peak_concurrency, 1);
        // Urgency order: rule `a` always wins while ready.
        assert!(rep.fired[0] >= rep.fired[1]);
    }

    #[test]
    fn seq_rules_rejected() {
        let q = PrimId(0);
        let d = Design {
            name: "bad".into(),
            prims: vec![PrimDef {
                path: Path::new("q"),
                spec: PrimSpec::Fifo {
                    depth: 1,
                    ty: Type::Int(8),
                },
            }],
            rules: vec![RuleDef {
                name: "seq".into(),
                body: Action::Seq(
                    Box::new(Action::Call(
                        Target::Prim(q, PrimMethod::Enq),
                        vec![Expr::int(8, 1)],
                    )),
                    Box::new(Action::Call(Target::Prim(q, PrimMethod::Deq), vec![])),
                ),
            }],
            ..Default::default()
        };
        assert!(HwSim::new(&d).is_err());
    }

    #[test]
    fn hw_and_sw_agree_on_pipeline_output() {
        use crate::sched::{Strategy, SwOptions, SwRunner};
        let d = pipeline3();
        let mut hw_store = Store::new(&d);
        let mut sw_store = Store::new(&d);
        for i in 0..10 {
            hw_store.push_source(PrimId(0), Value::int(32, i));
            sw_store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut hw = HwSim::with_store(&d, hw_store).unwrap();
        hw.run_until_quiescent(1000).unwrap();
        let mut sw = SwRunner::with_store(
            &d,
            sw_store,
            SwOptions {
                strategy: Strategy::Dataflow,
                ..Default::default()
            },
        )
        .unwrap();
        sw.run_until_quiescent(10_000).unwrap();
        assert_eq!(
            hw.store.sink_values(PrimId(3)),
            sw.store.sink_values(PrimId(3)),
            "one-rule-at-a-time semantics: HW and SW must agree"
        );
    }
}
