//! Rule schedulers: the software execution strategy (§6.2–6.3) and the
//! BSV-style synchronous hardware scheduler (§6.4).
//!
//! The same elaborated design can be driven by either scheduler; the paper's
//! central observation is that software wants to "pass the algorithm over
//! the data" (run rules in dataflow order, one datum end-to-end) while
//! hardware wants to "pass the data through the algorithm" (fire every
//! stage once per clock on different data). Both schedulers resolve the
//! nondeterministic choice of the one-rule-at-a-time semantics — neither
//! can produce a behaviour the rules don't allow.

mod hw;
mod sw;

pub use hw::{hw_check, HwReport, HwSim, HwSnapshot};
pub use sw::{ExecBackend, Strategy, SwOptions, SwReport, SwRunner, SwSnapshot};

use crate::compile::{
    compile_plans, eval_guard_native, run_rule_inplace_native, run_rule_native, NativeFrame,
    NativeRule,
};
use crate::design::Design;
use crate::error::{ElabError, ExecResult};
use crate::exec::{eval_guard_ro, run_rule_in, run_rule_inplace, RuleOutcome};
use crate::store::{Cost, ShadowPolicy, Store, TxnLog};
use crate::xform::RulePlan;

/// A scheduler's rule executor. It runs every rule native or every rule
/// on the AST interpreter, chosen once for the whole scheduler, never
/// rule by rule. Over a flat-arena store every rule is lowered to native
/// closures ([`crate::compile`]) when the scheduler is built, and a rule
/// that does not lower refuses the design; over a tree store nothing is
/// lowered and the scheduler interprets. Both paths keep their shadows
/// in one [`TxnLog`] reused by every firing.
#[derive(Debug, Default)]
struct RuleExec {
    /// One lowered rule per plan; empty when nothing was lowered.
    natives: Vec<NativeRule>,
    /// Run `natives`; otherwise interpret every rule.
    native: bool,
    frame: NativeFrame,
    log: TxnLog,
}

impl RuleExec {
    /// Lowers `plans` if `store` is flat, and runs them when `native`.
    ///
    /// # Errors
    ///
    /// Names the first rule whose guard or body does not lower.
    fn new(
        plans: &[RulePlan],
        design: &Design,
        store: &Store,
        native: bool,
    ) -> Result<RuleExec, ElabError> {
        let natives = if store.is_flat() {
            compile_plans(plans, design)?
        } else {
            Vec::new()
        };
        let mut exec = RuleExec {
            natives,
            ..RuleExec::default()
        };
        exec.set_native(native);
        Ok(exec)
    }

    /// Runs the lowered rules when `on` and some were lowered; every
    /// rule is interpreted otherwise.
    fn set_native(&mut self, on: bool) {
        self.native = on && !self.natives.is_empty();
    }

    /// Rules run on the interpreter: none or all of them.
    fn interpreted(&self, plans: &[RulePlan]) -> usize {
        if self.native {
            0
        } else {
            plans.len()
        }
    }

    /// Evaluates rule `i`'s lifted guard against the committed store; a
    /// rule without one is ready.
    fn guard(
        &mut self,
        store: &mut Store,
        i: usize,
        plan: &RulePlan,
        cost: &mut Cost,
    ) -> ExecResult<bool> {
        if self.native {
            match &self.natives[i].guard {
                Some(g) => eval_guard_native(&mut self.frame, store, g, cost),
                None => Ok(true),
            }
        } else {
            match &plan.guard {
                Some(g) => eval_guard_ro(store, g, cost),
                None => Ok(true),
            }
        }
    }

    /// Runs rule `i`'s body as a transaction.
    fn body(
        &mut self,
        store: &mut Store,
        i: usize,
        plan: &RulePlan,
        policy: ShadowPolicy,
    ) -> ExecResult<(RuleOutcome, Cost)> {
        if self.native {
            let body = &self.natives[i].body;
            run_rule_native(&mut self.frame, &mut self.log, store, body, policy)
        } else {
            run_rule_in(&mut self.log, store, &plan.body, policy)
        }
    }

    /// Runs rule `i`'s fully guard-lifted body in place.
    fn body_inplace(&mut self, store: &mut Store, i: usize, plan: &RulePlan) -> ExecResult<Cost> {
        if self.native {
            run_rule_inplace_native(&mut self.frame, store, &self.natives[i].body)
        } else {
            run_rule_inplace(store, &plan.body)
        }
    }
}

/// Converts the abstract cost counters of rule execution into CPU cycles.
///
/// The weights model the generated C++ of §6.2: ALU ops are ~1 cycle,
/// shadow and commit copies are memory traffic, a rollback is a pipeline
/// disaster, and a transaction that could not be guard-lifted pays the
/// try/catch setup the paper works so hard to remove (Figures 9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per weighted ALU operation.
    pub op: u64,
    /// Per primitive value-method call.
    pub read: u64,
    /// Per primitive action-method call.
    pub write: u64,
    /// Per word copied into a shadow.
    pub shadow_word: u64,
    /// Per word copied at commit.
    pub commit_word: u64,
    /// Per rollback (exception unwind + state restore).
    pub rollback: u64,
    /// Fixed overhead per scheduler guard evaluation.
    pub guard_eval: u64,
    /// Fixed overhead per transactional rule attempt (try/catch setup).
    pub txn_setup: u64,
    /// Fixed overhead per in-place (guard-lifted) rule execution.
    pub inplace_run: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            op: 1,
            read: 1,
            write: 1,
            shadow_word: 2,
            commit_word: 2,
            rollback: 25,
            guard_eval: 2,
            txn_setup: 30,
            inplace_run: 2,
        }
    }
}

impl CostModel {
    /// Total CPU cycles for a set of counters.
    pub fn cycles(&self, c: &Cost) -> u64 {
        c.ops * self.op
            + c.reads * self.read
            + c.writes * self.write
            + c.shadow_words * self.shadow_word
            + c.commit_words * self.commit_word
            + c.rollbacks * self.rollback
            + c.guard_evals * self.guard_eval
            + c.txn_setups * self.txn_setup
            + c.inplace_runs * self.inplace_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{dsl::*, ModuleBuilder};
    use crate::program::Program;
    use crate::types::Type;
    use crate::value::Value;

    /// A tree store is never lowered. With `compiled` on — through the
    /// options for the runner, and set after construction for the
    /// simulator, as `Cosim` does — both schedulers interpret every rule
    /// and match the naive reference in firings, state, and cycles.
    #[test]
    fn compiled_over_tree_store_interprets() {
        let mut m = ModuleBuilder::new("Fallback");
        m.source("src", Type::Int(32), "SW");
        m.sink("snk", Type::Int(32), "SW");
        m.fifo("q", 2, Type::Int(32));
        m.reg("n", Value::int(32, 0));
        m.rule(
            "feed",
            with_first("x", "src", enq("q", add(var("x"), cint(32, 1)))),
        );
        m.rule(
            "drain",
            with_first(
                "x",
                "q",
                par(vec![
                    enq("snk", var("x")),
                    write("n", add(read("n"), cint(32, 1))),
                ]),
            ),
        );
        let d = crate::elab::elaborate(&Program::with_root(m.build())).unwrap();
        let src = d.prim_id("src").unwrap();
        let preload = || {
            let mut s = Store::new(&d);
            for i in 0..6 {
                s.push_source(src, Value::int(32, i));
            }
            s
        };

        let sw = |event_driven, compiled| {
            let opts = SwOptions {
                event_driven,
                compiled,
                ..Default::default()
            };
            let mut r = SwRunner::with_store(&d, preload(), opts).unwrap();
            r.run_until_quiescent(1_000).unwrap();
            r
        };
        let naive = sw(false, false);
        let compiled = sw(true, true);
        assert!(compiled.exec.natives.is_empty(), "tree store was lowered");
        assert_eq!(compiled.interpreted_rules(), 2);
        assert_eq!(compiled.report(), naive.report());
        assert_eq!(compiled.store, naive.store);

        let hw = |event_driven, compiled| {
            let mut sim = HwSim::with_store(&d, preload()).unwrap();
            sim.event_driven = event_driven;
            sim.set_compiled(compiled);
            sim.run_until_quiescent(1_000).unwrap();
            sim
        };
        let naive = hw(false, false);
        let compiled = hw(true, true);
        assert!(compiled.exec.natives.is_empty(), "tree store was lowered");
        assert!(!compiled.compiled());
        let (rn, rc) = (naive.report(), compiled.report());
        assert_eq!((rc.cycles, &rc.fired), (rn.cycles, &rn.fired));
        assert_eq!(compiled.store, naive.store);
    }

    #[test]
    fn cost_model_weighs_counters() {
        let m = CostModel::default();
        let mut c = Cost::default();
        assert_eq!(m.cycles(&c), 0);
        c.ops = 10;
        c.rollbacks = 1;
        assert_eq!(m.cycles(&c), 10 + 25);
        c.txn_setups = 2;
        assert_eq!(m.cycles(&c), 10 + 25 + 60);
    }
}
