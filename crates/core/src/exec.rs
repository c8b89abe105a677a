//! The rule interpreter: evaluates kernel BCL expressions and executes
//! actions against a transactional [`Txn`] or — for guard-lifted rules —
//! directly against the committed [`Store`] (§6.2–6.3).
//!
//! Every interpreter step is metered through the transaction's [`Cost`]
//! counters; the software cost model converts those counters into CPU
//! cycles, which is what stands in for the execution time of the
//! generated C++ of the paper.
//!
//! This is the reference executor. The compiled backend
//! ([`crate::compile`]) must match it verdict for verdict and charge for
//! charge, and runs it for the few constructs it does not lower.

use crate::ast::{Action, Expr, Target};
use crate::error::{ExecError, ExecResult};
use crate::store::{Cost, ShadowPolicy, Store, Txn, TxnLog};
use crate::value::Value;

/// A lexical environment for let-bound variables and method formals.
#[derive(Debug, Default, Clone)]
pub struct Env {
    vars: Vec<(String, Value)>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Pushes a binding (shadowing allowed).
    pub fn push(&mut self, name: &str, v: Value) {
        self.vars.push((name.to_string(), v));
    }

    /// Pops the most recent binding.
    pub fn pop(&mut self) {
        self.vars.pop();
    }

    /// Looks up a variable, innermost binding first.
    pub fn get(&self, name: &str) -> ExecResult<&Value> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| ExecError::Malformed(format!("unbound variable `{name}`")))
    }
}

/// Evaluates an expression inside a transaction.
///
/// # Errors
///
/// `GuardFail` when a `when` guard or an implicitly guarded primitive
/// method (FIFO `first` on empty, ...) fails; type/bounds errors for
/// malformed programs.
pub fn eval(txn: &mut Txn<'_>, env: &mut Env, e: &Expr) -> ExecResult<Value> {
    match e {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(n) => env.get(n).cloned(),
        Expr::Un(op, a) => {
            let va = eval(txn, env, a)?;
            txn.cost.ops += 1;
            Value::un_op(*op, &va)
        }
        Expr::Bin(op, a, b) => {
            let va = eval(txn, env, a)?;
            let vb = eval(txn, env, b)?;
            txn.cost.ops += op.cpu_cost();
            Value::bin_op(*op, &va, &vb)
        }
        Expr::Cond(c, t, f) => {
            let vc = eval(txn, env, c)?.as_bool()?;
            txn.cost.ops += 1;
            if vc {
                eval(txn, env, t)
            } else {
                eval(txn, env, f)
            }
        }
        Expr::When(v, g) => {
            // Guards in expressions: the guard is always evaluated (A.4/A.5
            // direction: guards in condition predicates always count).
            let gv = eval(txn, env, g)?.as_bool()?;
            txn.cost.ops += 1;
            if gv {
                eval(txn, env, v)
            } else {
                Err(ExecError::GuardFail)
            }
        }
        Expr::Let(n, v, b) => {
            let vv = eval(txn, env, v)?;
            env.push(n, vv);
            let r = eval(txn, env, b);
            env.pop();
            r
        }
        Expr::Call(t, args) => {
            let (id, m) = expect_prim(t)?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(txn, env, a)?);
            }
            txn.call_value(id, m, &vals)
        }
        Expr::Index(v, i) => {
            let vv = eval(txn, env, v)?;
            let iv = eval(txn, env, i)?.as_index()?;
            txn.cost.ops += 1;
            vv.index(iv).cloned()
        }
        Expr::Field(v, f) => {
            let vv = eval(txn, env, v)?;
            txn.cost.ops += 1;
            vv.field(f).cloned()
        }
        Expr::MkVec(es) => {
            let mut out = Vec::with_capacity(es.len());
            for e in es {
                out.push(eval(txn, env, e)?);
            }
            txn.cost.ops += es.len() as u64;
            Ok(Value::Vec(out))
        }
        Expr::MkStruct(fs) => {
            let mut out = Vec::with_capacity(fs.len());
            for (n, e) in fs {
                out.push((n.clone(), eval(txn, env, e)?));
            }
            txn.cost.ops += fs.len() as u64;
            Ok(Value::Struct(out))
        }
        Expr::UpdateIndex(v, i, x) => {
            let vv = eval(txn, env, v)?;
            let iv = eval(txn, env, i)?.as_index()?;
            let xv = eval(txn, env, x)?;
            // Functional update costs a copy of the vector.
            txn.cost.ops += vv.as_vec().map(|s| s.len() as u64).unwrap_or(1);
            vv.update_index(iv, xv)
        }
        Expr::UpdateField(v, f, x) => {
            let vv = eval(txn, env, v)?;
            let xv = eval(txn, env, x)?;
            txn.cost.ops += 1;
            vv.update_field(f, xv)
        }
    }
}

/// Executes an action inside a transaction.
///
/// # Errors
///
/// `GuardFail` invalidates the enclosing atomic action (unless absorbed by
/// `localGuard`); `DoubleWrite` when parallel branches collide; loop-bound
/// and type errors for malformed programs.
pub fn exec(txn: &mut Txn<'_>, env: &mut Env, a: &Action) -> ExecResult<()> {
    match a {
        Action::NoAction => Ok(()),
        Action::Write(t, e) => {
            let (id, m) = expect_prim(t)?;
            let v = eval(txn, env, e)?;
            txn.call_action(id, m, &[v])
        }
        Action::If(c, th, el) => {
            let vc = eval(txn, env, c)?.as_bool()?;
            txn.cost.ops += 1;
            if vc {
                exec(txn, env, th)
            } else {
                exec(txn, env, el)
            }
        }
        Action::Par(x, y) => {
            // One environment serves both branches: bindings are scoped
            // (every push is popped on all exit paths, including guard
            // failure), so the env is back to its entry shape when the
            // first branch returns and the second starts from the same
            // view — no per-branch clone needed.
            txn.run_par_ctx(env, |t, env| exec(t, env, x), |t, env| exec(t, env, y))
        }
        Action::Seq(x, y) => {
            exec(txn, env, x)?;
            exec(txn, env, y)
        }
        Action::When(g, x) => {
            let gv = eval(txn, env, g)?.as_bool()?;
            txn.cost.ops += 1;
            if gv {
                exec(txn, env, x)
            } else if txn.policy == ShadowPolicy::InPlace {
                // A failing guard on the in-place path is a lifting bug:
                // earlier writes cannot be rolled back.
                Err(ExecError::Malformed(
                    "guard failed during in-place execution (unsound lifting)".into(),
                ))
            } else {
                Err(ExecError::GuardFail)
            }
        }
        Action::Let(n, e, x) => {
            let v = eval(txn, env, e)?;
            env.push(n, v);
            let r = exec(txn, env, x);
            env.pop();
            r
        }
        Action::Loop(c, body) => {
            let mut iters = 0u64;
            loop {
                let cv = eval(txn, env, c)?.as_bool()?;
                txn.cost.ops += 1;
                if !cv {
                    return Ok(());
                }
                exec(txn, env, body)?;
                iters += 1;
                if iters > txn.max_loop_iters {
                    return Err(ExecError::Malformed(format!(
                        "loop exceeded {} iterations",
                        txn.max_loop_iters
                    )));
                }
            }
        }
        Action::LocalGuard(x) => {
            if txn.policy == ShadowPolicy::InPlace {
                return Err(ExecError::Malformed(
                    "localGuard reached an in-place (guard-lifted) execution".into(),
                ));
            }
            let at = txn.push_frame();
            match exec(txn, env, x) {
                Ok(()) => txn.pop_merge(),
                Err(ExecError::GuardFail) => {
                    txn.discard_from(at);
                    Ok(())
                }
                Err(e) => {
                    txn.discard_from(at);
                    Err(e)
                }
            }
        }
        Action::Call(t, args) => {
            let (id, m) = expect_prim(t)?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(txn, env, a)?);
            }
            txn.call_action(id, m, &vals)
        }
    }
}

fn expect_prim(t: &Target) -> ExecResult<(crate::ast::PrimId, crate::ast::PrimMethod)> {
    match t {
        Target::Prim(id, m) => Ok((*id, *m)),
        Target::Named(p, m) => Err(ExecError::Malformed(format!(
            "unelaborated method call `{p}.{m}` reached the interpreter"
        ))),
    }
}

/// The outcome of attempting one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOutcome {
    /// The rule's updates were committed.
    Fired,
    /// A guard failed; state is unchanged.
    GuardFailed,
}

/// Runs one rule as a transaction: execute, commit on success, roll back on
/// guard failure. Other errors propagate. The returned cost includes
/// everything: execution, shadowing, commit or rollback.
pub fn run_rule(
    store: &mut Store,
    body: &Action,
    policy: ShadowPolicy,
) -> ExecResult<(RuleOutcome, Cost)> {
    run_rule_in(&mut TxnLog::new(), store, body, policy)
}

/// [`run_rule`] with the shadows kept in a caller-owned [`TxnLog`], so a
/// scheduler that reuses one log across firings does not reallocate it.
pub fn run_rule_in(
    log: &mut TxnLog,
    store: &mut Store,
    body: &Action,
    policy: ShadowPolicy,
) -> ExecResult<(RuleOutcome, Cost)> {
    let mut txn = Txn::new(store, log, policy);
    txn.cost.txn_setups += 1;
    let mut env = Env::new();
    match exec(&mut txn, &mut env, body) {
        Ok(()) => Ok((RuleOutcome::Fired, txn.commit())),
        Err(ExecError::GuardFail) => Ok((RuleOutcome::GuardFailed, txn.rollback())),
        Err(e) => Err(e),
    }
}

/// Runs a fully guard-lifted rule body directly against the committed
/// store — no shadows, no commit, no rollback capability (§6.3). The
/// caller must have established that the lifted guard holds.
///
/// # Errors
///
/// A `GuardFail` or disallowed construct (`Par`, `localGuard`) surfacing
/// here means the lifting transformation was unsound for this rule and is
/// reported as a `Malformed` error; the committed state may be partially
/// updated in that case.
pub fn run_rule_inplace(store: &mut Store, body: &Action) -> ExecResult<Cost> {
    // In-place execution never shadows, so the empty log never allocates.
    let mut log = TxnLog::new();
    let mut txn = Txn::new(store, &mut log, ShadowPolicy::InPlace);
    txn.cost.inplace_runs += 1;
    let mut env = Env::new();
    match exec(&mut txn, &mut env, body) {
        Ok(()) => Ok(txn.commit()),
        Err(ExecError::GuardFail) => Err(ExecError::Malformed(
            "guard failure during in-place execution (unsound lifting)".into(),
        )),
        Err(e) => Err(e),
    }
}

/// Evaluates a pure expression against the committed store without opening
/// a transaction (scheduler guard evaluation). Any `GuardFail` is reported
/// as `Ok(false)` when the expression is used as a guard via
/// [`eval_guard_ro`].
pub fn eval_ro(store: &mut Store, env: &mut Env, e: &Expr, cost: &mut Cost) -> ExecResult<Value> {
    // A read-only transaction: writes are a malformed-program error, which
    // we get for free because guard expressions contain no action calls.
    let mut log = TxnLog::new();
    let mut txn = Txn::new(store, &mut log, ShadowPolicy::Partial);
    let r = eval(&mut txn, env, e);
    cost.add(&txn.cost);
    // No commit: value context only. (Txn dropped; nothing was written.)
    r
}

/// Evaluates a lifted guard: `Ok(true)`/`Ok(false)`, with guard failures
/// inside the guard expression itself (e.g. `first` of an empty FIFO used
/// in arithmetic) folding to `false`.
pub fn eval_guard_ro(store: &mut Store, e: &Expr, cost: &mut Cost) -> ExecResult<bool> {
    cost.guard_evals += 1;
    let mut env = Env::new();
    match eval_ro(store, &mut env, e, cost) {
        Ok(v) => v.as_bool(),
        Err(ExecError::GuardFail) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, PrimId, PrimMethod};
    use crate::design::{Design, PrimDef};
    use crate::prim::PrimSpec;
    use crate::types::Type;
    use crate::value::BinOp;

    fn d3() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 1),
                    },
                },
                PrimDef {
                    path: Path::new("b"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 2),
                    },
                },
                PrimDef {
                    path: Path::new("q"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
            ],
            ..Default::default()
        }
    }

    const A: PrimId = PrimId(0);
    const B: PrimId = PrimId(1);
    const Q: PrimId = PrimId(2);

    fn read(id: PrimId) -> Expr {
        Expr::Call(Target::Prim(id, PrimMethod::RegRead), vec![])
    }
    fn write(id: PrimId, e: Expr) -> Action {
        Action::Write(Target::Prim(id, PrimMethod::RegWrite), Box::new(e))
    }
    fn reg_val(s: &Store, id: PrimId) -> i64 {
        s.state(id)
            .call_value(PrimMethod::RegRead, &[])
            .unwrap()
            .as_int()
            .unwrap()
    }

    #[test]
    fn rule_commit() {
        let d = d3();
        let mut s = Store::new(&d);
        let body = write(
            A,
            Expr::Bin(BinOp::Add, Box::new(read(A)), Box::new(Expr::int(32, 10))),
        );
        let (out, cost) = run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(out, RuleOutcome::Fired);
        assert_eq!(reg_val(&s, A), 11);
        assert!(cost.ops >= 1);
    }

    #[test]
    fn guard_failure_rolls_back() {
        let d = d3();
        let mut s = Store::new(&d);
        // a := 99 ; (noAction when false)
        let body = Action::Seq(
            Box::new(write(A, Expr::int(32, 99))),
            Box::new(Action::When(
                Box::new(Expr::f()),
                Box::new(Action::NoAction),
            )),
        );
        let (out, cost) = run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(out, RuleOutcome::GuardFailed);
        assert_eq!(reg_val(&s, A), 1, "rollback must restore");
        assert_eq!(cost.rollbacks, 1);
    }

    #[test]
    fn parallel_swap_rule() {
        let d = d3();
        let mut s = Store::new(&d);
        let body = Action::Par(Box::new(write(A, read(B))), Box::new(write(B, read(A))));
        run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(reg_val(&s, A), 2);
        assert_eq!(reg_val(&s, B), 1);
    }

    #[test]
    fn seq_is_not_swap() {
        let d = d3();
        let mut s = Store::new(&d);
        let body = Action::Seq(Box::new(write(A, read(B))), Box::new(write(B, read(A))));
        run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(reg_val(&s, A), 2);
        assert_eq!(reg_val(&s, B), 2, "sequential: b sees a's update");
    }

    #[test]
    fn local_guard_absorbs_failure() {
        let d = d3();
        let mut s = Store::new(&d);
        // a := 5 ; localGuard { b := 9 ; noAction when false }
        let body = Action::Seq(
            Box::new(write(A, Expr::int(32, 5))),
            Box::new(Action::LocalGuard(Box::new(Action::Seq(
                Box::new(write(B, Expr::int(32, 9))),
                Box::new(Action::When(
                    Box::new(Expr::f()),
                    Box::new(Action::NoAction),
                )),
            )))),
        );
        let (out, _) = run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(out, RuleOutcome::Fired);
        assert_eq!(reg_val(&s, A), 5, "outer effect commits");
        assert_eq!(reg_val(&s, B), 2, "guarded inner effect discarded");
    }

    #[test]
    fn dynamic_length_loop_with_local_guard() {
        // The paper's non-atomic-atomic-loop idiom: drain a FIFO into `a`
        // (summing) until empty, terminating via guard failure.
        let d = d3();
        let mut s = Store::new(&d);
        for v in [10, 20, 30] {
            if let crate::prim::PrimState::Fifo { items, depth } = s.state_mut(Q) {
                *depth = 10;
                items.push_back(Value::int(32, v));
            }
        }
        // cond := true; loop(cond) { cond := false; localGuard { a := a + q.first; q.deq; cond := true } }
        // Encode cond as register B (0/1).
        let cond_true = write(B, Expr::int(32, 1));
        let cond_false = write(B, Expr::int(32, 0));
        let cond_read = Expr::Bin(BinOp::Eq, Box::new(read(B)), Box::new(Expr::int(32, 1)));
        let drain = Action::Seq(
            Box::new(write(
                A,
                Expr::Bin(
                    BinOp::Add,
                    Box::new(read(A)),
                    Box::new(Expr::Call(Target::Prim(Q, PrimMethod::First), vec![])),
                ),
            )),
            Box::new(Action::Seq(
                Box::new(Action::Call(Target::Prim(Q, PrimMethod::Deq), vec![])),
                Box::new(cond_true.clone()),
            )),
        );
        let body = Action::Seq(
            Box::new(write(A, Expr::int(32, 0))),
            Box::new(Action::Seq(
                Box::new(cond_true),
                Box::new(Action::Loop(
                    Box::new(cond_read),
                    Box::new(Action::Seq(
                        Box::new(cond_false),
                        Box::new(Action::LocalGuard(Box::new(drain))),
                    )),
                )),
            )),
        );
        let (out, _) = run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(out, RuleOutcome::Fired);
        assert_eq!(reg_val(&s, A), 60, "all three values drained and summed");
    }

    #[test]
    fn loop_bound_enforced() {
        let d = d3();
        let mut s = Store::new(&d);
        let body = Action::Loop(Box::new(Expr::t()), Box::new(Action::NoAction));
        let mut log = TxnLog::new();
        let mut txn = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        txn.max_loop_iters = 10;
        let mut env = Env::new();
        let r = exec(&mut txn, &mut env, &body);
        assert!(matches!(r, Err(ExecError::Malformed(_))));
    }

    #[test]
    fn when_expression_guards() {
        let d = d3();
        let mut s = Store::new(&d);
        // a := (b when (b > 5))  -- fails since b == 2
        let body = write(
            A,
            Expr::When(
                Box::new(read(B)),
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(read(B)),
                    Box::new(Expr::int(32, 5)),
                )),
            ),
        );
        let (out, _) = run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(out, RuleOutcome::GuardFailed);
    }

    #[test]
    fn let_binding_and_shadowing() {
        let d = d3();
        let mut s = Store::new(&d);
        // let x = 3 in let x = x + 1 in a := x
        let body = Action::Let(
            "x".into(),
            Box::new(Expr::int(32, 3)),
            Box::new(Action::Let(
                "x".into(),
                Box::new(Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Var("x".into())),
                    Box::new(Expr::int(32, 1)),
                )),
                Box::new(write(A, Expr::Var("x".into()))),
            )),
        );
        run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(reg_val(&s, A), 4);
    }

    #[test]
    fn vector_expressions() {
        let d = d3();
        let mut s = Store::new(&d);
        // a := (update [10,20,30] at 1 to 99)[1] + [10,20,30][2]
        let v = Expr::MkVec(vec![
            Expr::int(32, 10),
            Expr::int(32, 20),
            Expr::int(32, 30),
        ]);
        let upd = Expr::UpdateIndex(
            Box::new(v.clone()),
            Box::new(Expr::int(32, 1)),
            Box::new(Expr::int(32, 99)),
        );
        let body = write(
            A,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Index(Box::new(upd), Box::new(Expr::int(32, 1)))),
                Box::new(Expr::Index(Box::new(v), Box::new(Expr::int(32, 2)))),
            ),
        );
        run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(reg_val(&s, A), 129);
    }

    #[test]
    fn struct_expressions() {
        let d = d3();
        let mut s = Store::new(&d);
        let st = Expr::MkStruct(vec![
            ("re".into(), Expr::int(32, 7)),
            ("im".into(), Expr::int(32, 8)),
        ]);
        let body = write(
            A,
            Expr::Field(
                Box::new(Expr::UpdateField(
                    Box::new(st),
                    "im".into(),
                    Box::new(Expr::int(32, 80)),
                )),
                "im".into(),
            ),
        );
        run_rule(&mut s, &body, ShadowPolicy::Partial).unwrap();
        assert_eq!(reg_val(&s, A), 80);
    }

    #[test]
    fn guard_eval_ro_folds_failures() {
        let d = d3();
        let mut s = Store::new(&d);
        let mut cost = Cost::default();
        // Guard reads q.first on an empty FIFO -> false, not an error.
        let g = Expr::Bin(
            BinOp::Gt,
            Box::new(Expr::Call(Target::Prim(Q, PrimMethod::First), vec![])),
            Box::new(Expr::int(32, 0)),
        );
        assert!(!eval_guard_ro(&mut s, &g, &mut cost).unwrap());
        assert_eq!(cost.guard_evals, 1);
    }

    #[test]
    fn unelaborated_call_is_malformed() {
        let d = d3();
        let mut s = Store::new(&d);
        let body = Action::Call(Target::Named("x".into(), "enq".into()), vec![]);
        assert!(matches!(
            run_rule(&mut s, &body, ShadowPolicy::Partial),
            Err(ExecError::Malformed(_))
        ));
    }
}
