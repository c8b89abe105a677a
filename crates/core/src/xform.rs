//! Code transformations that make generated software fast (§6.3).
//!
//! * **Guard lifting** applies the when-axioms of Figure 8 (plus implicit
//!   primitive guards such as FIFO not-full/not-empty) to move guards to
//!   the top of a rule, producing the form `A when E` with `A` and `E`
//!   guard-free. A fully lifted rule can skip the try/catch-style shadow
//!   machinery entirely and run *in situ*.
//! * **Sequentialization** rewrites parallel action composition `A | B`
//!   into `A ; B` when the write set of `A` is disjoint from the read set
//!   of `B` (and their write sets are disjoint), removing dynamic shadow
//!   allocation.
//! * **Rule-plan compilation** bundles these into a [`RulePlan`] the
//!   software scheduler executes, choosing the in-place fast path
//!   ([`ExecMode::InPlace`]) whenever it is sound.

use crate::analysis::RwSet;
use crate::ast::{Action, Expr, PrimMethod, RuleDef, Target};
use crate::value::Value;
use std::collections::BTreeSet;

/// How a rule should be executed by the software runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Guard fully lifted; execute directly against committed state.
    InPlace,
    /// Residual guards remain (or shadow-requiring constructs do); execute
    /// under a transaction with commit/rollback.
    Transactional,
}

/// An executable plan for one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RulePlan {
    /// Rule name (from the design).
    pub name: String,
    /// The lifted guard, if lifting was performed. `None` means "always
    /// attempt" (either lifting is disabled or nothing was liftable).
    pub guard: Option<Expr>,
    /// The (possibly transformed) rule body.
    pub body: Action,
    /// Chosen execution mode.
    pub mode: ExecMode,
    /// True if guards may still fail inside `body`.
    pub residual: bool,
}

/// Options controlling rule compilation — each §6.3 optimization can be
/// toggled independently for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOpts {
    /// Apply when-lifting (axioms A.1–A.9 + implicit guards).
    pub lift: bool,
    /// Rewrite parallel composition into sequential composition where the
    /// non-interference condition holds.
    pub sequentialize: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts {
            lift: true,
            sequentialize: true,
        }
    }
}

/// The result of lifting an action.
#[derive(Debug, Clone)]
pub struct Lifted {
    /// The body with lifted guards removed.
    pub body: Action,
    /// The extracted guard (conjunction), if any.
    pub guard: Option<Expr>,
    /// True if guard failures may still occur inside `body`.
    pub residual: bool,
}

fn e_true() -> Expr {
    Expr::Const(Value::Bool(true))
}

fn is_const_true(e: &Expr) -> bool {
    matches!(e, Expr::Const(Value::Bool(true)))
}

/// Guard conjunction where the right side is only *evaluable* when the
/// left side holds (e.g. the right side duplicates a condition expression
/// whose implicit guards the left side captures). Built as
/// `protect ? g : false`, which short-circuits — the interpreter's `&&`
/// evaluates both operands, so a plain conjunction would evaluate an
/// unguarded expression and fail spuriously.
fn and_then(protect: Option<Expr>, g: Option<Expr>) -> Option<Expr> {
    match (protect, g) {
        (None, g) => g,
        (p, None) => p,
        (Some(p), Some(g)) => {
            if is_const_true(&p) {
                Some(g)
            } else {
                Some(Expr::Cond(
                    Box::new(p),
                    Box::new(g),
                    Box::new(Expr::Const(Value::Bool(false))),
                ))
            }
        }
    }
}

/// Conjunction of two optional guards, folding constants.
fn and(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
    match (a, b) {
        (None, g) | (g, None) => g,
        (Some(x), Some(y)) => {
            if is_const_true(&x) {
                Some(y)
            } else if is_const_true(&y) {
                Some(x)
            } else {
                Some(Expr::Bin(
                    crate::value::BinOp::And,
                    Box::new(x),
                    Box::new(y),
                ))
            }
        }
    }
}

/// The implicit guard of a primitive method call, expressed as an
/// equivalent pure expression on the same primitive.
fn implicit_guard(t: &Target) -> Option<Expr> {
    if let Target::Prim(id, m) = t {
        match m {
            PrimMethod::Enq => Some(Expr::Call(Target::Prim(*id, PrimMethod::NotFull), vec![])),
            PrimMethod::Deq | PrimMethod::First => {
                Some(Expr::Call(Target::Prim(*id, PrimMethod::NotEmpty), vec![]))
            }
            _ => None,
        }
    } else {
        None
    }
}

/// Free variables of an expression.
pub fn free_vars(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(n) => {
            out.insert(n.clone());
        }
        Expr::Un(_, a) | Expr::Field(a, _) => free_vars(a, out),
        Expr::Bin(_, a, b) | Expr::When(a, b) | Expr::Index(a, b) => {
            free_vars(a, out);
            free_vars(b, out);
        }
        Expr::Cond(a, b, c) | Expr::UpdateIndex(a, b, c) => {
            free_vars(a, out);
            free_vars(b, out);
            free_vars(c, out);
        }
        Expr::UpdateField(a, _, c) => {
            free_vars(a, out);
            free_vars(c, out);
        }
        Expr::Let(n, v, b) => {
            free_vars(v, out);
            let mut inner = BTreeSet::new();
            free_vars(b, &mut inner);
            inner.remove(n);
            out.extend(inner);
        }
        Expr::Call(_, args) | Expr::MkVec(args) => args.iter().for_each(|x| free_vars(x, out)),
        Expr::MkStruct(fs) => fs.iter().for_each(|(_, x)| free_vars(x, out)),
    }
}

fn guard_mentions(guard: &Expr, var: &str) -> bool {
    let mut fv = BTreeSet::new();
    free_vars(guard, &mut fv);
    fv.contains(var)
}

/// Lifts guards out of an expression: returns the guard-free expression and
/// the extracted guard (axioms A.4–A.8 plus implicit guards).
pub fn lift_expr(e: &Expr) -> (Expr, Option<Expr>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => (e.clone(), None),
        Expr::Un(op, a) => {
            let (a2, g) = lift_expr(a);
            (Expr::Un(*op, Box::new(a2)), g)
        }
        Expr::Bin(op, a, b) => {
            let (a2, ga) = lift_expr(a);
            let (b2, gb) = lift_expr(b);
            (Expr::Bin(*op, Box::new(a2), Box::new(b2)), and(ga, gb))
        }
        Expr::Cond(c, t, f) => {
            let (c2, gc) = lift_expr(c);
            let (t2, gt) = lift_expr(t);
            let (f2, gf) = lift_expr(f);
            // Guard from a branch applies only when that branch is taken
            // (the expression analogue of A.5).
            let branch_guard = match (gt, gf) {
                (None, None) => None,
                (gt, gf) => Some(Expr::Cond(
                    Box::new(c2.clone()),
                    Box::new(gt.unwrap_or_else(e_true)),
                    Box::new(gf.unwrap_or_else(e_true)),
                )),
            };
            (
                Expr::Cond(Box::new(c2), Box::new(t2), Box::new(f2)),
                // The branch guard re-evaluates `c2`, which is only legal
                // when the condition's own guard holds.
                and_then(gc, branch_guard),
            )
        }
        Expr::When(v, g) => {
            // A.6/A.7: (e when p) — p joins the lifted guard. `g2` and the
            // value guard are only evaluable once `g`'s own guards hold.
            let (v2, gv) = lift_expr(v);
            let (g2, gg) = lift_expr(g);
            (v2, and_then(gg, and(Some(g2), gv)))
        }
        Expr::Let(n, v, b) => {
            let (v2, gv) = lift_expr(v);
            let (b2, gb) = lift_expr(b);
            // A guard mentioning the bound variable is wrapped in the same
            // binding (expressions are pure, so duplicating `v2` is sound);
            // re-evaluating `v2` requires `gv` to hold.
            let gb = gb.map(|g| {
                if guard_mentions(&g, n) {
                    Expr::Let(n.clone(), Box::new(v2.clone()), Box::new(g))
                } else {
                    g
                }
            });
            (
                Expr::Let(n.clone(), Box::new(v2), Box::new(b2)),
                and_then(gv, gb),
            )
        }
        Expr::Call(t, args) => {
            let mut g = implicit_guard(t);
            let mut args2 = Vec::with_capacity(args.len());
            for a in args {
                let (a2, ga) = lift_expr(a);
                g = and(g, ga);
                args2.push(a2);
            }
            (Expr::Call(t.clone(), args2), g)
        }
        Expr::Index(v, i) => {
            let (v2, gv) = lift_expr(v);
            let (i2, gi) = lift_expr(i);
            (Expr::Index(Box::new(v2), Box::new(i2)), and(gv, gi))
        }
        Expr::Field(v, f) => {
            let (v2, gv) = lift_expr(v);
            (Expr::Field(Box::new(v2), f.clone()), gv)
        }
        Expr::MkVec(es) => {
            let mut g = None;
            let mut out = Vec::with_capacity(es.len());
            for e in es {
                let (e2, ge) = lift_expr(e);
                g = and(g, ge);
                out.push(e2);
            }
            (Expr::MkVec(out), g)
        }
        Expr::MkStruct(fs) => {
            let mut g = None;
            let mut out = Vec::with_capacity(fs.len());
            for (n, e) in fs {
                let (e2, ge) = lift_expr(e);
                g = and(g, ge);
                out.push((n.clone(), e2));
            }
            (Expr::MkStruct(out), g)
        }
        Expr::UpdateIndex(v, i, x) => {
            let (v2, gv) = lift_expr(v);
            let (i2, gi) = lift_expr(i);
            let (x2, gx) = lift_expr(x);
            (
                Expr::UpdateIndex(Box::new(v2), Box::new(i2), Box::new(x2)),
                and(and(gv, gi), gx),
            )
        }
        Expr::UpdateField(v, f, x) => {
            let (v2, gv) = lift_expr(v);
            let (x2, gx) = lift_expr(x);
            (
                Expr::UpdateField(Box::new(v2), f.clone(), Box::new(x2)),
                and(gv, gx),
            )
        }
    }
}

/// Lifts guards out of an action (axioms A.1–A.9 plus implicit guards).
pub fn lift_action(a: &Action) -> Lifted {
    match a {
        Action::NoAction => Lifted {
            body: Action::NoAction,
            guard: None,
            residual: false,
        },
        Action::Write(t, e) => {
            let (e2, g) = lift_expr(e);
            Lifted {
                body: Action::Write(t.clone(), Box::new(e2)),
                guard: and(implicit_guard(t), g),
                residual: false,
            }
        }
        Action::Call(t, args) => {
            let mut g = implicit_guard(t);
            let mut args2 = Vec::with_capacity(args.len());
            for x in args {
                let (x2, gx) = lift_expr(x);
                g = and(g, gx);
                args2.push(x2);
            }
            Lifted {
                body: Action::Call(t.clone(), args2),
                guard: g,
                residual: false,
            }
        }
        Action::If(c, th, el) => {
            let (c2, gc) = lift_expr(c);
            let lt = lift_action(th);
            let le = lift_action(el);
            // A.5: a guard inside a conditional branch is demanded only
            // when that branch is selected.
            let branch_guard = match (lt.guard, le.guard) {
                (None, None) => None,
                (gt, ge) => Some(Expr::Cond(
                    Box::new(c2.clone()),
                    Box::new(gt.unwrap_or_else(e_true)),
                    Box::new(ge.unwrap_or_else(e_true)),
                )),
            };
            Lifted {
                body: Action::If(Box::new(c2), Box::new(lt.body), Box::new(le.body)),
                // The branch guard re-evaluates `c2`: protect with `gc`.
                guard: and_then(gc, branch_guard),
                residual: lt.residual || le.residual,
            }
        }
        Action::Par(x, y) => {
            // A.1/A.2: guards of parallel branches conjoin at the top.
            let lx = lift_action(x);
            let ly = lift_action(y);
            Lifted {
                body: Action::Par(Box::new(lx.body), Box::new(ly.body)),
                guard: and(lx.guard, ly.guard),
                residual: lx.residual || ly.residual,
            }
        }
        Action::Seq(x, y) => {
            // A.3 lifts a guard out of the *first* component freely. A
            // guard of the second component may be hoisted past the first
            // only when the first cannot affect it: the primitives the
            // guard reads are disjoint from the primitives the first
            // component writes.
            let lx = lift_action(x);
            let ly = lift_action(y);
            let x_writes = RwSet::of_action(&lx.body).written_prims();
            match ly.guard {
                Some(gy) => {
                    let gy_reads = RwSet::of_expr(&gy).touched_prims();
                    if x_writes.is_disjoint(&gy_reads) {
                        Lifted {
                            body: Action::Seq(Box::new(lx.body), Box::new(ly.body)),
                            guard: and(lx.guard, Some(gy)),
                            residual: lx.residual || ly.residual,
                        }
                    } else {
                        // Leave the guard in place mid-sequence.
                        Lifted {
                            body: Action::Seq(
                                Box::new(lx.body),
                                Box::new(Action::When(Box::new(gy), Box::new(ly.body))),
                            ),
                            guard: lx.guard,
                            residual: true,
                        }
                    }
                }
                None => Lifted {
                    body: Action::Seq(Box::new(lx.body), Box::new(ly.body)),
                    guard: lx.guard,
                    residual: lx.residual || ly.residual,
                },
            }
        }
        Action::When(g, x) => {
            // A.9 / A.6: explicit guards conjoin at the top; `g2` is only
            // evaluable under its own guards.
            let (g2, gg) = lift_expr(g);
            let lx = lift_action(x);
            Lifted {
                body: lx.body,
                guard: and_then(gg, and(Some(g2), lx.guard)),
                residual: lx.residual,
            }
        }
        Action::Let(n, e, x) => {
            let (e2, ge) = lift_expr(e);
            let lx = lift_action(x);
            let gx = lx.guard.map(|g| {
                if guard_mentions(&g, n) {
                    Expr::Let(n.clone(), Box::new(e2.clone()), Box::new(g))
                } else {
                    g
                }
            });
            Lifted {
                body: Action::Let(n.clone(), Box::new(e2), Box::new(lx.body)),
                // `gx` may re-evaluate `e2`: protect with `ge`.
                guard: and_then(ge, gx),
                residual: lx.residual,
            }
        }
        Action::Loop(c, body) => {
            // Guards cannot be lifted through loops (the when-axioms have
            // no loop rule). We can still *classify*: if the body lifts to
            // guard-free with no residual, the loop can never fail.
            let lb = lift_action(body);
            let (_, gc) = lift_expr(c);
            if lb.guard.is_none() && !lb.residual && gc.is_none() {
                Lifted {
                    body: Action::Loop(c.clone(), Box::new(lb.body)),
                    guard: None,
                    residual: false,
                }
            } else {
                Lifted {
                    body: a.clone(),
                    guard: None,
                    residual: true,
                }
            }
        }
        Action::LocalGuard(x) => {
            let lx = lift_action(x);
            if !lx.residual {
                // localGuard(body when g) ≡ if g then body, when body is
                // otherwise failure-free: the guard becomes a plain
                // conditional and the dynamic shadow disappears.
                let body = match lx.guard {
                    Some(g) => {
                        Action::If(Box::new(g), Box::new(lx.body), Box::new(Action::NoAction))
                    }
                    None => lx.body,
                };
                Lifted {
                    body,
                    guard: None,
                    residual: false,
                }
            } else {
                let inner = match lx.guard {
                    Some(g) => Action::When(Box::new(g), Box::new(lx.body)),
                    None => lx.body,
                };
                Lifted {
                    body: Action::LocalGuard(Box::new(inner)),
                    guard: None,
                    residual: false,
                }
            }
        }
    }
}

/// Rewrites `A | B` into `A ; B` (or `B ; A`) wherever the §6.3
/// non-interference condition holds: the writes of the first do not
/// intersect the reads of the second, and the write sets are disjoint.
pub fn sequentialize(a: &Action) -> Action {
    match a {
        Action::Par(x, y) => {
            let x2 = sequentialize(x);
            let y2 = sequentialize(y);
            let sx = RwSet::of_action(&x2);
            let sy = RwSet::of_action(&y2);
            let disjoint_writes = sx.written_prims().is_disjoint(&sy.written_prims());
            if disjoint_writes && sx.written_prims().is_disjoint(&sy.read_prims()) {
                Action::Seq(Box::new(x2), Box::new(y2))
            } else if disjoint_writes && sy.written_prims().is_disjoint(&sx.read_prims()) {
                // (A|B) ≡ (B|A): try the other order.
                Action::Seq(Box::new(y2), Box::new(x2))
            } else {
                Action::Par(Box::new(x2), Box::new(y2))
            }
        }
        Action::Seq(x, y) => Action::Seq(Box::new(sequentialize(x)), Box::new(sequentialize(y))),
        Action::If(c, t, e) => Action::If(
            c.clone(),
            Box::new(sequentialize(t)),
            Box::new(sequentialize(e)),
        ),
        Action::When(g, x) => Action::When(g.clone(), Box::new(sequentialize(x))),
        Action::Let(n, e, x) => Action::Let(n.clone(), e.clone(), Box::new(sequentialize(x))),
        Action::Loop(c, x) => Action::Loop(c.clone(), Box::new(sequentialize(x))),
        Action::LocalGuard(x) => Action::LocalGuard(Box::new(sequentialize(x))),
        other => other.clone(),
    }
}

/// True if an action is executable on the in-place fast path: no parallel
/// composition (needs branch isolation), no `localGuard` (needs a
/// discardable frame), no residual `when`.
fn inplace_ok(a: &Action) -> bool {
    match a {
        Action::NoAction | Action::Write(..) | Action::Call(..) => true,
        Action::If(_, t, e) => inplace_ok(t) && inplace_ok(e),
        Action::Seq(x, y) => inplace_ok(x) && inplace_ok(y),
        Action::Let(_, _, x) | Action::Loop(_, x) => inplace_ok(x),
        Action::Par(..) | Action::When(..) | Action::LocalGuard(..) => false,
    }
}

/// Compiles a rule into an executable plan under the given options.
pub fn compile_rule(rule: &RuleDef, opts: CompileOpts) -> RulePlan {
    if !opts.lift {
        return RulePlan {
            name: rule.name.clone(),
            guard: None,
            body: rule.body.clone(),
            mode: ExecMode::Transactional,
            residual: true,
        };
    }
    let body = if opts.sequentialize {
        sequentialize(&rule.body)
    } else {
        rule.body.clone()
    };
    let lifted = lift_action(&body);
    let mode = if !lifted.residual && inplace_ok(&lifted.body) {
        ExecMode::InPlace
    } else {
        ExecMode::Transactional
    };
    // On the transactional path the residual body must retain *all* guard
    // semantics; the lifted guard still serves as a cheap pre-check, and
    // since lifting removed those whens from the body, executing
    // body-under-guard is equivalent to the original rule.
    RulePlan {
        name: rule.name.clone(),
        guard: lifted.guard,
        body: lifted.body,
        mode,
        residual: lifted.residual,
    }
}

/// Compiles every rule of a design.
pub fn compile_design(design: &crate::design::Design, opts: CompileOpts) -> Vec<RulePlan> {
    design.rules.iter().map(|r| compile_rule(r, opts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, PrimId};
    use crate::design::{Design, PrimDef};
    use crate::exec::{run_rule, RuleOutcome};
    use crate::prim::PrimSpec;
    use crate::store::{ShadowPolicy, Store};
    use crate::types::Type;
    use crate::value::BinOp;

    const A: PrimId = PrimId(0);
    const F: PrimId = PrimId(1);
    const B: PrimId = PrimId(2);

    fn d3() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("f"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("b"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
            ],
            ..Default::default()
        }
    }

    fn wr(id: PrimId, e: Expr) -> Action {
        Action::Write(Target::Prim(id, PrimMethod::RegWrite), Box::new(e))
    }
    fn rd(id: PrimId) -> Expr {
        Expr::Call(Target::Prim(id, PrimMethod::RegRead), vec![])
    }
    fn enq(id: PrimId, e: Expr) -> Action {
        Action::Call(Target::Prim(id, PrimMethod::Enq), vec![e])
    }

    /// The paper's running example (Figures 9/10):
    /// `Rule foo {a := 1; f.enq(a); a := 0}`.
    fn rule_foo() -> RuleDef {
        RuleDef {
            name: "foo".into(),
            body: Action::Seq(
                Box::new(wr(A, Expr::int(32, 1))),
                Box::new(Action::Seq(
                    Box::new(enq(F, rd(A))),
                    Box::new(wr(A, Expr::int(32, 0))),
                )),
            ),
        }
    }

    #[test]
    fn figure_10_rule_fully_lifts() {
        // After lifting, the only guard is `f.notFull` and the rule runs
        // in place (the "with inlining" code of Figure 10, minus try/catch).
        let plan = compile_rule(&rule_foo(), CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace, "guard: {:?}", plan.guard);
        assert!(!plan.residual);
        let g = plan.guard.expect("has a lifted guard");
        assert_eq!(
            g,
            Expr::Call(Target::Prim(F, PrimMethod::NotFull), vec![]),
            "implicit enq guard hoisted past the register write"
        );
    }

    #[test]
    fn lifted_guard_blocked_by_interference() {
        // f.deq ; f.enq(1): the enq guard reads `f`, which the deq writes —
        // the guard cannot be hoisted, the rule stays transactional.
        let r = RuleDef {
            name: "x".into(),
            body: Action::Seq(
                Box::new(Action::Call(Target::Prim(F, PrimMethod::Deq), vec![])),
                Box::new(enq(F, Expr::int(32, 1))),
            ),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::Transactional);
        assert!(plan.residual);
        // The deq's own guard still lifts.
        assert_eq!(
            plan.guard,
            Some(Expr::Call(Target::Prim(F, PrimMethod::NotEmpty), vec![]))
        );
    }

    #[test]
    fn explicit_when_lifts() {
        let r = RuleDef {
            name: "w".into(),
            body: Action::When(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 5)),
                )),
                Box::new(wr(B, Expr::int(32, 1))),
            ),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace);
        assert!(plan.guard.is_some());
        assert!(!matches!(plan.body, Action::When(..)));
    }

    #[test]
    fn conditional_guard_weakens_per_a5() {
        // if (a > 0) then f.enq(1)  -- guard must be  a>0 ? f.notFull : true
        let r = RuleDef {
            name: "c".into(),
            body: Action::If(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 0)),
                )),
                Box::new(enq(F, Expr::int(32, 1))),
                Box::new(Action::NoAction),
            ),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace);
        match plan.guard.expect("guard") {
            Expr::Cond(_, t, e) => {
                assert_eq!(*t, Expr::Call(Target::Prim(F, PrimMethod::NotFull), vec![]));
                assert!(is_const_true(&e));
            }
            g => panic!("expected conditional guard, got {g:?}"),
        }
    }

    #[test]
    fn par_guards_conjoin() {
        // (f.enq(1) | b := a) lifts to guard f.notFull; sequentialization
        // then removes the Par entirely.
        let r = RuleDef {
            name: "p".into(),
            body: Action::Par(Box::new(enq(F, Expr::int(32, 1))), Box::new(wr(B, rd(A)))),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace);
        assert!(matches!(plan.body, Action::Seq(..)));
    }

    #[test]
    fn swap_cannot_sequentialize() {
        // a := b | b := a interferes in both orders: stays parallel,
        // transactional.
        let r = RuleDef {
            name: "swap".into(),
            body: Action::Par(Box::new(wr(A, rd(B))), Box::new(wr(B, rd(A)))),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert!(matches!(plan.body, Action::Par(..)));
        assert_eq!(plan.mode, ExecMode::Transactional);
        assert!(!plan.residual, "no guards, but shadows still needed");
    }

    #[test]
    fn sequentialize_picks_reversed_order() {
        // (a := f.first | f.deq): first-then-deq works in sequence;
        // deq-then-first would misread. Writes {a} vs {f} disjoint;
        // forward order writes(a:=f.first)={a} ∩ reads(f.deq)=∅ -> forward
        // works already.
        let r = Action::Par(
            Box::new(wr(
                A,
                Expr::Call(Target::Prim(F, PrimMethod::First), vec![]),
            )),
            Box::new(Action::Call(Target::Prim(F, PrimMethod::Deq), vec![])),
        );
        let s = sequentialize(&r);
        match s {
            Action::Seq(x, _) => {
                assert!(matches!(*x, Action::Write(..)), "read half must go first");
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn local_guard_becomes_conditional() {
        // localGuard { f.enq(1) } with nothing else failing becomes
        // `if f.notFull then f.enq(1)` — no frames, no rule guard.
        let r = RuleDef {
            name: "lg".into(),
            body: Action::LocalGuard(Box::new(enq(F, Expr::int(32, 1)))),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace);
        assert_eq!(plan.guard, None);
        assert!(matches!(plan.body, Action::If(..)));
    }

    #[test]
    fn lift_disabled_keeps_original() {
        let plan = compile_rule(
            &rule_foo(),
            CompileOpts {
                lift: false,
                sequentialize: false,
            },
        );
        assert_eq!(plan.mode, ExecMode::Transactional);
        assert_eq!(plan.guard, None);
        assert_eq!(plan.body, rule_foo().body);
    }

    #[test]
    fn loop_without_failures_stays_inplace() {
        // loop (a < 3) { a := a + 1 }
        let r = RuleDef {
            name: "lp".into(),
            body: Action::Loop(
                Box::new(Expr::Bin(
                    BinOp::Lt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 3)),
                )),
                Box::new(wr(
                    A,
                    Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                )),
            ),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace);
        assert!(!plan.residual);
    }

    #[test]
    fn loop_with_fifo_ops_is_residual() {
        let r = RuleDef {
            name: "lp".into(),
            body: Action::Loop(Box::new(Expr::t()), Box::new(enq(F, Expr::int(32, 1)))),
        };
        let plan = compile_rule(&r, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::Transactional);
        assert!(plan.residual);
    }

    /// Semantic equivalence: executing the compiled plan must leave the
    /// same state as executing the original rule transactionally.
    fn assert_plan_equivalent(rule: &RuleDef, design: &Design, setup: impl Fn(&mut Store)) {
        use crate::exec::{eval_guard_ro, run_rule_inplace};
        let mut s_ref = Store::new(design);
        setup(&mut s_ref);
        let mut s_plan = s_ref.clone();
        let ref_out = run_rule(&mut s_ref, &rule.body, ShadowPolicy::Partial).unwrap();

        let plan = compile_rule(rule, CompileOpts::default());
        let mut cost = crate::store::Cost::default();
        let guard_ok = match &plan.guard {
            Some(g) => eval_guard_ro(&mut s_plan, g, &mut cost).unwrap(),
            None => true,
        };
        let fired = if !guard_ok {
            false
        } else {
            match plan.mode {
                ExecMode::InPlace => {
                    run_rule_inplace(&mut s_plan, &plan.body).unwrap();
                    true
                }
                ExecMode::Transactional => {
                    let (out, _) =
                        run_rule(&mut s_plan, &plan.body, ShadowPolicy::Partial).unwrap();
                    out == RuleOutcome::Fired
                }
            }
        };
        assert_eq!(
            fired,
            ref_out.0 == RuleOutcome::Fired,
            "firing mismatch for {}",
            rule.name
        );
        assert_eq!(s_plan, s_ref, "state mismatch for {}", rule.name);
    }

    #[test]
    fn plan_equivalence_suite() {
        let d = d3();
        // foo with empty FIFO, full FIFO
        assert_plan_equivalent(&rule_foo(), &d, |_| {});
        assert_plan_equivalent(&rule_foo(), &d, |s| {
            for _ in 0..2 {
                s.state_mut(F)
                    .call_action(PrimMethod::Enq, &[Value::int(32, 0)])
                    .unwrap();
            }
        });
        // swap
        let swap = RuleDef {
            name: "swap".into(),
            body: Action::Par(Box::new(wr(A, rd(B))), Box::new(wr(B, rd(A)))),
        };
        assert_plan_equivalent(&swap, &d, |s| {
            s.state_mut(A)
                .call_action(PrimMethod::RegWrite, &[Value::int(32, 7)])
                .unwrap();
        });
        // conditional enq with guard both ways
        let cond = RuleDef {
            name: "c".into(),
            body: Action::If(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 0)),
                )),
                Box::new(enq(F, rd(A))),
                Box::new(wr(B, Expr::int(32, 9))),
            ),
        };
        assert_plan_equivalent(&cond, &d, |_| {});
        assert_plan_equivalent(&cond, &d, |s| {
            s.state_mut(A)
                .call_action(PrimMethod::RegWrite, &[Value::int(32, 3)])
                .unwrap();
        });
    }
}
