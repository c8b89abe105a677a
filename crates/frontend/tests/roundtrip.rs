//! Property: pretty-printing any (printable) program and re-parsing it
//! yields a semantically identical program — the elaborated designs are
//! structurally equal and behave the same.

use bcl_core::ast::{Action, Expr, RuleDef, Target};
use bcl_core::prim::PrimSpec;
use bcl_core::program::{InstDef, InstKind, ModuleDef, Program};
use bcl_core::types::Type;
use bcl_core::value::{BinOp, Value};
use bcl_frontend::{parse, pretty_program};
use proptest::prelude::*;

/// Instance names fixed up front so expressions can reference them.
const REGS: [&str; 2] = ["ra", "rb"];
const FIFOS: [&str; 2] = ["fa", "fb"];

fn arb_scalar_ty() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Bool),
        (1u32..=32).prop_map(Type::Int),
        (1u32..=32).prop_map(Type::Bits),
    ]
}

fn rd(r: &str) -> Expr {
    Expr::Call(Target::Named(r.into(), "_read".into()), vec![])
}
fn first(f: &str) -> Expr {
    Expr::Call(Target::Named(f.into(), "first".into()), vec![])
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(|v| Expr::Const(Value::int(32, v))),
        Just(rd(REGS[0])),
        Just(rd(REGS[1])),
        Just(first(FIFOS[0])),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Mul,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| Expr::Cond(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(c),
                    Box::new(Expr::int(32, 0))
                )),
                Box::new(t),
                Box::new(f)
            )),
        ]
    })
}

fn arb_action() -> impl Strategy<Value = Action> {
    let leaf = prop_oneof![
        Just(Action::NoAction),
        arb_expr().prop_map(|e| Action::Write(
            Target::Named(REGS[0].into(), "_write".into()),
            Box::new(e)
        )),
        arb_expr()
            .prop_map(|e| Action::Call(Target::Named(FIFOS[1].into(), "enq".into()), vec![e])),
        Just(Action::Call(
            Target::Named(FIFOS[0].into(), "deq".into()),
            vec![]
        )),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Action::Par(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Action::Seq(Box::new(a), Box::new(b))),
            (arb_expr(), inner.clone()).prop_map(|(g, a)| Action::When(
                Box::new(Expr::Bin(
                    BinOp::Ne,
                    Box::new(g),
                    Box::new(Expr::int(32, 0))
                )),
                Box::new(a)
            )),
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Action::If(
                Box::new(Expr::Bin(
                    BinOp::Lt,
                    Box::new(c),
                    Box::new(Expr::int(32, 5))
                )),
                Box::new(t),
                Box::new(f)
            )),
            inner.clone().prop_map(|a| Action::LocalGuard(Box::new(a))),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_action(), 1..4),
        arb_scalar_ty(),
        1usize..4,
    )
        .prop_map(|(bodies, fifo_ty, depth)| {
            let mut m = ModuleDef::new("Gen");
            for r in REGS {
                m.insts.push(InstDef {
                    name: r.into(),
                    kind: InstKind::Prim(PrimSpec::Reg {
                        init: Value::int(32, 0),
                    }),
                });
            }
            m.insts.push(InstDef {
                name: FIFOS[0].into(),
                kind: InstKind::Prim(PrimSpec::Fifo {
                    depth,
                    ty: Type::Int(32),
                }),
            });
            m.insts.push(InstDef {
                name: FIFOS[1].into(),
                kind: InstKind::Prim(PrimSpec::Fifo { depth, ty: fifo_ty }),
            });
            for (i, body) in bodies.into_iter().enumerate() {
                m.rules.push(RuleDef {
                    name: format!("r{i}"),
                    body,
                });
            }
            Program::with_root(m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_then_parse_preserves_semantics(p1 in arb_program()) {
        let printed = pretty_program(&p1);
        let p2 = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        let d1 = bcl_core::elaborate(&p1).unwrap();
        let d2 = bcl_core::elaborate(&p2).unwrap();
        prop_assert_eq!(&d1.prims, &d2.prims, "printed:\n{}", printed);

        // Behavioural equality: run both designs from the same seeded
        // state under the same schedule and compare outcomes — including
        // dynamic errors (a random `Par` may legitimately double-write;
        // both programs must then fail identically).
        use bcl_core::sched::{SwOptions, SwRunner};
        let run = |d: &bcl_core::Design| -> Result<bcl_core::Store, String> {
            let mut store = bcl_core::Store::new(d);
            let fa = d.prim_id("fa").unwrap();
            if let bcl_core::prim::PrimState::Fifo { items, .. } = store.state_mut(fa) {
                items.push_back(Value::int(32, 7));
            }
            let mut r = SwRunner::with_store(d, store, SwOptions::default()).unwrap();
            r.run_until_quiescent(200).map_err(|e| e.to_string())?;
            Ok(r.store)
        };
        prop_assert_eq!(run(&d1), run(&d2), "printed:\n{}", printed);
    }
}
