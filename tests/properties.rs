//! Property-based tests over the core invariants:
//!
//! * marshaling is a bijection (any value survives the wire format);
//! * guard lifting + sequentialization + in-place execution are
//!   semantics-preserving for arbitrary rules (the §6.3 soundness claim);
//! * hardware and software schedules produce the same streams on
//!   arbitrary elastic pipelines (one-rule-at-a-time semantics).

use bcl_core::ast::{Action, Expr, Path, PrimId, PrimMethod, RuleDef, Target};
use bcl_core::design::{Design, PrimDef};
use bcl_core::exec::{eval_guard_ro, run_rule, run_rule_inplace, RuleOutcome};
use bcl_core::prim::{PrimSpec, PrimState};
use bcl_core::store::{Cost, ShadowPolicy, Store};
use bcl_core::types::Type;
use bcl_core::value::{BinOp, Value};
use bcl_core::xform::{compile_rule, CompileOpts, ExecMode};
use proptest::prelude::*;

// ---- marshaling ---------------------------------------------------------

fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Bool),
        (1u32..=64).prop_map(Type::Bits),
        (1u32..=64).prop_map(Type::Int),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (1usize..4, inner.clone()).prop_map(|(n, t)| Type::vector(n, t)),
            proptest::collection::vec(inner, 1..4).prop_map(|ts| {
                Type::Struct(
                    ts.into_iter()
                        .enumerate()
                        .map(|(i, t)| (format!("f{i}"), t))
                        .collect(),
                )
            }),
        ]
    })
}

fn arb_value_of(ty: &Type) -> BoxedStrategy<Value> {
    match ty.clone() {
        Type::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        Type::Bits(w) => any::<u64>().prop_map(move |b| Value::bits(w, b)).boxed(),
        Type::Int(w) => any::<i64>().prop_map(move |v| Value::int(w, v)).boxed(),
        Type::Vector(n, t) => proptest::collection::vec(arb_value_of(&t), n)
            .prop_map(Value::Vec)
            .boxed(),
        Type::Struct(fs) => {
            let strategies: Vec<BoxedStrategy<Value>> =
                fs.iter().map(|(_, t)| arb_value_of(t)).collect();
            let names: Vec<String> = fs.iter().map(|(n, _)| n.clone()).collect();
            strategies
                .prop_map(move |vs| Value::Struct(names.iter().cloned().zip(vs).collect()))
                .boxed()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn marshaling_roundtrips_values(
        (ty, v) in arb_type().prop_flat_map(|t| {
            let vs = arb_value_of(&t);
            (Just(t), vs)
        })
    ) {
        let words = v.to_words();
        prop_assert_eq!(words.len(), ty.words());
        let back = Value::from_words(&ty, &words).unwrap();
        prop_assert_eq!(back, v);
    }
}

// ---- random rules: plan equivalence --------------------------------------

const REG_A: PrimId = PrimId(0);
const REG_B: PrimId = PrimId(1);
const FIFO_P: PrimId = PrimId(2);
const FIFO_Q: PrimId = PrimId(3);

fn rule_design() -> Design {
    Design {
        name: "prop".into(),
        prims: vec![
            PrimDef {
                path: Path::new("a"),
                spec: PrimSpec::Reg {
                    init: Value::int(32, 0),
                },
            },
            PrimDef {
                path: Path::new("b"),
                spec: PrimSpec::Reg {
                    init: Value::int(32, 1),
                },
            },
            PrimDef {
                path: Path::new("p"),
                spec: PrimSpec::Fifo {
                    depth: 2,
                    ty: Type::Int(32),
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

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-8i64..8).prop_map(|v| Expr::Const(Value::int(32, v))),
        Just(Expr::Call(Target::Prim(REG_A, PrimMethod::RegRead), vec![])),
        Just(Expr::Call(Target::Prim(REG_B, PrimMethod::RegRead), vec![])),
        Just(Expr::Call(Target::Prim(FIFO_P, PrimMethod::First), vec![])),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Sub,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| Expr::Cond(
                Box::new(Expr::Bin(
                    BinOp::Lt,
                    Box::new(c),
                    Box::new(Expr::int(32, 3))
                )),
                Box::new(t),
                Box::new(f)
            )),
        ]
    })
}

fn arb_guard() -> impl Strategy<Value = Expr> {
    arb_expr().prop_map(|e| Expr::Bin(BinOp::Ge, Box::new(e), Box::new(Expr::int(32, 0))))
}

fn arb_action() -> impl Strategy<Value = Action> {
    let leaf = prop_oneof![
        Just(Action::NoAction),
        arb_expr()
            .prop_map(|e| Action::Write(Target::Prim(REG_A, PrimMethod::RegWrite), Box::new(e))),
        arb_expr()
            .prop_map(|e| Action::Write(Target::Prim(REG_B, PrimMethod::RegWrite), Box::new(e))),
        arb_expr().prop_map(|e| Action::Call(Target::Prim(FIFO_Q, PrimMethod::Enq), vec![e])),
        Just(Action::Call(Target::Prim(FIFO_P, PrimMethod::Deq), vec![])),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Action::Seq(Box::new(a), Box::new(b))),
            (arb_guard(), inner.clone()).prop_map(|(g, a)| Action::When(Box::new(g), Box::new(a))),
            (arb_guard(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Action::If(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            inner.clone().prop_map(|a| Action::LocalGuard(Box::new(a))),
            // Parallel composition of halves writing disjoint registers
            // (arbitrary Par can legitimately DOUBLE WRITE; that error is
            // tested deterministically elsewhere).
            (arb_expr(), arb_expr()).prop_map(|(x, y)| Action::Par(
                Box::new(Action::Write(
                    Target::Prim(REG_A, PrimMethod::RegWrite),
                    Box::new(x)
                )),
                Box::new(Action::Write(
                    Target::Prim(REG_B, PrimMethod::RegWrite),
                    Box::new(y)
                )),
            )),
        ]
    })
}

fn store_with(p_items: Vec<i64>, q_items: Vec<i64>, a: i64, b: i64) -> Store {
    let d = rule_design();
    let mut s = Store::new(&d);
    s.state_mut(REG_A)
        .call_action(PrimMethod::RegWrite, &[Value::int(32, a)])
        .unwrap();
    s.state_mut(REG_B)
        .call_action(PrimMethod::RegWrite, &[Value::int(32, b)])
        .unwrap();
    for v in p_items {
        if let PrimState::Fifo { items, .. } = s.state_mut(FIFO_P) {
            items.push_back(Value::int(32, v));
        }
    }
    for v in q_items {
        if let PrimState::Fifo { items, .. } = s.state_mut(FIFO_Q) {
            items.push_back(Value::int(32, v));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The §6.3 soundness property: executing the compiled plan (lifted
    /// guard + possibly in-place body) leaves exactly the same state as
    /// executing the original rule transactionally, for random rules and
    /// random starting states.
    #[test]
    fn compiled_plan_is_equivalent(
        body in arb_action(),
        p_items in proptest::collection::vec(-8i64..8, 0..3),
        q_items in proptest::collection::vec(-8i64..8, 0..3),
        a in -8i64..8,
        b in -8i64..8,
    ) {
        let rule = RuleDef { name: "r".into(), body };
        let mut s_ref = store_with(p_items.clone(), q_items.clone(), a, b);
        let mut s_plan = s_ref.clone();

        let reference = run_rule(&mut s_ref, &rule.body, ShadowPolicy::Partial);
        let plan = compile_rule(&rule, CompileOpts::default());

        let mut cost = Cost::default();
        let guard_ok = match &plan.guard {
            Some(g) => eval_guard_ro(&mut s_plan, g, &mut cost).unwrap(),
            None => true,
        };
        let plan_fired = if !guard_ok {
            Ok(false)
        } else {
            match plan.mode {
                ExecMode::InPlace => run_rule_inplace(&mut s_plan, &plan.body).map(|_| true),
                ExecMode::Transactional => run_rule(&mut s_plan, &plan.body, ShadowPolicy::Partial)
                    .map(|(o, _)| o == RuleOutcome::Fired),
            }
        };

        match (reference, plan_fired) {
            (Ok((out, _)), Ok(fired)) => {
                prop_assert_eq!(out == RuleOutcome::Fired, fired, "firing disagrees");
                prop_assert_eq!(s_ref, s_plan, "state disagrees");
            }
            (Err(_), _) => {
                // Dynamic errors (e.g. double write) must also occur on
                // the plan path *or* the plan must refuse via its guard.
                // Either way states may differ; nothing more to check.
            }
            (Ok(_), Err(e)) => {
                return Err(TestCaseError::fail(format!("plan failed where reference succeeded: {e}")));
            }
        }
    }

    /// Hardware and software schedules drain an arbitrary elastic
    /// pipeline to the same output stream.
    #[test]
    fn hw_and_sw_agree_on_pipelines(
        inputs in proptest::collection::vec(-100i64..100, 1..20),
        scales in proptest::collection::vec(1i64..5, 1..4),
        depth in 1usize..4,
    ) {
        use bcl_core::builder::{dsl::*, ModuleBuilder};
        use bcl_core::program::Program;
        use bcl_core::sched::{HwSim, Strategy, SwOptions, SwRunner};

        let mut m = ModuleBuilder::new("Pipe");
        m.source("src", Type::Int(32), "SW");
        m.sink("snk", Type::Int(32), "SW");
        let n = scales.len();
        for i in 0..n.saturating_sub(1) {
            m.fifo(format!("q{i}"), depth, Type::Int(32));
        }
        for (i, &k) in scales.iter().enumerate() {
            let from = if i == 0 { "src".to_string() } else { format!("q{}", i - 1) };
            let to = if i + 1 == n { "snk".to_string() } else { format!("q{i}") };
            m.rule(
                format!("s{i}"),
                with_first("x", &from, enq(&to, mul(var("x"), cint(32, k)))),
            );
        }
        let d = bcl_core::elaborate(&Program::with_root(m.build())).unwrap();

        let mut hw_store = Store::new(&d);
        let mut sw_store = Store::new(&d);
        let src = d.prim_id("src").unwrap();
        for &v in &inputs {
            hw_store.push_source(src, Value::int(32, v));
            sw_store.push_source(src, Value::int(32, v));
        }
        let mut hw = HwSim::with_store(&d, hw_store).unwrap();
        hw.run_until_quiescent(100_000).unwrap();
        let mut sw = SwRunner::with_store(
            &d,
            sw_store,
            SwOptions { strategy: Strategy::Dataflow, ..Default::default() },
        ).unwrap();
        sw.run_until_quiescent(1_000_000).unwrap();

        let snk = d.prim_id("snk").unwrap();
        prop_assert_eq!(hw.store.sink_values(snk), sw.store.sink_values(snk));
        prop_assert_eq!(hw.store.sink_values(snk).len(), inputs.len());
    }
}
