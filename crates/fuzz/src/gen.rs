//! Random well-typed design specs, their expansion into BCL programs,
//! and an independent gold model of their behavior.
//!
//! Generation is two-level: a [`DesignSpec`] is a small, shrink-friendly
//! description of a streaming pipeline (stages with per-stage domains,
//! state, and transforms; an optional fork/join diamond; an optional
//! submodule wrapping), and [`build_program`] expands it into an actual
//! multi-module kernel program through the `bcl_core::builder` DSL.
//! Because the spec is well-typed by construction, every expansion must
//! survive typecheck → elaborate → validate → partition → execution;
//! anything else is a toolchain bug, not a generator bug.
//!
//! [`expected_outputs`] evaluates the same spec in plain Rust, mirroring
//! `bcl_core::value` arithmetic exactly (two's-complement wrap to the
//! declared width, sign extension, shift masking). It is an extra,
//! executor-independent oracle: the executors must not only agree
//! with each other but with it.

use bcl_core::builder::dsl::*;
use bcl_core::builder::ModuleBuilder;
use bcl_core::program::Program;
use bcl_core::types::Type;
use bcl_core::value::{BinOp, Value};
use bcl_core::Expr;
use bcl_platform::cosim::RecoveryPolicy;
use bcl_platform::link::{FaultConfig, PartitionFault};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// The domain palette: one software domain plus up to three hardware
/// partitions (mirrors `tests/partition_equivalence.rs`).
pub const DOMAINS: [&str; 4] = ["SW", "HW", "HW2", "HW3"];

/// One per-item transformation a pipeline stage applies. The constants
/// are kept below 128 so they are exactly representable at every
/// generated width (≥ 8 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// `y = x + c`.
    AddConst(u8),
    /// `y = x - c`.
    SubConst(u8),
    /// `y = x ^ c`.
    XorConst(u8),
    /// `y = x * c`.
    MulConst(u8),
    /// `y = x << s` (s kept below 8).
    ShiftLeft(u8),
    /// `y = x >> s` (arithmetic, like the runtime).
    ShiftRight(u8),
    /// `y = x < c ? x + 1 : x - 1` — exercises `Cond` and comparison.
    Ternary(u8),
    /// `y = [x, x + 1][x & 1]` — exercises `MkVec` and `Index`.
    VecSelect,
    /// `y = {a: x, b: x ^ c}.b` — exercises `MkStruct` and `Field`.
    StructField(u8),
    /// `let v = (x < c) ? {a: [x, x ^ c], b: x + 1} : {a: [x - 1, x], b: x}
    /// in v.a[x & 1] + v.b` — exercises `Cond` of aggregates, a let-bound
    /// struct holding a vector, and (at widths above 32) packed regions
    /// wider than one word.
    AggLet(u8),
    /// Stateful: a register accumulator cycling 0..limit, added to each
    /// item by a `work` rule; a guard-disjoint `flush` rule resets it.
    /// Exercises rule pairs with complementary guards.
    AccAdd(u8),
    /// Stateful: `y = x + rf[x & (size-1)]`, then `rf[x & (size-1)] = x`
    /// in the same atomic action. Exercises register files and
    /// pre-state reads inside `Par`.
    RegFileMix(u8),
}

/// One pipeline stage: where it runs and what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Index into [`DOMAINS`].
    pub domain: usize,
    /// The per-item transformation.
    pub transform: Transform,
}

/// A whole generated design: `src → stages… → (diamond?) → snk`, with
/// sources and sinks always pinned to software (so partition death
/// never loses test-bench data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpec {
    /// Scalar width of every value in the design (8, 16, 32, 63 or 64).
    pub width: u32,
    /// Channel/FIFO depth (1..=3).
    pub depth: usize,
    /// The linear pipeline stages (at least one).
    pub stages: Vec<StageSpec>,
    /// When present, a fork/join diamond (in `DOMAINS[d]`) follows the
    /// last stage: `x → (x, x+1) → a+b`.
    pub diamond: Option<usize>,
    /// When `Some(i)` and stage `i` is stateless, that stage's
    /// transform is emitted as a submodule value method and called
    /// through the instance — exercises multi-module elaboration and
    /// the pretty → parse round trip across modules.
    pub wrap_stage: Option<usize>,
    /// The input stream (kept short and non-negative).
    pub items: Vec<i64>,
}

/// A random fault schedule for the N-partition executor: seeded link
/// faults (absorbed by the reliable transport) plus an optional scripted
/// partition fault with the recovery policy that makes it survivable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Link fault PRNG seed.
    pub seed: u64,
    /// Drop rate in percent (0..=50).
    pub drop: u32,
    /// Corruption rate in percent (0..=50).
    pub corrupt: u32,
    /// Duplication rate in percent (0..=50).
    pub dup: u32,
    /// Reorder rate in percent (0..=50).
    pub reorder: u32,
    /// Route inter-accelerator channels over a direct fabric instead of
    /// the software hub.
    pub fabric: bool,
    /// Scripted partition fault, applied to the first (sorted) hardware
    /// domain the partitioning actually produces.
    pub partition: Option<PartitionPlan>,
}

/// A scripted partition fault plus the recovery policy to pair with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPlan {
    /// Wipe at `at`; recover by checkpoint restart (`restart` true) or
    /// failover to software.
    Reset {
        /// FPGA cycle of the wipe.
        at: u64,
        /// Restart-from-checkpoint when true, else failover.
        restart: bool,
        /// Checkpoint cadence in FPGA cycles.
        interval: u64,
    },
    /// Permanent death at `at`; only failover can recover (restart
    /// would retry against dead hardware until the budget exhausts).
    Die {
        /// FPGA cycle of death.
        at: u64,
        /// Checkpoint cadence in FPGA cycles.
        interval: u64,
    },
    /// Death at `die` followed by hardware revival at `revive`
    /// (failback); requires the failover policy.
    DieRevive {
        /// FPGA cycle of death.
        die: u64,
        /// FPGA cycle of revival (> `die`).
        revive: u64,
        /// Checkpoint cadence in FPGA cycles.
        interval: u64,
    },
}

impl Transform {
    /// True when the transform needs no per-stage state (and can thus
    /// be wrapped in a submodule value method).
    pub fn is_stateless(&self) -> bool {
        !matches!(self, Transform::AccAdd(_) | Transform::RegFileMix(_))
    }
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn quiet() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop: 0,
            corrupt: 0,
            dup: 0,
            reorder: 0,
            fabric: false,
            partition: None,
        }
    }

    /// True when the plan injects nothing (cycle-exact comparisons are
    /// only made for such plans).
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0
            && self.corrupt == 0
            && self.dup == 0
            && self.reorder == 0
            && self.partition.is_none()
    }

    /// The [`FaultConfig`] for the faulted hardware partition.
    pub fn fault_config(&self) -> FaultConfig {
        let mut fc = if self.drop + self.corrupt + self.dup + self.reorder == 0 {
            FaultConfig::none()
        } else {
            FaultConfig::uniform(
                self.seed,
                f64::from(self.drop) / 100.0,
                f64::from(self.corrupt) / 100.0,
                f64::from(self.dup) / 100.0,
                f64::from(self.reorder) / 100.0,
            )
        };
        match self.partition {
            None => {}
            Some(PartitionPlan::Reset { at, .. }) => {
                fc = fc.with_partition_fault(PartitionFault::ResetAt(at));
            }
            Some(PartitionPlan::Die { at, .. }) => {
                fc = fc.with_partition_fault(PartitionFault::DieAt(at));
            }
            Some(PartitionPlan::DieRevive { die, revive, .. }) => {
                fc = fc
                    .with_partition_fault(PartitionFault::DieAt(die))
                    .with_partition_fault(PartitionFault::ReviveAt(revive));
            }
        }
        fc
    }

    /// The link-fault-only config for the remaining partitions.
    pub fn link_only_config(&self) -> FaultConfig {
        FaultPlan {
            partition: None,
            ..self.clone()
        }
        .fault_config()
    }

    /// The recovery policy the scripted fault requires, if any.
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        match self.partition {
            None => None,
            Some(PartitionPlan::Reset {
                restart, interval, ..
            }) => Some(if restart {
                RecoveryPolicy::restart(interval)
            } else {
                RecoveryPolicy::failover(interval)
            }),
            Some(PartitionPlan::Die { interval, .. })
            | Some(PartitionPlan::DieRevive { interval, .. }) => {
                Some(RecoveryPolicy::failover(interval))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Spec → program
// ---------------------------------------------------------------------

fn xor(a: Expr, b: Expr) -> Expr {
    Expr::Bin(BinOp::Xor, Box::new(a), Box::new(b))
}

/// The expression form of a stateless transform over input `x`.
fn stateless_expr(t: Transform, w: u32, x: Expr) -> Expr {
    match t {
        Transform::AddConst(c) => add(x, cint(w, i64::from(c))),
        Transform::SubConst(c) => sub_e(x, cint(w, i64::from(c))),
        Transform::XorConst(c) => xor(x, cint(w, i64::from(c))),
        Transform::MulConst(c) => mul(x, cint(w, i64::from(c))),
        Transform::ShiftLeft(s) => shl(x, cint(w, i64::from(s % 8))),
        Transform::ShiftRight(s) => shr(x, cint(w, i64::from(s % 8))),
        Transform::Ternary(c) => cond(
            lt(x.clone(), cint(w, i64::from(c))),
            add(x.clone(), cint(w, 1)),
            sub_e(x, cint(w, 1)),
        ),
        Transform::VecSelect => index(
            mkvec(vec![x.clone(), add(x.clone(), cint(w, 1))]),
            and(x, cint(w, 1)),
        ),
        Transform::StructField(c) => field(
            mkstruct(vec![("a", x.clone()), ("b", xor(x, cint(w, i64::from(c))))]),
            "b",
        ),
        Transform::AggLet(c) => {
            let c = cint(w, i64::from(c));
            let one = || cint(w, 1);
            let arm =
                |a0: Expr, a1: Expr, b: Expr| mkstruct(vec![("a", mkvec(vec![a0, a1])), ("b", b)]);
            let_e(
                "v",
                cond(
                    lt(x.clone(), c.clone()),
                    arm(x.clone(), xor(x.clone(), c), add(x.clone(), one())),
                    arm(sub_e(x.clone(), one()), x.clone(), x.clone()),
                ),
                add(
                    index(field(var("v"), "a"), and(x, one())),
                    field(var("v"), "b"),
                ),
            )
        }
        Transform::AccAdd(_) | Transform::RegFileMix(_) => {
            unreachable!("stateful transforms have no pure expression form")
        }
    }
}

/// Expands a spec into a multi-module program rooted at `Gen`.
pub fn build_program(spec: &DesignSpec) -> Program {
    let w = spec.width;
    let ty = Type::Int(w);
    let mut m = ModuleBuilder::new("Gen");
    let mut helpers: Vec<bcl_core::ModuleDef> = Vec::new();

    m.source("src", ty.clone(), DOMAINS[0]);
    m.sink("snk", ty.clone(), DOMAINS[0]);

    // Channels c0..=cN: c_i feeds stage i; the last feeds the diamond
    // (when present) or the drain rule.
    let n = spec.stages.len();
    let mut chan_from = vec![0usize]; // domain index of each channel's producer
    for s in &spec.stages {
        chan_from.push(s.domain);
    }
    let tail_domain = *chan_from.last().expect("non-empty");
    for (i, _) in chan_from.iter().enumerate() {
        let from = if i == 0 { 0 } else { spec.stages[i - 1].domain };
        let to = if i < n {
            spec.stages[i].domain
        } else {
            spec.diamond.unwrap_or_default()
        };
        m.channel(
            format!("c{i}"),
            spec.depth,
            ty.clone(),
            DOMAINS[from],
            DOMAINS[to],
        );
    }

    m.rule("feed", with_first("x", "src", enq("c0", var("x"))));

    for (i, s) in spec.stages.iter().enumerate() {
        let cin = format!("c{i}");
        let cout = format!("c{}", i + 1);
        match s.transform {
            Transform::AccAdd(limit) => {
                let acc = format!("acc{i}");
                let lim = i64::from(limit.clamp(1, 4));
                m.reg(&acc, Value::int(w, 0));
                m.rule(
                    format!("s{i}_work"),
                    when_a(
                        lt(read(&acc), cint(w, lim)),
                        let_a(
                            "x",
                            first(&cin),
                            let_a(
                                "y",
                                add(var("x"), read(&acc)),
                                par(vec![
                                    enq(&cout, var("y")),
                                    deq(&cin),
                                    write(&acc, add(read(&acc), cint(w, 1))),
                                ]),
                            ),
                        ),
                    ),
                );
                m.rule(
                    format!("s{i}_flush"),
                    when_a(ge(read(&acc), cint(w, lim)), write(&acc, cint(w, 0))),
                );
            }
            Transform::RegFileMix(size) => {
                let rf = format!("rf{i}");
                let size = if size < 6 { 4usize } else { 8usize };
                m.regfile(&rf, size, ty.clone(), vec![]);
                m.rule(
                    format!("s{i}"),
                    let_a(
                        "x",
                        first(&cin),
                        let_a(
                            "i",
                            and(var("x"), cint(w, size as i64 - 1)),
                            let_a(
                                "y",
                                add(var("x"), sub(&rf, var("i"))),
                                par(vec![
                                    enq(&cout, var("y")),
                                    deq(&cin),
                                    upd(&rf, var("i"), var("x")),
                                ]),
                            ),
                        ),
                    ),
                );
            }
            t => {
                let out = if spec.wrap_stage == Some(i) {
                    let helper_name = format!("Helper{i}");
                    let mut h = ModuleBuilder::new(&helper_name);
                    h.val_method("f", &["x"], stateless_expr(t, w, var("x")));
                    helpers.push(h.build());
                    m.submodule(format!("h{i}"), helper_name, vec![]);
                    call_val(&format!("h{i}"), "f", vec![var("x")])
                } else {
                    stateless_expr(t, w, var("x"))
                };
                m.rule(format!("s{i}"), with_first("x", &cin, enq(&cout, out)));
            }
        }
    }

    let last = format!("c{n}");
    if let Some(d) = spec.diamond {
        let _ = tail_domain;
        // Fork and join both live in DOMAINS[d]; the arms are plain
        // same-domain FIFOs. The fork is atomic (both enqueues in one
        // action) and the join blocks on both arms, so the merged
        // stream is deterministic under any scheduler.
        m.fifo("da", spec.depth, ty.clone());
        m.fifo("db", spec.depth, ty.clone());
        m.channel("dj", spec.depth, ty.clone(), DOMAINS[d], DOMAINS[0]);
        m.rule(
            "fork",
            let_a(
                "x",
                first(&last),
                par(vec![
                    enq("da", var("x")),
                    enq("db", add(var("x"), cint(w, 1))),
                    deq(&last),
                ]),
            ),
        );
        m.rule(
            "join",
            let_a(
                "a",
                first("da"),
                let_a(
                    "b",
                    first("db"),
                    par(vec![
                        enq("dj", add(var("a"), var("b"))),
                        deq("da"),
                        deq("db"),
                    ]),
                ),
            ),
        );
        m.rule("drain", with_first("y", "dj", enq("snk", var("y"))));
    } else {
        m.rule("drain", with_first("y", &last, enq("snk", var("y"))));
    }

    let mut p = Program::with_root(m.build());
    p.modules.extend(helpers);
    p
}

// ---------------------------------------------------------------------
// Gold model
// ---------------------------------------------------------------------

/// Mirrors `Value::int`: truncate to `w` bits, then sign-extend.
pub fn norm(w: u32, v: i64) -> i64 {
    if w >= 64 {
        return v;
    }
    let m = (1u64 << w) - 1;
    let bits = (v as u64) & m;
    let shift = 64 - w;
    ((bits << shift) as i64) >> shift
}

fn apply_stateless(t: Transform, w: u32, x: i64) -> i64 {
    match t {
        Transform::AddConst(c) => norm(w, x.wrapping_add(i64::from(c))),
        Transform::SubConst(c) => norm(w, x.wrapping_sub(i64::from(c))),
        Transform::XorConst(c) => norm(w, x ^ i64::from(c)),
        Transform::MulConst(c) => norm(w, x.wrapping_mul(i64::from(c))),
        Transform::ShiftLeft(s) => norm(w, x.wrapping_shl(u32::from(s % 8) & 63)),
        Transform::ShiftRight(s) => norm(w, x.wrapping_shr(u32::from(s % 8) & 63)),
        Transform::Ternary(c) => {
            if x < norm(w, i64::from(c)) {
                norm(w, x.wrapping_add(1))
            } else {
                norm(w, x.wrapping_sub(1))
            }
        }
        Transform::VecSelect => {
            if x & 1 == 0 {
                x
            } else {
                norm(w, x.wrapping_add(1))
            }
        }
        Transform::StructField(c) => norm(w, x ^ i64::from(c)),
        Transform::AggLet(c) => {
            let c = norm(w, i64::from(c));
            let (a, b) = if x < c {
                ([x, norm(w, x ^ c)], norm(w, x.wrapping_add(1)))
            } else {
                ([norm(w, x.wrapping_sub(1)), x], x)
            };
            norm(w, a[(x & 1) as usize].wrapping_add(b))
        }
        Transform::AccAdd(_) | Transform::RegFileMix(_) => unreachable!("stateful"),
    }
}

/// Evaluates the spec in plain Rust: the executor-independent oracle.
pub fn expected_outputs(spec: &DesignSpec) -> Vec<i64> {
    let w = spec.width;
    let mut stream: Vec<i64> = spec.items.iter().map(|&v| norm(w, v)).collect();
    for s in &spec.stages {
        match s.transform {
            Transform::AccAdd(limit) => {
                let lim = i64::from(limit.clamp(1, 4));
                let mut acc: i64 = 0;
                stream = stream
                    .iter()
                    .map(|&x| {
                        if acc >= lim {
                            acc = 0;
                        }
                        let y = norm(w, x.wrapping_add(acc));
                        acc = norm(w, acc + 1);
                        y
                    })
                    .collect();
            }
            Transform::RegFileMix(size) => {
                let size = if size < 6 { 4i64 } else { 8i64 };
                let mut cells = vec![0i64; size as usize];
                stream = stream
                    .iter()
                    .map(|&x| {
                        let i = (x & (size - 1)) as usize;
                        let y = norm(w, x.wrapping_add(cells[i]));
                        cells[i] = x;
                        y
                    })
                    .collect();
            }
            t => {
                stream = stream.iter().map(|&x| apply_stateless(t, w, x)).collect();
            }
        }
    }
    if spec.diamond.is_some() {
        stream = stream
            .iter()
            .map(|&x| {
                let a = x;
                let b = norm(w, x.wrapping_add(1));
                norm(w, a.wrapping_add(b))
            })
            .collect();
    }
    stream
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_transform() -> BoxedStrategy<Transform> {
    prop_oneof![
        (0u8..128).prop_map(Transform::AddConst),
        (0u8..128).prop_map(Transform::SubConst),
        (0u8..128).prop_map(Transform::XorConst),
        (0u8..16).prop_map(Transform::MulConst),
        (0u8..8).prop_map(Transform::ShiftLeft),
        (0u8..8).prop_map(Transform::ShiftRight),
        (0u8..128).prop_map(Transform::Ternary),
        Just(Transform::VecSelect),
        (0u8..128).prop_map(Transform::StructField),
        (0u8..128).prop_map(Transform::AggLet),
        (1u8..5).prop_map(Transform::AccAdd),
        (0u8..12).prop_map(Transform::RegFileMix),
    ]
    .boxed()
}

fn arb_stage() -> impl Strategy<Value = StageSpec> {
    (0usize..DOMAINS.len(), arb_transform())
        .prop_map(|(domain, transform)| StageSpec { domain, transform })
}

/// Strategy over whole design specs.
pub fn arb_design() -> BoxedStrategy<DesignSpec> {
    (
        0u32..5,                                     // width selector
        1usize..4,                                   // depth
        pvec(arb_stage(), 1..5),                     // stages
        proptest::option::of(0usize..DOMAINS.len()), // diamond
        proptest::option::of(0usize..4),             // wrap candidate
        pvec(0i64..128, 1..11),                      // items
    )
        .prop_map(|(wsel, depth, stages, diamond, wrap, items)| {
            let width = [8u32, 16, 32, 63, 64][wsel as usize];
            // Only wrap a stage that exists and is stateless.
            let wrap_stage = wrap.filter(|&i| {
                stages
                    .get(i)
                    .is_some_and(|s: &StageSpec| s.transform.is_stateless())
            });
            DesignSpec {
                width,
                depth,
                stages,
                diamond,
                wrap_stage,
                items,
            }
        })
        .boxed()
}

/// Strategy over fault plans (paired with an arbitrary design by the
/// harness; plans against all-software designs degrade gracefully —
/// there is no hardware partition to fault).
pub fn arb_faults() -> BoxedStrategy<FaultPlan> {
    let link = (
        proptest::any::<u64>(),
        0u32..=50,
        0u32..=50,
        0u32..=50,
        0u32..=50,
    );
    let partition = proptest::option::of(prop_oneof![
        (5u64..300, proptest::any::<bool>(), 20u64..200).prop_map(|(at, restart, interval)| {
            PartitionPlan::Reset {
                at,
                restart,
                interval,
            }
        }),
        (5u64..300, 20u64..200).prop_map(|(at, interval)| PartitionPlan::Die { at, interval }),
        (5u64..300, 1u64..1200, 20u64..200).prop_map(|(die, dr, interval)| {
            PartitionPlan::DieRevive {
                die,
                revive: die + dr,
                interval,
            }
        }),
    ]);
    (link, proptest::any::<bool>(), partition)
        .prop_map(
            |((seed, drop, corrupt, dup, reorder), fabric, partition)| FaultPlan {
                seed,
                drop,
                corrupt,
                dup,
                reorder,
                fabric,
                partition,
            },
        )
        .boxed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> DesignSpec {
        DesignSpec {
            width: 8,
            depth: 2,
            stages: vec![
                StageSpec {
                    domain: 1,
                    transform: Transform::AddConst(3),
                },
                StageSpec {
                    domain: 0,
                    transform: Transform::AccAdd(2),
                },
            ],
            diamond: Some(2),
            wrap_stage: Some(0),
            items: vec![0, 1, 2, 127],
        }
    }

    #[test]
    fn gold_model_matches_hand_computation() {
        // items +3, then +acc (acc = i mod 2), then diamond x+(x+1).
        let spec = sample_spec();
        let after_add = [3i64, 4, 5, norm(8, 130)];
        let after_acc = [3i64, 5, 5, norm(8, norm(8, 130) + 1)];
        let expect: Vec<i64> = after_acc
            .iter()
            .map(|&x| norm(8, x + norm(8, x + 1)))
            .collect();
        let _ = after_add;
        assert_eq!(expected_outputs(&spec), expect);
    }

    #[test]
    fn norm_mirrors_value_int() {
        for w in [8u32, 16, 32, 63, 64] {
            for v in [-300i64, -1, 0, 1, 127, 128, 255, 65535, 1 << 40] {
                let got = norm(w, v);
                let want = Value::int(w, v).as_int().unwrap();
                assert_eq!(got, want, "norm({w}, {v})");
            }
        }
    }

    /// Every stateless transform's expression, run on the interpreter,
    /// equals its gold-model arm at every generated width, including the
    /// wrap-around edges of 63 and 64 bits.
    #[test]
    fn stateless_exprs_match_gold_model_at_every_width() {
        use bcl_core::exec::{eval, Env};
        use bcl_core::store::{ShadowPolicy, Store, Txn, TxnLog};
        let transforms = [
            Transform::AddConst(127),
            Transform::SubConst(5),
            Transform::XorConst(99),
            Transform::MulConst(15),
            Transform::ShiftLeft(7),
            Transform::ShiftRight(3),
            Transform::Ternary(64),
            Transform::VecSelect,
            Transform::StructField(33),
            Transform::AggLet(0),
            Transform::AggLet(64),
            Transform::AggLet(127),
        ];
        let design = bcl_core::design::Design::default();
        let mut store = Store::new(&design);
        for w in [8u32, 16, 32, 63, 64] {
            for v in [0i64, 1, 63, 64, 127, -1, -128, i64::MAX, i64::MIN, 1 << 62] {
                let x = norm(w, v);
                for t in transforms {
                    let mut log = TxnLog::new();
                    let mut txn = Txn::new(&mut store, &mut log, ShadowPolicy::Partial);
                    let mut env = Env::new();
                    env.push("x", Value::int(w, x));
                    let got = eval(&mut txn, &mut env, &stateless_expr(t, w, var("x")))
                        .and_then(|v| v.as_int())
                        .unwrap();
                    assert_eq!(got, apply_stateless(t, w, x), "{t:?} at width {w} on {x}");
                }
            }
        }
    }

    #[test]
    fn built_program_typechecks_and_validates() {
        let spec = sample_spec();
        let p = build_program(&spec);
        bcl_frontend::typecheck::typecheck(&p).unwrap();
        let d = bcl_core::elaborate(&p).unwrap();
        bcl_core::analysis::validate(&d).unwrap();
    }
}
