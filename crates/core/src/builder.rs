//! An embedded DSL for constructing BCL programs from Rust.
//!
//! The paper's BCL inherits BSV's Haskell-style meta-programming: loops in
//! the source are unrolled at elaboration into rules and expressions. In
//! this reproduction, Rust *is* the meta-language — the combinators here
//! play the role of BSV's static elaboration-time constructs, and the
//! [`crate::elab`] pass handles module instantiation and method inlining.
//!
//! ```
//! use bcl_core::builder::{dsl::*, ModuleBuilder};
//! use bcl_core::program::Program;
//! use bcl_core::types::Type;
//!
//! let mut m = ModuleBuilder::new("Counter");
//! m.reg("count", bcl_core::value::Value::int(32, 0));
//! m.rule("tick", write("count", add(read("count"), cint(32, 1))));
//! let program = Program::with_root(m.build());
//! let design = bcl_core::elab::elaborate(&program).unwrap();
//! assert_eq!(design.rules.len(), 1);
//! ```

use crate::ast::{ActMethodDef, Action, Expr, RuleDef, ValMethodDef};
use crate::prim::PrimSpec;
use crate::program::{InstDef, InstKind, ModuleDef};
use crate::types::Type;
use crate::value::Value;

/// Incremental builder for a [`ModuleDef`].
#[derive(Debug)]
pub struct ModuleBuilder {
    def: ModuleDef,
}

impl ModuleBuilder {
    /// Starts a module definition.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            def: ModuleDef::new(name),
        }
    }

    /// Declares a constructor parameter.
    pub fn param(&mut self, name: impl Into<String>) -> &mut Self {
        self.def.params.push(name.into());
        self
    }

    /// Instantiates a register with an initial value.
    pub fn reg(&mut self, name: impl Into<String>, init: Value) -> &mut Self {
        self.inst(name, InstKind::Prim(PrimSpec::Reg { init }))
    }

    /// Instantiates a FIFO.
    pub fn fifo(&mut self, name: impl Into<String>, depth: usize, ty: Type) -> &mut Self {
        self.inst(name, InstKind::Prim(PrimSpec::Fifo { depth, ty }))
    }

    /// Instantiates a register file with initial contents.
    pub fn regfile(
        &mut self,
        name: impl Into<String>,
        size: usize,
        ty: Type,
        init: Vec<Value>,
    ) -> &mut Self {
        self.inst(name, InstKind::Prim(PrimSpec::RegFile { size, ty, init }))
    }

    /// Instantiates a synchronizer from one domain to another.
    pub fn sync(
        &mut self,
        name: impl Into<String>,
        depth: usize,
        ty: Type,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> &mut Self {
        self.inst(
            name,
            InstKind::Prim(PrimSpec::Sync {
                depth,
                ty,
                from: from.into(),
                to: to.into(),
            }),
        )
    }

    /// Domain-polymorphic channel (§4.2 "Domain Polymorphism"): when `from`
    /// and `to` differ this is a synchronizer; when they coincide the
    /// compiler replaces it with a lightweight FIFO, exactly as the paper
    /// describes for `Sync#(t, a, a)`.
    pub fn channel(
        &mut self,
        name: impl Into<String>,
        depth: usize,
        ty: Type,
        from: &str,
        to: &str,
    ) -> &mut Self {
        if from == to {
            self.fifo(name, depth, ty)
        } else {
            self.sync(name, depth, ty, from, to)
        }
    }

    /// Instantiates a test-bench input port pinned to a domain.
    pub fn source(&mut self, name: impl Into<String>, ty: Type, domain: &str) -> &mut Self {
        self.inst(
            name,
            InstKind::Prim(PrimSpec::Source {
                ty,
                domain: domain.into(),
            }),
        )
    }

    /// Instantiates an output port pinned to a domain.
    pub fn sink(&mut self, name: impl Into<String>, ty: Type, domain: &str) -> &mut Self {
        self.inst(
            name,
            InstKind::Prim(PrimSpec::Sink {
                ty,
                domain: domain.into(),
            }),
        )
    }

    /// Instantiates a user-defined submodule.
    pub fn submodule(
        &mut self,
        name: impl Into<String>,
        def: impl Into<String>,
        args: Vec<Value>,
    ) -> &mut Self {
        self.inst(
            name,
            InstKind::Module {
                def: def.into(),
                args,
            },
        )
    }

    fn inst(&mut self, name: impl Into<String>, kind: InstKind) -> &mut Self {
        self.def.insts.push(InstDef {
            name: name.into(),
            kind,
        });
        self
    }

    /// Adds a rule.
    pub fn rule(&mut self, name: impl Into<String>, body: Action) -> &mut Self {
        self.def.rules.push(RuleDef {
            name: name.into(),
            body,
        });
        self
    }

    /// Adds an action method.
    pub fn act_method(
        &mut self,
        name: impl Into<String>,
        args: &[&str],
        body: Action,
    ) -> &mut Self {
        self.def.act_methods.push(ActMethodDef {
            name: name.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
            body,
        });
        self
    }

    /// Adds a value method.
    pub fn val_method(&mut self, name: impl Into<String>, args: &[&str], body: Expr) -> &mut Self {
        self.def.val_methods.push(ValMethodDef {
            name: name.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
            body,
        });
        self
    }

    /// Finishes the module definition, handing it over without a copy.
    pub fn build(self) -> ModuleDef {
        self.def
    }

    /// Finishes the module definition, rejecting duplicate instance,
    /// rule, or method names with a typed error instead of letting the
    /// ambiguity surface later (elaboration resolves names by lookup,
    /// so a duplicate silently shadows its twin).
    ///
    /// # Errors
    ///
    /// [`crate::error::ElabError`] naming the first duplicate found.
    pub fn try_build(self) -> Result<ModuleDef, crate::error::ElabError> {
        let dup = |what: &str, names: &mut std::collections::BTreeSet<String>, n: &str| {
            if names.insert(n.to_string()) {
                Ok(())
            } else {
                Err(crate::error::ElabError::new(format!(
                    "module `{}`: duplicate {what} name `{n}`",
                    self.def.name
                )))
            }
        };
        let mut insts = std::collections::BTreeSet::new();
        for i in &self.def.insts {
            dup("instance", &mut insts, &i.name)?;
        }
        let mut rules = std::collections::BTreeSet::new();
        for r in &self.def.rules {
            dup("rule", &mut rules, &r.name)?;
        }
        // Action and value methods share the call namespace: a call site
        // `x.m(...)` cannot tell which one it resolves to.
        let mut methods = std::collections::BTreeSet::new();
        for m in &self.def.act_methods {
            dup("method", &mut methods, &m.name)?;
        }
        for m in &self.def.val_methods {
            dup("method", &mut methods, &m.name)?;
        }
        Ok(self.def)
    }
}

/// Free-function combinators for expressions and actions. Designed to be
/// glob-imported: `use bcl_core::builder::dsl::*;`.
pub mod dsl {
    use super::*;
    use crate::ast::Target;
    use crate::value::{BinOp, UnOp};

    // ---- expressions -------------------------------------------------

    /// Variable reference.
    pub fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }
    /// Signed integer constant.
    pub fn cint(width: u32, v: i64) -> Expr {
        Expr::Const(Value::int(width, v))
    }
    /// Boolean constant.
    pub fn cbool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }
    /// 32-bit fixed-point constant with `frac` fractional bits.
    pub fn cfix(x: f64, frac: u32) -> Expr {
        Expr::Const(Value::fix_from_f64(x, frac))
    }
    /// Arbitrary constant.
    pub fn cval(v: Value) -> Expr {
        Expr::Const(v)
    }
    /// Register read: `read("m.r")` is `m.r._read()`.
    pub fn read(path: &str) -> Expr {
        Expr::Call(Target::Named(path.into(), "_read".into()), vec![])
    }
    /// FIFO head.
    pub fn first(path: &str) -> Expr {
        Expr::Call(Target::Named(path.into(), "first".into()), vec![])
    }
    /// FIFO non-empty probe.
    pub fn not_empty(path: &str) -> Expr {
        Expr::Call(Target::Named(path.into(), "notEmpty".into()), vec![])
    }
    /// FIFO non-full probe.
    pub fn not_full(path: &str) -> Expr {
        Expr::Call(Target::Named(path.into(), "notFull".into()), vec![])
    }
    /// Register-file read.
    pub fn sub(path: &str, idx: Expr) -> Expr {
        Expr::Call(Target::Named(path.into(), "sub".into()), vec![idx])
    }
    /// Value-method call on a submodule.
    pub fn call_val(path: &str, method: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(Target::Named(path.into(), method.into()), args)
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Add, a, b)
    }
    /// `a - b`.
    pub fn sub_e(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Sub, a, b)
    }
    /// `a * b` (integer).
    pub fn mul(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Mul, a, b)
    }
    /// Fixed-point multiply with `frac` fractional bits.
    pub fn fixmul(a: Expr, b: Expr, frac: u32) -> Expr {
        bin(BinOp::FixMul(frac), a, b)
    }
    /// Fixed-point divide with `frac` fractional bits.
    pub fn fixdiv(a: Expr, b: Expr, frac: u32) -> Expr {
        bin(BinOp::FixDiv(frac), a, b)
    }
    /// `a >> b`.
    pub fn shr(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Shr, a, b)
    }
    /// `a << b`.
    pub fn shl(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Shl, a, b)
    }
    /// Bitwise/logical and.
    pub fn and(a: Expr, b: Expr) -> Expr {
        bin(BinOp::And, a, b)
    }
    /// Bitwise/logical or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Or, a, b)
    }
    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Eq, a, b)
    }
    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Ne, a, b)
    }
    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Lt, a, b)
    }
    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Le, a, b)
    }
    /// `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Gt, a, b)
    }
    /// `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Ge, a, b)
    }
    /// `min(a, b)`.
    pub fn min_e(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Min, a, b)
    }
    /// `max(a, b)`.
    pub fn max_e(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Max, a, b)
    }
    /// Boolean negation.
    pub fn not(a: Expr) -> Expr {
        Expr::Un(UnOp::Not, Box::new(a))
    }
    /// Arithmetic negation.
    pub fn neg(a: Expr) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(a))
    }
    /// `c ? t : f`.
    pub fn cond(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::Cond(Box::new(c), Box::new(t), Box::new(f))
    }
    /// Guarded expression `v when g`.
    pub fn when_e(v: Expr, g: Expr) -> Expr {
        Expr::When(Box::new(v), Box::new(g))
    }
    /// Let expression.
    pub fn let_e(n: &str, v: Expr, body: Expr) -> Expr {
        Expr::Let(n.into(), Box::new(v), Box::new(body))
    }
    /// Vector element.
    pub fn index(v: Expr, i: Expr) -> Expr {
        Expr::Index(Box::new(v), Box::new(i))
    }
    /// Struct field.
    pub fn field(v: Expr, f: &str) -> Expr {
        Expr::Field(Box::new(v), f.into())
    }
    /// Vector literal.
    pub fn mkvec(es: Vec<Expr>) -> Expr {
        Expr::MkVec(es)
    }
    /// Struct literal.
    pub fn mkstruct(fs: Vec<(&str, Expr)>) -> Expr {
        Expr::MkStruct(fs.into_iter().map(|(n, e)| (n.to_string(), e)).collect())
    }
    /// Complex literal `{re, im}`.
    pub fn cplx(re: Expr, im: Expr) -> Expr {
        mkstruct(vec![("re", re), ("im", im)])
    }
    /// Functional vector update.
    pub fn upd_index(v: Expr, i: Expr, x: Expr) -> Expr {
        Expr::UpdateIndex(Box::new(v), Box::new(i), Box::new(x))
    }
    /// Functional struct update.
    pub fn upd_field(v: Expr, f: &str, x: Expr) -> Expr {
        Expr::UpdateField(Box::new(v), f.into(), Box::new(x))
    }

    // ---- actions -----------------------------------------------------

    /// Register write `path := e`.
    pub fn write(path: &str, e: Expr) -> Action {
        Action::Write(Target::Named(path.into(), "_write".into()), Box::new(e))
    }
    /// FIFO enqueue.
    pub fn enq(path: &str, e: Expr) -> Action {
        Action::Call(Target::Named(path.into(), "enq".into()), vec![e])
    }
    /// FIFO dequeue.
    pub fn deq(path: &str) -> Action {
        Action::Call(Target::Named(path.into(), "deq".into()), vec![])
    }
    /// Register-file update.
    pub fn upd(path: &str, idx: Expr, v: Expr) -> Action {
        Action::Call(Target::Named(path.into(), "upd".into()), vec![idx, v])
    }
    /// Action-method call on a submodule.
    pub fn call_act(path: &str, method: &str, args: Vec<Expr>) -> Action {
        Action::Call(Target::Named(path.into(), method.into()), args)
    }
    /// Parallel composition of any number of actions (right fold).
    pub fn par(actions: Vec<Action>) -> Action {
        actions
            .into_iter()
            .rev()
            .reduce(|acc, a| Action::Par(Box::new(a), Box::new(acc)))
            .unwrap_or(Action::NoAction)
    }
    /// Sequential composition of any number of actions (right fold).
    pub fn seq(actions: Vec<Action>) -> Action {
        actions
            .into_iter()
            .rev()
            .reduce(|acc, a| Action::Seq(Box::new(a), Box::new(acc)))
            .unwrap_or(Action::NoAction)
    }
    /// Conditional action without else.
    pub fn if_a(c: Expr, t: Action) -> Action {
        Action::If(Box::new(c), Box::new(t), Box::new(Action::NoAction))
    }
    /// Conditional action with else.
    pub fn if_else(c: Expr, t: Action, e: Action) -> Action {
        Action::If(Box::new(c), Box::new(t), Box::new(e))
    }
    /// Guarded action `a when g`.
    pub fn when_a(g: Expr, a: Action) -> Action {
        Action::When(Box::new(g), Box::new(a))
    }
    /// Let action.
    pub fn let_a(n: &str, v: Expr, body: Action) -> Action {
        Action::Let(n.into(), Box::new(v), Box::new(body))
    }
    /// Loop action `loop c a`.
    pub fn loop_a(c: Expr, body: Action) -> Action {
        Action::Loop(Box::new(c), Box::new(body))
    }
    /// `localGuard a`.
    pub fn local_guard(a: Action) -> Action {
        Action::LocalGuard(Box::new(a))
    }
    /// The empty action.
    pub fn no_action() -> Action {
        Action::NoAction
    }
    /// Pop the head of `from` and run `body` with it bound to `name`
    /// (common move idiom): `let name = from.first in (body | from.deq)`.
    pub fn with_first(name: &str, from: &str, body: Action) -> Action {
        let_a(
            name,
            first(from),
            Action::Par(Box::new(body), Box::new(deq(from))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;
    use crate::elab::elaborate;
    use crate::program::Program;
    use crate::sched::{SwOptions, SwRunner};

    #[test]
    fn counter_module_runs() {
        let mut m = ModuleBuilder::new("Counter");
        m.reg("count", Value::int(32, 0));
        m.rule(
            "tick",
            when_a(
                lt(read("count"), cint(32, 3)),
                write("count", add(read("count"), cint(32, 1))),
            ),
        );
        let d = elaborate(&Program::with_root(m.build())).unwrap();
        let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
        let fired = r.run_until_quiescent(100).unwrap();
        assert_eq!(fired, 3, "rule self-disables at 3");
    }

    #[test]
    fn try_build_rejects_duplicates() {
        let ticks = |n: usize| {
            let mut m = ModuleBuilder::new("Dup");
            m.reg("r", Value::int(8, 0));
            for _ in 0..n {
                m.rule("tick", no_action());
            }
            m.try_build()
        };
        assert!(ticks(1).is_ok());
        let e = ticks(2).unwrap_err();
        assert!(e.message().contains("duplicate rule name `tick`"), "{e}");

        let mut m = ModuleBuilder::new("Dup2");
        m.reg("r", Value::int(8, 0));
        m.fifo("r", 2, Type::Int(8));
        assert!(m
            .try_build()
            .unwrap_err()
            .message()
            .contains("duplicate instance name `r`"));

        let mut m = ModuleBuilder::new("Dup3");
        m.act_method("m", &[], no_action());
        m.val_method("m", &[], cint(8, 0));
        assert!(m
            .try_build()
            .unwrap_err()
            .message()
            .contains("duplicate method name `m`"));
    }

    #[test]
    fn par_seq_folds() {
        assert_eq!(par(vec![]), Action::NoAction);
        assert_eq!(seq(vec![no_action()]), Action::NoAction);
        let three = par(vec![no_action(), no_action(), no_action()]);
        assert!(matches!(three, Action::Par(..)));
    }

    #[test]
    fn with_first_moves_data() {
        let mut m = ModuleBuilder::new("Mover");
        m.fifo("a", 2, Type::Int(8));
        m.fifo("b", 2, Type::Int(8));
        m.rule("seed", enq("a", cint(8, 7)));
        m.rule("move", with_first("x", "a", enq("b", var("x"))));
        let d = elaborate(&Program::with_root(m.build())).unwrap();
        let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
        r.run_until_quiescent(5).unwrap();
        let b = d.prim_id("b").unwrap();
        assert_eq!(
            r.store
                .state(b)
                .call_value(crate::ast::PrimMethod::First, &[])
                .unwrap(),
            Value::int(8, 7)
        );
    }

    #[test]
    fn channel_degenerates_to_fifo() {
        let mut m = ModuleBuilder::new("M");
        m.channel("c1", 2, Type::Bool, "SW", "SW");
        m.channel("c2", 2, Type::Bool, "SW", "HW");
        let def = m.build();
        assert!(matches!(
            def.inst("c1").unwrap().kind,
            InstKind::Prim(PrimSpec::Fifo { .. })
        ));
        assert!(matches!(
            def.inst("c2").unwrap().kind,
            InstKind::Prim(PrimSpec::Sync { .. })
        ));
    }

    #[test]
    fn submodule_methods_compose() {
        let mut inner = ModuleBuilder::new("Inner");
        inner.param("k");
        inner.fifo("q", 2, Type::Int(32));
        inner.act_method("put", &["x"], enq("q", mul(var("x"), var("k"))));
        inner.val_method("get", &[], first("q"));

        let mut outer = ModuleBuilder::new("Outer");
        outer.submodule("i", "Inner", vec![Value::int(32, 10)]);
        outer.reg("out", Value::int(32, 0));
        outer.rule("feed", call_act("i", "put", vec![cint(32, 4)]));
        outer.rule("collect", write("out", call_val("i", "get", vec![])));

        let mut p = Program::with_root(outer.build());
        p.add_module(inner.build());
        let d = elaborate(&p).unwrap();
        let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
        r.run_until_quiescent(10).unwrap();
        let out = d.prim_id("out").unwrap();
        assert_eq!(
            r.store
                .state(out)
                .call_value(crate::ast::PrimMethod::RegRead, &[])
                .unwrap(),
            Value::int(32, 40)
        );
    }
}
