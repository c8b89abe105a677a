//! Recursive-descent parser for textual kernel BCL.
//!
//! The surface grammar mirrors Figure 7 of the paper:
//!
//! ```text
//! module Counter(step) {
//!   reg c = 0;
//!   fifo q[2] : Int#(32);
//!
//!   rule tick:
//!     when (c < 10) { c := c + step | q.enq(c) }
//!
//!   method action reset(): c := 0
//!   method value current() = c;
//! }
//! ```
//!
//! Composition is written with braces: `{ a | b }` is parallel, `{ a ; b }`
//! is sequential (a brace group must be homogeneous — mixing `|` and `;`
//! requires nesting, which keeps precedence explicit). A bare identifier
//! that names a state element is a register read; field selection on a
//! read requires parentheses (`(r).re`) so that dotted instance paths
//! stay unambiguous.

use crate::lexer::{lex, LexError, Spanned, Tok};
use bcl_core::ast::{ActMethodDef, Action, Expr, Path, RuleDef, Target, ValMethodDef};
use bcl_core::prim::PrimSpec;
use bcl_core::program::{InstDef, InstKind, ModuleDef, Program};
use bcl_core::types::Type;
use bcl_core::value::{BinOp, UnOp, Value};
use std::collections::HashSet;
use std::fmt;

/// A parse error with a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Message.
    pub msg: String,
    /// Source line (0 when unknown).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error (line {}): {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            line: e.line,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Parses a program; the first module is the root.
///
/// # Errors
///
/// Lexical and syntactic errors with line numbers; constant-expression
/// errors in initializers.
pub fn parse(src: &str) -> PResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut program = Program::default();
    while !p.at_eof() {
        let m = p.module()?;
        if program.root.is_empty() {
            program.root = m.name.clone();
        }
        program.add_module(m);
    }
    if program.root.is_empty() {
        return Err(ParseError {
            msg: "no modules in input".into(),
            line: 0,
        });
    }
    Ok(program)
}

/// Maximum nesting depth of expressions, actions, and types. Recursive
/// descent uses the host stack, so without a bound a few kilobytes of
/// `((((...` or `!!!!...` would overflow it. Each guarded level can pin
/// a dozen-plus debug-mode frames (a parenthesized expression descends
/// the whole precedence ladder), so the bound must keep the worst-case
/// chain inside a 2 MiB thread stack — the Rust test-runner default —
/// not just the 8 MiB main thread. 64 is still several times deeper
/// than anything a human (or our pretty-printer) produces.
const MAX_NEST: usize = 64;

/// Maximum FIFO/synchronizer depth, register-file size, and vector
/// length accepted by the parser (matches
/// [`bcl_core::analysis::MAX_CAPACITY`]). Beyond this, a single
/// declaration could demand unbounded allocation before any semantic
/// check runs.
const MAX_SIZE: usize = bcl_core::analysis::MAX_CAPACITY;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            msg: msg.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{t}`, found `{}`", self.peek()))
        }
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn kw(&mut self, k: &str) -> PResult<()> {
        match self.peek() {
            Tok::Ident(s) if s == k => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{k}`, found `{other}`")),
        }
    }

    fn at_kw(&self, k: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == k)
    }

    fn int_lit(&mut self) -> PResult<i64> {
        match self.peek().clone() {
            Tok::Int { value, .. } => {
                self.bump();
                Ok(value)
            }
            other => self.err(format!("expected integer, found `{other}`")),
        }
    }

    /// A size literal (FIFO depth, register-file size, vector length):
    /// a non-negative integer no larger than [`MAX_SIZE`]. The raw
    /// `int_lit as usize` cast it replaces turned `-1` into 2^64-1,
    /// which downstream state allocation would faithfully attempt.
    fn size_lit(&mut self, what: &str) -> PResult<usize> {
        let n = self.int_lit()?;
        if n < 0 || n as usize > MAX_SIZE {
            return self.err(format!("{what} must be between 0 and {MAX_SIZE}, got {n}"));
        }
        Ok(n as usize)
    }

    /// A scalar bit width: 1..=64 (the runtime models values in a
    /// 64-bit word).
    fn width_lit(&mut self) -> PResult<u32> {
        let w = self.int_lit()?;
        if !(1..=64).contains(&w) {
            return self.err(format!("scalar width must be between 1 and 64, got {w}"));
        }
        Ok(w as u32)
    }

    /// Parses a type and rejects it when its total marshaled width
    /// exceeds [`bcl_core::analysis::MAX_TYPE_WIDTH`] — used at every
    /// site that materializes storage for the type (declarations and
    /// `zero(...)`), where an oversized type means an oversized
    /// allocation.
    fn sized_ty(&mut self) -> PResult<Type> {
        let t = self.ty()?;
        match bcl_core::analysis::checked_type_width(&t) {
            Some(w) if w <= bcl_core::analysis::MAX_TYPE_WIDTH => Ok(t),
            _ => self.err(format!(
                "type `{t}` is too wide (limit {} bits)",
                bcl_core::analysis::MAX_TYPE_WIDTH
            )),
        }
    }

    /// Bumps the nesting depth, failing at [`MAX_NEST`].
    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_NEST {
            return self.err(format!("nesting deeper than {MAX_NEST} levels"));
        }
        Ok(())
    }

    // ---- modules ------------------------------------------------------

    fn module(&mut self) -> PResult<ModuleDef> {
        self.kw("module")?;
        let name = self.ident()?;
        let mut m = ModuleDef::new(name);
        if self.eat(Tok::LParen) {
            while !self.eat(Tok::RParen) {
                m.params.push(self.ident()?);
                if !self.eat(Tok::Comma) {
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
        }
        self.expect(Tok::LBrace)?;
        let mut ctx = Ctx {
            prims: HashSet::new(),
            subs: HashSet::new(),
        };
        while !self.eat(Tok::RBrace) {
            self.item(&mut m, &mut ctx)?;
        }
        Ok(m)
    }

    fn item(&mut self, m: &mut ModuleDef, ctx: &mut Ctx) -> PResult<()> {
        match self.peek().clone() {
            Tok::Ident(k) => match k.as_str() {
                "reg" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::Eq)?;
                    let e = self.expr(ctx)?;
                    self.expect(Tok::Semi)?;
                    let init = self.const_eval(&e)?;
                    ctx.prims.insert(name.clone());
                    m.insts.push(InstDef {
                        name,
                        kind: InstKind::Prim(PrimSpec::Reg { init }),
                    });
                    Ok(())
                }
                "fifo" | "regfile" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::LBracket)?;
                    let depth = self.size_lit(if k == "fifo" {
                        "fifo depth"
                    } else {
                        "regfile size"
                    })?;
                    self.expect(Tok::RBracket)?;
                    self.expect(Tok::Colon)?;
                    let ty = self.sized_ty()?;
                    self.expect(Tok::Semi)?;
                    ctx.prims.insert(name.clone());
                    let spec = if k == "fifo" {
                        PrimSpec::Fifo { depth, ty }
                    } else {
                        PrimSpec::RegFile {
                            size: depth,
                            ty,
                            init: vec![],
                        }
                    };
                    m.insts.push(InstDef {
                        name,
                        kind: InstKind::Prim(spec),
                    });
                    Ok(())
                }
                "sync" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::LBracket)?;
                    let depth = self.size_lit("sync depth")?;
                    self.expect(Tok::RBracket)?;
                    self.expect(Tok::Colon)?;
                    let ty = self.sized_ty()?;
                    self.kw("from")?;
                    let from = self.ident()?;
                    self.kw("to")?;
                    let to = self.ident()?;
                    self.expect(Tok::Semi)?;
                    ctx.prims.insert(name.clone());
                    m.insts.push(InstDef {
                        name,
                        kind: InstKind::Prim(PrimSpec::Sync {
                            depth,
                            ty,
                            from,
                            to,
                        }),
                    });
                    Ok(())
                }
                "source" | "sink" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let ty = self.sized_ty()?;
                    self.expect(Tok::At)?;
                    let domain = self.ident()?;
                    self.expect(Tok::Semi)?;
                    ctx.prims.insert(name.clone());
                    let spec = if k == "source" {
                        PrimSpec::Source { ty, domain }
                    } else {
                        PrimSpec::Sink { ty, domain }
                    };
                    m.insts.push(InstDef {
                        name,
                        kind: InstKind::Prim(spec),
                    });
                    Ok(())
                }
                "inst" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::Eq)?;
                    let def = self.ident()?;
                    let mut args = Vec::new();
                    self.expect(Tok::LParen)?;
                    while !self.eat(Tok::RParen) {
                        let e = self.expr(ctx)?;
                        args.push(self.const_eval(&e)?);
                        if !self.eat(Tok::Comma) {
                            self.expect(Tok::RParen)?;
                            break;
                        }
                    }
                    self.expect(Tok::Semi)?;
                    ctx.subs.insert(name.clone());
                    m.insts.push(InstDef {
                        name,
                        kind: InstKind::Module { def, args },
                    });
                    Ok(())
                }
                "rule" => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let body = self.action(ctx)?;
                    self.eat(Tok::Semi);
                    m.rules.push(RuleDef { name, body });
                    Ok(())
                }
                "method" => {
                    self.bump();
                    if self.at_kw("action") {
                        self.bump();
                        let name = self.ident()?;
                        let args = self.formals()?;
                        self.expect(Tok::Colon)?;
                        let body = self.action(ctx)?;
                        self.eat(Tok::Semi);
                        m.act_methods.push(ActMethodDef { name, args, body });
                    } else {
                        self.kw("value")?;
                        let name = self.ident()?;
                        let args = self.formals()?;
                        self.expect(Tok::Eq)?;
                        let body = self.expr(ctx)?;
                        self.expect(Tok::Semi)?;
                        m.val_methods.push(ValMethodDef { name, args, body });
                    }
                    Ok(())
                }
                other => self.err(format!("unexpected item `{other}`")),
            },
            other => self.err(format!("expected item, found `{other}`")),
        }
    }

    fn formals(&mut self) -> PResult<Vec<String>> {
        let mut out = Vec::new();
        self.expect(Tok::LParen)?;
        while !self.eat(Tok::RParen) {
            out.push(self.ident()?);
            if !self.eat(Tok::Comma) {
                self.expect(Tok::RParen)?;
                break;
            }
        }
        Ok(out)
    }

    // ---- types ----------------------------------------------------------

    fn ty(&mut self) -> PResult<Type> {
        self.enter()?;
        let r = self.ty_inner();
        self.depth -= 1;
        r
    }

    fn ty_inner(&mut self) -> PResult<Type> {
        let name = self.ident()?;
        match name.as_str() {
            "Bool" => Ok(Type::Bool),
            "Int32" => Ok(Type::Int(32)),
            "Int" | "Bit" => {
                self.expect(Tok::Hash)?;
                self.expect(Tok::LParen)?;
                let w = self.width_lit()?;
                self.expect(Tok::RParen)?;
                Ok(if name == "Int" {
                    Type::Int(w)
                } else {
                    Type::Bits(w)
                })
            }
            "Vector" => {
                self.expect(Tok::Hash)?;
                self.expect(Tok::LParen)?;
                let n = self.size_lit("vector length")?;
                self.expect(Tok::Comma)?;
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(Type::vector(n, t))
            }
            "struct" => {
                self.expect(Tok::LBrace)?;
                let mut fields = Vec::new();
                while !self.eat(Tok::RBrace) {
                    let f = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let t = self.ty()?;
                    fields.push((f, t));
                    if !self.eat(Tok::Comma) {
                        self.expect(Tok::RBrace)?;
                        break;
                    }
                }
                Ok(Type::Struct(fields))
            }
            other => self.err(format!("unknown type `{other}`")),
        }
    }

    // ---- actions ----------------------------------------------------------

    fn action(&mut self, ctx: &Ctx) -> PResult<Action> {
        self.enter()?;
        let r = self.action_inner(ctx);
        self.depth -= 1;
        r
    }

    fn action_inner(&mut self, ctx: &Ctx) -> PResult<Action> {
        match self.peek().clone() {
            Tok::Ident(k) if k == "when" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let g = self.expr(ctx)?;
                self.expect(Tok::RParen)?;
                let body = self.action(ctx)?;
                Ok(Action::When(Box::new(g), Box::new(body)))
            }
            Tok::Ident(k) if k == "if" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr(ctx)?;
                self.expect(Tok::RParen)?;
                let t = self.action(ctx)?;
                let e = if self.at_kw("else") {
                    self.bump();
                    self.action(ctx)?
                } else {
                    Action::NoAction
                };
                Ok(Action::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            Tok::Ident(k) if k == "let" => {
                self.bump();
                let n = self.ident()?;
                self.expect(Tok::Eq)?;
                let e = self.expr(ctx)?;
                self.kw("in")?;
                let body = self.action(ctx)?;
                Ok(Action::Let(n, Box::new(e), Box::new(body)))
            }
            Tok::Ident(k) if k == "loop" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr(ctx)?;
                self.expect(Tok::RParen)?;
                let body = self.action(ctx)?;
                Ok(Action::Loop(Box::new(c), Box::new(body)))
            }
            Tok::Ident(k) if k == "localGuard" => {
                self.bump();
                let body = self.action(ctx)?;
                Ok(Action::LocalGuard(Box::new(body)))
            }
            Tok::Ident(k) if k == "noAction" => {
                self.bump();
                Ok(Action::NoAction)
            }
            Tok::LBrace => {
                self.bump();
                let first = self.action(ctx)?;
                let mut items = vec![first];
                let sep = self.peek().clone();
                match sep {
                    Tok::Pipe | Tok::Semi => {
                        while self.eat(sep.clone()) {
                            items.push(self.action(ctx)?);
                        }
                        self.expect(Tok::RBrace)?;
                        let fold = items
                            .into_iter()
                            .rev()
                            .reduce(|acc, a| {
                                if sep == Tok::Pipe {
                                    Action::Par(Box::new(a), Box::new(acc))
                                } else {
                                    Action::Seq(Box::new(a), Box::new(acc))
                                }
                            })
                            .expect("non-empty");
                        Ok(fold)
                    }
                    Tok::RBrace => {
                        self.bump();
                        Ok(items.pop().expect("non-empty"))
                    }
                    other => self.err(format!("expected `|`, `;`, or `}}`, found `{other}`")),
                }
            }
            Tok::Ident(_) => {
                // path := expr  or  path.method(args)
                let mut comps = vec![self.ident()?];
                while self.eat(Tok::Dot) {
                    comps.push(self.ident()?);
                }
                if self.eat(Tok::Assign) {
                    let e = self.expr(ctx)?;
                    let path = Path::new(comps.join("."));
                    Ok(Action::Write(
                        Target::Named(path, "_write".into()),
                        Box::new(e),
                    ))
                } else if *self.peek() == Tok::LParen {
                    if comps.len() < 2 {
                        return self.err("action method call needs `instance.method(...)`");
                    }
                    let meth = comps.pop().expect("len >= 2");
                    let path = Path::new(comps.join("."));
                    let args = self.call_args(ctx)?;
                    Ok(Action::Call(Target::Named(path, meth), args))
                } else {
                    self.err(format!(
                        "expected `:=` or a method call, found `{}`",
                        self.peek()
                    ))
                }
            }
            other => self.err(format!("expected action, found `{other}`")),
        }
    }

    fn call_args(&mut self, ctx: &Ctx) -> PResult<Vec<Expr>> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        while !self.eat(Tok::RParen) {
            args.push(self.expr(ctx)?);
            if !self.eat(Tok::Comma) {
                self.expect(Tok::RParen)?;
                break;
            }
        }
        Ok(args)
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        self.enter()?;
        let r = self.expr_inner(ctx);
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let e = self.ternary(ctx)?;
        if self.at_kw("when") {
            self.bump();
            let g = self.ternary(ctx)?;
            return Ok(Expr::When(Box::new(e), Box::new(g)));
        }
        Ok(e)
    }

    fn ternary(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let c = self.or_expr(ctx)?;
        if self.eat(Tok::Question) {
            let t = self.expr(ctx)?;
            self.expect(Tok::Colon)?;
            let f = self.expr(ctx)?;
            return Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(f)));
        }
        Ok(c)
    }

    fn or_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.and_expr(ctx)?;
        while self.eat(Tok::OrOr) {
            let r = self.and_expr(ctx)?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.cmp_expr(ctx)?;
        while self.eat(Tok::AndAnd) {
            let r = self.cmp_expr(ctx)?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn cmp_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let e = self.bit_expr(ctx)?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let r = self.bit_expr(ctx)?;
            return Ok(Expr::Bin(op, Box::new(e), Box::new(r)));
        }
        Ok(e)
    }

    fn bit_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.shift_expr(ctx)?;
        loop {
            let op = match self.peek() {
                Tok::Amp => BinOp::And,
                Tok::Caret => BinOp::Xor,
                _ => break,
            };
            self.bump();
            let r = self.shift_expr(ctx)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn shift_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.add_expr(ctx)?;
        loop {
            let op = match self.peek() {
                Tok::Shl => BinOp::Shl,
                Tok::Shr => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let r = self.add_expr(ctx)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn add_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.mul_expr(ctx)?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul_expr(ctx)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn mul_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.unary_expr(ctx)?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let r = self.unary_expr(ctx)?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        // `!!!!x` recurses without passing through `expr`, so it needs
        // its own depth guard.
        self.enter()?;
        let r = self.unary_inner(ctx);
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self, ctx: &Ctx) -> PResult<Expr> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                let e = self.unary_expr(ctx)?;
                Ok(Expr::Un(UnOp::Not, Box::new(e)))
            }
            Tok::Minus => {
                self.bump();
                let e = self.unary_expr(ctx)?;
                Ok(Expr::Un(UnOp::Neg, Box::new(e)))
            }
            _ => self.postfix_expr(ctx),
        }
    }

    fn postfix_expr(&mut self, ctx: &Ctx) -> PResult<Expr> {
        let mut e = self.primary(ctx)?;
        loop {
            if self.eat(Tok::LBracket) {
                let i = self.expr(ctx)?;
                self.expect(Tok::RBracket)?;
                e = Expr::Index(Box::new(e), Box::new(i));
            } else if *self.peek() == Tok::Dot {
                // Field selection on the value produced so far (the
                // primary parser has already consumed dotted instance
                // paths greedily, so any remaining dot is a field).
                self.bump();
                let f = self.ident()?;
                e = Expr::Field(Box::new(e), f);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self, ctx: &Ctx) -> PResult<Expr> {
        match self.peek().clone() {
            Tok::Int { value, width } => {
                self.bump();
                Ok(Expr::Const(Value::int(width, value)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr(ctx)?;
                self.expect(Tok::RParen)?;
                // Allow field selection / indexing on parenthesized exprs.
                let mut e = e;
                loop {
                    if self.eat(Tok::Dot) {
                        let f = self.ident()?;
                        e = Expr::Field(Box::new(e), f);
                    } else if self.eat(Tok::LBracket) {
                        let i = self.expr(ctx)?;
                        self.expect(Tok::RBracket)?;
                        e = Expr::Index(Box::new(e), Box::new(i));
                    } else {
                        break;
                    }
                }
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut es = Vec::new();
                while !self.eat(Tok::RBracket) {
                    es.push(self.expr(ctx)?);
                    if !self.eat(Tok::Comma) {
                        self.expect(Tok::RBracket)?;
                        break;
                    }
                }
                Ok(Expr::MkVec(es))
            }
            Tok::LBrace => {
                self.bump();
                let mut fs = Vec::new();
                while !self.eat(Tok::RBrace) {
                    let f = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let e = self.expr(ctx)?;
                    fs.push((f, e));
                    if !self.eat(Tok::Comma) {
                        self.expect(Tok::RBrace)?;
                        break;
                    }
                }
                Ok(Expr::MkStruct(fs))
            }
            Tok::Ident(k) if k == "true" => {
                self.bump();
                Ok(Expr::Const(Value::Bool(true)))
            }
            Tok::Ident(k) if k == "false" => {
                self.bump();
                Ok(Expr::Const(Value::Bool(false)))
            }
            Tok::Ident(k) if k == "zero" => {
                self.bump();
                self.expect(Tok::LParen)?;
                // `zero(t)` materializes a value of `t` right here, so
                // the width cap applies like at a declaration site.
                let t = self.sized_ty()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Const(Value::zero(&t)))
            }
            Tok::Ident(k) if k == "let" => {
                self.bump();
                let n = self.ident()?;
                self.expect(Tok::Eq)?;
                let v = self.expr(ctx)?;
                self.kw("in")?;
                let body = self.expr(ctx)?;
                Ok(Expr::Let(n, Box::new(v), Box::new(body)))
            }
            Tok::Ident(_) => {
                let mut comps = vec![self.ident()?];
                while *self.peek() == Tok::Dot && matches!(self.peek2(), Tok::Ident(_)) {
                    // Only consume dots that continue an instance path or
                    // end in a method call; plain `var.field` is handled
                    // here too since vars are single identifiers.
                    self.bump();
                    comps.push(self.ident()?);
                }
                if *self.peek() == Tok::LParen {
                    if comps.len() < 2 {
                        return self.err("value method call needs `instance.method(...)`");
                    }
                    let meth = comps.pop().expect("len >= 2");
                    let path = Path::new(comps.join("."));
                    let args = self.call_args(ctx)?;
                    return Ok(Expr::Call(Target::Named(path, meth), args));
                }
                if comps.len() == 1 {
                    let n = &comps[0];
                    if ctx.is_instance(n) {
                        // Register read.
                        return Ok(Expr::Call(
                            Target::Named(Path::new(n.clone()), "_read".into()),
                            vec![],
                        ));
                    }
                    return Ok(Expr::Var(n.clone()));
                }
                // Dotted, no call. Three cases by the head identifier:
                // a local primitive (read it, the rest are fields of the
                // value), a submodule (the whole path names a nested
                // register), or a variable (fields all the way).
                if ctx.prims.contains(&comps[0]) {
                    let mut e = Expr::Call(
                        Target::Named(Path::new(comps[0].clone()), "_read".into()),
                        vec![],
                    );
                    for f in &comps[1..] {
                        e = Expr::Field(Box::new(e), f.clone());
                    }
                    Ok(e)
                } else if ctx.subs.contains(&comps[0]) {
                    Ok(Expr::Call(
                        Target::Named(Path::new(comps.join(".")), "_read".into()),
                        vec![],
                    ))
                } else {
                    let mut e = Expr::Var(comps[0].clone());
                    for f in &comps[1..] {
                        e = Expr::Field(Box::new(e), f.clone());
                    }
                    Ok(e)
                }
            }
            other => self.err(format!("expected expression, found `{other}`")),
        }
    }

    // ---- constant folding for initializers -------------------------------

    fn const_eval(&self, e: &Expr) -> PResult<Value> {
        self.const_eval_env(e, &mut Vec::new())
    }

    fn const_eval_env(&self, e: &Expr, env: &mut Vec<(String, Value)>) -> PResult<Value> {
        let line = self.line();
        let fail = |msg: String| ParseError { msg, line };
        Ok(match e {
            Expr::Const(v) => v.clone(),
            Expr::Var(n) => env
                .iter()
                .rev()
                .find(|(k, _)| k == n)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| fail(format!("`{n}` is not a constant")))?,
            Expr::Un(op, a) => {
                Value::un_op(*op, &self.const_eval_env(a, env)?).map_err(|e| fail(e.to_string()))?
            }
            Expr::Bin(op, a, b) => {
                let va = self.const_eval_env(a, env)?;
                let vb = self.const_eval_env(b, env)?;
                Value::bin_op(*op, &va, &vb).map_err(|e| fail(e.to_string()))?
            }
            Expr::Cond(c, t, f) => {
                if self
                    .const_eval_env(c, env)?
                    .as_bool()
                    .map_err(|e| fail(e.to_string()))?
                {
                    self.const_eval_env(t, env)?
                } else {
                    self.const_eval_env(f, env)?
                }
            }
            Expr::Let(n, v, b) => {
                let vv = self.const_eval_env(v, env)?;
                env.push((n.clone(), vv));
                let r = self.const_eval_env(b, env)?;
                env.pop();
                r
            }
            Expr::MkVec(es) => Value::Vec(
                es.iter()
                    .map(|x| self.const_eval_env(x, env))
                    .collect::<PResult<Vec<_>>>()?,
            ),
            Expr::MkStruct(fs) => Value::Struct(
                fs.iter()
                    .map(|(n, x)| Ok((n.clone(), self.const_eval_env(x, env)?)))
                    .collect::<PResult<Vec<_>>>()?,
            ),
            Expr::Index(v, i) => {
                let vv = self.const_eval_env(v, env)?;
                let iv = self
                    .const_eval_env(i, env)?
                    .as_index()
                    .map_err(|e| fail(e.to_string()))?;
                vv.index(iv).map_err(|e| fail(e.to_string()))?.clone()
            }
            Expr::Field(v, f) => {
                let vv = self.const_eval_env(v, env)?;
                vv.field(f).map_err(|e| fail(e.to_string()))?.clone()
            }
            other => {
                return Err(fail(format!("not a constant expression: {other:?}")));
            }
        })
    }
}

struct Ctx {
    /// Primitive state elements declared in the current module.
    prims: HashSet<String>,
    /// Submodule instances declared in the current module.
    subs: HashSet<String>,
}

impl Ctx {
    fn is_instance(&self, n: &str) -> bool {
        self.prims.contains(n) || self.subs.contains(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcl_core::elaborate;
    use bcl_core::sched::{SwOptions, SwRunner};

    const COUNTER: &str = r#"
        module Counter(step) {
          reg c = 0;
          rule tick:
            when (c < 10) c := c + step
        }
    "#;

    #[test]
    fn parses_and_runs_counter() {
        let mut p = parse(COUNTER).unwrap();
        p.root_args = vec![Value::int(32, 2)];
        let d = elaborate(&p).unwrap();
        let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
        r.run_until_quiescent(100).unwrap();
        let c = d.prim_id("c").unwrap();
        assert_eq!(
            r.store
                .state(c)
                .call_value(bcl_core::PrimMethod::RegRead, &[])
                .unwrap(),
            Value::int(32, 10)
        );
    }

    #[test]
    fn parses_pipeline_with_par() {
        let src = r#"
            module Pipe {
              source in : Int#(32) @ SW;
              sink out : Int#(32) @ SW;
              fifo q[2] : Int#(32);
              rule stage1:
                let x = in.first() in { q.enq(x * 2) | in.deq() }
              rule stage2:
                let y = q.first() in { out.enq(y + 1) | q.deq() }
            }
        "#;
        let p = parse(src).unwrap();
        let d = elaborate(&p).unwrap();
        let mut store = bcl_core::Store::new(&d);
        store.push_source(d.prim_id("in").unwrap(), Value::int(32, 20));
        let mut r = SwRunner::with_store(&d, store, SwOptions::default()).unwrap();
        r.run_until_quiescent(100).unwrap();
        assert_eq!(
            r.store.sink_values(d.prim_id("out").unwrap()),
            &[Value::int(32, 41)]
        );
    }

    #[test]
    fn parses_submodules_and_methods() {
        let src = r#"
            module Acc {
              reg total = 0;
              method action add(x): total := total + x
              method value sum() = total;
            }
            module Top {
              inst a = Acc();
              reg ticks = 0;
              rule go:
                when (ticks < 3) { a.add(5) | ticks := ticks + 1 }
            }
        "#;
        let mut p = parse(src).unwrap();
        assert_eq!(p.root, "Acc", "first module is root by default");
        p.root = "Top".into();
        let d = elaborate(&p).unwrap();
        let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
        r.run_until_quiescent(100).unwrap();
        let t = d.prim_id("a.total").unwrap();
        assert_eq!(
            r.store
                .state(t)
                .call_value(bcl_core::PrimMethod::RegRead, &[])
                .unwrap(),
            Value::int(32, 15)
        );
    }

    #[test]
    fn parses_syncs_and_domains() {
        let src = r#"
            module X {
              source in : Int#(32) @ SW;
              sink out : Int#(32) @ SW;
              sync s[2] : Int#(32) from SW to HW;
              sync r[2] : Int#(32) from HW to SW;
              rule feed: let x = in.first() in { s.enq(x) | in.deq() }
              rule work: let x = s.first() in { r.enq(x + 100) | s.deq() }
              rule drain: let x = r.first() in { out.enq(x) | r.deq() }
            }
        "#;
        let p = parse(src).unwrap();
        let d = elaborate(&p).unwrap();
        let parts = bcl_core::partition::partition(&d, "SW").unwrap();
        assert_eq!(parts.partitions.len(), 2);
        assert_eq!(parts.channels.len(), 2);
    }

    #[test]
    fn parses_types() {
        let src = r#"
            module T {
              fifo a[1] : Vector#(4, struct { re: Int#(16), im: Int#(16) });
              fifo b[1] : Bit#(7);
              fifo c[1] : Bool;
              reg d = zero(Vector#(2, Int#(8)));
            }
        "#;
        let p = parse(src).unwrap();
        let d = elaborate(&p).unwrap();
        assert_eq!(d.prims.len(), 4);
        assert_eq!(
            d.prims[0].spec.value_type().width(),
            4 * 32,
            "vector of 32-bit complex"
        );
    }

    #[test]
    fn seq_and_loop_actions() {
        let src = r#"
            module S {
              reg a = 0;
              reg b = 0;
              rule go:
                { a := 1 ; b := a + 1 }
              rule lp:
                loop (a < 5) a := a + 1
            }
        "#;
        let p = parse(src).unwrap();
        let d = elaborate(&p).unwrap();
        assert!(matches!(d.rules[0].body, Action::Seq(..)));
        assert!(matches!(d.rules[1].body, Action::Loop(..)));
    }

    #[test]
    fn const_folding_in_initializers() {
        let src = r#"
            module C {
              reg a = 3 * 4 + 1;
              reg b = [1, 2, 3][1];
              reg c = {x: 7i8, y: true}.x;
            }
        "#;
        let p = parse(src).unwrap();
        let m = p.module("C").unwrap();
        let get = |i: usize| match &m.insts[i].kind {
            InstKind::Prim(PrimSpec::Reg { init }) => init.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(get(0), Value::int(32, 13));
        assert_eq!(get(1), Value::int(32, 2));
        assert_eq!(get(2), Value::int(8, 7));
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = parse("module M {\n  reg a = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("module M { bogus }").unwrap_err();
        assert!(e.msg.contains("bogus"));
    }

    #[test]
    fn non_constant_initializer_is_error() {
        let e = parse("module M { reg a = q.first(); }").unwrap_err();
        assert!(e.msg.contains("constant"), "{e}");
    }

    #[test]
    fn ternary_and_when_exprs() {
        let src = r#"
            module W {
              reg a = 0;
              reg b = 0;
              rule go: a := (b > 2 ? b : 0) when (b != 1)
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.module("W").unwrap().rules[0].body;
        match body {
            Action::Write(_, e) => assert!(matches!(**e, Expr::When(..))),
            other => panic!("{other:?}"),
        }
    }
}
