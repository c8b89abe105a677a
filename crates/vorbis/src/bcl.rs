//! The Vorbis back-end as a BCL program (§4.1 / §4.5 of the paper).
//!
//! The same generic kernels of [`crate::kernel`] are instantiated with
//! [`ExprArith`], whose "values" are kernel-BCL expressions: elaborating
//! the resulting program yields a design whose software/hardware
//! executions are bit-identical to the native baseline by construction.
//!
//! The module structure mirrors the paper's `mkPartitionedVorbisBackEnd`:
//! an `IFFTPipe` submodule (three stage rules — `mkIFFTPipe`), a `Window`
//! submodule, pre/post rules (the "IMDCT FSMs"), and feed/drain rules (the
//! "Backend FSMs"), connected by domain-polymorphic channels. Assigning
//! domains to the three functional blocks chooses the partition: channels
//! whose two ends land in the same domain elaborate to plain FIFOs, the
//! others to synchronizers (§4.2 "Domain Polymorphism").

use crate::kernel::{
    ifft_layer, imdct_post, imdct_pre, window_apply, Arith, Cplx, FRAC, K, N, STAGES,
};
use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::design::Design;
use bcl_core::domain::SW;
use bcl_core::program::Program;
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{ElabError, Expr};

/// Expression-building arithmetic: values are BCL expressions.
#[derive(Debug, Default, Clone)]
pub struct ExprArith;

impl Arith for ExprArith {
    type V = Expr;
    fn add(&mut self, a: &Expr, b: &Expr) -> Expr {
        add(a.clone(), b.clone())
    }
    fn sub(&mut self, a: &Expr, b: &Expr) -> Expr {
        sub_e(a.clone(), b.clone())
    }
    fn mulc(&mut self, a: &Expr, c: f64) -> Expr {
        fixmul(a.clone(), cfix(c, FRAC), FRAC)
    }
}

/// Domain assignment for the three functional blocks. Every partition of
/// Figure 12 is one choice of these three names (the Backend FSMs —
/// feed/drain — always live in software, and "the output from the
/// windowing function is always in SW").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VorbisDomains {
    /// Domain of the IMDCT pre/post rules and the parameter tables.
    pub imdct: String,
    /// Domain of the IFFT core.
    pub ifft: String,
    /// Domain of the windowing function.
    pub window: String,
}

impl VorbisDomains {
    /// Everything in software.
    pub fn all_sw() -> Self {
        VorbisDomains {
            imdct: SW.into(),
            ifft: SW.into(),
            window: SW.into(),
        }
    }
}

/// The element type of a spectral frame: `Vector#(K, Int#(32))`.
pub fn frame_ty() -> Type {
    Type::vector(K, Type::fixpt())
}

/// The IFFT working type: `Vector#(N, Complex#(Int#(32)))`.
pub fn cvec_ty() -> Type {
    Type::vector(N, Type::complex(Type::fixpt()))
}

/// Post-IMDCT real vector: `Vector#(N, Int#(32))`.
pub fn rvec_ty() -> Type {
    Type::vector(N, Type::fixpt())
}

/// PCM output frame: `Vector#(K, Int#(32))`.
pub fn pcm_ty() -> Type {
    Type::vector(K, Type::fixpt())
}

/// Vector-of-reals view of a variable.
fn rvec_of_var(name: &str, len: usize) -> Vec<Expr> {
    (0..len)
        .map(|i| index(var(name), cint(32, i as i64)))
        .collect()
}

/// Vector-of-complex view of a variable.
fn cvec_of_var(name: &str) -> Vec<Cplx<Expr>> {
    (0..N)
        .map(|i| {
            let e = index(var(name), cint(32, i as i64));
            Cplx::new(field(e.clone(), "re"), field(e, "im"))
        })
        .collect()
}

/// Packs complex expression pairs into a vector literal.
fn cvec_expr(xs: Vec<Cplx<Expr>>) -> Expr {
    mkvec(xs.into_iter().map(|c| cplx(c.re, c.im)).collect())
}

/// Packs real expressions into a vector literal.
fn rvec_expr(xs: Vec<Expr>) -> Expr {
    mkvec(xs)
}

/// The IMDCT pre-twiddle as an expression over frame variable `x`.
pub fn pre_expr() -> Expr {
    let mut a = ExprArith;
    let frame = rvec_of_var("x", K);
    cvec_expr(imdct_pre(&mut a, &frame))
}

/// One IFFT pipeline stage (two radix-2 layers) over vector variable `x`.
/// The intermediate layer is let-bound so hardware shares the butterfly
/// network and software evaluates each butterfly once.
pub fn ifft_stage_expr(stage: usize) -> Expr {
    let mut a = ExprArith;
    let l1 = ifft_layer(&mut a, &cvec_of_var("x"), 2 * stage);
    let l2 = ifft_layer(&mut a, &cvec_of_var("stage_t"), 2 * stage + 1);
    let_e("stage_t", cvec_expr(l1), cvec_expr(l2))
}

/// The IMDCT post-twiddle + bit-reversal over vector variable `x`.
pub fn post_expr() -> Expr {
    let mut a = ExprArith;
    rvec_expr(imdct_post(&mut a, &cvec_of_var("x")))
}

/// The windowing computation: produces the PCM vector from frame variable
/// `x` and the `tail` register.
pub fn pcm_expr() -> Expr {
    let mut a = ExprArith;
    let tail = rvec_of_var("win_tail", K);
    let cur = rvec_of_var("x", N);
    let (pcm, _) = window_apply(&mut a, &tail, &cur);
    let_e("win_tail", read("tail"), rvec_expr(pcm))
}

/// The new window tail (second half of the current frame).
pub fn tail_expr() -> Expr {
    let cur = rvec_of_var("x", N);
    rvec_expr(cur[K..].to_vec())
}

/// The pipelined IFFT module (`mkIFFTPipe`, §4.5): one rule per stage,
/// FIFOs between stages, `input`/`output`/`deq` interface methods.
pub fn mk_ifft_pipe() -> bcl_core::ModuleDef {
    let mut m = ModuleBuilder::new("IFFTPipe");
    for i in 0..=STAGES {
        m.fifo(format!("buff{i}"), 2, cvec_ty());
    }
    for s in 0..STAGES {
        let from = format!("buff{s}");
        let to = format!("buff{}", s + 1);
        m.rule(
            format!("stage{}", s + 1),
            let_a(
                "x",
                first(&from),
                par(vec![enq(&to, ifft_stage_expr(s)), deq(&from)]),
            ),
        );
    }
    m.act_method("input", &["x"], enq("buff0", var("x")));
    m.val_method("output", &[], first(&format!("buff{STAGES}")));
    m.act_method("deq", &[], deq(&format!("buff{STAGES}")));
    m.build()
}

/// The combinational IFFT module (`mkIFFTComb`, §4.5): all stages in one
/// rule. In hardware this is one gigantic single-cycle block (the paper's
/// "extremely long combinational path"); in software it is the same work
/// as the pipelined version without intermediate FIFO traffic.
pub fn mk_ifft_comb() -> bcl_core::ModuleDef {
    let mut m = ModuleBuilder::new("IFFTComb");
    m.fifo("inQ", 2, cvec_ty());
    m.fifo("outQ", 2, cvec_ty());
    let mut body = var("x");
    // Chain the stages through let bindings: x -> s1 -> s2 -> s3.
    for s in 0..STAGES {
        body = let_e("x", body, ifft_stage_expr(s));
    }
    m.rule(
        "doIFFT",
        let_a("x", first("inQ"), par(vec![enq("outQ", body), deq("inQ")])),
    );
    m.act_method("input", &["x"], enq("inQ", var("x")));
    m.val_method("output", &[], first("outQ"));
    m.act_method("deq", &[], deq("outQ"));
    m.build()
}

/// The windowing module (`mkWindow`): holds the overlap tail register.
pub fn mk_window() -> bcl_core::ModuleDef {
    let mut m = ModuleBuilder::new("Window");
    m.fifo("inQ", 2, rvec_ty());
    m.fifo("outQ", 2, pcm_ty());
    m.reg("tail", Value::zero(&pcm_ty()));
    m.rule(
        "doWindow",
        let_a(
            "x",
            first("inQ"),
            par(vec![
                enq("outQ", pcm_expr()),
                write("tail", tail_expr()),
                deq("inQ"),
            ]),
        ),
    );
    m.act_method("input", &["x"], enq("inQ", var("x")));
    m.val_method("output", &[], first("outQ"));
    m.act_method("deq", &[], deq("outQ"));
    m.build()
}

/// Options for constructing the back-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendOptions {
    /// Domain placement (the partition).
    pub domains: VorbisDomains,
    /// Use the pipelined IFFT (`mkIFFTPipe`) instead of the combinational
    /// one (`mkIFFTComb`).
    pub pipelined_ifft: bool,
    /// Channel/synchronizer depth.
    pub channel_depth: usize,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            domains: VorbisDomains::all_sw(),
            pipelined_ifft: true,
            channel_depth: 2,
        }
    }
}

/// Builds the complete partitioned back-end program
/// (`mkPartitionedVorbisBackEnd` of §4.2).
pub fn build_backend(opts: &BackendOptions) -> Program {
    let d = &opts.domains;
    let dep = opts.channel_depth;
    // Only the instantiated IFFT is built: the other one is as large and
    // nothing would elaborate it.
    let ifft = if opts.pipelined_ifft {
        mk_ifft_pipe()
    } else {
        mk_ifft_comb()
    };

    let mut m = ModuleBuilder::new("VorbisBackEnd");
    m.source("src", frame_ty(), SW);
    m.sink("audioDev", pcm_ty(), SW);
    m.channel("chIn", dep, frame_ty(), SW, &d.imdct);
    m.channel("chPre", dep, cvec_ty(), &d.imdct, &d.ifft);
    m.channel("chIfft", dep, cvec_ty(), &d.ifft, &d.imdct);
    m.channel("chPost", dep, rvec_ty(), &d.imdct, &d.window);
    m.channel("chOut", dep, pcm_ty(), &d.window, SW);
    m.submodule("ifft", ifft.name.clone(), vec![]);
    m.submodule("window", "Window", vec![]);

    // Backend FSMs (always software).
    m.rule("feed", with_first("x", "src", enq("chIn", var("x"))));
    m.rule("drain", with_first("x", "chOut", enq("audioDev", var("x"))));
    // IMDCT FSMs.
    m.rule(
        "preTwiddle",
        with_first("x", "chIn", enq("chPre", pre_expr())),
    );
    m.rule(
        "postTwiddle",
        with_first("x", "chIfft", enq("chPost", post_expr())),
    );
    // IFFT feed/drain (§4.2's feedIFFT / drainIFFT rules).
    m.rule(
        "feedIFFT",
        with_first("x", "chPre", call_act("ifft", "input", vec![var("x")])),
    );
    m.rule(
        "drainIFFT",
        let_a(
            "x",
            call_val("ifft", "output", vec![]),
            par(vec![
                enq("chIfft", var("x")),
                call_act("ifft", "deq", vec![]),
            ]),
        ),
    );
    // Window transfer rules (the paper's xfer / output rules).
    m.rule(
        "xfer",
        with_first("x", "chPost", call_act("window", "input", vec![var("x")])),
    );
    m.rule(
        "output",
        let_a(
            "x",
            call_val("window", "output", vec![]),
            par(vec![
                enq("chOut", var("x")),
                call_act("window", "deq", vec![]),
            ]),
        ),
    );

    let mut p = Program::with_root(m.build());
    p.add_module(ifft);
    p.add_module(mk_window());
    p
}

/// Convenience: builds and elaborates in one step.
///
/// # Errors
///
/// Propagates elaboration errors (which indicate a bug in the builders).
pub fn build_design(opts: &BackendOptions) -> Result<Design, ElabError> {
    bcl_core::elaborate(&build_backend(opts))
}

/// Converts a fixed-point frame into the BCL frame value.
pub fn frame_value(frame: &[i64]) -> Value {
    Value::Vec(frame.iter().map(|&v| Value::int(32, v)).collect())
}

/// Extracts PCM samples from a sink's consumed vector values.
pub fn pcm_of_values(values: &[Value]) -> Vec<i64> {
    values
        .iter()
        .flat_map(|v| match v {
            Value::Vec(vs) => vs
                .iter()
                .map(|x| x.as_int().expect("pcm ints"))
                .collect::<Vec<_>>(),
            other => panic!("pcm sink holds non-vector {other}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::frame_stream;
    use crate::native::NativeBackend;
    use bcl_core::sched::{Strategy, SwOptions, SwRunner};

    fn run_sw(opts: &BackendOptions, frames: &[Vec<i64>]) -> Vec<i64> {
        let design = build_design(opts).expect("elaborates");
        let mut store = bcl_core::Store::new(&design);
        let src = design.prim_id("src").unwrap();
        for f in frames {
            store.push_source(src, frame_value(f));
        }
        let mut r = SwRunner::with_store(
            &design,
            store,
            SwOptions {
                strategy: Strategy::Dataflow,
                ..Default::default()
            },
        )
        .unwrap();
        r.run_until_quiescent(1_000_000).unwrap();
        let snk = design.prim_id("audioDev").unwrap();
        pcm_of_values(r.store.sink_values(snk))
    }

    #[test]
    fn bcl_backend_matches_native_bit_exactly() {
        let frames = frame_stream(3, 11);
        let expected = NativeBackend::new().run(&frames);
        let got = run_sw(&BackendOptions::default(), &frames);
        assert_eq!(
            got, expected,
            "generated design must agree with hand-written code"
        );
    }

    #[test]
    fn comb_and_pipe_ifft_agree() {
        let frames = frame_stream(2, 5);
        let pipe = run_sw(&BackendOptions::default(), &frames);
        let comb = run_sw(
            &BackendOptions {
                pipelined_ifft: false,
                ..Default::default()
            },
            &frames,
        );
        assert_eq!(pipe, comb);
    }

    #[test]
    fn design_shape() {
        let d = build_design(&BackendOptions::default()).unwrap();
        // 4 IFFT buffers + 2 window FIFOs + tail reg + src + sink + 5 channels.
        assert_eq!(d.prims.len(), 14);
        // 8 root rules + 3 stage rules + 1 window rule.
        assert_eq!(d.rules.len(), 12);
        assert!(d.prim_id("ifft.buff0").is_some());
        assert!(d.prim_id("window.tail").is_some());
    }

    #[test]
    fn all_sw_design_has_no_syncs() {
        let d = build_design(&BackendOptions::default()).unwrap();
        assert!(d.syncs().is_empty());
        let hw = VorbisDomains {
            imdct: "HW".into(),
            ifft: "HW".into(),
            window: "HW".into(),
        };
        let d2 = build_design(&BackendOptions {
            domains: hw,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(d2.syncs().len(), 2, "chIn and chOut become synchronizers");
    }
}
