//! The ray tracer as a BCL program (Figure 14 of the paper).
//!
//! The microarchitecture follows the paper's diagram: a **Ray Gen** rule
//! (always software) turns pixel indices into rays; a **BVH Trav**
//! finite-state machine walks the hierarchy with an explicit stack,
//! performing **Box Inter** slab tests against nodes held in **BVH Mem**;
//! leaf visits are dispatched to a **Geom Inter** engine that reads
//! **Scene Mem** and answers with hit records; **Light/Color** shading is
//! folded into the intersection result, and the final shade lands in the
//! **Bitmap** sink (always software).
//!
//! The partition is chosen by two domain names plus one structural flag:
//!
//! * `trav` — domain of the traversal FSM, its stack, and BVH memory;
//! * `geom` — domain of the intersection engine;
//! * `remote_scene` — when true, Scene Mem stays in software and each
//!   leaf request ships the full triangle across the boundary (partition
//!   B, where "the savings in computation are outweighed by the incurred
//!   cost of communication"); when false, Scene Mem lives with the
//!   intersection engine (on-chip block RAM when `geom` is hardware —
//!   partition C's winning configuration).

use crate::bvh::{Bvh, Node};
use crate::geom::{fov_step, Tri, DET_EPS, FRAC, LIGHT, ONE, T_INF};
use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::design::Design;
use bcl_core::domain::SW;
use bcl_core::program::Program;
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{ElabError, Expr};

const I32: fn() -> Type = || Type::Int(32);

fn struct_ty(fields: &[&str]) -> Type {
    Type::Struct(fields.iter().map(|f| (f.to_string(), I32())).collect())
}

/// The ray record: pixel tag, origin, direction, reciprocal direction.
pub fn ray_ty() -> Type {
    struct_ty(&["pix", "ox", "oy", "oz", "dx", "dy", "dz", "ix", "iy", "iz"])
}

/// A flattened BVH node record.
pub fn node_ty() -> Type {
    struct_ty(&[
        "minx", "miny", "minz", "maxx", "maxy", "maxz", "left", "right", "first", "cnt",
    ])
}

/// A triangle record (vertex, two edges, normal).
pub fn tri_ty() -> Type {
    struct_ty(&[
        "v0x", "v0y", "v0z", "e1x", "e1y", "e1z", "e2x", "e2y", "e2z", "nx", "ny", "nz",
    ])
}

/// A leaf-test request when Scene Mem is local to the engine.
pub fn req_ty() -> Type {
    struct_ty(&["ox", "oy", "oz", "dx", "dy", "dz", "tri"])
}

/// A leaf-test request carrying the whole triangle (remote Scene Mem).
pub fn reqb_ty() -> Type {
    struct_ty(&[
        "ox", "oy", "oz", "dx", "dy", "dz", "v0x", "v0y", "v0z", "e1x", "e1y", "e1z", "e2x", "e2y",
        "e2z", "nx", "ny", "nz",
    ])
}

/// A hit record: distance (or `T_INF`) and shade.
pub fn resp_ty() -> Type {
    struct_ty(&["t", "shade"])
}

/// A finished pixel.
pub fn res_ty() -> Type {
    struct_ty(&["pix", "shade"])
}

fn fix(v: i64) -> Expr {
    cint(32, v)
}

/// Converts a BVH node to its BCL record value.
pub fn node_value(n: &Node) -> Value {
    let f = |name: &str, v: i64| (name.to_string(), Value::int(32, v));
    Value::Struct(vec![
        f("minx", n.bb.min.x),
        f("miny", n.bb.min.y),
        f("minz", n.bb.min.z),
        f("maxx", n.bb.max.x),
        f("maxy", n.bb.max.y),
        f("maxz", n.bb.max.z),
        f("left", n.left),
        f("right", n.right),
        f("first", n.first),
        f("cnt", n.count),
    ])
}

/// Converts a triangle to its BCL record value.
pub fn tri_value(t: &Tri) -> Value {
    let f = |name: &str, v: i64| (name.to_string(), Value::int(32, v));
    Value::Struct(vec![
        f("v0x", t.v0.x),
        f("v0y", t.v0.y),
        f("v0z", t.v0.z),
        f("e1x", t.e1.x),
        f("e1y", t.e1.y),
        f("e1z", t.e1.z),
        f("e2x", t.e2.x),
        f("e2y", t.e2.y),
        f("e2z", t.e2.z),
        f("nx", t.n.x),
        f("ny", t.n.y),
        f("nz", t.n.z),
    ])
}

// ---- expression kernels -------------------------------------------------

/// The slab test of [`crate::geom::box_hit`], over a ray record
/// expression, a node record expression, and the best-hit bound.
pub fn box_expr(ray: Expr, nd: Expr, best: Expr) -> Expr {
    let axis = |mn: &str, mx: &str, o: &str, i: &str| {
        (
            fixmul(
                sub_e(field(nd.clone(), mn), field(ray.clone(), o)),
                field(ray.clone(), i),
                FRAC,
            ),
            fixmul(
                sub_e(field(nd.clone(), mx), field(ray.clone(), o)),
                field(ray.clone(), i),
                FRAC,
            ),
        )
    };
    let (tx0, tx1) = axis("minx", "maxx", "ox", "ix");
    let (ty0, ty1) = axis("miny", "maxy", "oy", "iy");
    let (tz0, tz1) = axis("minz", "maxz", "oz", "iz");
    let bind = |n: &str, v: Expr, b: Expr| let_e(n, v, b);
    bind(
        "bx_tx0",
        tx0,
        bind(
            "bx_tx1",
            tx1,
            bind(
                "bx_ty0",
                ty0,
                bind(
                    "bx_ty1",
                    ty1,
                    bind(
                        "bx_tz0",
                        tz0,
                        bind("bx_tz1", tz1, {
                            let lo = |a: &str, b: &str| min_e(var(a), var(b));
                            let hi = |a: &str, b: &str| max_e(var(a), var(b));
                            let tmin = max_e(
                                max_e(lo("bx_tx0", "bx_tx1"), lo("bx_ty0", "bx_ty1")),
                                lo("bx_tz0", "bx_tz1"),
                            );
                            let tmax = min_e(
                                min_e(hi("bx_tx0", "bx_tx1"), hi("bx_ty0", "bx_ty1")),
                                hi("bx_tz0", "bx_tz1"),
                            );
                            let_e(
                                "bx_tmin",
                                tmin,
                                let_e(
                                    "bx_tmax",
                                    tmax,
                                    and(
                                        le(var("bx_tmin"), var("bx_tmax")),
                                        and(ge(var("bx_tmax"), fix(0)), lt(var("bx_tmin"), best)),
                                    ),
                                ),
                            )
                        }),
                    ),
                ),
            ),
        ),
    )
}

/// Möller–Trumbore over record expressions: `oray` provides `o`/`d`
/// fields, `tr` provides the triangle fields. Mirrors
/// [`crate::geom::mt_intersect`] operation for operation.
pub fn mt_expr(oray: Expr, tr: Expr) -> Expr {
    let o = ["ox", "oy", "oz"].map(|f| field(oray.clone(), f));
    let d = ["dx", "dy", "dz"].map(|f| field(oray.clone(), f));
    let v0 = ["v0x", "v0y", "v0z"].map(|f| field(tr.clone(), f));
    let e1 = ["e1x", "e1y", "e1z"].map(|f| field(tr.clone(), f));
    let e2 = ["e2x", "e2y", "e2z"].map(|f| field(tr.clone(), f));
    let n = ["nx", "ny", "nz"].map(|f| field(tr.clone(), f));
    let miss = mkstruct(vec![("t", fix(T_INF)), ("shade", fix(0))]);

    let fm = |a: Expr, b: Expr| fixmul(a, b, FRAC);
    let cross = |a: &[Expr; 3], b: &[Expr; 3]| -> [Expr; 3] {
        [
            sub_e(
                fm(a[1].clone(), b[2].clone()),
                fm(a[2].clone(), b[1].clone()),
            ),
            sub_e(
                fm(a[2].clone(), b[0].clone()),
                fm(a[0].clone(), b[2].clone()),
            ),
            sub_e(
                fm(a[0].clone(), b[1].clone()),
                fm(a[1].clone(), b[0].clone()),
            ),
        ]
    };
    let dot = |a: &[Expr; 3], b: &[Expr; 3]| -> Expr {
        add(
            add(
                fm(a[0].clone(), b[0].clone()),
                fm(a[1].clone(), b[1].clone()),
            ),
            fm(a[2].clone(), b[2].clone()),
        )
    };
    let vsub = |a: &[Expr; 3], b: &[Expr; 3]| -> [Expr; 3] {
        [
            sub_e(a[0].clone(), b[0].clone()),
            sub_e(a[1].clone(), b[1].clone()),
            sub_e(a[2].clone(), b[2].clone()),
        ]
    };
    let v3 = |base: &str| -> [Expr; 3] {
        [
            var(&format!("{base}x")),
            var(&format!("{base}y")),
            var(&format!("{base}z")),
        ]
    };
    let bind3 = |base: &str, vals: [Expr; 3], body: Expr| -> Expr {
        let_e(
            &format!("{base}x"),
            vals[0].clone(),
            let_e(
                &format!("{base}y"),
                vals[1].clone(),
                let_e(&format!("{base}z"), vals[2].clone(), body),
            ),
        )
    };

    let light = [
        cfix(LIGHT.0, FRAC),
        cfix(LIGHT.1, FRAC),
        cfix(LIGHT.2, FRAC),
    ];

    // let p = cross(d, e2); det = dot(e1, p); adet = |det|
    bind3(
        "mt_p",
        cross(&d, &e2),
        let_e(
            "mt_det",
            dot(&e1, &v3("mt_p")),
            let_e(
                "mt_adet",
                max_e(var("mt_det"), neg(var("mt_det"))),
                cond(
                    lt(var("mt_adet"), fix(DET_EPS)),
                    miss.clone(),
                    bind3(
                        "mt_tv",
                        vsub(&o, &v0),
                        let_e(
                            "mt_u",
                            fixdiv(dot(&v3("mt_tv"), &v3("mt_p")), var("mt_det"), FRAC),
                            cond(
                                or(lt(var("mt_u"), fix(0)), gt(var("mt_u"), fix(ONE))),
                                miss.clone(),
                                bind3(
                                    "mt_q",
                                    cross(&v3("mt_tv"), &e1),
                                    let_e(
                                        "mt_v",
                                        fixdiv(dot(&d, &v3("mt_q")), var("mt_det"), FRAC),
                                        cond(
                                            or(
                                                lt(var("mt_v"), fix(0)),
                                                gt(add(var("mt_u"), var("mt_v")), fix(ONE)),
                                            ),
                                            miss.clone(),
                                            let_e(
                                                "mt_t",
                                                fixdiv(dot(&e2, &v3("mt_q")), var("mt_det"), FRAC),
                                                cond(
                                                    le(var("mt_t"), fix(0)),
                                                    miss,
                                                    let_e(
                                                        "mt_ndl",
                                                        dot(&n, &light),
                                                        mkstruct(vec![
                                                            ("t", var("mt_t")),
                                                            (
                                                                "shade",
                                                                min_e(
                                                                    max_e(
                                                                        var("mt_ndl"),
                                                                        neg(var("mt_ndl")),
                                                                    ),
                                                                    fix(ONE),
                                                                ),
                                                            ),
                                                        ]),
                                                    ),
                                                ),
                                            ),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// Ray generation from a pixel index (variable `p`), for a `w`×`h`
/// image: the paper's Ray Gen module.
pub fn ray_expr(w: usize, h: usize) -> Expr {
    use bcl_core::value::BinOp;
    let bin = |op: BinOp, a: Expr, b: Expr| Expr::Bin(op, Box::new(a), Box::new(b));
    let px = bin(BinOp::Rem, var("p"), fix(w as i64));
    let py = bin(BinOp::Div, var("p"), fix(w as i64));
    // d = (2*p + 1 - extent) * fov_step(extent)  (see geom::fov_step).
    let dir = |c: Expr, extent: usize| {
        let steps = sub_e(add(mul(c, fix(2)), fix(1)), fix(extent as i64));
        mul(steps, fix(fov_step(extent)))
    };
    let_e(
        "rg_dx",
        dir(px, w),
        let_e(
            "rg_dy",
            dir(py, h),
            mkstruct(vec![
                ("pix", var("p")),
                ("ox", fix(0)),
                ("oy", fix(0)),
                ("oz", fix(crate::geom::fx(-4.0))),
                ("dx", var("rg_dx")),
                ("dy", var("rg_dy")),
                ("dz", fix(ONE)),
                ("ix", fixdiv(fix(ONE), var("rg_dx"), FRAC)),
                ("iy", fixdiv(fix(ONE), var("rg_dy"), FRAC)),
                ("iz", fix(ONE)),
            ]),
        ),
    )
}

// ---- design construction ------------------------------------------------

/// Partition-defining configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtConfig {
    /// Domain of the traversal FSM, stack, and BVH memory.
    pub trav: String,
    /// Domain of the geometry intersection engine.
    pub geom: String,
    /// Scene memory stays in software; requests carry triangles
    /// (only meaningful when `geom` is not software).
    pub remote_scene: bool,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Channel depth.
    pub depth: usize,
}

impl RtConfig {
    /// An all-software configuration for the given image size.
    pub fn all_sw(width: usize, height: usize) -> RtConfig {
        RtConfig {
            trav: SW.into(),
            geom: SW.into(),
            remote_scene: false,
            width,
            height,
            depth: 4,
        }
    }
}

/// FSM state encodings.
const IDLE: i64 = 0;
const TRAV: i64 = 1;
const WAIT: i64 = 2;
const DONE: i64 = 3;

/// Builds the complete ray-tracing program for a BVH (which carries the
/// leaf-ordered scene).
pub fn build_tracer(bvh: &Bvh, cfg: &RtConfig) -> Program {
    assert!(
        cfg.width.is_multiple_of(2) && cfg.height.is_multiple_of(2),
        "image dimensions must be even (see geom::gen_rays)"
    );
    let scene: &[Tri] = &bvh.tris;
    let mut m = ModuleBuilder::new("RayTracer");
    m.source("pixSrc", I32(), SW);
    m.sink("bitmap", res_ty(), SW);
    m.channel("chRay", cfg.depth, ray_ty(), SW, &cfg.trav);
    m.channel("chRes", cfg.depth, res_ty(), &cfg.trav, SW);
    m.channel("chResp", cfg.depth, resp_ty(), &cfg.geom, &cfg.trav);

    // Traversal state.
    m.reg("state", Value::int(32, IDLE));
    m.reg("curRay", Value::zero(&ray_ty()));
    m.reg("node", Value::int(32, 0));
    m.reg("bestT", Value::int(32, T_INF));
    m.reg("bestShade", Value::int(32, 0));
    m.reg("sp", Value::int(32, 0));
    // Current leaf bookkeeping: triangle range plus how many requests
    // have been issued and how many responses absorbed.
    m.reg("lfirst", Value::int(32, 0));
    m.reg("lcnt", Value::int(32, 0));
    m.reg("lsent", Value::int(32, 0));
    m.reg("lrecv", Value::int(32, 0));
    m.regfile("stackMem", 64, I32(), vec![]);
    m.regfile(
        "bvhMem",
        bvh.nodes.len(),
        node_ty(),
        bvh.nodes.iter().map(node_value).collect(),
    );

    let in_state = |s: i64, a| when_a(eq(read("state"), fix(s)), a);
    let pop_or_done = |cont: i64| {
        if_else(
            gt(read("sp"), fix(0)),
            par(vec![
                write("sp", sub_e(read("sp"), fix(1))),
                write("node", sub("stackMem", sub_e(read("sp"), fix(1)))),
                write("state", fix(cont)),
            ]),
            write("state", fix(DONE)),
        )
    };

    // Ray Gen (SW).
    m.rule(
        "rayGen",
        with_first("p", "pixSrc", enq("chRay", ray_expr(cfg.width, cfg.height))),
    );

    // FSM: accept a ray.
    m.rule(
        "startRay",
        in_state(
            IDLE,
            with_first(
                "r",
                "chRay",
                par(vec![
                    write("curRay", var("r")),
                    write("node", fix(0)),
                    write("sp", fix(0)),
                    write("bestT", fix(T_INF)),
                    write("bestShade", fix(0)),
                    write("state", fix(TRAV)),
                ]),
            ),
        ),
    );

    // FSM: one traversal step (node fetch + Box Inter). A leaf parks the
    // triangle range in the leaf registers and enters WAIT; an internal
    // node pushes its right child and descends left.
    m.rule(
        "travStep",
        in_state(
            TRAV,
            let_a(
                "nd",
                sub("bvhMem", read("node")),
                if_else(
                    box_expr(read("curRay"), var("nd"), read("bestT")),
                    if_else(
                        gt(field(var("nd"), "cnt"), fix(0)),
                        par(vec![
                            write("lfirst", field(var("nd"), "first")),
                            write("lcnt", field(var("nd"), "cnt")),
                            write("lsent", fix(0)),
                            write("lrecv", fix(0)),
                            write("state", fix(WAIT)),
                        ]),
                        par(vec![
                            upd("stackMem", read("sp"), field(var("nd"), "right")),
                            write("sp", add(read("sp"), fix(1))),
                            write("node", field(var("nd"), "left")),
                        ]),
                    ),
                    pop_or_done(TRAV),
                ),
            ),
        ),
    );

    // FSM: issue one leaf-test request per firing.
    let req = mkstruct(vec![
        ("ox", field(read("curRay"), "ox")),
        ("oy", field(read("curRay"), "oy")),
        ("oz", field(read("curRay"), "oz")),
        ("dx", field(read("curRay"), "dx")),
        ("dy", field(read("curRay"), "dy")),
        ("dz", field(read("curRay"), "dz")),
        ("tri", add(read("lfirst"), read("lsent"))),
    ]);
    m.rule(
        "sendReq",
        in_state(
            WAIT,
            when_a(
                lt(read("lsent"), read("lcnt")),
                par(vec![
                    enq("chReq", req),
                    write("lsent", add(read("lsent"), fix(1))),
                ]),
            ),
        ),
    );

    // FSM: absorb hit records; the last one pops or finishes.
    m.rule(
        "hitResp",
        in_state(
            WAIT,
            with_first(
                "h",
                "chResp",
                par(vec![
                    if_a(
                        and(
                            gt(field(var("h"), "t"), fix(0)),
                            lt(field(var("h"), "t"), read("bestT")),
                        ),
                        par(vec![
                            write("bestT", field(var("h"), "t")),
                            write("bestShade", field(var("h"), "shade")),
                        ]),
                    ),
                    write("lrecv", add(read("lrecv"), fix(1))),
                    if_a(
                        eq(add(read("lrecv"), fix(1)), read("lcnt")),
                        pop_or_done(TRAV),
                    ),
                ]),
            ),
        ),
    );

    // FSM: emit the pixel.
    m.rule(
        "finish",
        in_state(
            DONE,
            par(vec![
                enq(
                    "chRes",
                    mkstruct(vec![
                        ("pix", field(read("curRay"), "pix")),
                        ("shade", read("bestShade")),
                    ]),
                ),
                write("state", fix(IDLE)),
            ]),
        ),
    );

    // Geom Inter + Scene Mem.
    if cfg.remote_scene {
        // Partition-B style: Scene Mem stays in SW next to the traversal;
        // a software rule fetches the triangle and ships it with the ray.
        m.fifo("chReq", cfg.depth, req_ty());
        m.channel("chReqB", cfg.depth, reqb_ty(), SW, &cfg.geom);
        m.regfile(
            "sceneMem",
            scene.len(),
            tri_ty(),
            scene.iter().map(tri_value).collect(),
        );
        let carry = |f: &str, from: Expr| (f.to_string(), field(from, f));
        let mut fields: Vec<(String, Expr)> = ["ox", "oy", "oz", "dx", "dy", "dz"]
            .iter()
            .map(|f| carry(f, var("q")))
            .collect();
        for f in [
            "v0x", "v0y", "v0z", "e1x", "e1y", "e1z", "e2x", "e2y", "e2z", "nx", "ny", "nz",
        ] {
            fields.push(carry(f, var("tr")));
        }
        m.rule(
            "leafFetch",
            with_first(
                "q",
                "chReq",
                let_a(
                    "tr",
                    sub("sceneMem", field(var("q"), "tri")),
                    enq("chReqB", Expr::MkStruct(fields)),
                ),
            ),
        );
        m.rule(
            "geomInter",
            with_first("q", "chReqB", enq("chResp", mt_expr(var("q"), var("q")))),
        );
    } else {
        // Scene Mem lives with the engine (BRAM when the engine is HW).
        m.channel("chReq", cfg.depth, req_ty(), &cfg.trav, &cfg.geom);
        m.regfile(
            "sceneMem",
            scene.len(),
            tri_ty(),
            scene.iter().map(tri_value).collect(),
        );
        m.rule(
            "geomInter",
            with_first(
                "q",
                "chReq",
                let_a(
                    "tr",
                    sub("sceneMem", field(var("q"), "tri")),
                    enq("chResp", mt_expr(var("q"), var("tr"))),
                ),
            ),
        );
    }

    // Bitmap drain (SW).
    m.rule("drain", with_first("r", "chRes", enq("bitmap", var("r"))));

    Program::with_root(m.build())
}

/// Builds and elaborates in one step.
///
/// # Errors
///
/// Propagates elaboration errors (builder bugs).
pub fn build_design(bvh: &Bvh, cfg: &RtConfig) -> Result<Design, ElabError> {
    bcl_core::elaborate(&build_tracer(bvh, cfg))
}

/// Extracts the rendered image (shade per pixel, pixel order) from the
/// bitmap sink's values.
pub fn image_of_values(values: &[Value], pixels: usize) -> Vec<i64> {
    let mut img = vec![0i64; pixels];
    for v in values {
        let pix = v
            .field("pix")
            .expect("result struct")
            .as_int()
            .expect("int") as usize;
        let shade = v
            .field("shade")
            .expect("result struct")
            .as_int()
            .expect("int");
        img[pix] = shade;
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::build_bvh;
    use crate::geom::{box_hit, gen_rays, make_scene, mt_intersect};
    use crate::native::render;
    use bcl_core::exec::{eval, Env};
    use bcl_core::sched::{Strategy, SwOptions, SwRunner};
    use bcl_core::store::{ShadowPolicy, Store, Txn, TxnLog};

    /// Evaluate a closed expression (with the given env) on an empty store.
    fn eval_expr(e: &Expr, env: &mut Env) -> Value {
        let d = Design::default();
        let mut s = Store::new(&d);
        let mut log = TxnLog::new();
        let mut txn = Txn::new(&mut s, &mut log, ShadowPolicy::Partial);
        eval(&mut txn, env, e).expect("expression evaluates")
    }

    #[test]
    fn mt_expr_matches_native() {
        let scene = make_scene(8, 3);
        let rays = gen_rays(4, 4);
        for tri in &scene {
            for ray in &rays {
                let mut env = Env::new();
                // Bind a combined record holding both ray and triangle
                // fields, as the remote-request path does.
                let mut fields = vec![
                    ("ox".to_string(), Value::int(32, ray.o.x)),
                    ("oy".to_string(), Value::int(32, ray.o.y)),
                    ("oz".to_string(), Value::int(32, ray.o.z)),
                    ("dx".to_string(), Value::int(32, ray.d.x)),
                    ("dy".to_string(), Value::int(32, ray.d.y)),
                    ("dz".to_string(), Value::int(32, ray.d.z)),
                ];
                if let Value::Struct(tf) = tri_value(tri) {
                    fields.extend(tf);
                }
                env.push("q", Value::Struct(fields));
                let got = eval_expr(&mt_expr(var("q"), var("q")), &mut env);
                let (t, s) = mt_intersect(ray.o, ray.d, tri);
                assert_eq!(got.field("t").unwrap().as_int().unwrap(), t);
                assert_eq!(got.field("shade").unwrap().as_int().unwrap(), s);
            }
        }
    }

    #[test]
    fn box_expr_matches_native() {
        let scene = make_scene(16, 9);
        let bvh = build_bvh(&scene);
        let rays = gen_rays(4, 4);
        for node in &bvh.nodes {
            for ray in &rays {
                for best in [T_INF, ONE * 4] {
                    let mut env = Env::new();
                    let rv = Value::Struct(vec![
                        ("pix".into(), Value::int(32, ray.pix)),
                        ("ox".into(), Value::int(32, ray.o.x)),
                        ("oy".into(), Value::int(32, ray.o.y)),
                        ("oz".into(), Value::int(32, ray.o.z)),
                        ("dx".into(), Value::int(32, ray.d.x)),
                        ("dy".into(), Value::int(32, ray.d.y)),
                        ("dz".into(), Value::int(32, ray.d.z)),
                        ("ix".into(), Value::int(32, ray.inv.x)),
                        ("iy".into(), Value::int(32, ray.inv.y)),
                        ("iz".into(), Value::int(32, ray.inv.z)),
                    ]);
                    env.push("r", rv);
                    env.push("n", node_value(node));
                    let got = eval_expr(&box_expr(var("r"), var("n"), fix(best)), &mut env);
                    let want = box_hit(ray.o, ray.inv, &node.bb, best);
                    assert_eq!(got, Value::Bool(want));
                }
            }
        }
    }

    #[test]
    fn sw_design_renders_native_image() {
        let scene = make_scene(24, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let cfg = RtConfig::all_sw(w, h);
        let design = build_design(&bvh, &cfg).unwrap();
        let mut store = Store::new(&design);
        let src = design.prim_id("pixSrc").unwrap();
        for p in 0..(w * h) as i64 {
            store.push_source(src, Value::int(32, p));
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
        r.run_until_quiescent(10_000_000).unwrap();
        let snk = design.prim_id("bitmap").unwrap();
        let got = image_of_values(r.store.sink_values(snk), w * h);
        let want = render(&bvh, &gen_rays(w, h));
        assert_eq!(
            got, want,
            "BCL tracer must match the native tracer bit-for-bit"
        );
    }

    #[test]
    fn ray_expr_matches_gen_rays() {
        let (w, h) = (8, 8);
        let rays = gen_rays(w, h);
        for ray in rays.iter().take(10) {
            let mut env = Env::new();
            env.push("p", Value::int(32, ray.pix));
            let got = eval_expr(&ray_expr(w, h), &mut env);
            assert_eq!(
                got.field("dx").unwrap().as_int().unwrap(),
                ray.d.x,
                "pix {}",
                ray.pix
            );
            assert_eq!(got.field("dy").unwrap().as_int().unwrap(), ray.d.y);
            assert_eq!(got.field("ix").unwrap().as_int().unwrap(), ray.inv.x);
            assert_eq!(got.field("oz").unwrap().as_int().unwrap(), ray.o.z);
        }
    }
}
