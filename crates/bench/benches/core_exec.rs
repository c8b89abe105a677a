//! Criterion bench for the core runtime primitives: transactional rule
//! execution vs. the guard-lifted in-place fast path, and hardware-
//! simulator cycle throughput.

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::program::Program;
use bcl_core::sched::{HwSim, Strategy, SwOptions, SwRunner};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::xform::CompileOpts;
use bcl_core::Store;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn counter_design(n_rules: usize) -> bcl_core::Design {
    let mut m = ModuleBuilder::new("Counters");
    for i in 0..n_rules {
        let r = format!("r{i}");
        m.reg(&r, Value::int(32, 0));
        m.rule(
            format!("tick{i}"),
            when_a(
                lt(read(&r), cint(32, 1_000_000)),
                write(&r, add(read(&r), cint(32, 1))),
            ),
        );
    }
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_exec");
    let d = counter_design(8);

    g.bench_function("sw_inplace_1000_firings", |b| {
        b.iter(|| {
            let mut r = SwRunner::new(&d, SwOptions::default()).unwrap();
            black_box(r.run_until_quiescent(1000).unwrap())
        })
    });
    g.bench_function("sw_transactional_1000_firings", |b| {
        let opts = SwOptions {
            compile: CompileOpts {
                lift: false,
                sequentialize: false,
            },
            ..Default::default()
        };
        b.iter(|| {
            let mut r = SwRunner::new(&d, opts).unwrap();
            black_box(r.run_until_quiescent(1000).unwrap())
        })
    });
    g.bench_function("hw_sim_1000_cycles", |b| {
        b.iter(|| {
            let mut sim = HwSim::new(&d).unwrap();
            for _ in 0..1000 {
                black_box(sim.step().unwrap());
            }
        })
    });
    g.bench_function("sw_dataflow_pipeline", |b| {
        // A 4-stage pipeline moving 64 items.
        let mut m = ModuleBuilder::new("Pipe");
        m.source("src", Type::Int(32), "SW");
        m.sink("snk", Type::Int(32), "SW");
        for i in 0..3 {
            m.fifo(format!("q{i}"), 2, Type::Int(32));
        }
        m.rule("s0", with_first("x", "src", enq("q0", var("x"))));
        m.rule(
            "s1",
            with_first("x", "q0", enq("q1", add(var("x"), cint(32, 1)))),
        );
        m.rule(
            "s2",
            with_first("x", "q1", enq("q2", mul(var("x"), cint(32, 2)))),
        );
        m.rule("s3", with_first("x", "q2", enq("snk", var("x"))));
        let d = bcl_core::elaborate(&Program::with_root(m.build())).unwrap();
        b.iter(|| {
            let mut store = Store::new(&d);
            let src = d.prim_id("src").unwrap();
            for i in 0..64 {
                store.push_source(src, Value::int(32, i));
            }
            let mut r = SwRunner::with_store(
                &d,
                store,
                SwOptions {
                    strategy: Strategy::Dataflow,
                    ..Default::default()
                },
            )
            .unwrap();
            black_box(r.run_until_quiescent(10_000).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
