//! The paper's "Partially Automatic" methodology (§1): keep the generated
//! software partition and the generated communication infrastructure, but
//! replace the hardware partition with an alternative implementation that
//! merely conforms to the generated interface — here, a hand-written Rust
//! model manipulating the interface FIFOs directly.
//!
//! "Crucially, the generated implementations can interoperate with any
//! other implementation which conforms to the generated interface."

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::prim::PrimState;
use bcl_core::program::Program;
use bcl_core::sched::{SwOptions, SwRunner};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{PrimMethod, Store};
use bcl_platform::link::{Link, LinkConfig};
use bcl_platform::transactor::Transactor;

/// src(SW) -> toHw -> [HW: cube the value] -> toSw -> snk(SW).
fn offload_design() -> bcl_core::Design {
    let mut m = ModuleBuilder::new("Cube");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.sync("toHw", 4, Type::Int(32), SW, HW);
    m.sync("toSw", 4, Type::Int(32), HW, SW);
    m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
    m.rule(
        "cube",
        with_first(
            "x",
            "toHw",
            enq("toSw", mul(var("x"), mul(var("x"), var("x")))),
        ),
    );
    m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

#[test]
fn hand_written_hardware_behind_the_generated_interface() {
    let design = offload_design();
    let parts = partition(&design, SW).unwrap();
    let sw_design = parts.partition(SW).unwrap().clone();
    let hw_design = parts.partition(HW).unwrap().clone();

    // Generated pieces: the software partition and the transactor.
    let mut sw = SwRunner::new(&sw_design, SwOptions::default()).unwrap();
    let mut hw_store = Store::new(&hw_design);
    let mut link = Link::new(LinkConfig::default());
    let mut transactor = Transactor::new(&parts.channels, SW, &sw_design, HW, &hw_design).unwrap();

    // The *interface contract* the replacement must honor, read off the
    // generated partition: consume `toHw.rx`, produce `toSw.tx`.
    let rx = hw_design.prim_id("toHw.rx").unwrap();
    let tx = hw_design.prim_id("toSw.tx").unwrap();

    let src = sw_design.prim_id("src").unwrap();
    let inputs: Vec<i64> = vec![2, -3, 5, 7, 1];
    for &v in &inputs {
        sw.store.push_source(src, Value::int(32, v));
    }

    // A hand-written "hardware" implementation: plain Rust against the
    // FIFO halves — it never sees any of the generated rule machinery.
    let custom_hw = |store: &mut Store| loop {
        let v = match store.state(rx) {
            PrimState::Fifo { items, .. } => match items.front() {
                Some(v) => v.as_int().unwrap(),
                None => break,
            },
            _ => unreachable!("interface is a FIFO"),
        };
        let full = match store.state(tx) {
            PrimState::Fifo { items, depth } => items.len() >= *depth,
            _ => unreachable!(),
        };
        if full {
            break;
        }
        store
            .state_mut(rx)
            .call_action(PrimMethod::Deq, &[])
            .unwrap();
        let cubed = (v as i32).wrapping_mul(v as i32).wrapping_mul(v as i32) as i64;
        store
            .state_mut(tx)
            .call_action(PrimMethod::Enq, &[Value::int(32, cubed)])
            .unwrap();
    };

    // Drive the system: per FPGA cycle, the custom hardware runs, the
    // transactor pumps, and the software gets its CPU-cycle budget.
    let snk = sw_design.prim_id("snk").unwrap();
    for now in 0..20_000u64 {
        custom_hw(&mut hw_store);
        transactor
            .pump(&mut sw.store, &mut hw_store, &mut link, now)
            .unwrap();
        sw.run_for(4).unwrap();
        if sw.store.sink_values(snk).len() == inputs.len() {
            break;
        }
    }

    let got: Vec<i64> = sw
        .store
        .sink_values(snk)
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let want: Vec<i64> = inputs.iter().map(|&v| v * v * v).collect();
    assert_eq!(got, want, "hand-written HW interoperates with generated SW");
}

#[test]
fn generated_and_hand_written_hardware_agree() {
    // The same system with the *generated* hardware (fully automatic
    // flow) must produce the same stream — the hand-written block is a
    // drop-in replacement.
    use bcl_platform::cosim::Cosim;

    let design = offload_design();
    let parts = partition(&design, SW).unwrap();
    let mut cs = Cosim::new(&parts, SW, HW, LinkConfig::default(), SwOptions::default()).unwrap();
    let inputs: Vec<i64> = vec![2, -3, 5, 7, 1];
    for &v in &inputs {
        cs.push_source("src", Value::int(32, v));
    }
    let out = cs
        .run_until(|c| c.sink_count("snk") == inputs.len(), 100_000)
        .unwrap();
    assert!(out.is_done());
    let got: Vec<i64> = cs
        .sink_values("snk")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let want: Vec<i64> = inputs.iter().map(|&v| v * v * v).collect();
    assert_eq!(got, want);
}
