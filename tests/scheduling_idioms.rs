//! The paper's §6.3 "Scheduling" example, verbatim: the same frame
//! transfer written in the software idiom (`xferSW`: a dynamic-length
//! atomic loop built from `loop` + `localGuard`) and the hardware idiom
//! (`xferHW`: one word per rule firing), plus the claim that the two are
//! interchangeable — "by employing completely different schedules, we are
//! able to generate both efficient HW and SW from the same rules".

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::program::Program;
use bcl_core::sched::{HwSim, Strategy, SwOptions, SwRunner};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{Design, Store};

const FRAME_SZ: i64 = 8;

/// Producer FIFO `p`, consumer FIFO `c`, transfer counter `cnt`.
fn base_module(name: &str) -> ModuleBuilder {
    let mut m = ModuleBuilder::new(name);
    m.source("p", Type::Int(32), "SW");
    m.sink("c", Type::Int(32), "SW");
    m.reg("cnt", Value::int(32, 0));
    m.reg("cond", Value::Bool(false));
    m
}

/// The paper's `xferSW`: one rule transfers as much of a frame as it can
/// in a single atomic step, terminating its inner loop via localGuard-
/// absorbed guard failure when the producer runs dry.
fn xfer_sw_design() -> Design {
    let mut m = base_module("XferSW");
    m.rule(
        "xferSW",
        seq(vec![
            write("cond", cbool(true)),
            loop_a(
                and(read("cond"), lt(read("cnt"), cint(32, FRAME_SZ))),
                seq(vec![
                    write("cond", cbool(false)),
                    local_guard(seq(vec![
                        write("cond", cbool(true)),
                        write("cnt", add(read("cnt"), cint(32, 1))),
                        with_first("w", "p", enq("c", var("w"))),
                    ])),
                ]),
            ),
        ]),
    );
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

/// The paper's `xferHW`: one word per firing, guarded on the count.
fn xfer_hw_design() -> Design {
    let mut m = base_module("XferHW");
    m.rule(
        "xferHW",
        when_a(
            lt(read("cnt"), cint(32, FRAME_SZ)),
            with_first(
                "w",
                "p",
                par(vec![
                    enq("c", var("w")),
                    write("cnt", add(read("cnt"), cint(32, 1))),
                ]),
            ),
        ),
    );
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

fn preload(d: &Design, words: i64) -> Store {
    let mut s = Store::new(d);
    let p = d.prim_id("p").unwrap();
    for i in 0..words {
        s.push_source(p, Value::int(32, 100 + i));
    }
    s
}

fn consumed(d: &Design, s: &Store) -> Vec<i64> {
    s.sink_values(d.prim_id("c").unwrap())
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

#[test]
fn both_idioms_transfer_the_frame_in_software() {
    for words in [0i64, 3, 8, 12] {
        let dsw = xfer_sw_design();
        let mut sw =
            SwRunner::with_store(&dsw, preload(&dsw, words), SwOptions::default()).unwrap();
        sw.run_until_quiescent(10_000).unwrap();
        let out_sw = consumed(&dsw, &sw.store);

        let dhw = xfer_hw_design();
        let mut hw_as_sw =
            SwRunner::with_store(&dhw, preload(&dhw, words), SwOptions::default()).unwrap();
        hw_as_sw.run_until_quiescent(10_000).unwrap();
        let out_hw = consumed(&dhw, &hw_as_sw.store);

        let expect: Vec<i64> = (0..words.min(FRAME_SZ)).map(|i| 100 + i).collect();
        assert_eq!(out_sw, expect, "xferSW with {words} available");
        assert_eq!(out_hw, expect, "xferHW-as-SW with {words} available");
    }
}

#[test]
fn xfer_sw_moves_the_frame_in_one_atomic_step() {
    // "The effects of the resulting non-atomic transfer of a single frame
    // is identical, though the schedules are completely different": the
    // loop idiom finishes the whole frame in one rule firing.
    let d = xfer_sw_design();
    let mut sw = SwRunner::with_store(&d, preload(&d, FRAME_SZ), SwOptions::default()).unwrap();
    assert!(sw.step().unwrap(), "one firing");
    assert_eq!(consumed(&d, &sw.store).len(), FRAME_SZ as usize);
    // After the frame, the rule still fires (its loop immediately
    // terminates) but moves nothing — the scheduler's wasted work.
    let before = consumed(&d, &sw.store).len();
    sw.step().unwrap();
    assert_eq!(consumed(&d, &sw.store).len(), before);
}

#[test]
fn xfer_hw_runs_once_per_clock_cycle() {
    let d = xfer_hw_design();
    let mut hw = HwSim::with_store(&d, preload(&d, FRAME_SZ + 4)).unwrap();
    for cycle in 1..=FRAME_SZ {
        assert_eq!(hw.step().unwrap(), 1, "cycle {cycle} moves one word");
    }
    // Guard `cnt < frameSz` goes false: no further firings.
    assert_eq!(hw.step().unwrap(), 0);
    assert_eq!(consumed(&d, &hw.store).len(), FRAME_SZ as usize);
    assert_eq!(hw.cycles, FRAME_SZ as u64 + 1);
}

#[test]
fn xfer_sw_is_rejected_by_the_hardware_backend() {
    // "The sequential composition inherent in loops is not directly
    // implementable in HW."
    let d = xfer_sw_design();
    assert!(HwSim::new(&d).is_err());
    assert!(bcl_backend::emit_bsv(&d).is_err());
}

#[test]
fn dataflow_scheduler_amortizes_word_at_a_time_rules() {
    // "If the SW scheduler invokes xferHW in a loop, the overall
    // performance of the transfer will not suffer": with the dataflow
    // strategy, the word-at-a-time rule re-fires back-to-back without
    // re-probing the rest of the design between words.
    let d = xfer_hw_design();
    let mut sw = SwRunner::with_store(
        &d,
        preload(&d, FRAME_SZ),
        SwOptions {
            strategy: Strategy::Dataflow,
            ..Default::default()
        },
    )
    .unwrap();
    let fired = sw.run_until_quiescent(1_000).unwrap();
    assert_eq!(fired, FRAME_SZ as u64);
    let report = sw.report();
    let failures: u64 = report.failed.iter().sum();
    assert!(
        failures <= FRAME_SZ as u64 + 2,
        "chained schedule should waste few probes: {failures}"
    );
}
