//! # bcl-bench — the evaluation harness
//!
//! Regenerates every figure and table of the paper's evaluation (§7) on
//! the modeled platform, plus the ablation studies for the §6.3 compiler
//! optimizations. The `figures` binary prints the rows; the Criterion
//! benches measure the harness itself.

#![warn(missing_docs)]

use bcl_core::domain::SW;
use bcl_core::sched::{Strategy, SwOptions, SwRunner};
use bcl_core::store::ShadowPolicy;
use bcl_core::xform::CompileOpts;
use bcl_core::{Store, Value};
use bcl_eventsim::SimConfig;
use bcl_vorbis::bcl::{build_design, frame_value, BackendOptions};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::kernel::K;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{run_partition as run_vorbis, VorbisPartition, VorbisRun};
use bcl_vorbis::sysc::run_systemc_baseline;

/// One row of a Figure-13-style chart.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label (partition letter or baseline name).
    pub label: String,
    /// Description.
    pub desc: String,
    /// Execution time in FPGA cycles.
    pub cycles: u64,
}

/// Renders rows as an ASCII bar chart (the paper's Figure 13 is a bar
/// chart of execution times in FPGA cycles).
pub fn bar_chart(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "{}", "-".repeat(title.len()));
    let max = rows.iter().map(|r| r.cycles).max().unwrap_or(1).max(1);
    for r in rows {
        let width = (r.cycles * 48 / max) as usize;
        let _ = writeln!(
            s,
            "{:>3} | {:<48} {:>12}  {}",
            r.label,
            "#".repeat(width.max(1)),
            r.cycles,
            r.desc
        );
    }
    s
}

/// Runs all six Vorbis partitions over `n` frames (Figure 13 left, the
/// generated implementations A–F).
pub fn vorbis_partition_rows(n: usize, seed: u64) -> Vec<(VorbisPartition, VorbisRun)> {
    let frames = frame_stream(n, seed);
    VorbisPartition::ALL
        .iter()
        .map(|&p| {
            let run = run_vorbis(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            (p, run)
        })
        .collect()
}

/// The F1 (SystemC-style) and F2 (hand-written) baselines of Figure 13,
/// in FPGA cycles (CPU cycles / 4).
pub fn vorbis_baseline_rows(n: usize, seed: u64) -> (u64, u64) {
    let frames = frame_stream(n, seed);
    let f1 = run_systemc_baseline(&frames, SimConfig::default()).cpu_cycles / 4;
    let mut nb = NativeBackend::new();
    nb.run(&frames);
    let f2 = nb.cpu_cycles() / 4;
    (f1, f2)
}

/// Result of one ablation configuration: total software CPU cycles to
/// decode the frame stream.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration name.
    pub name: String,
    /// CPU cycles consumed.
    pub cpu_cycles: u64,
    /// Rollbacks taken.
    pub rollbacks: u64,
    /// In-place (guard-lifted) executions.
    pub inplace: u64,
}

/// Runs the all-software Vorbis back-end under a given scheduler/compiler
/// configuration (the §6.3 ablations).
pub fn vorbis_sw_ablation(opts: SwOptions, n: usize, seed: u64) -> AblationRow {
    let design = build_design(&BackendOptions::default()).expect("builds");
    let mut store = Store::new(&design);
    let src = design.prim_id("src").expect("src");
    for f in frame_stream(n, seed) {
        store.push_source(src, frame_value(&f));
    }
    let mut runner = SwRunner::with_store(&design, store, opts).expect("lowers");
    runner.run_until_quiescent(100_000_000).expect("runs");
    let snk = design.prim_id("audioDev").expect("sink");
    assert_eq!(
        runner.store.sink_values(snk).len(),
        n,
        "ablation run must decode all frames"
    );
    AblationRow {
        name: String::new(),
        cpu_cycles: runner.cpu_cycles(),
        rollbacks: runner.cost.rollbacks,
        inplace: runner.cost.inplace_runs,
    }
}

/// The standard ablation grid of §6.3: each optimization toggled.
pub fn ablation_grid(n: usize, seed: u64) -> Vec<AblationRow> {
    let mk = |name: &str, compile: CompileOpts, shadow: ShadowPolicy, strategy: Strategy| {
        let mut row = vorbis_sw_ablation(
            SwOptions {
                compile,
                shadow,
                strategy,
                ..Default::default()
            },
            n,
            seed,
        );
        row.name = name.to_string();
        row
    };
    let full = CompileOpts::default();
    let nolift = CompileOpts {
        lift: false,
        sequentialize: false,
    };
    let noseq = CompileOpts {
        lift: true,
        sequentialize: false,
    };
    vec![
        mk(
            "all optimizations",
            full,
            ShadowPolicy::Partial,
            Strategy::Dataflow,
        ),
        mk(
            "no guard lifting",
            nolift,
            ShadowPolicy::Partial,
            Strategy::Dataflow,
        ),
        mk(
            "no sequentialization",
            noseq,
            ShadowPolicy::Partial,
            Strategy::Dataflow,
        ),
        mk(
            "full shadows",
            nolift,
            ShadowPolicy::Full,
            Strategy::Dataflow,
        ),
        mk(
            "round-robin schedule",
            full,
            ShadowPolicy::Partial,
            Strategy::RoundRobin,
        ),
        mk(
            "priority schedule",
            full,
            ShadowPolicy::Partial,
            Strategy::Priority,
        ),
    ]
}

/// Measures the platform's round-trip latency in FPGA cycles using a
/// ping design (SW -> HW echo -> SW), reproducing the §7 "round-trip
/// latency of approximately 100 FPGA cycles".
pub fn measure_round_trip() -> u64 {
    use bcl_core::builder::{dsl::*, ModuleBuilder};
    use bcl_core::domain::HW;
    use bcl_core::partition::partition;
    use bcl_core::program::Program;
    use bcl_core::types::Type;
    use bcl_platform::cosim::Cosim;
    use bcl_platform::link::LinkConfig;

    let mut m = ModuleBuilder::new("Ping");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.sync("toHw", 2, Type::Int(32), SW, HW);
    m.sync("toSw", 2, Type::Int(32), HW, SW);
    m.rule("send", with_first("x", "src", enq("toHw", var("x"))));
    m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
    m.rule("recv", with_first("x", "toSw", enq("snk", var("x"))));
    let d = bcl_core::elaborate(&Program::with_root(m.build())).expect("elaborates");
    let p = partition(&d, SW).expect("partitions");
    let mut cs =
        Cosim::new(&p, SW, HW, LinkConfig::default(), SwOptions::default()).expect("cosim");
    cs.push_source("src", Value::int(32, 1));
    let out = cs
        .run_until(|c| c.sink_count("snk") == 1, 10_000)
        .expect("runs");
    out.fpga_cycles()
}

/// Measures sustained streaming bandwidth in bytes per FPGA cycle over a
/// wide one-directional stream of 64-word bursts (the §7 "400 megabytes
/// per second" = 4 bytes/cycle at 100 MHz). Bursts matter: moving single
/// words costs a rule firing per word on the CPU, which is exactly the
/// §2 "Communication Granularity" problem DMA burst transfers solve.
pub fn measure_stream_bandwidth(words: usize) -> f64 {
    const BURST: usize = 64;
    use bcl_core::builder::{dsl::*, ModuleBuilder};
    use bcl_core::domain::HW;
    use bcl_core::partition::partition;
    use bcl_core::program::Program;
    use bcl_core::types::Type;
    use bcl_platform::cosim::Cosim;
    use bcl_platform::link::LinkConfig;

    let burst_ty = Type::vector(BURST, Type::Int(32));
    let mut m = ModuleBuilder::new("Stream");
    m.source("src", burst_ty.clone(), SW);
    m.sink("snk", burst_ty.clone(), HW);
    m.sync("toHw", 8, burst_ty, SW, HW);
    m.rule("send", with_first("x", "src", enq("toHw", var("x"))));
    m.rule("recv", with_first("x", "toHw", enq("snk", var("x"))));
    let d = bcl_core::elaborate(&Program::with_root(m.build())).expect("elaborates");
    let p = partition(&d, SW).expect("partitions");
    // An infinitely fast driver isolates the physical link bandwidth.
    let cfg = LinkConfig {
        sw_word_cost: 0,
        sw_msg_overhead: 0,
        ..Default::default()
    };
    let mut cs = Cosim::new(&p, SW, HW, cfg, SwOptions::default()).expect("cosim");
    let bursts = words.div_ceil(BURST);
    for i in 0..bursts {
        cs.push_source(
            "src",
            Value::Vec(
                (0..BURST)
                    .map(|j| Value::int(32, (i * BURST + j) as i64))
                    .collect(),
            ),
        );
    }
    let out = cs
        .run_until(
            |c| c.sink_count("snk") == bursts,
            100_000 + 10 * words as u64,
        )
        .expect("runs");
    (bursts * BURST * 4) as f64 / out.fpga_cycles() as f64
}

/// Frame count giving quick-but-stable numbers for tests and default
/// `figures` runs; the paper uses 10000 (pass `--full` to match).
pub const QUICK_FRAMES: usize = 20;

/// Samples per PCM frame (re-exported for reporting).
pub const SAMPLES_PER_FRAME: usize = K;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_near_100_cycles() {
        let rt = measure_round_trip();
        assert!((90..200).contains(&rt), "round trip {rt} not ~100 cycles");
    }

    #[test]
    fn stream_bandwidth_near_4_bytes_per_cycle() {
        let bw = measure_stream_bandwidth(2000);
        assert!(bw > 3.0, "bandwidth {bw:.2} B/cycle too low");
        assert!(
            bw <= 4.2,
            "bandwidth {bw:.2} B/cycle exceeds the link model"
        );
    }

    #[test]
    fn ablations_order_sanely() {
        let rows = ablation_grid(4, 9);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().cpu_cycles;
        assert!(
            get("all optimizations") < get("no guard lifting"),
            "lifting must pay"
        );
        assert!(
            get("no guard lifting") <= get("full shadows"),
            "partial shadowing must not cost more than full"
        );
        let all = rows.iter().find(|r| r.name == "all optimizations").unwrap();
        assert_eq!(all.rollbacks, 0, "fully lifted Vorbis never rolls back");
        assert!(all.inplace > 0);
    }

    #[test]
    fn bar_chart_renders() {
        let rows = vec![
            Row {
                label: "A".into(),
                desc: "x".into(),
                cycles: 100,
            },
            Row {
                label: "B".into(),
                desc: "y".into(),
                cycles: 50,
            },
        ];
        let s = bar_chart("test", &rows);
        assert!(s.contains('A') && s.contains("100"));
    }
}
