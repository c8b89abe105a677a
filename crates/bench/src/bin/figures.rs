//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! figures [--full|--medium] [fig13-vorbis | fig13-raytrace | platform | partitions | codegen | ablation | all]
//! ```
//!
//! `--full` uses the paper's workload sizes (10000 Vorbis frames, 1024
//! primitives with a 32×32 image; about 35 s in a release build on a
//! 2-core Xeon), `--medium` runs 2000 frames and the 1024-primitive
//! scene at 16×16 (about 20 s), and the default is a quick scaled-down
//! run (about 3.5 s). All three have identical qualitative shape.

use bcl_bench::{
    ablation_grid, bar_chart, measure_round_trip, measure_stream_bandwidth, vorbis_baseline_rows,
    vorbis_partition_rows, Row, QUICK_FRAMES,
};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{run_partition as run_rt, RtPartition};

fn fig13_vorbis(frames: usize) {
    println!("== Figure 13 (left): Ogg Vorbis execution time, {frames} frames ==\n");
    let runs = vorbis_partition_rows(frames, 2012);
    let (f1, f2) = vorbis_baseline_rows(frames, 2012);
    let mut rows: Vec<Row> = runs
        .iter()
        .map(|(p, r)| Row {
            label: p.label().to_string(),
            desc: p.description().to_string(),
            cycles: r.fpga_cycles,
        })
        .collect();
    rows.push(Row {
        label: "F1".into(),
        desc: "hand-coded SystemC (event-driven)".into(),
        cycles: f1,
    });
    rows.push(Row {
        label: "F2".into(),
        desc: "hand-coded C++ (native)".into(),
        cycles: f2,
    });
    println!("{}", bar_chart("execution time (FPGA cycles)", &rows));
    println!("link traffic per partition:");
    for (p, r) in &runs {
        println!(
            "  {}: {:>8} words to HW, {:>8} words to SW ({} + {} messages)",
            p.label(),
            r.link.words_to_hw,
            r.link.words_to_sw,
            r.link.msgs_to_hw,
            r.link.msgs_to_sw
        );
    }
    println!("guard scheduling (event-driven) per partition:");
    for (p, r) in &runs {
        println!(
            "  {}: {:>9} evaluated, {:>9} skipped ({:.1}% avoided)",
            p.label(),
            r.guard_evals,
            r.guard_evals_skipped,
            skip_pct(r.guard_evals, r.guard_evals_skipped),
        );
    }
    let f = runs
        .iter()
        .find(|(p, _)| *p == bcl_vorbis::partitions::VorbisPartition::F);
    let e = runs
        .iter()
        .find(|(p, _)| *p == bcl_vorbis::partitions::VorbisPartition::E);
    if let (Some((_, f)), Some((_, e))) = (f, e) {
        println!(
            "\nshape checks: E/F speedup = {:.2}x, F1/F2 = {:.2}x",
            f.fpga_cycles as f64 / e.fpga_cycles as f64,
            f1 as f64 / f2 as f64
        );
    }
    println!();
}

fn fig13_raytrace(scale: Scale) {
    let (tris, w, h) = match scale {
        Scale::Full => (1024, 32, 32),
        Scale::Medium => (1024, 16, 16),
        Scale::Quick => (128, 8, 8),
    };
    println!(
        "== Figure 13 (right): RayTrace execution time, {tris} primitives, {w}x{h} image ==\n"
    );
    let bvh = build_bvh(&make_scene(tris, 2012));
    let runs: Vec<_> = RtPartition::ALL
        .iter()
        .map(|&p| {
            let r = run_rt(p, &bvh, w, h).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            (p, r)
        })
        .collect();
    let rows: Vec<Row> = runs
        .iter()
        .map(|(p, r)| Row {
            label: p.label().to_string(),
            desc: format!("{} ({:.0} cyc/ray)", p.description(), r.cycles_per_item()),
            cycles: r.fpga_cycles,
        })
        .collect();
    println!("{}", bar_chart("execution time (FPGA cycles)", &rows));
    println!("guard scheduling (event-driven) per partition:");
    for (p, r) in &runs {
        println!(
            "  {}: {:>9} evaluated, {:>9} skipped ({:.1}% avoided)",
            p.label(),
            r.guard_evals,
            r.guard_evals_skipped,
            skip_pct(r.guard_evals, r.guard_evals_skipped),
        );
    }
    println!();
}

/// Share of guard evaluations the event-driven scheduler avoided.
fn skip_pct(evals: u64, skipped: u64) -> f64 {
    100.0 * skipped as f64 / (evals + skipped).max(1) as f64
}

fn platform() {
    println!("== Platform microbenchmarks (§7 experimental setup) ==\n");
    let rt = measure_round_trip();
    println!("  synchronizer round-trip latency : {rt} FPGA cycles (paper: ~100)");
    let bw = measure_stream_bandwidth(4000);
    println!(
        "  sustained stream bandwidth      : {bw:.2} bytes/FPGA-cycle = {:.0} MB/s @ 100 MHz (paper: up to 400 MB/s)",
        bw * 100.0
    );
    println!();
}

fn partitions() {
    println!("== Figure 12: Vorbis partitions ==\n");
    for p in bcl_vorbis::partitions::VorbisPartition::ALL {
        let d = p.domains();
        println!(
            "  {}: IMDCT={}, IFFT={}, Window={}  -- {}",
            p.label(),
            d.imdct,
            d.ifft,
            d.window,
            p.description()
        );
    }
    println!("\n== Figure 14: RayTrace partitions ==\n");
    for p in RtPartition::ALL {
        let c = p.config(32, 32);
        println!(
            "  {}: Trav={}, Geom={}, SceneMem={}  -- {}",
            p.label(),
            c.trav,
            c.geom,
            if c.remote_scene {
                "SW (shipped)"
            } else {
                c.geom.as_str()
            },
            p.description()
        );
    }
    println!();
}

fn codegen() {
    println!("== Figures 9/10: generated C++ for `Rule foo {{a := 1; f.enq(a); a := 0}}` ==\n");
    use bcl_core::builder::{dsl::*, ModuleBuilder};
    use bcl_core::program::Program;
    let mut m = ModuleBuilder::new("Demo");
    m.reg("a", bcl_core::Value::int(32, 0));
    m.fifo("f", 2, bcl_core::Type::Int(32));
    m.rule(
        "foo",
        seq(vec![
            write("a", cint(32, 1)),
            enq("f", read("a")),
            write("a", cint(32, 0)),
        ]),
    );
    let d = bcl_core::elaborate(&Program::with_root(m.build())).expect("elaborates");
    let pick = |code: &str| {
        code.lines()
            .skip_while(|l| !l.contains("rule foo"))
            .take_while(|l| !l.trim().is_empty())
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let unopt = bcl_backend::emit_cxx(&d, bcl_backend::CxxOptions { lift: false });
    println!(
        "--- Figure 9 (without inlining/lifting) ---\n{}\n",
        pick(&unopt)
    );
    let opt = bcl_backend::emit_cxx(&d, bcl_backend::CxxOptions { lift: true });
    println!(
        "--- Figure 10 (with inlining/lifting) ---\n{}\n",
        pick(&opt)
    );
}

fn ablation(frames: usize) {
    println!("== Ablations: §6.3 software optimizations (all-SW Vorbis, {frames} frames) ==\n");
    let rows = ablation_grid(frames, 7);
    let base = rows[0].cpu_cycles as f64;
    println!(
        "  {:<24} {:>14} {:>9} {:>10} {:>9}",
        "configuration", "CPU cycles", "rel.", "rollbacks", "in-place"
    );
    for r in &rows {
        println!(
            "  {:<24} {:>14} {:>8.2}x {:>10} {:>9}",
            r.name,
            r.cpu_cycles,
            r.cpu_cycles as f64 / base,
            r.rollbacks,
            r.inplace
        );
    }
    println!();
}

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Quick,
    Medium,
    Full,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else if args.iter().any(|a| a == "--medium") {
        Scale::Medium
    } else {
        Scale::Quick
    };
    let frames = match scale {
        Scale::Full => 10_000,
        Scale::Medium => 2_000,
        Scale::Quick => QUICK_FRAMES,
    };
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };
    for w in what {
        match w {
            "fig13-vorbis" => fig13_vorbis(frames),
            "fig13-raytrace" => fig13_raytrace(scale),
            "platform" => platform(),
            "partitions" => partitions(),
            "codegen" => codegen(),
            "ablation" => ablation(frames.min(100)),
            "all" => {
                platform();
                partitions();
                codegen();
                ablation(frames.min(100));
                fig13_vorbis(frames);
                fig13_raytrace(scale);
            }
            other => {
                eprintln!("unknown figure `{other}`");
                eprintln!("usage: figures [--full|--medium] [fig13-vorbis|fig13-raytrace|platform|partitions|codegen|ablation|all]");
                std::process::exit(2);
            }
        }
    }
}
