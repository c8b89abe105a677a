//! Demonstrates the fault-injected link and the reliable transport that
//! hides it: the same Vorbis decode is run over a perfect link and over
//! a lossy/corrupting/duplicating/reordering one, and the PCM comes out
//! bit-identical. Pass `--dead` to kill one direction entirely and watch
//! the stall detector diagnose it instead of hanging.
//!
//! ```sh
//! cargo run --release --example fault_link_demo [seed] [loss%] [corrupt%]
//! cargo run --release --example fault_link_demo -- --dead
//! ```

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, SwOptions};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, CosimOutcome, RecoveryPolicy};
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, LinkConfig};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition, Decode, VorbisPartition};

fn dead_direction_demo() -> Result<(), Box<dyn std::error::Error>> {
    let mut m = ModuleBuilder::new("Echo");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("toHw", 2, Type::Int(32), SW, HW);
    m.channel("toSw", 2, Type::Int(32), HW, SW);
    m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
    m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
    m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
    let design = bcl_core::elaborate(&Program::with_root(m.build()))?;
    let parts = partition(&design, SW)?;

    let faults = FaultConfig {
        drop: [0.0, 1.0], // HW->SW direction loses everything
        ..FaultConfig::none()
    };
    let mut cs = Cosim::with_faults(
        &parts,
        SW,
        HW,
        LinkConfig::default(),
        faults,
        SwOptions::default(),
    )?;
    cs.push_source("src", Value::int(32, 42));
    println!("running echo with a 100%-loss HW->SW direction...");
    match cs.run_until(|c| c.sink_count("snk") == 1, u64::MAX / 2)? {
        CosimOutcome::Stalled {
            fpga_cycles,
            channels,
        } => {
            println!("stalled after {fpga_cycles} FPGA cycles; per-channel diagnostics:");
            for ch in &channels {
                println!("  {ch}");
            }
        }
        other => println!("unexpected outcome: {other:?}"),
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--dead") {
        return dead_direction_demo();
    }
    let seed: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(2012);
    let loss: f64 = args
        .get(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(20.0)
        .clamp(0.0, 99.0)
        / 100.0;
    let corrupt: f64 = args
        .get(2)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(10.0)
        .clamp(0.0, 99.0)
        / 100.0;
    let faults = FaultConfig::uniform(seed, loss, corrupt, 0.10, 0.10);

    let frames = frame_stream(2, 11);
    let clean = run_partition(VorbisPartition::E, &frames)?;
    println!(
        "clean link:  {} PCM samples, {} FPGA cycles",
        clean.output.len(),
        clean.fpga_cycles
    );

    let app = Decode(VorbisPartition::E, &frames);
    let run_faulty =
        |faults| harness::run(&app, faults, RecoveryPolicy::Fail, ExecBackend::Compiled);
    let faulty = run_faulty(faults.clone())?;
    let s = &faulty.link;
    println!(
        "faulty link: {} PCM samples, {} FPGA cycles (seed {seed}, \
         {:.0}% drop, {:.0}% corrupt, 10% dup, 10% reorder)",
        faulty.output.len(),
        faulty.fpga_cycles,
        loss * 100.0,
        corrupt * 100.0,
    );
    println!(
        "  faults injected: {} dropped, {} corrupted, {} duplicated, {} reordered",
        s.dropped_to_hw + s.dropped_to_sw,
        s.corrupted_to_hw + s.corrupted_to_sw,
        s.duplicated_to_hw + s.duplicated_to_sw,
        s.reordered_to_hw + s.reordered_to_sw,
    );
    println!(
        "  PCM bit-identical to clean run: {}",
        if faulty.output == clean.output {
            "yes"
        } else {
            "NO!"
        }
    );

    let again = run_faulty(faults)?;
    println!(
        "  same seed reproduces exactly: {}",
        if again.fpga_cycles == faulty.fpga_cycles && again.link == faulty.link {
            "yes"
        } else {
            "NO!"
        }
    );
    Ok(())
}
