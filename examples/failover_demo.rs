//! Demonstrates checkpoint/restore and hardware-partition failover: the
//! same Vorbis decode (full back-end in hardware) is run fault-free,
//! then with a mid-decode hardware reset recovered by restarting from
//! the last automatic checkpoint, then with a fatal hardware death
//! survived by failing over to the fused all-software design. The PCM
//! comes out bit-identical every time; restart even lands on the exact
//! fault-free cycle count.
//!
//! ```sh
//! cargo run --release --example failover_demo [fault_cycle] [ckpt_interval]
//! ```

use bcl_core::sched::ExecBackend;
use bcl_platform::cosim::RecoveryPolicy;
use bcl_platform::harness;
use bcl_platform::link::{FaultConfig, PartitionFault};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition, Decode, VorbisPartition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fault_cycle: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(1_200);
    let interval: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
        .max(1);

    let frames = frame_stream(4, 11);
    let clean = run_partition(VorbisPartition::E, &frames)?;
    println!(
        "fault-free:        {} PCM samples, {} FPGA cycles",
        clean.output.len(),
        clean.fpga_cycles
    );

    let reset = FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(fault_cycle));
    let app = Decode(VorbisPartition::E, &frames);
    let restarted = harness::run(
        &app,
        reset,
        RecoveryPolicy::restart(interval),
        ExecBackend::Compiled,
    )?;
    println!(
        "reset @ {fault_cycle} + restart-from-checkpoint (interval {interval}): \
         {} samples, {} cycles",
        restarted.output.len(),
        restarted.fpga_cycles
    );
    println!(
        "  PCM bit-identical: {}; cycle-identical: {}",
        yes(restarted.output == clean.output),
        yes(restarted.fpga_cycles == clean.fpga_cycles),
    );

    let death = FaultConfig::none().with_partition_fault(PartitionFault::DieAt(fault_cycle));
    let failed_over = harness::run(
        &app,
        death,
        RecoveryPolicy::failover(interval),
        ExecBackend::Compiled,
    )?;
    println!(
        "death @ {fault_cycle} + failover-to-software (interval {interval}): \
         {} samples, {} cycles",
        failed_over.output.len(),
        failed_over.fpga_cycles
    );
    println!(
        "  PCM bit-identical: {}; slowdown over hardware: {:.1}x",
        yes(failed_over.output == clean.output),
        failed_over.fpga_cycles as f64 / clean.fpga_cycles as f64,
    );
    Ok(())
}

fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO!"
    }
}
