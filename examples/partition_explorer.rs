//! The paper's headline workflow: explore every HW/SW decomposition of a
//! design "by simply specifying a new partitioning", with the compiler
//! regenerating both sides and the interface each time.
//!
//! ```sh
//! cargo run --release --example partition_explorer [frames]
//! ```

use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{run_partition, VorbisPartition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let frames = frame_stream(n, 2012);
    let golden = NativeBackend::new().run(&frames);

    println!("exploring all six decompositions of the Vorbis back-end ({n} frames)\n");
    println!(
        "{:<4} {:<24} {:>14} {:>12} {:>12}  PCM",
        "part", "hardware contents", "FPGA cycles", "words->HW", "words->SW"
    );

    let mut results = Vec::new();
    let mut mismatched = Vec::new();
    for p in VorbisPartition::ALL {
        let run = run_partition(p, &frames)?;
        let ok = if run.output == golden {
            "bit-exact"
        } else {
            mismatched.push(p.label());
            "MISMATCH!"
        };
        println!(
            "{:<4} {:<24} {:>14} {:>12} {:>12}  {}",
            p.label(),
            p.description(),
            run.fpga_cycles,
            run.link.words_to_hw,
            run.link.words_to_sw,
            ok
        );
        results.push((p, run.fpga_cycles));
    }
    if !mismatched.is_empty() {
        return Err(format!(
            "PCM differs from the hand-written decoder under partition(s) {}",
            mismatched.join(", ")
        )
        .into());
    }

    results.sort_by_key(|(_, c)| *c);
    let (best, best_c) = results[0];
    let (worst, worst_c) = *results.last().expect("non-empty");
    println!(
        "\nbest partition: {} ({} cycles); worst: {} ({} cycles); spread {:.1}x",
        best.label(),
        best_c,
        worst.label(),
        worst_c,
        worst_c as f64 / best_c as f64
    );
    println!(
        "\nThe paper's point: each of those rows is the same source program —\n\
         only the domain annotations on three channels changed, and the\n\
         compiler regenerated the hardware, the software, and the interface."
    );
    Ok(())
}
