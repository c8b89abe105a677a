//! The paper's running example end to end: decode a synthetic Vorbis
//! stream with the back-end split across hardware and software, and
//! verify the PCM against the hand-written decoder.
//!
//! ```sh
//! cargo run --release --example vorbis_pipeline [A|B|C|D|E|F] [frames]
//! ```

use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::kernel::{from_fix, K};
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{run_partition, VorbisPartition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.first().map(|s| s.as_str()) {
        Some("A") => VorbisPartition::A,
        Some("B") => VorbisPartition::B,
        Some("C") => VorbisPartition::C,
        Some("D") => VorbisPartition::D,
        Some("F") => VorbisPartition::F,
        _ => VorbisPartition::E,
    };
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);

    println!(
        "decoding {n} frames under partition {} ({})\n",
        which.label(),
        which.description()
    );
    let frames = frame_stream(n, 2012);
    let run = run_partition(which, &frames)?;

    println!(
        "  execution time : {} FPGA cycles ({:.0} per frame)",
        run.fpga_cycles,
        run.cycles_per_item()
    );
    println!("  software work  : {} CPU cycles", run.sw_cpu_cycles);
    println!(
        "  bus traffic    : {} words to HW, {} words to SW",
        run.link.words_to_hw, run.link.words_to_sw
    );

    // Golden check against the hand-written decoder (F2).
    let golden = NativeBackend::new().run(&frames);
    assert_eq!(run.output, golden, "partitioned decode must be bit-exact");
    println!("  golden check   : PCM bit-exact with the hand-written decoder\n");

    // A tiny oscilloscope: the first frame of PCM as an ASCII waveform.
    println!("first PCM frame:");
    for (i, &s) in run.output.iter().take(K).enumerate() {
        let x = from_fix(s);
        let col = ((x + 1.0) * 24.0).clamp(0.0, 48.0) as usize;
        println!(
            "  {i:2} {}{}",
            " ".repeat(col),
            if x >= 0.0 { '+' } else { '-' }
        );
    }
    Ok(())
}
