//! Render a scene with the BVH ray tracer under any HW/SW partition and
//! display it as ASCII art, verified against the native tracer.
//!
//! ```sh
//! cargo run --release --example raytrace_scene [A|B|C|D] [size]
//! ```

use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::{gen_rays, make_scene, ONE};
use bcl_raytrace::native::{render_with_stats, TraceStats};
use bcl_raytrace::partitions::{run_partition, RtPartition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.first().map(|s| s.as_str()) {
        Some("A") => RtPartition::A,
        Some("B") => RtPartition::B,
        Some("D") => RtPartition::D,
        _ => RtPartition::C,
    };
    let size: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);

    println!(
        "tracing a 256-primitive scene at {size}x{size} under partition {} ({})\n",
        which.label(),
        which.description()
    );
    let scene = make_scene(256, 7);
    let bvh = build_bvh(&scene);

    let run = run_partition(which, &bvh, size, size)?;
    println!(
        "  execution time : {} FPGA cycles ({:.0} per ray)",
        run.fpga_cycles,
        run.cycles_per_item()
    );
    println!(
        "  bus traffic    : {} words to HW, {} words to SW",
        run.link.words_to_hw, run.link.words_to_sw
    );

    // Golden check + traversal statistics from the native tracer.
    let mut stats = TraceStats::default();
    let golden = render_with_stats(&bvh, &gen_rays(size, size), &mut stats);
    assert_eq!(run.output, golden, "partitioned render must be bit-exact");
    println!(
        "  traversal      : {:.1} node steps, {:.1} triangle tests per ray",
        stats.steps as f64 / (size * size) as f64,
        stats.tri_tests as f64 / (size * size) as f64
    );
    println!("  golden check   : image bit-exact with the native tracer\n");

    // ASCII shading.
    let ramp: &[u8] = b" .:-=+*#%@";
    for y in 0..size {
        let mut line = String::new();
        for x in 0..size {
            let s = run.output[y * size + x];
            let idx = ((s * (ramp.len() as i64 - 1)) / ONE).clamp(0, ramp.len() as i64 - 1);
            line.push(ramp[idx as usize] as char);
            line.push(ramp[idx as usize] as char);
        }
        println!("  {line}");
    }
    Ok(())
}
