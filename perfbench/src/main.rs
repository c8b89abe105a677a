//! # perfbench — end-to-end and per-layer benchmark of the co-simulator
//!
//! A single-process, single-threaded, closed-loop benchmark: each rep
//! builds and runs its systems to completion before the next rep starts.
//! Every rep runs the production path, `ExecBackend::Compiled`, and
//! times each layer call from outside (see `workload.rs`). Inputs come
//! from `--seed` alone. The modeled FPGA/CPU cycle counts are the
//! paper's results and must never move: every rep is checked against
//! them and against the hand-written F2 baseline's output.
//!
//! ## Workloads
//!
//! | name | system | why |
//! |---|---|---|
//! | `vorbis_sw` | Vorbis partition F, 256 frames | the run phase is the software scheduler firing compiled rules on the flat store; no link, no `HwSim`, so software-executor gains show here and platform gains cannot |
//! | `vorbis_split` | Vorbis partition C, 128 frames | 352 words per frame cross the bus in four crossings: transactor and link marshaling and the per-cycle `Cosim::step` loop dominate, with both schedulers active |
//! | `raytrace_hw` | ray tracer partition C, eight scenes of 1024 triangles, 8×8 each | traversal and intersection run in `HwSim` against on-chip scene memory; only 12 words per ray cross the bus and setup is a fifth of a rep. Simulation cost varies by tens of percent between random scenes, so a rep averages eight |
//! | `build_all` | all ten Figure 13 partitions at 1 frame / 4×4 over 64 triangles | construction is most of each rep: the target for shrinking construction, which the streaming workloads dilute |
//! | `vorbis_recover` | Vorbis partition E, 128 frames, lossy link, reset + restart policy, one migration through `BCKP` bytes | checkpoint writes, framed go-back-N and CRC: a fast-path win that taxes the reliable path shows here |
//!
//! ## End-to-end metrics (untraced run; median over reps)
//!
//! | name | unit | better | bound |
//! |---|---|---|---|
//! | `setup_s` | s | lower | 25% |
//! | `wall_s` | s | lower | 20% |
//! | `sim_cycles_per_s` | 1/s | higher | 20% |
//! | `peak_heap_bytes` | B | lower | 2% |
//!
//! The time bounds are wide because they must hold across seeds and
//! across minutes of load on a shared two-core host, where medians of
//! separate processes drifted by up to 10%.
//!
//! `setup_s` runs from program build to inputs queued (summed over the
//! systems of a `build_all` rep). `wall_s` adds the simulation,
//! migration included, and excludes the output checks.
//! `sim_cycles_per_s` is modeled FPGA cycles per host second spent after
//! setup. `peak_heap_bytes` is the peak live heap of a rep above its
//! starting point. Failed reps are counted in `failed` out of
//! `attempted`; a bound is the share of the base median by which a
//! metric may worsen, as `BENCHMARK.json` records it.
//!
//! ## Per-layer metrics (traced run; median over reps)
//!
//! Names are `<layer>.<metric>`; the list and units live in
//! `measure::PER_LAYER` and `BENCHMARK.json`. Construction
//! (`builder.program_ns` … `platform.cosim.enqueue_ns`, `heap.setup_*`,
//! `setup.first_rep_s`, and the probes `core.xform.plan_ns`,
//! `core.sched_sw.new_ns`, `core.sched_hw.new_ns` that split
//! `Cosim::multi`) should move `setup_s` on `build_all`. Run-phase time
//! and allocation (`platform.cosim.run_ns`, `heap.run_*`,
//! `core.sched_sw.*`) should move `sim_cycles_per_s` on `vorbis_sw`;
//! guard skipping (`core.sched.*`) on `raytrace_hw`; link traffic
//! (`platform.link.*`, `platform.run.ns_per_link_word`) on
//! `vorbis_split`; persistence and transport (`platform.persist.*`,
//! `platform.transactor.*`, `core.store.checkpoint_copied_words`)
//! `wall_s` on `vorbis_recover` only. `native.ratio` is the run phase
//! over the F2 baseline's time; `tail.*` give the highest percentile
//! with ten reps beyond it; `trace.overhead_frac` is the traced over the
//! untraced wall median, minus one.
//!
//! ## Commands
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vorbis_sw --seed 1 --seconds 10 --trace 0
//!     # one workload; the last stdout line is the JSON result
//!     # (--trace 1: per-layer metrics instead of end-to-end ones)
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     run --seed 1 --out perf.json       # every workload, both runs
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare base.json new.json         # exits 1 if a metric is worse
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Further options: `--smoke` (tiny inputs, three reps), `--seconds S`
//! (measured time of the untraced run, default 10; the traced run takes
//! half), `--chrome-trace FILE` (write the traced run's spans as Chrome
//! trace-event JSON).

mod alloc;
mod json;
mod measure;
mod report;
mod stats;
mod trace;
mod workload;

use measure::{measure, Measured, Plan, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workload::{Scale, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    chrome_trace: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workloads
                    .push(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                a.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("--out")?),
            "--chrome-trace" => a.chrome_trace = Some(value("--chrome-trace")?),
            s if s.starts_with("--") => return Err(format!("unknown option `{s}`")),
            _ if a.command.is_none() && a.positional.is_empty() => a.command = Some(arg),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn print_self_times() {
    let spans = trace::spans();
    let table = trace::self_times(&spans);
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|(_, (_, _, self_ns))| std::cmp::Reverse(*self_ns));
    eprintln!(
        "{:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, self_ns)) in rows {
        eprintln!(
            "{name:<28} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn print_measured(m: &Measured) {
    println!(
        "{} ({} reps, {} failed)",
        m.workload.name(),
        m.attempted,
        m.failed
    );
    if let Some(f) = &m.first_failure {
        println!("  first failure: {f}");
    }
    for ((name, unit), s) in END_TO_END.iter().zip(&m.end_to_end) {
        println!(
            "  {name:<34} {:>14.6e} {unit:<8} q1 {:.6e}  q3 {:.6e}  n {}",
            s.median, s.q1, s.q3, s.n
        );
    }
    for ((name, unit), v) in PER_LAYER.iter().zip(&m.per_layer) {
        println!("  {name:<34} {v:>14.6e} {unit}");
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let scale = if a.smoke { Scale::Smoke } else { Scale::Full };
    let plan = if a.smoke {
        Plan::smoke()
    } else {
        Plan::timed(a.seconds.unwrap_or(10.0))
    };
    let seed = a.seed.unwrap_or(1);
    let workloads = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let single = a.command.is_none();
    if single && workloads.len() != 1 {
        return Err("give exactly one --workload, or use `run`".into());
    }
    let traced = a.trace.unwrap_or(!single);
    let mut results = Vec::new();
    for w in workloads {
        let m = measure(w, seed, scale, &plan, traced);
        print_measured(&m);
        results.push(m);
    }
    if traced {
        print_self_times();
    }
    if let Some(path) = &a.chrome_trace {
        write_file(path, &trace::chrome_json(&trace::spans()))?;
    }
    let all_correct = results.iter().all(Measured::correct);
    if single {
        println!("{}", report::result_line(&results[0], traced));
        return Ok(ExitCode::SUCCESS);
    }
    let doc = json::obj([
        ("seed", json::Json::Num(seed as f64)),
        ("seconds", json::Json::Num(plan.seconds)),
        ("smoke", json::Json::Bool(a.smoke)),
        (
            "workloads",
            json::obj(
                results
                    .iter()
                    .map(|m| (m.workload.name(), report::workload_json(m))),
            ),
        ),
    ]);
    if let Some(path) = &a.out {
        write_file(path, &format!("{doc}\n"))?;
        println!("wrote {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(a: &Args) -> Result<ExitCode, String> {
    let [base, new] = a.positional.as_slice() else {
        return Err("usage: perfbench compare BASE.json NEW.json".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let specs = report::end_to_end_specs(report::BENCHMARK_JSON)?;
    let (text, worse) = report::compare(&specs, &read(base)?, &read(new)?);
    print!("{text}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|a| match a.command.as_deref() {
        None | Some("run") => run(&a),
        Some("compare") => compare(&a),
        Some(c) => Err(format!("unknown command `{c}`")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_single_workload_form() {
        let args = [
            "--workload",
            "raytrace_hw",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = parse_args(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workloads, vec![Workload::RaytraceHw]);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(3.0), Some(true))
        );
        for bad in [&["--trace", "2"][..], &["--workload", "nope"], &["--seed"]] {
            assert!(parse_args(bad.iter().map(|s| s.to_string())).is_err());
        }
    }

    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        for w in Workload::ALL {
            let m = measure(w, 2, Scale::Smoke, &Plan::smoke(), true);
            assert_eq!(m.first_failure, None, "{}", w.name());
            assert_eq!(m.attempted, 6, "{}", w.name());
            assert_eq!(m.failed, 0, "{}: fail_frac must be 0", w.name());
            assert!(m.end_to_end.iter().all(|s| s.median > 0.0), "{}", w.name());
            let line = report::result_line(&m, true).to_string();
            let back = json::parse(&line).unwrap();
            assert_eq!(
                back.get("metrics").unwrap().entries().count(),
                PER_LAYER.len()
            );
        }
    }
}
