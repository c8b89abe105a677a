//! Timed reps of one workload, their correctness checks, and the
//! metrics they add up to.

use crate::stats::{self, Summary};
use crate::trace;
use crate::workload::{Expect, Job, Scale, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_heap_bytes", "B"),
];

/// Layer spans and the per-layer metric each one's per-rep total feeds.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("builder.program", "builder.program_ns"),
    ("core.elab", "core.elab_ns"),
    ("core.partition", "core.partition_ns"),
    ("platform.cosim.build", "platform.cosim.build_ns"),
    ("platform.cosim.enqueue", "platform.cosim.enqueue_ns"),
    ("platform.cosim.run", "platform.cosim.run_ns"),
    ("platform.persist.encode", "platform.persist.encode_ns"),
    ("platform.persist.decode", "platform.persist.decode_ns"),
    ("platform.persist.rebuild", "platform.persist.rebuild_ns"),
    ("core.xform.plan", "core.xform.plan_ns"),
    ("core.sched_sw.new", "core.sched_sw.new_ns"),
    ("core.sched_hw.new", "core.sched_hw.new_ns"),
];

/// The spans that together make up a system's setup.
const CONSTRUCTION: [&str; 5] = [
    "builder.program",
    "core.elab",
    "core.partition",
    "platform.cosim.build",
    "platform.cosim.enqueue",
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("builder.program_ns", "ns"),
    ("core.elab_ns", "ns"),
    ("core.partition_ns", "ns"),
    ("platform.cosim.build_ns", "ns"),
    ("platform.cosim.enqueue_ns", "ns"),
    ("heap.setup_allocs", "count"),
    ("heap.setup_bytes", "B"),
    ("setup.first_rep_s", "s"),
    ("core.xform.plan_ns", "ns"),
    ("core.sched_sw.new_ns", "ns"),
    ("core.sched_hw.new_ns", "ns"),
    ("platform.cosim.run_ns", "ns"),
    ("heap.run_allocs", "count"),
    ("heap.run_bytes", "B"),
    ("heap.run_allocs_per_kcycle", "1/kcycle"),
    ("heap.repeatable", "bool"),
    ("core.sched_sw.fired", "count"),
    ("core.sched_sw.failed", "count"),
    ("core.sched_sw.fire_ratio", "ratio"),
    ("core.sched_sw.cpu_cycles", "cycles"),
    ("core.sched_sw.ns_per_firing", "ns"),
    ("core.sched.guard_evals", "count"),
    ("core.sched.guard_evals_skipped", "count"),
    ("core.sched.guard_skip_ratio", "ratio"),
    ("platform.link.words", "count"),
    ("platform.link.msgs", "count"),
    ("platform.link.faults_injected", "count"),
    ("platform.run.ns_per_link_word", "ns"),
    ("platform.persist.encode_ns", "ns"),
    ("platform.persist.decode_ns", "ns"),
    ("platform.persist.rebuild_ns", "ns"),
    ("platform.persist.snapshot_bytes", "B"),
    ("platform.transactor.crc_rejects", "count"),
    ("platform.transactor.ack_frames", "count"),
    ("core.store.checkpoint_copied_words", "count"),
    ("model.fpga_cycles", "cycles"),
    ("model.sw_cpu_cycles", "cycles"),
    ("native.f2_ns", "ns"),
    ("native.ratio", "ratio"),
    ("tail.percentile", "pct"),
    ("tail.setup_s", "s"),
    ("tail.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.construction_frac", "ratio"),
    ("reps.untraced", "count"),
    ("reps.traced", "count"),
];

/// How many reps a phase runs: after the warm-up, at least `min_reps`,
/// and more until `seconds` have passed. The traced phase gets half the
/// time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded reps before timing starts.
    pub warmup: u32,
    pub min_reps: u32,
    pub seconds: f64,
}

impl Plan {
    /// The measured plan: two warm-up reps, then reps for `seconds`.
    pub fn timed(seconds: f64) -> Plan {
        Plan {
            warmup: 2,
            min_reps: 5,
            seconds,
        }
    }

    /// Exactly three reps, for `--smoke` and tests.
    pub fn smoke() -> Plan {
        Plan {
            warmup: 1,
            min_reps: 3,
            seconds: 0.0,
        }
    }
}

/// The metrics of one workload.
pub struct Measured {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed rep failed.
    pub first_failure: Option<String>,
    /// Summaries of the untraced phase, in [`END_TO_END`] order.
    pub end_to_end: Vec<Summary>,
    /// Per-layer values, in [`PER_LAYER`] order; empty unless traced.
    pub per_layer: Vec<f64>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Samples of one phase, one map per successful rep.
struct Phase {
    reps: Vec<BTreeMap<&'static str, f64>>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Setup time of the phase's first (warm-up) rep. For the first
    /// phase this is the process's first rep, so work moved into a
    /// process-wide cache shows up here.
    first_setup_s: f64,
}

struct Prepared {
    jobs: Vec<Job>,
    /// Per job; `Err` when its reference run failed, which fails every
    /// rep.
    expect: Vec<Result<Expect, String>>,
    /// Every rep's summed (FPGA, CPU) cycles must equal these too.
    pins: Option<(u64, u64)>,
    f2_ns: f64,
}

fn prepare(w: Workload, seed: u64, scale: Scale) -> Prepared {
    let jobs = w.jobs(seed, scale);
    let t = Instant::now();
    let expect = jobs
        .iter()
        .map(|j| {
            catch_unwind(AssertUnwindSafe(|| j.reference()))
                .unwrap_or_else(|_| Err("panicked".to_string()))
                .map_err(|e| format!("reference run of {} failed: {e}", j.label()))
        })
        .collect();
    eprintln!(
        "perfbench: {}: reference runs took {:.1} s",
        w.name(),
        t.elapsed().as_secs_f64()
    );
    let pins = (seed == 1 && scale == Scale::Full).then(|| w.seed1_pins());
    // The F2 baseline's time: the median of five runs.
    let f2: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for j in &jobs {
                std::hint::black_box(j.native());
            }
            t.elapsed().as_nanos() as f64
        })
        .collect();
    Prepared {
        jobs,
        expect,
        pins,
        f2_ns: stats::median(&f2),
    }
}

/// Runs one rep of every job and checks it; the samples go into `m`.
fn one_rep(p: &Prepared, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let (mut setup, mut wall, mut fpga, mut cpu, mut peak) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (job, exp) in p.jobs.iter().zip(&p.expect) {
        let out = job.run(m)?;
        let exp = exp.as_ref()?;
        setup += out.setup_ns;
        wall += out.wall_ns;
        fpga += out.fpga_cycles;
        cpu += out.sw_cpu_cycles;
        peak = peak.max(out.peak_heap);
        if out.output != exp.output {
            return Err(format!(
                "{}: output differs from the F2 baseline",
                job.label()
            ));
        }
        if (out.fpga_cycles, out.sw_cpu_cycles) != (exp.fpga_cycles, exp.sw_cpu_cycles) {
            return Err(format!(
                "{}: (fpga, cpu) cycles ({}, {}) differ from the reference ({}, {})",
                job.label(),
                out.fpga_cycles,
                out.sw_cpu_cycles,
                exp.fpga_cycles,
                exp.sw_cpu_cycles
            ));
        }
    }
    if let Some(pins) = p.pins.filter(|&pins| pins != (fpga, cpu)) {
        return Err(format!(
            "seed-1 pins moved: (fpga, cpu) cycles ({fpga}, {cpu}), pinned {pins:?}"
        ));
    }
    m.insert("setup_s", setup as f64 / 1e9);
    m.insert("wall_s", wall as f64 / 1e9);
    m.insert(
        "sim_cycles_per_s",
        fpga as f64 / ((wall - setup).max(1) as f64 / 1e9),
    );
    m.insert("peak_heap_bytes", peak as f64);
    m.insert("model.fpga_cycles", fpga as f64);
    m.insert("model.sw_cpu_cycles", cpu as f64);
    Ok(())
}

/// Adds the traced rep's span totals and the ratios derived from them.
fn add_layer_times(m: &mut BTreeMap<&'static str, f64>, rep: u32, f2_ns: f64) {
    let totals = trace::rep_totals(rep);
    let ns = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    for (span, metric) in SPAN_METRICS {
        m.insert(metric, ns(span));
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let run_ns = ns("platform.cosim.run");
    let construction: f64 = CONSTRUCTION.iter().map(|s| ns(s)).sum();
    let (fired, failed) = (
        get(m, "core.sched_sw.fired"),
        get(m, "core.sched_sw.failed"),
    );
    let (evals, skipped) = (
        get(m, "core.sched.guard_evals"),
        get(m, "core.sched.guard_evals_skipped"),
    );
    let derived = [
        (
            "heap.run_allocs_per_kcycle",
            ratio(get(m, "heap.run_allocs") * 1e3, get(m, "model.fpga_cycles")),
        ),
        ("core.sched_sw.fire_ratio", ratio(fired, fired + failed)),
        ("core.sched_sw.ns_per_firing", ratio(run_ns, fired)),
        (
            "core.sched.guard_skip_ratio",
            ratio(skipped, evals + skipped),
        ),
        (
            "platform.run.ns_per_link_word",
            ratio(run_ns, get(m, "platform.link.words")),
        ),
        ("native.ratio", ratio(run_ns, f2_ns)),
        (
            "trace.construction_frac",
            ratio(construction, get(m, "setup_s") * 1e9),
        ),
    ];
    for (k, v) in derived {
        m.insert(k, v);
    }
}

fn run_phase(p: &Prepared, plan: &Plan, traced: bool, rep_id: &mut u32) -> Phase {
    trace::set_enabled(traced);
    let mut phase = Phase {
        reps: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
        first_setup_s: 0.0,
    };
    let mut start = Instant::now();
    for i in 0.. {
        let warm = i < plan.warmup;
        if i == plan.warmup {
            start = Instant::now();
        }
        if !warm
            && phase.attempted >= u64::from(plan.min_reps)
            && start.elapsed().as_secs_f64() >= plan.seconds
        {
            break;
        }
        *rep_id += 1;
        trace::begin_rep(*rep_id);
        let mut m = BTreeMap::new();
        let res = catch_unwind(AssertUnwindSafe(|| one_rep(p, &mut m)))
            .unwrap_or_else(|_| Err("rep panicked".to_string()));
        if i == 0 {
            phase.first_setup_s = m.get("setup_s").copied().unwrap_or(0.0);
        }
        if warm {
            continue;
        }
        phase.attempted += 1;
        match res {
            Ok(()) => {
                if traced {
                    add_layer_times(&mut m, *rep_id, p.f2_ns);
                }
                phase.reps.push(m);
            }
            Err(e) => {
                phase.failed += 1;
                phase.first_error.get_or_insert(e);
            }
        }
    }
    trace::set_enabled(false);
    phase
}

fn column(reps: &[BTreeMap<&'static str, f64>], key: &str) -> Vec<f64> {
    reps.iter().filter_map(|m| m.get(key).copied()).collect()
}

/// Whether every rep made the same number of allocations in setup and
/// in the run. The reps repeat identical inputs, so they should; the
/// benchmark says so when they do not.
fn heap_repeatable(reps: &[BTreeMap<&'static str, f64>]) -> bool {
    let same = ["heap.setup_allocs", "heap.run_allocs"].iter().all(|k| {
        let c = column(reps, k);
        c.windows(2).all(|w| w[0] == w[1])
    });
    if !same {
        eprintln!("perfbench: reps with identical inputs made different allocation counts");
    }
    same
}

/// Measures workload `w`: an untraced phase for the end-to-end metrics
/// and, when `traced`, a traced phase for the per-layer ones.
pub fn measure(w: Workload, seed: u64, scale: Scale, plan: &Plan, traced: bool) -> Measured {
    let p = prepare(w, seed, scale);
    let mut rep_id = 0u32;
    let plain = run_phase(&p, plan, false, &mut rep_id);
    let mut first_failure = plain.first_error.clone();
    let end_to_end: Vec<Summary> = END_TO_END
        .iter()
        .map(|(k, _)| stats::summarize(&column(&plain.reps, k)))
        .collect();
    let repeatable = heap_repeatable(&plain.reps);
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut per_layer = Vec::new();
    if traced {
        let half = Plan {
            seconds: plan.seconds / 2.0,
            ..*plan
        };
        let t = run_phase(&p, &half, true, &mut rep_id);
        attempted += t.attempted;
        failed += t.failed;
        first_failure = first_failure.or(t.first_error.clone());
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, _) in PER_LAYER {
            v.insert(k, stats::median(&column(&t.reps, k)));
        }
        let wall = column(&plain.reps, "wall_s");
        let setup = column(&plain.reps, "setup_s");
        if let Some(pct) = stats::tail_percentile(wall.len()) {
            v.insert("tail.percentile", f64::from(pct));
            v.insert("tail.setup_s", stats::percentile(&setup, pct));
            v.insert("tail.wall_s", stats::percentile(&wall, pct));
        }
        let traced_wall = stats::median(&column(&t.reps, "wall_s"));
        let plain_wall = end_to_end[1].median;
        v.insert(
            "trace.overhead_frac",
            if plain_wall > 0.0 {
                traced_wall / plain_wall - 1.0
            } else {
                0.0
            },
        );
        v.insert("native.f2_ns", p.f2_ns);
        v.insert("setup.first_rep_s", plain.first_setup_s);
        v.insert("reps.untraced", plain.reps.len() as f64);
        v.insert("reps.traced", t.reps.len() as f64);
        v.insert("heap.repeatable", f64::from(u8::from(repeatable)));
        per_layer = PER_LAYER.iter().map(|(k, _)| v[k]).collect();
    }
    Measured {
        workload: w,
        attempted,
        failed,
        first_failure,
        end_to_end,
        per_layer,
    }
}
