//! The workloads: the systems each rep builds and runs, the inputs they
//! are generated from, and the reference results every rep is checked
//! against.
//!
//! A rep builds each system by calling the public layer functions in the
//! order the application crates' `make_cosim` runs them — program
//! builder, `bcl_core::elaborate`, `partition::partition`,
//! `Cosim::multi`, `push_source` — and then `Cosim::run_until`, timing
//! every call from outside.

use crate::alloc;
use crate::trace::{self, span};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::{partition, Partitioned};
use bcl_core::program::Program;
use bcl_core::sched::{ExecBackend, HwSim, Strategy, SwOptions, SwRunner};
use bcl_core::value::Value;
use bcl_core::xform::compile_design;
use bcl_core::Store;
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::link::{FaultConfig, PartitionFault};
use bcl_raytrace::bvh::{build_bvh, Bvh};
use bcl_raytrace::geom::{gen_rays, make_scene};
use bcl_raytrace::partitions::RtPartition;
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::VorbisPartition;
use std::collections::BTreeMap;
use std::time::Instant;

/// The backend every timed rep runs: the production path.
const BACKEND: ExecBackend = ExecBackend::Compiled;

/// Scenes per `raytrace_hw` rep.
const RT_SCENES: u64 = 8;

/// Input sizes: the measured ones, or tiny ones for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VorbisSw,
    VorbisSplit,
    RaytraceHw,
    BuildAll,
    VorbisRecover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::VorbisSw,
        Workload::VorbisSplit,
        Workload::RaytraceHw,
        Workload::BuildAll,
        Workload::VorbisRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VorbisSw => "vorbis_sw",
            Workload::VorbisSplit => "vorbis_split",
            Workload::RaytraceHw => "raytrace_hw",
            Workload::BuildAll => "build_all",
            Workload::VorbisRecover => "vorbis_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed-1, full-scale pins: modeled FPGA cycles and software CPU
    /// cycles, summed over the systems of one rep. The simulator's
    /// results are the contract: no change to it may move these.
    pub fn seed1_pins(self) -> (u64, u64) {
        match self {
            Workload::VorbisSw => (742_542, 2_970_168),
            Workload::VorbisSplit => (417_701, 196_253),
            Workload::RaytraceHw => (115_416, 199_628),
            Workload::BuildAll => (154_852, 252_692),
            Workload::VorbisRecover => (77_299, 7_830),
        }
    }

    /// The systems one rep builds and runs, generated from `seed` alone.
    pub fn jobs(self, seed: u64, scale: Scale) -> Vec<Job> {
        fn sized<T>(scale: Scale, full: T, smoke: T) -> T {
            match scale {
                Scale::Full => full,
                Scale::Smoke => smoke,
            }
        }
        let pick = |f, s| sized(scale, f, s);
        let pick64 = |f, s| sized::<u64>(scale, f, s);
        let vorbis = |part, frames: usize| {
            Job::new(App::Vorbis {
                part,
                frames: frame_stream(frames, seed),
            })
        };
        match self {
            Workload::VorbisSw => vec![vorbis(VorbisPartition::F, pick(256, 4))],
            Workload::VorbisSplit => vec![vorbis(VorbisPartition::C, pick(128, 2))],
            // Simulation cost per ray varies by tens of percent from one
            // random scene to the next, so a rep renders several scenes
            // and their average cost moves little between seeds.
            Workload::RaytraceHw => (0..pick64(RT_SCENES, 1))
                .map(|k| {
                    Job::new(App::Ray {
                        part: RtPartition::C,
                        bvh: build_bvh(&make_scene(
                            pick(1024, 32),
                            seed.wrapping_mul(RT_SCENES).wrapping_add(k),
                        )),
                        side: pick(8, 2),
                    })
                })
                .collect(),
            Workload::BuildAll => {
                let mut jobs: Vec<Job> = VorbisPartition::ALL
                    .into_iter()
                    .map(|p| vorbis(p, 1))
                    .collect();
                // 4×4 rather than 2×2: with four rays the modeled cycles
                // swing by a third between seeds, with sixteen by an eighth.
                let bvh = build_bvh(&make_scene(pick(64, 16), seed));
                jobs.extend(RtPartition::ALL.into_iter().map(|part| {
                    Job::new(App::Ray {
                        part,
                        bvh: bvh.clone(),
                        side: pick(4, 2),
                    })
                }));
                jobs
            }
            Workload::VorbisRecover => {
                let mut job = vorbis(VorbisPartition::E, pick(128, 4));
                job.faults = FaultConfig::uniform(seed, 0.02, 0.01, 0.01, 0.01)
                    .with_partition_fault(PartitionFault::ResetAt(pick64(40_000, 2_500)));
                job.policy = RecoveryPolicy::restart(pick64(5_000, 500));
                job.migrate_at = Some(pick64(35_000, 2_000));
                vec![job]
            }
        }
    }
}

enum App {
    Vorbis {
        part: VorbisPartition,
        frames: Vec<Vec<i64>>,
    },
    /// A `side`×`side` image.
    Ray {
        part: RtPartition,
        bvh: Bvh,
        side: usize,
    },
}

/// One system: an application partition with its inputs, link faults,
/// recovery policy, and optional live migration.
pub struct Job {
    app: App,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    /// Migrate through `BCKP` bytes into a freshly built system at this
    /// FPGA cycle.
    migrate_at: Option<u64>,
}

/// What a rep must reproduce for one job.
pub struct Expect {
    /// The hand-written (F2) decoder's PCM or renderer's image.
    pub output: Vec<i64>,
    /// FPGA cycles of the reference run.
    pub fpga_cycles: u64,
    /// Software CPU cycles of the reference run.
    pub sw_cpu_cycles: u64,
}

/// The measurements of one job within one rep.
pub struct JobOut {
    pub setup_ns: u64,
    /// Setup plus simulation, including any migration; output checks
    /// excluded.
    pub wall_ns: u64,
    pub fpga_cycles: u64,
    pub sw_cpu_cycles: u64,
    /// Peak live heap bytes above the job's starting point.
    pub peak_heap: u64,
    pub output: Vec<i64>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Job {
    fn new(app: App) -> Job {
        Job {
            app,
            faults: FaultConfig::none(),
            policy: RecoveryPolicy::Fail,
            migrate_at: None,
        }
    }

    pub fn label(&self) -> String {
        match &self.app {
            App::Vorbis { part, .. } => format!("vorbis {}", part.label()),
            App::Ray { part, .. } => format!("raytrace {}", part.label()),
        }
    }

    fn program(&self) -> Program {
        match &self.app {
            App::Vorbis { part, .. } => {
                bcl_vorbis::bcl::build_backend(&bcl_vorbis::bcl::BackendOptions {
                    domains: part.domains(),
                    ..Default::default()
                })
            }
            App::Ray { part, bvh, side } => {
                bcl_raytrace::bcl::build_tracer(bvh, &part.config(*side, *side))
            }
        }
    }

    /// Hardware domains in configuration order; an all-software system
    /// keeps the two-domain shape with one (absent) `HW` partition.
    fn hw_domains(&self) -> Vec<String> {
        let placed: Vec<String> = match &self.app {
            App::Vorbis { part, .. } => {
                let d = part.domains();
                vec![d.imdct, d.ifft, d.window]
            }
            App::Ray { part, side, .. } => {
                let c = part.config(*side, *side);
                vec![c.trav, c.geom]
            }
        };
        let mut out: Vec<String> = Vec::new();
        for d in placed {
            if d != SW && !out.contains(&d) {
                out.push(d);
            }
        }
        if out.is_empty() {
            out.push(HW.to_string());
        }
        out
    }

    fn sw_options() -> SwOptions {
        SwOptions {
            strategy: Strategy::Dataflow,
            event_driven: BACKEND.event_driven(),
            flat: BACKEND.flat(),
            compiled: BACKEND.compiled(),
            ..Default::default()
        }
    }

    fn build(&self, parts: &Partitioned) -> Result<Cosim, String> {
        let link = match self.app {
            App::Vorbis { .. } => bcl_vorbis::partitions::ml507_link(),
            App::Ray { .. } => bcl_raytrace::partitions::ml507_link(),
        };
        let cfgs: Vec<HwPartitionCfg> = self
            .hw_domains()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let cfg = HwPartitionCfg::new(d)
                    .with_link(link)
                    .with_event_driven(BACKEND.event_driven())
                    .with_compiled(BACKEND.compiled());
                if i == 0 {
                    cfg.with_faults(self.faults.clone())
                } else {
                    cfg
                }
            })
            .collect();
        let mut c = Cosim::multi(parts, SW, &cfgs, InterHwRouting::ViaHub, Job::sw_options())
            .map_err(err)?;
        c.set_recovery_policy(self.policy);
        Ok(c)
    }

    fn enqueue(&self, c: &mut Cosim) {
        match &self.app {
            App::Vorbis { frames, .. } => {
                for f in frames {
                    c.push_source("src", bcl_vorbis::bcl::frame_value(f));
                }
            }
            App::Ray { side, .. } => {
                for p in 0..(side * side) as i64 {
                    c.push_source("pixSrc", Value::int(32, p));
                }
            }
        }
    }

    fn sink(&self) -> &'static str {
        match self.app {
            App::Vorbis { .. } => "audioDev",
            App::Ray { .. } => "bitmap",
        }
    }

    /// Values the sink holds once the run is complete.
    fn want(&self) -> usize {
        match &self.app {
            App::Vorbis { frames, .. } => frames.len(),
            App::Ray { side, .. } => side * side,
        }
    }

    /// The application crates' own cycle limits.
    fn max_cycles(&self) -> u64 {
        let n = self.want() as u64;
        let base = match self.app {
            App::Vorbis { .. } => 40_000 * n + 10_000,
            App::Ray { .. } => 60_000 * n + 50_000,
        };
        if self.faults.is_active() || self.faults.has_partition_faults() {
            base.saturating_mul(500)
        } else {
            base
        }
    }

    fn output(&self, c: &Cosim) -> Vec<i64> {
        let values = c.sink_values(self.sink());
        match self.app {
            App::Vorbis { .. } => bcl_vorbis::bcl::pcm_of_values(values),
            App::Ray { .. } => bcl_raytrace::bcl::image_of_values(values, self.want()),
        }
    }

    /// The hand-written F2 baseline on the same inputs.
    pub fn native(&self) -> Vec<i64> {
        match &self.app {
            App::Vorbis { frames, .. } => NativeBackend::new().run(frames),
            App::Ray { bvh, side, .. } => {
                bcl_raytrace::native::render(bvh, &gen_rays(*side, *side))
            }
        }
    }

    /// Runs the system once through the application crate's own
    /// `make_cosim` on the naive reference scheduler (no migration),
    /// and returns what every timed rep must reproduce.
    pub fn reference(&self) -> Result<Expect, String> {
        let mut c = match &self.app {
            App::Vorbis { part, frames } => bcl_vorbis::partitions::make_cosim(
                *part,
                frames,
                self.faults.clone(),
                self.policy,
                false,
            ),
            App::Ray { part, bvh, side } => bcl_raytrace::partitions::make_cosim(
                *part,
                bvh,
                *side,
                *side,
                self.faults.clone(),
                self.policy,
                false,
            ),
        }
        .map_err(err)?;
        let (sink, want) = (self.sink(), self.want());
        let out = c
            .run_until(|c| c.sink_count(sink) == want, self.max_cycles())
            .map_err(err)?;
        if !out.is_done() {
            return Err(format!(
                "{}: reference run did not finish: {out:?}",
                self.label()
            ));
        }
        Ok(Expect {
            output: self.native(),
            fpga_cycles: out.fpga_cycles(),
            sw_cpu_cycles: c.sw.cpu_cycles(),
        })
    }

    /// Program build to inputs queued, one span per layer call. Each
    /// span's closure takes ownership of the previous layer's output, so
    /// freeing it is charged to the layer that consumed it and the spans
    /// cover the whole setup.
    fn setup(&self) -> Result<(Cosim, Partitioned), String> {
        let program = span("builder.program", || self.program());
        let design = span("core.elab", move || bcl_core::elaborate(&program)).map_err(err)?;
        let parts = span("core.partition", move || partition(&design, SW)).map_err(err)?;
        let mut cosim = span("platform.cosim.build", || self.build(&parts))?;
        span("platform.cosim.enqueue", || self.enqueue(&mut cosim));
        Ok((cosim, parts))
    }

    /// One timed run of this job. Per-layer counters are added to
    /// `layer`; with tracing on, the construction probes run afterwards,
    /// outside the timed path.
    pub fn run(&self, layer: &mut BTreeMap<&'static str, f64>) -> Result<JobOut, String> {
        let heap_base = alloc::reset_peak();
        let heap = alloc::mark();
        let t0 = Instant::now();
        let (mut cosim, parts) = span("setup", || self.setup())?;
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let (setup_allocs, setup_bytes) = heap.since();

        let heap = alloc::mark();
        let max = self.max_cycles();
        let mut migrated = None;
        if let Some(at) = self.migrate_at {
            let out = span("platform.cosim.run", || {
                cosim.run_until(|c| c.fpga_cycles >= at, max)
            })
            .map_err(err)?;
            if !out.is_done() {
                return Err(format!(
                    "{} never reached cycle {at}: {out:?}",
                    self.label()
                ));
            }
            let bytes = span("platform.persist.encode", || cosim.snapshot_bytes()).map_err(err)?;
            let copied = cosim.checkpoint_copied_words();
            drop(cosim);
            cosim = span("platform.persist.rebuild", || {
                trace::paused(|| self.setup())
            })?
            .0;
            span("platform.persist.decode", || {
                cosim.resume_from(&mut bytes.as_slice())
            })
            .map_err(err)?;
            migrated = Some((bytes.len(), copied));
        }
        let (sink, want) = (self.sink(), self.want());
        let out = span("platform.cosim.run", || {
            cosim.run_until(|c| c.sink_count(sink) == want, max)
        })
        .map_err(err)?;
        let end = Instant::now();
        let (run_allocs, run_bytes) = heap.since();
        let peak_heap = alloc::peak_above(heap_base);
        if !out.is_done() {
            return Err(format!("{} did not finish: {out:?}", self.label()));
        }

        let sw = cosim.sw.report();
        let (evals, skipped) = cosim.guard_eval_totals();
        let link = cosim.link_stats();
        let transport = cosim.transport_stats();
        let (snapshot_bytes, copied) = migrated.unwrap_or((0, 0));
        let counts = [
            ("heap.setup_allocs", setup_allocs),
            ("heap.setup_bytes", setup_bytes),
            ("heap.run_allocs", run_allocs),
            ("heap.run_bytes", run_bytes),
            ("core.sched_sw.fired", sw.total_fired),
            ("core.sched_sw.failed", sw.failed.iter().sum()),
            ("core.sched_sw.cpu_cycles", sw.cpu_cycles),
            ("core.sched.guard_evals", evals),
            ("core.sched.guard_evals_skipped", skipped),
            ("platform.link.words", link.words_to_hw + link.words_to_sw),
            ("platform.link.msgs", link.msgs_to_hw + link.msgs_to_sw),
            ("platform.link.faults_injected", link.faults_injected()),
            (
                "platform.transactor.crc_rejects",
                transport.crc_rejects_to_hw + transport.crc_rejects_to_sw,
            ),
            (
                "platform.transactor.ack_frames",
                transport.ack_frames_to_hw + transport.ack_frames_to_sw,
            ),
            (
                "core.store.checkpoint_copied_words",
                copied + cosim.checkpoint_copied_words(),
            ),
            ("platform.persist.snapshot_bytes", snapshot_bytes as u64),
        ];
        for (k, v) in counts {
            *layer.entry(k).or_insert(0.0) += v as f64;
        }
        let result = JobOut {
            setup_ns,
            wall_ns: end.duration_since(t0).as_nanos() as u64,
            fpga_cycles: out.fpga_cycles(),
            sw_cpu_cycles: sw.cpu_cycles,
            peak_heap,
            output: self.output(&cosim),
        };
        drop(cosim);
        if trace::enabled() {
            span("probe", || self.probes(&parts))?;
        }
        Ok(result)
    }

    /// Splits `Cosim::multi` by repeating its expensive inner calls on
    /// the partitioned design: rule planning, the software runner, and
    /// each hardware simulator.
    fn probes(&self, parts: &Partitioned) -> Result<(), String> {
        let opts = Job::sw_options();
        let sw = parts.partition(SW).map_err(err)?;
        drop(span("core.xform.plan", || compile_design(sw, opts.compile)));
        drop(span("core.sched_sw.new", || SwRunner::new(sw, opts)));
        for d in self.hw_domains() {
            if let Ok(design) = parts.partition(&d) {
                let hw = span("core.sched_hw.new", || {
                    HwSim::with_store(design, Store::new_like(design, opts.flat))
                });
                drop(hw.map_err(err)?);
            }
        }
        Ok(())
    }
}
