//! The differential harness: one generated design, the reference and
//! the compiled executor, one verdict.
//!
//! [`run_case`] pushes a spec through the full toolchain and then runs
//! the elaborated design on both executors the workspace has
//! ([`ExecBackend`]):
//!
//! 1. the reference (`SwRunner` on [`ExecBackend::Naive`]: naive
//!    scheduling, the AST interpreter, the tree store),
//! 2. compiled software ([`ExecBackend::Compiled`]: event-driven
//!    scheduling, native closures, the flat arena store), which must
//!    match the reference *cycle-identically* (same `cpu_cycles`, same
//!    per-rule firing and failure counts), not just value-identically,
//! 3. the fused single-process design (`fuse_partitioned`) on the
//!    compiled backend, and
//! 4. the compiled N-partition co-simulation under the given fault plan.
//!
//! Every compiled run must also lower every rule: an interpreted rule
//! on the compiled backend ([`SwRunner::interpreted_rules`]) fails the
//! case. All output streams must equal the spec's gold model bit-for-bit. For
//! fault-free plans the co-simulation additionally runs on the naive
//! reference hardware scheduler, and the modeled FPGA cycle counts must
//! agree exactly.
//!
//! Failures come back as `Err(String)` with the pretty-printed program
//! embedded, so a failing case can be promoted into `tests/corpus/`
//! verbatim.

use crate::gen::{build_program, expected_outputs, DesignSpec, FaultPlan};
use bcl_core::domain::SW;
use bcl_core::partition::{fuse_partitioned, partition};
use bcl_core::sched::{ExecBackend, Strategy, SwOptions, SwRunner};
use bcl_core::value::Value;
use bcl_core::{analysis, elaborate, Design};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting};

/// Firing budget for the pure-software runs (generated designs process
/// at most a dozen items through a handful of stages).
const SW_BUDGET: u64 = 1_000_000;

/// Cycle budget for the co-simulated runs (large enough to ride out
/// go-back-N retransmission storms and late revivals).
const COSIM_BUDGET: u64 = 4_000_000;

fn sink_ints(d: &Design, runner: &SwRunner, path: &str) -> Result<Vec<i64>, String> {
    let id = d
        .prim_id(path)
        .ok_or_else(|| format!("design lost its `{path}` sink"))?;
    runner
        .store
        .try_sink_values(id)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| v.as_int().map_err(|e| e.to_string()))
        .collect()
}

/// Fails when a compiled run left `n` rules to the interpreter.
fn all_lowered(what: &str, n: usize) -> Result<(), String> {
    if n == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {n} rules run on the interpreter"))
    }
}

fn run_sw(d: &Design, spec: &DesignSpec, backend: ExecBackend) -> Result<SwRunner, String> {
    let opts = SwOptions {
        strategy: Strategy::Dataflow,
        ..backend.sw_options()
    };
    let mut r = SwRunner::new(d, opts).map_err(|e| e.to_string())?;
    if backend.compiled() {
        all_lowered("compiled software", r.interpreted_rules())?;
    }
    let src = d
        .prim_id("src")
        .ok_or_else(|| "design lost its `src` source".to_string())?;
    for &v in &spec.items {
        r.store
            .try_push_source(src, Value::int(spec.width, v))
            .map_err(|e| e.to_string())?;
    }
    let fired = r
        .run_until_quiescent(SW_BUDGET)
        .map_err(|e| format!("software run failed: {e}"))?;
    if fired >= SW_BUDGET {
        return Err(format!(
            "software run did not quiesce in {SW_BUDGET} firings"
        ));
    }
    Ok(r)
}

/// Runs one generated case through every executor; `Err` carries a
/// human-readable report including the pretty-printed program.
pub fn run_case(spec: &DesignSpec, plan: &FaultPlan) -> Result<(), String> {
    let program = build_program(spec);
    let text = bcl_frontend::pretty::pretty_program(&program);
    run_case_inner(spec, plan, &program)
        .map_err(|e| format!("{e}\nspec: {spec:?}\nplan: {plan:?}\nprogram:\n{text}"))
}

fn run_case_inner(
    spec: &DesignSpec,
    plan: &FaultPlan,
    program: &bcl_core::program::Program,
) -> Result<(), String> {
    // Front door: a generated spec is well-typed by construction, so
    // every static stage must accept it.
    bcl_frontend::typecheck::typecheck(program).map_err(|e| format!("typecheck: {e}"))?;
    let design = elaborate(program).map_err(|e| format!("elaborate: {e}"))?;
    analysis::validate(&design).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        format!("validate rejected a generated design: {}", msgs.join("; "))
    })?;

    let gold = expected_outputs(spec);

    // The reference: naive interpreter.
    let naive = run_sw(&design, spec, ExecBackend::Naive)?;
    let got = sink_ints(&design, &naive, "snk")?;
    if got != gold {
        return Err(format!(
            "reference interpreter disagrees with gold model:\n  got  {got:?}\n  want {gold:?}"
        ));
    }

    // Compiled software — value- and cycle-identical to the reference.
    let compiled = run_sw(&design, spec, ExecBackend::Compiled)?;
    let got = sink_ints(&design, &compiled, "snk")?;
    if got != gold {
        return Err(format!(
            "compiled backend disagrees with gold model:\n  got  {got:?}\n  want {gold:?}"
        ));
    }
    let (rn, rc) = (naive.report(), compiled.report());
    if rn != rc {
        return Err(format!(
            "compiled backend is not cycle-identical to the reference:\n  \
             naive {rn:?}\n  compiled {rc:?}"
        ));
    }

    // Fused single-process design.
    let parts = partition(&design, SW).map_err(|e| format!("partition: {e}"))?;
    let fused = fuse_partitioned(&parts).map_err(|e| format!("fuse: {e}"))?;
    let fused_run = run_sw(&fused, spec, ExecBackend::Compiled)?;
    let got = sink_ints(&fused, &fused_run, "snk")?;
    if got != gold {
        return Err(format!(
            "fused design disagrees with gold model:\n  got  {got:?}\n  want {gold:?}"
        ));
    }

    // N-partition co-simulation under the fault plan.
    let hw = parts.hw_domains(SW);
    let cosim_cycles_of = |backend: ExecBackend| -> Result<(Vec<i64>, u64), String> {
        let cfgs: Vec<HwPartitionCfg> = hw
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let fc = if i == 0 {
                    plan.fault_config()
                } else {
                    plan.link_only_config()
                };
                HwPartitionCfg::new(d)
                    .with_faults(fc)
                    .with_event_driven(backend.event_driven())
                    .with_compiled(backend.compiled())
            })
            .collect();
        let routing = if plan.fabric {
            InterHwRouting::fabric()
        } else {
            InterHwRouting::ViaHub
        };
        let mut cs = Cosim::multi(&parts, SW, &cfgs, routing, backend.sw_options())
            .map_err(|e| format!("cosim setup: {e}"))?;
        if backend.compiled() {
            all_lowered("compiled co-simulation", cs.interpreted_rules())?;
        }
        if let Some(p) = plan.recovery() {
            cs.set_recovery_policy(p);
        }
        for &v in &spec.items {
            cs.try_push_source("src", Value::int(spec.width, v))
                .map_err(|e| format!("cosim push: {e}"))?;
        }
        let n = gold.len();
        let out = cs
            .run_until(|c| c.sink_count("snk") == n, COSIM_BUDGET)
            .map_err(|e| format!("cosim run: {e}"))?;
        if !out.is_done() {
            return Err(format!(
                "cosim did not deliver all {n} outputs within {COSIM_BUDGET} cycles (got {})",
                cs.sink_count("snk")
            ));
        }
        if backend.compiled() {
            // A failover rebuilds the software runner over a fused design.
            all_lowered(
                "compiled co-simulation after the run",
                cs.interpreted_rules(),
            )?;
        }
        let got: Vec<i64> = cs
            .sink_values("snk")
            .iter()
            .map(|v| v.as_int().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok((got, out.fpga_cycles()))
    };

    let (got, cycles_compiled) = cosim_cycles_of(ExecBackend::Compiled)?;
    if got != gold {
        return Err(format!(
            "compiled co-simulation disagrees with gold model:\n  got  {got:?}\n  want {gold:?}"
        ));
    }

    // For fault-free plans the naive reference and compiled hardware
    // schedulers must also agree on modeled FPGA time exactly.
    if plan.is_fault_free() && !hw.is_empty() {
        let (got, cycles_naive) = cosim_cycles_of(ExecBackend::Naive)?;
        if got != gold {
            return Err(format!(
                "reference co-simulation disagrees with gold model:\n  \
                 got  {got:?}\n  want {gold:?}"
            ));
        }
        if cycles_compiled != cycles_naive {
            return Err(format!(
                "compiled hardware is not cycle-identical to naive hardware: \
                 {cycles_compiled} vs {cycles_naive} FPGA cycles"
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{PartitionPlan, StageSpec, Transform};

    fn spec() -> DesignSpec {
        DesignSpec {
            width: 16,
            depth: 2,
            stages: vec![
                StageSpec {
                    domain: 1,
                    transform: Transform::AddConst(7),
                },
                StageSpec {
                    domain: 2,
                    transform: Transform::RegFileMix(4),
                },
            ],
            diamond: None,
            wrap_stage: None,
            items: vec![1, 2, 3, 2, 1],
        }
    }

    #[test]
    fn clean_case_passes() {
        run_case(&spec(), &FaultPlan::quiet()).unwrap();
    }

    #[test]
    fn faulted_case_passes() {
        let plan = FaultPlan {
            seed: 7,
            drop: 20,
            corrupt: 10,
            dup: 10,
            reorder: 10,
            fabric: true,
            partition: Some(PartitionPlan::Die {
                at: 40,
                interval: 25,
            }),
        };
        run_case(&spec(), &plan).unwrap();
    }

    /// The aggregate transform at 63 and 64 bits, wrapped in a
    /// submodule and split across partitions: packed regions wider than
    /// one word on every compiled leg.
    #[test]
    fn wide_aggregate_case_passes() {
        for width in [63, 64] {
            let mut s = spec();
            s.width = width;
            s.stages[0].transform = Transform::AggLet(3);
            s.stages[1].transform = Transform::AggLet(120);
            s.wrap_stage = Some(0);
            s.items = vec![0, 1, 2, 3, 119, 120, 127];
            run_case(&s, &FaultPlan::quiet()).unwrap();
        }
    }

    #[test]
    fn all_software_case_passes() {
        let mut s = spec();
        for st in &mut s.stages {
            st.domain = 0;
        }
        run_case(&s, &FaultPlan::quiet()).unwrap();
    }
}
