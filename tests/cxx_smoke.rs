//! Compile-and-run smoke for the C++ backend (§6 of the paper).
//!
//! Emits a standalone program for the full-software Vorbis partition
//! (partition F), builds it with the system C++ compiler, runs it, and
//! diffs its sink stream bit-for-bit against the cosimulator running
//! the same frames. Both generated styles are exercised: the
//! transactional Figure 9 code (`lift: false`) and the guard-lifted
//! in-situ Figure 10 code (`lift: true`).
//!
//! Skips gracefully (with a message) when no C++ compiler is on PATH.

use bcl_backend::cxx::{emit_cxx_harness, flatten_value, CxxOptions};
use bcl_core::sched::ExecBackend;
use bcl_core::value::Value;
use bcl_platform::cosim::RecoveryPolicy;
use bcl_platform::harness;
use bcl_platform::link::FaultConfig;
use bcl_vorbis::bcl::{build_design, frame_value, BackendOptions};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{Decode, VorbisPartition};
use std::process::Command;

/// Locates a working C++ compiler, trying the usual names.
fn find_cxx() -> Option<&'static str> {
    ["c++", "g++", "clang++"].into_iter().find(|cc| {
        Command::new(cc)
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    })
}

/// Runs the simulator on `frames` and returns the sink stream flattened
/// to the decimal-leaf form the generated C++ program prints.
fn simulator_sink_leaves(frames: &[Vec<i64>]) -> Vec<i64> {
    let mut cosim = harness::build(
        &Decode(VorbisPartition::F, frames),
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Compiled,
    )
    .unwrap();
    let want = frames.len();
    cosim
        .run_until(|c| c.sink_count("audioDev") == want, 1_000_000)
        .unwrap();
    assert_eq!(
        cosim.sink_count("audioDev"),
        want,
        "simulator did not drain"
    );
    let mut out = Vec::new();
    for v in cosim.sink_values("audioDev") {
        flatten_value(v, &mut out);
    }
    out
}

/// Compiles `code` with `cc` and returns the parsed stdout of the
/// resulting binary (one decimal integer per line).
fn compile_and_run(cc: &str, code: &str, name: &str) -> Vec<i64> {
    let dir = std::env::temp_dir().join(format!("bcl_cxx_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!("{name}.cpp"));
    let bin = dir.join(name);
    std::fs::write(&src, code).unwrap();
    let out = Command::new(cc)
        .arg("-std=c++17")
        .arg("-O1")
        .arg("-o")
        .arg(&bin)
        .arg(&src)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "C++ compilation of {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = Command::new(&bin).output().unwrap();
    assert!(
        run.status.success(),
        "{name} exited with {:?}:\n{}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    String::from_utf8(run.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            l.trim()
                .parse()
                .expect("non-integer line in harness output")
        })
        .collect()
}

#[test]
fn cxx_program_matches_simulator() {
    let Some(cc) = find_cxx() else {
        eprintln!("skipping cxx smoke: no C++ compiler found (tried c++, g++, clang++)");
        return;
    };
    let frames = frame_stream(2, 7);
    let expect = simulator_sink_leaves(&frames);
    assert!(!expect.is_empty(), "simulator produced no sink output");

    // Partition F is the all-software configuration: the whole pipeline
    // lives in one C++ class and `schedule()` can drain it to
    // quiescence with no hardware partition in the loop.
    let design = build_design(&BackendOptions {
        domains: VorbisPartition::F.domains(),
        ..Default::default()
    })
    .unwrap();
    let inputs: Vec<Value> = frames.iter().map(|f| frame_value(f)).collect();

    for (lift, name) in [(true, "lifted"), (false, "txn")] {
        let code = emit_cxx_harness(&design, CxxOptions { lift }, "src", &inputs, "audioDev");
        let got = compile_and_run(cc, &code, &format!("vorbis_f_{name}"));
        assert_eq!(
            got, expect,
            "C++ (lift={lift}) sink stream diverged from the simulator"
        );
    }
}
