//! `scenario_run run` labels a failed scenario by its cause: a scenario
//! that does not compile reads `compile FAILED: …`, a resume checkpoint
//! that does not continue the scenario reads `resume FAILED: …`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace's zoo file `name`, read.
fn zoo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A fresh directory of this test's own, holding `files`.
fn scratch_dir(label: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scenario_run_cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text) in files {
        std::fs::write(dir.join(name), text).expect("write");
    }
    dir
}

/// Runs `scenario_run` with `args`; returns its exit success and stdout.
fn scenario_run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_run"))
        .args(args)
        .output()
        .expect("scenario_run starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn a_scenario_that_does_not_compile_reads_compile_failed() {
    // One core leaves no surviving peer: the multicore family's check
    // rejects it before any trial runs.
    let one_core = zoo_file("core-death-mid-section.scn").replace("cores 2", "cores 1");
    let dir = scratch_dir("compile", &[("one-core.scn", &one_core)]);
    let (ok, stdout) = scenario_run(&["run", "--zoo", dir.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ok, "{stdout}");
    assert!(
        stdout.contains("  compile FAILED: scenario `core-death-mid-section`: multicore needs 2"),
        "{stdout}"
    );
    assert!(!stdout.contains("resume FAILED"), "{stdout}");
}

#[test]
fn a_rejected_checkpoint_reads_resume_failed() {
    let dir = scratch_dir(
        "resume",
        &[
            ("core-death.scn", &zoo_file("core-death-mid-section.scn")),
            ("bad.ckpt", "not a checkpoint"),
        ],
    );
    let ckpt = dir.join("bad.ckpt");
    let (ok, stdout) = scenario_run(&[
        "run",
        "--zoo",
        dir.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ok, "{stdout}");
    assert!(
        stdout.contains(
            "  resume FAILED: scenario `core-death-mid-section`: bad resume checkpoint: "
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("compile FAILED"), "{stdout}");
}
