//! `run_all` writes only its results directory: a run leaves nothing
//! else behind in the directory it starts in, and the retired timing
//! flags are unknown arguments.

use std::path::Path;
use std::process::Command;

fn run_all(cwd: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .current_dir(cwd)
        .env_remove("HARMONY_RESULTS")
        .output()
        .expect("run_all starts")
}

#[test]
fn run_all_writes_only_results_and_rejects_retired_flags() {
    let dir = std::env::temp_dir().join(format!("harmony_run_all_clean_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let out = run_all(&dir, &["--only", "fig02"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["results"]);
    assert!(dir.join("results/fig02_simplex_ops.csv").is_file());

    for args in [["--check-against", "x"], ["--min-speedup", "2"]] {
        let out = run_all(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown argument: {}", args[0])),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
