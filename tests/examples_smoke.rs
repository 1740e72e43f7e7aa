//! Smoke test: every example binary must build, run to completion on its
//! built-in tiny topology, and produce output. This keeps the `examples/`
//! directory from silently rotting — `cargo test` alone only proves the
//! examples still *compile*.

use std::process::Command;

const EXAMPLES: [&str; 2] = ["quickstart", "whatif_link_failure"];

/// `EXAMPLES` names every file in `examples/`, so an example added or
/// deleted without updating the list fails here instead of going unrun.
#[test]
fn the_list_names_every_example() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    let mut listed = EXAMPLES.to_vec();
    listed.sort();
    assert_eq!(listed, stems);
}

/// Runs each example through `cargo run --example` (a cache hit for the
/// build, since `cargo test` already compiled them) and asserts a clean exit
/// with non-empty stdout.
#[test]
fn every_example_runs_cleanly() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    for example in EXAMPLES {
        let output = Command::new(cargo)
            .current_dir(manifest_dir)
            .args(["run", "--quiet", "--example", example])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example `{example}`: {e}"));
        assert!(
            output.status.success(),
            "example `{example}` exited with {:?}\n--- stdout\n{}--- stderr\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example `{example}` printed nothing"
        );
    }
}
