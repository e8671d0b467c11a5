//! Smoke test of the benchmark itself: a tiny run of every workload must
//! pass the correctness gate, and in the traced run the layers' self
//! times plus the residue must add up to the untraced wall time.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["fleet_cold", "row_edit", "column_edit", "timing_table2"];

/// Values of every metric in a result line whose name satisfies `pick`.
fn metrics(line: &str, pick: impl Fn(&str) -> bool) -> Vec<(String, f64)> {
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            pick(name).then(|| (name.to_owned(), value.parse().expect("a number")))
        })
        .collect()
}

fn run(dir: &Path, workload: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", trace, "--scale", "tiny"])
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_workload_passes_the_gate_and_attributes_its_wall_time() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark lives in the repository");
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let (ok, stdout) = run(root, w, trace);
            assert!(ok, "{w} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
                "{w} --trace {trace} did not pass its gate:\n{stdout}"
            );
            if trace == "1" {
                let one = |n: &str| metrics(last, |m| m == n)[0].1;
                let wall = one("wall.untraced_ms");
                let shares: f64 =
                    metrics(last, |m| m.starts_with("attr.") && m.ends_with(".share"))
                        .iter()
                        .map(|(_, v)| v)
                        .sum();
                let sum = shares * wall + one("residue_ms");
                assert!(
                    (sum - wall).abs() <= 1e-9 * wall.max(1.0),
                    "{w}: layers + residue = {sum} ms, wall = {wall} ms"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_outside_the_repository() {
    let (ok, stdout) = run(Path::new(env!("CARGO_TARGET_TMPDIR")), "fleet_cold", "0");
    assert!(!ok);
    assert!(stdout.is_empty(), "printed a result: {stdout}");
}
