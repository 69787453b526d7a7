//! The unified baseline-gate registry and runner behind `bench gate`.
//!
//! CI used to invoke five gate binaries (batch, multi_ipu, wallbench ×2
//! thread counts, serve, resolve) as separate workflow steps, each with
//! its own record-exists follow-up. Every new gate meant editing the
//! workflow in three places, and a local "run what CI runs" required
//! copying commands out of YAML. This module makes the registry a Rust
//! table: [`GATES`] lists every gate with its check arguments and its
//! schema (binary, committed baseline, volatile keys — see
//! [`crate::baseline`]), and [`run_gates`] executes them with one
//! pass/fail summary — the `bench gate --all` CI step and the local
//! pre-push check are now the same command.
//!
//! Two modes:
//! - **check** (default): run each gate binary with its `--check`
//!   arguments, then assert its experiment record exists and is
//!   non-empty. Output of passing gates is swallowed; failing gates
//!   replay their full output.
//! - **drift** (`--drift`, the weekly scheduled job): re-record each
//!   gate's baseline into a scratch directory and diff it line-by-line
//!   against the committed file, ignoring the volatile
//!   (machine-dependent wall-clock) keys its schema declares. This
//!   catches *silent* baseline drift — modeled costs that moved within
//!   the ±10% gate tolerance and would otherwise compound unnoticed
//!   across PRs.

use crate::baseline::{
    Baseline, BatchBaseline, GateFile, MultiIpuBaseline, PortfolioBaseline, ResolveBaseline,
    ScaleBaseline, ServeBaseline, WallbenchBaseline,
};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// One registered baseline gate.
pub struct GateSpec {
    /// Display name (also the `--only` match target).
    pub name: &'static str,
    /// Arguments for check mode (always include `--check`).
    pub args: &'static [&'static str],
    /// The gate's schema: its binary, committed baseline file, and the
    /// volatile keys the drift diff ignores.
    pub schema: &'static dyn GateFile,
}

impl GateSpec {
    /// Experiment record the gate binary must leave behind.
    pub fn record(&self) -> String {
        format!("target/experiments/{}.json", self.schema.bin())
    }
}

/// Every baseline gate CI runs, in execution order.
pub const GATES: &[GateSpec] = &[
    GateSpec {
        name: "batch",
        args: &["--check"],
        schema: BatchBaseline::SCHEMA,
    },
    GateSpec {
        name: "multi_ipu",
        args: &["--check"],
        schema: MultiIpuBaseline::SCHEMA,
    },
    GateSpec {
        name: "wallbench-t1",
        args: &["--check", "--threads", "1"],
        schema: WallbenchBaseline::SCHEMA,
    },
    GateSpec {
        name: "wallbench-t8",
        args: &["--check", "--threads", "8"],
        schema: WallbenchBaseline::SCHEMA,
    },
    GateSpec {
        name: "serve",
        args: &["--check"],
        schema: ServeBaseline::SCHEMA,
    },
    GateSpec {
        name: "resolve",
        args: &["--check"],
        schema: ResolveBaseline::SCHEMA,
    },
    GateSpec {
        name: "portfolio",
        args: &["--check"],
        schema: PortfolioBaseline::SCHEMA,
    },
    GateSpec {
        name: "scale",
        args: &["--check"],
        schema: ScaleBaseline::SCHEMA,
    },
];

/// Outcome of one gate run, for the summary table.
struct GateResult {
    name: &'static str,
    passed: bool,
    detail: String,
    seconds: f64,
}

/// Runs the registered gates (filtered by `only` as a substring match),
/// prints a summary table, and returns the number of failures (the
/// binary's exit code).
pub fn run_gates(only: Option<&str>, drift: bool) -> usize {
    let selected: Vec<&GateSpec> = GATES
        .iter()
        .filter(|g| only.is_none_or(|o| g.name.contains(o)))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no gate matches --only {:?}; registered: {:?}",
            only.unwrap_or(""),
            GATES.iter().map(|g| g.name).collect::<Vec<_>>()
        );
        return 1;
    }

    let mut results = Vec::new();
    if drift {
        // One drift re-record per unique baseline file (the two
        // wallbench thread gates share one).
        let mut seen: Vec<&str> = Vec::new();
        for g in &selected {
            if seen.contains(&g.schema.file()) {
                continue;
            }
            seen.push(g.schema.file());
            results.push(run_drift(g));
        }
    } else {
        for g in &selected {
            results.push(run_check(g));
        }
    }

    let mode = if drift { "drift" } else { "gate" };
    println!("\n{:<14} {:>8} {:>9}  detail", mode, "status", "seconds");
    let mut failures = 0usize;
    for r in &results {
        let status = if r.passed { "PASS" } else { "FAIL" };
        println!(
            "{:<14} {:>8} {:>9.1}  {}",
            r.name, status, r.seconds, r.detail
        );
        failures += usize::from(!r.passed);
    }
    let total: f64 = results.iter().map(|r| r.seconds).sum();
    if failures == 0 {
        println!("\nall {} {mode}s PASSED in {total:.1}s", results.len());
    } else {
        eprintln!(
            "\n{failures} of {} {mode}s FAILED (see replayed output above)",
            results.len()
        );
    }
    failures
}

/// Check mode for one gate: run the binary with its `--check` args,
/// replay output on failure, then require a non-empty experiment record.
fn run_check(g: &GateSpec) -> GateResult {
    let start = Instant::now();
    let (bin, record) = (g.schema.bin(), g.record());
    println!("running gate {} ({bin} {})", g.name, g.args.join(" "));
    let output = gate_command(bin).args(g.args).output();
    let seconds = start.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            return GateResult {
                name: g.name,
                passed: false,
                detail: format!("could not launch {bin}: {e}"),
                seconds,
            }
        }
    };
    if !output.status.success() {
        replay(g.name, &output);
        return GateResult {
            name: g.name,
            passed: false,
            detail: format!("exit {}", output.status.code().unwrap_or(-1)),
            seconds,
        };
    }
    match std::fs::metadata(&record) {
        Ok(m) if m.len() > 0 => GateResult {
            name: g.name,
            passed: true,
            detail: format!("baseline {} ok", g.schema.file()),
            seconds,
        },
        _ => GateResult {
            name: g.name,
            passed: false,
            detail: format!("record {record} missing or empty"),
            seconds,
        },
    }
}

/// Drift mode for one gate: re-record the baseline into a scratch file
/// and diff against the committed one, skipping volatile keys.
fn run_drift(g: &GateSpec) -> GateResult {
    let start = Instant::now();
    let (bin, file) = (g.schema.bin(), g.schema.file());
    println!("re-recording {file} for drift check");
    let scratch = PathBuf::from("target/experiments").join(format!("drift_{file}"));
    if let Err(e) = std::fs::create_dir_all("target/experiments") {
        return GateResult {
            name: g.name,
            passed: false,
            detail: format!("cannot create scratch dir: {e}"),
            seconds: start.elapsed().as_secs_f64(),
        };
    }
    let output = gate_command(bin)
        .args(["--write-baseline", "--baseline"])
        .arg(&scratch)
        .output();
    let seconds = start.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            return GateResult {
                name: g.name,
                passed: false,
                detail: format!("could not launch {bin}: {e}"),
                seconds,
            }
        }
    };
    if !output.status.success() {
        replay(g.name, &output);
        return GateResult {
            name: g.name,
            passed: false,
            detail: format!(
                "re-record failed: exit {}",
                output.status.code().unwrap_or(-1)
            ),
            seconds,
        };
    }
    let committed = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            return GateResult {
                name: g.name,
                passed: false,
                detail: format!("cannot read committed {file}: {e}"),
                seconds,
            }
        }
    };
    let fresh = match std::fs::read_to_string(&scratch) {
        Ok(t) => t,
        Err(e) => {
            return GateResult {
                name: g.name,
                passed: false,
                detail: format!("cannot read re-recorded {}: {e}", scratch.display()),
                seconds,
            }
        }
    };
    let diffs = diff_baselines(&committed, &fresh, g.schema.volatile());
    if diffs.is_empty() {
        GateResult {
            name: g.name,
            passed: true,
            detail: format!("{file} matches a fresh recording"),
            seconds,
        }
    } else {
        eprintln!("--- drift in {file} ---");
        for d in &diffs {
            eprintln!("  {d}");
        }
        GateResult {
            name: g.name,
            passed: false,
            detail: format!("{} drifted line(s)", diffs.len()),
            seconds,
        }
    }
}

/// Builds the command for a sibling gate binary. The gate runner and the
/// gate binaries are built into the same target directory, so the
/// sibling path exists whenever `gate` itself was built; the cargo
/// fallback covers running the runner from a source checkout without a
/// prior full build.
fn gate_command(bin: &str) -> Command {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(bin)))
        .filter(|p| p.is_file());
    match sibling {
        Some(path) => Command::new(path),
        None => {
            let mut c = Command::new("cargo");
            c.args(["run", "--release", "-q", "-p", "bench", "--bin", bin, "--"]);
            c
        }
    }
}

/// Replays a failed gate's captured output so CI logs show the cause.
fn replay(name: &str, output: &std::process::Output) {
    eprintln!("--- {name} stdout ---");
    eprintln!("{}", String::from_utf8_lossy(&output.stdout));
    eprintln!("--- {name} stderr ---");
    eprintln!("{}", String::from_utf8_lossy(&output.stderr));
}

/// Line-based baseline diff that ignores volatile keys.
///
/// The vendored JSON crate has no dynamic `Value` type, so structural
/// comparison is out; instead both files are compared line-by-line after
/// dropping every line whose key is in `volatile`. This is sound because
/// all baselines are written by the same pretty-printer (one key per
/// line, stable field order from the struct definitions). Returns a
/// bounded list of human-readable mismatches (empty = no drift).
pub fn diff_baselines(committed: &str, fresh: &str, volatile: &[&str]) -> Vec<String> {
    let keep = |line: &&str| {
        let t = line.trim_start();
        !volatile.iter().any(|k| t.starts_with(&format!("\"{k}\":")))
    };
    let a: Vec<&str> = committed.lines().filter(keep).collect();
    let b: Vec<&str> = fresh.lines().filter(keep).collect();

    const MAX_REPORTED: usize = 20;
    let mut out = Vec::new();
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        if la != lb {
            out.push(format!(
                "line {}: committed `{}` vs fresh `{}`",
                i + 1,
                la.trim(),
                lb.trim()
            ));
            if out.len() >= MAX_REPORTED {
                out.push("… further diffs suppressed".to_string());
                return out;
            }
        }
    }
    if a.len() != b.len() {
        out.push(format!(
            "line count changed: committed {} vs fresh {} (after dropping volatile keys)",
            a.len(),
            b.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_committed_baseline() {
        // Every gate's baseline path is well-formed, names are unique,
        // and check args always include --check.
        let mut names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GATES.len(), "duplicate gate names");
        for g in GATES {
            assert!(g.args.contains(&"--check"), "{}: no --check", g.name);
            assert!(g.schema.file().starts_with("BENCH_"), "{}", g.name);
        }
    }

    #[test]
    fn committed_baselines_pass_their_own_gate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for g in GATES {
            let path = root.join(g.schema.file());
            let violations = g.schema.self_check(&path).unwrap();
            assert!(violations.is_empty(), "{}: {violations:?}", g.name);
            // A renamed wall key would silently become gated in --drift.
            let text = std::fs::read_to_string(&path).unwrap();
            for key in g.schema.volatile() {
                let quoted = format!("\"{key}\":");
                assert!(
                    text.contains(&quoted),
                    "{}: volatile {key} not in file",
                    g.name
                );
            }
        }
    }

    #[test]
    fn identical_files_do_not_drift() {
        let text = "{\n  \"a\": 1,\n  \"wall_seconds\": 0.5\n}\n";
        assert!(diff_baselines(text, text, &["wall_seconds", "instances_per_sec"]).is_empty());
    }

    #[test]
    fn volatile_key_changes_are_ignored() {
        let committed =
            "{\n  \"cycles\": 100,\n  \"wall_seconds\": 0.5,\n  \"instances_per_sec\": 10.0\n}\n";
        let fresh =
            "{\n  \"cycles\": 100,\n  \"wall_seconds\": 0.9,\n  \"instances_per_sec\": 4.4\n}\n";
        assert!(
            diff_baselines(committed, fresh, &["wall_seconds", "instances_per_sec"]).is_empty()
        );
    }

    #[test]
    fn gated_value_changes_are_reported() {
        let committed = "{\n  \"cycles\": 100,\n  \"wall_seconds\": 0.5\n}\n";
        let fresh = "{\n  \"cycles\": 140,\n  \"wall_seconds\": 0.5\n}\n";
        let diffs = diff_baselines(committed, fresh, &["wall_seconds", "instances_per_sec"]);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("\"cycles\": 100"), "{diffs:?}");
        assert!(diffs[0].contains("\"cycles\": 140"), "{diffs:?}");
    }

    #[test]
    fn added_or_removed_lines_are_reported() {
        let committed = "{\n  \"cycles\": 100\n}\n";
        let fresh = "{\n  \"cycles\": 100,\n  \"extra\": 1\n}\n";
        let diffs = diff_baselines(committed, fresh, &["wall_seconds", "instances_per_sec"]);
        assert!(!diffs.is_empty());
        assert!(
            diffs.iter().any(|d| d.contains("line count changed")),
            "{diffs:?}"
        );
    }

    #[test]
    fn volatile_prefix_does_not_overmatch() {
        // "speedup" volatile must not hide a "speedup_floor" change.
        let committed = "  \"speedup_floor\": 2.0\n  \"speedup\": 6.7\n";
        let fresh = "  \"speedup_floor\": 3.0\n  \"speedup\": 9.9\n";
        let diffs = diff_baselines(committed, fresh, &["speedup"]);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("speedup_floor"), "{diffs:?}");
    }

    #[test]
    fn diff_report_is_bounded() {
        let committed: String = (0..100).map(|i| format!("  \"c\": {i}\n")).collect();
        let fresh: String = (0..100).map(|i| format!("  \"c\": {}\n", i + 1)).collect();
        let diffs = diff_baselines(&committed, &fresh, &[]);
        assert!(diffs.len() <= 21, "{}", diffs.len());
        assert!(diffs.last().unwrap().contains("suppressed"));
    }
}
