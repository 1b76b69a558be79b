//! The whole benchmark in one command, and the comparison of two of its
//! result sets.
//!
//! `run_all` runs every workload in a child process of its own (so that
//! `peak_rss_mb` is per workload): `--runs` untraced runs for the
//! end-to-end figures, then one traced run for the per-layer ones. Every
//! result line is kept in a result set, which `compare` reads back.

use crate::common::OUT_DIR;
use crate::json::{self, Value};
use crate::run::Outcome;
use crate::spec::{Better, Metric, END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One run's report: every metric by name with its unit, then what the
/// figures rest on.
pub fn print_report(workload: &str, seed: u64, outcome: &Outcome, of: &[Metric]) {
    println!(
        "{workload} (seed {seed}): {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for m in of {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken: they mean nothing without it.
fn environment() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Value::obj([
        ("nproc", Value::Num(cores as f64)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("commit", Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("scratch_filesystem", Value::Str(command_line("stat", &["-f", "-c", "%T", OUT_DIR]))),
    ])
}

/// Run one workload in a child process; forward its report and return its
/// parsed result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited, so a failed gate's reason reaches the terminal
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
        return Err(format!("{workload} exited with {}", output.status));
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload}: result line is not marked correct"));
    }
    Ok(result)
}

/// The four workloads, `runs` untraced runs and one traced run each.
pub fn run_all(
    seed: u64,
    seconds: f64,
    runs: usize,
    smoke: bool,
    results: Option<PathBuf>,
) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("collusion-benchmark: create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let env = environment();
    println!("environment: {}", env.render());
    let mut recorded = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        for k in 0..=runs {
            let trace = k == runs;
            match child_run(workload, seed, seconds, trace, smoke) {
                Ok(result) => recorded.push(Value::obj([
                    ("workload", Value::Str(workload.to_string())),
                    ("trace", Value::Num(f64::from(u8::from(trace)))),
                    ("result", result),
                ])),
                Err(e) => {
                    eprintln!("collusion-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let set = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("run_seconds", Value::Num(seconds)),
        ("environment", env),
        ("runs", Value::Arr(recorded)),
    ]);
    let path =
        results.unwrap_or_else(|| Path::new(OUT_DIR).join(format!("results-seed{seed}.json")));
    match std::fs::write(&path, set.render_pretty()) {
        Ok(()) => {
            println!("\nevery gate passed; result set written to {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("collusion-benchmark: write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `(workload, metric)` → the values of every run in a result set.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let set = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = set.get("runs").and_then(Value::as_arr).ok_or("no \"runs\" array")?;
    let mut table = Table::new();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                table.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(table)
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when it is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Print per metric × workload both medians, quartiles, the relative
/// difference and the bound; fail if an end-to-end metric of `b` is worse
/// than `a`'s by more than its bound, or an exact count differs.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ta, tb) = match (load(a), load(b)) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("collusion-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<13} {:<32} {:>13} {:>13} {:>8} {:>6}  A q1..q3 | B q1..q3",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut broken = 0;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (ta.get(&key), tb.get(&key)) else { continue };
            let ((a1, a2, a3), (b1, b2, b3)) = (quartiles(va), quartiles(vb));
            let worse = worsening(m.better, a2, b2);
            let exact = EXACT.contains(&m.name);
            let verdict = if exact && a2 != b2 {
                broken += 1;
                "  DIFFERS (exact count)"
            } else if m.bound.is_some_and(|bound| worse > bound) {
                broken += 1;
                "  WORSE THAN BOUND"
            } else {
                ""
            };
            let bound = match (m.bound, exact) {
                (Some(bound), _) => format!("{:.0}%", bound * 100.0),
                (None, true) => "exact".to_string(),
                (None, false) => "-".to_string(),
            };
            println!(
                "{workload:<13} {:<32} {a2:>13.4} {b2:>13.4} {:>+7.1}% {bound:>6}  \
                 {a1:.4}..{a3:.4} | {b1:.4}..{b3:.4}{verdict}",
                m.name,
                worse * 100.0,
            );
        }
    }
    if broken == 0 {
        println!("every end-to-end metric is within its bound and every exact count agrees");
        ExitCode::SUCCESS
    } else {
        println!("{broken} metric(s) out of bounds ('B vs A' is how much worse B is)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ingest: f64, checked: f64) -> String {
        let run = |trace: f64, name: &str, value: f64, unit: &str| {
            Value::obj([
                ("workload", Value::Str("engine-bulk".into())),
                ("trace", Value::Num(trace)),
                (
                    "result",
                    Value::obj([
                        ("correct", Value::Bool(true)),
                        (
                            "metrics",
                            Value::Obj(vec![(
                                name.to_string(),
                                Value::obj([
                                    ("value", Value::Num(value)),
                                    ("unit", Value::Str(unit.into())),
                                ]),
                            )]),
                        ),
                    ]),
                ),
            ])
        };
        Value::obj([(
            "runs",
            Value::Arr(vec![
                run(0.0, "ingest_rps", ingest, "ratings/s"),
                run(0.0, "ingest_rps", ingest * 1.01, "ratings/s"),
                run(1.0, "epoch.checked", checked, "count"),
            ]),
        )])
        .render_pretty()
    }

    fn compare_sets(name: &str, a: &str, b: &str) -> ExitCode {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-compare").join(name);
        std::fs::create_dir_all(&dir).expect("test dir");
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a).expect("write a");
        std::fs::write(&pb, b).expect("write b");
        let code = compare(&pa, &pb);
        std::fs::remove_dir_all(&dir).ok();
        code
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.10);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn compare_accepts_within_bound_and_refuses_beyond_it() {
        let base = set(1_000_000.0, 5_000.0);
        assert_eq!(compare_sets("same", &base, &base), ExitCode::SUCCESS);
        // 20 % slower: inside the 25 % bound
        assert_eq!(compare_sets("near", &base, &set(800_000.0, 5_000.0)), ExitCode::SUCCESS);
        // 30 % slower: out
        assert_eq!(compare_sets("slow", &base, &set(700_000.0, 5_000.0)), ExitCode::FAILURE);
        // faster is never a regression
        assert_eq!(compare_sets("fast", &base, &set(2_000_000.0, 5_000.0)), ExitCode::SUCCESS);
        // an exact count that moved is
        assert_eq!(compare_sets("count", &base, &set(1_000_000.0, 5_001.0)), ExitCode::FAILURE);
    }

    #[test]
    fn a_result_set_loads_into_per_metric_value_lists() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-load");
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("set.json");
        std::fs::write(&path, set(10.0, 3.0)).expect("write");
        let table = load(&path).expect("loads");
        assert_eq!(table[&("engine-bulk".to_string(), "ingest_rps".to_string())], [10.0, 10.1]);
        assert_eq!(table[&("engine-bulk".to_string(), "epoch.checked".to_string())], [3.0]);
        assert!(load(&dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
