//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! collusion-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! collusion-benchmark [--seed N] [--seconds S] [--runs K] [--smoke] [--results FILE]
//! collusion-benchmark --compare A.json B.json
//! collusion-benchmark --print-spec
//! ```

mod audit;
mod common;
mod engine;
mod json;
mod openloop;
mod probes;
mod run;
mod spec;
mod stats;
mod suite;
mod sut;
mod trace;
mod wire;

use common::Sizes;
use run::RunCfg;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    results: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
        runs: 1,
        results: None,
        compare: None,
        print_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: {text:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => a.seed = num(flag, value("a number")?)?,
            "--seconds" => a.seconds = num(flag, value("a number")?)?,
            "--trace" => a.trace = num::<u8>(flag, value("0 or 1")?)? != 0,
            "--runs" => a.runs = num::<usize>(flag, value("a number")?)?.max(1),
            "--results" => a.results = Some(PathBuf::from(value("a file")?)),
            "--smoke" => a.smoke = true,
            "--print-spec" => a.print_spec = true,
            "--compare" => {
                let first = PathBuf::from(value("two result files")?);
                a.compare = Some((first, PathBuf::from(value("two result files")?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("collusion-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    let (sizes, seconds) =
        if args.smoke { (Sizes::SMOKE, 0.0) } else { (Sizes::FULL, args.seconds) };
    let Some(workload) = args.workload else {
        return suite::run_all(args.seed, seconds, args.runs, args.smoke, args.results);
    };
    let cfg = RunCfg { workload, seed: args.seed, seconds, trace: args.trace, sizes };
    match run::run(&cfg) {
        Ok(outcome) => {
            let of: &[spec::Metric] = if cfg.trace { &spec::PER_LAYER } else { &spec::END_TO_END };
            suite::print_report(&cfg.workload, cfg.seed, &outcome, of);
            println!("{}", outcome.result_line(of).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("collusion-benchmark: {} (seed {}): FAILED: {e}", cfg.workload, cfg.seed);
            ExitCode::FAILURE
        }
    }
}
