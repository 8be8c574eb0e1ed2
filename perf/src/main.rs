//! swperf — the repository's wall-clock benchmark. See `perf/README.md`.
//!
//! ```text
//! swperf [run] --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! swperf all      [--seed N] [--seconds S] [--layers] [--quick] [--out DIR]
//! swperf noise    [--runs N] [--seed N] [--seconds S] [--quick] [--md FILE]
//! swperf compare  A.jsonl B.jsonl
//! swperf selftest
//! swperf manifest | catalogue
//! ```

mod catalogue;
mod g500;
mod json;
mod probes;
mod proc;
mod reference;
mod run;
mod serve;
mod spans;
mod stats;
mod tools;
mod window;

use run::Opts;
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags shared by the subcommands; each reads the ones it knows.
pub struct Args {
    pub opts: Opts,
    pub runs: usize,
    pub layers: bool,
    pub md: Option<PathBuf>,
    pub files: Vec<String>,
}

fn parse(mut argv: Vec<String>) -> Result<(String, Args), String> {
    let cmd = match argv.first() {
        Some(a) if !a.starts_with("--") => argv.remove(0),
        _ if argv.iter().any(|a| a == "--workload") => "run".to_string(),
        _ => "all".to_string(),
    };
    let rankd = std::env::var_os("SWBFS_RANKD")
        .map(PathBuf::from)
        .unwrap_or_default();
    let mut a = Args {
        opts: Opts {
            workload: String::new(),
            seed: 1,
            seconds: catalogue::RUN_SECONDS as f64,
            trace: false,
            quick: false,
            out: PathBuf::from(".bench_build/swperf-out"),
            rankd,
        },
        runs: 5,
        layers: false,
        md: None,
        files: Vec::new(),
    };
    let mut seconds_given = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let bad = |name: &str, e: &dyn std::fmt::Display| format!("bad {name}: {e}");
        match flag.as_str() {
            "--workload" => a.opts.workload = val("--workload")?,
            "--seed" => a.opts.seed = val("--seed")?.parse().map_err(|e| bad("--seed", &e))?,
            "--seconds" => {
                a.opts.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| bad("--seconds", &e))?;
                seconds_given = true;
            }
            "--trace" => {
                a.opts.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.opts.quick = true,
            "--layers" => a.layers = true,
            "--out" => a.opts.out = PathBuf::from(val("--out")?),
            "--md" => a.md = Some(PathBuf::from(val("--md")?)),
            "--runs" => a.runs = val("--runs")?.parse().map_err(|e| bad("--runs", &e))?,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            _ => a.files.push(flag),
        }
    }
    if a.opts.quick && !seconds_given {
        // K = 3: exactly the minimum number of trials.
        a.opts.seconds = 0.0;
    }
    if !(0.0..=60.0).contains(&a.opts.seconds) {
        return Err("--seconds must lie in 0..=60".into());
    }
    Ok((cmd, a))
}

fn main() -> ExitCode {
    let result =
        parse(std::env::args().skip(1).collect()).and_then(|(cmd, a)| match cmd.as_str() {
            "run" => run::run(&a.opts),
            "all" => tools::all(&a),
            "noise" => tools::noise(&a),
            "compare" => tools::compare(&a),
            "selftest" => tools::selftest(&a),
            "manifest" => {
                print!("{}", catalogue::manifest());
                Ok(())
            }
            "catalogue" => {
                print!("{}", catalogue::markdown());
                Ok(())
            }
            other => Err(format!("unknown command {other}")),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("swperf: {e}");
            ExitCode::FAILURE
        }
    }
}
