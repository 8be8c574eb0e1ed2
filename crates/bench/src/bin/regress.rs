//! regress — the performance-regression sentinel.
//!
//! Collects the full sw-insight snapshot (BFS transports, channel
//! backend, algorithm kernels, netsim occupancy, chip counters, the
//! insight analysis of the Relay trace, and the flow-model deviation
//! rows) and diffs it against the committed `BENCH_insight.json` under
//! per-key tolerance bands: timing-flavoured keys (`*_ns`, `*_mbps`,
//! `*permille`) tolerate 50‰ of float-truncation skew, pure counts
//! must match exactly. Exits non-zero on any drift, naming the
//! offending keys and printing a keyed unified diff.
//!
//! ```text
//! regress [--write [--force]] [--baseline PATH]
//!         [--band PERMILLE] [--band KEYPAT=PERMILLE]...
//!         [--scale N] [--ranks N] [--seed S] [--report]
//! ```
//!
//! `--band exchange.=100` widens every key containing `exchange.` to
//! 100‰; a bare `--band 20` replaces the default band for unmatched
//! keys. `--report` additionally prints the rendered insight report
//! for the Relay BFS trace. `--write` refuses to overwrite a committed
//! baseline from a dirty worktree unless `--force` is given, so
//! re-baselines stay attributable to a commit.

use std::fs;
use std::process::ExitCode;

use sw_bench::snapshot::{
    collect_insight, collect_trace, diff_snapshot, guard_baseline_overwrite, ToleranceBands,
    Workload,
};
use sw_trace::json::parse_flat_u64;
use sw_trace::{analyze, MachineContext};

struct Opts {
    write: bool,
    force: bool,
    report: bool,
    baseline: String,
    bands: ToleranceBands,
    workload: Workload,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        write: false,
        force: false,
        report: false,
        baseline: "BENCH_insight.json".to_string(),
        bands: ToleranceBands::standard(),
        workload: Workload::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--write" => o.write = true,
            "--force" => o.force = true,
            "--report" => o.report = true,
            "--baseline" => o.baseline = val("--baseline")?,
            "--band" => {
                let spec = val("--band")?;
                match spec.split_once('=') {
                    Some((pat, b)) => {
                        let b: u64 =
                            b.parse().map_err(|e| format!("bad --band {spec}: {e}"))?;
                        o.bands = o.bands.clone().with_rule(pat, b);
                    }
                    None => {
                        let b: u64 = spec
                            .parse()
                            .map_err(|e| format!("bad --band {spec}: {e}"))?;
                        o.bands.default_permille = b;
                    }
                }
            }
            "--scale" => {
                o.workload.scale = val("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--ranks" => {
                o.workload.ranks = val("--ranks")?
                    .parse()
                    .map_err(|e| format!("bad --ranks: {e}"))?
            }
            "--seed" => {
                o.workload.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = collect_insight(&o.workload);

    if o.report {
        let (counters, relay_report) = collect_trace(&o.workload);
        let ctx = MachineContext::new()
            .with_group_size(4)
            .with_counters(counters);
        println!("{}", analyze(&relay_report, &ctx).to_text());
    }

    if o.write {
        if let Err(e) = guard_baseline_overwrite(&o.baseline, o.force) {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
        fs::write(&o.baseline, current.to_json() + "\n").expect("write baseline");
        println!(
            "wrote {} counters to {} (scale {}, {} ranks, seed {})",
            current.len(),
            o.baseline,
            o.workload.scale,
            o.workload.ranks,
            o.workload.seed
        );
        return ExitCode::SUCCESS;
    }

    let text = match fs::read_to_string(&o.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "regress: cannot read baseline {} ({e}); generate one with --write",
                o.baseline
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline: Vec<(String, u64)> = match parse_flat_u64(&text) {
        Ok(kv) => kv,
        Err(e) => {
            eprintln!("regress: malformed baseline {}: {e}", o.baseline);
            return ExitCode::FAILURE;
        }
    };

    let diff = diff_snapshot(&baseline, &current, &o.bands);
    if diff.failures() > 0 {
        print!("{}", diff.unified_diff(&o.baseline));
        println!(
            "regress: {} regression(s) over {} checked counters: {}",
            diff.failures(),
            diff.checked,
            diff.offending_keys().join(", ")
        );
        ExitCode::FAILURE
    } else {
        println!(
            "regress: {} counters within tolerance of {}",
            diff.checked, o.baseline
        );
        ExitCode::SUCCESS
    }
}
