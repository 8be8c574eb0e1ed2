//! swgate — the one counter gate: the insight, service and store gates
//! of [`sw_bench::snapshot`], in that order. Run from the repo root.
//!
//! ```text
//! swgate [--write [--force]]
//! ```
//!
//! Plain, every gate diffs its fixed-seed snapshot against the
//! committed `BENCH_insight.json` / `BENCH_service.json` (counts exact,
//! `*_ns`/`*_mbps`/`*permille` keys within 50‰) and runs its hard
//! checks; the exit status is non-zero if any gate fails, and each
//! failure names its keys. `--write` rewrites both baselines instead of
//! diffing them — refused from a dirty git worktree unless `--force`, so
//! re-baselines stay attributable to a commit. The hard checks run
//! either way.

use std::process::ExitCode;

use sw_bench::snapshot::{insight_gate, service_gate, store_gate};

const USAGE: &str = "usage: swgate [--write [--force]]";

fn main() -> ExitCode {
    let (mut write, mut force) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" => write = true,
            "--force" => force = true,
            other => {
                eprintln!("swgate: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if force && !write {
        eprintln!("swgate: --force only applies to --write\n{USAGE}");
        return ExitCode::from(2);
    }

    let gates = [
        ("insight", insight_gate(write, force)),
        ("service", service_gate(write, force)),
        ("store", store_gate()),
    ];
    let mut failed = 0;
    for (name, result) in gates {
        match result {
            Ok(summary) => println!("swgate: {name}: {summary}"),
            Err(e) => {
                eprintln!("swgate: {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("swgate: {failed} of 3 gates failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
