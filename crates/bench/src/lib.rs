//! # sw-bench — experiment harnesses for every table and figure
//!
//! Binaries (run with `--release`; each prints the paper artefact it
//! regenerates, in row/series form):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — machine specification from the config structs |
//! | `fig3` | Figure 3 — DMA bandwidth vs chunk size, CPE cluster vs MPE |
//! | `fig5` | Figure 5 — memory bandwidth vs number of CPEs |
//! | `shuffle_micro` | §4.3 micro — register shuffle ≈10 GB/s of 14.5 |
//! | `relay_micro` | §4.4 micro — relay vs direct large-message bandwidth |
//! | `fig11` | Figure 11 — {Direct,Relay}×{MPE,CPE} GTEPS vs node count |
//! | `fig12` | Figure 12 — weak scaling at 1.6M/6.5M/26.2M vertices/node |
//! | `table2` | Table 2 — cross-system comparison incl. the modeled full machine |
//! | `graph500_host` | honest host-scale Graph500 run on the threaded backend |
//!
//! Criterion benches (`cargo bench`) measure the host-side performance of
//! the substrate components (generator, CSR build, shuffle engine,
//! exchange transports, fault overhead, end-to-end BFS including the
//! direction-optimization and hub ablations, the cost models). The
//! wall-clock ledger with per-layer probes (kernels, arena exchange,
//! codecs, socket fabric, tracing) is `perf/` (`swperf`).
//!
//! `swgate` is the one counter gate ([`snapshot`]): it diffs the
//! fixed-seed insight and service snapshots against `BENCH_insight.json`
//! and `BENCH_service.json` and runs the store's restart checks.

pub mod snapshot;

use std::str::FromStr;
use swbfs_core::traffic::{measure_profile, LevelProfile};
use swbfs_core::BfsConfig;

/// A binary's optional positional arguments, each with a default.
///
/// An argument that is present but does not parse, or one more than the
/// usage lists, prints the usage and exits with status 2 — a typo must
/// not silently run the default.
pub struct PositionalArgs {
    args: Vec<String>,
    usage: &'static str,
}

impl PositionalArgs {
    /// The process's arguments, checked against `usage`
    /// (`"name [a] [b]"`, one `[…]` per optional positional argument).
    pub fn new(usage: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = Self { args, usage };
        if parsed.args.len() > usage.matches('[').count() {
            parsed.fail("too many arguments");
        }
        parsed
    }

    /// Argument `i` (0-based), or `default` when it is absent.
    pub fn get<T: FromStr>(&self, i: usize, default: T) -> T {
        match self.args.get(i) {
            None => default,
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("argument {} ({s:?}) is not valid", i + 1))),
        }
    }

    fn fail(&self, why: &str) -> ! {
        eprintln!("{why}\nusage: {}", self.usage);
        std::process::exit(2)
    }
}

/// Measures the per-level traffic profile the modeled experiments replay.
///
/// Uses a Kronecker graph at `scale` on `ranks` threaded ranks with hub
/// sizes scaled so the hub-to-vertex ratio is comparable to the paper's
/// full-machine configuration. Falls back to the built-in fixture if the
/// measurement fails (it should not).
pub fn experiment_profile(scale: u32, ranks: u32) -> Vec<LevelProfile> {
    let mut cfg = BfsConfig::paper();
    cfg.group_size = (ranks / 4).max(1);
    // Use the paper's absolute hub counts (2^12 Top-Down, 2^14 Bottom-Up),
    // capped so hubs stay a strict minority of the measurement graph. The
    // paper sizes hubs per *node* (each holding 2^24+ vertices), so the
    // per-node hub density here brackets the full-machine configuration.
    let n = 1usize << scale;
    cfg.top_down_hubs = (1usize << 12).min(n / 32).max(16);
    cfg.bottom_up_hubs = (1usize << 14).min(n / 16).max(64);
    measure_profile(scale, 0xC0FFEE, ranks, cfg, 1).unwrap_or_else(|e| {
        eprintln!("profile measurement failed ({e}); using built-in fixture");
        swbfs_core::traffic::typical_kronecker_profile()
    })
}

/// Formats a GTEPS value (or CRASH) for a results table.
pub fn fmt_gteps(g: Option<f64>) -> String {
    match g {
        Some(v) if v >= 100.0 => format!("{v:>10.0}"),
        Some(v) if v >= 1.0 => format!("{v:>10.1}"),
        Some(v) => format!("{v:>10.3}"),
        None => format!("{:>10}", "CRASH"),
    }
}

/// Prints an aligned ASCII table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |c: char| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&c.to_string().repeat(w + 2));
            s.push('+');
        }
        s
    };
    println!("{}", line('-'));
    let mut h = String::from("|");
    for (i, head) in headers.iter().enumerate() {
        h.push_str(&format!(" {:<w$} |", head, w = widths[i]));
    }
    println!("{h}");
    println!("{}", line('='));
    for row in rows {
        let mut r = String::from("|");
        for (i, cell) in row.iter().enumerate() {
            r.push_str(&format!(" {:<w$} |", cell, w = widths[i]));
        }
        println!("{r}");
    }
    println!("{}", line('-'));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_gteps_ranges() {
        assert_eq!(fmt_gteps(None).trim(), "CRASH");
        assert_eq!(fmt_gteps(Some(23755.7)).trim(), "23756");
        assert_eq!(fmt_gteps(Some(12.34)).trim(), "12.3");
        assert_eq!(fmt_gteps(Some(0.5)).trim(), "0.500");
    }

    #[test]
    fn profile_measurement_small() {
        let p = experiment_profile(10, 4);
        assert!(p.len() >= 3);
    }
}
