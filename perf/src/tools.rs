//! The commands around single runs: `all`, `noise`, `compare`,
//! `selftest`. Every run is a fresh child process of this executable,
//! so peak RSS, the allocator and the page cache start equal each time.

use crate::catalogue::{Kind, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::proc::machine_fingerprint;
use crate::run::Opts;
use crate::stats::{quartiles, spread, Better};
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

struct RunOutput {
    result: Value,
    line: String,
    /// The run's operation-sequence-and-answers digest.
    digest: String,
}

/// One `swperf run` in a child process.
fn child_run(o: &Opts, workload: &str, seed: u64, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .env("SWBFS_RANKD", &o.rankd)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn swperf run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: {} {line}",
            trace as u8, out.status
        ));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("swperf-digest "))
        .unwrap_or("")
        .to_string();
    let result = json::parse(&line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: incorrect run: {line}"));
    }
    Ok(RunOutput {
        result,
        line,
        digest,
    })
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// Every workload once: the five end-to-end metrics (and with
/// `--layers` the per-layer ones), printed and kept as JSON lines for
/// `swperf compare`.
pub fn all(a: &Args) -> Result<(), String> {
    let o = &a.opts;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let mut lines = String::new();
    println!("machine: {}", machine_fingerprint());
    for w in WORKLOADS {
        let passes: &[bool] = if a.layers { &[false, true] } else { &[false] };
        for &trace in passes {
            let r = child_run(o, w.name, o.seed, trace)?;
            let attempted = r
                .result
                .get("attempted")
                .and_then(Value::num)
                .unwrap_or(0.0);
            let failed = r.result.get("failed").and_then(Value::num).unwrap_or(0.0);
            println!(
                "{} (seed {}, trace {}): correct, attempted {attempted}, failed {failed}",
                w.name, o.seed, trace as u8
            );
            for (name, v) in json::metric_values(&r.result) {
                println!("  {name:<36} {v:>16.6} {}", unit_of(&name));
            }
            let _ = writeln!(
                lines,
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
                w.name, o.seed, trace as u8, r.line
            );
        }
    }
    let path = o.out.join("results.jsonl");
    std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results kept in {}", path.display());
    Ok(())
}

/// `(workload, trace) -> metric -> value`.
type Results = BTreeMap<(String, u64), BTreeMap<String, f64>>;

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let w = v
            .get("workload")
            .and_then(Value::str)
            .ok_or("results line without workload")?;
        let trace = v.get("trace").and_then(Value::num).unwrap_or(0.0) as u64;
        let result = v.get("result").ok_or("results line without result")?;
        out.insert((w.to_string(), trace), json::metric_values(result));
    }
    Ok(out)
}

/// Per-workload rows of two results files, every ratio beside its base.
pub fn compare(a: &Args) -> Result<(), String> {
    let [base_path, new_path] = a.files.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let (base, new) = (read_results(base_path)?, read_results(new_path)?);
    println!(
        "{:<10} {:<36} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for ((w, trace), bm) in &base {
        let Some(nm) = new.get(&(w.clone(), *trace)) else {
            continue;
        };
        for (name, &b) in bm {
            let Some(&n) = nm.get(name) else { continue };
            let ratio = if b != 0.0 { n / b } else { f64::NAN };
            let verdict = END_TO_END.iter().find(|m| m.name == name).map_or("", |m| {
                let worse = m.better.worsening(b, n);
                if worse > m.bound {
                    "WORSE than bound"
                } else if worse < -m.bound {
                    "better than bound"
                } else {
                    "within bound"
                }
            });
            println!("{w:<10} {name:<36} {b:>16.6} {n:>16.6} {ratio:>8.4}  {verdict}");
        }
    }
    Ok(())
}

/// Two alternating sets of runs of this one build: does the benchmark
/// agree with itself within its own bounds?
pub fn noise(a: &Args) -> Result<(), String> {
    let o = &a.opts;
    if a.runs < 5 {
        return Err("noise needs --runs >= 5 per set".into());
    }
    let mut md = String::new();
    let _ = writeln!(md, "# swperf noise\n");
    let _ = writeln!(md, "Machine: `{}`\n", machine_fingerprint());
    let _ = writeln!(
        md,
        "Two alternating sets (A, B) of {} runs per workload of the same build, each run with another \
         seed ({}..), `--seconds {}`{}. Quartiles as Python's `statistics.quantiles(n=4)`; spread = \
         (Q3-Q1)/median; gap = by how much B's median is worse than A's (negative = better). \
         A row fails when a spread or the gap exceeds the bound (`setup_s`: gap only).\n",
        a.runs,
        o.seed,
        o.seconds,
        if o.quick { ", `--quick`" } else { "" }
    );
    let _ = writeln!(
        md,
        "| workload | metric | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | gap | bound | |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    let mut raw =
        String::from("\n## Every run, in the order made\n\n| workload | set | seed | wall s |");
    for m in END_TO_END {
        let _ = write!(raw, " `{}` |", m.name);
    }
    let _ = write!(
        raw,
        "\n|---|---|---|---|{}\n",
        "---|".repeat(END_TO_END.len())
    );
    for w in WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for i in 0..a.runs * 2 {
            let seed = o.seed + i as u64;
            let t = Instant::now();
            let r = child_run(o, w.name, seed, false)?;
            let wall = t.elapsed().as_secs_f64();
            let vals = json::metric_values(&r.result);
            let _ = write!(
                raw,
                "| {} | {} | {seed} | {wall:.1} |",
                w.name,
                ["A", "B"][i % 2]
            );
            for m in END_TO_END {
                let _ = write!(raw, " {:.5} |", vals[m.name]);
            }
            raw.push('\n');
            for (name, v) in vals {
                sets[i % 2].entry(name).or_default().push(v);
            }
        }
        for m in END_TO_END {
            let (va, vb) = (&sets[0][m.name], &sets[1][m.name]);
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let (sa, sb) = (spread(va), spread(vb));
            let gap = m.better.worsening(qa.1, qb.1);
            let spread_counts = m.name != "setup_s";
            let bad = gap > m.bound || (spread_counts && (sa > m.bound || sb > m.bound));
            failures += bad as u32;
            let _ = writeln!(
                md,
                "| {} | `{}` | {:.5} [{:.5}, {:.5}] | {:.4} | {:.5} [{:.5}, {:.5}] | {:.4} | {:+.4} | {} | {} |",
                w.name, m.name, qa.1, qa.0, qa.2, sa, qb.1, qb.0, qb.2, sb, gap, m.bound,
                if bad { "FAIL" } else { "ok" }
            );
        }
    }
    md.push_str(&raw);
    print!("{md}");
    if let Some(path) = &a.md {
        std::fs::write(path, &md).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if failures > 0 {
        return Err(format!(
            "{failures} workload x metric rows outside their bound"
        ));
    }
    Ok(())
}

/// Determinism: the same seed gives the same operation sequence, the
/// same answers and the same value for every exact count.
pub fn selftest(a: &Args) -> Result<(), String> {
    let mut o = a.opts.clone();
    o.quick = true;
    o.seconds = 0.0;
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.kind == Kind::Count)
        .map(|m| m.name)
        .collect();
    for w in WORKLOADS {
        let first = child_run(&o, w.name, o.seed, true)?;
        let second = child_run(&o, w.name, o.seed, true)?;
        let other = child_run(&o, w.name, o.seed + 1, true)?;
        if first.digest.is_empty() || first.digest != second.digest {
            return Err(format!(
                "{}: digests {} and {} for one seed",
                w.name, first.digest, second.digest
            ));
        }
        if first.digest == other.digest {
            return Err(format!(
                "{}: seeds {} and {} give the same operations",
                w.name,
                o.seed,
                o.seed + 1
            ));
        }
        let (m1, m2) = (
            json::metric_values(&first.result),
            json::metric_values(&second.result),
        );
        if m1.len() != PER_LAYER.len() {
            return Err(format!(
                "{}: {} of {} per-layer metrics printed",
                w.name,
                m1.len(),
                PER_LAYER.len()
            ));
        }
        for name in &exact {
            if m1[*name].to_bits() != m2[*name].to_bits() {
                return Err(format!(
                    "{}: count {name} is {} then {}",
                    w.name, m1[*name], m2[*name]
                ));
            }
        }
        // The untraced pass prints exactly the end-to-end metrics.
        let e2e = child_run(&o, w.name, o.seed, false)?;
        let vals = json::metric_values(&e2e.result);
        for m in END_TO_END {
            let v = vals.get(m.name).copied().unwrap_or(0.0);
            if vals.len() != END_TO_END.len() || v <= 0.0 {
                return Err(format!(
                    "{}: end-to-end metric {} reads {v}",
                    w.name, m.name
                ));
            }
            if m.better == Better::Higher && v.is_infinite() {
                return Err(format!("{}: {} is infinite", w.name, m.name));
            }
        }
        println!(
            "selftest {}: digest {} repeats, {} exact counts repeat, {} + {} metrics printed",
            w.name,
            first.digest,
            exact.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    println!("selftest passed");
    Ok(())
}
