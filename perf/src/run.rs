//! One run: the rule every workload is measured by.
//!
//! A run is one untimed warm-up trial, timed trials of identical,
//! seed-determined work until `--seconds` is spent (at least
//! [`MIN_TRIALS`]), a verification of every operation against the
//! harness's reference, and R repetitions of the set-up sequence in
//! all. The whole run is confined to one CPU
//! ([`proc::pin_to_one_cpu`]).
//!
//! Interference on a shared machine comes in bursts of seconds that slow
//! whatever runs meanwhile by a fifth to a third, so the least-disturbed
//! measurement follows the code while a mean or median follows the
//! neighbours. Every trial performs the same operations in the same
//! order, so **whatever is timed is timed once per trial and keeps the
//! least of those times**:
//!
//! * **Sequential workloads** (one operation at a time: `g500_*`).
//!   Operation `i` keeps its least time. `latency_p50_ms` and
//!   `latency_p90_ms` are percentiles across operations of these minima
//!   and `throughput` is the rate the minima add up to.
//! * **Pipelined workloads** (`serve_sat`, `serve_hit`). The answers of a
//!   trial arrive in four windows cut at the same operations in every
//!   trial; window `j` keeps its least duration and `throughput` is the
//!   trial's answers over the sum of the four minima. Latency is queueing
//!   behind the other queries in flight: where operation `i` waits behind
//!   the same operations in every trial ([`Workload::fixed_queueing`],
//!   `serve_sat`) it is treated as above, otherwise (`serve_hit`) a single
//!   operation's minimum is a lucky queue position, so the percentiles
//!   are computed per trial and the run reports the least of each.
//! * `setup_s` is the least of the R repetitions.

use crate::catalogue::{result_line, Metrics};
use crate::g500::G500;
use crate::probes;
use crate::proc;
use crate::serve::{Mode, Serve};
use crate::spans::Harness;
use crate::stats::{best_of, harmonic_mean_rate, p50_p90, spread, Better};
use std::path::PathBuf;
use std::time::Instant;

/// Kronecker seed of every graph the benchmark builds. The graph is the
/// dataset and stays fixed; `--seed` draws the roots and queries (the
/// GAP method: fixed graph, seeded source picker). Graphs of different
/// Kronecker seeds differ in depth and hub structure enough to move
/// TEPS by a quarter at these scales, which would drown every bound.
pub const GRAPH_SEED: u64 = 20170529;

/// Fewest timed trials a run reports from, whatever `--seconds` says.
pub const MIN_TRIALS: usize = 3;
/// Trials of each half (untraced, traced) of the traced pass.
pub const TRACED_TRIALS: usize = 3;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where Chrome traces go.
    pub out: PathBuf,
    /// The real `swbfs-rankd`, built from the root workspace.
    pub rankd: PathBuf,
}

/// One trial's outcome.
pub struct Trial {
    /// Work per second of the whole trial (the trial-spread diagnostic).
    pub throughput: f64,
    /// `(answers, seconds)` of each window of the trial, the windows
    /// cutting every trial at the same operations; what a pipelined
    /// workload's throughput is read from (sequential ones leave it
    /// empty).
    pub windows: Vec<(f64, f64)>,
    /// Latency of operation `i` at index `i`, milliseconds; infinite
    /// where the operation failed.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub trait Workload {
    /// R: how often the set-up sequence is repeated (sized so the
    /// repetitions total about a second or more).
    fn setup_reps(&self) -> usize;
    /// Lane names of the program's tracer for this workload.
    fn lanes(&self) -> Vec<String>;
    /// Ring capacity per lane that holds the traced pass.
    fn ring_capacity(&self) -> usize;
    /// The timed set-up sequence, ending with a live instance. Arms the
    /// harness's tracer (if any) through the program's public setters.
    fn set_up(&mut self, h: &Harness) -> Result<(), String>;
    /// Drops the instance (stops servers, reaps daemons).
    fn tear_down(&mut self);
    /// One trial of fixed work. Every answer is checked as it arrives
    /// where the expected value is known beforehand (the service);
    /// otherwise trials must reproduce the first trial's digests, which
    /// [`Workload::verify`] then holds against the reference.
    fn trial(&mut self, h: &Harness) -> Result<Trial, String>;
    /// Work of each operation of a *sequential* workload (one operation
    /// at a time: its throughput is what the per-operation minima add up
    /// to); `None` for a pipelined one.
    fn sequential_work(&self) -> Option<Vec<f64>> {
        None
    }
    /// Does operation `i` wait behind the same operations in every trial,
    /// whatever the timing? Then its latency has a meaningful minimum over
    /// the trials and the percentiles are taken across operations of
    /// those; otherwise they are taken per trial and the least reported.
    fn fixed_queueing(&self) -> bool;
    /// Checks that need the harness's own copy of the graph, run once
    /// after the timed trials on the live instance: `(operations
    /// checked, operations wrong)`.
    fn verify(&mut self, h: &Harness) -> Result<(u64, u64), String>;
    /// Peak RSS of live child processes, kB.
    fn children_hwm_kb(&self) -> u64 {
        0
    }
    /// The workload's traced and counted per-layer metrics, read after
    /// the traced trials; returns the property checks that failed.
    fn layer_metrics(&mut self, h: &Harness, m: &mut Metrics) -> Vec<String>;
    /// Digest of the operation sequence and of every answer of the last
    /// trial: equal for equal seeds, whatever the timing.
    fn digest(&self) -> u64;
}

struct Pass {
    setup_s: f64,
    /// Least latency of every operation over the timed trials, ms.
    minima: Vec<f64>,
    /// Least per-trial `(p50, p90)` latency, ms.
    best_percentiles: (f64, f64),
    /// Answers of every window of a trial, and the least seconds that
    /// window took over the timed trials.
    window_work: Vec<f64>,
    window_minima: Vec<f64>,
    /// Per-trial throughput.
    throughputs: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Wall seconds the timed trials took.
    timed_s: f64,
}

/// One timed set-up, a warm-up trial, then timed trials until `seconds`
/// are spent and `min_trials` are in.
fn pass(
    w: &mut dyn Workload,
    h: &Harness,
    seconds: f64,
    min_trials: usize,
) -> Result<Pass, String> {
    let t = Instant::now();
    w.set_up(h)?;
    let setup_s = t.elapsed().as_secs_f64();
    let warm = w.trial(h)?;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    // Per-layer sums cover the steady state only.
    h.mark();
    let (mut minima, mut throughputs) = (Vec::new(), Vec::new());
    let (mut window_work, mut window_minima) = (Vec::new(), Vec::new());
    let mut best_percentiles = (f64::INFINITY, f64::INFINITY);
    let t0 = Instant::now();
    while throughputs.len() < min_trials || t0.elapsed().as_secs_f64() < seconds {
        let mut t = w.trial(h)?;
        attempted += t.attempted;
        failed += t.failed;
        fold_minima(&mut minima, &t.lat_ms);
        throughputs.push(t.throughput);
        window_work = t.windows.iter().map(|&(n, _)| n).collect();
        let secs: Vec<f64> = t.windows.iter().map(|&(_, s)| s).collect();
        fold_minima(&mut window_minima, &secs);
        t.lat_ms.retain(|ms| ms.is_finite());
        if !t.lat_ms.is_empty() {
            let (p50, p90) = p50_p90(&mut t.lat_ms);
            best_percentiles = (best_percentiles.0.min(p50), best_percentiles.1.min(p90));
        }
    }
    Ok(Pass {
        setup_s,
        minima,
        best_percentiles,
        window_work,
        window_minima,
        throughputs,
        attempted,
        failed,
        timed_s: t0.elapsed().as_secs_f64(),
    })
}

/// Keeps, for every operation, the least time seen so far.
pub fn fold_minima(minima: &mut Vec<f64>, trial: &[f64]) {
    if minima.len() < trial.len() {
        minima.resize(trial.len(), f64::INFINITY);
    }
    for (m, &t) in minima.iter_mut().zip(trial) {
        *m = m.min(t);
    }
}

/// Work per second of a trial each of whose windows took its least
/// time.
pub fn rate_of_minima(work: &[f64], least_secs: &[f64]) -> f64 {
    work.iter().sum::<f64>() / least_secs.iter().sum::<f64>()
}

/// `(throughput, p50 ms, p90 ms)` of a pass under the module's rule.
fn summarize(w: &dyn Workload, p: &Pass) -> Result<(f64, f64, f64), String> {
    let mut done: Vec<f64> = p
        .minima
        .iter()
        .copied()
        .filter(|ms| ms.is_finite())
        .collect();
    if done.is_empty() {
        return Err("no operation of the pass succeeded".into());
    }
    let throughput = match w.sequential_work() {
        Some(work) => harmonic_mean_rate(
            work.iter()
                .zip(&p.minima)
                .filter(|(_, ms)| ms.is_finite())
                .map(|(&w, &ms)| (w, ms / 1e3)),
        ),
        None => rate_of_minima(&p.window_work, &p.window_minima),
    };
    let (p50, p90) = if w.fixed_queueing() {
        p50_p90(&mut done)
    } else {
        p.best_percentiles
    };
    if !(throughput.is_finite() && p50.is_finite() && p90.is_finite()) {
        return Err("no operation of the pass succeeded".into());
    }
    Ok((throughput, p50, p90))
}

fn trial_spread(p: &Pass) -> f64 {
    if p.throughputs.len() >= 2 {
        spread(&p.throughputs)
    } else {
        0.0
    }
}

/// The end-to-end pass (`--trace 0`).
fn end_to_end(w: &mut dyn Workload, o: &Opts) -> Result<(String, bool), String> {
    let h = Harness::untraced();
    // The peak is read after one instance has run its trials and before
    // anything else: repeated set-ups leave the allocator in a state
    // that depends on thread timing, and the verification below needs
    // the harness's own copy of the graph.
    proc::reset_peak_rss();
    let mut p = pass(w, &h, o.seconds, MIN_TRIALS)?;
    let rss_kb = proc::self_hwm_kb() + w.children_hwm_kb();
    let (checked, wrong) = w.verify(&h)?;
    p.attempted += checked;
    p.failed += wrong;
    let mut setups = vec![p.setup_s];
    for _ in 1..w.setup_reps() {
        w.tear_down();
        let t = Instant::now();
        w.set_up(&h)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    w.tear_down();
    let (thr, p50, p90) = summarize(w, &p)?;
    let mut m = Metrics::new();
    m.insert("throughput", thr);
    m.insert("latency_p50_ms", p50);
    m.insert("latency_p90_ms", p90);
    m.insert("setup_s", best_of(&setups, Better::Lower));
    m.insert("peak_rss_mb", rss_kb as f64 / 1024.0);
    eprintln!(
        "swperf {} seed {}: {} set-ups (min {:.4} s, max {:.4} s), {} trials in {:.2} s, \
         {} latency samples per trial, trial spread {:.3}, attempted {}, failed {}",
        o.workload,
        o.seed,
        setups.len(),
        best_of(&setups, Better::Lower),
        best_of(&setups, Better::Higher),
        p.throughputs.len(),
        p.timed_s,
        p.minima.len(),
        trial_spread(&p),
        p.attempted,
        p.failed,
    );
    let correct = p.failed == 0;
    Ok((
        result_line(false, correct, p.attempted, p.failed, &m),
        correct,
    ))
}

/// The traced pass (`--trace 1`): an untraced half for the baseline, a
/// traced half for the spans, then probes and property checks.
fn traced(w: &mut dyn Workload, o: &Opts) -> Result<(String, bool), String> {
    let plain = Harness::untraced();
    let base = pass(w, &plain, 0.0, TRACED_TRIALS)?;
    let (checked, wrong) = w.verify(&plain)?;
    w.tear_down();
    let (thr_plain, _, _) = summarize(w, &base)?;

    let h = Harness::traced(&w.lanes(), w.ring_capacity());
    let tr = pass(w, &h, 0.0, TRACED_TRIALS)?;
    let (thr_traced, _, _) = summarize(w, &tr)?;

    let mut m = Metrics::new();
    let mut broken = w.layer_metrics(&h, &mut m);
    w.tear_down();
    m.insert("trace.overhead_ratio", thr_traced / thr_plain);
    m.insert("trace.dropped_events", h.dropped() as f64);
    m.insert("run.trial_spread", trial_spread(&base));
    m.insert("run.trials", base.throughputs.len() as f64);
    m.insert("run.setup_reps", w.setup_reps() as f64);
    if h.dropped() > 0 {
        broken.push(format!(
            "{} trace events dropped: ring too small",
            h.dropped()
        ));
    }

    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let path = o.out.join(format!("{}.trace.json", o.workload));
    h.write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "swperf {}: Chrome trace written to {}",
        o.workload,
        path.display()
    );

    probes::run_all(o, &mut m)?;

    let attempted = base.attempted + tr.attempted + checked;
    let failed = base.failed + tr.failed + wrong;
    for b in &broken {
        eprintln!("swperf {}: PROPERTY BROKEN: {b}", o.workload);
    }
    let correct = failed == 0 && broken.is_empty();
    Ok((result_line(true, correct, attempted, failed, &m), correct))
}

/// The workload `o` names, its inputs generated from the seed.
pub fn make(o: &Opts) -> Result<Box<dyn Workload>, String> {
    Ok(match o.workload.as_str() {
        "g500_shm" => Box::new(G500::new(o, false)),
        "g500_sock" => Box::new(G500::new(o, true)),
        "serve_sat" => Box::new(Serve::new(o, Mode::Sat)?),
        "serve_hit" => Box::new(Serve::new(o, Mode::Hit)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Runs one workload and prints its digest and, last, its result line.
pub fn run(o: &Opts) -> Result<(), String> {
    match proc::pin_to_one_cpu() {
        Some(cpu) => eprintln!("swperf {}: pinned to CPU {cpu}", o.workload),
        None => eprintln!("swperf {}: could not pin, running on any CPU", o.workload),
    }
    let mut w = make(o)?;
    let (line, correct) = if o.trace {
        traced(w.as_mut(), o)?
    } else {
        end_to_end(w.as_mut(), o)?
    };
    println!("swperf-digest {:016x}", w.digest());
    println!("{line}");
    if correct {
        Ok(())
    } else {
        Err(format!("{}: the run was not correct", o.workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_keeps_its_least_disturbed_measurement() {
        // Three trials of four operations; a burst slows trial 1 from
        // operation 1 on, a blip hits operation 0 of trial 2.
        let mut minima = Vec::new();
        for trial in [
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.9, 4.4, 5.9],
            [1.6, 2.0, 3.0, 4.0],
        ] {
            fold_minima(&mut minima, &trial);
        }
        assert_eq!(minima, vec![1.0, 2.0, 3.0, 4.0]);
        // A failed operation (infinite) never wins and never hides a
        // later success.
        let mut minima = Vec::new();
        fold_minima(&mut minima, &[f64::INFINITY, 2.0]);
        fold_minima(&mut minima, &[1.5, 2.5]);
        assert_eq!(minima, vec![1.5, 2.0]);
    }

    #[test]
    fn pipelined_throughput_is_the_trial_at_its_windows_least_times() {
        // Two trials of four windows of 256 answers; a burst slows the
        // second half of trial 0 and the first window of trial 1.
        let mut least = Vec::new();
        fold_minima(&mut least, &[0.2, 0.2, 0.3, 0.3]);
        fold_minima(&mut least, &[0.25, 0.2, 0.2, 0.2]);
        let rate = rate_of_minima(&[256.0; 4], &least);
        assert!((rate - 1280.0).abs() < 1e-9, "{rate}");
    }
}
