//! The one counter gate behind `swgate`: deterministic metrics
//! snapshots, their tolerance-band diff against the committed baselines,
//! and the hard checks of the query service and the store.
//!
//! Every collected value derives from virtual work (records, edges,
//! model nanoseconds, sweep rounds, service decisions) — never wall
//! clocks — so a snapshot is reproducible on a given platform and any
//! drift is a real behavioural change. Three gates share one baseline
//! read / diff / guarded write ([`check_baseline`]), one band policy
//! ([`ToleranceBands::standard`]) and one root picker ([`pick_roots`]):
//!
//! * [`insight_gate`] — [`collect_insight`]: the traversal and machine
//!   layers (both BFS messaging modes, netsim tier occupancy, chip
//!   counters), the instrumented algorithm kernels, the
//!   sw-insight analysis counters, and the flow-model prediction with
//!   its model-vs-measured deviation rows, against `BENCH_insight.json`;
//! * [`service_gate`] — the MS-BFS batching payoff (batch 64 at least
//!   4× faster than batch 1; the sweep counts exact) and the `serve.*`
//!   counters of a fixed staged query sequence, against
//!   `BENCH_service.json`;
//! * [`store_gate`] — build once, serve forever: engine and service
//!   restarts from persisted stores answer bit-identically, the mmap
//!   path copies nothing, and both baselines carry `store.*` at zero.
//!
//! Mismatches render as a keyed unified diff
//! ([`DiffReport::unified_diff`]) so a failing CI log shows old/new
//! value pairs, not just key names.

mod service;
mod store;

pub use service::service_gate;
pub use store::store_gate;

use std::fs;

use sw_algos::pagerank::pagerank_distributed;
use sw_algos::runtime::AlgoCluster;
use sw_algos::wcc::wcc_distributed;
use sw_arch::{metrics as arch_metrics, ChipConfig, CpeId, CycleSim, DmaEngine, ShuffleLayout, Spm};
use sw_graph::{generate_kronecker, KroneckerConfig};
use sw_net::{flow_prediction, simulate_phase, NetworkConfig, SimMessage};
use sw_trace::analyze::deviation;
use sw_trace::json::parse_flat_u64;
use sw_trace::report::TraceReport;
use sw_trace::{analyze, ClockDomain, CounterSet, MachineContext, Tracer};
use swbfs_core::{BfsConfig, ClusterBuilder, Messaging};

/// The fixed-seed workload of the insight snapshot.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Kronecker scale of the BFS graph.
    pub scale: u32,
    /// BFS ranks (the algo kernels use fewer, fixed independently).
    pub ranks: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Self {
            scale: 14,
            ranks: 8,
            seed: 42,
        }
    }
}

/// The fixed netsim phase the snapshot simulates (512 nodes, mixed
/// intra/cross traffic).
fn netsim_phase() -> (NetworkConfig, Vec<SimMessage>) {
    let net = NetworkConfig::taihulight(512);
    let msgs = (0..256u32)
        .map(|i| SimMessage {
            src: i,
            dst: (i * 7 + 13) % 512,
            bytes: 1 << 14,
        })
        .collect();
    (net, msgs)
}

/// Collects the traversal and machine layers of the snapshot. Returns
/// the counters plus the virtual-work Relay trace report (for insight
/// analysis) — collecting it here keeps the expensive BFS runs
/// single-pass.
fn collect_trace(w: &Workload) -> (CounterSet, TraceReport) {
    let mut combined = CounterSet::new();
    let el = generate_kronecker(&KroneckerConfig::graph500(w.scale, w.seed));
    let root = 1u64;
    let mut relay_report = None;
    // The paper-style Bottom-Up hub count: most Bottom-Up neighbours
    // are left to a query, so the snapshot covers the QUERY/REPLY
    // exchange.
    let base = BfsConfig {
        bottom_up_hubs: 1 << 10,
        ..BfsConfig::threaded_small(4)
    };

    // Threaded backend, both transports, traced in the virtual-work
    // domain so the event totals themselves are checkable numbers.
    for (prefix, messaging) in [("direct", Messaging::Direct), ("relay", Messaging::Relay)] {
        let cfg = base.with_messaging(messaging);
        let mut cluster = ClusterBuilder::new(&el, w.ranks, cfg)
            .build()
            .expect("cluster setup");
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, w.ranks as usize, 1 << 15);
        cluster.set_tracer(Some(tracer.clone()));
        cluster.run(root).expect("BFS run");
        combined.merge_prefixed(prefix, cluster.metrics());
        combined.set(
            &format!("{prefix}.trace.events"),
            tracer.recorded_events() as u64,
        );
        combined.set(&format!("{prefix}.trace.dropped"), tracer.dropped_events());
        if messaging == Messaging::Relay {
            relay_report = Some(tracer.report());
        }
    }

    // Network event simulator: a fixed mixed intra/cross phase.
    let (net, msgs) = netsim_phase();
    let sim = simulate_phase(&net, &msgs);
    sim.tiers.publish(&mut combined);
    combined.set("net.makespan_ns", sim.makespan_ns as u64);
    combined.set("net.cross_bytes", sim.cross_bytes);

    // Chip simulator: mesh cycle-sim, DMA calibration, SPM pressure.
    let chip = ChipConfig::sw26010();
    let rep = CycleSim::new(chip, ShuffleLayout::paper_default())
        .expect("cycle sim setup")
        .run(64, 1, 1)
        .expect("cycle sim run");
    arch_metrics::publish_cycle_report(&mut combined, &rep);
    arch_metrics::publish_dma(&mut combined, &DmaEngine::new(chip));
    let mut spm = Spm::new(CpeId::new(0, 0), 64 * 1024);
    spm.alloc("snapshot staging", 48 * 1024).expect("spm alloc");
    arch_metrics::publish_spm(&mut combined, &spm);

    (combined, relay_report.expect("relay pass always runs"))
}

/// Collects the full sw-insight snapshot: the trace snapshot plus the
/// instrumented algorithm kernels, the insight analysis of the Relay
/// BFS trace, the chip mesh utilization, and the flow-model prediction
/// with per-key deviation against the measured netsim occupancy.
pub fn collect_insight(w: &Workload) -> CounterSet {
    let (mut combined, relay_report) = collect_trace(w);

    // Instrumented algorithm kernels on a smaller fixed graph: the
    // canonical exchange.*/pool.*/faults.* sections, prefixed per
    // kernel like the BFS transports are.
    let el = generate_kronecker(&KroneckerConfig::graph500(w.scale.saturating_sub(3), w.seed));
    for (prefix, kernel) in [
        ("wcc", fn_wcc as fn(&mut AlgoCluster)),
        ("pagerank", fn_pagerank as fn(&mut AlgoCluster)),
    ] {
        let mut c = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 6, 1 << 14);
        c.set_tracer(Some(tracer.clone()));
        kernel(&mut c);
        combined.merge_prefixed(prefix, c.metrics());
        combined.set(
            &format!("{prefix}.trace.events"),
            tracer.recorded_events() as u64,
        );
    }

    // Mesh utilization gauges for attribution.
    let chip = ChipConfig::sw26010();
    let rep = CycleSim::new(chip, ShuffleLayout::paper_default())
        .expect("cycle sim setup")
        .run(64, 1, 1)
        .expect("cycle sim run");
    arch_metrics::publish_mesh_utilization(&mut combined, &chip, &rep);

    // Insight analysis of the Relay BFS trace under the measured
    // machine context (uplink share from the netsim occupancy).
    let ctx = MachineContext::new()
        .with_group_size(4)
        .with_counters(combined.clone());
    let insight = analyze(&relay_report, &ctx);
    let ic = insight.to_counters();
    for (k, v) in ic.iter() {
        combined.set(k, v);
    }

    // Flow-model prediction of the netsim phase and its deviation from
    // the measured occupancy — the model-vs-measured report as
    // regression-tracked counters.
    let (net, msgs) = netsim_phase();
    let pred = flow_prediction(&net, &msgs);
    pred.publish(&mut combined);
    let dev = deviation::compare(&combined.section("netmodel."), &combined.section("net."));
    dev.to_counters("model", &mut combined);

    combined
}

fn fn_wcc(c: &mut AlgoCluster) {
    wcc_distributed(c);
}

fn fn_pagerank(c: &mut AlgoCluster) {
    pagerank_distributed(c, 5);
}

/// Per-key tolerance bands, in permille of the baseline value: the
/// first matching substring rule wins; a key no rule matches must be
/// exact.
#[derive(Clone, Debug)]
pub struct ToleranceBands {
    rules: Vec<(&'static str, u64)>,
}

impl ToleranceBands {
    /// The committed-baseline policy: timing-flavoured keys (model
    /// nanoseconds, rates, permille ratios) tolerate 50‰ of float
    /// truncation skew across platforms; pure counts must be exact.
    pub fn standard() -> Self {
        Self {
            rules: vec![("_ns", 50), ("_mbps", 50), ("permille", 50)],
        }
    }

    /// The band for `key`.
    pub fn band_for(&self, key: &str) -> u64 {
        self.rules
            .iter()
            .find(|(p, _)| key.contains(p))
            .map_or(0, |&(_, b)| b)
    }
}

/// Why a key failed the diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// In the baseline but not measured.
    Missing,
    /// Measured outside the tolerance band.
    Drift,
    /// Measured but absent from the baseline.
    New,
}

/// One failing key.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// The counter key.
    pub key: String,
    /// Failure class.
    pub kind: DiffKind,
    /// Baseline value, when present.
    pub baseline: Option<u64>,
    /// Measured value, when present.
    pub current: Option<u64>,
    /// The tolerance band that applied.
    pub band_permille: u64,
    /// Observed drift, permille of baseline.
    pub drift_permille: u64,
}

/// Outcome of diffing a snapshot against a baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Failing keys, baseline order (new keys last).
    pub rows: Vec<DiffRow>,
    /// Keys compared (present on both sides).
    pub checked: usize,
}

impl DiffReport {
    /// Number of failing keys.
    pub fn failures(&self) -> usize {
        self.rows.len()
    }

    /// The failing keys, for error messages.
    pub fn offending_keys(&self) -> Vec<&str> {
        self.rows.iter().map(|r| r.key.as_str()).collect()
    }

    /// Renders the failures as a keyed unified diff: `-` lines carry
    /// the baseline value, `+` lines the measured one, with the band
    /// verdict in a trailing comment.
    pub fn unified_diff(&self, baseline_name: &str) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            return out;
        }
        out.push_str(&format!("--- {baseline_name}\n+++ measured\n"));
        for r in &self.rows {
            out.push_str(&format!("@@ {} @@\n", r.key));
            match r.kind {
                DiffKind::Missing => {
                    out.push_str(&format!(
                        "-{}: {}\n+{}: <missing>\n",
                        r.key,
                        r.baseline.unwrap_or(0),
                        r.key
                    ));
                }
                DiffKind::New => {
                    out.push_str(&format!(
                        "-{}: <absent>\n+{}: {}\n",
                        r.key,
                        r.key,
                        r.current.unwrap_or(0)
                    ));
                }
                DiffKind::Drift => {
                    out.push_str(&format!(
                        "-{}: {}\n+{}: {}  # drift {}\u{2030} > band {}\u{2030}\n",
                        r.key,
                        r.baseline.unwrap_or(0),
                        r.key,
                        r.current.unwrap_or(0),
                        r.drift_permille,
                        r.band_permille
                    ));
                }
            }
        }
        out
    }
}

/// Diffs `current` against a parsed `baseline` under `bands`.
pub fn diff_snapshot(
    baseline: &[(String, u64)],
    current: &CounterSet,
    bands: &ToleranceBands,
) -> DiffReport {
    let mut rep = DiffReport::default();
    for (k, base) in baseline {
        if current.iter().all(|(ck, _)| ck != k) {
            rep.rows.push(DiffRow {
                key: k.clone(),
                kind: DiffKind::Missing,
                baseline: Some(*base),
                current: None,
                band_permille: bands.band_for(k),
                drift_permille: 1000,
            });
            continue;
        }
        rep.checked += 1;
        let cur = current.get(k);
        let drift = cur.abs_diff(*base).saturating_mul(1000) / (*base).max(1);
        let band = bands.band_for(k);
        if drift > band {
            rep.rows.push(DiffRow {
                key: k.clone(),
                kind: DiffKind::Drift,
                baseline: Some(*base),
                current: Some(cur),
                band_permille: band,
                drift_permille: drift,
            });
        }
    }
    for (k, v) in current.iter() {
        if baseline.iter().all(|(bk, _)| bk != k) {
            rep.rows.push(DiffRow {
                key: k.to_string(),
                kind: DiffKind::New,
                baseline: None,
                current: Some(v),
                band_permille: bands.band_for(k),
                drift_permille: 1000,
            });
        }
    }
    rep
}

/// Refuses to rewrite a committed baseline from a dirty git worktree
/// (the rewrite would be unattributable) unless forced. When git is
/// unavailable the guard warns and allows the write.
fn guard_baseline_overwrite(path: &str, force: bool) -> Result<(), String> {
    if force || !std::path::Path::new(path).exists() {
        return Ok(());
    }
    match std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
    {
        Ok(out) if out.status.success() => {
            let dirty = String::from_utf8_lossy(&out.stdout);
            if dirty.trim().is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "refusing to overwrite {path}: git worktree is dirty \
                     ({} changed path(s)); commit or stash first, or pass --force",
                    dirty.lines().count()
                ))
            }
        }
        _ => {
            eprintln!("warning: git unavailable; skipping dirty-worktree guard for {path}");
            Ok(())
        }
    }
}

/// The one baseline step every gate ends in. With `write`, stores
/// `current` at `path` (guarded by the dirty-worktree check unless
/// `force`); otherwise diffs it against the committed file under
/// [`ToleranceBands::standard`], printing the keyed unified diff of any
/// failure. Returns the summary line.
pub fn check_baseline(
    path: &str,
    current: &CounterSet,
    write: bool,
    force: bool,
) -> Result<String, String> {
    if write {
        guard_baseline_overwrite(path, force)?;
        fs::write(path, current.to_json() + "\n").map_err(|e| format!("write {path}: {e}"))?;
        return Ok(format!("wrote {} counters to {path}", current.len()));
    }
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path} ({e}); generate one with --write"))?;
    let baseline = parse_flat_u64(&text).map_err(|e| format!("malformed baseline {path}: {e}"))?;
    let diff = diff_snapshot(&baseline, current, &ToleranceBands::standard());
    if diff.failures() > 0 {
        print!("{}", diff.unified_diff(path));
        return Err(format!(
            "{} regression(s) over {} checked counters of {path}: {}",
            diff.failures(),
            diff.checked,
            diff.offending_keys().join(", ")
        ));
    }
    Ok(format!(
        "{} counters within tolerance of {path}",
        diff.checked
    ))
}

/// The insight gate: the fixed-seed snapshot against
/// `BENCH_insight.json`.
pub fn insight_gate(write: bool, force: bool) -> Result<String, String> {
    check_baseline(
        "BENCH_insight.json",
        &collect_insight(&Workload::default()),
        write,
        force,
    )
}

/// `count` distinct roots in `0..n`, spread over the id space by a
/// fixed LCG stream: the same roots on every run.
pub fn pick_roots(n: u64, count: usize) -> Vec<u64> {
    let mut roots = Vec::with_capacity(count);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    while roots.len() < count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x % n;
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(pairs: &[(&str, u64)]) -> CounterSet {
        let mut c = CounterSet::new();
        for (k, v) in pairs {
            c.set(k, *v);
        }
        c
    }

    #[test]
    fn bands_match_by_substring() {
        let b = ToleranceBands::standard();
        assert_eq!(b.band_for("net.makespan_ns"), 50);
        assert_eq!(b.band_for("arch.dma.cluster_peak_mbps"), 50);
        assert_eq!(b.band_for("insight.parallelism_permille"), 50);
        assert_eq!(b.band_for("exchange.messages"), 0);
        assert_eq!(b.band_for("serve.max_roots_per_batch"), 0);
        assert_eq!(b.band_for("kernel.batch64.rounds"), 0);
    }

    #[test]
    fn diff_classifies_missing_drift_and_new() {
        let baseline = vec![
            ("a.count".to_string(), 100u64),
            ("b.busy_ns".to_string(), 1000),
            ("c.gone".to_string(), 5),
        ];
        let bands = ToleranceBands::standard();
        let current = cs(&[("a.count", 100), ("b.busy_ns", 1030), ("d.new", 7)]);
        let rep = diff_snapshot(&baseline, &current, &bands);
        assert_eq!(rep.checked, 2);
        let kinds: Vec<(&str, DiffKind)> = rep
            .rows
            .iter()
            .map(|r| (r.key.as_str(), r.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![("c.gone", DiffKind::Missing), ("d.new", DiffKind::New)],
            "30\u{2030} drift on a _ns key is inside the 50\u{2030} band"
        );

        let past_band = cs(&[("a.count", 101), ("b.busy_ns", 1060), ("c.gone", 5)]);
        let rep = diff_snapshot(&baseline, &past_band, &bands);
        let drifted: Vec<&str> = rep.offending_keys();
        assert_eq!(
            drifted,
            vec!["a.count", "b.busy_ns"],
            "counts exact, 60\u{2030} > 50\u{2030}"
        );
        assert!(rep.rows.iter().all(|r| r.kind == DiffKind::Drift));
    }

    #[test]
    fn unified_diff_names_values_and_bands() {
        let baseline = vec![("x.count".to_string(), 10u64)];
        let bands = ToleranceBands::standard();
        let rep = diff_snapshot(&baseline, &cs(&[("x.count", 12)]), &bands);
        let d = rep.unified_diff("BENCH_test.json");
        assert!(d.contains("--- BENCH_test.json"));
        assert!(d.contains("@@ x.count @@"));
        assert!(d.contains("-x.count: 10"));
        assert!(d.contains("+x.count: 12"));
        assert!(d.contains("200\u{2030}"));
        let clean = diff_snapshot(&baseline, &cs(&[("x.count", 10)]), &bands);
        assert_eq!(clean.unified_diff("b"), "", "no failures, no diff");
    }

    #[test]
    fn baseline_write_then_check_round_trips_and_catches_drift() {
        let dir = std::env::temp_dir().join(format!("swgate_baseline_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        let snap = cs(&[("serve.queries", 124), ("net.makespan_ns", 1000)]);
        let wrote = check_baseline(path, &snap, true, false).unwrap();
        assert!(wrote.starts_with("wrote 2 counters"), "{wrote}");
        assert!(check_baseline(path, &snap, false, false).is_ok());
        let drifted = cs(&[("serve.queries", 125), ("net.makespan_ns", 1000)]);
        let err = check_baseline(path, &drifted, false, false).unwrap_err();
        assert!(err.contains("serve.queries"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        let missing = check_baseline(path, &snap, false, false).unwrap_err();
        assert!(missing.contains("generate one with --write"), "{missing}");
    }

    #[test]
    fn insight_snapshot_is_deterministic_and_extends_trace() {
        let w = Workload {
            scale: 10,
            ranks: 4,
            seed: 42,
        };
        let a = collect_insight(&w);
        let b = collect_insight(&w);
        assert_eq!(a.to_json(), b.to_json(), "snapshot must be reproducible");
        for prefix in [
            "direct.", "relay.", "net.", "arch.", "wcc.", "pagerank.", "insight.",
            "netmodel.", "model.",
        ] {
            assert!(
                a.iter().any(|(k, _)| k.starts_with(prefix)),
                "missing section {prefix}"
            );
        }
        // The kernel.* observability section rides along under every
        // transport prefix, with exact (0-permille) bands like all
        // counts.
        for prefix in ["direct", "relay"] {
            assert!(
                a.get(&format!("{prefix}.kernel.words_scanned")) > 0,
                "{prefix}: word sweeps never engaged in the snapshot"
            );
            assert_eq!(
                ToleranceBands::standard()
                    .band_for(&format!("{prefix}.kernel.words_scanned")),
                0,
                "kernel counters must diff exactly"
            );
        }
        // The accounting deviation rows are exact; the makespan row is
        // the only honest model error.
        assert_eq!(a.get("model.cross_bytes.error_permille"), 0);
        assert!(a.get("model.max_error_permille") >= a.get("model.makespan_ns.error_permille"));
    }
}
