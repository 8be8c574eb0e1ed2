//! Deterministic fault injection for the exchange pipeline.
//!
//! At 40,960 nodes link stalls, connection-memory exhaustion, and
//! straggler core groups are routine operating conditions, not
//! exceptions; a reproduction that treats every transport hiccup as
//! fatal cannot make statements about the paper's scale. This module
//! provides the machinery to *test* robustness the way the
//! oracle-differential methodology demands: every survivable fault
//! schedule must leave BFS output bit-identical to the fault-free run,
//! and every unsurvivable schedule must surface a structured
//! [`ExchangeError`] — never a panic, a hang, or silent corruption
//! (asserted by `tests/chaos.rs`).
//!
//! Three pieces:
//!
//! * [`FaultPlan`] — a *seeded, stateless* fault schedule. Every
//!   injection decision is a pure hash of `(seed, phase, variant, src,
//!   dst, attempt)`, so the schedule is reproducible independent of
//!   thread interleaving, and the same plan drives the shared-memory
//!   and socket fabrics.
//! * [`RetryPolicy`] — the resilience knobs of a run (carried by
//!   [`crate::config::BfsConfig`]): bounded retries with deterministic
//!   exponential backoff (no jitter — reproducibility is the point), a
//!   per-level simulated-time budget, and the degradation switches
//!   (relay→direct fallback, compression disable under truncation).
//! * [`FaultSession`] — the per-cluster injection state: the phase
//!   counter, the sticky degradations, the injection trace the
//!   determinism proptests compare, and the one verdict pass every
//!   fabric takes (`FaultSession::verdict` over [`phase_messages`]):
//!   which messages a phase sends, in what order, and which sticky
//!   degradation engages after a failed pass are decided here and
//!   nowhere else.

use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{group_bounds, Codec, ExchangeStats};
use crate::instrument as ins;
use sw_net::GroupLayout;
use sw_trace::Tracer;

/// SplitMix64 finalizer — the decision hash behind every injection.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines hash inputs without an ordered RNG stream: injection
/// decisions stay identical under any parallel schedule.
fn decision(seed: u64, phase: u64, variant: u32, src: u32, dst: u32, attempt: u32) -> u64 {
    let a = mix(seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407));
    let b = mix(a ^ ((src as u64) << 32 | dst as u64));
    mix(b ^ ((variant as u64) << 32 | attempt as u64))
}

/// What a single injected fault did to one transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The message vanished; the receiver never acknowledges.
    Drop,
    /// The message arrived cut short and failed its frame check.
    Truncate,
    /// The message was delivered, but late (adds simulated latency).
    Delay,
    /// The link (or relay node) is administratively dead — every
    /// attempt fails until the transport degrades around it.
    Down,
}

/// One injected fault, as recorded in the [`FaultSession`] trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionEvent {
    /// Exchange phase the fault hit.
    pub phase: u64,
    /// Degradation variant within the phase (0 = first delivery try).
    pub variant: u32,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Zero-based send attempt the fault consumed.
    pub attempt: u32,
    /// What happened.
    pub kind: FaultKind,
}

/// One logical transfer of an exchange phase, as the fault layer sees
/// it: endpoints, payload size, and the relay role (faults that model a
/// sick relay node hit only messages performing relay duty, which is
/// what makes relay→direct fallback a *repair*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgDesc {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Records aboard (0 = termination indicator).
    pub records: u64,
    /// The relay node whose duty this message is, if any: stage-1
    /// batches are tagged with their receiving relay, stage-2 forwards
    /// with their sending relay. `None` for direct and group-mate
    /// messages.
    pub relay: Option<u32>,
}

/// The logical transfers of one exchange phase under `mode`, in the
/// deterministic order the fault layer simulates them; `count(s, d)` is
/// the number of records rank `s` holds for rank `d`.
///
/// * **Direct** — every ordered pair `(s, d)`, `s ≠ d`, sources
///   ascending, then destinations ascending (termination indicators
///   included: empty pairs still send).
/// * **Relay** — stage 1 per source (group-mate deliveries, then one
///   batch per remote group to the relay in the source's column),
///   followed by stage 2 per relay (forwards to its group mates,
///   destinations ascending). Relay-duty messages carry their relay's
///   id so a dead-relay fault can single them out.
pub fn phase_messages(
    mode: Messaging,
    layout: &GroupLayout,
    count: impl Fn(usize, usize) -> u64,
) -> Vec<MsgDesc> {
    let ranks = layout.nodes() as usize;
    let mut msgs = Vec::new();
    let mut send = |src: usize, dst: u32, records: u64, relay: Option<u32>| {
        msgs.push(MsgDesc { src: src as u32, dst, records, relay });
    };
    match mode {
        Messaging::Direct => {
            for s in 0..ranks {
                for d in (0..ranks).filter(|&d| d != s) {
                    send(s, d as u32, count(s, d), None);
                }
            }
        }
        Messaging::Relay => {
            // Stage 1: sources ascending.
            for s in 0..ranks {
                let my_group = layout.group_of(s as u32);
                let (gs, ge) = group_bounds(layout, my_group);
                for d in (gs..ge).filter(|&d| d as usize != s) {
                    send(s, d, count(s, d as usize), None);
                }
                for g in (0..layout.num_groups()).filter(|&g| g != my_group) {
                    let relay = layout.node_at(g, layout.index_of(s as u32));
                    let (gs, ge) = group_bounds(layout, g);
                    let batch = (gs..ge).map(|d| count(s, d as usize)).sum();
                    send(s, relay, batch, Some(relay));
                }
            }
            // Stage 2: relays ascending, each forwarding to its group
            // mates what the sources in its column sent them.
            for r in 0..ranks {
                let gr = layout.group_of(r as u32);
                let (gs, ge) = group_bounds(layout, gr);
                let col = layout.index_of(r as u32);
                let column = |s: &usize| {
                    layout.group_of(*s as u32) != gr && layout.index_of(*s as u32) % (ge - gs) == col
                };
                for d in (gs..ge).filter(|&d| d as usize != r) {
                    let records = (0..ranks).filter(column).map(|s| count(s, d as usize)).sum();
                    send(r, d, records, Some(r as u32));
                }
            }
        }
    }
    msgs
}

/// Bounded-retry and degradation policy of a run. Lives in
/// [`crate::config::BfsConfig::retry`]; only consulted when a
/// [`FaultSession`] is armed (the fault-free hot path never reads it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts allowed per message per phase (≥ 1); the
    /// budget exhausting maps to [`ExchangeError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base << (k-1)` simulated
    /// nanoseconds…
    pub base_backoff_ns: u64,
    /// …capped here (jitter-free: determinism is a feature).
    pub backoff_cap_ns: u64,
    /// Simulated-time budget per exchange phase (backoffs + injected
    /// delays); exceeding it maps to [`ExchangeError::LevelTimeout`].
    pub level_timeout_ns: u64,
    /// On retry exhaustion under Relay transport, re-send the level
    /// Direct from the pooled buffers instead of failing.
    pub fallback_direct: bool,
    /// On retry exhaustion with truncation faults observed under the
    /// compressed codec, re-send with fixed framing instead of failing.
    pub compression_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff_ns: 1_000,
            backoff_cap_ns: 1 << 20,
            level_timeout_ns: u64::MAX / 2,
            fallback_direct: true,
            compression_fallback: true,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after failed attempt `attempt` (1-based):
    /// `min(base · 2^(attempt-1), cap)`, saturating. Deterministic —
    /// there is no jitter term, so identical schedules replay
    /// identically.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        debug_assert!(attempt >= 1, "backoff is charged after an attempt");
        let shift = attempt.saturating_sub(1);
        if shift >= 64 {
            return self.backoff_cap_ns;
        }
        self.base_backoff_ns
            .checked_mul(1u64 << shift)
            .unwrap_or(self.backoff_cap_ns)
            .min(self.backoff_cap_ns)
    }

    /// First problem with the policy, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry.max_attempts must be at least 1".into());
        }
        if self.backoff_cap_ns < self.base_backoff_ns {
            return Err(format!(
                "retry.backoff_cap_ns ({}) below base_backoff_ns ({})",
                self.backoff_cap_ns, self.base_backoff_ns
            ));
        }
        Ok(())
    }
}

/// A seeded, deterministic fault schedule.
///
/// Random faults are drawn per attempt from the decision hash; the
/// `max_burst` clamp bounds consecutive faults on one message, so a
/// plan with `max_burst < RetryPolicy::max_attempts` and no dead
/// links/relays is *survivable by construction* — the chaos harness
/// leans on that to classify schedules without running them twice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed; everything below is deterministic given it.
    pub seed: u64,
    /// Per-attempt drop probability, ‰.
    pub drop_permille: u16,
    /// Per-attempt truncation probability, ‰.
    pub truncate_permille: u16,
    /// Per-attempt delay probability, ‰ (delivered, but late).
    pub delay_permille: u16,
    /// Simulated latency one delay fault adds.
    pub delay_ns: u64,
    /// Maximum consecutive random faults on one message; attempts past
    /// the clamp succeed. Dead links/relays ignore the clamp.
    pub max_burst: u32,
    /// `(src, dst)` pairs whose messages always fail, on any
    /// transport, from [`Self::dead_from_phase`] on.
    pub dead_links: Vec<(u32, u32)>,
    /// Relay nodes whose *relay-duty* messages (stage-1 batches into
    /// them, stage-2 forwards out of them) always fail from
    /// [`Self::dead_from_phase`] on. Direct traffic is unaffected —
    /// falling back to Direct routes around the sick relay.
    pub dead_relays: Vec<u32>,
    /// `(src, dst)` pairs that permanently truncate *compressed*
    /// payloads (fragile framing); fixed-width frames resynchronize,
    /// so disabling compression routes around these.
    pub corrupt_links: Vec<(u32, u32)>,
    /// First phase at which the dead/corrupt sets take effect.
    pub dead_from_phase: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to measure the overhead of
    /// the armed fault layer itself).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_permille: 0,
            truncate_permille: 0,
            delay_permille: 0,
            delay_ns: 0,
            max_burst: 0,
            dead_links: Vec::new(),
            dead_relays: Vec::new(),
            corrupt_links: Vec::new(),
            dead_from_phase: 0,
        }
    }

    /// A lossy-but-survivable schedule: drops, truncations, and delays
    /// at rates that exercise every retry path, with the burst clamp
    /// guaranteeing eventual delivery under the default
    /// [`RetryPolicy`].
    pub fn lossy(seed: u64) -> Self {
        Self {
            drop_permille: 60,
            truncate_permille: 30,
            delay_permille: 30,
            delay_ns: 5_000,
            max_burst: 2,
            ..Self::quiet(seed)
        }
    }

    /// Adds a permanently dead `(src, dst)` link (kills any transport).
    pub fn with_dead_link(mut self, src: u32, dst: u32) -> Self {
        self.dead_links.push((src, dst));
        self
    }

    /// Adds a sick relay node (kills relay-duty messages only).
    pub fn with_dead_relay(mut self, relay: u32) -> Self {
        self.dead_relays.push(relay);
        self
    }

    /// Adds a link that corrupts compressed payloads.
    pub fn with_corrupt_link(mut self, src: u32, dst: u32) -> Self {
        self.corrupt_links.push((src, dst));
        self
    }

    /// Sets the phase at which dead/corrupt sets activate.
    pub fn dead_from(mut self, phase: u64) -> Self {
        self.dead_from_phase = phase;
        self
    }

    /// True if no mechanism of the plan can fire.
    pub fn is_quiet(&self) -> bool {
        self.drop_permille == 0
            && self.truncate_permille == 0
            && self.delay_permille == 0
            && self.dead_links.is_empty()
            && self.dead_relays.is_empty()
            && self.corrupt_links.is_empty()
    }

    /// The fault (if any) injected into send attempt `attempt`
    /// (0-based) of `msg` during `phase`/`variant`. Pure function of
    /// the plan — no interior state, so any backend and any thread
    /// reaches the same verdict.
    pub fn attempt_fault(
        &self,
        phase: u64,
        variant: u32,
        msg: &MsgDesc,
        attempt: u32,
        compressed: bool,
    ) -> Option<FaultKind> {
        if phase >= self.dead_from_phase {
            if self.dead_links.contains(&(msg.src, msg.dst)) {
                return Some(FaultKind::Down);
            }
            if let Some(r) = msg.relay {
                if self.dead_relays.contains(&r) {
                    return Some(FaultKind::Down);
                }
            }
            if compressed && self.corrupt_links.contains(&(msg.src, msg.dst)) {
                return Some(FaultKind::Truncate);
            }
        }
        if attempt >= self.max_burst {
            return None; // burst clamp: survivable by construction
        }
        let roll = (decision(self.seed, phase, variant, msg.src, msg.dst, attempt) % 1000) as u16;
        if roll < self.drop_permille {
            Some(FaultKind::Drop)
        } else if roll < self.drop_permille + self.truncate_permille {
            Some(FaultKind::Truncate)
        } else if roll < self.drop_permille + self.truncate_permille + self.delay_permille {
            Some(FaultKind::Delay)
        } else {
            None
        }
    }

}

/// Counters one faulty delivery pass produced (also the failure path —
/// partial work is accounted so [`crate::exchange::ExchangeStats`]
/// stays truthful even when a phase degrades or errors).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PhaseReport {
    /// Re-sends scheduled (one per failed attempt).
    retries: u64,
    /// Faults injected (drops + truncations + delays + downs).
    faults_injected: u64,
    /// Truncation faults among them (drives compression fallback).
    truncations: u64,
    /// Terminal failure of the pass, if any.
    error: Option<ExchangeError>,
}

/// Per-cluster injection state: the plan and the policy it is met
/// with, phase counter, sticky degradations, and the injection trace.
#[derive(Clone, Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    retry: RetryPolicy,
    plain: Codec,
    phase: u64,
    variant: u32,
    forced_direct: bool,
    compression_disabled: bool,
    trace: Vec<InjectionEvent>,
}

impl FaultSession {
    /// Arms a session over `plan`, retried under `retry`; `plain` is
    /// the codec degraded compression falls back to.
    pub fn new(plan: FaultPlan, retry: RetryPolicy, plain: Codec) -> Self {
        Self {
            plan,
            retry,
            plain,
            phase: 0,
            variant: 0,
            forced_direct: false,
            compression_disabled: false,
            trace: Vec::new(),
        }
    }

    /// Exchange phases completed so far.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Every fault injected so far, in injection order.
    pub fn trace(&self) -> &[InjectionEvent] {
        &self.trace
    }

    /// Has any graceful degradation engaged?
    pub fn is_degraded(&self) -> bool {
        self.forced_direct || self.compression_disabled
    }

    /// Closes the current exchange phase. Every fabric calls it exactly
    /// once per faulty exchange, after delivering (or failing).
    pub(crate) fn end_phase(&mut self) {
        self.phase += 1;
        self.variant = 0;
    }

    /// The one verdict of an exchange phase: picks the effective mode and
    /// codec from the sticky flags, simulates the phase's
    /// [`phase_messages`] (`count` as there), records the retry/fault
    /// instants on the run lane of `trace`, and after a failed pass
    /// engages the cheapest repair left: the session's plain codec when
    /// truncations hit a compressed pass, then relay→direct when the mode
    /// has a relay stage (a relay-less fabric asks with
    /// [`Messaging::Direct`]). Each engages at most once, so it ends.
    ///
    /// Returns the winning `(mode, codec)` or the terminal error, plus
    /// the retry and fault tallies of every pass. The phase stays open
    /// for the fabric's one delivery, then [`Self::end_phase`].
    pub(crate) fn verdict(
        &mut self,
        mode: Messaging,
        layout: &GroupLayout,
        count: impl Fn(usize, usize) -> u64,
        codec: Codec,
        trace: Option<&Tracer>,
        level: u32,
    ) -> (Result<(Messaging, Codec), ExchangeError>, ExchangeStats) {
        let mut tallies = ExchangeStats::default();
        loop {
            let eff_mode = if self.forced_direct {
                Messaging::Direct
            } else {
                mode
            };
            let eff_codec = if self.compression_disabled {
                self.plain
            } else {
                codec
            };
            let compressed = eff_codec == Codec::Compressed;
            let msgs = phase_messages(eff_mode, layout, &count);
            let report = self.deliver_phase(&msgs, compressed);
            if let Some(t) = trace {
                // Fault-layer instants land on the run lane (last lane
                // under the for_ranks convention); absent in clean runs.
                let lane = t.num_lanes().saturating_sub(1);
                if report.retries > 0 {
                    t.instant(lane, ins::INSTANT_RETRY, ins::CAT_FAULT, level, report.retries);
                }
                if report.faults_injected > 0 {
                    t.instant(lane, ins::INSTANT_FAULT, ins::CAT_FAULT, level, report.faults_injected);
                }
            }
            tallies.retries += report.retries;
            tallies.faults_injected += report.faults_injected;
            let Some(err) = report.error else {
                return (Ok((eff_mode, eff_codec)), tallies);
            };
            // Sticky for the rest of the run; each opens a fresh
            // delivery variant within the phase.
            if self.retry.compression_fallback
                && compressed
                && report.truncations > 0
                && !self.compression_disabled
            {
                self.compression_disabled = true;
            } else if self.retry.fallback_direct
                && eff_mode == Messaging::Relay
                && !self.forced_direct
            {
                self.forced_direct = true;
            } else {
                return (Err(err), tallies);
            }
            self.variant += 1;
        }
    }

    /// The faults the open variant has charged: after a successful
    /// [`Self::verdict`], every transfer's failed attempts and delay, in
    /// order — what a fabric that realizes the schedule physically (the
    /// socket transport) replays on the wire.
    pub(crate) fn open_variant_trace(&self) -> &[InjectionEvent] {
        let open = |e: &InjectionEvent| (e.phase, e.variant) == (self.phase, self.variant);
        let start = self.trace.iter().rposition(|e| !open(e)).map_or(0, |i| i + 1);
        &self.trace[start..]
    }

    /// Simulates delivery of one phase's messages, sequentially and in
    /// input order (the order is part of the deterministic contract).
    /// Every message is retried under the session's policy until it
    /// succeeds, its attempt budget exhausts, or the phase's
    /// simulated-time budget runs out; the report carries the counters
    /// either way.
    fn deliver_phase(&mut self, msgs: &[MsgDesc], compressed: bool) -> PhaseReport {
        let policy = self.retry;
        let mut rep = PhaseReport::default();
        let mut clock = 0u64;
        'msgs: for m in msgs {
            for attempt in 0u32.. {
                if attempt >= policy.max_attempts {
                    rep.error = Some(ExchangeError::RetriesExhausted {
                        phase: self.phase,
                        src: m.src,
                        dst: m.dst,
                        attempts: policy.max_attempts,
                    });
                    break 'msgs;
                }
                let fault = self.plan.attempt_fault(self.phase, self.variant, m, attempt, compressed);
                let Some(kind) = fault else {
                    break; // delivered
                };
                self.trace.push(InjectionEvent {
                    phase: self.phase,
                    variant: self.variant,
                    src: m.src,
                    dst: m.dst,
                    attempt,
                    kind,
                });
                rep.faults_injected += 1;
                // A delay delivers late; every other fault costs a
                // backoff and a re-send.
                let delayed = kind == FaultKind::Delay;
                clock += if delayed {
                    self.plan.delay_ns
                } else {
                    rep.retries += 1;
                    rep.truncations += u64::from(kind == FaultKind::Truncate);
                    policy.backoff_ns(attempt + 1)
                };
                if clock > policy.level_timeout_ns {
                    rep.error = Some(ExchangeError::LevelTimeout {
                        phase: self.phase,
                        elapsed_ns: clock,
                        budget_ns: policy.level_timeout_ns,
                    });
                    break 'msgs;
                }
                if delayed {
                    break;
                }
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32) -> MsgDesc {
        MsgDesc {
            src,
            dst,
            records: 1,
            relay: None,
        }
    }

    // ---- backoff/timeout arithmetic (satellite: unit tests) ----

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            base_backoff_ns: 100,
            backoff_cap_ns: 1000,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ns(1), 100);
        assert_eq!(p.backoff_ns(2), 200);
        assert_eq!(p.backoff_ns(3), 400);
        assert_eq!(p.backoff_ns(4), 800);
        assert_eq!(p.backoff_ns(5), 1000); // capped
        assert_eq!(p.backoff_ns(40), 1000);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(p.backoff_ns(u32::MAX), 1000);
    }

    #[test]
    fn backoff_is_jitter_free_deterministic() {
        let p = RetryPolicy::default();
        for k in 1..32 {
            assert_eq!(p.backoff_ns(k), p.backoff_ns(k));
        }
    }

    #[test]
    fn retry_budget_exhaustion_is_an_error_not_a_panic() {
        let plan = FaultPlan::quiet(1).with_dead_link(0, 1);
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut s = FaultSession::new(plan, p, Codec::Fixed(16));
        let rep = s.deliver_phase(&[msg(0, 1)], false);
        match rep.error {
            Some(ExchangeError::RetriesExhausted {
                phase,
                src,
                dst,
                attempts,
            }) => {
                assert_eq!((phase, src, dst, attempts), (0, 0, 1, 3));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(rep.retries, 3);
        assert_eq!(rep.faults_injected, 3);
    }

    #[test]
    fn timeout_budget_is_an_error_not_a_panic() {
        let plan = FaultPlan {
            delay_permille: 1000,
            delay_ns: 10_000,
            max_burst: 1,
            ..FaultPlan::quiet(7)
        };
        let p = RetryPolicy {
            level_timeout_ns: 15_000,
            ..RetryPolicy::default()
        };
        let mut s = FaultSession::new(plan, p, Codec::Fixed(16));
        let msgs: Vec<MsgDesc> = (1..5).map(|d| msg(0, d)).collect();
        let rep = s.deliver_phase(&msgs, false);
        assert!(matches!(
            rep.error,
            Some(ExchangeError::LevelTimeout { .. })
        ));
    }

    #[test]
    fn policy_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            base_backoff_ns: 10,
            backoff_cap_ns: 5,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
    }

    // ---- plan determinism and semantics ----

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let plan = FaultPlan::lossy(42);
        for phase in 0..8 {
            for s in 0..6 {
                for d in 0..6 {
                    for a in 0..4 {
                        let x = plan.attempt_fault(phase, 0, &msg(s, d), a, false);
                        let y = plan.attempt_fault(phase, 0, &msg(s, d), a, false);
                        assert_eq!(x, y);
                    }
                }
            }
        }
    }

    #[test]
    fn burst_clamp_guarantees_eventual_delivery() {
        let plan = FaultPlan::lossy(3); // max_burst = 2
        for phase in 0..64 {
            for s in 0..8 {
                for d in 0..8 {
                    assert_eq!(
                        plan.attempt_fault(phase, 0, &msg(s, d), plan.max_burst, false),
                        None,
                        "attempt past the burst clamp must succeed"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_relay_spares_direct_traffic() {
        let plan = FaultPlan::quiet(5).with_dead_relay(3);
        let relayed = MsgDesc {
            src: 0,
            dst: 3,
            records: 2,
            relay: Some(3),
        };
        let direct = msg(0, 3);
        assert_eq!(
            plan.attempt_fault(0, 0, &relayed, 0, false),
            Some(FaultKind::Down)
        );
        assert_eq!(plan.attempt_fault(0, 0, &direct, 0, false), None);
    }

    #[test]
    fn corrupt_link_only_bites_compressed_payloads() {
        let plan = FaultPlan::quiet(9).with_corrupt_link(1, 2);
        assert_eq!(
            plan.attempt_fault(0, 0, &msg(1, 2), 0, true),
            Some(FaultKind::Truncate)
        );
        assert_eq!(plan.attempt_fault(0, 0, &msg(1, 2), 0, false), None);
    }

    #[test]
    fn dead_sets_respect_activation_phase() {
        let plan = FaultPlan::quiet(5).with_dead_link(0, 1).dead_from(4);
        assert_eq!(plan.attempt_fault(3, 0, &msg(0, 1), 0, false), None);
        assert_eq!(
            plan.attempt_fault(4, 0, &msg(0, 1), 0, false),
            Some(FaultKind::Down)
        );
    }

    #[test]
    fn trace_records_phase_variant_and_attempt() {
        let plan = FaultPlan::quiet(11).with_dead_relay(2);
        let m = MsgDesc {
            src: 0,
            dst: 2,
            records: 1,
            relay: Some(2),
        };
        let p = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut s = FaultSession::new(plan, p, Codec::Fixed(16));
        let rep = s.deliver_phase(&[m], false);
        assert!(rep.error.is_some());
        assert_eq!(s.trace().len(), 2);
        assert_eq!(s.trace()[0].attempt, 0);
        assert_eq!(s.trace()[1].attempt, 1);
        assert!(s.trace().iter().all(|e| e.kind == FaultKind::Down));
    }

    // ---- the one message enumeration and the one verdict ----

    /// `count(s, d)` for a deterministic all-pairs pattern.
    fn pattern(s: usize, d: usize) -> u64 {
        (s * 10 + d) as u64
    }

    #[test]
    fn direct_phase_lists_every_ordered_pair_sources_then_destinations() {
        let layout = GroupLayout::new(4, 2);
        let msgs = phase_messages(Messaging::Direct, &layout, pattern);
        let pairs: Vec<(u32, u32)> = msgs.iter().map(|m| (m.src, m.dst)).collect();
        let expected: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|s| (0..4u32).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        assert_eq!(pairs, expected);
        assert!(msgs.iter().all(|m| m.relay.is_none()));
        assert!(msgs.iter().all(|m| m.records == pattern(m.src as usize, m.dst as usize)));
    }

    #[test]
    fn relay_phase_lists_stage_one_then_stage_two() {
        let layout = GroupLayout::new(8, 4);
        let msgs = phase_messages(Messaging::Relay, &layout, pattern);
        // Stage 1: 3 group mates + 1 remote-group batch per source;
        // stage 2: 3 forwards per relay.
        assert_eq!(msgs.len(), 8 * 4 + 8 * 3);
        let (stage1, stage2) = msgs.split_at(32);
        assert_eq!(stage1[..4].iter().map(|m| (m.src, m.dst, m.relay)).collect::<Vec<_>>(), [
            (0, 1, None),
            (0, 2, None),
            (0, 3, None),
            (0, 4, Some(4)),
        ]);
        // Source 0's batch to group 1 carries everything it holds for 4..8.
        assert_eq!(stage1[3].records, (4..8).map(|d| pattern(0, d)).sum::<u64>());
        // Relay 4 forwards to 5 what group 0's column-0 source sent it.
        assert_eq!((stage2[0].src, stage2[0].dst, stage2[0].relay), (0, 1, Some(0)));
        let fwd = stage2.iter().find(|m| (m.src, m.dst) == (4, 5)).unwrap();
        assert_eq!(fwd.records, pattern(0, 5));
        assert!(stage2.iter().all(|m| m.relay == Some(m.src)));
        // Every record travels once in stage 1; cross-group ones whose
        // destination is not their relay travel again in stage 2.
        let forwarded: u64 = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .filter(|&(s, d)| s / 4 != d / 4 && s % 4 != d % 4)
            .map(|(s, d)| pattern(s, d))
            .sum();
        let all: u64 = (0..8)
            .flat_map(|s| (0..8).filter(move |&d| d != s).map(move |d| pattern(s, d)))
            .sum();
        assert_eq!(stage1.iter().map(|m| m.records).sum::<u64>(), all);
        assert_eq!(stage2.iter().map(|m| m.records).sum::<u64>(), forwarded);
    }

    #[allow(clippy::type_complexity)]
    fn verdict_of(
        plan: FaultPlan,
        mode: Messaging,
        codec: Codec,
    ) -> (Result<(Messaging, Codec), ExchangeError>, ExchangeStats, FaultSession) {
        let layout = GroupLayout::new(8, 4);
        let mut s = FaultSession::new(plan, RetryPolicy::default(), Codec::Fixed(16));
        let (v, tallies) = s.verdict(mode, &layout, pattern, codec, None, 0);
        (v, tallies, s)
    }

    #[test]
    fn verdict_repairs_compression_before_the_relay_stage() {
        // A group-mate link that truncates compressed frames: fixed
        // framing cures it, so the relay stage must survive.
        let plan = FaultPlan::quiet(3).with_corrupt_link(0, 1);
        let (v, tallies, s) = verdict_of(plan, Messaging::Relay, Codec::Compressed);
        assert_eq!(v, Ok((Messaging::Relay, Codec::Fixed(16))));
        assert!(s.compression_disabled && !s.forced_direct);
        let max = RetryPolicy::default().max_attempts as u64;
        assert_eq!((tallies.retries, tallies.faults_injected), (max, max));
        assert!(s.trace().iter().all(|e| e.variant == 0 && e.kind == FaultKind::Truncate));
    }

    #[test]
    fn verdict_routes_around_a_dead_relay_only_where_a_relay_stage_exists() {
        let plan = FaultPlan::quiet(3).with_dead_relay(4);
        let (v, _, s) = verdict_of(plan.clone(), Messaging::Relay, Codec::Fixed(16));
        assert_eq!(v, Ok((Messaging::Direct, Codec::Fixed(16))));
        assert!(s.forced_direct && !s.compression_disabled);
        // A dead link has no repair; a relay-less fabric asks in Direct
        // and never degrades.
        let plan = plan.with_dead_link(2, 3);
        let (v, _, s) = verdict_of(plan, Messaging::Direct, Codec::Compressed);
        assert!(matches!(v, Err(ExchangeError::RetriesExhausted { src: 2, dst: 3, .. })));
        assert!(!s.is_degraded());
    }

    #[test]
    fn open_variant_trace_is_the_winning_variants_suffix() {
        // A corrupt link fails variant 0 of every phase from 1 on; the
        // winning variant's events are what the socket replays.
        let plan = FaultPlan::lossy(29).with_corrupt_link(0, 1).dead_from(1);
        let mut s = FaultSession::new(plan, RetryPolicy::default(), Codec::Fixed(16));
        let layout = GroupLayout::new(6, 3);
        for phase in 0..3 {
            let (v, _) = s.verdict(
                Messaging::Direct,
                &layout,
                pattern,
                Codec::Compressed,
                None,
                0,
            );
            let codec = if phase == 0 {
                Codec::Compressed
            } else {
                Codec::Fixed(16)
            };
            assert_eq!(v, Ok((Messaging::Direct, codec)));
            let winning: Vec<InjectionEvent> = s
                .trace()
                .iter()
                .filter(|e| e.phase == phase && e.variant == u32::from(phase == 1))
                .copied()
                .collect();
            assert_eq!(s.open_variant_trace(), winning.as_slice(), "phase {phase}");
            s.end_phase();
        }
        assert!(s.trace().iter().any(|e| e.variant == 1));
    }
}
