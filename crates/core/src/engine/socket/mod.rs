//! The socket fabric: [`Transport`] over real OS sockets, one process
//! per rank.
//!
//! Every other fabric in this repo moves records between threads of one
//! process; this one moves them between *processes* over Unix-domain
//! sockets (default) or TCP loopback, through the length-prefixed
//! framing of [`sw_net::framing`]. The paper's machine is 40,960
//! separate nodes — a reproduction whose transport layer never crosses
//! a process boundary cannot exercise the failure modes that dominate
//! at that scale: torn frames, half-closed connections, peers that die
//! mid-phase, teardown that must reap real children.
//!
//! ## Topology
//!
//! The orchestrator (this process) keeps **all** BFS compute and spawns
//! one `swbfs-rankd` daemon per rank (the `daemon` submodule documents
//! the wire protocol). Records for rank `s → d` travel parent → daemon `s` →
//! daemon `d` → parent: down the control connection as `XMIT`, across
//! the daemons' unidirectional socket mesh as `MSG`, and back up as
//! `INBOX`. Each daemon closes its phase with one `TELEM` report. The
//! parent starts phase `p + 1` only after every `INBOX` and `TELEM` of
//! phase `p` arrived, so mesh traffic of different phases never
//! interleaves — the lockstep that makes arrival accounting
//! deterministic (and gives the telemetry leg a deterministic delivery
//! point for free). Every frame kind is in [`sw_net::framing`]'s kind
//! table, and the report's codec is that module's `TelemFrame`.
//!
//! ## Fault realization
//!
//! [`Transport::exchange_faulty`] takes the armed [`FaultSession`]'s
//! one `verdict` over the phase's Direct
//! message set — the same pass, retries and degradations as every other
//! fabric, which the conformance battery pins by comparing injection
//! traces and counters across fabrics. What stays here is the physical
//! realization: when the verdict is *deliver*, each `XMIT` carries the
//! fault sequence the winning variant charged its transfer, and the
//! daemons replay it on the wire — each drop closes the live mesh
//! connection cold, each truncation short-writes a strict prefix of the
//! real frame before closing, each delay defers the flush behind every
//! punctual peer. Receivers genuinely observe torn frames and EOFs
//! mid-phase and genuinely survive them; the records re-sent after each
//! realization come from buffers this process retained — re-delivery
//! without regeneration, pinned by `tests/socket_teardown.rs`.
//!
//! The wire *statistics* stay arithmetic (the point-to-point Direct
//! arithmetic, `direct_wire_stats`) so `exchange.*` counters are
//! comparable across fabrics; the physical side-channel is reported separately
//! via [`SocketTransport::wire_incidents`].

mod daemon;
mod sys;

pub use daemon::daemon_main;

use self::sys::{poll_fds, Conn, Listener, PollFd, POLLIN, POLLOUT};
use super::transport::Transport;
use crate::compress::{encode_compressed_into, try_decode_compressed};
use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{direct_wire_stats, drain_boxes, Codec, ExchangeStats};
use crate::faults::{FaultKind, FaultSession, InjectionEvent};
use crate::instrument as ins;
use crate::messages::{encode_batch_into, try_decode_batch, EdgeRec};
use crate::modules::Outboxes;
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use sw_net::framing::{
    Frame, TelemFrame, FLAG_COMPRESSED, KIND_BYE, KIND_HELLO, KIND_INBOX, KIND_READY, KIND_TABLE,
    KIND_TELEM, KIND_XMIT,
};
use sw_net::GroupLayout;
use sw_trace::live::{self, HistogramSnapshot};
use sw_trace::Tracer;

/// Fault-realization codes carried in the `XMIT` pre-send header.
pub(crate) const CODE_DROP: u8 = 1;
pub(crate) const CODE_TRUNCATE: u8 = 2;

/// Environment variable the chaos die-knob rides into the daemon.
pub(crate) const DIE_AT_PHASE_ENV: &str = "SWBFS_RANKD_DIE_AT_PHASE";

/// Environment variable naming the `swbfs-rankd` binary explicitly.
const RANKD_ENV: &str = "SWBFS_RANKD";

/// Wall-clock budget for one exchange phase end to end. Generous — the
/// point is "never hang", not latency policing.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Wall-clock budget for spawn + handshake of the whole fabric.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

/// Wall-clock budget for children to exit after their control
/// connection closes, before they are killed.
const REAP_TIMEOUT: Duration = Duration::from_secs(5);

static FABRIC_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which socket family the fabric runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SockKind {
    Unix,
    Tcp,
}

/// Physical wire events the daemons realized, summed across ranks and
/// phases. Sender-side tallies — deterministic for a given fault plan
/// and traffic, unlike racing to classify EOFs on the receive side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireIncidents {
    /// Frames that hit the wire as a strict prefix (short write, then
    /// the connection closed under the receiver's decoder).
    pub torn_frames: u64,
    /// Connections closed cold with a message still owed.
    pub resets: u64,
    /// Sends deferred behind every punctual peer (delay realization).
    pub deferred: u64,
}

impl WireIncidents {
    /// Total physical events of any kind.
    pub fn total(&self) -> u64 {
        self.torn_frames + self.resets + self.deferred
    }
}

/// One rank daemon's cumulative wall-clock telemetry, shipped up the
/// control connection in its `TELEM` report every phase and merged
/// parent-side — the live plane's cross-process aggregation leg.
/// Strictly wall-clock: nothing here enters the deterministic
/// `exchange.*` counters or the fault-realization tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankTelemetry {
    /// Per-phase wall latency (first `XMIT` arrival → results
    /// emitted), microseconds, cumulative over the fabric's life.
    pub hist: HistogramSnapshot,
    /// Mesh frames this rank queued for send, cumulative.
    pub frames: u64,
    /// Mesh payload bytes this rank queued for send, cumulative.
    pub bytes: u64,
}

/// A live rank-process mesh: children, their control connections, and
/// the temp directory the Unix sockets live in.
struct Fabric {
    children: Vec<Child>,
    ctrl: Vec<Conn>,
    dir: Option<PathBuf>,
}

/// One destination's raw phase results: per-source `(flags, payload)`
/// as carried by the `INBOX` frames (`None` = not yet arrived; the
/// `src == dst` diagonal stays `None` by protocol).
type RawInboxRow = Vec<Option<(u8, Vec<u8>)>>;
/// Raw phase results for every destination rank.
type RawInboxes = Vec<RawInboxRow>;

/// What broke inside one poll-loop pass (resolved into a sticky
/// [`ExchangeError`] once fabric borrows are released).
enum PhaseFailure {
    Peer(usize),
    Proto(&'static str),
}

/// [`Transport`] over real sockets and rank processes.
///
/// Construction is lazy: the daemons are spawned on the first
/// exchange, so building a transport (or an engine over it) costs
/// nothing until traffic flows. After a fatal wire error the transport
/// is *sticky-failed* — every further exchange returns the same
/// structured error immediately; build a fresh transport to recover
/// (the failed one has already reaped its children, see
/// [`SocketTransport::last_exits`]).
pub struct SocketTransport {
    kind: SockKind,
    rankd: Option<PathBuf>,
    kill_at: Option<(u32, u32)>,
    ranks: usize,
    tracer: Option<Tracer>,
    level: u32,
    fabric: Option<Fabric>,
    failed: Option<ExchangeError>,
    phase: u32,
    incidents: WireIncidents,
    last_exits: Vec<Option<i32>>,
    telemetry: Vec<RankTelemetry>,
}

impl SocketTransport {
    /// A fabric over Unix-domain sockets (the default: lowest setup
    /// cost, no port allocation, path-scoped cleanup).
    pub fn unix() -> Self {
        Self::with_kind(SockKind::Unix)
    }

    /// A fabric over TCP loopback — same protocol, same conformance
    /// battery, a different kernel path (proves the framing survives
    /// TCP's segmentation choices too).
    pub fn tcp() -> Self {
        Self::with_kind(SockKind::Tcp)
    }

    fn with_kind(kind: SockKind) -> Self {
        Self {
            kind,
            rankd: None,
            kill_at: None,
            ranks: 0,
            tracer: None,
            level: 0,
            fabric: None,
            failed: None,
            phase: 0,
            incidents: WireIncidents::default(),
            last_exits: Vec::new(),
            telemetry: Vec::new(),
        }
    }

    /// Pins the `swbfs-rankd` binary explicitly (tests use
    /// `env!("CARGO_BIN_EXE_swbfs-rankd")`). Without this the transport
    /// consults the `SWBFS_RANKD` environment variable, then looks next
    /// to the current executable.
    #[must_use]
    pub fn with_rankd(mut self, path: impl Into<PathBuf>) -> Self {
        self.rankd = Some(path.into());
        self
    }

    /// Chaos knob: daemon `rank` exits (code 41) right after collecting
    /// phase `phase`'s `XMIT`s, before sending anything — peers are
    /// left waiting mid-phase, and the orchestrator must surface
    /// [`ExchangeError::PeerDisconnected`] and reap everyone, never
    /// hang.
    #[must_use]
    pub fn kill_rank_at_phase(mut self, rank: u32, phase: u32) -> Self {
        self.kill_at = Some((rank, phase));
        self
    }

    /// Physical wire events realized so far.
    pub fn wire_incidents(&self) -> WireIncidents {
        self.incidents
    }

    /// The latest per-rank daemon telemetry, merged parent-side from
    /// the `TELEM` frames each rank ships every phase. Empty until the
    /// first exchange completes. Index = rank.
    pub fn rank_telemetry(&self) -> &[RankTelemetry] {
        &self.telemetry
    }

    /// All ranks' phase histograms folded into one aggregate (merge is
    /// associative + commutative, so fold order is irrelevant).
    pub fn merged_telemetry(&self) -> RankTelemetry {
        let mut agg = RankTelemetry::default();
        for t in &self.telemetry {
            agg.hist.merge(&t.hist);
            agg.frames += t.frames;
            agg.bytes += t.bytes;
        }
        agg
    }

    /// Exit codes recorded by the most recent teardown, one per rank
    /// (`None` = the child had to be killed). Empty until a fabric has
    /// been torn down.
    pub fn last_exits(&self) -> &[Option<i32>] {
        &self.last_exits
    }

    /// Where the rank daemon binary would be found, if anywhere —
    /// explicit pin, then `SWBFS_RANKD`, then next to the current
    /// executable. Lets harnesses skip socket runs gracefully in
    /// environments that never built the binary.
    pub fn resolve_rankd(&self) -> Option<PathBuf> {
        if let Some(p) = &self.rankd {
            return Some(p.clone());
        }
        if let Ok(p) = std::env::var(RANKD_ENV) {
            let p = PathBuf::from(p);
            if p.is_file() {
                return Some(p);
            }
        }
        let exe = std::env::current_exe().ok()?;
        exe.ancestors()
            .skip(1)
            .take(3)
            .map(|d| d.join("swbfs-rankd"))
            .find(|c| c.is_file())
    }

    // ---- fabric lifecycle -------------------------------------------

    fn fatal(&mut self, err: ExchangeError) -> ExchangeError {
        self.failed = Some(err.clone());
        self.teardown_fabric();
        err
    }

    fn proto(&mut self, detail: &'static str) -> ExchangeError {
        let phase = self.phase as u64;
        self.fatal(ExchangeError::Protocol { phase, detail })
    }

    /// Spawns and handshakes the rank processes if not yet live.
    fn ensure_fabric(&mut self) -> Result<(), ExchangeError> {
        if self.fabric.is_some() {
            return Ok(());
        }
        match self.spawn_fabric() {
            Ok(fab) => {
                self.fabric = Some(fab);
                Ok(())
            }
            Err(detail) => Err(self.fatal(ExchangeError::Protocol { phase: 0, detail })),
        }
    }

    fn spawn_fabric(&mut self) -> Result<Fabric, &'static str> {
        let p = self.ranks;
        let rankd = self
            .resolve_rankd()
            .ok_or("swbfs-rankd binary not found (set SWBFS_RANKD or use with_rankd)")?;
        let deadline = Instant::now() + SPAWN_TIMEOUT;

        let (dir, listener) = match self.kind {
            SockKind::Unix => {
                let dir = std::env::temp_dir().join(format!(
                    "swb-{}-{}",
                    std::process::id(),
                    FABRIC_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).map_err(|_| "cannot create socket directory")?;
                let l = Listener::bind_unix(&dir, "ctrl.sock")
                    .map_err(|_| "cannot bind control listener")?;
                (Some(dir), l)
            }
            SockKind::Tcp => (
                None,
                Listener::bind_tcp().map_err(|_| "cannot bind control listener")?,
            ),
        };
        let ctrl_addr = listener.addr().map_err(|_| "control listener has no address")?;

        let mut children = Vec::with_capacity(p);
        for r in 0..p {
            let mut cmd = Command::new(&rankd);
            cmd.arg(ctrl_addr.to_string())
                .arg(r.to_string())
                .arg(p.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some((kr, kp)) = self.kill_at {
                if kr as usize == r {
                    cmd.env(DIE_AT_PHASE_ENV, kp.to_string());
                }
            }
            match cmd.spawn() {
                Ok(c) => children.push(c),
                Err(e) => {
                    eprintln!("socket fabric: spawning {} failed: {e}", rankd.display());
                    abort_spawn(children, dir);
                    return Err("cannot spawn rank process");
                }
            }
        }

        match handshake(&mut children, &listener, p, deadline) {
            Ok(ctrl) => Ok(Fabric {
                children,
                ctrl,
                dir,
            }),
            Err(detail) => {
                abort_spawn(children, dir);
                Err(detail)
            }
        }
    }

    /// Closes the control plane (daemons exit on EOF from any state),
    /// reaps every child — killing stragglers past [`REAP_TIMEOUT`] —
    /// records exit codes, and removes the socket directory.
    /// Idempotent.
    fn teardown_fabric(&mut self) {
        let Some(mut fab) = self.fabric.take() else {
            return;
        };
        for c in &mut fab.ctrl {
            c.queue(&Frame::control(KIND_BYE, self.phase, 0, 0));
            let _ = c.flush();
        }
        drop(fab.ctrl);

        let deadline = Instant::now() + REAP_TIMEOUT;
        let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; fab.children.len()];
        loop {
            let mut open = false;
            for (st, child) in statuses.iter_mut().zip(&mut fab.children) {
                if st.is_none() {
                    match child.try_wait() {
                        Ok(Some(s)) => *st = Some(s),
                        _ => open = true,
                    }
                }
            }
            if !open {
                break;
            }
            if Instant::now() >= deadline {
                for (st, child) in statuses.iter_mut().zip(&mut fab.children) {
                    if st.is_none() {
                        let _ = child.kill();
                        *st = child.wait().ok();
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.last_exits = statuses
            .into_iter()
            .map(|s| s.and_then(|st| st.code()))
            .collect();
        if let Some(dir) = fab.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    // ---- the phase engine -------------------------------------------

    /// Runs one physical phase: queues the prepared `XMIT` frames,
    /// services every control connection from one poll loop, and
    /// returns the raw per-destination-per-source inbox payloads.
    fn run_phase(&mut self, xmits: Vec<Frame>) -> Result<RawInboxes, ExchangeError> {
        let p = self.ranks;
        let phase = self.phase;
        let mut raw: RawInboxes = (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let deadline = Instant::now() + PHASE_TIMEOUT;
        if self.telemetry.len() != p {
            self.telemetry = vec![RankTelemetry::default(); p];
        }

        let failure = {
            let fab = self.fabric.as_mut().expect("fabric live in run_phase");
            for f in &xmits {
                fab.ctrl[f.src as usize].queue(f);
            }
            drive_phase(
                fab,
                phase,
                &mut raw,
                &mut self.telemetry,
                &mut self.incidents,
                deadline,
            )
        };
        match failure {
            None => {
                self.phase += 1;
                // Armed process-wide plane: publish the per-rank phase
                // histograms as absolute (replace-on-report) remote
                // snapshots, so `live.socket.rank*` keys track the
                // fabric from any exporter in this process.
                if live::armed() {
                    let g = live::global();
                    for (r, t) in self.telemetry.iter().enumerate() {
                        g.set_remote_histogram(&format!("socket.rank{r}.phase_micros"), t.hist);
                        g.gauge(&format!("socket.rank{r}.frames"))
                            .store(t.frames, Ordering::Relaxed);
                        g.gauge(&format!("socket.rank{r}.bytes"))
                            .store(t.bytes, Ordering::Relaxed);
                    }
                }
                Ok(raw)
            }
            Some(PhaseFailure::Peer(r)) => {
                Err(self.fatal(ExchangeError::PeerDisconnected { rank: r as u32 }))
            }
            Some(PhaseFailure::Proto(detail)) => Err(self.proto(detail)),
        }
    }

    /// Builds one `XMIT` frame: realization header (pre-send fault
    /// codes + defer flag), then the records encoded under `codec`
    /// straight behind it.
    fn build_xmit(
        &self,
        s: u32,
        d: u32,
        recs: &[EdgeRec],
        codec: Codec,
        codes: &[u8],
        defer: bool,
    ) -> Frame {
        let mut f = Frame::control(KIND_XMIT, self.phase, s, d);
        let p = &mut f.payload;
        p.push(codes.len() as u8);
        p.extend_from_slice(codes);
        p.push(defer as u8);
        if codec == Codec::Compressed {
            f.flags = FLAG_COMPRESSED;
            encode_compressed_into(recs, p);
        } else {
            encode_batch_into(recs, p);
        }
        f
    }

    /// The one delivery step of both exchange paths: the point-to-point
    /// wire arithmetic (returned even when the phase fails), then every
    /// record box of `boxes` encoded under `codec` through one physical
    /// phase, each `XMIT` carrying its transfer's share of `charged` (the
    /// winning variant's faults; empty when clean) as drop/truncate
    /// codes and the defer flag.
    fn deliver(
        &mut self,
        boxes: Vec<Vec<Vec<EdgeRec>>>,
        layout: &GroupLayout,
        codec: Codec,
        charged: &[InjectionEvent],
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        let stats = direct_wire_stats(&boxes, layout, codec);
        let p = self.ranks;
        if p < 2 {
            return (Ok((0..p).map(|_| Vec::new()).collect()), stats);
        }
        if let Err(e) = self.ensure_fabric() {
            return (Err(e), stats);
        }
        let mut realized: Vec<(Vec<u8>, bool)> = vec![(Vec::new(), false); p * p];
        for e in charged {
            let (codes, defer) = &mut realized[e.src as usize * p + e.dst as usize];
            match e.kind {
                FaultKind::Delay => *defer = true,
                FaultKind::Truncate => codes.push(CODE_TRUNCATE),
                _ => codes.push(CODE_DROP),
            }
        }
        let mut xmits = Vec::with_capacity(p * (p - 1));
        for (s, bs) in boxes.iter().enumerate() {
            for (d, recs) in bs.iter().enumerate().filter(|&(d, _)| d != s) {
                let (codes, defer) = &realized[s * p + d];
                xmits.push(self.build_xmit(s as u32, d as u32, recs, codec, codes, *defer));
            }
        }
        let delivered = self
            .run_phase(xmits)
            .and_then(|raw| self.decode_inboxes(raw));
        (delivered, stats)
    }

    /// Decodes the raw inbox payloads into per-rank inboxes (source
    /// order), recording one per-rank deliver span each, as the pooled
    /// arena does.
    fn decode_inboxes(&mut self, raw: RawInboxes) -> Result<Vec<Vec<EdgeRec>>, ExchangeError> {
        let tracer = self.tracer.clone();
        let trace = tracer.as_ref();
        let mut out = Vec::with_capacity(raw.len());
        for (d, row) in raw.into_iter().enumerate() {
            let t0 = ins::span_begin(trace);
            let mut inbox: Vec<EdgeRec> = Vec::new();
            for (s, slot) in row.into_iter().enumerate() {
                if s == d {
                    continue;
                }
                let (flags, payload) = slot.expect("run_phase returned a complete inbox");
                let decoded = if flags & FLAG_COMPRESSED != 0 {
                    try_decode_compressed(&payload)
                } else {
                    try_decode_batch(&payload)
                };
                match decoded {
                    Ok(recs) => inbox.extend(recs),
                    Err(_) => return Err(self.proto("undecodable inbox payload")),
                }
            }
            ins::span_end(
                trace,
                d,
                ins::SPAN_DELIVER,
                ins::CAT_NET,
                self.level,
                t0,
                inbox.len() as u64,
            );
            out.push(inbox);
        }
        Ok(out)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.teardown_fabric();
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        match self.kind {
            SockKind::Unix => "socket-unix",
            SockKind::Tcp => "socket-tcp",
        }
    }

    fn setup(&mut self, num_ranks: usize) {
        assert!(num_ranks > 0, "empty job");
        if self.ranks != num_ranks {
            self.teardown_fabric();
        }
        self.ranks = num_ranks;
    }

    fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        // No buffer pool (encodings are built fresh per phase), so pool
        // counters stay honestly zero.
        (0..self.ranks).map(|_| Outboxes::new(self.ranks)).collect()
    }

    fn exchange(
        &mut self,
        _mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        let (result, stats) = self.deliver(drain_boxes(out), layout, codec, &[]);
        Ok((result?, stats))
    }

    fn exchange_faulty(
        &mut self,
        _mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        if let Some(err) = &self.failed {
            session.end_phase();
            return (Err(err.clone()), ExchangeStats::default());
        }
        let boxes = drain_boxes(out);
        // The rank mesh is point-to-point: the verdict is taken over
        // Direct traffic.
        let (verdict, mut stats) = session.verdict(
            Messaging::Direct,
            layout,
            |s, d| boxes[s][d].len() as u64,
            codec,
            self.tracer.as_ref(),
            self.level,
        );
        let result = verdict.and_then(|(_, codec)| {
            let (delivered, wire) = self.deliver(boxes, layout, codec, session.open_variant_trace());
            stats.absorb(&wire);
            delivered
        });
        session.end_phase();
        (result, stats)
    }

    fn recycle_inboxes(&mut self, _inboxes: Vec<Vec<EdgeRec>>) {}

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    fn set_trace_level(&mut self, level: u32) {
        self.level = level;
    }

    fn teardown(&mut self) {
        self.teardown_fabric();
    }
}

/// One phase's poll loop, borrow-isolated from the transport so
/// failures can be resolved into sticky errors afterwards. Returns
/// `None` once every `INBOX` and every rank's `TELEM` report arrived
/// (collected into the out-params).
fn drive_phase(
    fab: &mut Fabric,
    phase: u32,
    raw: &mut [RawInboxRow],
    telemetry: &mut [RankTelemetry],
    incidents: &mut WireIncidents,
    deadline: Instant,
) -> Option<PhaseFailure> {
    let p = raw.len();
    let mut inboxes_left = p * (p - 1);
    let mut reported = vec![false; p];
    let mut fds: Vec<PollFd> = Vec::with_capacity(p);
    while inboxes_left > 0 || reported.contains(&false) {
        if Instant::now() >= deadline {
            return Some(PhaseFailure::Proto("exchange deadline exceeded"));
        }
        fds.clear();
        fds.extend(fab.ctrl.iter().map(Conn::watch));
        if poll_fds(&mut fds, 100).is_err() {
            return Some(PhaseFailure::Proto("orchestrator poll failed"));
        }

        for ((r, c), fd) in fab.ctrl.iter_mut().enumerate().zip(&fds) {
            // Read only where `poll` saw something (POLLHUP/POLLERR
            // included: the read turns them into EOF or an error). The
            // parse loop below runs regardless — it is free, and it is
            // what makes skipping the read safe.
            let readable = fd.revents & !POLLOUT != 0;
            if c.flush().is_err() || (readable && c.fill().is_err()) {
                return Some(PhaseFailure::Peer(r));
            }
            loop {
                match c.next_frame() {
                    Ok(Some(f)) => match f.kind {
                        KIND_INBOX => {
                            let (s, d) = (f.src as usize, f.dst as usize);
                            if f.phase != phase || d != r || s >= p || s == d || raw[d][s].is_some()
                            {
                                return Some(PhaseFailure::Proto("INBOX out of protocol"));
                            }
                            raw[d][s] = Some((f.flags, f.payload));
                            inboxes_left -= 1;
                        }
                        KIND_TELEM => {
                            let report = match TelemFrame::from_frame(&f) {
                                Ok(t) if f.phase == phase && !reported[r] => t,
                                _ => return Some(PhaseFailure::Proto("TELEM out of protocol")),
                            };
                            incidents.torn_frames += u64::from(report.torn);
                            incidents.resets += u64::from(report.resets);
                            incidents.deferred += u64::from(report.deferred);
                            // Cumulative totals: replace, never add.
                            telemetry[r] = RankTelemetry {
                                hist: report.hist,
                                frames: report.frames,
                                bytes: report.bytes,
                            };
                            reported[r] = true;
                        }
                        _ => return Some(PhaseFailure::Proto("unexpected frame kind from daemon")),
                    },
                    Ok(None) => break,
                    Err(_) => return Some(PhaseFailure::Proto("malformed frame from daemon")),
                }
            }
            if c.eof {
                return Some(PhaseFailure::Peer(r));
            }
        }
    }
    None
}

/// Kills and reaps a half-spawned fabric.
fn abort_spawn(mut children: Vec<Child>, dir: Option<PathBuf>) {
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Parent half of the handshake: accept `p` control connections, map
/// them by `HELLO` rank, broadcast the mesh `TABLE`, await `READY`
/// from everyone. A child that dies mid-handshake fails this fast
/// (its control connection EOFs, or it never connects and a reap
/// check notices) instead of running out the deadline.
fn handshake(
    children: &mut [Child],
    listener: &Listener,
    p: usize,
    deadline: Instant,
) -> Result<Vec<Conn>, &'static str> {
    let mut anon: Vec<Conn> = Vec::new();
    let mut ctrl: Vec<Option<Conn>> = (0..p).map(|_| None).collect();
    let mut hellos: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut ready = vec![false; p];
    let mut table_sent = false;

    while !ready.iter().all(|&r| r) {
        if Instant::now() >= deadline {
            return Err("handshake deadline exceeded");
        }
        for (r, child) in children.iter_mut().enumerate() {
            if ctrl[r].is_none() {
                if let Ok(Some(_)) = child.try_wait() {
                    return Err("rank process exited during handshake");
                }
            }
        }
        while let Ok(Some(stream)) = listener.accept() {
            anon.push(Conn::new(stream));
        }
        let mut fds: Vec<PollFd> = anon.iter().map(Conn::watch).collect();
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.extend(ctrl.iter().flatten().map(Conn::watch));
        let _ = poll_fds(&mut fds, 100);

        // Identify new control connections by their HELLO.
        let mut still = Vec::new();
        for mut c in anon {
            let _ = c.fill();
            match c.next_frame() {
                Ok(Some(f)) if f.kind == KIND_HELLO => {
                    let r = f.src as usize;
                    if r >= p || ctrl[r].is_some() {
                        return Err("HELLO from an impossible rank");
                    }
                    hellos[r] = f.payload;
                    ctrl[r] = Some(c);
                }
                Ok(Some(_)) => return Err("control connection did not lead with HELLO"),
                Ok(None) => {
                    if c.eof {
                        return Err("rank process died during handshake");
                    }
                    still.push(c);
                }
                Err(_) => return Err("malformed HELLO"),
            }
        }
        anon = still;

        if !table_sent && ctrl.iter().all(|c| c.is_some()) {
            let mut table = Frame::control(KIND_TABLE, 0, 0, 0);
            table.payload = hellos.join(&b'\n');
            for c in ctrl.iter_mut().flatten() {
                c.queue(&table);
            }
            table_sent = true;
        }

        for (r, slot) in ctrl.iter_mut().enumerate() {
            if let Some(c) = slot {
                if c.flush().is_err() || c.fill().is_err() || c.eof {
                    return Err("rank process died during handshake");
                }
                loop {
                    match c.next_frame() {
                        Ok(Some(f)) if f.kind == KIND_READY => {
                            if ready[r] {
                                return Err("duplicate READY");
                            }
                            ready[r] = true;
                        }
                        Ok(Some(_)) => return Err("unexpected frame during handshake"),
                        Ok(None) => break,
                        Err(_) => return Err("malformed frame during handshake"),
                    }
                }
            }
        }
    }
    Ok(ctrl
        .into_iter()
        .map(|c| c.expect("all ranks ready"))
        .collect())
}
