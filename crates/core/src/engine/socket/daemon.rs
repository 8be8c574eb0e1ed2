//! The rank daemon: the per-rank OS process of the socket fabric.
//!
//! `swbfs-rankd` holds no BFS state. The orchestrator (the parent
//! process, [`super::SocketTransport`]) keeps all compute — partitions,
//! frontiers, generators — and uses the daemons purely as *wire
//! endpoints*: every phase the parent hands rank `r`'s encoded outboxes
//! to daemon `r` over its control connection, the daemons move them
//! across a real socket mesh (realizing any scheduled faults as short
//! writes, closed connections, and deferred flushes on actual file
//! descriptors), and each daemon streams what it received back up.
//! This keeps the process tree honest about the thing this fabric
//! exists to prove — framing, partial delivery, disconnects, and
//! teardown over real kernel sockets — without duplicating the
//! traversal in every process.
//!
//! ## Protocol
//!
//! Handshake (control connection, frames from [`sw_net::framing`]):
//!
//! 1. daemon → parent `HELLO{src=rank, payload=mesh listener address}`
//! 2. parent → daemon `TABLE{payload = newline-joined mesh addresses}`
//! 3. daemon connects to every peer's listener, sending `PEER{src}`
//!    first on each connection (the mesh is unidirectional per ordered
//!    pair, so a fault realization closing `s → d` never disturbs
//!    `d → s`)
//! 4. daemon → parent `READY`
//!
//! Per phase `p`:
//!
//! 5. parent → daemon: one `XMIT{phase=p, dst}` per peer, payload
//!    `[n_pre][codes…][defer][encoded records]` where each code asks
//!    for one physical fault before the real send (1 = close the
//!    connection cold, 2 = short-write a prefix then close) and `defer`
//!    postpones the real send behind every non-deferred peer
//! 6. daemon ↔ daemon: `MSG{phase=p, src, dst}` across the mesh
//! 7. daemon → parent: one `INBOX{phase=p, src}` per peer received,
//!    in ascending source order, then the phase's one report, `TELEM`
//!    ([`sw_net::framing::TelemFrame`]): the phase's realization
//!    tallies `[torn][resets][deferred]` (sender-side counts — they
//!    are deterministic, unlike racing to classify EOFs receive-side),
//!    then the rank's cumulative wall-clock telemetry: the
//!    phase-latency histogram (first `XMIT` arrival → results emitted,
//!    microseconds) followed by total mesh frames sent and payload
//!    bytes moved. Cumulative totals, so the parent *replaces* its
//!    per-rank copy on every report — losing a report loses
//!    freshness, never correctness.
//!
//! Control-connection EOF (or `BYE`) means the parent is done — or
//! gone — and the daemon exits 0 *from any state*, which is what makes
//! orchestrator teardown a one-liner: close the control sockets.
//! Protocol violations exit 43; the `SWBFS_RANKD_DIE_AT_PHASE` chaos
//! knob exits 41 after collecting that phase's `XMIT`s.
//!
//! ## Loop
//!
//! One thread; a pass is one `poll(2)` over every descriptor the daemon
//! owns, then one `read` on each descriptor it flagged (an `accept`
//! only if it flagged the listener), then a parse of *every* decoder,
//! flagged or not, then whatever sends and reports the parsed frames
//! completed. Reading is what costs, so it waits for readiness;
//! parsing an empty decoder costs nothing, so it does not — which is
//! why bytes that rode in behind an earlier frame are never stranded.

use super::sys::{poll_fds, Addr, Conn, Listener, PollFd, Stream, POLLIN, POLLOUT};
use super::{CODE_DROP, CODE_TRUNCATE, DIE_AT_PHASE_ENV};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use sw_net::framing::{
    Frame, PayloadReader, TelemFrame, KIND_BYE, KIND_HELLO, KIND_INBOX, KIND_MSG, KIND_PEER,
    KIND_READY, KIND_TABLE, KIND_XMIT,
};
use sw_trace::live::LatencyHistogram;

/// How long the daemon waits on any single blocking step (handshake
/// connects, fault-realization flushes) before giving up. Generous: a
/// stuck parent tears the daemon down via control-connection EOF long
/// before this fires.
const STEP_TIMEOUT: Duration = Duration::from_secs(20);

/// A protocol violation: the wire carried something the state machine
/// forbids. Maps to exit code 43.
struct Violation(&'static str);

impl From<&'static str> for Violation {
    fn from(why: &'static str) -> Self {
        Violation(why)
    }
}

type Fate = Result<i32, Violation>;

/// Entry point of the `swbfs-rankd` binary: runs one rank endpoint to
/// completion and returns the process exit code (0 = clean teardown,
/// 41 = chaos die-knob, 43 = protocol violation, 2 = bad invocation).
pub fn daemon_main(args: &[String]) -> i32 {
    let (ctrl_addr, rank, ranks) = match parse_args(args) {
        Some(t) => t,
        None => {
            eprintln!("usage: swbfs-rankd <ctrl-addr> <rank> <num-ranks>");
            return 2;
        }
    };
    match Rankd::handshake(ctrl_addr, rank, ranks).and_then(Rankd::run) {
        Ok(code) => code,
        Err(Violation(why)) => {
            eprintln!("swbfs-rankd[{rank}]: protocol violation: {why}");
            43
        }
    }
}

fn parse_args(args: &[String]) -> Option<(Addr, usize, usize)> {
    if args.len() != 3 {
        return None;
    }
    let addr = Addr::parse(&args[0])?;
    let rank: usize = args[1].parse().ok()?;
    let ranks: usize = args[2].parse().ok()?;
    if ranks < 2 || rank >= ranks {
        return None;
    }
    Some((addr, rank, ranks))
}

/// One rank endpoint: control connection up to the parent, a mesh of
/// outgoing connections (one per peer we send to), and whatever
/// incoming connections peers have opened toward us.
struct Rankd {
    rank: usize,
    ranks: usize,
    ctrl: Conn,
    listener: Listener,
    addrs: Vec<Addr>,
    /// Outgoing mesh connection per peer (`None` only transiently,
    /// mid-reconnect, and for `self.rank`).
    out: Vec<Option<Conn>>,
    /// Identified incoming connections, per source rank. A vector
    /// because a fault realization replaces connections faster than the
    /// old one's EOF is consumed.
    ins: Vec<Vec<Conn>>,
    /// Accepted but not yet identified (no `PEER` frame seen).
    anon: Vec<Conn>,
    /// `poll_once`'s descriptor set, kept for its allocation.
    fds: Vec<PollFd>,
    phase: u32,
    /// This phase's `XMIT` payloads, per destination.
    xmits: Vec<Option<Frame>>,
    xmit_count: usize,
    /// This phase's received mesh messages: `(flags, payload)` per src.
    msgs: Vec<Option<(u8, Vec<u8>)>>,
    msg_count: usize,
    sends_done: bool,
    die_at: Option<u32>,
    /// Wall-clock start of the current phase (first `XMIT` arrival);
    /// taken at results emission into `phase_hist`.
    phase_started: Option<Instant>,
    /// Cumulative per-phase wall latency, shipped up as `TELEM`.
    phase_hist: LatencyHistogram,
    /// The `TELEM` report being kept: this phase's realization tallies,
    /// cumulative send totals (its histogram is filled at emission).
    report: TelemFrame,
}

impl Rankd {
    /// Steps 1–4 of the protocol; returns a daemon parked at phase 0.
    fn handshake(ctrl_addr: Addr, rank: usize, ranks: usize) -> Result<Rankd, Violation> {
        let deadline = Instant::now() + STEP_TIMEOUT;
        let listener = match &ctrl_addr {
            Addr::Unix(p) => {
                let dir = p.parent().expect("control socket has a parent directory");
                Listener::bind_unix(dir, &format!("mesh-{rank}.sock"))
            }
            Addr::Tcp(_) => Listener::bind_tcp(),
        }
        .map_err(|_| Violation("cannot bind mesh listener"))?;
        let mesh_addr = listener.addr().map_err(|_| Violation("mesh listener has no address"))?;

        let stream = Stream::connect(&ctrl_addr, deadline)
            .map_err(|_| Violation("cannot reach orchestrator control socket"))?;
        let mut ctrl = Conn::new(stream);
        let mut hello = Frame::control(KIND_HELLO, 0, rank as u32, 0);
        hello.payload = mesh_addr.to_string().into_bytes();
        ctrl.queue(&hello);
        flush_fully(&mut ctrl, deadline)?;

        // Wait for the address table.
        let table = wait_frame(&mut ctrl, deadline)?;
        if table.kind != KIND_TABLE {
            return Err(Violation("expected TABLE after HELLO"));
        }
        let text = String::from_utf8(table.payload)
            .map_err(|_| Violation("TABLE payload is not UTF-8"))?;
        let addrs: Vec<Addr> = text
            .lines()
            .map(Addr::parse)
            .collect::<Option<_>>()
            .ok_or(Violation("TABLE carries an unparsable address"))?;
        if addrs.len() != ranks {
            return Err(Violation("TABLE size disagrees with rank count"));
        }

        // Open the outgoing half of the mesh, identifying each
        // connection with a PEER frame before anything else rides it.
        let mut out: Vec<Option<Conn>> = (0..ranks).map(|_| None).collect();
        for (d, slot) in out.iter_mut().enumerate() {
            if d == rank {
                continue;
            }
            let mut conn = connect_peer(&addrs[d], rank, deadline)?;
            flush_fully(&mut conn, deadline)?;
            *slot = Some(conn);
        }

        ctrl.queue(&Frame::control(KIND_READY, 0, rank as u32, 0));
        flush_fully(&mut ctrl, deadline)?;

        Ok(Rankd {
            rank,
            ranks,
            ctrl,
            listener,
            addrs,
            out,
            ins: (0..ranks).map(|_| Vec::new()).collect(),
            anon: Vec::new(),
            fds: Vec::new(),
            phase: 0,
            xmits: (0..ranks).map(|_| None).collect(),
            xmit_count: 0,
            msgs: (0..ranks).map(|_| None).collect(),
            msg_count: 0,
            sends_done: false,
            die_at: std::env::var(DIE_AT_PHASE_ENV)
                .ok()
                .and_then(|s| s.parse().ok()),
            phase_started: None,
            phase_hist: LatencyHistogram::new(),
            report: TelemFrame::default(),
        })
    }

    /// The phase loop. Returns the process exit code.
    fn run(mut self) -> Fate {
        loop {
            self.poll_once()?;

            // Control plane first: XMITs in, teardown signals.
            if let Some(code) = self.pump_ctrl()? {
                return Ok(code);
            }
            self.pump_mesh_in()?;

            if self.xmit_count == self.ranks - 1 && !self.sends_done {
                if self.die_at == Some(self.phase) {
                    // Chaos knob: die exactly here — XMITs consumed,
                    // nothing sent — so peers wait on us and the
                    // orchestrator must prove it notices and unwinds.
                    std::process::exit(41);
                }
                self.realize_sends()?;
                self.sends_done = true;
            }

            self.flush_all();

            if self.sends_done && self.msg_count == self.ranks - 1 && self.mesh_out_drained() {
                self.emit_phase_results();
            }
        }
    }

    /// One bounded wait for readiness across every file descriptor the
    /// daemon owns, then one `read` on each descriptor `poll` flagged
    /// (and `accept` only when it flagged the listener).
    fn poll_once(&mut self) -> Result<(), Violation> {
        let watch = |fd, events| PollFd { fd, events, revents: 0 };
        let fds = &mut self.fds;
        fds.clear();
        fds.push(self.ctrl.watch());
        fds.push(watch(self.listener.as_raw_fd(), POLLIN));
        let inbound = self.ins.iter().flatten().chain(&self.anon);
        fds.extend(inbound.map(Conn::watch));
        let writers = self.out.iter().flatten().filter(|c| c.pending_out() > 0);
        fds.extend(writers.map(|c| watch(c.fd(), POLLOUT)));
        poll_fds(fds, 100).map_err(|_| Violation("poll failed"))?;

        // POLLHUP/POLLERR count as readable: the read is what turns
        // them into an EOF or an error.
        if fds[0].revents & !POLLOUT != 0 && self.ctrl.fill().is_err() {
            // Parent vanished mid-read; same as EOF.
            self.ctrl.eof = true;
        }
        let inbound = self.ins.iter_mut().flatten().chain(&mut self.anon);
        for (conn, fd) in inbound.zip(&fds[2..]) {
            if fd.revents != 0 {
                let _ = conn.fill();
            }
        }
        if fds[1].revents != 0 {
            while let Ok(Some(stream)) = self.listener.accept() {
                // A new connection was not polled: read it once now
                // (its `PEER` is usually already there).
                let mut conn = Conn::new(stream);
                let _ = conn.fill();
                self.anon.push(conn);
            }
        }
        Ok(())
    }

    /// Parses what the control connection has buffered. `Some(code)`
    /// means exit.
    fn pump_ctrl(&mut self) -> Result<Option<i32>, Violation> {
        loop {
            match self.ctrl.next_frame() {
                Ok(Some(f)) => match f.kind {
                    KIND_XMIT => {
                        if f.phase != self.phase {
                            return Err(Violation("XMIT for a phase we are not in"));
                        }
                        let d = f.dst as usize;
                        if d >= self.ranks || d == self.rank || self.xmits[d].is_some() {
                            return Err(Violation("XMIT destination invalid or duplicated"));
                        }
                        if self.phase_started.is_none() {
                            self.phase_started = Some(Instant::now());
                        }
                        self.xmits[d] = Some(f);
                        self.xmit_count += 1;
                    }
                    KIND_BYE => return Ok(Some(0)),
                    _ => return Err(Violation("unexpected frame kind on control connection")),
                },
                Ok(None) => break,
                Err(_) => return Err(Violation("malformed frame on control connection")),
            }
        }
        if self.ctrl.eof {
            return Ok(Some(0));
        }
        Ok(None)
    }

    /// Identifies new mesh connections and parses what identified
    /// ones have buffered into this phase's message slots. Both loops
    /// run over every connection, flagged by `poll` or not — parsing
    /// an empty decoder is free — because a `MSG` can already be in a
    /// decoder no later read will announce: one that arrived in the
    /// same segment as its connection's `PEER` (handshake, and every
    /// fault-realization reconnect) was read by the identifying
    /// `fill`, and is parsed below once the connection has moved to
    /// `ins`, in this same pass.
    fn pump_mesh_in(&mut self) -> Result<(), Violation> {
        // Identify: the first frame on any inbound mesh connection must
        // be PEER{src}.
        let mut still_anon = Vec::new();
        for mut conn in std::mem::take(&mut self.anon) {
            match conn.next_frame() {
                Ok(Some(f)) if f.kind == KIND_PEER => {
                    let s = f.src as usize;
                    if s >= self.ranks || s == self.rank {
                        return Err(Violation("PEER from an impossible rank"));
                    }
                    self.ins[s].push(conn);
                }
                Ok(Some(_)) => return Err(Violation("mesh connection did not lead with PEER")),
                Ok(None) => {
                    if !conn.eof {
                        still_anon.push(conn);
                    }
                    // An EOF before identification is a connect that a
                    // fault realization killed instantly; forget it.
                }
                Err(_) => return Err(Violation("malformed frame before identification")),
            }
        }
        self.anon = still_anon;

        for s in 0..self.ranks {
            let mut keep = Vec::new();
            for mut conn in std::mem::take(&mut self.ins[s]) {
                loop {
                    match conn.next_frame() {
                        Ok(Some(f)) if f.kind == KIND_MSG => {
                            if f.phase != self.phase || f.src as usize != s {
                                return Err(Violation("MSG with wrong phase or source"));
                            }
                            if self.msgs[s].is_some() {
                                return Err(Violation("duplicate MSG for one phase"));
                            }
                            self.msgs[s] = Some((f.flags, f.payload));
                            self.msg_count += 1;
                        }
                        Ok(Some(_)) => return Err(Violation("unexpected frame kind on mesh")),
                        Ok(None) => break,
                        Err(_) => return Err(Violation("malformed frame on mesh connection")),
                    }
                }
                if conn.eof {
                    // A fault realization closed this connection. Torn
                    // final frames stay buffered in the decoder and are
                    // discarded with it — partial frames never surface
                    // as records (`Conn::finish` classifies, if anyone
                    // asks). The deterministic tally is the sender's.
                    let _ = conn.finish();
                } else {
                    keep.push(conn);
                }
            }
            self.ins[s] = keep;
        }
        Ok(())
    }

    /// Performs this phase's sends, physically realizing each
    /// fault code the orchestrator scheduled, deferred flushes last.
    fn realize_sends(&mut self) -> Result<(), Violation> {
        let deadline = Instant::now() + STEP_TIMEOUT;
        let mut late: Vec<(usize, Frame)> = Vec::new();
        for d in 0..self.ranks {
            if d == self.rank {
                continue;
            }
            let xmit = self.xmits[d].take().ok_or(Violation("phase advanced without XMIT"))?;
            self.xmit_count -= 1;
            let mut header = PayloadReader::typed(&xmit, KIND_XMIT)?;
            let n_pre = header.u8()? as usize;
            let codes = (0..n_pre)
                .map(|_| header.u8())
                .collect::<Result<Vec<u8>, _>>()?;
            let defer = header.u8()? != 0;
            // The records go on in the buffer they came in: the header
            // is cut off its front, and it becomes the MSG's payload.
            let mut msg = Frame::control(KIND_MSG, self.phase, self.rank as u32, d as u32);
            msg.flags = xmit.flags;
            msg.payload = xmit.payload;
            msg.payload.drain(..2 + n_pre);

            for code in codes {
                let mut conn = self.out[d].take().ok_or(Violation("mesh connection missing"))?;
                // Realize on a quiesced connection so the failure we
                // fabricate is exactly the scheduled one.
                flush_fully(&mut conn, deadline)?;
                match code {
                    CODE_DROP => {
                        // The message never happened: the receiver
                        // finds a bare EOF on a frame boundary.
                        conn.shutdown();
                        self.report.resets += 1;
                    }
                    CODE_TRUNCATE => {
                        // A genuine short write: a strict prefix of the
                        // frame reaches the kernel, then the stream
                        // dies under the receiver's decoder.
                        let total = msg.wire_len();
                        let k = (total / 3).max(1).min(total - 1);
                        conn.write_prefix_and_shutdown(&msg, k, deadline);
                        self.report.torn += 1;
                    }
                    _ => return Err(Violation("unknown fault realization code")),
                }
                self.out[d] = Some(connect_peer(&self.addrs[d], self.rank, deadline)?);
            }

            self.report.frames += 1;
            self.report.bytes += msg.payload.len() as u64;
            if defer {
                self.report.deferred += 1;
                late.push((d, msg));
            } else if let Some(conn) = self.out[d].as_mut() {
                conn.queue(&msg);
            }
        }
        for (d, msg) in late {
            if let Some(conn) = self.out[d].as_mut() {
                conn.queue(&msg);
            }
        }
        Ok(())
    }

    /// Best-effort flush of every writable connection. A dead mesh peer
    /// is not our error to report — the orchestrator notices the death
    /// on its control plane and tears everyone down; we just stop
    /// trying to write to the corpse.
    fn flush_all(&mut self) {
        for conn in self.out.iter_mut().flatten() {
            if conn.flush().is_err() {
                conn.forget_pending();
            }
        }
        if self.ctrl.flush().is_err() {
            // Parent gone; the next pump_ctrl sees EOF and exits.
            self.ctrl.eof = true;
        }
    }

    fn mesh_out_drained(&self) -> bool {
        self.out
            .iter()
            .flatten()
            .all(|c| c.pending_out() == 0)
    }

    /// Phase complete: stream the inbox back (ascending source order —
    /// the canonical arrival order of this fabric), then the phase's
    /// one report, and reset for the next phase.
    fn emit_phase_results(&mut self) {
        for s in 0..self.ranks {
            if let Some((flags, payload)) = self.msgs[s].take() {
                let mut f = Frame::control(KIND_INBOX, self.phase, s as u32, self.rank as u32);
                f.flags = flags;
                f.payload = payload;
                self.ctrl.queue(&f);
            }
        }

        // The TELEM report: the deterministic realization tallies, then
        // cumulative wall-clock telemetry, always on — one 556-byte
        // frame per phase on a connection that already carries the
        // whole inbox; nothing wall-clock feeds the deterministic
        // counters.
        if let Some(t0) = self.phase_started.take() {
            self.phase_hist.record(t0.elapsed().as_micros() as u64);
        }
        self.report.hist = self.phase_hist.snapshot();
        let mut report = self.report.into_frame();
        report.phase = self.phase;
        report.src = self.rank as u32;
        self.ctrl.queue(&report);

        self.msg_count = 0;
        self.sends_done = false;
        let (frames, bytes) = (self.report.frames, self.report.bytes);
        self.report = TelemFrame {
            frames,
            bytes,
            ..TelemFrame::default()
        };
        self.phase += 1;
    }
}

/// Opens one outgoing mesh connection and queues its identifying
/// `PEER` frame.
fn connect_peer(addr: &Addr, rank: usize, deadline: Instant) -> Result<Conn, Violation> {
    let stream = Stream::connect(addr, deadline)
        .map_err(|_| Violation("cannot (re)connect to mesh peer"))?;
    let mut conn = Conn::new(stream);
    conn.queue(&Frame::control(KIND_PEER, 0, rank as u32, 0));
    Ok(conn)
}

/// Flushes until the out-queue is empty, sleeping through `WouldBlock`,
/// bounded by `deadline`.
fn flush_fully(conn: &mut Conn, deadline: Instant) -> Result<(), Violation> {
    while conn.pending_out() > 0 {
        if conn.flush().is_err() || Instant::now() >= deadline {
            return Err(Violation("peer unwritable during blocking flush"));
        }
        if conn.pending_out() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok(())
}

/// Blocks (bounded) until one complete frame arrives on `conn`.
fn wait_frame(conn: &mut Conn, deadline: Instant) -> Result<Frame, Violation> {
    loop {
        if let Ok(Some(f)) = conn.next_frame() {
            return Ok(f);
        }
        if conn.eof || Instant::now() >= deadline {
            return Err(Violation("connection ended while awaiting a frame"));
        }
        let mut fds = [PollFd {
            fd: conn.fd(),
            events: POLLIN,
            revents: 0,
        }];
        poll_fds(&mut fds, 100).map_err(|_| Violation("poll failed"))?;
        if conn.fill().is_err() {
            return Err(Violation("connection broke while awaiting a frame"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use sw_net::framing::FrameDecoder;

    /// Blocking read of the stream's next frame. The 5 s read timeout is
    /// the test's verdict on a stuck daemon, long before the 60 s the
    /// orchestrator would give a phase.
    fn read_frame(stream: &mut UnixStream, dec: &mut FrameDecoder) -> Frame {
        loop {
            if let Some(f) = dec.next_frame().expect("well-formed stream") {
                return f;
            }
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).expect("the daemon answers within the read timeout");
            assert!(n > 0, "the daemon closed the connection");
            dec.extend(&buf[..n]);
        }
    }

    /// The wake-up a readiness-driven loop can lose: rank 1 writes its
    /// connection's `PEER` and phase 0's `MSG` in one `write`, so the
    /// `fill` that identifies the connection takes the `MSG` along and
    /// no later readiness will ever announce it. It is the last thing
    /// the phase waits for (the daemon's own send is already out), so
    /// nothing else wakes the loop either: the phase completes in that
    /// same pass or it sits out the 100 ms poll. The test plays the
    /// orchestrator and rank 1 around a real `Rankd` for rank 0 of 2.
    #[test]
    fn a_msg_written_together_with_its_peer_frame_completes_the_phase() {
        let dir = std::env::temp_dir().join(format!("swb-rankd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ctrl_listener = UnixListener::bind(dir.join("ctrl.sock")).unwrap();
        let rank1_listener = UnixListener::bind(dir.join("rank1.sock")).unwrap();
        let ctrl_addr = Addr::Unix(dir.join("ctrl.sock"));
        let daemon = std::thread::spawn(move || {
            Rankd::handshake(ctrl_addr, 0, 2).and_then(Rankd::run).map_err(|v| v.0)
        });
        let timeout = Some(Duration::from_secs(5));

        let (mut ctrl, _) = ctrl_listener.accept().unwrap();
        ctrl.set_read_timeout(timeout).unwrap();
        let mut ctrl_dec = FrameDecoder::new();
        let hello = read_frame(&mut ctrl, &mut ctrl_dec);
        assert_eq!(hello.kind, KIND_HELLO);
        let mesh0 = String::from_utf8(hello.payload).unwrap();
        let mut table = Frame::control(KIND_TABLE, 0, 0, 0);
        table.payload = format!("{mesh0}\n{}", Addr::Unix(dir.join("rank1.sock"))).into_bytes();
        ctrl.write_all(&table.encode()).unwrap();
        let (mut from0, _) = rank1_listener.accept().unwrap();
        from0.set_read_timeout(timeout).unwrap();
        let mut from0_dec = FrameDecoder::new();
        assert_eq!(read_frame(&mut from0, &mut from0_dec).kind, KIND_PEER);
        assert_eq!(read_frame(&mut ctrl, &mut ctrl_dec).kind, KIND_READY);

        // No pre-send fault codes, not deferred, then the body.
        let mut xmit = Frame::control(KIND_XMIT, 0, 0, 1);
        xmit.payload = [&[0, 0][..], b"from rank 0"].concat();
        ctrl.write_all(&xmit.encode()).unwrap();
        let sent = read_frame(&mut from0, &mut from0_dec);
        assert_eq!((sent.kind, sent.phase, sent.src, sent.dst), (KIND_MSG, 0, 0, 1));
        assert_eq!(sent.payload, b"from rank 0");

        let Some(Addr::Unix(mesh0)) = Addr::parse(&mesh0) else {
            panic!("a Unix-socket daemon advertises a Unix mesh address");
        };
        let mut to0 = UnixStream::connect(mesh0).unwrap();
        let mut peer_and_msg = Frame::control(KIND_PEER, 0, 1, 0).encode();
        let mut msg = Frame::control(KIND_MSG, 0, 1, 0);
        msg.payload = b"from rank 1".to_vec();
        msg.encode_into(&mut peer_and_msg);
        let written = Instant::now();
        to0.write_all(&peer_and_msg).unwrap();

        let inbox = read_frame(&mut ctrl, &mut ctrl_dec);
        let waited = written.elapsed();
        assert_eq!((inbox.kind, inbox.phase, inbox.src, inbox.dst), (KIND_INBOX, 0, 1, 0));
        assert_eq!(inbox.payload, b"from rank 1");
        assert!(waited < Duration::from_millis(50), "the MSG sat in its decoder for {waited:?}");
        let report = TelemFrame::from_frame(&read_frame(&mut ctrl, &mut ctrl_dec)).unwrap();
        assert_eq!((report.torn, report.resets, report.deferred), (0, 0, 0));
        assert_eq!((report.frames, report.bytes), (1, 11));

        // Control-connection EOF is the teardown signal.
        drop(ctrl);
        assert_eq!(daemon.join().unwrap(), Ok(0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
