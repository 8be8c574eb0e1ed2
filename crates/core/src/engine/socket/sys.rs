//! Nonblocking socket primitives for the socket fabric: `poll(2)`,
//! address/listener/stream abstraction over Unix-domain and TCP, and
//! the buffered [`Conn`] (frame decoder in, byte queue out) both the
//! orchestrator and the rank daemon drive from a single-threaded poll
//! loop.
//!
//! The container has no `libc` crate; `poll(2)` is declared directly
//! (std already links the platform libc on every Unix target). Streams
//! run nonblocking after connection setup — short reads, short writes,
//! and `WouldBlock` are the normal case, which is exactly what the
//! framing layer is built to absorb.
//!
//! Reads are readiness-driven: a loop calls [`Conn::fill`] on the
//! descriptors `poll` flagged, and one `fill` is one `read` of at most
//! [`READ_CHUNK`] bytes. `poll` is level-triggered, so whatever a read
//! left in the kernel — more bytes, or the EOF behind them — flags the
//! descriptor again on the next pass; nobody has to read on to
//! `WouldBlock` to find out.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sw_net::framing::{Frame, FrameDecoder, FrameError};

/// `struct pollfd` (see `poll(2)`).
#[repr(C)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Waits for readiness on `fds` for up to `timeout_ms` (0 = immediate,
/// negative = forever). `EINTR` counts as "no events", not an error.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusive slice of repr(C) pollfd
    // structs for the duration of the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// A fabric endpoint address, serializable into the handshake TABLE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Addr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP loopback address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Addr {
    /// Parses the `Display` form back (the daemon receives addresses as
    /// strings via argv and the TABLE frame).
    pub fn parse(s: &str) -> Option<Addr> {
        if let Some(p) = s.strip_prefix("unix:") {
            return Some(Addr::Unix(PathBuf::from(p)));
        }
        if let Some(a) = s.strip_prefix("tcp:") {
            return a.parse().ok().map(Addr::Tcp);
        }
        None
    }
}

/// A listening socket of either family, nonblocking.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix-domain listener at `dir/name`.
    pub fn bind_unix(dir: &Path, name: &str) -> io::Result<Listener> {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)?;
        l.set_nonblocking(true)?;
        Ok(Listener::Unix(l))
    }

    /// Binds a TCP listener on an ephemeral loopback port.
    pub fn bind_tcp() -> io::Result<Listener> {
        let l = TcpListener::bind("127.0.0.1:0")?;
        l.set_nonblocking(true)?;
        Ok(Listener::Tcp(l))
    }

    /// The address peers connect to.
    pub fn addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Unix(l) => {
                let sa = l.local_addr()?;
                let p = sa
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix listener"))?;
                Ok(Addr::Unix(p.to_path_buf()))
            }
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?)),
        }
    }

    /// Accepts one pending connection, if any (nonblocking).
    pub fn accept(&self) -> io::Result<Option<Stream>> {
        let res = match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match res {
            Ok(s) => {
                s.configure()?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// A connected stream of either family.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr`, retrying briefly on refusals (a peer's
    /// accept backlog can lag under the fault-realization reconnect
    /// storm), then switches to nonblocking (and `TCP_NODELAY`).
    pub fn connect(addr: &Addr, deadline: Instant) -> io::Result<Stream> {
        loop {
            let res = match addr {
                Addr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
                Addr::Tcp(a) => TcpStream::connect(a).map(Stream::Tcp),
            };
            match res {
                Ok(s) => {
                    s.configure()?;
                    return Ok(s);
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Every fabric stream runs nonblocking. TCP additionally runs
    /// with Nagle off: the mesh is unidirectional, so nothing flows
    /// back to piggyback an ACK on, and a second small write on a
    /// connection would otherwise sit out the peer's delayed ACK.
    fn configure(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(true),
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
        }
    }

    /// Half-closes the write side then fully shuts the stream down —
    /// the receiver sees any bytes already written, then EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

/// Most bytes one [`Conn::fill`] takes off its socket: the bound on
/// what a single readiness event may make a connection buffer, however
/// fast its peer writes. It is also the size of the read buffer a
/// connection keeps once it has read (one that never reads — the
/// outgoing half of the mesh — keeps none), so it is sized for the
/// fabric's usual frames — a phase's worth for one rank is a few KB —
/// and longer frames simply take more readiness events.
const READ_CHUNK: usize = 16 * 1024;

/// A buffered framed connection: incremental [`FrameDecoder`] on the
/// read side, a byte queue drained by `WouldBlock`-aware writes on the
/// write side. One poll-loop thread services any number of these.
pub(crate) struct Conn {
    stream: Stream,
    /// Where `fill` reads into: empty until the first read, then
    /// [`READ_CHUNK`] bytes zeroed once and reused as they are.
    rbuf: Vec<u8>,
    dec: FrameDecoder,
    outq: Vec<u8>,
    sent: usize,
    /// A `read` returned 0: the peer closed its write side and every
    /// byte it wrote before that is already in the decoder.
    pub eof: bool,
}

impl Conn {
    pub fn new(stream: Stream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            dec: FrameDecoder::new(),
            outq: Vec::new(),
            sent: 0,
            eof: false,
        }
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// This connection's `poll` entry: readable, and writable while
    /// bytes are queued.
    pub fn watch(&self) -> PollFd {
        let out = if self.pending_out() > 0 { POLLOUT } else { 0 };
        PollFd {
            fd: self.fd(),
            events: POLLIN | out,
            revents: 0,
        }
    }

    /// Queues a frame for transmission (no I/O yet).
    pub fn queue(&mut self, frame: &Frame) {
        if self.sent > 0 && self.sent == self.outq.len() {
            self.outq.clear();
            self.sent = 0;
        }
        frame.encode_into(&mut self.outq);
    }

    /// Unsent bytes still queued.
    pub fn pending_out(&self) -> usize {
        self.outq.len() - self.sent
    }

    /// Writes queued bytes until drained or `WouldBlock`. Hard write
    /// errors (EPIPE/ECONNRESET — the peer is gone) surface as `Err`.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.outq.len() {
            match self.stream.write_nb(&self.outq[self.sent..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "zero write")),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.outq.len() {
            self.outq.clear();
            self.sent = 0;
        } else if self.sent >= 1 << 20 {
            self.outq.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }

    /// Discards everything still queued — used when the peer is known
    /// dead and further writes would only error again.
    pub fn forget_pending(&mut self) {
        self.outq.clear();
        self.sent = 0;
    }

    /// One `read` of at most [`READ_CHUNK`] bytes, fed to the frame
    /// decoder. Call it on a descriptor `poll` flagged: bytes (or the
    /// EOF) this read did not reach flag it again.
    pub fn fill(&mut self) -> io::Result<()> {
        if self.rbuf.is_empty() {
            self.rbuf = vec![0; READ_CHUNK];
        }
        match self.stream.read_nb(&mut self.rbuf) {
            Ok(0) => self.eof = true,
            Ok(n) => self.dec.extend(&self.rbuf[..n]),
            // Nothing this time; if there is something after all,
            // `poll` flags the descriptor again.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Next complete frame already buffered, if any.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.dec.next_frame()
    }

    /// EOF verdict for the decoder: `Ok` on a frame boundary,
    /// `Truncated` for a torn final frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        self.dec.finish()
    }

    /// Writes the first `prefix` raw bytes of `frame` (spin-waiting
    /// through `WouldBlock` until `deadline`), then shuts the stream
    /// down — the physical realization of a truncation fault: the peer
    /// reads a torn frame, then EOF. Returns how many bytes actually
    /// made it out.
    pub fn write_prefix_and_shutdown(
        &mut self,
        frame: &Frame,
        prefix: usize,
        deadline: Instant,
    ) -> usize {
        let bytes = frame.encode();
        let k = prefix.min(bytes.len());
        let mut done = 0;
        while done < k && Instant::now() < deadline {
            match self.stream.write_nb(&bytes[done..k]) {
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.stream.shutdown();
        done
    }

    /// Shuts the stream down without writing anything — the physical
    /// realization of a drop fault: the peer sees a bare EOF (or
    /// `ECONNRESET`) where a message was due.
    pub fn shutdown(&self) {
        self.stream.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_net::framing::FRAME_HEADER_BYTES;

    fn sample(n: usize) -> Frame {
        let mut f = Frame::control(6, 3, 1, 2);
        f.payload = (0..n).map(|i| i as u8).collect();
        f
    }

    /// A nonblocking `Conn` and the blocking stream its peer writes to.
    fn pair() -> (Conn, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let ours = Stream::Unix(ours);
        ours.configure().unwrap();
        (Conn::new(ours), theirs)
    }

    #[test]
    fn a_frame_split_across_two_writes_is_held_back_then_delivered_whole() {
        let (mut conn, mut peer) = pair();
        let bytes = sample(300).encode();
        peer.write_all(&bytes[..100]).unwrap();
        conn.fill().unwrap();
        assert_eq!(conn.next_frame(), Ok(None), "a partial frame never surfaces");
        peer.write_all(&bytes[100..]).unwrap();
        conn.fill().unwrap();
        assert_eq!(conn.next_frame(), Ok(Some(sample(300))));
        assert_eq!(conn.next_frame(), Ok(None));
        // Nothing to read is not an error and not an EOF.
        conn.fill().unwrap();
        assert!(!conn.eof);
    }

    /// One `fill` is one `read`: had the first `fill` read on after its
    /// short read it would have met the EOF already waiting behind the
    /// frame. It surfaces on the next readiness instead.
    #[test]
    fn a_short_read_ends_fill_and_eof_surfaces_on_the_next_one() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&sample(40).encode()).unwrap();
        drop(peer);
        conn.fill().unwrap();
        assert!(!conn.eof, "fill read past a short read");
        assert_eq!(conn.next_frame(), Ok(Some(sample(40))));
        conn.fill().unwrap();
        assert!(conn.eof);
        assert_eq!(conn.finish(), Ok(()));
    }

    /// A peer that writes faster than we parse grows the decoder by one
    /// chunk per readiness event, not by whatever it managed to queue.
    #[test]
    fn one_readiness_event_buffers_at_most_one_chunk() {
        let (mut conn, mut peer) = pair();
        let bytes = sample(3 * READ_CHUNK).encode();
        let writer = std::thread::spawn(move || peer.write_all(&bytes).unwrap());
        let mut fills = 0;
        while conn.dec.pending() < FRAME_HEADER_BYTES + 3 * READ_CHUNK {
            let before = conn.dec.pending();
            let mut fds = [PollFd { fd: conn.fd(), events: POLLIN, revents: 0 }];
            let flagged = poll_fds(&mut fds, 5_000).unwrap();
            assert_eq!(flagged, 1, "level-triggered poll re-flags what a read left");
            conn.fill().unwrap();
            assert!(conn.dec.pending() - before <= READ_CHUNK);
            fills += 1;
        }
        writer.join().unwrap();
        assert!(fills >= 4, "{fills} fills moved more than three chunks");
        assert_eq!(conn.next_frame(), Ok(Some(sample(3 * READ_CHUNK))));
    }

    #[test]
    fn a_torn_final_frame_ends_as_truncated() {
        let (mut conn, mut peer) = pair();
        let bytes = sample(90).encode();
        peer.write_all(&bytes[..50]).unwrap();
        drop(peer);
        conn.fill().unwrap();
        conn.fill().unwrap();
        assert!(conn.eof);
        assert_eq!(conn.next_frame(), Ok(None));
        assert_eq!(
            conn.finish(),
            Err(FrameError::Truncated { have: 50, need: bytes.len() })
        );
    }

    #[test]
    fn tcp_streams_run_with_nodelay_on_both_ends() {
        let listener = Listener::bind_tcp().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let ours = Stream::connect(&listener.addr().unwrap(), deadline).unwrap();
        let theirs = loop {
            match listener.accept().unwrap() {
                Some(s) => break s,
                None => assert!(Instant::now() < deadline, "accept timed out"),
            }
        };
        for s in [ours, theirs] {
            match s {
                Stream::Tcp(t) => assert!(t.nodelay().unwrap()),
                Stream::Unix(_) => unreachable!("bind_tcp yields TCP streams"),
            }
        }
    }
}
