//! A small blocking client for the query service.
//!
//! One connection, pipelinable: [`Client::send`] queues any number of
//! queries on the wire, [`Client::recv`] pulls answers back in the
//! order the server emits them (admission order, so a single
//! connection's answers match its sends). [`Client::query`] is the
//! one-shot convenience wrapper.

use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use sw_net::framing::{
    BusyFrame, Frame, FrameDecoder, QueryFrame, QueryOp, ResultFrame, StatsFormat, StatsFrame,
    StatsReqFrame, KIND_BUSY, KIND_RESULT,
};

use crate::server::ServerAddr;
use crate::wire::{read_frame, write_frame, ReadEvent, Stream};

/// What the server said about one query.
#[derive(Clone, Debug)]
pub enum Response {
    /// A terminal answer (`Ok`, `Timeout`, or `BadQuery`).
    Answer(ResultFrame),
    /// The query was shed at admission — retry later.
    Busy(BusyFrame),
}

impl Response {
    /// The correlation id the response echoes.
    pub fn id(&self) -> u64 {
        match self {
            Response::Answer(r) => r.id,
            Response::Busy(b) => b.id,
        }
    }
}

/// A connected query client.
pub struct Client {
    stream: Stream,
    decoder: FrameDecoder,
    next_id: u64,
}

impl Client {
    /// Connects to a running server. Reads are bounded by a 10 s
    /// timeout so a dead server surfaces as an error, not a hang; use
    /// [`Client::set_read_timeout`] to tighten or lift it.
    pub fn connect(addr: &ServerAddr) -> io::Result<Client> {
        let stream = match addr {
            #[cfg(unix)]
            ServerAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            ServerAddr::Tcp(sa) => Stream::Tcp(TcpStream::connect(sa)?),
        };
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            next_id: 1,
        })
    }

    /// Bounds how long [`Client::recv`] may block (`None` = forever).
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Queues one query on the wire without waiting for the answer;
    /// returns the correlation id the response will echo.
    pub fn send(
        &mut self,
        op: QueryOp,
        root: u64,
        target: u64,
        hops: u32,
        deadline_ms: u32,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let q = QueryFrame {
            id,
            op,
            root,
            target,
            hops,
            deadline_ms,
        };
        write_frame(&mut self.stream, &q.into_frame())?;
        Ok(id)
    }

    /// Blocks for the next frame on the connection; `awaited` names
    /// it in the timeout error.
    fn next_frame(&mut self, awaited: &str) -> io::Result<Frame> {
        match read_frame(&mut self.stream, &mut self.decoder)? {
            ReadEvent::Frame(f) => Ok(f),
            ReadEvent::Closed => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            ReadEvent::TimedOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("timed out waiting for {awaited}"),
            )),
        }
    }

    /// Blocks for the next response on the connection.
    pub fn recv(&mut self) -> io::Result<Response> {
        let frame = self.next_frame("a response")?;
        let bad = |msg: &'static str| io::Error::new(io::ErrorKind::InvalidData, msg);
        match frame.kind {
            KIND_RESULT => ResultFrame::from_frame(&frame)
                .map(Response::Answer)
                .map_err(bad),
            KIND_BUSY => BusyFrame::from_frame(&frame).map(Response::Busy).map_err(bad),
            _ => Err(bad("unexpected frame kind from server")),
        }
    }

    /// Polls the server's telemetry endpoint and returns the rendered
    /// snapshot body. Stats answers come back on the same ordered
    /// stream as query answers, so don't interleave with outstanding
    /// [`Client::send`]s on this connection — or use a dedicated
    /// monitoring connection, as `swtop` does.
    pub fn stats(&mut self, format: StatsFormat) -> io::Result<Vec<u8>> {
        let id = self.next_id;
        self.next_id += 1;
        let req = StatsReqFrame { id, format };
        write_frame(&mut self.stream, &req.into_frame())?;
        let frame = self.next_frame("stats")?;
        let resp = StatsFrame::from_frame(&frame)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stats answer id does not match the request",
            ));
        }
        Ok(resp.body)
    }

    /// The telemetry snapshot as a flat JSON string.
    pub fn stats_json(&mut self) -> io::Result<String> {
        let body = self.stats(StatsFormat::Json)?;
        String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stats body is not UTF-8"))
    }

    /// The telemetry snapshot in Prometheus text format.
    pub fn stats_prometheus(&mut self) -> io::Result<String> {
        let body = self.stats(StatsFormat::Prometheus)?;
        String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stats body is not UTF-8"))
    }

    /// Sends one query and waits for its response.
    pub fn query(
        &mut self,
        op: QueryOp,
        root: u64,
        target: u64,
        hops: u32,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        self.send(op, root, target, hops, deadline_ms)?;
        self.recv()
    }
}
