//! Byte-stream plumbing shared by the server and the client: one
//! enum over Unix-domain and TCP sockets plus blocking frame
//! read/write helpers on top of [`sw_net::framing::FrameDecoder`].
//!
//! The service reuses the rank fabric's framing untouched — the only
//! new machinery is mapping [`FrameError`] onto `io::Error` so both
//! sides surface a torn or misaligned stream as a structured
//! `InvalidData` failure instead of a stall.

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use sw_net::framing::{Frame, FrameDecoder, FrameError};

/// A connected byte stream of either address family.
#[derive(Debug)]
pub enum Stream {
    /// A Unix-domain socket (the default for same-host serving).
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP socket.
    Tcp(TcpStream),
}

impl Stream {
    /// Clones the underlying OS handle (shared file offset/state).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Bounds how long a single `read` may block.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Shuts both directions down, unblocking any reader.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Maps a framing failure onto a structured I/O error.
pub fn frame_err(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("framing: {e:?}"))
}

/// Writes one frame and flushes it.
pub fn write_frame(stream: &mut Stream, frame: &Frame) -> io::Result<()> {
    stream.write_all(&frame.encode())?;
    stream.flush()
}

/// Events a frame-reading loop distinguishes.
pub enum ReadEvent {
    /// One complete frame arrived.
    Frame(Frame),
    /// The peer closed the stream cleanly (no partial frame pending).
    Closed,
    /// The read timed out with the stream still healthy.
    TimedOut,
}

/// Blocks (up to the stream's read timeout) for the next frame.
///
/// Mid-frame EOF and garbage bytes both surface as `InvalidData`.
pub fn read_frame(stream: &mut Stream, dec: &mut FrameDecoder) -> io::Result<ReadEvent> {
    loop {
        if let Some(frame) = dec.next_frame().map_err(frame_err)? {
            return Ok(ReadEvent::Frame(frame));
        }
        // Zeroed per read, not per frame: a pipelined burst is parsed out
        // of the decoder without touching it.
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => {
                dec.finish().map_err(frame_err)?;
                return Ok(ReadEvent::Closed);
            }
            Ok(n) => dec.extend(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(ReadEvent::TimedOut);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}
