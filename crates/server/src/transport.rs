//! Byte transports behind one trait: in-process loopback pipes (the
//! deterministic tier-1 path) and non-blocking TCP (the network path).
//!
//! The server core is transport-agnostic: it appends whatever bytes are
//! available, parses frames out of its own reassembly buffer, and
//! writes response bytes back.  "Async" here is readiness polling — the
//! workspace has no epoll shim and no async runtime, so every transport
//! is non-blocking and the serving loop multiplexes by polling at batch
//! boundaries (see `crates/server/src/server.rs` and `tcp.rs`).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A non-blocking bidirectional byte stream.
pub trait Transport: Send {
    /// Append any available inbound bytes to `buf`; returns how many
    /// arrived.  `Ok(0)` means nothing available right now (or peer
    /// gone — check [`Transport::is_open`]).
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;

    /// Write as many of `bytes` as the transport will take without
    /// blocking; returns how many were written.
    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize>;

    /// False once the peer is gone or the stream was closed locally.
    fn is_open(&self) -> bool;

    /// Close the stream; further reads/writes return `Ok(0)`.
    fn close(&mut self);
}

/// One direction of an in-process pipe.
#[derive(Clone, Default)]
pub struct Pipe {
    inner: Arc<PipeInner>,
}

#[derive(Default)]
struct PipeInner {
    bytes: Mutex<VecDeque<u8>>,
    closed: AtomicBool,
}

impl Pipe {
    // HOT-PATH-CUT: loopback test transport — Mutex-based by design,
    // used by the harness, never on the engine's latch-free paths.
    // Both directions copy whole slices: a ring buffer holds at most two
    // contiguous runs, so a push or drain is at most two memcpys.
    pub fn push(&self, data: &[u8]) {
        // `Extend<&u8>` from a slice iterator copies the slice in bulk.
        self.inner.bytes.lock().extend(data);
    }

    pub fn drain_into(&self, out: &mut Vec<u8>) -> usize {
        let mut q = self.inner.bytes.lock();
        let (front, back) = q.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        let n = q.len();
        q.clear();
        n
    }

    // HOT-PATH-CUT: loopback test transport, as `push`.
    pub fn len(&self) -> usize {
        self.inner.bytes.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
    }

    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Relaxed)
    }
}

/// A transport over two shared pipes (read side + write side).
pub struct PipeTransport {
    rx: Pipe,
    tx: Pipe,
}

/// A connected pair of in-process transports: bytes written on one end
/// become readable on the other.  Deterministic: no sockets, no
/// threads, no timeouts — the tier-1 test path.
pub fn loopback_pair() -> (PipeTransport, PipeTransport) {
    let a_to_b = Pipe::default();
    let b_to_a = Pipe::default();
    (
        PipeTransport {
            rx: b_to_a.clone(),
            tx: a_to_b.clone(),
        },
        PipeTransport {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl PipeTransport {
    /// Build from explicit pipes (the TCP bridge wires sockets to the
    /// same shape: a worker thread shovels socket bytes into `rx` and
    /// drains `tx` back to the socket).
    pub fn from_pipes(rx: Pipe, tx: Pipe) -> Self {
        PipeTransport { rx, tx }
    }
}

impl Transport for PipeTransport {
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        Ok(self.rx.drain_into(buf))
    }

    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.tx.is_closed() {
            return Ok(0);
        }
        self.tx.push(bytes);
        Ok(bytes.len())
    }

    fn is_open(&self) -> bool {
        // Closing either direction closes the connection for both ends;
        // already-piped bytes stay readable via `try_read`.
        !self.rx.is_closed() && !self.tx.is_closed()
    }

    fn close(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// A non-blocking TCP transport.
pub struct TcpTransport {
    stream: TcpStream,
    open: bool,
}

impl TcpTransport {
    /// Wrap a connected stream, switching it to non-blocking mode and
    /// disabling Nagle (frames are small; latency matters).
    pub fn new(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpTransport { stream, open: true })
    }

    /// Connect to `addr` and wrap the stream.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpTransport> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

impl Transport for TcpTransport {
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        if !self.open {
            return Ok(0);
        }
        let mut total = 0;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Orderly shutdown by the peer.
                    self.open = false;
                    break;
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if !self.open {
            return Ok(0);
        }
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => {
                    self.open = false;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(e);
                }
            }
        }
        Ok(written)
    }

    fn is_open(&self) -> bool {
        self.open
    }

    fn close(&mut self) {
        self.open = false;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_carries_bytes_both_ways() {
        let (mut a, mut b) = loopback_pair();
        assert_eq!(a.try_write(b"hello").unwrap(), 5);
        let mut got = Vec::new();
        assert_eq!(b.try_read(&mut got).unwrap(), 5);
        assert_eq!(got, b"hello");
        // Nothing more to read: would-block, not an error.
        assert_eq!(b.try_read(&mut got).unwrap(), 0);
        assert_eq!(b.try_write(b"yo").unwrap(), 2);
        let mut back = Vec::new();
        assert_eq!(a.try_read(&mut back).unwrap(), 2);
        assert_eq!(back, b"yo");
    }

    #[test]
    fn pipe_is_byte_exact_across_the_ring_wrap_around() {
        let pipe = Pipe::default();
        for cut in [1usize, 13, 31, 32] {
            // Park the ring's head `cut` bytes before the end of its
            // buffer (clearing the ring rewinds the head, so only front
            // pops can put it there).
            {
                let mut q = pipe.inner.bytes.lock();
                q.clear();
                q.reserve_exact(64);
                let cap = q.capacity();
                q.extend(std::iter::repeat_n(0u8, cap - cut));
                while q.pop_front().is_some() {}
            }
            // This push straddles the wrap point: its bytes land in two
            // runs, and the drain must return them in order.
            let sent: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(37) ^ cut as u8).collect();
            pipe.push(&sent);
            assert_eq!(pipe.inner.bytes.lock().as_slices().0.len(), cut.min(48));
            let mut got = vec![0xEE];
            assert_eq!(pipe.drain_into(&mut got), sent.len());
            assert_eq!(got[0], 0xEE, "drain appends");
            assert_eq!(&got[1..], &sent[..]);
            assert!(pipe.is_empty());
        }
    }

    #[test]
    fn closed_loopback_stops_accepting_writes() {
        let (mut a, mut b) = loopback_pair();
        a.try_write(b"tail").unwrap();
        b.close();
        assert_eq!(a.try_write(b"more").unwrap(), 0);
        assert!(!b.is_open());
    }
}
