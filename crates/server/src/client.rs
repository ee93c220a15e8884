//! A small client for the serving protocol.
//!
//! The client mirrors the server's credit window locally: `Welcome`
//! carries the initial grant, every settling response carries the
//! credits returned, and [`Client::try_send`] refuses to send (rather
//! than queueing unboundedly) when the mirror hits zero — the client
//! half of "backpressure by withholding grants".  Works over any
//! [`Transport`]: the in-process loopback pair for deterministic tests
//! and [`TcpTransport`](crate::transport::TcpTransport) for sockets.

use crate::frame::{ReqKind, RequestFrame, RespKind, ResponseFrame};
use crate::transport::Transport;
use eris_core::DataCommand;

/// What the client has seen settle, by response kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    pub sent: u64,
    pub accepted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub rejected: u64,
    pub goodbyes: u64,
    /// `try_send` calls refused because the local credit mirror was 0.
    pub credit_stalls: u64,
    /// Responses that could not be parsed (should stay 0).
    pub protocol_errors: u64,
}

impl ClientStats {
    /// Every settled command: accepted + shed + quota-denied + rejected.
    pub fn settled(&self) -> u64 {
        self.accepted + self.shed + self.quota_denied + self.rejected
    }
}

/// One connection's client state machine.
pub struct Client<T: Transport> {
    transport: T,
    tenant: u32,
    /// Assigned by the server's `Welcome`; frames before that carry 0.
    conn: u32,
    next_seq: u64,
    /// Local mirror of the server-side credit window (0 until Welcome).
    credits: u32,
    welcomed: bool,
    goodbye: bool,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    stats: ClientStats,
    /// Retry hint from the most recent Shed/QuotaDenied, if any.
    last_retry_after_ms: Option<u32>,
}

impl<T: Transport> Client<T> {
    /// Open a session for `tenant`: queues the `Hello` immediately; the
    /// credit grant arrives with the `Welcome` on a later [`Client::poll`].
    pub fn connect(transport: T, tenant: u32) -> Self {
        let mut c = Client {
            transport,
            tenant,
            conn: 0,
            next_seq: 1,
            credits: 0,
            welcomed: false,
            goodbye: false,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            stats: ClientStats::default(),
            last_retry_after_ms: None,
        };
        RequestFrame {
            kind: ReqKind::Hello,
            tenant,
            conn: 0,
            seq: 0,
            payload: &[],
        }
        .encode(&mut c.outbuf);
        c
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    pub fn credits(&self) -> u32 {
        self.credits
    }

    pub fn is_welcomed(&self) -> bool {
        self.welcomed
    }

    /// True once the server said `Goodbye` or the transport died.
    pub fn is_done(&self) -> bool {
        self.goodbye || !self.transport.is_open()
    }

    pub fn conn_id(&self) -> u32 {
        self.conn
    }

    /// The server's most recent retry-after hint, cleared on read.
    pub fn take_retry_hint(&mut self) -> Option<u32> {
        self.last_retry_after_ms.take()
    }

    /// Outstanding commands: sent but not yet settled by a response.
    pub fn in_flight(&self) -> u64 {
        self.stats.sent - self.stats.settled()
    }

    /// Queue one command if a credit is available; `false` (and a stall
    /// count) otherwise.  Call [`Client::poll`] to actually move bytes.
    pub fn try_send(&mut self, cmd: &DataCommand) -> bool {
        if !self.welcomed || self.credits == 0 || self.goodbye {
            self.stats.credit_stalls += 1;
            return false;
        }
        self.credits -= 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        RequestFrame::encode_command(self.tenant, self.conn, seq, cmd, &mut self.outbuf);
        self.stats.sent += 1;
        true
    }

    /// Queue an orderly close.
    pub fn send_bye(&mut self) {
        RequestFrame {
            kind: ReqKind::Bye,
            tenant: self.tenant,
            conn: self.conn,
            seq: self.next_seq,
            payload: &[],
        }
        .encode(&mut self.outbuf);
        self.next_seq += 1;
    }

    /// Flush queued frames and consume any responses.  Returns how many
    /// responses settled in this call.
    pub fn poll(&mut self) -> usize {
        if !self.outbuf.is_empty() {
            if let Ok(n) = self.transport.try_write(&self.outbuf) {
                self.outbuf.drain(..n);
            }
        }
        let _ = self.transport.try_read(&mut self.inbuf);
        // Decode behind a cursor and compact the buffer once at the end,
        // so a read holding many responses is consumed in linear time.
        let mut consumed = 0;
        let mut settled = 0;
        loop {
            let mut cur = &self.inbuf[consumed..];
            let before = cur.len();
            match ResponseFrame::try_decode(&mut cur) {
                Ok(None) => break,
                Err(_) => {
                    self.stats.protocol_errors += 1;
                    consumed = self.inbuf.len();
                    self.transport.close();
                    break;
                }
                Ok(Some(resp)) => {
                    consumed += before - cur.len();
                    settled += self.apply(resp);
                }
            }
        }
        self.inbuf.drain(..consumed);
        settled
    }

    fn apply(&mut self, resp: ResponseFrame) -> usize {
        match resp.kind {
            RespKind::Welcome => {
                self.welcomed = true;
                self.conn = resp.conn;
                self.credits = resp.credits;
                0
            }
            RespKind::Goodbye => {
                self.goodbye = true;
                self.stats.goodbyes += 1;
                0
            }
            RespKind::Accepted => {
                self.stats.accepted += 1;
                self.credits = self.credits.saturating_add(resp.credits);
                1
            }
            RespKind::Shed => {
                self.stats.shed += 1;
                self.credits += resp.credits;
                self.last_retry_after_ms = Some(resp.retry_after_ms);
                1
            }
            RespKind::QuotaDenied => {
                self.stats.quota_denied += 1;
                self.credits += resp.credits;
                self.last_retry_after_ms = Some(resp.retry_after_ms);
                1
            }
            RespKind::Rejected => {
                self.stats.rejected += 1;
                self.credits += resp.credits;
                1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use eris_core::{DataObjectId, Payload};

    fn cmd() -> DataCommand {
        DataCommand {
            object: DataObjectId(0),
            ticket: 7,
            payload: Payload::Lookup { keys: vec![1] },
        }
    }

    #[test]
    fn client_refuses_to_send_without_credits() {
        let (a, _b) = loopback_pair();
        let mut c = Client::connect(a, 0);
        // Not welcomed yet: no credits, sends are stalls not queues.
        assert!(!c.try_send(&cmd()));
        assert_eq!(c.stats().credit_stalls, 1);
        assert_eq!(c.stats().sent, 0);
    }

    fn resp(kind: RespKind, code: u8, seq: u64, credits: u32, retry: u32) -> Vec<u8> {
        let mut out = Vec::new();
        ResponseFrame {
            kind,
            code,
            conn: 5,
            seq,
            credits,
            retry_after_ms: retry,
        }
        .encode(&mut out);
        out
    }

    /// What a client made of a response stream: its stats, credit
    /// mirror, session state, last retry hint, the settlements `poll`
    /// reported, and the bytes left in its reassembly buffer.
    type ClientView = (ClientStats, u32, bool, u32, Option<u32>, usize, Vec<u8>);

    /// Deliver `reads` to a fresh client, one `poll` per read.
    fn poll_reads(reads: &[&[u8]]) -> ClientView {
        let (a, mut server_side) = loopback_pair();
        let mut c = Client::connect(a, 0);
        let mut settled = 0;
        for read in reads {
            server_side.try_write(read).unwrap();
            settled += c.poll();
        }
        (
            c.stats(),
            c.credits(),
            c.is_welcomed(),
            c.conn_id(),
            c.take_retry_hint(),
            settled,
            c.inbuf.clone(),
        )
    }

    /// Every two-read split of the concatenated responses leaves the
    /// client exactly where one response per read does.
    fn assert_split_invariant(frames: &[Vec<u8>]) -> ClientView {
        let per_frame: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let reference = poll_reads(&per_frame);
        let stream = frames.concat();
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            assert_eq!(poll_reads(&[head, tail]), reference, "split at byte {cut}");
        }
        reference
    }

    #[test]
    fn poll_is_independent_of_read_boundaries() {
        let partial = resp(RespKind::Accepted, 0, 5, 1, 0);
        let frames = vec![
            resp(RespKind::Welcome, 0, 0, 4, 0),
            resp(RespKind::Accepted, 0, 1, 1, 0),
            resp(RespKind::Shed, crate::frame::SHED_OVERLOAD, 2, 1, 40),
            resp(RespKind::QuotaDenied, 0, 3, 1, 70),
            resp(RespKind::Rejected, crate::frame::REJ_DECODE, 4, 1, 0),
            partial[..7].to_vec(),
        ];
        let (stats, credits, welcomed, conn, hint, settled, left) = assert_split_invariant(&frames);
        assert_eq!(
            (
                stats.accepted,
                stats.shed,
                stats.quota_denied,
                stats.rejected
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(
            (credits, welcomed, conn, hint, settled),
            (8, true, 5, Some(70), 4)
        );
        assert_eq!(left, partial[..7].to_vec(), "the partial response waits");
    }

    #[test]
    fn bad_magic_mid_buffer_is_one_protocol_error_at_any_read_boundary() {
        let mut garbage = resp(RespKind::Accepted, 0, 2, 1, 0);
        garbage[0] = 0x45;
        let frames = vec![
            resp(RespKind::Welcome, 0, 0, 4, 0),
            resp(RespKind::Accepted, 0, 1, 1, 0),
            garbage,
            resp(RespKind::Accepted, 0, 3, 1, 0),
        ];
        let (stats, credits, _, _, _, settled, left) = assert_split_invariant(&frames);
        assert_eq!((stats.accepted, stats.protocol_errors), (1, 1));
        assert_eq!((credits, settled), (5, 1));
        assert!(left.is_empty(), "the stream is abandoned, not re-parsed");
    }

    #[test]
    fn client_mirrors_grants_and_settlements() {
        let (a, mut server_side) = loopback_pair();
        let mut c = Client::connect(a, 3);
        c.poll();
        // Fake the server: read the Hello, answer Welcome with 2 credits.
        let mut req = Vec::new();
        server_side.try_read(&mut req).unwrap();
        let hello = RequestFrame::try_decode(&mut req.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(hello.kind, ReqKind::Hello);
        assert_eq!(hello.tenant, 3);
        let mut resp = Vec::new();
        ResponseFrame {
            kind: RespKind::Welcome,
            code: 0,
            conn: 9,
            seq: 0,
            credits: 2,
            retry_after_ms: 0,
        }
        .encode(&mut resp);
        server_side.try_write(&resp).unwrap();
        c.poll();
        assert!(c.is_welcomed());
        assert_eq!((c.conn_id(), c.credits()), (9, 2));

        assert!(c.try_send(&cmd()));
        assert!(c.try_send(&cmd()));
        assert!(!c.try_send(&cmd()), "window exhausted");
        assert_eq!(c.in_flight(), 2);
        c.poll();

        // Settle seq 1 as Accepted (credit back), seq 2 as Shed.
        let mut resp = Vec::new();
        ResponseFrame {
            kind: RespKind::Accepted,
            code: 0,
            conn: 9,
            seq: 1,
            credits: 1,
            retry_after_ms: 0,
        }
        .encode(&mut resp);
        ResponseFrame {
            kind: RespKind::Shed,
            code: crate::frame::SHED_OVERLOAD,
            conn: 9,
            seq: 2,
            credits: 1,
            retry_after_ms: 40,
        }
        .encode(&mut resp);
        server_side.try_write(&resp).unwrap();
        assert_eq!(c.poll(), 2);
        let s = c.stats();
        assert_eq!((s.accepted, s.shed), (1, 1));
        assert_eq!(c.credits(), 2);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.take_retry_hint(), Some(40));
        assert_eq!(c.take_retry_hint(), None);
    }
}
