//! The serving core: multiplexes framed connections into the engine's
//! per-AEU routing buffers with boundary batching.
//!
//! One [`EngineServer`] owns the [`Engine`] and a set of connections
//! behind [`Transport`]s.  Each [`pump`](EngineServer::pump) is one
//! batch cycle aligned to an AEU step boundary:
//!
//! 1. **Read + admit** — drain available bytes from every connection,
//!    parse frames, and settle each command: credit window first (an
//!    empty window *stops reading* that connection — backpressure by
//!    withholding grants, never unbounded buffering), then the overload
//!    watermark, then the tenant's token bucket, then `DataCommand`
//!    decode and [`Engine::submit`].
//! 2. **Boundary** — `run_epoch()`: every AEU steps once, executing the
//!    batch that was just routed.
//! 3. **Settle + flush** — credits consumed by settled commands are
//!    regranted, responses are encoded and written back.
//!
//! Every received command produces exactly one typed response —
//! `Accepted`, `Shed`, `QuotaDenied`, or `Rejected` — so the server can
//! prove "zero silent drops" from its own ledger, and `accepted ==
//! engine-routed` composes with the engine's per-object
//! enqueued-equals-executed conservation law into end-to-end
//! accepted-equals-executed.

use crate::admission::{Admission, AdmissionConfig, Admit, CreditWindow, LoadSignal, TenantCounts};
use crate::frame::{
    ReqKind, RequestFrame, RespKind, ResponseFrame, REJ_DECODE, REJ_PROTOCOL, REJ_ROUTING,
    REJ_TENANT, SHED_OVERLOAD,
};
use crate::transport::Transport;
use eris_core::{Engine, PayloadPool, QuiesceReport};
use eris_obs::latency::LogHistogram;
use eris_obs::{
    render_jsonl, render_prometheus, HistogramFamily, Metric, MetricKind, Phase, SloConfig,
    SloEngine, SloTotals, TraceStamp,
};
use std::sync::atomic::Ordering::Relaxed;

/// Where the admission clock comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSource {
    /// The engine's virtual clock — deterministic; token-bucket refill
    /// advances exactly with simulated epochs (tier-1 tests, bench).
    Virtual,
    /// The process-wide monotonic host clock (TCP serving).
    Host,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of tenants; frames naming a tenant outside `0..tenants`
    /// are rejected.
    pub tenants: u32,
    pub admission: AdmissionConfig,
    pub clock: ClockSource,
    /// Trace one in N commands end to end (0 disables serving-side
    /// tracing).  A sampled command carries a [`TraceStamp`] born at
    /// frame decode — identity `(tenant, conn, seq)` plus the
    /// network-queue and admission spans — to the executing AEU.  A
    /// sampled command dropped at admission (shed, quota-denied,
    /// rejected) is charged to the engine's trace ledger so
    /// `stamped == traced + dropped` holds under overload.
    pub trace_sample_every: u32,
    /// Per-tenant SLO objectives and burn-rate windows.
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig::default(),
            clock: ClockSource::Virtual,
            trace_sample_every: 64,
            slo: SloConfig::default(),
        }
    }
}

/// A response settled in phase 1, flushed in phase 3 (after the epoch
/// boundary, so credit regrants really are "after the batch executed").
struct PendingResponse {
    kind: RespKind,
    code: u8,
    seq: u64,
    retry_after_ms: u32,
    /// Credits to return to the window when this response flushes.
    regrant: u32,
}

struct Conn {
    id: u32,
    tenant: Option<u32>,
    transport: Box<dyn Transport>,
    credits: CreditWindow,
    /// Reassembly buffer of not-yet-parsed request bytes.
    inbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the transport.
    outbuf: Vec<u8>,
    pending: Vec<PendingResponse>,
    /// Arrival stamp of the oldest unparsed byte (network-queue wait).
    inbuf_since_ns: Option<u64>,
    /// The AEU this connection submits through (round-robin pinned).
    via: eris_core::AeuId,
    closing: bool,
}

/// Whole-server counters (single-writer: the serving loop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    pub frames_received: u64,
    pub commands_received: u64,
    pub responses_sent: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub protocol_errors: u64,
    pub connections_opened: u64,
    pub connections_closed: u64,
    /// Commands admitted whose execution was later abandoned.  The
    /// design makes this impossible (admission settles before the
    /// boundary; the engine's conservation law covers everything after
    /// routing), so this stays 0 — exported so the claim is auditable.
    pub shed_after_accept: u64,
}

/// What one pump cycle did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpReport {
    pub frames: u64,
    pub commands: u64,
    pub accepted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub rejected: u64,
    /// Connections that had parsable frames waiting but an exhausted
    /// credit window (reading was withheld).
    pub stalled_conns: u64,
    pub epoch_duration_ns: f64,
}

/// Point-in-time view of the serving layer's telemetry.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    pub tenants: Vec<TenantCounts>,
    pub counters: ServerCounters,
    /// Network-queue wait histograms (frame arrival to engine submit),
    /// one per tenant.
    pub net_wait: Vec<LogHistogram>,
    pub open_connections: u64,
    /// Per-tenant SLO burn-rate gauges, rendered at snapshot time
    /// (`eris_slo_burn_rate{tenant,objective,window}` and friends).
    pub slo_metrics: Vec<Metric>,
}

/// The serving layer's own conservation ledger, combined with the
/// engine's: proves `accepted == executed` and `shed-after-accept == 0`.
#[derive(Debug, Clone, Copy)]
pub struct ServingLedger {
    /// Commands admitted and routed by the server.
    pub accepted: u64,
    /// Commands the engine's routing layer counted (`commands_routed`).
    pub engine_routed: u64,
    /// Per-object enqueued == executed across every data object.
    pub engine_conservation_ok: bool,
    pub shed_after_accept: u64,
    /// Every received command was answered: `commands_received ==
    /// accepted + shed + quota_denied + rejected`.
    pub all_commands_settled: bool,
}

impl ServingLedger {
    /// The end-to-end conservation claim of the serving layer.
    pub fn holds(&self) -> bool {
        self.accepted == self.engine_routed
            && self.engine_conservation_ok
            && self.shed_after_accept == 0
            && self.all_commands_settled
    }
}

impl ServerSnapshot {
    pub fn accepted_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.accepted).sum()
    }

    pub fn shed_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    pub fn quota_denied_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.quota_denied).sum()
    }

    pub fn rejected_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    pub fn credits_stalled_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.credits_stalled).sum()
    }

    /// The serving layer's metric families (per-tenant admission
    /// counters, whole-server counters, network-queue wait histograms),
    /// ready for the Prometheus/JSONL renderers.
    pub fn to_metrics(&self) -> Vec<Metric> {
        let mut accepted = Metric::new(
            "eris_server_accepted_total",
            "Commands admitted and routed into the engine, per tenant.",
            MetricKind::Counter,
        );
        let mut shed = Metric::new(
            "eris_server_shed_total",
            "Commands shed by the overload watermark, per tenant.",
            MetricKind::Counter,
        );
        let mut quota = Metric::new(
            "eris_server_quota_denied_total",
            "Commands denied by the tenant token bucket, per tenant.",
            MetricKind::Counter,
        );
        let mut stalled = Metric::new(
            "eris_server_credits_stalled_total",
            "Pump cycles a connection was stalled on an empty credit window, per tenant.",
            MetricKind::Counter,
        );
        let mut rejected = Metric::new(
            "eris_server_rejected_total",
            "Commands answered with a typed reject, per tenant.",
            MetricKind::Counter,
        );
        for t in &self.tenants {
            let id = t.tenant.to_string();
            let l: &[(&str, &str)] = &[("tenant", &id)];
            accepted = accepted.sample(l, t.accepted as f64);
            shed = shed.sample(l, t.shed as f64);
            quota = quota.sample(l, t.quota_denied as f64);
            stalled = stalled.sample(l, t.credits_stalled as f64);
            rejected = rejected.sample(l, t.rejected as f64);
        }
        let c = &self.counters;
        let mut metrics = vec![
            accepted,
            shed,
            quota,
            stalled,
            rejected,
            Metric::new(
                "eris_server_frames_received_total",
                "Request frames parsed off connections.",
                MetricKind::Counter,
            )
            .sample(&[], c.frames_received as f64),
            Metric::new(
                "eris_server_responses_sent_total",
                "Response frames flushed to connections.",
                MetricKind::Counter,
            )
            .sample(&[], c.responses_sent as f64),
            Metric::new(
                "eris_server_bytes_read_total",
                "Bytes read from transports.",
                MetricKind::Counter,
            )
            .sample(&[], c.bytes_read as f64),
            Metric::new(
                "eris_server_bytes_written_total",
                "Bytes written to transports.",
                MetricKind::Counter,
            )
            .sample(&[], c.bytes_written as f64),
            Metric::new(
                "eris_server_protocol_errors_total",
                "Connections rejected for frame-protocol violations.",
                MetricKind::Counter,
            )
            .sample(&[], c.protocol_errors as f64),
            Metric::new(
                "eris_server_shed_after_accept_total",
                "Admitted commands later abandoned (must stay 0).",
                MetricKind::Counter,
            )
            .sample(&[], c.shed_after_accept as f64),
            Metric::new(
                "eris_server_open_connections",
                "Currently attached connections.",
                MetricKind::Gauge,
            )
            .sample(&[], self.open_connections as f64),
        ];
        let mut wait = HistogramFamily::new(
            "eris_server_net_queue_wait_ns",
            "Network-queue wait from frame arrival to engine submit",
        );
        for (t, h) in self.net_wait.iter().enumerate() {
            let id = t.to_string();
            wait.observe(&[("tenant", &id)], h);
        }
        metrics.extend(wait.into_metrics());
        metrics.extend(self.slo_metrics.iter().cloned());
        metrics
    }

    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.to_metrics())
    }

    pub fn to_jsonl(&self, at_ns: u64) -> String {
        render_jsonl(&self.to_metrics(), at_ns)
    }
}

/// Outcome of a graceful [`EngineServer::shutdown`].
pub struct ShutdownOutcome {
    pub quiesce: QuiesceReport,
    pub snapshot: ServerSnapshot,
    pub ledger: ServingLedger,
    /// The engine, handed back for post-mortem inspection.
    pub engine: Engine,
}

/// The serving layer around one engine.
pub struct EngineServer {
    engine: Engine,
    cfg: ServerConfig,
    admission: Admission,
    conns: Vec<Option<Conn>>,
    counters: ServerCounters,
    net_wait: Vec<LogHistogram>,
    slo: SloEngine,
    /// Commands seen by the 1-in-N trace sampler.
    trace_seq: u64,
    /// Payload vectors for command decode, recycled once a command is
    /// routed or settled.
    payload_pool: PayloadPool,
}

impl EngineServer {
    pub fn new(engine: Engine, cfg: ServerConfig) -> Self {
        let admission = Admission::new(cfg.admission.clone(), cfg.tenants);
        let net_wait = (0..cfg.tenants).map(|_| LogHistogram::default()).collect();
        let slo = SloEngine::new(cfg.slo.clone());
        EngineServer {
            engine,
            cfg,
            admission,
            conns: Vec::new(),
            counters: ServerCounters::default(),
            net_wait,
            slo,
            trace_seq: 0,
            payload_pool: PayloadPool::default(),
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The per-tenant SLO burn-rate tracker (fed once per pump).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The admission clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self.cfg.clock {
            ClockSource::Virtual => self.engine.clock().now_ns() as u64,
            ClockSource::Host => eris_obs::now_ns(),
        }
    }

    /// Attach a connection; returns its id.  The connection stays
    /// un-helloed (commands rejected) until a `Hello` frame names its
    /// tenant.
    pub fn attach(&mut self, transport: Box<dyn Transport>) -> u32 {
        let id = self.conns.len() as u32;
        let via = eris_core::AeuId(id % self.engine.num_aeus() as u32);
        self.conns.push(Some(Conn {
            id,
            tenant: None,
            transport,
            credits: CreditWindow::new(self.cfg.admission.credit_limit),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: Vec::new(),
            inbuf_since_ns: None,
            via,
            closing: false,
        }));
        self.counters.connections_opened += 1;
        id
    }

    pub fn open_connections(&self) -> u64 {
        self.conns.iter().flatten().count() as u64
    }

    /// One batch cycle: read + admit, epoch boundary, settle + flush.
    pub fn pump(&mut self) -> PumpReport {
        let mut report = PumpReport::default();
        let now = self.now_ns();
        let (pending_bytes, capacity) = self.engine.incoming_occupancy();
        let load = LoadSignal {
            occupancy: pending_bytes as f64 / capacity.max(1) as f64,
            in_flight: self.engine.in_flight_commands(),
        };

        // Phase 1: read and admit, bounded by each connection's window.
        // Wall time is charged as `read_admit` to the profiler of the
        // AEU each connection submits through.
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let t0 = eris_obs::now_ns();
            self.read_and_admit(&mut conn, now, load, &mut report);
            let dt = eris_obs::now_ns().saturating_sub(t0);
            self.engine
                .telemetry_shard(conn.via)
                .profiler
                .add(Phase::ReadAdmit, dt);
            self.conns[slot] = Some(conn);
        }

        // Phase 2: the AEU step boundary executes the admitted batch.
        let epoch = self.engine.run_epoch();
        report.epoch_duration_ns = epoch.duration_ns;

        // Phase 3: settle responses (regrants happen here, after the
        // boundary) and flush transports.  Charged as `flush`.
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let t0 = eris_obs::now_ns();
            self.settle_and_flush(&mut conn);
            let dt = eris_obs::now_ns().saturating_sub(t0);
            self.engine
                .telemetry_shard(conn.via)
                .profiler
                .add(Phase::Flush, dt);
            let dead = !conn.transport.is_open() && conn.inbuf.is_empty();
            if (conn.closing && conn.outbuf.is_empty()) || dead {
                conn.transport.close();
                self.counters.connections_closed += 1;
            } else {
                self.conns[slot] = Some(conn);
            }
        }
        self.observe_slo();
        report
    }

    /// Feed the burn-rate tracker one observation tick per tenant.
    /// Admission verdicts give the request and error totals; the
    /// engine's per-tenant full-path histograms give the bad-latency
    /// count, scaled by the sampling rate (only 1-in-N commands are
    /// traced) and clamped so the estimated bad fraction stays ≤ 1.
    fn observe_slo(&mut self) {
        let now = self.now_ns();
        let threshold = self.slo.config().latency_threshold_ns;
        let scale = self.cfg.trace_sample_every.max(1) as u64;
        let tenant_full = self.engine.latency().tenant_snapshot();
        for t in self.admission.counts() {
            let errors = t.shed + t.quota_denied + t.rejected;
            let requests = t.accepted + errors;
            if requests == 0 {
                continue;
            }
            let bad_latency = tenant_full
                .iter()
                .find(|(id, _)| *id == t.tenant)
                .map(|(_, h)| (h.count_over(threshold) * scale).min(requests))
                .unwrap_or(0);
            self.slo.observe(
                t.tenant,
                now,
                SloTotals {
                    requests,
                    bad_latency,
                    errors,
                },
            );
        }
    }

    /// 1-in-N serving-side trace sampling decision.
    fn trace_sampled(&mut self) -> bool {
        let every = self.cfg.trace_sample_every as u64;
        if every == 0 {
            return false;
        }
        let hit = self.trace_seq.is_multiple_of(every);
        self.trace_seq += 1;
        hit
    }

    /// A sampled command dropped before routing (shed, quota-denied, or
    /// rejected): charge the engine's trace ledger so
    /// `stamped == traced + dropped` stays balanced under overload.
    fn trace_drop(&self) {
        let lat = self.engine.latency();
        lat.on_stamped();
        lat.on_dropped(1);
    }

    fn read_and_admit(
        &mut self,
        conn: &mut Conn,
        now: u64,
        load: LoadSignal,
        report: &mut PumpReport,
    ) {
        let was_empty = conn.inbuf.is_empty();
        match conn.transport.try_read(&mut conn.inbuf) {
            Ok(n) => {
                self.counters.bytes_read += n as u64;
                if was_empty && n > 0 {
                    conn.inbuf_since_ns = Some(now);
                }
            }
            Err(_) => {
                conn.closing = true;
            }
        }
        // Frames are decoded behind a cursor and handled while their
        // payloads still borrow the reassembly buffer; the consumed prefix
        // is compacted away once per read, not once per frame.
        let inbuf = std::mem::take(&mut conn.inbuf);
        let mut consumed = 0;
        while !conn.closing {
            let mut cur = &inbuf[consumed..];
            let before = cur.len();
            match RequestFrame::try_decode(&mut cur) {
                Ok(None) => break,
                Err(_) => {
                    self.counters.protocol_errors += 1;
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code: REJ_PROTOCOL,
                        seq: 0,
                        retry_after_ms: 0,
                        regrant: 0,
                    });
                    if let Some(s) = conn.tenant.and_then(|t| self.admission.shard(t)) {
                        s.rejected.fetch_add(1, Relaxed);
                        report.rejected += 1;
                    }
                    consumed = inbuf.len();
                    conn.closing = true;
                    break;
                }
                Ok(Some(frame)) => {
                    if frame.kind == ReqKind::Command && !conn.credits.try_consume() {
                        // Window empty: withhold — leave the frame in
                        // the buffer and stop reading this connection.
                        if let Some(s) = conn.tenant.and_then(|t| self.admission.shard(t)) {
                            s.credits_stalled.fetch_add(1, Relaxed);
                        }
                        report.stalled_conns += 1;
                        break;
                    }
                    consumed += before - cur.len();
                    self.counters.frames_received += 1;
                    report.frames += 1;
                    self.handle_frame(conn, frame, now, load, report);
                }
            }
        }
        conn.inbuf = inbuf;
        conn.inbuf.drain(..consumed);
        if conn.inbuf.is_empty() {
            conn.inbuf_since_ns = None;
        } else if conn.inbuf_since_ns.is_none() {
            conn.inbuf_since_ns = Some(now);
        }
    }

    fn handle_frame(
        &mut self,
        conn: &mut Conn,
        frame: RequestFrame<'_>,
        now: u64,
        load: LoadSignal,
        report: &mut PumpReport,
    ) {
        match frame.kind {
            ReqKind::Hello => {
                if frame.tenant >= self.cfg.tenants {
                    self.counters.protocol_errors += 1;
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code: REJ_PROTOCOL,
                        seq: frame.seq,
                        retry_after_ms: 0,
                        regrant: 0,
                    });
                    conn.closing = true;
                    return;
                }
                conn.tenant = Some(frame.tenant);
                conn.pending.push(PendingResponse {
                    kind: RespKind::Welcome,
                    code: 0,
                    seq: frame.seq,
                    retry_after_ms: 0,
                    regrant: 0,
                });
            }
            ReqKind::Bye => {
                conn.pending.push(PendingResponse {
                    kind: RespKind::Goodbye,
                    code: 0,
                    seq: frame.seq,
                    retry_after_ms: 0,
                    regrant: 0,
                });
                conn.closing = true;
            }
            ReqKind::Command => {
                self.counters.commands_received += 1;
                report.commands += 1;
                // The trace decision is made the moment the command frame
                // is seen, so every later verdict — including rejects —
                // accounts for the stamp.
                let sampled = self.trace_sampled();
                let reject = |conn: &mut Conn, code: u8, seq: u64| {
                    conn.pending.push(PendingResponse {
                        kind: RespKind::Rejected,
                        code,
                        seq,
                        retry_after_ms: 0,
                        regrant: 1,
                    });
                };
                let Some(tenant) = conn.tenant else {
                    // Commands before Hello are a protocol violation.
                    self.counters.protocol_errors += 1;
                    if sampled {
                        self.trace_drop();
                    }
                    reject(conn, REJ_PROTOCOL, frame.seq);
                    return;
                };
                if frame.conn != conn.id {
                    self.counters.protocol_errors += 1;
                    if let Some(s) = self.admission.shard(tenant) {
                        s.rejected.fetch_add(1, Relaxed);
                    }
                    report.rejected += 1;
                    if sampled {
                        self.trace_drop();
                    }
                    reject(conn, REJ_PROTOCOL, frame.seq);
                    return;
                }
                let mut body = frame.payload;
                let cmd = match self.payload_pool.try_decode(&mut body) {
                    Ok(cmd) if body.is_empty() => cmd,
                    _ => {
                        if let Some(s) = self.admission.shard(tenant) {
                            s.rejected.fetch_add(1, Relaxed);
                        }
                        report.rejected += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        reject(conn, REJ_DECODE, frame.seq);
                        return;
                    }
                };
                // Span: network-queue wait, from the arrival of the
                // oldest unparsed byte to now (admission clock domain).
                let net_ns = now.saturating_sub(conn.inbuf_since_ns.unwrap_or(now));
                let ops = cmd.payload.op_count().max(1).min(u32::MAX as u64) as u32;
                // Span: the admission verdict itself, in host wall time
                // (the virtual clock does not advance inside a pump) —
                // clamped to ≥ 1 ns so a traced verdict is never
                // indistinguishable from "not measured".
                let admit_t0 = eris_obs::now_ns();
                let verdict = self.admission.admit(tenant, ops, now, load);
                let admit_ns = eris_obs::now_ns().saturating_sub(admit_t0).max(1);
                let stamp = if sampled {
                    Some(TraceStamp {
                        submit_ns: eris_obs::now_ns(),
                        hops: 0,
                        tenant,
                        conn: conn.id,
                        seq: frame.seq,
                        net_ns: net_ns.min(u32::MAX as u64) as u32,
                        admit_ns: admit_ns.min(u32::MAX as u64) as u32,
                    })
                } else {
                    None
                };
                match verdict {
                    Admit::Overloaded { retry_after_ms } => {
                        report.shed += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        conn.pending.push(PendingResponse {
                            kind: RespKind::Shed,
                            code: SHED_OVERLOAD,
                            seq: frame.seq,
                            retry_after_ms,
                            regrant: 1,
                        });
                    }
                    Admit::QuotaDenied { retry_after_ms } => {
                        report.quota_denied += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        conn.pending.push(PendingResponse {
                            kind: RespKind::QuotaDenied,
                            code: 0,
                            seq: frame.seq,
                            retry_after_ms,
                            regrant: 1,
                        });
                    }
                    Admit::UnknownTenant => {
                        // Unreachable through the normal handshake (Hello
                        // validated the id), but admission is total:
                        // answer like any other protocol violation.
                        self.counters.protocol_errors += 1;
                        report.rejected += 1;
                        if sampled {
                            self.trace_drop();
                        }
                        reject(conn, REJ_TENANT, frame.seq);
                    }
                    Admit::Granted => {
                        let submitted = match stamp {
                            Some(stamp) => self.engine.submit_traced(conn.via, &cmd, stamp),
                            None => self.engine.submit(conn.via, &cmd),
                        };
                        match submitted {
                            Ok(()) => {
                                report.accepted += 1;
                                let wait = now.saturating_sub(conn.inbuf_since_ns.unwrap_or(now));
                                self.net_wait[tenant as usize].record(wait);
                                conn.pending.push(PendingResponse {
                                    kind: RespKind::Accepted,
                                    code: 0,
                                    seq: frame.seq,
                                    retry_after_ms: 0,
                                    regrant: 1,
                                });
                            }
                            Err(_) => {
                                // Admitted but unroutable: settle as a typed
                                // reject and undo the `accepted` bump so the
                                // ledger stays `accepted == routed`.  Routing
                                // errors charge nothing to the trace ledger
                                // themselves, so the dropped stamp is
                                // accounted here.
                                self.admission.unaccept(tenant);
                                report.rejected += 1;
                                if sampled {
                                    self.trace_drop();
                                }
                                reject(conn, REJ_ROUTING, frame.seq);
                            }
                        }
                    }
                }
                self.payload_pool.recycle(cmd);
            }
        }
    }

    fn settle_and_flush(&mut self, conn: &mut Conn) {
        for p in conn.pending.drain(..) {
            let credits = match p.kind {
                RespKind::Welcome => conn.credits.limit(),
                _ if p.regrant > 0 => conn.credits.regrant(p.regrant),
                _ => 0,
            };
            ResponseFrame {
                kind: p.kind,
                code: p.code,
                conn: conn.id,
                seq: p.seq,
                credits,
                retry_after_ms: p.retry_after_ms,
            }
            .encode(&mut conn.outbuf);
            self.counters.responses_sent += 1;
        }
        if !conn.outbuf.is_empty() {
            match conn.transport.try_write(&conn.outbuf) {
                Ok(n) => {
                    conn.outbuf.drain(..n);
                    self.counters.bytes_written += n as u64;
                }
                Err(_) => conn.closing = true,
            }
        }
    }

    /// Pump until a full cycle moves no frames and the engine reports
    /// nothing in flight (or `max_pumps` elapses).  Returns the number
    /// of pumps run.
    pub fn pump_until_quiet(&mut self, max_pumps: usize) -> usize {
        for i in 0..max_pumps {
            let r = self.pump();
            if r.frames == 0 && self.engine.in_flight_commands() == 0 {
                return i + 1;
            }
        }
        max_pumps
    }

    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            tenants: self.admission.counts(),
            counters: self.counters,
            net_wait: self.net_wait.clone(),
            open_connections: self.open_connections(),
            slo_metrics: self.slo.to_metrics(self.now_ns()),
        }
    }

    /// The combined serving + engine conservation ledger.
    pub fn ledger(&self) -> ServingLedger {
        let snap = self.snapshot();
        let engine_tel = self.engine.telemetry();
        let settled = snap.accepted_total()
            + snap.shed_total()
            + snap.quota_denied_total()
            + snap.rejected_total();
        ServingLedger {
            accepted: snap.accepted_total(),
            engine_routed: engine_tel.totals.commands_routed,
            engine_conservation_ok: engine_tel.conservation_holds(),
            shed_after_accept: self.counters.shed_after_accept,
            all_commands_settled: settled == self.counters.commands_received,
        }
    }

    /// Graceful stop: answer every connection with `Goodbye`, flush,
    /// then [`Engine::drain_and_quiesce`] — commands already admitted
    /// execute to completion; nothing new is read.  The returned ledger
    /// is the mid-traffic-shutdown conservation proof.
    pub fn shutdown(mut self) -> ShutdownOutcome {
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            conn.pending.push(PendingResponse {
                kind: RespKind::Goodbye,
                code: 0,
                seq: 0,
                retry_after_ms: 0,
                regrant: 0,
            });
            self.settle_and_flush(&mut conn);
            conn.transport.close();
            self.counters.connections_closed += 1;
        }
        let quiesce = self.engine.drain_and_quiesce();
        let ledger = self.ledger();
        let snapshot = self.snapshot();
        ShutdownOutcome {
            quiesce,
            snapshot,
            ledger,
            engine: self.engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::REQ_HEADER_BYTES;
    use crate::transport::loopback_pair;
    use eris_core::prelude::*;
    use eris_numa::machines::custom_machine;

    fn small_engine() -> (Engine, DataObjectId) {
        let cfg = EngineConfig {
            balancer: BalancerConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::new(custom_machine("t", 1, 4, 20.0, 100.0, 10.0, 60.0), cfg);
        let obj = engine.create_index("kv", 1 << 16);
        engine.bulk_load_index(obj, (0..1000u64).map(|k| (k * 64, k)));
        (engine, obj)
    }

    #[test]
    fn hello_then_command_is_accepted() {
        let (engine, obj) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));

        let mut bytes = Vec::new();
        RequestFrame {
            kind: ReqKind::Hello,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: &[],
        }
        .encode(&mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();

        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let welcome = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(welcome.kind, RespKind::Welcome);
        assert_eq!(welcome.conn, id);
        assert_eq!(welcome.credits, server.config().admission.credit_limit);

        let cmd = DataCommand {
            object: obj,
            ticket: 1,
            payload: Payload::Lookup { keys: vec![64] },
        };
        let mut bytes = Vec::new();
        RequestFrame::encode_command(0, id, 1, &cmd, &mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();

        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let acc = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(acc.kind, RespKind::Accepted);
        assert_eq!(acc.seq, 1);
        assert_eq!(acc.credits, 1);
        // Conservation is a drained-state claim: in-flight sub-commands
        // sit in the double buffers until later epochs execute them.
        server.pump_until_quiet(16);
        let l = server.ledger();
        assert!(l.holds(), "{l:?}");
    }

    #[test]
    fn sampled_command_resolves_to_a_full_path_trace() {
        let (engine, obj) = small_engine();
        let cfg = ServerConfig {
            trace_sample_every: 1, // trace everything
            ..Default::default()
        };
        let mut server = EngineServer::new(engine, cfg);
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));

        let mut bytes = Vec::new();
        RequestFrame {
            kind: ReqKind::Hello,
            tenant: 0,
            conn: 0,
            seq: 0,
            payload: &[],
        }
        .encode(&mut bytes);
        for seq in 1..=8u64 {
            let cmd = DataCommand {
                object: obj,
                ticket: seq,
                payload: Payload::Lookup {
                    keys: vec![(seq % 1000) * 64],
                },
            };
            RequestFrame::encode_command(0, id, seq, &cmd, &mut bytes);
        }
        client_side.try_write(&bytes).unwrap();
        server.pump_until_quiet(32);

        let tel = server.engine().telemetry();
        assert_eq!(
            tel.trace.stamped,
            tel.trace.traced + tel.trace.dropped,
            "trace ledger balanced: {:?}",
            tel.trace
        );
        assert!(
            tel.trace.traced >= 1,
            "at least one command executed traced"
        );
        assert!(
            tel.tenant_latency
                .iter()
                .any(|(t, h)| *t == 0 && h.count > 0),
            "tenant 0 has a full-path latency histogram"
        );
        let ex = tel
            .exemplars
            .iter()
            .flatten()
            .find(|e| e.tenant == 0)
            .expect("a bucket exemplar for tenant 0");
        assert!(ex.admit_ns > 0, "admission span measured: {ex:?}");
        assert!(ex.trace_id != 0, "exemplar carries a trace id");
        assert!(
            ex.total_ns >= ex.net_ns + ex.admit_ns,
            "span breakdown is consistent: {ex:?}"
        );
    }

    /// A 2-AEU engine with small buffers: cheap enough to build once per
    /// byte boundary of a frame stream.
    fn tiny_engine() -> (Engine, DataObjectId) {
        let cfg = EngineConfig {
            routing: RoutingConfig {
                incoming_capacity: 1 << 14,
                ..Default::default()
            },
            balancer: BalancerConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Engine::new(custom_machine("t", 1, 2, 20.0, 100.0, 10.0, 60.0), cfg);
        let obj = engine.create_index("kv", 1 << 10);
        engine.bulk_load_index(obj, (0..16u64).map(|k| (k * 64, k)));
        (engine, obj)
    }

    fn frame_bytes(kind: ReqKind, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        RequestFrame {
            kind,
            tenant: 0,
            conn: 0,
            seq,
            payload,
        }
        .encode(&mut out);
        out
    }

    fn lookup_frame(obj: DataObjectId, seq: u64, keys: Vec<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        let cmd = DataCommand {
            object: obj,
            ticket: seq,
            payload: Payload::Lookup { keys },
        };
        RequestFrame::encode_command(0, 0, seq, &cmd, &mut out);
        out
    }

    /// Serve one connection that delivers `reads` one per pump, then pump
    /// until quiet.  Returns the responses the client received and the
    /// bytes left in the connection's reassembly buffer (`None` once the
    /// connection was reaped).
    fn serve_reads(reads: &[&[u8]]) -> (Vec<ResponseFrame>, Option<Vec<u8>>) {
        let (engine, _) = tiny_engine();
        let cfg = ServerConfig {
            admission: AdmissionConfig {
                // A two-credit window withholds frames whenever a read
                // carries more than two commands.
                credit_limit: 2,
                // 10 ops and no refill: the quota verdicts depend only
                // on the command order, never on how many pumps ran.
                quota_capacity_ops: 10,
                quota_refill_ops_per_sec: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut server = EngineServer::new(engine, cfg);
        let (server_side, mut client_side) = loopback_pair();
        server.attach(Box::new(server_side));
        for read in reads {
            client_side.try_write(read).unwrap();
            server.pump();
        }
        server.pump_until_quiet(64);
        let mut bytes = Vec::new();
        client_side.try_read(&mut bytes).unwrap();
        let mut cur = bytes.as_slice();
        let mut responses = Vec::new();
        while let Some(r) = ResponseFrame::try_decode(&mut cur).unwrap() {
            responses.push(r);
        }
        assert!(cur.is_empty(), "only whole responses were written");
        let left = server.conns[0].as_ref().map(|c| c.inbuf.clone());
        (responses, left)
    }

    /// Every two-read split of `frames`' concatenation settles exactly
    /// like one frame per read, and leaves the same bytes buffered.
    fn assert_split_invariant(frames: &[Vec<u8>]) -> (Vec<ResponseFrame>, Option<Vec<u8>>) {
        let per_frame: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let reference = serve_reads(&per_frame);
        let stream = frames.concat();
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            let got = serve_reads(&[head, tail]);
            assert_eq!(got, reference, "stream split at byte {cut}");
        }
        reference
    }

    #[test]
    fn intake_is_independent_of_read_boundaries() {
        let (_, obj) = tiny_engine();
        let mut frames = vec![frame_bytes(ReqKind::Hello, 0, &[])];
        // Three 3-key lookups: more than the two-credit window, so every
        // read that carries them withholds a frame and later ones wait.
        for seq in 1..=3 {
            frames.push(lookup_frame(obj, seq, vec![64, 128, 192]));
        }
        // A payload that is not a command: rejected, credit returned.
        frames.push(frame_bytes(ReqKind::Command, 4, &[0xFF; 9]));
        // One op of quota is left: 3 keys are denied, 1 key passes.
        frames.push(lookup_frame(obj, 5, vec![64, 128, 192]));
        frames.push(lookup_frame(obj, 6, vec![256]));
        // A partial trailing frame stays buffered.
        let partial = lookup_frame(obj, 7, vec![320]);
        frames.push(partial[..REQ_HEADER_BYTES + 3].to_vec());

        let (responses, left) = assert_split_invariant(&frames);
        let verdicts: Vec<(RespKind, u8, u64)> =
            responses.iter().map(|r| (r.kind, r.code, r.seq)).collect();
        assert_eq!(
            verdicts,
            vec![
                (RespKind::Welcome, 0, 0),
                (RespKind::Accepted, 0, 1),
                (RespKind::Accepted, 0, 2),
                (RespKind::Accepted, 0, 3),
                (RespKind::Rejected, REJ_DECODE, 4),
                (RespKind::QuotaDenied, 0, 5),
                (RespKind::Accepted, 0, 6),
            ]
        );
        assert_eq!(left.as_deref(), Some(&partial[..REQ_HEADER_BYTES + 3]));
    }

    #[test]
    fn bad_magic_mid_buffer_rejects_and_closes_at_any_read_boundary() {
        let (_, obj) = tiny_engine();
        let mut garbage = lookup_frame(obj, 3, vec![64]);
        garbage[0] = 0x00;
        let frames = vec![
            frame_bytes(ReqKind::Hello, 0, &[]),
            lookup_frame(obj, 1, vec![64]),
            lookup_frame(obj, 2, vec![128]),
            garbage,
            lookup_frame(obj, 4, vec![192]),
        ];
        let (responses, left) = assert_split_invariant(&frames);
        let verdicts: Vec<(RespKind, u8, u64)> =
            responses.iter().map(|r| (r.kind, r.code, r.seq)).collect();
        assert_eq!(
            verdicts,
            vec![
                (RespKind::Welcome, 0, 0),
                (RespKind::Accepted, 0, 1),
                (RespKind::Accepted, 0, 2),
                (RespKind::Rejected, REJ_PROTOCOL, 0),
            ]
        );
        assert_eq!(left, None, "the connection was reaped");
    }

    #[test]
    fn garbage_bytes_get_a_typed_reject_and_a_close() {
        let (engine, _) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        server.attach(Box::new(server_side));
        client_side.try_write(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        server.pump();
        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let r = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(r.kind, RespKind::Rejected);
        assert_eq!(r.code, REJ_PROTOCOL);
        assert_eq!(server.snapshot().counters.protocol_errors, 1);
        assert_eq!(server.open_connections(), 0, "connection reaped");
    }

    #[test]
    fn command_before_hello_is_rejected_not_dropped() {
        let (engine, obj) = small_engine();
        let mut server = EngineServer::new(engine, ServerConfig::default());
        let (server_side, mut client_side) = loopback_pair();
        let id = server.attach(Box::new(server_side));
        let cmd = DataCommand {
            object: obj,
            ticket: 1,
            payload: Payload::Lookup { keys: vec![0] },
        };
        let mut bytes = Vec::new();
        RequestFrame::encode_command(0, id, 9, &cmd, &mut bytes);
        client_side.try_write(&bytes).unwrap();
        server.pump();
        let mut resp = Vec::new();
        client_side.try_read(&mut resp).unwrap();
        let r = ResponseFrame::try_decode(&mut resp.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(
            (r.kind, r.code, r.seq),
            (RespKind::Rejected, REJ_PROTOCOL, 9)
        );
        // The credit consumed by the read was returned with the reject.
        assert_eq!(r.credits, 1);
    }
}
