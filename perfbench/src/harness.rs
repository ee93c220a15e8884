//! One benchmark run: set-up, the closed loop, the completion ledger,
//! answer checks, and the metrics of the measured window.
//!
//! Load shape: one thread drives two loopback connections in a closed
//! loop.  Each connection keeps `Spec::window` commands outstanding; a
//! command stops being outstanding when it is *complete*:
//!
//! * a lookup or scan when its last result is in `engine.results()`;
//! * an upsert when every pair has been applied and group-committed, as
//!   the pass-through [`LedgerSink`] observes.
//!
//! Every cycle is: client (read replies, send new commands) → one
//! `EngineServer::pump` (read + admit, one epoch, settle + flush) →
//! verify (drain results and commits, check answers, retire commands).

use crate::trace::{self, Layer, LayerTotals, LedgerSink, TimedTransport, NUM_LAYERS};
use crate::workload::{self, bulk_value, Generator, Kind, Op, ScanOracle, Spec};
use eris_column::scan::AggregateResult;
use eris_core::prelude::*;
use eris_core::telemetry::BalancerCounters;
use eris_durability::wal::{JournalSink, Wal};
use eris_durability::FailPoints;
use eris_obs::{Phase, NUM_PHASES};
use eris_server::{
    loopback_pair, AdmissionConfig, Client, ClockSource, EngineServer, PipeTransport, ServerConfig,
    ServingLedger,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Loopback connections driving the engine.
const CONNECTIONS: usize = 2;

/// Length of one time slice of the window; end-to-end figures are
/// medians over slices.
const SLICE_NS: u64 = 1_000_000_000;

/// Upper bound on pumps spent draining outstanding commands at the end.
const DRAIN_PUMPS: u64 = 5_000;

/// A seeded fault in the benchmark's own checking, for `--self-check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// One expected answer is corrupted: trips the answer check.
    CorruptAnswer,
    /// One command is entered in the ledger but never sent: trips the
    /// completeness check.
    WithholdCommand,
    /// The serving ledger reads one more accepted command than the
    /// engine routed: trips the ledger check.
    LedgerOffByOne,
}

pub struct RunCfg {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Set-ups performed, half before the window (the last of those is
    /// measured) and half after it; set-up time is their median.
    pub setups: usize,
    pub fault: Option<Fault>,
    /// Directory for journals and span files.
    pub out_dir: PathBuf,
}

/// The three pass/fail checks of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Every answer matched its oracle.
    pub answers: bool,
    /// Every command was accepted and completed.
    pub complete: bool,
    /// Quiesce reported conservation and trace balance, and the serving
    /// ledger holds up to forwarded re-routes (see [`audit`]).
    pub ledger: bool,
}

impl Checks {
    pub fn all(&self) -> bool {
        self.answers && self.complete && self.ledger
    }
}

/// A metric as measured, with its unit and clock domain.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: &'static str,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub missing: u64,
    pub not_accepted: u64,
    pub checks: Checks,
    /// The serving and engine ledgers at quiesce, for the report.
    pub ledger_note: String,
    pub read_samples: usize,
    pub write_samples: usize,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (host-clock ones only meaningful when traced).
    pub layers: Vec<Metric>,
    /// Names of the count / virtual-clock metrics, which must repeat
    /// exactly for a seed.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Throughput of each time slice of the window, in order.
    pub slice_cmds_per_s: Vec<f64>,
    pub spans_written: Option<(PathBuf, usize)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Throughput and latency of one time slice of the window.  The
/// end-to-end figures are medians over slices, so a burst of contention
/// from other tenants of the machine moves one slice, not the result.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// Spans were recorded during this slice.
    traced: bool,
    cmds_per_s: f64,
    /// p50 and p99 in µs; `None` when the slice completed no such command.
    read: Option<(f64, f64)>,
    write: Option<(f64, f64)>,
}

/// Nearest-rank percentile of sorted nanosecond samples, in µs.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Tickets are the benchmark's own sequential ids, so a multiplicative
/// hash is enough for the outstanding-command map.
#[derive(Default)]
struct TicketHasher(u64);

impl Hasher for TicketHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 tickets are hashed")
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The live system of one run.
struct Stage {
    server: EngineServer,
    clients: Vec<Client<PipeTransport>>,
    sink: Arc<LedgerSink>,
    /// The object point commands and scans target.
    target: DataObjectId,
    /// scan-olap's side index, which receives its upserts.
    side: Option<DataObjectId>,
    wal_dir: PathBuf,
}

/// Engine build + bulk load + WAL open + handshake.
fn setup(cfg: &RunCfg, column: Option<&[u64]>, n: usize) -> std::io::Result<Stage> {
    let spec = &cfg.spec;
    let topo = eris_numa::machines::custom_machine("perfbench", 2, 4, 20.0, 100.0, 10.0, 60.0);
    let mut engine = Engine::new(
        topo,
        EngineConfig {
            collect_results: true,
            balancer: BalancerConfig {
                enabled: spec.balance,
                algorithm: BalanceAlgorithm::MovingAverage(8),
                period_s: workload::BALANCE_PERIOD_S,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let bulk = |k: u64| (k, bulk_value(k));
    let (target, side) = match spec.kind {
        Kind::PointZipf => {
            let idx = engine.create_index("kv", spec.size);
            engine.bulk_load_index(idx, (0..spec.size).map(bulk));
            (idx, None)
        }
        Kind::IngestUniform => {
            let idx = engine.create_hash_index("kv", spec.size);
            engine.bulk_load_index(idx, (0..spec.size).map(bulk));
            (idx, None)
        }
        Kind::ScanOlap => {
            let col = engine.create_column("facts");
            engine.bulk_load_column(col, column.expect("scan-olap has a column").iter().copied());
            let side = engine.create_hash_index("side", spec.side_keys);
            engine.bulk_load_index(side, (0..spec.side_keys).map(bulk));
            (col, Some(side))
        }
    };

    // The journal is attached after the bulk load: the timed window
    // journals only routed upserts and balancing transfers.
    let wal_dir = cfg.out_dir.join(format!("wal-{}-{n}", std::process::id()));
    if wal_dir.exists() {
        std::fs::remove_dir_all(&wal_dir)?;
    }
    std::fs::create_dir_all(&wal_dir)?;
    let wals = (0..engine.num_aeus())
        .map(|i| Wal::open(&wal_dir.join(format!("aeu-{i}.log"))))
        .collect::<std::io::Result<Vec<_>>>()?;
    let journal = Arc::new(JournalSink::new(wals, Arc::new(FailPoints::new())));
    let shards: Vec<_> = engine
        .aeu_ids()
        .iter()
        .map(|&a| engine.telemetry_shard(a).clone())
        .collect();
    journal.set_shards(shards.clone());
    let sink = Arc::new(LedgerSink::new(journal, shards));
    engine.set_redo_sink(Some(sink.clone()));

    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            tenants: 1,
            admission: AdmissionConfig {
                credit_limit: spec.window as u32,
                // Quotas are not under test: a bucket no run can drain.
                quota_capacity_ops: 4_000_000,
                quota_refill_ops_per_sec: 4_000_000_000,
                ..Default::default()
            },
            clock: ClockSource::Virtual,
            ..Default::default()
        },
    );
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let (server_side, client_side) = loopback_pair();
        server.attach(Box::new(TimedTransport(server_side)));
        clients.push(Client::connect(client_side, 0));
    }
    for _ in 0..16 {
        clients.iter_mut().for_each(|c| {
            c.poll();
        });
        server.pump();
        clients.iter_mut().for_each(|c| {
            c.poll();
        });
        if clients.iter().all(|c| c.is_welcomed()) {
            break;
        }
    }
    if !clients.iter().all(|c| c.is_welcomed()) {
        return Err(std::io::Error::other("handshake did not complete"));
    }
    Ok(Stage {
        server,
        clients,
        sink,
        target,
        side,
        wal_dir,
    })
}

/// Where an outstanding command stands.
struct Pending {
    conn: usize,
    kind: OpKind,
    /// Keys of a point command (looked up or upserted).
    keys: Vec<u64>,
    /// Bit `i`: key `i` answered (lookup) or durable (upsert).
    done: u64,
    scan: Option<ScanState>,
    sent_ns: u64,
    sent_pump: u64,
    /// Some answer was wrong.
    bad: bool,
}

/// A scan's predicate range and aggregate, and the partial answers so far.
#[derive(Debug, Clone, Copy)]
struct ScanState {
    lo: u64,
    hi: u64,
    agg: Aggregate,
    acc: Option<AggregateResult>,
    parts: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

/// Completion tallies (monotonic; windows take differences).
#[derive(Debug, Clone, Copy, Default)]
struct Done {
    cmds: u64,
    upsert_pairs: u64,
    lag_epochs: u64,
}

/// Everything a window boundary needs to difference.
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    at_ns: u64,
    pumps: u64,
    pump_ns: u64,
    done: Done,
    virt_ns: f64,
    counters: CounterSnapshot,
    phases: [u64; NUM_PHASES],
    link_bytes: u64,
    wire_bytes: u64,
    balancer: BalancerCounters,
}

/// Host-clock totals over the slices the per-layer metrics cover (the
/// traced slices of a traced run, every slice otherwise).
#[derive(Debug, Clone, Copy, Default)]
struct HostAcc {
    wall_ns: u64,
    pump_ns: u64,
    cmds: u64,
    phases: [u64; NUM_PHASES],
    lookups: u64,
    upserts: u64,
    scan_rows: u64,
    journal_records: u64,
}

impl HostAcc {
    fn add(&mut self, a: &Snap, b: &Snap) {
        self.wall_ns += b.at_ns - a.at_ns;
        self.pump_ns += b.pump_ns - a.pump_ns;
        self.cmds += b.done.cmds - a.done.cmds;
        for (acc, (x, y)) in self.phases.iter_mut().zip(a.phases.iter().zip(&b.phases)) {
            *acc += y - x;
        }
        let c = b.counters.since(&a.counters);
        self.lookups += c.lookups;
        self.upserts += c.upserts;
        self.scan_rows += c.scan_rows;
        self.journal_records += c.journal_records;
    }
}

/// What the measured window yields for the metrics.
struct Window {
    /// Snapshots at the window's start and after its deterministic prefix.
    start: Snap,
    det: Snap,
    host: HostAcc,
    totals: [LayerTotals; NUM_LAYERS],
}

/// How far off the ledgers are at quiesce, and a one-line account of
/// them; 0 exactly when every ledger holds.
///
/// `ServingLedger::holds()` asks for `accepted == engine_routed`, but
/// `commands_routed` also counts each command an AEU re-routes with
/// `forward_stray` after a balancing transfer moved its keys, and the
/// engine does not export how many re-routes it made.  Every re-route
/// follows at least one forwarded op (`forwarded`), so the check is
/// `accepted <= engine_routed <= accepted + forwarded`: exact equality
/// whenever nothing was forwarded, and a lost or doubly routed command
/// beyond the forwards still breaks it.  The other identities of
/// `holds()` and of the quiesce report are checked as they are.
fn audit(q: &QuiesceReport, ledger: &ServingLedger, forwarded: u64) -> (u64, String) {
    let identities = [
        q.conservation_ok,
        q.trace_ok,
        q.pending_bytes == 0,
        ledger.engine_conservation_ok,
        ledger.all_commands_settled,
    ];
    let (accepted, routed) = (ledger.accepted, ledger.engine_routed);
    let unrouted = accepted.saturating_sub(routed);
    let overrouted = routed.saturating_sub(accepted + forwarded);
    let breaks = unrouted
        + overrouted
        + ledger.shed_after_accept
        + identities.iter().filter(|ok| !**ok).count() as u64;
    let note = format!(
        "accepted={accepted} engine_routed={routed} forwarded_ops={forwarded} holds()={} \
         conservation_ok={} trace_ok={} pending_bytes={} all_settled={}",
        ledger.holds(),
        q.conservation_ok,
        q.trace_ok,
        q.pending_bytes,
        ledger.all_commands_settled
    );
    (breaks, note)
}

/// The closed-loop driver and its completion ledger.
struct Driver<'a> {
    /// Commands each connection keeps outstanding.
    window: usize,
    gen: Generator,
    oracle: Option<&'a ScanOracle>,
    origin: Instant,
    pending: HashMap<u64, Pending, BuildHasherDefault<TicketHasher>>,
    outstanding: [usize; CONNECTIONS],
    next_ticket: u64,
    /// Per key of the point index: the latest upsert ticket issued for it.
    last_upsert: Vec<u64>,
    sending: bool,
    pumps: u64,
    pump_ns: u64,
    done: Done,
    wrong: u64,
    not_accepted: u64,
    /// Record latencies of completions (inside the measured window).
    recording: bool,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    slices: Vec<Slice>,
    read_samples: usize,
    write_samples: usize,
    /// The seeded fault, armed at the start of the window and disarmed
    /// when it fires.
    armed: Option<Fault>,
    committed: Vec<(u64, u64)>,
    aeus: usize,
}

impl<'a> Driver<'a> {
    fn new(spec: &Spec, gen: Generator, oracle: Option<&'a ScanOracle>, aeus: usize) -> Self {
        Driver {
            window: spec.window,
            gen,
            oracle,
            origin: Instant::now(),
            pending: HashMap::default(),
            outstanding: [0; CONNECTIONS],
            next_ticket: 1,
            last_upsert: if spec.kind == Kind::ScanOlap {
                Vec::new()
            } else {
                vec![0; spec.size as usize]
            },
            sending: true,
            pumps: 0,
            pump_ns: 0,
            done: Done::default(),
            wrong: 0,
            not_accepted: 0,
            recording: false,
            read_ns: Vec::with_capacity(1 << 20),
            write_ns: Vec::with_capacity(1 << 20),
            slices: Vec::new(),
            read_samples: 0,
            write_samples: 0,
            armed: None,
            committed: Vec::new(),
            aeus,
        }
    }

    /// The measured window: `--seconds` of one-second slices, and at
    /// least the deterministic prefix.  A traced run alternates untraced
    /// and traced slices, so tracing overhead is measured under the same
    /// machine conditions.
    fn measure(&mut self, st: &mut Stage, cfg: &RunCfg) -> Window {
        self.recording = true;
        if cfg.traced {
            trace::start();
            trace::pause();
        }
        let start = self.snap(st);
        let mut det = None;
        let mut host = HostAcc::default();
        let deadline = start.at_ns + (cfg.seconds * 1e9) as u64;
        let mut from = start;
        let mut slice_traced = false;
        loop {
            self.cycle(st);
            if self.pumps - start.pumps == cfg.spec.det_pumps {
                det = Some(self.snap(st));
            }
            let now = self.now();
            let last = det.is_some() && now >= deadline;
            if last || now >= from.at_ns + SLICE_NS {
                if slice_traced {
                    trace::pause();
                }
                let to = self.snap(st);
                self.close_slice(&from, &to, slice_traced);
                if slice_traced || !cfg.traced {
                    host.add(&from, &to);
                }
                from = to;
                slice_traced = cfg.traced && !slice_traced;
                if slice_traced {
                    trace::resume();
                }
            }
            if last {
                break;
            }
        }
        self.recording = false;
        Window {
            start,
            det: det.expect("the window covers the deterministic prefix"),
            host,
            totals: if cfg.traced {
                trace::stop()
            } else {
                [LayerTotals::default(); NUM_LAYERS]
            },
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Fire the armed fault if it is `f`.
    fn fire(&mut self, f: Fault) -> bool {
        let hit = self.armed == Some(f);
        if hit {
            self.armed = None;
        }
        hit
    }

    /// One cycle: client → pump → verify.
    fn cycle(&mut self, st: &mut Stage) {
        {
            let _s = trace::span(Layer::Client);
            for c in 0..CONNECTIONS {
                st.clients[c].poll();
                if self.sending {
                    self.fill(st, c);
                }
                st.clients[c].poll();
            }
        }
        st.sink.begin_epoch();
        let t0 = self.now();
        {
            let _s = trace::span(Layer::Pump);
            st.server.pump();
        }
        let t1 = self.now();
        self.pumps += 1;
        self.pump_ns += t1 - t0;
        let _s = trace::span(Layer::Verify);
        self.drain(st.server.engine().results(), &st.sink, t1);
    }

    /// Top the connection's window up with new commands.
    fn fill(&mut self, st: &mut Stage, c: usize) {
        let sent_ns = self.now();
        while self.outstanding[c] < self.window {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let op = self.gen.command(ticket);
            let (payload, kind, keys, scan, object) = match op {
                Op::Lookup(keys) => (
                    Payload::Lookup { keys: keys.clone() },
                    OpKind::Read,
                    keys,
                    None,
                    st.target,
                ),
                Op::Upsert(keys) => {
                    if st.side.is_none() {
                        for &k in &keys {
                            self.last_upsert[k as usize] = ticket;
                        }
                    }
                    (
                        Payload::Upsert {
                            pairs: keys.iter().map(|&k| (k, ticket)).collect(),
                        },
                        OpKind::Write,
                        keys,
                        None,
                        st.side.unwrap_or(st.target),
                    )
                }
                Op::Scan { lo, hi, agg } => (
                    Payload::Scan {
                        pred: Predicate::Range { lo, hi },
                        agg,
                        snapshot: u64::MAX,
                    },
                    OpKind::Read,
                    Vec::new(),
                    Some(ScanState {
                        lo,
                        hi,
                        agg,
                        acc: None,
                        parts: 0,
                    }),
                    st.target,
                ),
            };
            let cmd = DataCommand {
                object,
                ticket,
                payload,
            };
            if !self.fire(Fault::WithholdCommand) && !st.clients[c].try_send(&cmd) {
                // No credit although the window has room: the command
                // is never sent, so it fails here.
                self.not_accepted += 1;
                return;
            }
            self.pending.insert(
                ticket,
                Pending {
                    conn: c,
                    kind,
                    keys,
                    done: 0,
                    scan,
                    sent_ns,
                    sent_pump: self.pumps,
                    bad: false,
                },
            );
            self.outstanding[c] += 1;
        }
    }

    /// Is `value` a legitimate answer for a lookup of `key`?  Either the
    /// bulk-loaded value or the ticket of an upsert of `key` that was
    /// issued before the answer arrived.
    fn lookup_ok(&mut self, key: u64, value: Option<u64>) -> bool {
        let corrupt = self.fire(Fault::CorruptAnswer);
        let Some(v) = value else {
            return false;
        };
        let expected_bulk = bulk_value(key) ^ corrupt as u64;
        if v == expected_bulk {
            return true;
        }
        if corrupt || v & trace::BULK_TAG != 0 || v == 0 || v >= self.next_ticket {
            return false;
        }
        if self.last_upsert.get(key as usize) == Some(&v) {
            return true;
        }
        matches!(self.gen.command(v), Op::Upsert(keys) if keys.contains(&key))
    }

    /// Does a complete scan's answer match the oracle?
    fn scan_ok(&mut self, scan: ScanState) -> bool {
        let corrupt = self.fire(Fault::CorruptAnswer);
        let want = self
            .oracle
            .expect("scan-olap has an oracle")
            .answer(scan.lo, scan.hi, scan.agg);
        let want = match (corrupt, want) {
            (false, w) => w,
            (true, AggregateResult::Count(n)) => AggregateResult::Count(n + 1),
            (true, AggregateResult::Sum(s)) => AggregateResult::Sum(s.wrapping_add(1)),
            (true, AggregateResult::MinMax(m)) => {
                AggregateResult::MinMax(Some(m.map_or((0, 0), |(a, b)| (a, b.wrapping_add(1)))))
            }
        };
        scan.acc == Some(want)
    }

    /// Drain results and durable pairs; retire completed commands.
    fn drain(&mut self, results: &ResultCollector, sink: &LedgerSink, now: u64) {
        for (ticket, key, value) in results.take_lookup_values() {
            let ok = self.lookup_ok(key, value);
            let Some(p) = self.pending.get_mut(&ticket) else {
                self.wrong += 1; // an answer for no outstanding command
                continue;
            };
            match p.keys.iter().position(|&k| k == key) {
                Some(i) if p.kind == OpKind::Read && p.done & (1 << i) == 0 => {
                    p.done |= 1 << i;
                    p.bad |= !ok;
                }
                _ => p.bad = true,
            }
            self.maybe_retire(ticket, now);
        }
        for (ticket, _from, part) in results.take_scan_results() {
            let Some(p) = self.pending.get_mut(&ticket) else {
                self.wrong += 1;
                continue;
            };
            let Some(scan) = p.scan.as_mut() else {
                p.bad = true;
                continue;
            };
            let merged = workload::combine(scan.acc, part);
            p.bad |= merged.is_none();
            scan.acc = merged;
            scan.parts += 1;
            let scan = *scan;
            if scan.parts == self.aeus && !self.scan_ok(scan) {
                self.pending.get_mut(&ticket).expect("still pending").bad = true;
            }
            self.maybe_retire(ticket, now);
        }
        sink.drain_committed(&mut self.committed);
        let mut committed = std::mem::take(&mut self.committed);
        for &(ticket, key) in &committed {
            // Pairs of already-retired upserts re-journaled by a
            // balancing transfer are expected and ignored.
            let Some(p) = self.pending.get_mut(&ticket) else {
                continue;
            };
            match p.keys.iter().position(|&k| k == key) {
                Some(i) if p.kind == OpKind::Write => p.done |= 1 << i,
                _ => p.bad = true,
            }
            self.maybe_retire(ticket, now);
        }
        committed.clear();
        self.committed = committed;
    }

    fn maybe_retire(&mut self, ticket: u64, now: u64) {
        let Some(p) = self.pending.get(&ticket) else {
            return;
        };
        let complete = match p.scan {
            Some(scan) => scan.parts == self.aeus,
            None => p.done.count_ones() as usize == p.keys.len(),
        };
        if !complete {
            return;
        }
        let p = self.pending.remove(&ticket).expect("checked above");
        self.outstanding[p.conn] -= 1;
        self.wrong += p.bad as u64;
        self.done.cmds += 1;
        self.done.lag_epochs += self.pumps - p.sent_pump;
        if p.kind == OpKind::Write {
            self.done.upsert_pairs += p.keys.len() as u64;
        }
        if self.recording {
            let lat = now.saturating_sub(p.sent_ns);
            match p.kind {
                OpKind::Read => self.read_ns.push(lat),
                OpKind::Write => self.write_ns.push(lat),
            }
        }
    }

    /// Close the slice that ran from snapshot `from` to `to`.
    fn close_slice(&mut self, from: &Snap, to: &Snap, traced: bool) {
        let wall_s = to.at_ns.saturating_sub(from.at_ns) as f64 / 1e9;
        let tail = |v: &mut Vec<u64>| {
            v.sort_unstable();
            let p = (!v.is_empty()).then(|| (percentile_us(v, 0.50), percentile_us(v, 0.99)));
            let n = v.len();
            v.clear();
            (p, n)
        };
        let (read, nr) = tail(&mut self.read_ns);
        let (write, nw) = tail(&mut self.write_ns);
        self.read_samples += nr;
        self.write_samples += nw;
        self.slices.push(Slice {
            traced,
            cmds_per_s: ratio((to.done.cmds - from.done.cmds) as f64, wall_s),
            read,
            write,
        });
    }

    fn snap(&self, st: &Stage) -> Snap {
        let engine = st.server.engine();
        let tel = engine.telemetry();
        let mut phases = [0u64; NUM_PHASES];
        for p in &tel.phases {
            for (acc, ns) in phases.iter_mut().zip(p.ns) {
                *acc += ns;
            }
        }
        let wire = st.server.snapshot().counters;
        Snap {
            at_ns: self.now(),
            pumps: self.pumps,
            pump_ns: self.pump_ns,
            done: self.done,
            virt_ns: engine.clock().now_ns(),
            counters: tel.totals,
            phases,
            link_bytes: engine.counters().total_link_bytes(),
            wire_bytes: wire.bytes_read + wire.bytes_written,
            balancer: tel.balancer,
        }
    }
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload once.
pub fn run(cfg: &RunCfg) -> std::io::Result<RunResult> {
    let spec = &cfg.spec;
    let gen = Generator::new(spec, cfg.seed);
    let column = (spec.kind == Kind::ScanOlap).then(|| gen.column());
    let oracle = column.as_ref().map(|c| ScanOracle::new(c.clone()));
    std::fs::create_dir_all(&cfg.out_dir)?;

    // Half the set-ups run before the window (the last one is measured)
    // and the rest after it, so their median samples the host at both
    // ends of the run rather than at one moment.
    let before = cfg.setups - cfg.setups / 2;
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut stage = None;
    for n in 0..before.max(1) {
        if let Some(old) = stage.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        stage = Some(setup(cfg, column.as_deref(), n)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut st = stage.expect("at least one set-up");
    drop(column);

    let mut d = Driver::new(spec, gen, oracle.as_ref(), st.server.engine().num_aeus());
    for _ in 0..spec.warmup_pumps {
        d.cycle(&mut st);
    }
    // Faults fire inside the window, on the first opportunity.
    d.armed = cfg.fault;
    let w = d.measure(&mut st, cfg);

    // Drain: stop sending, let everything outstanding complete.
    d.sending = false;
    let mut drained = 0;
    while !d.pending.is_empty() && drained < DRAIN_PUMPS {
        d.cycle(&mut st);
        drained += 1;
    }
    let Stage {
        server,
        mut clients,
        sink,
        wal_dir,
        ..
    } = st;
    let outcome = server.shutdown();
    // Stragglers finished by the shutdown's own drain still count, and
    // the last replies are still to be read.
    d.drain(outcome.engine.results(), &sink, d.now());
    clients.iter_mut().for_each(|c| {
        c.poll();
    });
    let client_stats: Vec<_> = clients.iter().map(|c| c.stats()).collect();
    let mut ledger = outcome.ledger;
    if cfg.fault == Some(Fault::LedgerOffByOne) {
        ledger.accepted = ledger.engine_routed + 1;
    }
    let forwarded = outcome.engine.telemetry().totals.forwarded;
    let (ledger_breaks, ledger_note) = audit(&outcome.quiesce, &ledger, forwarded);

    let sent: u64 = client_stats.iter().map(|s| s.sent).sum();
    let accepted: u64 = client_stats.iter().map(|s| s.accepted).sum();
    let attempted = d.next_ticket - 1;
    let missing = d.pending.len() as u64;
    let not_accepted = d.not_accepted + (sent - accepted.min(sent));
    let checks = Checks {
        answers: d.wrong == 0,
        complete: missing == 0 && not_accepted == 0,
        ledger: ledger_breaks == 0,
    };
    let failed = (d.wrong + missing + not_accepted + ledger_breaks).min(attempted);

    let peak_rss = peak_rss_mb();
    let spans_written = if cfg.traced {
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", spec.name, cfg.seed));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let n = trace::write_spans(&mut f)?;
        std::io::Write::flush(&mut f)?;
        Some((path, n))
    } else {
        None
    };
    drop((outcome.engine, sink, clients));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let column = (spec.kind == Kind::ScanOlap).then(|| Generator::new(spec, cfg.seed).column());
    for n in before..cfg.setups {
        let t0 = Instant::now();
        let st = setup(cfg, column.as_deref(), n)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        teardown(st);
    }

    let mut m = metrics(&w, &d.slices, median(setup_s), peak_rss);
    // Re-routes the serving ledger does not net out (see `audit`), kept
    // in the record until the engine counts them separately.
    m.1.push(Metric {
        name: "routing.stray_reroutes",
        value: ledger.engine_routed.saturating_sub(ledger.accepted) as f64,
        unit: "count",
        clock: "count",
    });
    Ok(RunResult {
        attempted,
        failed,
        wrong: d.wrong,
        missing,
        not_accepted,
        checks,
        ledger_note,
        read_samples: d.read_samples,
        write_samples: d.write_samples,
        e2e: m.0,
        layers: m.1,
        deterministic: m.2,
        slice_cmds_per_s: d.slices.iter().map(|s| s.cmds_per_s).collect(),
        spans_written,
    })
}

fn teardown(st: Stage) {
    let dir = st.wal_dir.clone();
    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
}

fn metrics(
    w: &Window,
    slices: &[Slice],
    setup_s: f64,
    peak_rss_mb: f64,
) -> (Vec<Metric>, Vec<Metric>, Vec<(&'static str, f64)>) {
    let (start, det, acc, totals) = (&w.start, &w.det, &w.host, &w.totals);
    let host = |name, value, unit| Metric {
        name,
        value,
        unit,
        clock: "host",
    };
    let virt = |name, value, unit| Metric {
        name,
        value,
        unit,
        clock: "virtual",
    };
    let count = |name, value, unit| Metric {
        name,
        value,
        unit,
        clock: "count",
    };

    // Host clock: the slices `acc` accumulated.
    let cmds = acc.cmds as f64;
    let wall_ns = acc.wall_ns as f64;
    let slice_rate = |traced: bool| {
        median(
            slices
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.cmds_per_s)
                .collect(),
        )
    };
    let cmds_per_s = slice_rate(false);
    let tail = |pick: fn(&Slice) -> Option<(f64, f64)>, p99: bool| {
        median(
            slices
                .iter()
                .filter(|s| !s.traced)
                .filter_map(pick)
                .map(|(p50, p99v)| if p99 { p99v } else { p50 })
                .collect(),
        )
    };
    let pump_ns = acc.pump_ns as f64;
    let ph = |p: Phase| acc.phases[p as usize] as f64;
    let lt = |l: Layer| totals[l as usize];
    let per_cmd = |ns: f64| ratio(ns, cmds);

    // Deterministic prefix: start → det (count and virtual metrics).
    let dcmds = (det.done.cmds - start.done.cmds) as f64;
    let dc = det.counters.since(&start.counters);
    let dvirt_ns = det.virt_ns - start.virt_ns;
    let dpairs = (det.done.upsert_pairs - start.done.upsert_pairs) as f64;
    let per_dcmd = |v: f64| ratio(v, dcmds);

    let e2e = vec![
        host("cmds_per_s", cmds_per_s, "cmd/s"),
        host("read_p50_us", tail(|s| s.read, false), "us"),
        host("read_p99_us", tail(|s| s.read, true), "us"),
        host("write_p50_us", tail(|s| s.write, false), "us"),
        host("write_p99_us", tail(|s| s.write, true), "us"),
        virt("virt_cmds_per_s", ratio(dcmds, dvirt_ns / 1e9), "cmd/s"),
        host("setup_s", setup_s, "s"),
        count("peak_rss_mb", peak_rss_mb, "MB"),
        count(
            "wal_bytes_per_user_byte",
            ratio(dc.journal_bytes as f64, dpairs * 16.0),
            "ratio",
        ),
    ];

    // Attribution: the pump splits into transport, the profiler phases
    // net of the benchmark's own spans nested inside them, the sink, and
    // whatever no phase claims.
    let tr = lt(Layer::TransportRead).total_ns as f64;
    let tw = lt(Layer::TransportWrite).total_ns as f64;
    let append = lt(Layer::Append).total_ns as f64;
    let commit = lt(Layer::Commit).total_ns as f64;
    let rebalance = lt(Layer::Rebalance).total_ns as f64;
    let phases_sum: f64 = Phase::ALL.iter().map(|&p| ph(p)).sum();
    let parts = [
        tr + tw,
        ph(Phase::ReadAdmit) - tr,
        ph(Phase::Flush) - tw,
        ph(Phase::Route),
        ph(Phase::ScanKernel),
        ph(Phase::Probe),
        ph(Phase::Write) - append,
        append,
        ph(Phase::Idle) - commit,
        commit + rebalance,
        pump_ns - phases_sum - rebalance,
    ];
    // Time some part would have to give back for every part to be
    // non-negative: 0 when each span nests inside the phase it is
    // subtracted from.
    let over = parts
        .iter()
        .filter(|v| **v < 0.0)
        .fold(0.0, |acc, v| acc - v);
    let covered =
        (lt(Layer::Client).total_ns + lt(Layer::Pump).total_ns + lt(Layer::Verify).total_ns) as f64;
    let allocs = |ls: &[Layer]| ls.iter().map(|&l| totals[l as usize].allocs).sum::<u64>() as f64;
    let records = acc.journal_records as f64;
    let sweeps = (dc.simd_sweeps + dc.chunked_sweeps + dc.scalar_sweeps) as f64;

    let layers = vec![
        host("server.pump_ns_per_cmd", per_cmd(pump_ns), "ns/cmd"),
        host("server.read_admit_ns_per_cmd", per_cmd(parts[1]), "ns/cmd"),
        host(
            "server.settle_flush_ns_per_cmd",
            per_cmd(parts[2]),
            "ns/cmd",
        ),
        host("server.transport_ns_per_cmd", per_cmd(parts[0]), "ns/cmd"),
        count(
            "server.bytes_per_cmd",
            per_dcmd((det.wire_bytes - start.wire_bytes) as f64),
            "B/cmd",
        ),
        count(
            "server.allocs_per_cmd",
            ratio(
                allocs(&[Layer::Pump, Layer::TransportRead, Layer::TransportWrite]),
                cmds,
            ),
            "alloc/cmd",
        ),
        count(
            "routing.subcmds_per_cmd",
            per_dcmd((dc.commands_unicast + dc.commands_multicast) as f64),
            "subcmd/cmd",
        ),
        count(
            "routing.flush_bytes_per_cmd",
            per_dcmd(dc.flush_bytes as f64),
            "B/cmd",
        ),
        count("routing.flush_stalls", dc.flush_stalls as f64, "count"),
        count(
            "routing.incoming_rejects",
            dc.incoming_rejects as f64,
            "count",
        ),
        count(
            "routing.answer_lag_epochs",
            per_dcmd((det.done.lag_epochs - start.done.lag_epochs) as f64),
            "epoch",
        ),
        host("aeu.route_ns_per_cmd", per_cmd(parts[3]), "ns/cmd"),
        host(
            "aeu.probe_ns_per_key",
            ratio(ph(Phase::Probe), acc.lookups as f64),
            "ns/key",
        ),
        host(
            "aeu.write_ns_per_pair",
            ratio(parts[6], acc.upserts as f64),
            "ns/pair",
        ),
        host(
            "aeu.scan_ns_per_row",
            ratio(ph(Phase::ScanKernel), acc.scan_rows as f64),
            "ns/row",
        ),
        count(
            "aeu.scans_per_sweep",
            ratio(dc.scans as f64, sweeps),
            "scan/sweep",
        ),
        host(
            "aeu.kernel_ns_per_cmd",
            per_cmd(parts[4] + parts[5] + parts[6]),
            "ns/cmd",
        ),
        host("aeu.idle_ns_per_cmd", per_cmd(parts[8]), "ns/cmd"),
        host(
            "engine.unattributed_ns_per_cmd",
            per_cmd(parts[10]),
            "ns/cmd",
        ),
        virt("engine.virt_ns_per_cmd", per_dcmd(dvirt_ns), "ns/cmd"),
        count(
            "engine.remote_bytes_per_cmd",
            per_dcmd((det.link_bytes - start.link_bytes) as f64),
            "B/cmd",
        ),
        host(
            "durability.append_ns_per_record",
            ratio(append, records),
            "ns/record",
        ),
        host("durability.append_ns_per_cmd", per_cmd(append), "ns/cmd"),
        host("durability.commit_ns_per_cmd", per_cmd(parts[9]), "ns/cmd"),
        count(
            "durability.fsyncs_per_kcmd",
            per_dcmd(dc.journal_fsyncs as f64 * 1e3),
            "fsync/kcmd",
        ),
        count(
            "durability.records_per_cmd",
            per_dcmd(dc.journal_records as f64),
            "record/cmd",
        ),
        count(
            "durability.allocs_per_record",
            ratio(
                allocs(&[Layer::Append, Layer::Commit, Layer::Rebalance]),
                records,
            ),
            "alloc/record",
        ),
        count(
            "balancer.rebalances",
            (det.balancer.cycles - start.balancer.cycles) as f64,
            "count",
        ),
        count(
            "balancer.keys_moved_per_kcmd",
            per_dcmd((det.balancer.keys_moved - start.balancer.keys_moved) as f64 * 1e3),
            "key/kcmd",
        ),
        host(
            "client.ns_per_cmd",
            per_cmd(lt(Layer::Client).total_ns as f64),
            "ns/cmd",
        ),
        count(
            "client.allocs_per_cmd",
            ratio(allocs(&[Layer::Client]), cmds),
            "alloc/cmd",
        ),
        host(
            "verify.ns_per_cmd",
            per_cmd(lt(Layer::Verify).total_ns as f64),
            "ns/cmd",
        ),
        host("trace.span_coverage", ratio(covered, wall_ns), "ratio"),
        host("trace.attribution_gap", ratio(over, pump_ns), "ratio"),
        host("trace.untraced_cmds_per_s", cmds_per_s, "cmd/s"),
        host(
            "trace.overhead_frac",
            1.0 - ratio(slice_rate(true), cmds_per_s),
            "ratio",
        ),
    ];

    let is_det =
        |m: &Metric| m.clock != "host" && m.name != "peak_rss_mb" && !m.name.contains("allocs");
    let deterministic = e2e
        .iter()
        .chain(&layers)
        .filter(|m| is_det(m))
        .map(|m| (m.name, m.value))
        .collect();
    (e2e, layers, deterministic)
}
