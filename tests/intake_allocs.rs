//! Runtime allocation gate for the command intake path — the runtime
//! twin of `cargo xtask analyze`'s static A2 (allocation-freedom) rule.
//!
//! A counting global allocator tallies the heap allocations made on the
//! serving thread while it is inside `EngineServer::pump`: frame decode,
//! admission, routing split, outgoing/incoming buffers, the AEU kernels,
//! journal append and group commit, and reply settle.  After a warm-up
//! that sizes every retained buffer, a closed loop of 8-key lookups and
//! 32-pair upserts must stay within a few allocations per command (the
//! amortized per-epoch bookkeeping), and journal appends must not
//! allocate at all.

use eris_core::durability::{RedoOp, RedoSink};
use eris_core::prelude::*;
use eris_durability::wal::{JournalSink, Wal};
use eris_durability::FailPoints;
use eris_numa::machines::custom_machine;
use eris_server::{
    loopback_pair, AdmissionConfig, Client, EngineServer, PipeTransport, ServerConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread's allocations count, and only while
    /// it is inside the measured section.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(|c| c.get()) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.load(Relaxed) - before)
}

/// Counts journal records and the allocations made while appending
/// them, around the real journal.
struct CountingSink {
    inner: Arc<JournalSink>,
    records: AtomicU64,
    append_allocs: AtomicU64,
}

impl RedoSink for CountingSink {
    fn append(&self, aeu: AeuId, op: RedoOp<'_>) {
        let before = ALLOCS.load(Relaxed);
        self.inner.append(aeu, op);
        self.append_allocs
            .fetch_add(ALLOCS.load(Relaxed) - before, Relaxed);
        self.records.fetch_add(1, Relaxed);
    }

    fn end_of_step(&self, aeu: AeuId) {
        self.inner.end_of_step(aeu);
    }

    fn barrier(&self) {
        self.inner.barrier();
    }
}

const KEYS: u64 = 1 << 14;
const WINDOW: u32 = 256;
const CONNS: usize = 2;

fn wal_dir() -> PathBuf {
    std::env::temp_dir().join(format!("eris-intake-allocs-{}", std::process::id()))
}

/// Deterministic key stream (no allocation, no RNG state to share).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS
}

fn command(obj: DataObjectId, i: u64) -> DataCommand {
    let payload = if i.is_multiple_of(2) {
        Payload::Lookup {
            keys: (0..8).map(|j| key(i * 64 + j)).collect(),
        }
    } else {
        // Existing keys only: an insert would grow the index, which is
        // the data structure's allocation, not the intake path's.
        Payload::Upsert {
            pairs: (0..32).map(|j| (key(i * 64 + j), i)).collect(),
        }
    };
    DataCommand {
        object: obj,
        ticket: i,
        payload,
    }
}

#[test]
fn intake_allocates_at_most_a_few_times_per_command() {
    let mut engine = Engine::new(
        custom_machine("intake", 2, 4, 20.0, 100.0, 10.0, 60.0),
        EngineConfig {
            balancer: BalancerConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let obj = engine.create_index("kv", KEYS);
    engine.bulk_load_index(obj, (0..KEYS).map(|k| (k, k)));

    let dir = wal_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wals = (0..engine.num_aeus())
        .map(|i| Wal::open(&dir.join(format!("aeu-{i}.log"))).unwrap())
        .collect();
    let journal = Arc::new(JournalSink::new(wals, Arc::new(FailPoints::new())));
    let sink = Arc::new(CountingSink {
        inner: journal,
        records: AtomicU64::new(0),
        append_allocs: AtomicU64::new(0),
    });
    engine.set_redo_sink(Some(sink.clone()));

    let mut server = EngineServer::new(
        engine,
        ServerConfig {
            admission: AdmissionConfig {
                credit_limit: WINDOW,
                quota_capacity_ops: u32::MAX,
                quota_refill_ops_per_sec: u32::MAX,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut clients: Vec<_> = (0..CONNS)
        .map(|_| {
            let (server_side, client_side) = loopback_pair();
            server.attach(Box::new(server_side));
            Client::connect(client_side, 0)
        })
        .collect();

    // Closed loop: every client keeps its credit window full.  Commands
    // are built outside the measured section.
    let mut next = 0u64;
    let mut round =
        |server: &mut EngineServer, clients: &mut [Client<PipeTransport>]| -> (u64, u64) {
            for c in clients.iter_mut() {
                c.poll();
                while c.credits() > 0 {
                    let cmd = command(obj, next);
                    next += 1;
                    assert!(c.try_send(&cmd));
                }
                c.poll();
            }
            let (r, allocs) = allocs_in(|| server.pump());
            (r.commands, allocs)
        };

    // Warm-up: the handshake, then enough rounds that every retained
    // buffer (reassembly, outgoing/incoming, payload pools, WAL group
    // buffers) has reached its steady-state size.
    for _ in 0..40 {
        round(&mut server, &mut clients);
    }

    let records_before = sink.records.load(Relaxed);
    let append_before = sink.append_allocs.load(Relaxed);
    let (mut cmds, mut allocs) = (0u64, 0u64);
    while cmds < 10_000 {
        let (c, a) = round(&mut server, &mut clients);
        cmds += c;
        allocs += a;
    }
    let records = sink.records.load(Relaxed) - records_before;
    let append_allocs = sink.append_allocs.load(Relaxed) - append_before;

    let per_cmd = allocs as f64 / cmds as f64;
    let per_record = append_allocs as f64 / records.max(1) as f64;
    println!(
        "intake: {cmds} commands, {per_cmd:.3} allocs/cmd through pump; \
         {records} journal records, {per_record:.4} allocs/record"
    );
    assert!(records > 0, "upserts were journaled");
    assert!(per_cmd <= 4.0, "{per_cmd:.3} allocations per command");
    assert!(
        per_record <= 0.1,
        "{per_record:.4} allocations per journal record"
    );

    // Every command settled and the serving ledger balances.
    server.pump_until_quiet(64);
    for c in clients.iter_mut() {
        c.poll();
    }
    let outcome = server.shutdown();
    assert!(outcome.ledger.holds(), "{:?}", outcome.ledger);
    let _ = std::fs::remove_dir_all(&dir);
}
