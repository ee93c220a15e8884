//! Spans and allocation counts recorded from the benchmark's own code.
//!
//! A span brackets one call into a layer: the client's send/receive
//! work, one `EngineServer::pump`, one call on the server-side
//! `Transport`, one call on the redo sink, and the benchmark's own
//! answer checking.  Spans nest (transport and sink calls happen inside
//! a pump); each records its parent, and each layer gets its total time.
//! The counting allocator charges every allocation to the innermost open
//! span.
//!
//! Everything runs on one thread (the cooperative runtime steps every
//! AEU inside `pump`), so the span stack is thread-local.  When tracing
//! is off a span costs one thread-local flag check and the allocator
//! one relaxed load.

use eris_core::durability::{RedoOp, RedoSink};
use eris_core::AeuId;
use eris_server::Transport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The layers a span can belong to.  `Other` collects allocations made
/// outside every span (set-up, reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Other = 0,
    /// Generating commands, framing them in `Client`, reading replies.
    Client = 1,
    /// One `EngineServer::pump` (read + admit, epoch, settle + flush).
    Pump = 2,
    /// One read on the server-side `Transport`.
    TransportRead = 3,
    /// One write on the server-side `Transport`.
    TransportWrite = 4,
    /// One `RedoSink::append` into the journal.
    Append = 5,
    /// One group commit inside an AEU step (`RedoSink::end_of_step`).
    Commit = 6,
    /// Journal work of a balancing cycle: the transfer's appends and
    /// the barrier that makes them durable (`RedoSink::barrier`).
    Rebalance = 7,
    /// Draining results and checking every answer.
    Verify = 8,
}

pub const NUM_LAYERS: usize = 9;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Other => "other",
            Layer::Client => "client",
            Layer::Pump => "pump",
            Layer::TransportRead => "transport_read",
            Layer::TransportWrite => "transport_write",
            Layer::Append => "append",
            Layer::Commit => "commit",
            Layer::Rebalance => "rebalance",
            Layer::Verify => "verify",
        }
    }
}

// ordering: Relaxed throughout — statistics on one thread, publishing
// no other data.
static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static ALLOC_LAYER: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: [AtomicU64; NUM_LAYERS] = [const { AtomicU64::new(0) }; NUM_LAYERS];

/// `System` plus per-layer allocation counts while tracing is on.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count() {
        if ALLOC_ON.load(Relaxed) {
            ALLOCS[ALLOC_LAYER.load(Relaxed)].fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Per-layer totals over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub total_ns: u64,
    pub allocs: u64,
}

/// One recorded span (kept in memory, written out at the end).
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept verbatim per traced window; later spans only feed the
/// per-layer totals.
const SPAN_CAP: usize = 65_536;

struct Open {
    layer: Layer,
    id: u32,
    start_ns: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    totals: [LayerTotals; NUM_LAYERS],
    spans: Vec<SpanRec>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        next_id: 1,
        stack: Vec::new(),
        totals: [LayerTotals::default(); NUM_LAYERS],
        spans: Vec::new(),
    });
}

/// Start a traced window: clears totals, spans and allocation counts.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.origin = Instant::now();
        t.next_id = 1;
        t.stack = Vec::with_capacity(16);
        t.totals = [LayerTotals::default(); NUM_LAYERS];
        t.spans = Vec::with_capacity(SPAN_CAP);
    });
    for a in &ALLOCS {
        a.store(0, Relaxed);
    }
    ALLOC_LAYER.store(0, Relaxed);
    ALLOC_ON.store(true, Relaxed);
}

/// Pause a traced window between cycles; totals are kept.
pub fn pause() {
    ALLOC_ON.store(false, Relaxed);
    TRACER.with(|t| t.borrow_mut().on = false);
}

/// Continue a paused traced window.
pub fn resume() {
    TRACER.with(|t| t.borrow_mut().on = true);
    ALLOC_LAYER.store(0, Relaxed);
    ALLOC_ON.store(true, Relaxed);
}

/// Stop tracing; returns the per-layer totals of the window.
pub fn stop() -> [LayerTotals; NUM_LAYERS] {
    ALLOC_ON.store(false, Relaxed);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        let mut totals = t.totals;
        for (l, tot) in totals.iter_mut().enumerate() {
            tot.allocs = ALLOCS[l].load(Relaxed);
        }
        totals
    })
}

/// Write the recorded spans as JSON lines (one object per span).
pub fn write_spans(out: &mut impl Write) -> io::Result<usize> {
    TRACER.with(|t| {
        let t = t.borrow();
        for s in &t.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(t.spans.len())
    })
}

/// An open span; closes when dropped.
pub struct Span {
    active: bool,
}

/// Open a span of `layer` (a no-op unless a traced window is running).
#[inline]
pub fn span(layer: Layer) -> Span {
    let active = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let id = t.next_id;
        t.next_id = t.next_id.wrapping_add(1);
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            layer,
            id,
            start_ns,
        });
        ALLOC_LAYER.store(layer as usize, Relaxed);
        true
    });
    Span { active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end_ns = t.origin.elapsed().as_nanos() as u64;
            let Some(open) = t.stack.pop() else {
                return;
            };
            let dur = end_ns.saturating_sub(open.start_ns);
            let (parent, outer) = t
                .stack
                .last()
                .map_or((0, Layer::Other), |p| (p.id, p.layer));
            ALLOC_LAYER.store(outer as usize, Relaxed);
            let tot = &mut t.totals[open.layer as usize];
            tot.total_ns += dur;
            if t.spans.len() < SPAN_CAP {
                t.spans.push(SpanRec {
                    id: open.id,
                    parent,
                    layer: open.layer,
                    start_ns: open.start_ns,
                    end_ns,
                });
            }
        });
    }
}

/// The server-side transport, wrapped so each call is a span.
pub struct TimedTransport<T: Transport>(pub T);

impl<T: Transport> Transport for TimedTransport<T> {
    fn try_read(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let _s = span(Layer::TransportRead);
        self.0.try_read(buf)
    }

    fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let _s = span(Layer::TransportWrite);
        self.0.try_write(bytes)
    }

    fn is_open(&self) -> bool {
        self.0.is_open()
    }

    fn close(&mut self) {
        self.0.close()
    }
}

/// Marker bit of bulk-loaded values.  Upserts write `value = ticket`,
/// and tickets never reach this bit, so the sink can tell the pairs of
/// timed upserts from re-journaled bulk data moved by the balancer.
pub const BULK_TAG: u64 = 1 << 63;

/// A pass-through redo sink around the journal.  It observes when each
/// upserted pair becomes durable: pairs appended on an AEU are pending
/// until that AEU's journal performs its next fsync (group commit at the
/// end of the AEU step, the early flush inside `append`, or a balancing
/// barrier), and then move to the committed list the harness drains.
pub struct LedgerSink {
    inner: Arc<dyn RedoSink>,
    fsyncs: Vec<Arc<eris_core::telemetry::TelemetryShard>>,
    state: std::sync::Mutex<SinkState>,
    /// Set once the last AEU ended its step: appends from then until the
    /// next epoch come from the balancer, which runs after the steps.
    after_steps: AtomicBool,
}

#[derive(Default)]
struct SinkState {
    /// Per AEU: `(ticket, key)` pairs appended but not yet synced.
    pending: Vec<Vec<(u64, u64)>>,
    /// `(ticket, key)` pairs made durable since the last drain.
    committed: Vec<(u64, u64)>,
}

impl LedgerSink {
    pub fn new(
        inner: Arc<dyn RedoSink>,
        shards: Vec<Arc<eris_core::telemetry::TelemetryShard>>,
    ) -> Self {
        let state = SinkState {
            pending: vec![Vec::new(); shards.len()],
            committed: Vec::new(),
        };
        LedgerSink {
            inner,
            fsyncs: shards,
            state: std::sync::Mutex::new(state),
            after_steps: AtomicBool::new(false),
        }
    }

    /// Call before each epoch, so appends are told apart from the
    /// balancer's.
    pub fn begin_epoch(&self) {
        self.after_steps.store(false, Relaxed);
    }

    fn fsync_count(&self, aeu: usize) -> u64 {
        self.fsyncs[aeu].counters.journal_fsyncs.load(Relaxed)
    }

    fn promote(st: &mut SinkState, aeu: usize) {
        let SinkState { pending, committed } = st;
        committed.append(&mut pending[aeu]);
    }

    /// Move every pair made durable since the last call into `out`.
    pub fn drain_committed(&self, out: &mut Vec<(u64, u64)>) {
        let mut st = self.state.lock().expect("sink state poisoned by a panic");
        out.append(&mut st.committed);
    }
}

impl RedoSink for LedgerSink {
    fn append(&self, aeu: AeuId, op: RedoOp<'_>) {
        let _s = span(if self.after_steps.load(Relaxed) {
            Layer::Rebalance
        } else {
            Layer::Append
        });
        let before = self.fsync_count(aeu.index());
        self.inner.append(aeu, op);
        let mut st = self.state.lock().expect("sink state poisoned by a panic");
        if let RedoOp::UpsertPairs { pairs, .. } = op {
            let pending = &mut st.pending[aeu.index()];
            pending.extend(
                pairs
                    .iter()
                    .filter(|(_, v)| v & BULK_TAG == 0)
                    .map(|&(k, v)| (v, k)),
            );
        }
        if self.fsync_count(aeu.index()) != before {
            Self::promote(&mut st, aeu.index());
        }
    }

    fn end_of_step(&self, aeu: AeuId) {
        let _s = span(Layer::Commit);
        let before = self.fsync_count(aeu.index());
        self.inner.end_of_step(aeu);
        if aeu.index() + 1 == self.fsyncs.len() {
            self.after_steps.store(true, Relaxed);
        }
        if self.fsync_count(aeu.index()) != before {
            let mut st = self.state.lock().expect("sink state poisoned by a panic");
            Self::promote(&mut st, aeu.index());
        }
    }

    fn barrier(&self) {
        let _s = span(Layer::Rebalance);
        let before: Vec<u64> = (0..self.fsyncs.len())
            .map(|a| self.fsync_count(a))
            .collect();
        self.inner.barrier();
        let mut st = self.state.lock().expect("sink state poisoned by a panic");
        for (a, b) in before.into_iter().enumerate() {
            if self.fsync_count(a) != b {
                Self::promote(&mut st, a);
            }
        }
    }
}
