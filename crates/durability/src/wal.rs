//! The per-AEU write-ahead journal.
//!
//! ERIS routes every mutation to the one AEU that owns the target
//! partition, so the journal is partitioned the same way the data is:
//! one append-only log per AEU, written by that AEU alone (no log latch,
//! no cross-socket cache-line bouncing — the redo analogue of the
//! paper's "exclusive ownership" rule).  Each AEU logs the *local
//! effects* it applied (post-routing), so replay is deterministic per
//! log and never re-routes.
//!
//! ## File format
//!
//! ```text
//! [8B magic "ERISWAL1"]
//! repeat:  [u32 len][u32 crc32(payload)][payload: len bytes]
//! ```
//!
//! A record's payload is `[u8 tag][body]` (tags below).  All integers are
//! little-endian.  The *LSN* of a log is simply its synced byte length;
//! checkpoint manifests record one LSN cut per AEU and recovery replays
//! records whose offset is ≥ the cut.  The reader stops at the first
//! short, oversized, or CRC-failing record — a torn group commit
//! truncates cleanly instead of corrupting replay.

use crate::crc::crc32;
use crate::failpoint::{FailPoints, FP_JOURNAL_PRE_SYNC, FP_JOURNAL_TORN_WRITE};
use eris_core::durability::{ObjectClass, RedoOp};
use eris_core::telemetry::TelemetryShard;
use eris_core::{AeuId, DataObjectId};
use eris_obs::{now_ns, Stamped, TraceEvent};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

pub const WAL_MAGIC: &[u8; 8] = b"ERISWAL1";

/// Bytes buffered before a group commit flushes mid-step.  One AEU step
/// normally commits once at `end_of_step`; this bounds memory when a
/// single step journals a huge bulk absorb.
pub const GROUP_COMMIT_BYTES: usize = 256 * 1024;

/// Upper bound on one record's payload; the reader treats larger length
/// prefixes as corruption (stops replay there).
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const TAG_CREATE: u8 = 1;
const TAG_UPSERT_PAIRS: u8 = 2;
const TAG_APPEND_ROWS: u8 = 3;
const TAG_REMOVE_RANGE: u8 = 4;
const TAG_REMOVE_TAIL: u8 = 5;
const TAG_SET_RANGE: u8 = 6;

/// Owned, decoded form of a journal record (the replay-side mirror of
/// [`RedoOp`], which borrows from the AEU's scratch buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    Create {
        class: ObjectClass,
        object: DataObjectId,
        domain: u64,
        name: String,
    },
    UpsertPairs {
        object: DataObjectId,
        pairs: Vec<(u64, u64)>,
    },
    AppendRows {
        object: DataObjectId,
        rows: Vec<u64>,
    },
    RemoveRange {
        object: DataObjectId,
        lo: u64,
        hi: u64,
    },
    RemoveTail {
        object: DataObjectId,
        n: u64,
    },
    SetRange {
        object: DataObjectId,
        lo: u64,
        hi: u64,
    },
}

/// Serialize one redo operation into a record payload.
pub fn encode_op(op: &RedoOp<'_>, out: &mut Vec<u8>) {
    match op {
        RedoOp::CreateObject {
            class,
            object,
            domain,
            name,
        } => {
            out.push(TAG_CREATE);
            out.push(class.tag());
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&domain.to_le_bytes());
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        RedoOp::UpsertPairs { object, pairs } => {
            out.push(TAG_UPSERT_PAIRS);
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (k, v) in pairs.iter() {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        RedoOp::AppendRows { object, rows } => {
            out.push(TAG_APPEND_ROWS);
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for r in rows.iter() {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }
        RedoOp::RemoveRange { object, lo, hi } => {
            out.push(TAG_REMOVE_RANGE);
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        RedoOp::RemoveTail { object, n } => {
            out.push(TAG_REMOVE_TAIL);
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        RedoOp::SetRange { object, lo, hi } => {
            out.push(TAG_SET_RANGE);
            out.extend_from_slice(&object.0.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
    }
}

fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = buf.split_first()?;
    *buf = rest;
    Some(b)
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let v = u32::from_le_bytes(buf[..4].try_into().unwrap());
    *buf = &buf[4..];
    Some(v)
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    *buf = &buf[8..];
    Some(v)
}

/// Decode one record payload.  `None` rejects malformed input — the
/// payload passed its CRC, so this only fires on version skew or bugs,
/// and recovery surfaces it as corruption rather than panicking.
pub fn decode_op(mut buf: &[u8]) -> Option<JournalOp> {
    let tag = take_u8(&mut buf)?;
    let op = match tag {
        TAG_CREATE => {
            let class = ObjectClass::from_tag(take_u8(&mut buf)?)?;
            let object = DataObjectId(take_u32(&mut buf)?);
            let domain = take_u64(&mut buf)?;
            let len = take_u32(&mut buf)? as usize;
            if buf.len() != len {
                return None;
            }
            let name = String::from_utf8(buf.to_vec()).ok()?;
            buf = &[];
            JournalOp::Create {
                class,
                object,
                domain,
                name,
            }
        }
        TAG_UPSERT_PAIRS => {
            let object = DataObjectId(take_u32(&mut buf)?);
            let n = take_u64(&mut buf)? as usize;
            if buf.len() != n.checked_mul(16)? {
                return None;
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = take_u64(&mut buf)?;
                let v = take_u64(&mut buf)?;
                pairs.push((k, v));
            }
            JournalOp::UpsertPairs { object, pairs }
        }
        TAG_APPEND_ROWS => {
            let object = DataObjectId(take_u32(&mut buf)?);
            let n = take_u64(&mut buf)? as usize;
            if buf.len() != n.checked_mul(8)? {
                return None;
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(take_u64(&mut buf)?);
            }
            JournalOp::AppendRows { object, rows }
        }
        TAG_REMOVE_RANGE => JournalOp::RemoveRange {
            object: DataObjectId(take_u32(&mut buf)?),
            lo: take_u64(&mut buf)?,
            hi: take_u64(&mut buf)?,
        },
        TAG_REMOVE_TAIL => JournalOp::RemoveTail {
            object: DataObjectId(take_u32(&mut buf)?),
            n: take_u64(&mut buf)?,
        },
        TAG_SET_RANGE => JournalOp::SetRange {
            object: DataObjectId(take_u32(&mut buf)?),
            lo: take_u64(&mut buf)?,
            hi: take_u64(&mut buf)?,
        },
        _ => return None,
    };
    if buf.is_empty() {
        Some(op)
    } else {
        None
    }
}

struct WalInner {
    file: File,
    /// Records framed but not yet written + synced (the group commit).
    buf: Vec<u8>,
    /// Byte offset up to which the file content is known durable.
    synced_lsn: u64,
}

/// One AEU's append-only journal.  The mutex is uncontended in steady
/// state — only the owning AEU appends — but makes the sink `Sync` for
/// the real-thread runtime and for barriers issued by the engine thread.
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Open (or create) the journal at `path`.  An existing file is
    /// scanned and truncated back to its last intact record so a torn
    /// tail from a previous crash is never appended after.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let valid = if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            WAL_MAGIC.len() as u64
        } else {
            let valid = scan_valid_len(&bytes);
            if valid < bytes.len() as u64 {
                file.set_len(valid)?;
                file.sync_data()?;
            }
            valid
        };
        file.seek(SeekFrom::Start(valid))?;
        Ok(Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                synced_lsn: valid,
            }),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frame one redo record into the group-commit buffer: reserve the
    /// `[len][crc]` header, encode the payload in place behind it, then
    /// patch the header.  Returns the bytes now pending so the caller can
    /// trigger an early flush.
    pub fn append(&self, op: &RedoOp<'_>) -> usize {
        let mut inner = self.inner.lock();
        let buf = &mut inner.buf;
        let start = buf.len();
        buf.extend_from_slice(&[0; 8]);
        encode_op(op, buf);
        let (header, payload) = buf[start..].split_at_mut(8);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        buf.len()
    }

    /// Group commit: write the pending buffer and `fsync`.  Fail points
    /// model a crash with a torn write or before the sync.  Returns the
    /// number of records' bytes made durable (0 when nothing pended or
    /// the crash fired).
    // HOT-PATH-CUT: group-commit flush — file IO on the durability
    // thread, never under the AEU's latch-free section.
    pub fn flush(&self, fail: &FailPoints, shard: Option<&Arc<TelemetryShard>>) -> u64 {
        if fail.crashed() {
            return 0;
        }
        let mut inner = self.inner.lock();
        if inner.buf.is_empty() {
            return 0;
        }
        let inner = &mut *inner;
        if fail.hit(FP_JOURNAL_TORN_WRITE) {
            // Die mid-`write(2)`: a prefix that ends inside the last
            // record's framing reaches the file, and no sync happens.
            let torn = inner.buf.len().saturating_sub(3);
            let _ = inner.file.write_all(&inner.buf[..torn]);
            return 0;
        }
        if inner.file.write_all(&inner.buf).is_err() {
            // Nothing is dropped: the pending records stay buffered for
            // the next group commit.
            return 0;
        }
        // The buffer keeps its capacity for the next group, up to about
        // one group commit's worth (a huge bulk absorb gives the rest
        // back).
        let n = inner.buf.len() as u64;
        inner.buf.clear();
        inner.buf.shrink_to(2 * GROUP_COMMIT_BYTES);
        if fail.hit(FP_JOURNAL_PRE_SYNC) {
            // Written but never synced: the bytes may or may not survive
            // a real crash; this harness keeps them (the reader must
            // tolerate either outcome — both are valid torn states).
            return 0;
        }
        if inner.file.sync_data().is_err() {
            return 0;
        }
        inner.synced_lsn += n;
        if let Some(shard) = shard {
            shard.counters.journal_bytes.fetch_add(n, Relaxed);
            shard.counters.journal_fsyncs.fetch_add(1, Relaxed);
        }
        n
    }

    /// The durable byte offset (the LSN recorded by checkpoint cuts).
    pub fn synced_lsn(&self) -> u64 {
        self.inner.lock().synced_lsn
    }
}

/// Length of the longest valid prefix of a journal image: magic plus
/// intact CRC-checked records.
fn scan_valid_len(bytes: &[u8]) -> u64 {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return 0;
    }
    let mut off = WAL_MAGIC.len();
    loop {
        let Some(header) = bytes.get(off..off + 8) else {
            return off as u64;
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return off as u64;
        }
        let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
            return off as u64;
        };
        if crc32(payload) != crc {
            return off as u64;
        }
        off += 8 + len as usize;
    }
}

/// Read every intact record at byte offset ≥ `cut`, in order.  Returns
/// the decoded ops and the number of torn tail bytes discarded.
pub fn read_tail(path: &Path, cut: u64) -> std::io::Result<(Vec<JournalOp>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let valid = scan_valid_len(&bytes) as usize;
    let torn = (bytes.len() - valid) as u64;
    let mut ops = Vec::new();
    let mut off = WAL_MAGIC.len().min(valid);
    while off + 8 <= valid {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let payload = &bytes[off + 8..off + 8 + len];
        if off as u64 >= cut {
            let Some(op) = decode_op(payload) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("undecodable journal record at {}:{off}", path.display()),
                ));
            };
            ops.push(op);
        }
        off += 8 + len;
    }
    Ok((ops, torn))
}

/// The engine-facing sink: fan-in point for all AEUs' redo streams.
pub struct JournalSink {
    wals: Vec<Wal>,
    /// Telemetry shards, captured at attach time (empty before).
    shards: parking_lot::RwLock<Vec<Arc<TelemetryShard>>>,
    fail: Arc<FailPoints>,
}

impl JournalSink {
    pub fn new(wals: Vec<Wal>, fail: Arc<FailPoints>) -> Self {
        JournalSink {
            wals,
            shards: parking_lot::RwLock::new(Vec::new()),
            fail,
        }
    }

    pub fn num_wals(&self) -> usize {
        self.wals.len()
    }

    pub fn set_shards(&self, shards: Vec<Arc<TelemetryShard>>) {
        *self.shards.write() = shards;
    }

    pub fn fail_points(&self) -> &Arc<FailPoints> {
        &self.fail
    }

    /// Flush + sync every AEU's log; returns the per-AEU LSN cuts.
    pub fn sync_all(&self) -> Vec<u64> {
        for i in 0..self.wals.len() {
            self.flush_wal(i);
        }
        self.wals.iter().map(|w| w.synced_lsn()).collect()
    }

    /// Group-commit one AEU's log and trace the commit when it made
    /// bytes durable.
    // HOT-PATH-CUT: group-commit flush entry, as Wal::flush.
    fn flush_wal(&self, idx: usize) -> u64 {
        let shards = self.shards.read();
        let shard = shards.get(idx);
        let n = self.wals[idx].flush(&self.fail, shard);
        if n > 0 {
            if let Some(shard) = shard {
                shard.ring.emit(Stamped {
                    at_ns: now_ns(),
                    aeu: idx as u32,
                    event: TraceEvent::GroupCommit {
                        aeu: idx as u32,
                        bytes: n,
                    },
                });
            }
        }
        n
    }
}

impl eris_core::durability::RedoSink for JournalSink {
    // HOT-PATH-CUT: journal append — buffers the redo record on the
    // durability path; reviewed with the WAL, not the AEU loop.
    fn append(&self, aeu: AeuId, op: RedoOp<'_>) {
        if self.fail.crashed() {
            return;
        }
        let pending = self.wals[aeu.index()].append(&op);
        {
            let shards = self.shards.read();
            if let Some(shard) = shards.get(aeu.index()) {
                shard.counters.journal_records.fetch_add(1, Relaxed);
            }
        }
        if pending >= GROUP_COMMIT_BYTES {
            self.flush_wal(aeu.index());
        }
    }

    fn end_of_step(&self, aeu: AeuId) {
        if self.fail.crashed() {
            return;
        }
        self.flush_wal(aeu.index());
    }

    fn barrier(&self) {
        if self.fail.crashed() {
            return;
        }
        self.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Relaxed);
        std::env::temp_dir().join(format!(
            "eris-wal-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    /// One record of every redo op.
    fn every_op() -> Vec<RedoOp<'static>> {
        vec![
            RedoOp::CreateObject {
                class: ObjectClass::Tree,
                object: DataObjectId(3),
                domain: 1 << 20,
                name: "orders",
            },
            RedoOp::UpsertPairs {
                object: DataObjectId(1),
                pairs: &[(1, 2), (u64::MAX, 0)],
            },
            RedoOp::AppendRows {
                object: DataObjectId(2),
                rows: &[5, 6, 7],
            },
            RedoOp::RemoveRange {
                object: DataObjectId(1),
                lo: 10,
                hi: 20,
            },
            RedoOp::RemoveTail {
                object: DataObjectId(2),
                n: 2,
            },
            RedoOp::SetRange {
                object: DataObjectId(1),
                lo: 0,
                hi: 512,
            },
        ]
    }

    /// The journal framing of one record, built the obvious way:
    /// `[len][crc32(payload)][payload]` around a separately encoded payload.
    fn golden_record(op: &RedoOp<'_>) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_op(op, &mut payload);
        let mut record = Vec::new();
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        record
    }

    #[test]
    fn in_place_framing_matches_the_golden_encoding() {
        let path = temp_path("golden");
        let fail = FailPoints::new();
        let ops = every_op();
        let wal = Wal::open(&path).unwrap();
        let mut expected = WAL_MAGIC.to_vec();
        for op in &ops {
            let record = golden_record(op);
            expected.extend_from_slice(&record);
            // Each append reports the pending group, header included.
            assert_eq!(wal.append(op), expected.len() - WAL_MAGIC.len());
        }
        assert_eq!(wal.flush(&fail, None), (expected.len() - 8) as u64);
        assert_eq!(std::fs::read(&path).unwrap(), expected);

        let (replayed, torn) = read_tail(&path, 0).unwrap();
        assert_eq!(torn, 0);
        let decoded: Vec<JournalOp> = ops
            .iter()
            .map(|op| decode_op(&golden_record(op)[8..]).unwrap())
            .collect();
        assert_eq!(replayed, decoded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_write_keeps_pending_records_for_the_next_flush() {
        let path = temp_path("retry");
        let fail = FailPoints::new();
        let ops = every_op();
        let wal = Wal::open(&path).unwrap();
        for op in &ops {
            wal.append(op);
        }
        // Swap in a read-only handle: the group commit's write fails.
        let writable = {
            let mut inner = wal.inner.lock();
            let read_only = File::open(&path).unwrap();
            std::mem::replace(&mut inner.file, read_only)
        };
        assert_eq!(wal.flush(&fail, None), 0, "nothing made durable");
        assert_eq!(wal.synced_lsn(), WAL_MAGIC.len() as u64);
        // The records are still pending: one more appends behind them,
        // and the next flush writes all of them in order.
        let last = RedoOp::RemoveTail {
            object: DataObjectId(9),
            n: 1,
        };
        wal.append(&last);
        wal.inner.lock().file = writable;
        assert!(wal.flush(&fail, None) > 0);
        let (replayed, _) = read_tail(&path, 0).unwrap();
        let mut expected: Vec<JournalOp> = ops
            .iter()
            .map(|op| decode_op(&golden_record(op)[8..]).unwrap())
            .collect();
        expected.push(JournalOp::RemoveTail {
            object: DataObjectId(9),
            n: 1,
        });
        assert_eq!(replayed, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ops_roundtrip_through_the_record_codec() {
        let ops = every_op();
        for op in &ops {
            let mut payload = Vec::new();
            encode_op(op, &mut payload);
            let decoded = decode_op(&payload).expect("own encoding decodes");
            // Spot-check one borrowed/owned pair; shapes are mirrored.
            if let (RedoOp::UpsertPairs { pairs, .. }, JournalOp::UpsertPairs { pairs: got, .. }) =
                (op, &decoded)
            {
                assert_eq!(&pairs[..], &got[..]);
            }
            // Every truncation of a payload is rejected.
            for cut in 0..payload.len() {
                assert!(decode_op(&payload[..cut]).is_none(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let path = temp_path("torn");
        let fail = FailPoints::new();
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&RedoOp::RemoveTail {
                object: DataObjectId(1),
                n: 9,
            });
            assert!(wal.flush(&fail, None) > 0);
        }
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn group commit: garbage half-record at the end.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 7]).unwrap();
        drop(f);

        let (ops, torn) = read_tail(&path, 0).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(torn, 7);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.synced_lsn(), intact);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cut_skips_checkpointed_records() {
        let path = temp_path("cut");
        let fail = FailPoints::new();
        let wal = Wal::open(&path).unwrap();
        wal.append(&RedoOp::RemoveTail {
            object: DataObjectId(1),
            n: 1,
        });
        wal.flush(&fail, None);
        let cut = wal.synced_lsn();
        wal.append(&RedoOp::RemoveTail {
            object: DataObjectId(2),
            n: 2,
        });
        wal.flush(&fail, None);

        let (all, _) = read_tail(&path, 0).unwrap();
        assert_eq!(all.len(), 2);
        let (tail, _) = read_tail(&path, cut).unwrap();
        assert_eq!(
            tail,
            vec![JournalOp::RemoveTail {
                object: DataObjectId(2),
                n: 2
            }]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
