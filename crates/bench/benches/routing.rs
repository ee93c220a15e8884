//! Microbenchmarks of the data command routing layer: the latch-free
//! incoming double buffer, outgoing pre-buffering, and end-to-end routing.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eris_core::routing::{
    IncomingBuffers, OutgoingBuffers, PartitionTable, RangeTable, Router, RoutingConfig,
    RoutingShared,
};
use eris_core::{AeuId, DataCommand, DataObjectId, Payload};
use std::sync::Arc;

fn bench_incoming_write_consume(c: &mut Criterion) {
    let buf = IncomingBuffers::new(1 << 20);
    let payload = [7u8; 64];
    c.bench_function("routing/incoming_write_64B", |b| {
        b.iter(|| {
            if buf.write(black_box(&payload)).is_err() {
                buf.swap_and_consume(|d| {
                    black_box(d.len());
                });
                buf.write(&payload).unwrap();
            }
        })
    });
}

fn bench_incoming_contended(c: &mut Criterion) {
    // Multi-threaded writers against one swapping owner: the real CAS
    // protocol under contention.
    let mut g = c.benchmark_group("routing/incoming_contended");
    for writers in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(writers),
            &writers,
            |b, &writers| {
                b.iter_custom(|iters| {
                    let buf = Arc::new(IncomingBuffers::new(1 << 20));
                    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
                    let handles: Vec<_> = (0..writers)
                        .map(|_| {
                            let buf = Arc::clone(&buf);
                            let stop = Arc::clone(&stop);
                            std::thread::spawn(move || {
                                let payload = [1u8; 32];
                                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                                    let _ = buf.write(&payload);
                                }
                            })
                        })
                        .collect();
                    let start = std::time::Instant::now();
                    for _ in 0..iters {
                        buf.swap_and_consume(|d| {
                            black_box(d.len());
                        });
                    }
                    let dt = start.elapsed();
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                    for h in handles {
                        h.join().unwrap();
                    }
                    dt
                })
            },
        );
    }
    g.finish();
}

fn bench_outgoing_flush(c: &mut Criterion) {
    let cmd = DataCommand {
        object: DataObjectId(0),
        ticket: 1,
        payload: Payload::Lookup {
            keys: vec![1, 2, 3, 4],
        },
    };
    c.bench_function("routing/outgoing_buffer_and_flush_16cmds", |b| {
        let inc = IncomingBuffers::new(1 << 20);
        let mut out = OutgoingBuffers::new(4, 1 << 16);
        b.iter(|| {
            for _ in 0..16 {
                out.push_unicast(AeuId(2), &cmd);
            }
            let info = out.flush_into(AeuId(2), &inc).unwrap().unwrap();
            black_box(info.bytes);
            inc.swap_and_consume(|d| {
                black_box(d.len());
            });
        })
    });
}

fn bench_route_split(c: &mut Criterion) {
    // End-to-end routing of a 64-key lookup over 64 owners.
    let shared = Arc::new(RoutingShared::new(64, RoutingConfig::default()));
    let owners: Vec<AeuId> = (0..64).map(AeuId).collect();
    shared.register_object(
        DataObjectId(0),
        PartitionTable::Range(RangeTable::even(1 << 20, &owners)),
    );
    let mut router = Router::new(AeuId(0), Arc::clone(&shared), RoutingConfig::default());
    let keys: Vec<u64> = (0..64).map(|i| (i * 104729) % (1 << 20)).collect();
    c.bench_function("routing/route_64key_lookup_over_64_aeus", |b| {
        b.iter(|| {
            router
                .route(&DataCommand {
                    object: DataObjectId(0),
                    ticket: 0,
                    payload: Payload::Lookup { keys: keys.clone() },
                })
                .unwrap();
            black_box(router.flush_all().len());
            // Drain targets so incoming buffers never fill.
            for a in 0..64u32 {
                shared.incoming(AeuId(a)).swap_and_consume(|d| {
                    black_box(d.len());
                });
            }
        })
    });
}

criterion_group!(
    benches,
    bench_incoming_write_consume,
    bench_incoming_contended,
    bench_outgoing_flush,
    bench_route_split
);
criterion_main!(benches);
