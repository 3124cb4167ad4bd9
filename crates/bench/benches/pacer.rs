//! Criterion microbenches for the pacer: it sits on the reactor's send
//! hot path, so admission must stay cheap even with large host tables.

use std::net::Ipv4Addr;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zdns_core::{ConcurrentGate, ConcurrentPacer, PacerConfig};
use zdns_pacing::{SendGate, TokenBucket, SECONDS};

fn gate(config: PacerConfig) -> ConcurrentGate {
    ConcurrentGate::new(Arc::new(ConcurrentPacer::new(config)))
}

fn bench_pacer(c: &mut Criterion) {
    c.bench_function("bucket_reserve", |b| {
        let mut bucket = TokenBucket::new(100_000.0, 64.0);
        let mut now = 0u64;
        b.iter(|| {
            now += 5_000;
            black_box(bucket.reserve(now))
        })
    });

    c.bench_function("pacer_admit_global_only", |b| {
        let mut pacer = gate(PacerConfig {
            rate_pps: 1e9, // never actually defers: measures the fast path
            ..PacerConfig::default()
        });
        let dest = Ipv4Addr::new(8, 8, 8, 8);
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000;
            black_box(pacer.admit(dest, now))
        })
    });

    c.bench_function("pacer_admit_per_host_10k_dests", |b| {
        let mut pacer = gate(PacerConfig {
            rate_pps: 1e9,
            per_host_pps: 1e6,
            backoff: true,
            ..PacerConfig::default()
        });
        // Warm a realistic host table.
        for i in 0..10_000u32 {
            let ip = Ipv4Addr::from(0x0B00_0000 + i);
            let _ = pacer.admit(ip, 0);
        }
        let mut i = 0u32;
        let mut now = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            now += 1_000;
            black_box(pacer.admit(Ipv4Addr::from(0x0B00_0000 + i), now))
        })
    });

    c.bench_function("pacer_failure_feedback", |b| {
        let mut pacer = gate(PacerConfig {
            backoff: true,
            ..PacerConfig::default()
        });
        let dest = Ipv4Addr::new(192, 0, 2, 7);
        let mut now = 0u64;
        b.iter(|| {
            now += SECONDS;
            pacer.on_failure(dest, now);
            pacer.on_success(dest, now);
        })
    });
}

criterion_group!(benches, bench_pacer);
criterion_main!(benches);
