//! Micro-benchmarks of the hot in-memory primitives: frontier bitmap
//! operations, predictor evaluation, and pod byte-casting.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hus_core::predict::IoPlan;
use hus_core::{ActiveSet, Predictor};
use hus_storage::Throughput;
use std::hint::black_box;

fn bench_active_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("active_set");
    let n = 1_000_000u32;

    g.bench_function("set_1m_bits", |b| {
        b.iter_batched(
            || ActiveSet::new(n),
            |set| {
                for v in (0..n).step_by(3) {
                    set.set(v);
                }
                set
            },
            BatchSize::SmallInput,
        )
    });

    let sparse = ActiveSet::from_fn(n, |v| v % 1000 == 0);
    g.bench_function("iter_sparse_1m", |b| {
        b.iter(|| -> u64 { sparse.iter().map(|v| v as u64).sum() })
    });

    let dense = ActiveSet::from_fn(n, |v| v % 2 == 0);
    g.bench_function("iter_dense_1m", |b| {
        b.iter(|| -> u64 { dense.iter().map(|v| v as u64).sum() })
    });

    let degrees: Vec<u32> = (0..n).map(|v| v % 50).collect();
    g.bench_function("active_degree_sum_1m", |b| {
        b.iter(|| dense.active_degree_sum(0, n, black_box(&degrees)))
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let predictor = Predictor::new(
        Throughput { sequential_bps: 120e6, random_bps: 1e6, batched_bps: 40e6 },
        4.0,
        4,
    );
    let rop = IoPlan { sequential: 6_000_000, batched: 900_000, random: 700_000, write: 2_500_000 };
    let cop = IoPlan { sequential: 6_300_000_000, write: 168_000_000, ..Default::default() };
    c.bench_function("predictor/select", |b| {
        b.iter(|| {
            predictor.select(
                black_box(10_000),
                black_box(42_000_000),
                black_box(&rop),
                black_box(&cop),
            )
        })
    });
}

fn bench_pod(c: &mut Criterion) {
    let values: Vec<u32> = (0..1_000_000).collect();
    let bytes = hus_storage::pod::as_bytes(&values).to_vec();
    let mut g = c.benchmark_group("pod");
    g.bench_function("cast_slice_4mb", |b| {
        b.iter(|| hus_storage::pod::cast_slice::<u32>(black_box(&bytes)).unwrap().len())
    });
    g.bench_function("to_vec_4mb", |b| {
        b.iter(|| hus_storage::pod::to_vec::<u32>(black_box(&bytes)).unwrap().len())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_active_set, bench_predictor, bench_pod
}
criterion_main!(benches);
