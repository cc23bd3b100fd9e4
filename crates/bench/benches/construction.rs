//! Monitor-construction benchmarks (experiment A6, construction half).
//!
//! Measures the build cost of every monitor family, standard vs robust,
//! serial vs parallel, as the training-set size grows. The paper's robust
//! construction adds one abstract-interpretation pass per training sample;
//! these benches quantify that overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use napmon_absint::Domain;
use napmon_bench::{random_inputs, random_network};
use napmon_core::{MonitorKind, MonitorSpec};
use std::hint::black_box;

fn construction(c: &mut Criterion) {
    let net = random_network(11, 64, &[32, 16]);
    let layer = net.penultimate_boundary();
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);

    for &n in &[128usize, 512] {
        let data = random_inputs(13, &net, n);
        for (name, kind) in [
            ("minmax", MonitorKind::min_max()),
            ("pattern", MonitorKind::pattern()),
            ("interval2", MonitorKind::interval(2)),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("standard/{name}"), n),
                &data,
                |b, data| {
                    b.iter(|| {
                        let m = MonitorSpec::new(layer, kind.clone())
                            .build(&net, black_box(data))
                            .unwrap();
                        black_box(m)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("robust-box/{name}"), n),
                &data,
                |b, data| {
                    b.iter(|| {
                        let m = MonitorSpec::new(layer, kind.clone())
                            .robust(0.02, 0, Domain::Box)
                            .build(&net, black_box(data))
                            .unwrap();
                        black_box(m)
                    })
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("robust-box-parallel/pattern", n),
            &data,
            |b, data| {
                b.iter(|| {
                    let m = MonitorSpec::new(layer, MonitorKind::pattern())
                        .robust(0.02, 0, Domain::Box)
                        .parallel(true)
                        .build(&net, black_box(data))
                        .unwrap();
                    black_box(m)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, construction);
criterion_main!(benches);
