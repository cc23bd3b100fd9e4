//! Query-latency benchmarks (experiment A6, runtime half).
//!
//! A runtime monitor sits in the perception loop of a vehicle; the paper's
//! premise is that abstraction-based monitors are cheap enough to run per
//! frame. These benches measure the per-query cost — feature extraction
//! plus abstraction membership — for every monitor family, standard and
//! robust, including the Hamming-tolerance query of the DATE 2019 setup.

use criterion::{criterion_group, criterion_main, Criterion};
use napmon_absint::Domain;
use napmon_bench::{random_inputs, random_network};
use napmon_core::{Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use std::hint::black_box;

fn query(c: &mut Criterion) {
    let net = random_network(17, 64, &[32, 16]);
    let layer = net.penultimate_boundary();
    let train = random_inputs(19, &net, 512);
    let probes = random_inputs(23, &net, 64);

    let pattern =
        |backend, hamming| MonitorKind::pattern_with(ThresholdPolicy::Sign, backend, hamming);
    let monitors = [
        ("minmax", MonitorSpec::new(layer, MonitorKind::min_max())),
        (
            "pattern-bdd",
            MonitorSpec::new(layer, MonitorKind::pattern()),
        ),
        (
            "pattern-hashset",
            MonitorSpec::new(layer, pattern(PatternBackend::HashSet, 0)),
        ),
        (
            "pattern-hamming1",
            MonitorSpec::new(layer, pattern(PatternBackend::Bdd, 1)),
        ),
        (
            "interval2",
            MonitorSpec::new(layer, MonitorKind::interval(2)),
        ),
        (
            "interval4",
            MonitorSpec::new(layer, MonitorKind::interval(4)),
        ),
        (
            "robust-pattern",
            MonitorSpec::new(layer, MonitorKind::pattern()).robust(0.02, 0, Domain::Box),
        ),
    ]
    .map(|(name, spec)| (name, spec.build(&net, &train).unwrap()));

    let mut group = c.benchmark_group("query");
    for (name, monitor) in &monitors {
        group.bench_function(*name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let probe = &probes[i % probes.len()];
                i += 1;
                black_box(monitor.warns(&net, black_box(probe)).unwrap())
            })
        });
    }
    // Baseline: the bare forward pass, to separate network cost from
    // abstraction cost.
    group.bench_function("forward-only", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let probe = &probes[i % probes.len()];
            i += 1;
            black_box(net.forward(black_box(probe)))
        })
    });
    group.finish();
}

criterion_group!(benches, query);
criterion_main!(benches);
