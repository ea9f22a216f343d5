//! Criterion: spectral-solver costs — analytic closed forms vs dense
//! Jacobi vs Lanczos.

use criterion::{criterion_group, criterion_main, Criterion};

use sodiff_graph::{generators, Speeds};
use sodiff_linalg::spectral;

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral");

    group.bench_function("analytic_torus_1000", |b| {
        b.iter(|| spectral::torus_spectrum(&[1000, 1000]))
    });

    let small = generators::torus2d(10, 10);
    let small_speeds = Speeds::uniform(100);
    group.bench_function("dense_jacobi_torus10", |b| {
        b.iter(|| spectral::dense_spectrum(&small, &small_speeds))
    });

    let medium = generators::torus2d(64, 64);
    let medium_speeds = Speeds::uniform(64 * 64);
    group.sample_size(10);
    group.bench_function("lanczos_torus64", |b| {
        b.iter(|| spectral::lanczos_spectrum(&medium, &medium_speeds))
    });

    let hetero = Speeds::linear_ramp(64 * 64, 8.0);
    group.bench_function("lanczos_torus64_hetero", |b| {
        b.iter(|| spectral::lanczos_spectrum(&medium, &hetero))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_spectral
}
criterion_main!(benches);
