//! Criterion end-to-end benchmarks, one group per paper experiment
//! (micro-scale; the `repro` binary prints the full tables/series).
//!
//! * `fig1_bfs_compare` — Trad-BFS vs BFS-SpMV (SlimSell) vs dir-opt.
//! * `fig5_sigma` — total BFS time at small/medium/full σ (tropical).
//! * `fig5d_slimwork` — SlimWork on vs off.
//! * `fig9_selmax_vs_trad` — sel-max SpMV vs Trad-BFS on a denser graph.
//! * `prep_build` — σ-sort + structure build time (§IV-D).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use slimsell_baseline::trad_bfs;
use slimsell_core::matrix::SlimSellMatrix;
use slimsell_core::{
    run_descriptor, BfsEngine, BfsOptions, Descriptor, SelMaxSemiring, TropicalSemiring,
};
use slimsell_gen::kronecker::{kronecker, KroneckerParams};
use slimsell_graph::stats::sample_roots;

fn bench_fig1(c: &mut Criterion) {
    let g = kronecker(12, 16.0, KroneckerParams::GRAPH500, 42);
    let root = sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<16>::build(&g, g.num_vertices());
    let mut group = c.benchmark_group("fig1_bfs_compare");
    group.sample_size(10);
    group.bench_function("trad_bfs", |b| b.iter(|| black_box(trad_bfs(&g, root))));
    group.bench_function("slimsell_spmv_tropical", |b| {
        b.iter(|| {
            black_box(BfsEngine::run::<_, TropicalSemiring, 16>(
                &slim,
                root,
                &BfsOptions::default(),
            ))
        })
    });
    group.bench_function("slimsell_diropt", |b| {
        b.iter(|| black_box(run_descriptor(&slim, root, &Descriptor::default())))
    });
    group.finish();
}

fn bench_fig5_sigma(c: &mut Criterion) {
    let g = kronecker(12, 16.0, KroneckerParams::GRAPH500, 42);
    let n = g.num_vertices();
    let root = sample_roots(&g, 1)[0];
    let mut group = c.benchmark_group("fig5_sigma");
    group.sample_size(10);
    for sigma in [1usize, 64, n] {
        let slim = SlimSellMatrix::<8>::build(&g, sigma);
        group.bench_function(format!("tropical/sigma={sigma}"), |b| {
            b.iter(|| {
                black_box(BfsEngine::run::<_, TropicalSemiring, 8>(
                    &slim,
                    root,
                    &BfsOptions::default(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_fig5d_slimwork(c: &mut Criterion) {
    let g = kronecker(12, 16.0, KroneckerParams::GRAPH500, 42);
    let root = sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let mut group = c.benchmark_group("fig5d_slimwork");
    group.sample_size(10);
    group.bench_function("with_slimwork", |b| {
        b.iter(|| {
            black_box(BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &BfsOptions::default()))
        })
    });
    group.bench_function("without_slimwork", |b| {
        b.iter(|| {
            black_box(BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &BfsOptions::plain()))
        })
    });
    group.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let g = kronecker(11, 64.0, KroneckerParams::GRAPH500, 42);
    let root = sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<16>::build(&g, g.num_vertices());
    let mut group = c.benchmark_group("fig9_selmax_vs_trad");
    group.sample_size(10);
    group.bench_function("trad_bfs", |b| b.iter(|| black_box(trad_bfs(&g, root))));
    group.bench_function("slimsell_selmax", |b| {
        b.iter(|| {
            black_box(BfsEngine::run::<_, SelMaxSemiring, 16>(&slim, root, &BfsOptions::default()))
        })
    });
    group.finish();
}

fn bench_prep(c: &mut Criterion) {
    let g = kronecker(12, 16.0, KroneckerParams::GRAPH500, 42);
    let n = g.num_vertices();
    let mut group = c.benchmark_group("prep_build");
    group.sample_size(10);
    group.bench_function("build_sigma_1", |b| {
        b.iter(|| black_box(SlimSellMatrix::<8>::build(&g, 1)))
    });
    group.bench_function("build_sigma_n", |b| {
        b.iter(|| black_box(SlimSellMatrix::<8>::build(&g, n)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1,
    bench_fig5_sigma,
    bench_fig5d_slimwork,
    bench_fig9,
    bench_prep
);
criterion_main!(benches);
