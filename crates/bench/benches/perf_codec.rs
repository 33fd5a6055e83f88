//! Micro-benchmarks of the image pipeline: page render, SWP encode/decode,
//! strip encode, interpolation repair.
//!
//! Each row reports the minimum over `SAMPLES` samples of the mean time per
//! iteration — the noise-robust statistic on shared hardware, as in
//! `perf_pipeline`. The iteration count per sample is sized from one
//! warm-up call so a sample lasts about `SAMPLE_S` seconds.

use sonic_image::interpolate::{recover, LossMask};
use sonic_image::{codec, strip};
use sonic_pagegen::{Corpus, PageId};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per row.
const SAMPLES: usize = 10;
/// Target wall time of one sample, in seconds.
const SAMPLE_S: f64 = 0.04;

/// Minimum wall time of `samples` runs of `iters` iterations, in seconds
/// per iteration.
fn best_time(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Times one row and prints it.
fn row(name: &str, mut f: impl FnMut()) {
    // The warm-up call also sizes the samples.
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64();
    let iters = ((SAMPLE_S / one.max(1e-9)) as usize).clamp(1, 10_000);
    let best = best_time(SAMPLES, iters, f);
    println!(
        "{name:<28} {:>12.3} us/iter   (min of {SAMPLES} samples x {iters} iters)",
        best * 1e6
    );
}

fn main() {
    let corpus = Corpus::standard();
    let id = PageId { site: 0, page: 0 };
    row("pagegen_render_scale02", || {
        black_box(corpus.render(black_box(id), 9, 0.2));
    });

    let page = corpus.render(PageId { site: 0, page: 1 }, 0, 0.2);
    row("swp_encode_q10", || {
        black_box(codec::encode(black_box(&page.raster), 10));
    });
    let data = codec::encode(&page.raster, 10);
    row("swp_decode_q10", || {
        black_box(codec::decode(black_box(&data)).expect("decodes"));
    });

    row("strip_encode", || {
        black_box(strip::encode(black_box(&page.raster)));
    });

    let mask = LossMask::random(page.raster.width(), page.raster.height(), 0.1, 1);
    row("interpolate_10pct", || {
        black_box(recover(black_box(&page.raster), black_box(&mask)));
    });
}
