//! Performance acceptance bench for the fast FM receive path PR.
//!
//! Reference-vs-optimized timings for the receive chain, where the
//! reference is the original direct-form implementation kept in-tree as the
//! executable specification (`demodulate_into_reference`,
//! `decompose_reference`, `demodulate_frames_reference`). Both paths run in
//! the same process back-to-back so the comparison cancels machine noise;
//! minimum-of-samples is the reported statistic.
//!
//! `--smoke` runs every benchmark once with tiny inputs and reports ratios
//! informationally without enforcing them — CI uses it to prove the bench
//! builds and the fast/reference paths still agree.

use sonic_core::frame::Frame;
use sonic_core::link;
use sonic_modem::{demodulate_frames, demodulate_frames_reference, modulate_frame, Profile};
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, decompose_reference, MpxInput};
use sonic_radio::MPX_RATE;
use std::hint::black_box;
use std::time::Instant;

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

fn check(name: &str, reference_s: f64, optimized_s: f64, need: f64) -> bool {
    let speedup = reference_s / optimized_s;
    let verdict = if need == 0.0 {
        "info"
    } else if speedup >= need {
        "PASS"
    } else {
        "FAIL"
    };
    println!(
        "{name:<24} reference {:>9.1} us   optimized {:>9.1} us   speedup {speedup:>5.2}x (need >= {need:.1}x)  [{verdict}]",
        reference_s * 1e6,
        optimized_s * 1e6,
    );
    need == 0.0 || speedup >= need
}

fn scale_to_rms(audio: &mut [f32], target: f32) {
    let rms = (audio.iter().map(|&x| x * x).sum::<f32>() / audio.len().max(1) as f32).sqrt();
    if rms > 1e-12 {
        let g = target / rms;
        for v in audio.iter_mut() {
            *v *= g;
        }
    }
}

/// Deterministic filler frames (mirrors `sonic-sim`'s link harness).
fn test_frames(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| Frame::Strip {
            page_id: 0x51_4E_49_43,
            column: (i % 1080) as u16,
            seq: (i / 1080) as u16,
            last: false,
            payload: (0..86)
                .map(|k| (k as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect(),
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut all_pass = true;
    // In smoke mode ratios are informational: one iteration on tiny inputs
    // proves the bench runs and the paths agree, not how fast the host is.
    let enforce = |need: f64| if smoke { 0.0 } else { need };
    let (samples, iters) = if smoke { (1, 1) } else { (5, 2) };

    // --- fm_demodulate_1s --------------------------------------------------
    // One second (228 000 samples) of modulated composite at the MPX rate.
    let n_bb = if smoke { 22_800 } else { MPX_RATE as usize };
    let composite: Vec<f32> = (0..n_bb)
        .map(|i| 0.5 * (std::f64::consts::TAU * 9_200.0 * i as f64 / MPX_RATE).sin() as f32)
        .collect();
    let mut baseband = Vec::with_capacity(n_bb);
    FmModulator::default().modulate_into(&composite, &mut baseband);
    let mut out = Vec::with_capacity(n_bb);
    let reference = best_time(samples, iters, || {
        out.clear();
        FmDemodulator::default().demodulate_into_reference(black_box(&baseband), &mut out);
        black_box(&out);
    });
    let optimized = best_time(samples, iters, || {
        out.clear();
        FmDemodulator::default().demodulate_into(black_box(&baseband), &mut out);
        black_box(&out);
    });
    all_pass &= check("fm_demodulate_1s", reference, optimized, enforce(1.5));

    // --- mpx_decompose_1s --------------------------------------------------
    // One second of composite carrying mono audio: no pilot and no RDS, so
    // the service detector skips every gated band filter in both paths and
    // the ratio compares the mono low-pass + resample.
    let mono: Vec<f32> = (0..n_bb * 441 / 2280)
        .map(|i| 0.4 * (std::f64::consts::TAU * 1_000.0 * i as f64 / 44_100.0).sin() as f32)
        .collect();
    let comp = compose(&MpxInput {
        mono,
        stereo_diff: None,
        rds_bits: None,
    });
    assert_eq!(
        decompose(&comp).mono.len(),
        decompose_reference(&comp).mono.len(),
        "fast and reference decomposers must agree on output length"
    );
    let reference = best_time(samples, iters, || {
        black_box(decompose_reference(black_box(&comp)));
    });
    let optimized = best_time(samples, iters, || {
        black_box(decompose(black_box(&comp)));
    });
    all_pass &= check("mpx_decompose_1s", reference, optimized, enforce(2.0));

    // --- fm_rx_page (end-to-end receive) -----------------------------------
    // TX side precomputed once: one page burst → OFDM audio → composite →
    // FM baseband → RF channel at −70 dB. The measured region is everything
    // the receiver does: FM discriminate, MPX decompose, OFDM demodulate.
    let profile = Profile::sonic_10k();
    let n_frames = if smoke { 4 } else { sonic_core::link::FRAMES_PER_BURST };
    let frames = test_frames(n_frames);
    let mut audio = link::modulate(&profile, &frames);
    scale_to_rms(&mut audio, 0.08);
    let comp = compose(&MpxInput {
        mono: audio,
        stereo_diff: None,
        rds_bits: None,
    });
    let mut bb = Vec::with_capacity(comp.len());
    FmModulator::default().modulate_into(&comp, &mut bb);
    let received = RfChannel::new(-70.0, 0x2551).transmit(&bb);

    let rx_fast = || {
        let mut recovered = Vec::with_capacity(received.len());
        FmDemodulator::default().demodulate_into(&received, &mut recovered);
        let mono = decompose(&recovered).mono;
        demodulate_frames(&profile, &mono)
            .iter()
            .filter(|f| f.payload.is_ok())
            .count()
    };
    let rx_reference = || {
        let mut recovered = Vec::with_capacity(received.len());
        FmDemodulator::default().demodulate_into_reference(&received, &mut recovered);
        let mono = decompose_reference(&recovered).mono;
        demodulate_frames_reference(&profile, &mono)
            .iter()
            .filter(|f| f.payload.is_ok())
            .count()
    };
    assert_eq!(
        rx_fast(),
        rx_reference(),
        "fast and reference receivers must recover the same frame count"
    );
    let reference = best_time(samples.min(3), 1, || {
        black_box(rx_reference());
    });
    let optimized = best_time(samples.min(3), 1, || {
        black_box(rx_fast());
    });
    all_pass &= check("fm_rx_page", reference, optimized, enforce(3.0));

    // --- ofdm_demodulate_1kB ------------------------------------------------
    let payload = vec![0xA5u8; if smoke { 100 } else { 1000 }];
    let ofdm_audio = modulate_frame(&profile, &payload);
    // Warm the thread-local codec cache.
    black_box(demodulate_frames(&profile, &ofdm_audio));
    black_box(demodulate_frames_reference(&profile, &ofdm_audio));
    let reference = best_time(samples, iters, || {
        black_box(demodulate_frames_reference(black_box(&profile), black_box(&ofdm_audio)));
    });
    let optimized = best_time(samples, iters, || {
        black_box(demodulate_frames(black_box(&profile), black_box(&ofdm_audio)));
    });
    all_pass &= check("ofdm_demodulate_1kB", reference, optimized, enforce(2.0));

    println!();
    if all_pass {
        println!("perf_radio_rx: all acceptance checks PASS");
    } else {
        println!("perf_radio_rx: some acceptance checks FAILED");
        std::process::exit(1);
    }
}
