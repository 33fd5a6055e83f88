//! Property-based tests of the DSP primitives.

use proptest::prelude::*;
use sonic_dsp::fft::Fft;
use sonic_dsp::fir::{design_bandpass, design_lowpass, BlockFir, Fir};
use sonic_dsp::plan::FftPlan;
use sonic_dsp::resample::Resampler;
use sonic_dsp::simd;
use sonic_dsp::window::{generate, Window};
use sonic_dsp::C32;

/// Feeds `signal` through a fresh direct-form FIR, one sample at a time.
fn direct_form(taps: &[f32], signal: &[f32]) -> Vec<f32> {
    let mut fir = Fir::new(taps.to_vec());
    signal.iter().map(|&x| fir.push(x)).collect()
}

/// Feeds `signal` through a fresh overlap-save FIR in chunks of `block`.
fn overlap_save(taps: &[f32], signal: &[f32], block: usize) -> Vec<f32> {
    let mut fir = BlockFir::new(taps);
    let mut out = signal.to_vec();
    for chunk in out.chunks_mut(block.max(1)) {
        fir.process(chunk);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// forward ∘ inverse is the identity for every power-of-two size.
    #[test]
    fn fft_roundtrip(
        log_n in 1u32..10,
        seed in any::<u32>(),
    ) {
        let n = 1usize << log_n;
        let fft = Fft::new(n);
        let mut x = seed;
        let orig: Vec<C32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                let re = ((x >> 16) as f32 / 32768.0) - 1.0;
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                let im = ((x >> 16) as f32 / 32768.0) - 1.0;
                C32::new(re, im)
            })
            .collect();
        let mut buf = orig.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-3);
        }
    }

    /// Parseval holds for random signals at random sizes.
    #[test]
    fn fft_parseval(log_n in 2u32..9, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let fft = Fft::new(n);
        let mut x = seed | 1;
        let sig: Vec<C32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(48271);
                C32::new(((x >> 16) & 0xFF) as f32 / 255.0 - 0.5, 0.1)
            })
            .collect();
        let time: f64 = sig.iter().map(|v| v.norm_sq() as f64).sum();
        let mut buf = sig;
        fft.forward(&mut buf);
        let freq: f64 = buf.iter().map(|v| v.norm_sq() as f64).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= time * 1e-3 + 1e-6);
    }

    /// FIR impulse response replays the taps for any tap vector.
    #[test]
    fn fir_impulse_is_taps(taps in proptest::collection::vec(-1.0f32..1.0, 1..32)) {
        let mut fir = Fir::new(taps.clone());
        let got: Vec<f32> = (0..taps.len())
            .map(|i| fir.push(if i == 0 { 1.0 } else { 0.0 }))
            .collect();
        for (g, t) in got.iter().zip(&taps) {
            prop_assert!((g - t).abs() < 1e-6);
        }
    }

    /// Overlap-save equals the direct form on an impulse for any tap count
    /// (including the FFT path's minimum and odd lengths) and any block size.
    #[test]
    fn overlap_save_impulse(n_taps in 1usize..300, block in 1usize..700) {
        let taps: Vec<f32> = (0..n_taps)
            .map(|i| ((i as f32 * 0.37).sin() * 0.9) / (1.0 + i as f32 * 0.01))
            .collect();
        let mut signal = vec![0.0f32; (2 * n_taps).max(64)];
        signal[0] = 1.0;
        let want = direct_form(&taps, &signal);
        let got = overlap_save(&taps, &signal, block);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() < 1e-4, "tap-impulse sample {i}: {g} vs {w}");
        }
    }

    /// Overlap-save equals the direct form on a step input (worst case for
    /// accumulated DC error) for odd block sizes.
    #[test]
    fn overlap_save_step(n_taps in 1usize..300, block in 1usize..700) {
        let taps = design_lowpass(n_taps.max(3) | 1, 0.1);
        let signal = vec![1.0f32; 1000];
        let want = direct_form(&taps, &signal);
        let got = overlap_save(&taps, &signal, block | 1);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() < 1e-4, "step sample {i}: {g} vs {w}");
        }
    }

    /// Overlap-save equals the direct form on random signals, random tap
    /// sets, and random (odd and even) streaming block sizes.
    #[test]
    fn overlap_save_random(
        n_taps in 1usize..300,
        block in 1usize..700,
        seed in any::<u32>(),
    ) {
        let mut x = seed | 1;
        let mut rnd = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        let taps: Vec<f32> = (0..n_taps).map(|_| rnd() * 0.5).collect();
        let signal: Vec<f32> = (0..1200).map(|_| rnd()).collect();
        let want = direct_form(&taps, &signal);
        let got = overlap_save(&taps, &signal, block);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() < 2e-4, "random sample {i}: {g} vs {w}");
        }
    }

    /// Low-pass design always has unit DC gain.
    #[test]
    fn lowpass_dc_gain(taps in 3usize..200, cutoff in 0.01f64..0.49) {
        let h = design_lowpass(taps, cutoff);
        let sum: f32 = h.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// Resampler output length tracks the rational ratio for any rates.
    #[test]
    fn resampler_length(from in 1000usize..50_000, to in 1000usize..50_000) {
        let mut r = Resampler::new(from, to, 8);
        let n_in = 2048usize;
        let mut out = Vec::new();
        r.process_into(&vec![0.25f32; n_in], &mut out);
        let expect = n_in as f64 * to as f64 / from as f64;
        prop_assert!(
            (out.len() as f64 - expect).abs() <= expect * 0.02 + 8.0,
            "{} vs {}", out.len(), expect
        );
    }

    /// The dispatched FIR MAC kernel is bit-identical to its scalar twin on
    /// random taps, random (including zero) output lengths, and unaligned
    /// window offsets.
    #[test]
    fn simd_fir_mac_matches_reference_bit_exactly(
        n_taps in 1usize..64,
        n in 0usize..300,
        offset in 0usize..8,
        seed in any::<u32>(),
    ) {
        let mut x = seed | 1;
        let mut rnd = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        let taps: Vec<f32> = (0..n_taps).map(|_| rnd()).collect();
        let window: Vec<f32> = (0..offset + n + n_taps - 1).map(|_| rnd()).collect();
        let view = &window[offset..];
        let mut fast = vec![0.0f32; n];
        let mut reference = vec![0.0f32; n];
        simd::fir_mac(&taps, view, &mut fast);
        simd::fir_mac_reference(&taps, view, &mut reference);
        for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "sample {}: {} vs {}", i, f, r);
        }
    }

    /// The discriminator kernels (`x·conj(y)` product and scaled atan2) are
    /// bit-identical to their scalar twins on random odd lengths and
    /// unaligned slice starts.
    #[test]
    fn simd_discriminator_kernels_match_reference_bit_exactly(
        n in 0usize..300,
        offset in 0usize..4,
        scale in 0.1f32..10.0,
        seed in any::<u32>(),
    ) {
        let mut x = seed | 1;
        let mut rnd = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        let a: Vec<C32> = (0..offset + n).map(|_| C32::new(rnd(), rnd())).collect();
        let b: Vec<C32> = (0..offset + n).map(|_| C32::new(rnd(), rnd())).collect();
        let (a, b) = (&a[offset..], &b[offset..]);
        let (mut re_f, mut im_f) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (mut re_r, mut im_r) = (vec![0.0f32; n], vec![0.0f32; n]);
        simd::mul_conj_split(a, b, &mut re_f, &mut im_f);
        simd::mul_conj_split_reference(a, b, &mut re_r, &mut im_r);
        for i in 0..n {
            prop_assert_eq!(re_f[i].to_bits(), re_r[i].to_bits(), "re[{}]", i);
            prop_assert_eq!(im_f[i].to_bits(), im_r[i].to_bits(), "im[{}]", i);
        }
        let mut ang_f = vec![0.0f32; n];
        let mut ang_r = vec![0.0f32; n];
        simd::atan2_scale(&im_f, &re_f, scale, &mut ang_f);
        simd::atan2_scale_reference(&im_r, &re_r, scale, &mut ang_r);
        for i in 0..n {
            prop_assert_eq!(ang_f[i].to_bits(), ang_r[i].to_bits(), "angle[{}]", i);
        }
    }

    /// The planned split-plane forward FFT is bit-identical to the
    /// interleaved `Fft::forward`, and the planned round trip
    /// (forward ∘ inverse) recovers the input within 1e-5 RMS.
    #[test]
    fn fft_plan_split_matches_fft(log_n in 1u32..11, seed in any::<u32>()) {
        let n = 1usize << log_n;
        let mut x = seed | 1;
        let mut rnd = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 16) as f32 / 32768.0) - 1.0
        };
        let orig: Vec<C32> = (0..n).map(|_| C32::new(rnd(), rnd())).collect();
        let mut interleaved = orig.clone();
        Fft::new(n).forward(&mut interleaved);
        let plan = FftPlan::new(n);
        let mut re: Vec<f32> = orig.iter().map(|v| v.re).collect();
        let mut im: Vec<f32> = orig.iter().map(|v| v.im).collect();
        plan.forward_split(&mut re, &mut im);
        for i in 0..n {
            prop_assert_eq!(re[i].to_bits(), interleaved[i].re.to_bits(), "re[{}]", i);
            prop_assert_eq!(im[i].to_bits(), interleaved[i].im.to_bits(), "im[{}]", i);
        }
        plan.inverse_split(&mut re, &mut im);
        let err: f64 = (0..n)
            .map(|i| {
                let d = C32::new(re[i] - orig[i].re, im[i] - orig[i].im);
                d.norm_sq() as f64
            })
            .sum::<f64>()
            / n as f64;
        prop_assert!(err.sqrt() <= 1e-5, "round-trip RMS {} at n = {}", err.sqrt(), n);
    }

    /// Windows are bounded in [0, 1] and symmetric.
    #[test]
    fn window_bounds(n in 2usize..512) {
        for kind in [Window::Hann, Window::Hamming, Window::Blackman] {
            let w = generate(kind, n);
            for (i, &v) in w.iter().enumerate() {
                prop_assert!((-1e-6..=1.0 + 1e-6).contains(&v), "{kind:?}[{i}] = {v}");
                let mirror = w[n - 1 - i];
                prop_assert!((v - mirror).abs() < 1e-5, "{kind:?} asymmetric at {i}");
            }
        }
    }

    /// A prefiltered resampler equals the prefilter followed by the plain
    /// resampler (float rounding only), and its output does not depend on
    /// how the input is split across `process_into` calls.
    #[test]
    fn prefiltered_resampler_matches_fir_then_resample(
        rate_pair in 0usize..4,
        n_taps in 1usize..300,
        band_frac in 0.1f64..0.9,
        bandpass in any::<bool>(),
        n in 0usize..4000,
        cuts in proptest::collection::vec(0usize..4000, 0..4),
        seed in any::<u32>(),
    ) {
        let (from, to) = [(228_000, 44_100), (48_000, 44_100), (96_000, 48_000), (44_100, 48_000)]
            [rate_pair];
        // Keep the prefilter's passband inside the resampler's (0.45 of the
        // narrower Nyquist) so the output carries signal, not stopband
        // leakage, and the relative error is meaningful.
        let cutoff = band_frac * 0.45 * from.min(to) as f64 / from as f64;
        let taps = if bandpass && n_taps > 2 {
            design_bandpass(n_taps, cutoff / 2.0, (cutoff / 2.0 + 0.15).min(0.49))
        } else {
            design_lowpass(n_taps, cutoff)
        };
        let mut x = seed | 1;
        let signal: Vec<f32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                ((x >> 16) as f32 / 32768.0) - 1.0
            })
            .collect();

        let mut filtered = signal.clone();
        Fir::new(taps.clone()).process(&mut filtered);
        let mut want = Vec::new();
        Resampler::new(from, to, 32).process_into(&filtered, &mut want);

        let fused = Resampler::with_prefilter(from, to, 32, &taps);
        let mut whole = Vec::new();
        fused.clone().process_into(&signal, &mut whole);
        prop_assert_eq!(whole.len(), want.len());
        let (mut err, mut pow) = (0.0f64, 0.0f64);
        for (g, w) in whole.iter().zip(&want) {
            err += (f64::from(*g) - f64::from(*w)).powi(2);
            pow += f64::from(*w).powi(2);
        }
        prop_assert!(
            err <= 1e-12 * pow.max(1e-30),
            "relative RMS {} ({from}→{to}, {n_taps} taps)", (err / pow.max(1e-30)).sqrt()
        );

        let mut bounds = cuts.iter().map(|&c| c.min(n)).collect::<Vec<_>>();
        bounds.sort_unstable();
        let mut split = Vec::new();
        let mut r = fused;
        let mut at = 0usize;
        for b in bounds.into_iter().chain([n]) {
            r.process_into(&signal[at..b], &mut split);
            at = b;
        }
        prop_assert_eq!(split.len(), whole.len());
        for (i, (g, w)) in split.iter().zip(&whole).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {} differs across splits", i);
        }
    }
}
