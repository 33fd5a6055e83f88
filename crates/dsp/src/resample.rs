//! Rational resampling.
//!
//! The radio substrate runs at 480 kHz while the audio modem runs at
//! 44.1/48 kHz; this module converts between arbitrary rational rates with a
//! windowed-sinc polyphase kernel.

use crate::fir::design_lowpass;
use crate::simd;
use std::sync::Arc;

/// Greatest common divisor (Euclid).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Polyphase rational resampler converting `from_rate` → `to_rate`.
///
/// The polyphase bank is immutable and shared behind an [`Arc`], so cloning
/// a freshly built resampler is the cheap way to start another stream with
/// the same kernel.
#[derive(Debug, Clone)]
pub struct Resampler {
    /// Upsampling factor L.
    up: usize,
    /// Downsampling factor M.
    down: usize,
    /// Taps per polyphase branch (`T`).
    taps_per_phase: usize,
    /// Polyphase filter bank, `up` branches of `T` taps laid end to end and
    /// stored oldest-sample-first so each output is a forward dot product
    /// against a contiguous input window: `phases[p·T + k]` multiplies the
    /// window sample `T − 1 − k` steps behind the newest.
    phases: Arc<[f32]>,
    /// Last `T − 1` input samples (oldest first), carried between blocks.
    tail: Vec<f32>,
    /// Linearized window scratch: `tail ++ input` for the current block.
    ext: Vec<f32>,
    /// Output phase accumulator.
    phase: usize,
}

impl Resampler {
    /// Creates a resampler between two integer rates.
    ///
    /// `quality` sets the prototype filter length (taps ≈ quality × max(L,M)),
    /// 32 is a good default.
    ///
    /// # Panics
    /// Panics if either rate is zero.
    pub fn new(from_rate: usize, to_rate: usize, quality: usize) -> Self {
        Self::with_prefilter(from_rate, to_rate, quality, &[1.0])
    }

    /// Creates a resampler whose kernel first applies the FIR `taps` at the
    /// input rate: the output equals `Fir::new(taps)` followed by
    /// [`Resampler::new`] up to float rounding, at the cost of one dot
    /// product per *output* sample instead of a full-rate filter pass.
    ///
    /// The prefilter, upsampled by L, is convolved with the windowed-sinc
    /// prototype in `f64` and the sum rounded once, so each branch grows by
    /// `taps.len() − 1` taps. A single unit tap reproduces
    /// [`Resampler::new`] bit for bit.
    ///
    /// # Panics
    /// Panics if either rate is zero or `taps` is empty.
    pub fn with_prefilter(from_rate: usize, to_rate: usize, quality: usize, taps: &[f32]) -> Self {
        assert!(from_rate > 0 && to_rate > 0, "rates must be positive");
        assert!(!taps.is_empty(), "prefilter needs at least one tap");
        let g = gcd(from_rate, to_rate);
        let up = to_rate / g;
        let down = from_rate / g;
        // The prototype must be ~quality × max(L, M) taps long (at the
        // upsampled rate) or the transition band scales with the *larger*
        // factor and eats into the passband when decimating.
        let proto_per_phase = quality.max(4) * down.div_ceil(up).max(1);
        // Cut at the narrower of the two Nyquists, in units of the upsampled rate.
        let cutoff = 0.45 / up.max(down) as f64;
        let mut proto = design_lowpass(proto_per_phase * up, cutoff);
        for c in &mut proto {
            *c *= up as f32; // compensate zero-stuffing loss
        }
        // Kernel at the upsampled rate: proto ∗ (taps zero-stuffed by L).
        let taps_per_phase = proto_per_phase + taps.len() - 1;
        let mut kernel = vec![0.0f64; taps_per_phase * up];
        for (l, &h) in taps.iter().enumerate() {
            let h = f64::from(h);
            for (k, &c) in kernel[l * up..].iter_mut().zip(&proto) {
                *k += h * f64::from(c);
            }
        }
        let mut phases = vec![0.0f32; taps_per_phase * up];
        for (i, &c) in kernel.iter().enumerate() {
            // Reversed tap order (oldest-first) so `process_into` reads each
            // window as one contiguous forward slice.
            let (p, k) = (i % up, i / up);
            phases[p * taps_per_phase + taps_per_phase - 1 - k] = c as f32;
        }
        Resampler {
            up,
            down,
            taps_per_phase,
            phases: phases.into(),
            tail: vec![0.0; taps_per_phase - 1],
            ext: Vec::new(),
            phase: 0,
        }
    }

    /// The exact rational ratio `(L, M)` in lowest terms.
    pub fn ratio(&self) -> (usize, usize) {
        (self.up, self.down)
    }

    /// Resamples a block, appending outputs to `out`.
    pub fn process_into(&mut self, input: &[f32], out: &mut Vec<f32>) {
        // Walk the phase accumulator once up front so the output region can
        // be sized exactly — no amortized growth in the streaming path.
        let mut count = 0usize;
        let mut ph = self.phase;
        for _ in 0..input.len() {
            while ph < self.up {
                count += 1;
                ph += self.down;
            }
            ph -= self.up;
        }
        let start = out.len();
        out.resize(start + count, 0.0);
        if input.is_empty() {
            return;
        }
        let o = &mut out[start..];
        // Linearize the delay line once per block instead of rotating a
        // history buffer per sample: with `ext = tail ++ input`, the window
        // ending at `input[i]` is the contiguous slice `ext[i..i + T]`
        // (oldest first), matching the reversed tap order built in
        // `with_prefilter`.
        let t = self.taps_per_phase;
        let m = t - 1;
        self.ext.resize(m + input.len(), 0.0);
        self.ext[..m].copy_from_slice(&self.tail);
        self.ext[m..].copy_from_slice(input);
        let mut j = 0usize;
        for i in 0..input.len() {
            // Each input advances the virtual upsampled clock by `up` ticks;
            // outputs fire every `down` ticks.
            while self.phase < self.up {
                let taps = &self.phases[self.phase * t..(self.phase + 1) * t];
                o[j] = simd::dot(taps, &self.ext[i..i + t]);
                j += 1;
                self.phase += self.down;
            }
            self.phase -= self.up;
        }
        // The last T − 1 samples of this block seed the next window.
        self.tail.copy_from_slice(&self.ext[self.ext.len() - m..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f32> {
        (0..n).map(|i| (TAU * f * i as f64 / fs).sin() as f32).collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    #[test]
    fn output_length_matches_ratio() {
        let mut r = Resampler::new(48000, 44100, 16);
        let mut out = Vec::new();
        r.process_into(&vec![0.0; 48000], &mut out);
        let expect = 44100.0;
        assert!((out.len() as f64 - expect).abs() < 50.0, "got {}", out.len());
    }

    #[test]
    fn upsample_preserves_tone_level() {
        let mut r = Resampler::new(44100, 88200, 32);
        let sig = tone(44100.0, 1000.0, 44100);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        let level = rms(&out[4000..out.len() - 4000]);
        assert!((level - std::f32::consts::FRAC_1_SQRT_2).abs() < 0.05, "rms={level}");
    }

    #[test]
    fn downsample_preserves_tone_level() {
        let mut r = Resampler::new(96000, 48000, 32);
        let sig = tone(96000.0, 1000.0, 96000);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        let level = rms(&out[4000..out.len() - 4000]);
        assert!((level - std::f32::consts::FRAC_1_SQRT_2).abs() < 0.05, "rms={level}");
    }

    #[test]
    fn rational_ratio_is_reduced() {
        let r = Resampler::new(480000, 48000, 8);
        assert_eq!(r.ratio(), (1, 10));
        let r = Resampler::new(44100, 48000, 8);
        assert_eq!(r.ratio(), (160, 147));
    }

    #[test]
    fn identity_rate_passes_signal() {
        let mut r = Resampler::new(48000, 48000, 32);
        let sig = tone(48000.0, 2000.0, 9600);
        let mut out = Vec::new();
        r.process_into(&sig, &mut out);
        assert_eq!(out.len(), sig.len());
        // Aside from the filter delay, energy should match.
        assert!((rms(&out[2000..]) - rms(&sig[2000..])).abs() < 0.05);
    }
}
