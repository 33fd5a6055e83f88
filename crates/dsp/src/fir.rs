//! FIR filter design and streaming application.
//!
//! Filters are designed with the windowed-sinc method (Hamming window by
//! default), which is plenty for the roll-offs the FM multiplexer and the
//! acoustic channel models need. Streaming state is kept in the filter so the
//! radio pipeline can process audio in arbitrary block sizes.

use crate::complex::C32;
use crate::plan::FirPlan;
use crate::simd;
use crate::split::SplitC32;
use crate::window::{generate, Window};
use std::f64::consts::PI;
use std::sync::Arc;

/// Designs a linear-phase low-pass FIR with `taps` coefficients.
///
/// `cutoff` is the -6 dB point as a fraction of the sample rate (0..0.5).
/// Odd tap counts are recommended so the group delay is an integer number of
/// samples (`(taps-1)/2`).
///
/// # Panics
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5)`.
pub fn design_lowpass(taps: usize, cutoff: f64) -> Vec<f32> {
    assert!(taps > 0, "need at least one tap");
    assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5), got {cutoff}");
    let m = (taps - 1) as f64 / 2.0;
    let window = generate(Window::Hamming, taps);
    let mut h: Vec<f32> = (0..taps)
        .map(|i| {
            let t = i as f64 - m;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * t).sin() / (PI * t)
            };
            sinc as f32 * window[i]
        })
        .collect();
    // Normalize to unity DC gain.
    let sum: f32 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Designs a band-pass FIR centered between `low` and `high` (fractions of
/// the sample rate) by subtracting two low-passes.
///
/// # Panics
/// Panics unless `0 < low < high < 0.5`.
pub fn design_bandpass(taps: usize, low: f64, high: f64) -> Vec<f32> {
    assert!(low > 0.0 && high > low && high < 0.5, "need 0 < low < high < 0.5");
    let lp_high = design_lowpass(taps, high);
    let lp_low = design_lowpass(taps, low);
    lp_high
        .iter()
        .zip(&lp_low)
        .map(|(h, l)| h - l)
        .collect()
}

/// A streaming FIR filter with internal history.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f32>,
    /// Circular history of the most recent `taps.len()-1` inputs.
    history: Vec<f32>,
    pos: usize,
    /// Linearized window scratch for [`Fir::process`].
    scratch: Vec<f32>,
}

impl Fir {
    /// Wraps a coefficient vector in a streaming filter.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            history: vec![0.0; n],
            pos: 0,
            scratch: Vec::new(),
        }
    }

    /// Group delay in samples for the linear-phase designs in this module.
    pub fn delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// The coefficient vector.
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Filters one sample.
    #[inline]
    pub fn push(&mut self, x: f32) -> f32 {
        let n = self.taps.len();
        self.history[self.pos] = x;
        let mut acc = 0.0f32;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += t * self.history[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a block in place.
    ///
    /// Linearizes history + block into a contiguous scratch window so every
    /// output is a straight dot product over a contiguous slice — no
    /// per-sample circular-index wraparound or memmove. Accumulation order
    /// matches [`Fir::push`], so the output is bit-identical to
    /// [`Fir::process_reference`].
    pub fn process(&mut self, buf: &mut [f32]) {
        if buf.is_empty() {
            return;
        }
        let n = self.taps.len();
        let m = n - 1;
        // scratch = the m most recent inputs (oldest→newest) ++ buf.
        self.scratch.clear();
        self.scratch.reserve(m + buf.len());
        for j in 1..n {
            self.scratch.push(self.history[(self.pos + j) % n]);
        }
        self.scratch.extend_from_slice(buf);
        // Taps newest-first over each window, accumulated in `push` order;
        // the kernel vectorizes across outputs so every output's sum is
        // still bit-identical to the scalar twin.
        simd::fir_mac(&self.taps, &self.scratch, buf);
        // Restore the circular history invariant for subsequent `push`es:
        // slots 0..m hold the m most recent samples oldest→newest and the
        // next write lands on slot m.
        let e = self.scratch.len();
        self.history[..m].copy_from_slice(&self.scratch[e - m..]);
        self.pos = m;
    }

    /// Original per-sample implementation of [`Fir::process`], kept as the
    /// executable specification for equivalence tests.
    pub fn process_reference(&mut self, buf: &mut [f32]) {
        for v in buf.iter_mut() {
            *v = self.push(*v);
        }
    }

    /// Resets the history to silence.
    pub fn reset(&mut self) {
        self.history.fill(0.0);
        self.pos = 0;
    }
}

/// Tap count at and above which [`BlockFir`]/[`BlockFirC`] beat the direct
/// form on typical hosts (FFT cost amortizes over the block).
pub const BLOCK_FIR_MIN_TAPS: usize = 64;

/// Picks the overlap-save FFT size for a tap count: the block length
/// (`fft − taps + 1`) stays at least ~3× the tap count so the two
/// transforms amortize well.
pub(crate) fn overlap_save_fft_size(taps: usize) -> usize {
    (4 * taps).next_power_of_two().max(128)
}

/// Overlap-save frames transformed per batched FFT sweep: enough to amortize
/// the per-batch bookkeeping while keeping the frame scratch around L2-sized.
const BLOCK_FIR_BATCH: usize = 8;

/// Streaming FFT overlap-save convolution for real signals.
///
/// Drop-in replacement for [`Fir::process`] when the filter is long
/// (≥ [`BLOCK_FIR_MIN_TAPS`] taps): output differs from the direct form only
/// by FFT rounding (relative error ~1e-6), while the cost per sample drops
/// from `O(taps)` to `O(log taps)`. Two blocks of the real signal are packed
/// into the real/imaginary parts of one complex FFT frame, halving the
/// transform count.
#[derive(Debug, Clone)]
pub struct BlockFir {
    /// Shared immutable plan: FFT + tap spectrum (see [`FirPlan`]).
    plan: Arc<FirPlan>,
    /// The `taps − 1` most recent inputs (streaming history).
    tail: Vec<f32>,
    /// Split-plane scratch for up to [`BLOCK_FIR_BATCH`] frames.
    frames: SplitC32,
    /// `(a_start, a_len, b_start, b_len)` for each gathered frame.
    spans: Vec<(usize, usize, usize, usize)>,
    ext: Vec<f32>,
}

impl BlockFir {
    /// Builds an overlap-save engine for a coefficient vector.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: &[f32]) -> Self {
        BlockFir::with_plan(FirPlan::shared(taps))
    }

    /// Builds a stream over an existing shared plan (no re-planning: many
    /// receivers can stream through clones of one `Arc<FirPlan>`).
    pub fn with_plan(plan: Arc<FirPlan>) -> Self {
        let m = plan.taps_len() - 1;
        BlockFir {
            plan,
            tail: vec![0.0; m],
            frames: SplitC32::new(),
            spans: Vec::new(),
            ext: Vec::new(),
        }
    }

    /// Group delay in samples for the linear-phase designs in this module.
    pub fn delay(&self) -> usize {
        self.plan.delay()
    }

    /// Filters a block in place (streaming: history carries across calls).
    ///
    /// Frames are gathered [`BLOCK_FIR_BATCH`] at a time and pushed through
    /// the plan's batched split-plane transforms; each frame still packs two
    /// real blocks into the real/imaginary planes, so the SoA layout *is*
    /// the two-blocks-per-transform packing with no interleave step.
    pub fn process(&mut self, buf: &mut [f32]) {
        if buf.is_empty() {
            return;
        }
        let m = self.plan.taps_len() - 1;
        let n = self.plan.fft().len();
        let block = self.plan.block();
        // ext = history ++ input; every FFT frame is a contiguous slice of it.
        self.ext.clear();
        self.ext.reserve(m + buf.len());
        self.ext.extend_from_slice(&self.tail);
        self.ext.extend_from_slice(buf);
        let total = buf.len();
        let mut p = 0usize;
        while p < total {
            // Gather up to BLOCK_FIR_BATCH frames. Block A of each frame
            // fills the real plane and block B (the next one) the imaginary
            // plane: both convolve with the real taps in one transform pair.
            self.spans.clear();
            let mut q = p;
            while q < total && self.spans.len() < BLOCK_FIR_BATCH {
                let a_len = block.min(total - q);
                let b_start = q + a_len;
                let b_len = block.min(total.saturating_sub(b_start));
                // lint: allow(no-alloc) — span list reuses retained capacity (≤ BLOCK_FIR_BATCH entries)
                self.spans.push((q, a_len, b_start, b_len));
                q = b_start + b_len;
            }
            let nb = self.spans.len();
            self.frames.resize(nb * n);
            for (f, &(a0, a_len, b0, b_len)) in self.spans.iter().enumerate() {
                let re = &mut self.frames.re[f * n..(f + 1) * n];
                let im = &mut self.frames.im[f * n..(f + 1) * n];
                for i in 0..n {
                    re[i] = if i < m + a_len { self.ext[a0 + i] } else { 0.0 };
                    im[i] = if i < m + b_len { self.ext[b0 + i] } else { 0.0 };
                }
            }
            self.plan.fft().forward_batch(&mut self.frames);
            self.plan.apply_spectrum(&mut self.frames);
            self.plan.fft().inverse_batch(&mut self.frames);
            for (f, &(a0, a_len, b0, b_len)) in self.spans.iter().enumerate() {
                let re = &self.frames.re[f * n..(f + 1) * n];
                let im = &self.frames.im[f * n..(f + 1) * n];
                debug_assert!(m + a_len.max(b_len) <= n);
                buf[a0..a0 + a_len].copy_from_slice(&re[m..m + a_len]);
                buf[b0..b0 + b_len].copy_from_slice(&im[m..m + b_len]);
            }
            p = q;
        }
        let e = self.ext.len();
        self.tail.copy_from_slice(&self.ext[e - m..]);
    }

    /// Filters `input`, appending the output to `out`.
    pub fn process_into(&mut self, input: &[f32], out: &mut Vec<f32>) {
        let start = out.len();
        out.extend_from_slice(input);
        self.process(&mut out[start..]);
    }

    /// Resets the history to silence.
    pub fn reset(&mut self) {
        self.tail.fill(0.0);
    }
}

/// Streaming FFT overlap-save convolution of a complex signal with a real
/// tap vector (e.g. the I/Q baseband low-pass after downconversion, which
/// otherwise costs two full direct-form FIRs per sample).
#[derive(Debug, Clone)]
pub struct BlockFirC {
    /// Shared immutable plan: FFT + tap spectrum (see [`FirPlan`]).
    plan: Arc<FirPlan>,
    tail: Vec<C32>,
    /// Split-plane scratch for up to [`BLOCK_FIR_BATCH`] frames.
    frames: SplitC32,
    /// `(start, chunk)` for each gathered frame.
    spans: Vec<(usize, usize)>,
    ext: Vec<C32>,
}

impl BlockFirC {
    /// Builds an overlap-save engine for a coefficient vector.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: &[f32]) -> Self {
        BlockFirC::with_plan(FirPlan::shared(taps))
    }

    /// Builds a stream over an existing shared plan (no re-planning).
    pub fn with_plan(plan: Arc<FirPlan>) -> Self {
        let m = plan.taps_len() - 1;
        BlockFirC {
            plan,
            tail: vec![C32::ZERO; m],
            frames: SplitC32::new(),
            spans: Vec::new(),
            ext: Vec::new(),
        }
    }

    /// Group delay in samples for the linear-phase designs in this module.
    pub fn delay(&self) -> usize {
        self.plan.delay()
    }

    /// Filters a block in place (streaming: history carries across calls).
    pub fn process(&mut self, buf: &mut [C32]) {
        if buf.is_empty() {
            return;
        }
        let m = self.plan.taps_len() - 1;
        let n = self.plan.fft().len();
        let block = self.plan.block();
        self.ext.clear();
        self.ext.reserve(m + buf.len());
        self.ext.extend_from_slice(&self.tail);
        self.ext.extend_from_slice(buf);
        let total = buf.len();
        let mut p = 0usize;
        while p < total {
            self.spans.clear();
            let mut q = p;
            while q < total && self.spans.len() < BLOCK_FIR_BATCH {
                let chunk = block.min(total - q);
                // lint: allow(no-alloc) — span list reuses retained capacity (≤ BLOCK_FIR_BATCH entries)
                self.spans.push((q, chunk));
                q += chunk;
            }
            let nb = self.spans.len();
            self.frames.resize(nb * n);
            for (f, &(start, chunk)) in self.spans.iter().enumerate() {
                let re = &mut self.frames.re[f * n..(f + 1) * n];
                let im = &mut self.frames.im[f * n..(f + 1) * n];
                for i in 0..n {
                    if i < m + chunk {
                        let v = self.ext[start + i];
                        re[i] = v.re;
                        im[i] = v.im;
                    } else {
                        re[i] = 0.0;
                        im[i] = 0.0;
                    }
                }
            }
            self.plan.fft().forward_batch(&mut self.frames);
            self.plan.apply_spectrum(&mut self.frames);
            self.plan.fft().inverse_batch(&mut self.frames);
            for (f, &(start, chunk)) in self.spans.iter().enumerate() {
                let re = &self.frames.re[f * n..(f + 1) * n];
                let im = &self.frames.im[f * n..(f + 1) * n];
                for i in 0..chunk {
                    buf[start + i] = C32::new(re[m + i], im[m + i]);
                }
            }
            p = q;
        }
        let e = self.ext.len();
        self.tail.copy_from_slice(&self.ext[e - m..]);
    }

    /// Filters `input`, appending the output to `out`.
    pub fn process_into(&mut self, input: &[C32], out: &mut Vec<C32>) {
        let start = out.len();
        out.extend_from_slice(input);
        self.process(&mut out[start..]);
    }

    /// Resets the history to silence.
    pub fn reset(&mut self) {
        self.tail.fill(C32::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures filter magnitude response at a normalized frequency by
    /// running a tone through it and comparing RMS.
    fn gain_at(taps: &[f32], freq: f64) -> f32 {
        let mut fir = Fir::new(taps.to_vec());
        let n = 4096;
        let mut out_energy = 0.0f64;
        let mut in_energy = 0.0f64;
        for i in 0..n {
            let x = (2.0 * PI * freq * i as f64).sin() as f32;
            let y = fir.push(x);
            if i > taps.len() {
                in_energy += (x as f64) * (x as f64);
                out_energy += (y as f64) * (y as f64);
            }
        }
        (out_energy / in_energy).sqrt() as f32
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let h = design_lowpass(101, 0.1);
        assert!(gain_at(&h, 0.02) > 0.95, "passband should be ~1");
        assert!(gain_at(&h, 0.25) < 0.01, "stopband should be ~0");
    }

    #[test]
    fn lowpass_unity_dc_gain() {
        let h = design_lowpass(63, 0.2);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bandpass_rejects_both_sides() {
        let h = design_bandpass(201, 0.15, 0.25);
        assert!(gain_at(&h, 0.2) > 0.9, "center of band should pass");
        assert!(gain_at(&h, 0.05) < 0.02, "below band should be rejected");
        assert!(gain_at(&h, 0.35) < 0.02, "above band should be rejected");
    }

    #[test]
    fn fir_impulse_response_replays_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut fir = Fir::new(taps.clone());
        let got: Vec<f32> = (0..3)
            .map(|i| fir.push(if i == 0 { 1.0 } else { 0.0 }))
            .collect();
        assert_eq!(got, taps);
    }

    #[test]
    fn fir_reset_clears_history() {
        let mut fir = Fir::new(vec![1.0, 1.0]);
        fir.push(5.0);
        fir.reset();
        assert_eq!(fir.push(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        let _ = design_lowpass(11, 0.6);
    }

    /// Deterministic pseudo-random signal for equivalence tests.
    fn noise(n: usize, seed: u32) -> Vec<f32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                ((x >> 16) as f32 / 32768.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn process_is_bit_identical_to_reference() {
        let taps = design_lowpass(101, 0.2);
        let sig = noise(1000, 7);
        let mut a = Fir::new(taps.clone());
        let mut b = Fir::new(taps);
        let mut got = sig.clone();
        let mut want = sig;
        // Split the block processing at awkward boundaries to exercise the
        // history hand-off.
        let (g1, g2) = got.split_at_mut(137);
        a.process(g1);
        a.process(g2);
        b.process_reference(&mut want);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn block_fir_matches_direct_form() {
        for taps_len in [1usize, 3, 64, 101, 257] {
            let taps = if taps_len == 1 {
                vec![0.7]
            } else {
                design_lowpass(taps_len, 0.17)
            };
            let sig = noise(2000, taps_len as u32);
            let mut want = sig.clone();
            Fir::new(taps.clone()).process_reference(&mut want);
            let mut got = sig;
            BlockFir::new(&taps).process(&mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-4, "taps {taps_len} sample {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn block_fir_is_streaming() {
        let taps = design_lowpass(257, 0.1);
        let sig = noise(3000, 42);
        let mut whole = sig.clone();
        BlockFir::new(&taps).process(&mut whole);
        // Odd chunk sizes, including chunks smaller than the tap count.
        let mut split = sig;
        let mut f = BlockFir::new(&taps);
        let mut at = 0usize;
        for chunk in [13usize, 250, 999, 1, 1737] {
            let hi = (at + chunk).min(split.len());
            f.process(&mut split[at..hi]);
            at = hi;
        }
        for (i, (g, w)) in split.iter().zip(&whole).enumerate() {
            assert!((g - w).abs() < 1e-5, "sample {i}: {g} vs {w}");
        }
    }

    #[test]
    fn block_fir_complex_matches_two_real_filters() {
        let taps = design_lowpass(101, 0.22);
        let re = noise(1500, 5);
        let im = noise(1500, 9);
        let mut want_re = re.clone();
        let mut want_im = im.clone();
        Fir::new(taps.clone()).process_reference(&mut want_re);
        Fir::new(taps.clone()).process_reference(&mut want_im);
        let mut buf: Vec<C32> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| C32::new(r, i))
            .collect();
        let mut f = BlockFirC::new(&taps);
        let (b1, b2) = buf.split_at_mut(733);
        f.process(b1);
        f.process(b2);
        for (i, v) in buf.iter().enumerate() {
            assert!((v.re - want_re[i]).abs() < 1e-4, "re {i}");
            assert!((v.im - want_im[i]).abs() < 1e-4, "im {i}");
        }
    }

    #[test]
    fn block_fir_reset_clears_history() {
        let taps = design_lowpass(65, 0.2);
        let mut f = BlockFir::new(&taps);
        let mut warm = noise(500, 3);
        f.process(&mut warm);
        f.reset();
        let mut fresh = noise(500, 3);
        let mut want = fresh.clone();
        BlockFir::new(&taps).process(&mut want);
        f.process(&mut fresh);
        for (g, w) in fresh.iter().zip(&want) {
            assert!((g - w).abs() < 1e-6);
        }
    }
}
