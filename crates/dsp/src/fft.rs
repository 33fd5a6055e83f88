//! Radix-2 iterative Cooley-Tukey FFT on interleaved samples.
//!
//! [`Fft`] is the oracle of the planned split-plane transform
//! [`crate::plan::FftPlan`], which every OFDM and spectral path runs on:
//! the two share twiddle angles and butterfly arithmetic, so they agree bit
//! for bit. Sizes must be powers of two; the SONIC profiles use 1024.

use crate::complex::C32;

/// A reusable FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Twiddles for the forward transform: `e^{-2πjk/n}` for `k < n/2`.
    twiddles: Vec<C32>,
    /// Conjugated twiddles for the inverse transform. Precomputing them
    /// keeps the butterfly inner loop branch-free; `conj` is exact, so the
    /// arithmetic is bit-identical to conjugating on the fly.
    inv_twiddles: Vec<C32>,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
}

impl Fft {
    /// Builds a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two >= 2, got {n}");
        let mut twiddles = Vec::with_capacity(n / 2);
        for k in 0..n / 2 {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            twiddles.push(C32::from_angle(theta));
        }
        let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        Fft {
            n,
            twiddles,
            inv_twiddles,
            rev,
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans are at least 2 points. Present for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT: `X[k] = Σ x[t]·e^{-2πjkt/n}` (no scaling).
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [C32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse DFT, scaled by `1/n` so `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [C32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.permute(buf);
        self.butterflies(buf, true);
        let k = 1.0 / self.n as f32;
        for v in buf.iter_mut() {
            *v = v.scale(k);
        }
    }

    fn permute(&self, buf: &mut [C32]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [C32], inverse: bool) {
        let n = self.n;
        let tw = if inverse {
            &self.inv_twiddles
        } else {
            &self.twiddles
        };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                // Split at the block boundary so the two butterfly halves
                // index disjoint slices without bounds checks in the loop.
                let (lo, hi) = buf[start..start + len].split_at_mut(half);
                for (k, (a_ref, b_ref)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let w = tw[k * stride];
                    let a = *a_ref;
                    let b = *b_ref * w;
                    *a_ref = a + b;
                    *b_ref = a - b;
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[C32]) -> Vec<C32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = C32::ZERO;
                for (t, &v) in x.iter().enumerate() {
                    let theta = -2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
                    acc += v * C32::from_angle(theta);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft_16() {
        let x: Vec<C32> = (0..16)
            .map(|i| C32::new((i as f32 * 0.37).sin(), (i as f32 * 0.91).cos()))
            .collect();
        let want = naive_dft(&x);
        let fft = Fft::new(16);
        let mut got = x.clone();
        fft.forward(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn roundtrip_1024() {
        let fft = Fft::new(1024);
        let x: Vec<C32> = (0..1024)
            .map(|i| C32::new((i as f32 * 0.01).sin(), (i as f32 * 0.02).cos()))
            .collect();
        let mut buf = x.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(64);
        let mut buf = vec![C32::ZERO; 64];
        buf[0] = C32::ONE;
        fft.forward(&mut buf);
        for v in &buf {
            assert!((*v - C32::ONE).abs() < 1e-5);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 19;
        let fft = Fft::new(n);
        let mut buf: Vec<C32> = (0..n)
            .map(|t| C32::from_angle(2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64))
            .collect();
        fft.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f32).abs() < 1e-2);
            } else {
                assert!(v.abs() < 1e-2, "leak at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let fft = Fft::new(n);
        let x: Vec<C32> = (0..n).map(|i| C32::new((i as f32).sin(), 0.3)).collect();
        let time: f32 = x.iter().map(|v| v.norm_sq()).sum();
        let mut buf = x;
        fft.forward(&mut buf);
        let freq: f32 = buf.iter().map(|v| v.norm_sq()).sum::<f32>() / n as f32;
        assert!((time - freq).abs() / time < 1e-4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(100);
    }

    #[test]
    fn plan_forward_matches_fft_on_real_input() {
        for n in [4usize, 16, 64, 1024] {
            let signal: Vec<C32> = (0..n)
                .map(|i| C32::new((i as f32 * 0.137).sin() + 0.2, 0.0))
                .collect();
            let mut want = signal.clone();
            Fft::new(n).forward(&mut want);
            let mut got = crate::split::SplitC32::from_interleaved(&signal);
            crate::plan::FftPlan::new(n).forward_split(&mut got.re, &mut got.im);
            for (k, w) in want.iter().enumerate() {
                assert_eq!(got.re[k].to_bits(), w.re.to_bits(), "n={n} bin {k}");
                assert_eq!(got.im[k].to_bits(), w.im.to_bits(), "n={n} bin {k}");
            }
        }
    }

    #[test]
    fn inverse_matches_conjugate_identity() {
        // inverse(x) == conj(forward(conj(x)))/n: the two sides run the
        // conjugated and the forward twiddle tables.
        for n in [16usize, 64, 1024] {
            let x: Vec<C32> = (0..n)
                .map(|i| C32::new((i as f32 * 0.17).cos(), (i as f32 * 0.29).sin()))
                .collect();
            let fft = Fft::new(n);
            let mut got = x.clone();
            fft.inverse(&mut got);
            let mut want: Vec<C32> = x.iter().map(|v| v.conj()).collect();
            fft.forward(&mut want);
            let scale = (n as f32).sqrt();
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let w = w.conj().scale(1.0 / n as f32);
                assert!((*g - w).abs() < 1e-4 * scale, "n={n} bin {k}: {g:?} vs {w:?}");
            }
        }
    }
}
