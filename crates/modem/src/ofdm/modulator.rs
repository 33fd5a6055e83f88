//! OFDM burst modulator.
//!
//! Builds the complex-baseband symbol stream (preamble, training, header,
//! payload), upconverts it onto the profile's audio carrier and applies
//! raised-cosine edge ramps so the burst keys on and off without clicks.

use super::carriers::CarrierPlan;
use crate::constellation::{map_bits, points, Modulation};
use crate::profile::Profile;
use sonic_dsp::osc::{upconvert, Nco, PhasorTable};
use sonic_dsp::window::raised_cosine_edge;
use sonic_dsp::{Fft, SplitC32, C32};

/// Reusable working memory for [`Modulator::modulate_bits_into`].
///
/// Replaces the per-call oscillator trig and the per-symbol `Vec`
/// allocations of [`Modulator::modulate_bits`]; output is bit-identical
/// (the phasor table replays the NCO recurrence exactly, and every reused
/// buffer is fully rewritten before use).
#[derive(Debug)]
pub struct ModulatorScratch {
    phasors: PhasorTable,
    /// FFT-size split planes each symbol is scattered into and transformed
    /// in.
    sym: SplitC32,
    /// Complex-baseband burst buffer.
    baseband: Vec<C32>,
    /// Cached raised-cosine edge ramp (keyed by its length).
    ramp: Vec<f32>,
}

impl ModulatorScratch {
    /// Creates scratch sized lazily for `profile`'s oscillator.
    pub fn new(profile: &Profile) -> Self {
        ModulatorScratch {
            phasors: PhasorTable::new(profile.sample_rate, profile.center_freq),
            sym: SplitC32::new(),
            baseband: Vec::new(),
            ramp: Vec::new(),
        }
    }
}

/// Reusable modulator for one profile.
#[derive(Debug)]
pub struct Modulator {
    profile: Profile,
    plan: CarrierPlan,
    /// FFT bin of every pilot carrier, in pilot order.
    pilot_bins: Vec<usize>,
    /// FFT bin of every data carrier, in transmission order.
    data_bins: Vec<usize>,
    /// Payload constellation by packed bit pattern (first bit most
    /// significant), i.e. [`points`] of the profile's modulation.
    payload_points: Vec<C32>,
    /// Header constellation: [`points`] of BPSK.
    header_points: Vec<C32>,
}

impl Modulator {
    /// Creates a modulator (validates the profile).
    pub fn new(profile: Profile) -> Self {
        let plan = CarrierPlan::new(&profile);
        let pilot_bins = plan.pilot_idx.iter().map(|&i| plan.bins[i]).collect();
        let data_bins = plan.data_idx.iter().map(|&i| plan.bins[i]).collect();
        Modulator {
            payload_points: points(profile.modulation),
            header_points: points(Modulation::Bpsk),
            profile,
            plan,
            pilot_bins,
            data_bins,
        }
    }

    /// The profile this modulator implements.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The carrier plan (shared with the demodulator in tests).
    pub fn plan(&self) -> &CarrierPlan {
        &self.plan
    }

    /// Converts frequency-domain carrier values into one time-domain symbol
    /// (IFFT + cyclic prefix), appended to `out` as complex baseband.
    fn push_symbol(&self, fft: &Fft, values: &[C32], out: &mut Vec<C32>) {
        let mut buf = vec![C32::ZERO; self.profile.fft_size];
        self.plan.scatter(values, &mut buf);
        fft.inverse(&mut buf);
        // √N undoes the 1/N of the inverse FFT up to unitary scaling; the
        // final burst level is normalized to `tx_level` in `modulate_bits`.
        let gain = (self.profile.fft_size as f32).sqrt();
        let cp = self.profile.cp_len;
        let n = self.profile.fft_size;
        // Cyclic prefix: last cp samples first.
        for v in &buf[n - cp..n] {
            out.push(v.scale(gain));
        }
        for v in buf.iter() {
            out.push(v.scale(gain));
        }
    }

    /// Builds the complex-baseband burst for already-FEC-coded payload bits
    /// plus the coded header bits.
    fn baseband(&self, header_bits: &[u8], payload_bits: &[u8]) -> Vec<C32> {
        let plan = &self.plan;
        let fft = Fft::new(self.profile.fft_size);
        let active = plan.bins.len();
        let mut out = Vec::new();

        // Preamble (Schmidl-Cox) and two training symbols.
        self.push_symbol(&fft, &plan.preamble, &mut out);
        self.push_symbol(&fft, &plan.training, &mut out);
        self.push_symbol(&fft, &plan.training, &mut out);

        // Header symbol: BPSK on data carriers, pilots in place.
        let mut header_vals = vec![C32::ZERO; active];
        for (k, &idx) in plan.pilot_idx.iter().enumerate() {
            header_vals[idx] = plan.pilot_values[k];
        }
        for (k, &idx) in plan.data_idx.iter().enumerate() {
            let bit = header_bits.get(k).copied().unwrap_or((k % 2) as u8);
            header_vals[idx] = map_bits(Modulation::Bpsk, &[bit]);
        }
        self.push_symbol(&fft, &header_vals, &mut out);

        // Payload symbols.
        let bps = self.profile.modulation.bits_per_symbol();
        let per_sym = self.profile.data_carriers * bps;
        let n_syms = payload_bits.len().div_ceil(per_sym);
        for s in 0..n_syms {
            let mut vals = vec![C32::ZERO; active];
            for (k, &idx) in plan.pilot_idx.iter().enumerate() {
                vals[idx] = plan.pilot_values[k];
            }
            for (c, &idx) in plan.data_idx.iter().enumerate() {
                let mut bits = [0u8; 10];
                for (b, bit) in bits.iter_mut().enumerate().take(bps) {
                    let pos = s * per_sym + c * bps + b;
                    *bit = payload_bits.get(pos).copied().unwrap_or(((pos ^ (pos >> 3)) % 2) as u8);
                }
                vals[idx] = map_bits(self.profile.modulation, &bits[..bps]);
            }
            self.push_symbol(&fft, &vals, &mut out);
        }
        out
    }

    /// Modulates coded header/payload bits into real audio samples: the
    /// executable specification of [`modulate_bits_into`](Self::modulate_bits_into),
    /// on the interleaved oracle FFT and a live oscillator.
    ///
    /// The output includes `cp_len` samples of leading and trailing silence
    /// as an inter-burst guard.
    pub fn modulate_bits(&self, header_bits: &[u8], payload_bits: &[u8]) -> Vec<f32> {
        let baseband = self.baseband(header_bits, payload_bits);
        let mut nco = Nco::new(self.profile.sample_rate, self.profile.center_freq);
        let mut audio = Vec::with_capacity(baseband.len() + 2 * self.profile.cp_len);
        audio.resize(self.profile.cp_len, 0.0);
        upconvert(&mut nco, &baseband, &mut audio);

        // Normalize burst RMS to the profile level.
        let body = &audio[self.profile.cp_len..];
        let rms = (body.iter().map(|&x| x * x).sum::<f32>() / body.len().max(1) as f32).sqrt();
        if rms > 1e-12 {
            let g = self.profile.tx_level / rms;
            for v in audio.iter_mut() {
                *v *= g;
            }
        }

        // Edge ramps over the first/last 64 modulated samples.
        let ramp = raised_cosine_edge(64.min(baseband.len() / 2));
        let start = self.profile.cp_len;
        for (i, &r) in ramp.iter().enumerate() {
            audio[start + i] *= r;
        }
        let end = audio.len();
        for (i, &r) in ramp.iter().enumerate() {
            audio[end - 1 - i] *= r;
        }
        audio.resize(end + self.profile.cp_len, 0.0);
        audio
    }

    /// Transforms the scattered symbol in `sym` (IFFT on the carrier plan's
    /// FFT) and appends it to `out` with its cyclic prefix, scaled by √N.
    fn push_symbol_into(&self, sym: &mut SplitC32, out: &mut Vec<C32>) {
        self.plan.fft().inverse_split(&mut sym.re, &mut sym.im);
        let gain = (self.profile.fft_size as f32).sqrt();
        let cp = self.profile.cp_len;
        let n = self.profile.fft_size;
        let start = out.len();
        out.resize(start + cp + n, C32::ZERO);
        // Cyclic prefix (last cp samples) first, then the whole body.
        let (prefix, body) = out[start..].split_at_mut(cp);
        for (o, (&re, &im)) in prefix
            .iter_mut()
            .zip(sym.re[n - cp..].iter().zip(&sym.im[n - cp..]))
        {
            *o = C32::new(re, im).scale(gain);
        }
        for (o, (&re, &im)) in body.iter_mut().zip(sym.re.iter().zip(&sym.im)) {
            *o = C32::new(re, im).scale(gain);
        }
    }

    /// Zeroes `sym` to one FFT-size symbol and places `values` at `bins`.
    fn scatter_into(&self, bins: &[usize], values: &[C32], sym: &mut SplitC32) {
        sym.resize(self.profile.fft_size);
        sym.fill_zero();
        for (&b, &v) in bins.iter().zip(values) {
            put(sym, b, v);
        }
    }

    /// Allocation-free variant of [`modulate_bits`](Self::modulate_bits):
    /// all working memory lives in `scratch`, the audio is appended to a
    /// cleared `audio`, carriers map through the constellation tables and
    /// the oscillator trig comes from the scratch's phasor table. Coded bits
    /// are 0 or 1. Output is bit-identical to `modulate_bits`.
    pub fn modulate_bits_into(
        &self,
        header_bits: &[u8],
        payload_bits: &[u8],
        scratch: &mut ModulatorScratch,
        audio: &mut Vec<f32>,
    ) {
        let plan = &self.plan;
        let baseband = &mut scratch.baseband;
        let sym = &mut scratch.sym;
        baseband.clear();

        // Preamble (Schmidl-Cox) and two training symbols.
        for values in [&plan.preamble, &plan.training, &plan.training] {
            self.scatter_into(&plan.bins, values, sym);
            self.push_symbol_into(sym, baseband);
        }

        // Header symbol: BPSK on data carriers, pilots in place.
        self.scatter_into(&self.pilot_bins, &plan.pilot_values, sym);
        for (k, &b) in self.data_bins.iter().enumerate() {
            let bit = header_bits.get(k).copied().unwrap_or((k % 2) as u8);
            put(sym, b, self.header_points[usize::from(bit == 1)]);
        }
        self.push_symbol_into(sym, baseband);

        // Payload symbols; a partial last symbol is padded with the same
        // filler bits as `modulate_bits`.
        let bps = self.profile.modulation.bits_per_symbol();
        let per_sym = self.profile.data_carriers * bps;
        let n_syms = payload_bits.len().div_ceil(per_sym);
        let pattern = |bits: &[u8]| {
            bits.iter()
                .fold(0usize, |acc, &bit| (acc << 1) | usize::from(bit & 1))
        };
        for s in 0..n_syms {
            self.scatter_into(&self.pilot_bins, &plan.pilot_values, sym);
            let first = s * per_sym;
            match payload_bits.get(first..first + per_sym) {
                Some(bits) => {
                    for (&b, bits) in self.data_bins.iter().zip(bits.chunks_exact(bps)) {
                        put(sym, b, self.payload_points[pattern(bits)]);
                    }
                }
                None => {
                    for (c, &b) in self.data_bins.iter().enumerate() {
                        let mut bits = [0u8; 10];
                        for (i, bit) in bits.iter_mut().enumerate().take(bps) {
                            let pos = first + c * bps + i;
                            *bit = payload_bits
                                .get(pos)
                                .copied()
                                .unwrap_or(((pos ^ (pos >> 3)) % 2) as u8);
                        }
                        put(sym, b, self.payload_points[pattern(&bits[..bps])]);
                    }
                }
            }
            self.push_symbol_into(sym, baseband);
        }

        // Upconvert with cached phasors and apply the same normalization and
        // edge ramps as `modulate_bits`.
        audio.clear();
        audio.reserve(baseband.len() + 2 * self.profile.cp_len);
        audio.resize(self.profile.cp_len, 0.0);
        scratch.phasors.upconvert(baseband, audio);

        let body = &audio[self.profile.cp_len..];
        let rms = (body.iter().map(|&x| x * x).sum::<f32>() / body.len().max(1) as f32).sqrt();
        if rms > 1e-12 {
            let g = self.profile.tx_level / rms;
            for v in audio.iter_mut() {
                *v *= g;
            }
        }

        let ramp_len = 64.min(baseband.len() / 2);
        if scratch.ramp.len() != ramp_len {
            scratch.ramp = raised_cosine_edge(ramp_len);
        }
        let start = self.profile.cp_len;
        for (i, &r) in scratch.ramp.iter().enumerate() {
            audio[start + i] *= r;
        }
        let end = audio.len();
        for (i, &r) in scratch.ramp.iter().enumerate() {
            audio[end - 1 - i] *= r;
        }
        audio.resize(end + self.profile.cp_len, 0.0);
    }
}

/// Writes carrier value `v` into FFT bin `bin` of the split planes.
fn put(sym: &mut SplitC32, bin: usize, v: C32) {
    sym.re[bin] = v.re;
    sym.im[bin] = v.im;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_dsp::measure;

    /// Full spectrum of `audio`, zero-padded to a power of two.
    fn spectrum(audio: &[f32]) -> Vec<C32> {
        let n = audio.len().next_power_of_two();
        let mut buf: Vec<C32> = audio.iter().map(|&x| C32::new(x, 0.0)).collect();
        buf.resize(n, C32::ZERO);
        Fft::new(n).forward(&mut buf);
        buf
    }

    fn modulator() -> Modulator {
        Modulator::new(Profile::sonic_10k())
    }

    #[test]
    fn burst_length_matches_profile_math() {
        let m = modulator();
        let p = m.profile().clone();
        let header = vec![0u8; 80];
        let payload = vec![1u8; p.bits_per_symbol() * 3];
        let audio = m.modulate_bits(&header, &payload);
        // 4 overhead symbols + 3 payload symbols + 2 guards.
        let want = 7 * p.symbol_len() + 2 * p.cp_len;
        assert_eq!(audio.len(), want);
    }

    #[test]
    fn burst_rms_is_profile_level() {
        let m = modulator();
        let audio = m.modulate_bits(&[1; 80], &vec![0u8; 552 * 2]);
        let body = &audio[m.profile().cp_len..audio.len() - m.profile().cp_len];
        let rms = measure::rms(body) as f32;
        assert!((rms - m.profile().tx_level).abs() < 0.05, "rms {rms}");
    }

    #[test]
    fn spectrum_is_centered_on_carrier() {
        let m = modulator();
        let audio = m.modulate_bits(&[1; 80], &vec![0u8; 552 * 4]);
        let spec = spectrum(&audio);
        let n = spec.len();
        let fs = m.profile().sample_rate;
        let bin_hz = fs / n as f64;
        // Energy inside the occupied band vs. far outside.
        let band = |f_lo: f64, f_hi: f64| -> f64 {
            let lo = (f_lo / bin_hz) as usize;
            let hi = (f_hi / bin_hz) as usize;
            spec[lo..hi].iter().map(|v| v.norm_sq() as f64).sum()
        };
        let center = m.profile().center_freq;
        let half_bw = m.profile().bandwidth() / 2.0 + 200.0;
        let in_band = band(center - half_bw, center + half_bw);
        let below = band(500.0, center - half_bw - 1000.0);
        let above = band(center + half_bw + 1000.0, fs / 2.0 - 500.0);
        // Unwindowed OFDM has sinc sidelobes, so demand ~93% of the energy
        // in band rather than a hard stopband.
        assert!(in_band > 14.0 * (below + above), "in {in_band}, out {}", below + above);
    }

    #[test]
    fn guard_silence_present() {
        let m = modulator();
        let audio = m.modulate_bits(&[0; 80], &vec![1u8; 552]);
        let cp = m.profile().cp_len;
        assert!(audio[..cp].iter().all(|&x| x == 0.0));
        assert!(audio[audio.len() - cp..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        for p in [Profile::sonic_10k(), Profile::audible_7k()] {
            let m = Modulator::new(p.clone());
            let mut scratch = ModulatorScratch::new(&p);
            let header: Vec<u8> = (0..80).map(|i| ((i * 5) % 2) as u8).collect();
            let mut audio = Vec::new();
            for payload_len in [0usize, 552, 552 * 3 + 17] {
                let payload: Vec<u8> = (0..payload_len).map(|i| ((i ^ (i >> 2)) % 2) as u8).collect();
                let want = m.modulate_bits(&header, &payload);
                m.modulate_bits_into(&header, &payload, &mut scratch, &mut audio);
                assert_eq!(want.len(), audio.len(), "{}: len {payload_len}", p.name);
                for (k, (w, g)) in want.iter().zip(&audio).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "{}: sample {k}", p.name);
                }
            }
        }
    }

    #[test]
    fn preamble_halves_repeat_in_time_domain() {
        // The Schmidl-Cox property: body of symbol 0 (after CP) has two
        // identical halves at complex baseband; check on the real passband
        // via autocorrelation of the modulated audio.
        let m = modulator();
        let p = m.profile().clone();
        let audio = m.modulate_bits(&[0; 80], &vec![0u8; 552]);
        let start = p.cp_len /* guard */ + p.cp_len /* preamble CP */;
        let half = p.fft_size / 2;
        let a = &audio[start..start + half];
        let b = &audio[start + half..start + p.fft_size];
        // Passband halves differ by the carrier phase rotation over half a
        // symbol; compare magnitudes of the analytic correlation instead.
        let mut corr = 0.0f64;
        let mut ea = 0.0f64;
        let mut eb = 0.0f64;
        // Use Hilbert-free trick: correlate a with b and a with shifted b to
        // capture the rotation; simply require the energy profiles to match.
        for i in 0..half {
            corr += (a[i] as f64) * (b[i] as f64);
            ea += (a[i] as f64).powi(2);
            eb += (b[i] as f64).powi(2);
        }
        let _ = corr; // sign depends on carrier phase; energies must match.
        assert!((ea - eb).abs() / ea < 0.05, "halves energy {ea} vs {eb}");
    }
}
