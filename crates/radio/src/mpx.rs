//! FM stereo multiplex composer/decomposer (Figure 2 of the paper).
//!
//! Composite layout at the 228 kHz rate:
//!
//! ```text
//! 0–15 kHz   mono (L+R)            — SONIC's data band lives here (9.2 kHz)
//! 19 kHz     stereo pilot
//! 23–53 kHz  stereo difference (L−R), DSB-SC on 38 kHz
//! 57 kHz     RDS subcarrier (1187.5 bps)
//! ```
//!
//! Pre-emphasis (50 µs) is applied to the audio channels before matrixing
//! and undone by the decomposer, exactly as a real exciter/tuner pair does —
//! this is what gives the 9.2 kHz data carrier its favourable post-detection
//! SNR despite FM's triangular noise spectrum.

use crate::{rds, AUDIO_RATE, MPX_RATE, PILOT_HZ, STEREO_SUB_HZ};
use sonic_dsp::fir::{design_bandpass, design_lowpass, BlockFir, Fir};
use sonic_dsp::iir::{Deemphasis, Preemphasis};
use sonic_dsp::plan::FirPlan;
use sonic_dsp::resample::Resampler;
use sonic_dsp::window::{generate, Window};
use std::f64::consts::TAU;
use std::sync::Arc;

/// Modulation levels (fractions of peak deviation).
mod level {
    /// Mono (or L+R) channel.
    pub const MONO: f32 = 0.80;
    /// 19 kHz pilot tone.
    pub const PILOT: f32 = 0.09;
    /// Stereo difference channel.
    pub const STEREO: f32 = 0.80;
    /// RDS subcarrier.
    pub const RDS: f32 = 0.05;
}

/// Input to the composer.
#[derive(Debug, Clone, Default)]
pub struct MpxInput {
    /// Mono program + data audio at 44.1 kHz (required).
    pub mono: Vec<f32>,
    /// Optional stereo difference (L−R) at 44.1 kHz, same length as `mono`.
    pub stereo_diff: Option<Vec<f32>>,
    /// Optional RDS bit stream (1187.5 bps).
    pub rds_bits: Option<Vec<u8>>,
}

/// Builds the 228 kHz composite from audio channels and RDS bits.
pub fn compose(input: &MpxInput) -> Vec<f32> {
    let n_out_hint = input.mono.len() * (MPX_RATE / AUDIO_RATE) as usize + 64;

    // Pre-emphasize then upsample the mono channel.
    let mut mono = input.mono.clone();
    Preemphasis::new(AUDIO_RATE, 50e-6).process(&mut mono);
    let mut up = Resampler::new(AUDIO_RATE as usize, MPX_RATE as usize, 32);
    let mut mono_up = Vec::with_capacity(n_out_hint);
    up.process_into(&mono, &mut mono_up);

    let stereo_up = input.stereo_diff.as_ref().map(|d| {
        assert_eq!(d.len(), input.mono.len(), "stereo diff length mismatch");
        let mut diff = d.clone();
        Preemphasis::new(AUDIO_RATE, 50e-6).process(&mut diff);
        let mut up = Resampler::new(AUDIO_RATE as usize, MPX_RATE as usize, 32);
        let mut out = Vec::with_capacity(n_out_hint);
        up.process_into(&diff, &mut out);
        out
    });

    let rds_wave = input
        .rds_bits
        .as_ref()
        .map(|bits| rds::modulate_subcarrier(bits, 1.0));

    let n = mono_up.len();
    let mut composite = Vec::with_capacity(n);
    let stereo_present = stereo_up.is_some();
    for (i, &mono) in mono_up.iter().enumerate() {
        let t = i as f64;
        let mut s = 0.0f32;
        let mono_gain = if stereo_present {
            level::MONO * 0.5
        } else {
            level::MONO
        };
        s += mono_gain * mono;
        if let Some(diff) = &stereo_up {
            let sub = (TAU * STEREO_SUB_HZ * t / MPX_RATE).cos() as f32;
            s += level::PILOT * (TAU * PILOT_HZ * t / MPX_RATE).sin() as f32;
            s += level::STEREO * 0.5 * diff.get(i).copied().unwrap_or(0.0) * sub;
        }
        if let Some(rds) = &rds_wave {
            s += level::RDS * rds.get(i).copied().unwrap_or(0.0);
        }
        composite.push(s.clamp(-1.0, 1.0));
    }
    composite
}

/// Output of the decomposer.
#[derive(Debug, Clone)]
pub struct MpxOutput {
    /// Recovered mono audio at 44.1 kHz (de-emphasized).
    pub mono: Vec<f32>,
    /// Raw RDS bits sliced from the 57 kHz subcarrier; empty unless the
    /// service detector found an RDS subcarrier.
    pub rds_bits: Vec<u8>,
    /// Recovered stereo difference at 44.1 kHz when a pilot was detected.
    pub stereo_diff: Option<Vec<f32>>,
}

/// Number of taps in every band-select filter of the decomposer.
const BAND_TAPS: usize = 257;

/// Most spectrum frames the service detector averages, whatever the
/// composite's length.
const DETECT_FRAMES: usize = 32;

/// The decomposer's fixed band-select filters, indexable into
/// [`band_filters`]'s cache.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// 0–16 kHz mono low-pass (also the post-mix stereo low-pass).
    MonoLp = 0,
    /// 18–20 kHz pilot band-pass.
    PilotBp = 1,
    /// 22–54 kHz stereo-difference band-pass.
    StereoBp = 2,
    /// 36–40 kHz regenerated-carrier band-pass (squared pilot).
    CarrierBp = 3,
    /// 54.5–59.5 kHz RDS band-pass.
    RdsBp = 4,
}

/// Filter designs, shared overlap-save plans for every [`Band`], the fused
/// mono kernel and the service detector's window.
struct BandFilters {
    taps: [Vec<f32>; 5],
    plans: [Arc<FirPlan>; 5],
    /// The mono low-pass folded into the 228 kHz → 44.1 kHz resampler;
    /// cloned (sharing its kernel) for every stream.
    mono_down: Resampler,
    /// Hann window over one detector frame (the plans' FFT size).
    window: Vec<f32>,
}

/// All band designs are fixed by the MPX layout, so the windowed-sinc
/// designs, their overlap-save FFT plans and the fused mono kernel are built
/// once per process and shared by every decompose call (and every receiver
/// thread).
fn band_filters() -> &'static BandFilters {
    use std::sync::OnceLock;
    static CACHE: OnceLock<BandFilters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let taps = [
            design_lowpass(BAND_TAPS, 16_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 18_000.0 / MPX_RATE, 20_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 22_000.0 / MPX_RATE, 54_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 36_000.0 / MPX_RATE, 40_000.0 / MPX_RATE),
            design_bandpass(BAND_TAPS, 54_500.0 / MPX_RATE, 59_500.0 / MPX_RATE),
        ];
        let plans = taps.each_ref().map(|t| FirPlan::shared(t));
        let mono_down = Resampler::with_prefilter(
            MPX_RATE as usize,
            AUDIO_RATE as usize,
            32,
            &taps[Band::MonoLp as usize],
        );
        let window = generate(Window::Hann, plans[Band::PilotBp as usize].fft().len());
        BandFilters {
            taps,
            plans,
            mono_down,
            window,
        }
    })
}

/// Applies a band-select FIR in place, either with the fast overlap-save
/// engine or the direct form the decomposer originally used. The two differ
/// only by FFT rounding (~1e-6 relative).
fn band_filter(signal: &mut [f32], band: Band, fast: bool) {
    let f = band_filters();
    let i = band as usize;
    if fast {
        BlockFir::with_plan(Arc::clone(&f.plans[i])).process(signal);
    } else {
        Fir::new(f.taps[i].clone()).process(signal);
    }
}

/// Band-selects a copy of `signal`.
fn band_select(signal: &[f32], band: Band, fast: bool) -> Vec<f32> {
    let mut out = signal.to_vec();
    band_filter(&mut out, band, fast);
    out
}

/// Mean power of a signal (0 when empty).
fn mean_power(x: &[f32]) -> f32 {
    x.iter().map(|&v| v * v).sum::<f32>() / x.len().max(1) as f32
}

/// Mono low-pass, 228 kHz → 44.1 kHz and de-emphasis. The fast path is one
/// polyphase dot product per output sample with the low-pass folded into the
/// resampler's kernel; the reference runs the direct-form low-pass at the
/// composite rate and then the plain resampler.
fn to_audio(signal: &[f32], fast: bool) -> Vec<f32> {
    let mut out = Vec::with_capacity(signal.len() / 5 + 1);
    if fast {
        band_filters().mono_down.clone().process_into(signal, &mut out);
    } else {
        let low = band_select(signal, Band::MonoLp, false);
        Resampler::new(MPX_RATE as usize, AUDIO_RATE as usize, 32).process_into(&low, &mut out);
    }
    Deemphasis::new(AUDIO_RATE, 50e-6).process(&mut out);
    out
}

/// Optional services found in a composite by [`detect_services`].
#[derive(Debug, Clone, Copy, Default)]
struct Services {
    pilot: bool,
    rds: bool,
}

/// Finds the 19 kHz pilot and the 57 kHz RDS subcarrier by their spectral
/// shape, so channel noise — however strong — never reads as a service.
///
/// A Hann-windowed periodogram averages at most [`DETECT_FRAMES`] evenly
/// spaced frames of the band plans' FFT size (2048 samples), so the work is
/// bounded whatever the composite's length. The pilot's bin must stand 20×
/// (in power) above the 18 and 20 kHz bins beside it. RDS, whose biphase
/// spectrum peaks 1.2 kHz either side of its null at 57 kHz, must have both
/// 1 kHz-wide lobes (55.3–56.3 and 57.7–58.7 kHz) 1.5× above a 61–63 kHz
/// guard band: wide enough to average the noise down, low enough to keep the
/// subcarrier at −80 dB RSSI, where it reads about 1.9× and still yields
/// groups. FM noise rises only gently across each span, so without a service
/// the ratios stay near 1 (at most 1.4 for the pilot and 1.1 for the RDS
/// lobes over −70…−100 dB). A composite shorter than one frame carries
/// neither.
fn detect_services(composite: &[f32]) -> Services {
    let f = band_filters();
    let fft = f.plans[Band::PilotBp as usize].fft();
    let n = fft.len();
    let frames = (composite.len() / n).min(DETECT_FRAMES);
    if frames == 0 {
        return Services::default();
    }
    let bin = |hz: f64| (hz * n as f64 / MPX_RATE).round() as usize;
    let mut power = vec![0.0f64; bin(63_000.0) + 1];
    let (mut re, mut im) = (vec![0.0f32; n], vec![0.0f32; n]);
    let span = composite.len() - n;
    for i in 0..frames {
        let start = if frames > 1 { i * span / (frames - 1) } else { 0 };
        for ((r, &x), &w) in re.iter_mut().zip(&composite[start..start + n]).zip(&f.window) {
            *r = x * w;
        }
        im.fill(0.0);
        fft.forward_split(&mut re, &mut im);
        for (p, (&a, &b)) in power.iter_mut().zip(re.iter().zip(&im)) {
            *p += f64::from(a * a + b * b);
        }
    }
    // Mean periodogram power over the bins spanning `lo..=hi` Hz.
    let band = |lo: f64, hi: f64| {
        let bins = &power[bin(lo)..=bin(hi)];
        bins.iter().sum::<f64>() / bins.len() as f64
    };
    let at = |hz: f64| band(hz, hz);
    let rds_lobes = band(55_300.0, 56_300.0).min(band(57_700.0, 58_700.0));
    Services {
        pilot: at(PILOT_HZ) > 20.0 * at(18_000.0).max(at(20_000.0)),
        rds: rds_lobes > 1.5 * band(61_000.0, 63_000.0),
    }
}

/// Splits a 228 kHz composite back into its services.
///
/// This is the fast receive path. The mono channel — SONIC's data band — is
/// low-passed and decimated to 44.1 kHz in one polyphase pass whose kernel
/// already contains the 16 kHz mono low-pass, so its cost is one dot product
/// per *output* sample. The pilot and RDS band filters, and the whole stereo
/// branch, run at the composite rate through the overlap-save [`BlockFir`]
/// only when the service detector finds that service (and its band power
/// clears the absolute level gate). Output matches [`decompose_reference`]
/// to float rounding (~1e-6 relative; the tests bound the RMS error and
/// check that the frame-loss curve is unchanged).
pub fn decompose(composite: &[f32]) -> MpxOutput {
    decompose_impl(composite, true)
}

/// Direct-form reference decomposer: every band filter in direct form at the
/// composite rate, followed by the plain [`Resampler`]. It shares the fast
/// path's service detector and is kept as the executable specification.
pub fn decompose_reference(composite: &[f32]) -> MpxOutput {
    decompose_impl(composite, false)
}

fn decompose_impl(composite: &[f32], fast: bool) -> MpxOutput {
    let mono = to_audio(composite, fast);
    let services = detect_services(composite);

    // --- pilot: detector first, then the absolute level gate ---
    let pilot = if services.pilot {
        let pilot = band_select(composite, Band::PilotBp, fast);
        (mean_power(&pilot) > (level::PILOT * level::PILOT) * 0.5 * 0.2).then_some(pilot)
    } else {
        None
    };

    // --- stereo difference ---
    let stereo_diff = pilot.map(|pilot| {
        let band = band_select(composite, Band::StereoBp, fast);
        // Regenerate 38 kHz by squaring the pilot (classic receiver trick):
        // sin²(ωt) = (1 − cos 2ωt)/2 ⇒ bandpass at 38 kHz gives −cos(2ωt)/2.
        let mut sq: Vec<f32> = pilot.iter().map(|&p| p * p).collect();
        band_filter(&mut sq, Band::CarrierBp, fast);
        // Normalize the regenerated carrier to unit amplitude.
        let carrier_rms = mean_power(&sq).sqrt();
        let norm = if carrier_rms > 1e-9 {
            std::f32::consts::FRAC_1_SQRT_2 / carrier_rms
        } else {
            0.0
        };
        // The pilot path runs through two 257-tap FIRs (pilot BP, then the
        // 38 kHz BP after squaring) = 256 samples of delay, while the stereo
        // band passed only one (128). Delay the band by the difference or
        // the product term lands 120° out of phase at 38 kHz.
        let extra_delay = 128usize;
        // Mix: diff·cos(2ω)·cos(2ω) = diff/2 + diff·cos(4ω)/2; LPF keeps diff/2.
        let mixed: Vec<f32> = sq
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let b = if i >= extra_delay { band[i - extra_delay] } else { 0.0 };
                -2.0 * b * c * norm * 2.0 / level::STEREO
            })
            .collect();
        to_audio(&mixed, fast)
    });

    // --- RDS: detector first, then the absolute level gate ---
    let mut rds_bits = Vec::new();
    if services.rds {
        let band = band_select(composite, Band::RdsBp, fast);
        if mean_power(&band) > (level::RDS * level::RDS) * 0.05 {
            rds_bits = rds::demodulate_subcarrier(&band);
        }
    }

    MpxOutput {
        mono,
        rds_bits,
        stereo_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * f * i as f64 / AUDIO_RATE).sin() as f32)
            .collect()
    }

    fn rms(x: &[f32]) -> f32 {
        (x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32).sqrt()
    }

    /// Correlation-based gain between a reference tone and a recovered one,
    /// tolerant of the pipeline's group delay.
    fn tone_level(signal: &[f32], f: f64) -> f32 {
        2.0 * sonic_dsp::goertzel::power(signal, AUDIO_RATE, f).sqrt()
    }

    #[test]
    fn mono_roundtrip_preserves_tone() {
        let mono = tone(9_200.0, 44_100, 0.5);
        let comp = compose(&MpxInput {
            mono: mono.clone(),
            ..Default::default()
        });
        let out = decompose(&comp);
        let skip = 4000;
        let got = tone_level(&out.mono[skip..], 9_200.0);
        // Composite path applies level::MONO then recovers; compare shape.
        let want = 0.5 * level::MONO;
        assert!((got - want).abs() / want < 0.15, "got {got} want {want}");
    }

    #[test]
    fn mono_only_has_no_pilot_or_stereo() {
        let comp = compose(&MpxInput {
            mono: tone(1_000.0, 22_050, 0.5),
            ..Default::default()
        });
        let out = decompose(&comp);
        assert!(out.stereo_diff.is_none());
        assert!(out.rds_bits.is_empty());
    }

    #[test]
    fn rds_survives_the_multiplex() {
        let g = rds::Group([0x54A8, 0x0408, 0x2020, 0x4849]);
        let mut bits = Vec::new();
        for _ in 0..4 {
            bits.extend(rds::encode_group(&g));
        }
        let n_audio = (bits.len() * rds::SAMPLES_PER_BIT) / 5 + 4410;
        let comp = compose(&MpxInput {
            mono: tone(800.0, n_audio, 0.4),
            rds_bits: Some(bits),
            ..Default::default()
        });
        let out = decompose(&comp);
        let groups = rds::decode_groups(&out.rds_bits);
        assert!(!groups.is_empty(), "no RDS groups recovered");
        assert!(groups.iter().all(|got| *got == g));
    }

    #[test]
    fn stereo_difference_roundtrips() {
        let mono = tone(1_000.0, 66_150, 0.4);
        let diff = tone(2_500.0, 66_150, 0.3);
        let comp = compose(&MpxInput {
            mono: mono.clone(),
            stereo_diff: Some(diff.clone()),
            ..Default::default()
        });
        let out = decompose(&comp);
        let rec = out.stereo_diff.expect("pilot must be detected");
        let skip = 8000;
        let got = tone_level(&rec[skip..], 2_500.0);
        // Stereo path halves the diff level at compose (0.5·STEREO); the
        // decomposer rescales by 2/STEREO, so expect ≈ the original 0.3.
        assert!((got - 0.3).abs() < 0.08, "stereo diff level {got}");
        // Mono leak into the stereo channel should be small.
        let leak = tone_level(&rec[skip..], 1_000.0);
        assert!(leak < 0.1, "mono leak {leak}");
    }

    #[test]
    fn fast_decompose_matches_reference() {
        // All services active so every band filter (including the stereo
        // branch with its squared-pilot 38 kHz regeneration) runs.
        let comp = compose(&MpxInput {
            mono: tone(1_000.0, 44_100, 0.4),
            stereo_diff: Some(tone(2_500.0, 44_100, 0.3)),
            rds_bits: Some([1, 0, 1, 1, 0, 0, 1, 0].repeat(24)),
        });
        let fast = decompose(&comp);
        let slow = decompose_reference(&comp);

        let rel_rms = |a: &[f32], b: &[f32]| -> f64 {
            assert_eq!(a.len(), b.len());
            let mut err = 0.0f64;
            let mut pow = 0.0f64;
            for (x, y) in a.iter().zip(b) {
                err += ((x - y) as f64).powi(2);
                pow += (*y as f64).powi(2);
            }
            (err / pow.max(1e-30)).sqrt()
        };
        assert!(rel_rms(&fast.mono, &slow.mono) < 1e-4, "mono diverged");
        let fd = fast.stereo_diff.expect("fast pilot");
        let sd = slow.stereo_diff.expect("reference pilot");
        assert!(rel_rms(&fd, &sd) < 1e-4, "stereo diff diverged");
        assert_eq!(fast.rds_bits, slow.rds_bits, "RDS bits must be identical");
    }

    #[test]
    fn composite_is_bounded() {
        let comp = compose(&MpxInput {
            mono: tone(5_000.0, 44_100, 1.0),
            stereo_diff: Some(tone(3_000.0, 44_100, 1.0)),
            rds_bits: Some([1, 0, 1, 1, 0, 0, 1, 0].repeat(32)),
        });
        assert!(comp.iter().all(|&x| x.abs() <= 1.0));
        assert!(rms(&comp) > 0.05);
    }
}
