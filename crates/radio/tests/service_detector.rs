//! Hostile-air coverage for the MPX decomposer's service detector.
//!
//! The decomposer decodes the 19 kHz pilot (and with it the stereo channel)
//! and the 57 kHz RDS subcarrier only when their spectral shape is found in
//! the composite. These seeded cases pin that channel noise never reads as a
//! service, that real services over a good link are still found and decoded,
//! and that degenerate composites come back without a panic.

use sonic_dsp::resample::Resampler;
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, decompose_reference, MpxInput, MpxOutput};
use sonic_radio::rds::{self, Group};
use sonic_radio::{AUDIO_RATE, MPX_RATE};
use std::f64::consts::TAU;

/// A seeded stand-in for SONIC air: a band of tones around the 9.2 kHz data
/// carrier with random phases, over a quiet 1 kHz program tone, scaled to
/// the 0.08 RMS drive level the link harness uses.
fn program(n: usize, seed: u32) -> Vec<f32> {
    let mut x = seed | 1;
    let mut phases = [0.0f64; 24];
    for p in &mut phases {
        x = x.wrapping_mul(1103515245).wrapping_add(12345);
        *p = f64::from(x >> 8) / f64::from(1u32 << 24) * TAU;
    }
    let mut audio: Vec<f32> = (0..n)
        .map(|i| {
            let t = i as f64 / AUDIO_RATE;
            let data: f64 = phases
                .iter()
                .enumerate()
                .map(|(k, p)| (TAU * (7_000.0 + 200.0 * k as f64) * t + p).sin())
                .sum();
            (data + 0.5 * (TAU * 1_000.0 * t).sin()) as f32
        })
        .collect();
    let rms = (audio.iter().map(|&v| v * v).sum::<f32>() / n.max(1) as f32).sqrt();
    for v in &mut audio {
        *v *= 0.08 / rms;
    }
    audio
}

/// Composes, FM-modulates, sends over an AWGN RF hop at `rssi_db` and
/// FM-demodulates: the composite a phone's tuner would hand the decomposer.
fn over_the_air(input: &MpxInput, rssi_db: f64, seed: u64) -> Vec<f32> {
    let composite = compose(input);
    let mut baseband = Vec::with_capacity(composite.len());
    FmModulator::default().modulate_into(&composite, &mut baseband);
    let received = RfChannel::new(rssi_db, seed).transmit(&baseband);
    let mut recovered = Vec::with_capacity(received.len());
    FmDemodulator::default().demodulate_into(&received, &mut recovered);
    recovered
}

#[test]
fn noise_never_reads_as_pilot_or_rds() {
    let mono = program(22_050, 7);
    for step in 0u32..=15 {
        let rssi = -70.0 - 2.0 * f64::from(step);
        let seed = 0x5e7 ^ u64::from(step);
        let composite = over_the_air(
            &MpxInput {
                mono: mono.clone(),
                ..Default::default()
            },
            rssi,
            seed,
        );
        for (path, out) in [
            ("fast", decompose(&composite)),
            ("reference", decompose_reference(&composite)),
        ] {
            assert!(out.stereo_diff.is_none(), "{path}: stereo reported at {rssi} dB");
            assert!(out.rds_bits.is_empty(), "{path}: RDS reported at {rssi} dB");
        }
    }
}

/// The station identification group the RDS cases carry.
const STATION: Group = Group([0x5350, 0x0408, 0x4F4E, 0x4943]);

/// A full stereo composite: program, a 2.5 kHz stereo difference, the pilot
/// and eight RDS groups.
fn stereo_rds_input() -> MpxInput {
    let bits: Vec<u8> = (0..8).flat_map(|_| rds::encode_group(&STATION)).collect();
    let n = bits.len() * rds::SAMPLES_PER_BIT * AUDIO_RATE as usize / MPX_RATE as usize + 4_410;
    let diff = (0..n)
        .map(|i| 0.3 * (TAU * 2_500.0 * i as f64 / AUDIO_RATE).sin() as f32)
        .collect();
    MpxInput {
        mono: program(n, 11),
        stereo_diff: Some(diff),
        rds_bits: Some(bits),
    }
}

#[test]
fn pilot_and_rds_are_found_over_good_links() {
    let input = stereo_rds_input();
    // Groups the decomposer recovered from these seeded links before the
    // detector gated its RDS path (uncoded RDS is already failing at
    // −80 dB); the gate must not cost one of them.
    for (rssi, seed, groups) in [(-70.0, 3u64, 8usize), (-80.0, 4, 2)] {
        let out = decompose(&over_the_air(&input, rssi, seed));
        assert!(out.stereo_diff.is_some(), "pilot missed at {rssi} dB");
        assert_eq!(
            rds::decode_groups(&out.rds_bits),
            vec![STATION; groups],
            "RDS groups at {rssi} dB"
        );
    }
}

/// Output length of the plain 228 kHz → 44.1 kHz resampler for `n` inputs:
/// what the decomposer returned for every composite before the detector.
fn audio_len(n: usize) -> usize {
    let mut out = Vec::new();
    Resampler::new(MPX_RATE as usize, AUDIO_RATE as usize, 32).process_into(&vec![0.0; n], &mut out);
    out.len()
}

#[test]
fn degenerate_composites_return_without_panic() {
    let clipped: Vec<f32> = compose(&stereo_rds_input())
        .iter()
        .map(|&x| (8.0 * x).clamp(-1.0, 1.0))
        .collect();
    let denormal: Vec<f32> = (0..50_000)
        .map(|i| if i % 2 == 0 { 1e-40 } else { -3e-41 })
        .collect();
    let cases: [(&str, Vec<f32>); 5] = [
        ("empty", Vec::new()),
        ("shorter than a detector frame", vec![0.25; 1_000]),
        ("all NaN", vec![f32::NAN; 50_000]),
        ("clipped to ±1", clipped),
        ("denormal", denormal),
    ];
    for (name, composite) in &cases {
        let check = |path: &str, out: MpxOutput| {
            assert_eq!(out.mono.len(), audio_len(composite.len()), "{name} ({path})");
            if let Some(diff) = &out.stereo_diff {
                assert_eq!(diff.len(), out.mono.len(), "{name} ({path}) stereo length");
            }
        };
        check("fast", decompose(composite));
        check("reference", decompose_reference(composite));
    }
    // Nothing to detect in silence-like or unreadable input.
    for (name, composite) in cases.iter().filter(|(name, _)| *name != "clipped to ±1") {
        let out = decompose(composite);
        assert!(out.stereo_diff.is_none(), "{name}: stereo reported");
        assert!(out.rds_bits.is_empty(), "{name}: RDS reported");
    }
}
