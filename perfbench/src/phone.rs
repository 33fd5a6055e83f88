//! `phone_rx`: the RX path on a low-end phone at three RSSI points.
//!
//! Setup renders seed-chosen corpus pages (short ones, up to 100 frames
//! each, about 34 s of air in all), chunks and modulates them,
//! composes the FM multiplex, FM-modulates it and passes the baseband
//! through an `RfChannel` at clean (−70 dB), cliff (−88 dB) and fringe
//! (−92 dB) RSSI. The timed part is the phone chain for each page's air
//! audio: FM discriminator → MPX decompose → link demodulate → client
//! reassembly → finalize (interpolation), with a fresh client per point
//! and pass.
//!
//! The RF channel trace of each page slot is fixed per point (seeded by
//! point and slot, not by `--seed`), like a recorded capture at that
//! RSSI; `--seed` picks and orders the pages that cross it. The channel's
//! slow fade decides most losses near the cliff, so this keeps the loss
//! metrics comparable from seed to seed while the content varies.

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, repeat_for, set_up};
use crate::{Args, SETUPS, SETUP_SECONDS};
use sonic_core::chunker::page_to_frames;
use sonic_core::client::SonicClient;
use sonic_core::link;
use sonic_core::page::SimplifiedPage;
use sonic_image::strip;
use sonic_modem::Profile;
use sonic_pagegen::Corpus;
use sonic_radio::channel::RfChannel;
use sonic_radio::fm::{FmDemodulator, FmModulator};
use sonic_radio::mpx::{compose, decompose, MpxInput};
use sonic_radio::AUDIO_RATE;
use std::time::Instant;

/// Render scale of the received pages (same as `station_day`).
const SCALE: f64 = 0.05;
/// Corpus hour the pages are rendered at.
const HOUR: u64 = 12;
/// Pages are added until at least this many link frames are on air
/// (≈ 32 s of air audio per RSSI point) …
const TARGET_FRAMES: usize = 350;
/// … skipping any page that would overshoot it by more than one burst,
/// so every seed puts about the same air time through the chain.
const SLACK_FRAMES: usize = link::FRAMES_PER_BURST;
/// Largest page taken (≈ 9 s of air). `decompose` holds several
/// whole-page buffers, so the chain's peak memory follows the longest
/// page; bounding it keeps `peak_rss_mb` comparable from seed to seed, and
/// several short pages give the loss figures several channel slots.
const MAX_PAGE_FRAMES: usize = 100;
/// Mono level into the FM multiplexer (the link simulator's calibrated
/// 0.08 RMS, which keeps OFDM peaks under full deviation).
const FM_INPUT_RMS: f32 = 0.08;
/// Receiver screen width (Redmi Go).
const DEVICE_WIDTH: usize = 720;

/// The three receive points: metric suffix and tuner RSSI.
const POINTS: [(&str, f64); 3] = [("clean", -70.0), ("cliff", -88.0), ("fringe", -92.0)];

/// One page as sent.
struct Sent {
    page: SimplifiedPage,
    frames: usize,
    air_s: f64,
    /// Lossless decode of the sent strips: what a perfect receiver shows.
    reference: sonic_image::raster::Raster,
}

/// Everything the workload derives from the seed.
struct Inputs {
    profile: Profile,
    pages: Vec<Sent>,
    /// Received baseband per point, per page.
    received: Vec<Vec<Vec<sonic_dsp::C32>>>,
}

fn setup(args: &Args) -> Inputs {
    let corpus = Corpus::standard();
    let profile = Profile::sonic_10k();
    let mut ids = corpus.pages();
    crate::shuffle(&mut ids, args.seed ^ 0xF0E1);
    let mut pages = Vec::new();
    let mut basebands = Vec::new();
    let mut total_frames = 0;
    for id in ids {
        if total_frames >= TARGET_FRAMES {
            break;
        }
        let r = corpus.render(id, HOUR, SCALE);
        let page = SimplifiedPage::from_raster(&r.url, &r.raster, r.clickmap, HOUR as u16, 24);
        let frames = page_to_frames(&page);
        if frames.len() > MAX_PAGE_FRAMES
            || total_frames + frames.len() > TARGET_FRAMES + SLACK_FRAMES
        {
            continue;
        }
        let mut audio = link::modulate(&profile, &frames);
        let rms = (audio.iter().map(|&x| x * x).sum::<f32>() / audio.len().max(1) as f32).sqrt();
        for v in audio.iter_mut() {
            *v *= FM_INPUT_RMS / rms.max(1e-12);
        }
        let air_s = audio.len() as f64 / AUDIO_RATE;
        let composite = compose(&MpxInput {
            mono: audio,
            stereo_diff: None,
            rds_bits: None,
        });
        let mut bb = Vec::with_capacity(composite.len());
        FmModulator::default().modulate_into(&composite, &mut bb);
        basebands.push(bb);
        total_frames += frames.len();
        let reference = strip::decode(&page.strips);
        pages.push(Sent {
            page,
            frames: frames.len(),
            air_s,
            reference,
        });
    }
    let received = POINTS
        .iter()
        .enumerate()
        .map(|(p, &(_, rssi))| {
            basebands
                .iter()
                .enumerate()
                .map(|(slot, bb)| {
                    RfChannel::new(rssi, 0x2551_0000 + (p as u64) * 1_000 + slot as u64)
                        .transmit(bb)
                })
                .collect()
        })
        .collect();
    Inputs {
        profile,
        pages,
        received,
    }
}

/// Stage seconds of the phone chain (traced pass only).
#[derive(Default, Clone, Copy)]
struct Stages {
    fm: f64,
    mpx: f64,
    demod: f64,
    reassembly: f64,
    finalize: f64,
}

/// Counts of one point's pass (identical on every pass).
#[derive(Default, Clone, Copy, PartialEq)]
struct Counts {
    frames_sent: u64,
    frames_ok: u64,
    frames_bad_crc: u64,
    bursts_detected: u64,
    bursts_failed: u64,
    stereo: u64,
    finalized: u64,
    meta_incomplete: u64,
    /// Sum over pages of the pixel loss after interpolation (differing
    /// pixels against the lossless decode; 1 for a page never finalized).
    pixel_loss_sum: f64,
    /// Pages whose repaired screenshot equals the lossless decode.
    exact_pages: u64,
}

/// One pass of the phone chain over every page at point `p`. With
/// `stages` the boundaries between layers are timed too.
fn receive_point(inp: &Inputs, p: usize, mut stages: Option<&mut Stages>) -> (f64, Counts) {
    let mut c = Counts::default();
    let mut client = SonicClient::new(DEVICE_WIDTH, None);
    let mut now_s = 0.0;
    let lap = |t: &mut Instant, slot: fn(&mut Stages) -> &mut f64, st: &mut Option<&mut Stages>| {
        if let Some(s) = st.as_deref_mut() {
            *slot(s) += t.elapsed().as_secs_f64();
            *t = Instant::now();
        }
    };
    let t_wall = Instant::now();
    for (sent, bb) in inp.pages.iter().zip(&inp.received[p]) {
        let mut t = Instant::now();
        let mut composite = Vec::with_capacity(bb.len());
        FmDemodulator::default().demodulate_into(bb, &mut composite);
        lap(&mut t, |s| &mut s.fm, &mut stages);
        let mpx = decompose(&composite);
        drop(composite);
        lap(&mut t, |s| &mut s.mpx, &mut stages);
        let (frames, ls) = link::demodulate(&inp.profile, &mpx.mono);
        lap(&mut t, |s| &mut s.demod, &mut stages);
        for f in frames {
            client.receive_frame_at(f, now_s);
        }
        lap(&mut t, |s| &mut s.reassembly, &mut stages);
        let finalized = client.finalize_page(sent.page.page_id, HOUR);
        lap(&mut t, |s| &mut s.finalize, &mut stages);
        now_s += sent.air_s;

        c.frames_sent += sent.frames as u64;
        c.frames_ok += ls.frames_ok as u64;
        c.frames_bad_crc += ls.frames_bad_crc as u64;
        c.bursts_detected += ls.bursts_detected as u64;
        c.bursts_failed += ls.bursts_failed as u64;
        c.stereo += mpx.stereo_diff.is_some() as u64;
        match finalized {
            Ok(_) => c.finalized += 1,
            Err(_) => c.meta_incomplete += 1,
        }
    }
    let wall_s = t_wall.elapsed().as_secs_f64();
    // What the user sees, scored outside the timed chain: a finalized
    // page's repaired screenshot against the lossless decode.
    for sent in &inp.pages {
        let loss = match client.cache.get(&sent.page.url, HOUR) {
            Some(cached) => pixel_loss(&sent.reference, &cached.raster),
            None => 1.0,
        };
        c.pixel_loss_sum += loss;
        c.exact_pages += (loss == 0.0) as u64;
    }
    (wall_s, c)
}

/// Share of pixels in `shown` that differ from `reference` (1 on a size
/// mismatch).
fn pixel_loss(reference: &sonic_image::raster::Raster, shown: &sonic_image::raster::Raster) -> f64 {
    let (w, h) = (reference.width(), reference.height());
    if (shown.width(), shown.height()) != (w, h) || w * h == 0 {
        return 1.0;
    }
    let mut differ = 0usize;
    for y in 0..h {
        for x in 0..w {
            differ += (reference.get(x, y) != shown.get(x, y)) as usize;
        }
    }
    differ as f64 / (w * h) as f64
}

/// One pass over all three points: wall seconds and counts per point.
fn pass(inp: &Inputs) -> Vec<(f64, Counts)> {
    (0..POINTS.len())
        .map(|p| receive_point(inp, p, None))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = set_up(SETUPS, SETUP_SECONDS, || setup(args));
    let air_s: f64 = inp.pages.iter().map(|s| s.air_s).sum();

    // Traced runs alternate untraced and traced passes over the window, so
    // both see the same stretch of host speed.
    let mut traced: Vec<Vec<(f64, Stages)>> = Vec::new();
    let passes = repeat_for(args.seconds, 1, || {
        let untraced = pass(&inp);
        if args.trace {
            traced.push(
                (0..POINTS.len())
                    .map(|p| {
                        let mut st = Stages::default();
                        let (wall_s, _) = receive_point(&inp, p, Some(&mut st));
                        (wall_s, st)
                    })
                    .collect(),
            );
        }
        untraced
    });
    let counts: Vec<Counts> = passes[0].iter().map(|r| r.1).collect();
    let clean = counts[0];
    out.check(
        "phone.clean_recovers_everything",
        clean.frames_ok == clean.frames_sent
            && clean.frames_bad_crc == 0
            && clean.exact_pages == inp.pages.len() as u64,
        format!(
            "{}/{} frames, {}/{} pages pixel-exact",
            clean.frames_ok,
            clean.frames_sent,
            clean.exact_pages,
            inp.pages.len()
        ),
    );
    out.check(
        "phone.counts_repeat",
        passes
            .iter()
            .all(|p| p.iter().map(|r| r.1).collect::<Vec<_>>() == counts),
        format!(
            "{} passes over {:.1} s of air audio per point",
            passes.len(),
            air_s
        ),
    );
    out.attempted = passes.iter().flatten().map(|r| r.1.frames_sent).sum();
    out.failed = passes
        .iter()
        .map(|p| p[0].1.frames_sent - p[0].1.frames_ok.min(p[0].1.frames_sent))
        .sum();

    // Frames through the phone chain per second, all three points.
    let frames_per_pass: u64 = counts.iter().map(|c| c.frames_sent).sum();
    let ops: Vec<f64> = passes
        .iter()
        .map(|ps| frames_per_pass as f64 / ps.iter().map(|r| r.0).sum::<f64>())
        .collect();
    out.e2e("setup_s", setup_s);
    out.e2e("peak_rss_mb", peak_rss_mb());
    out.e2e("ops_per_s", median(&ops));
    for (p, (name, _)) in POINTS.iter().enumerate() {
        let rtf: Vec<f64> = passes.iter().map(|ps| ps[p].0 / air_s).collect();
        out.samples(&format!("phone.rtf.{name}"), "s/s", &rtf);
        out.layer(&format!("phone.rtf.{name}"), median(&rtf));
    }
    let cliff = counts[1];
    out.layer(
        "phone.frame_loss.cliff",
        1.0 - cliff.frames_ok as f64 / cliff.frames_sent as f64,
    );
    let fringe = counts[2];
    out.layer(
        "phone.pixel_loss.fringe",
        fringe.pixel_loss_sum / inp.pages.len() as f64,
    );

    if args.trace {
        let mut overhead = 0.0;
        let ms = |s: f64| s * 1e3;
        for (p, (name, _)) in POINTS.iter().enumerate() {
            let med = |f: fn(&Stages) -> f64| {
                median(&traced.iter().map(|t| f(&t[p].1)).collect::<Vec<_>>())
            };
            let st = Stages {
                fm: med(|s| s.fm),
                mpx: med(|s| s.mpx),
                demod: med(|s| s.demod),
                reassembly: med(|s| s.reassembly),
                finalize: med(|s| s.finalize),
            };
            let untraced_s = median(&passes.iter().map(|ps| ps[p].0).collect::<Vec<_>>());
            overhead += median(&traced.iter().map(|t| t[p].0).collect::<Vec<_>>()) - untraced_s;
            let c = counts[p];
            out.layer(&format!("radio.fm_demod_ms.{name}"), ms(st.fm));
            out.layer(&format!("radio.mpx_decompose_ms.{name}"), ms(st.mpx));
            out.layer(&format!("radio.mpx_stereo_decoded.{name}"), c.stereo as f64);
            out.layer(&format!("core.link.demodulate_ms.{name}"), ms(st.demod));
            out.layer(
                &format!("modem.bursts_detected.{name}"),
                c.bursts_detected as f64,
            );
            out.layer(
                &format!("modem.bursts_failed.{name}"),
                c.bursts_failed as f64,
            );
            out.layer(&format!("core.link.frames_ok.{name}"), c.frames_ok as f64);
            out.layer(
                &format!("core.link.frames_bad_crc.{name}"),
                c.frames_bad_crc as f64,
            );
            out.layer(&format!("core.reassembly_ms.{name}"), ms(st.reassembly));
            out.layer(&format!("client.finalize_ms.{name}"), ms(st.finalize));
            out.layer(
                &format!("client.pages_finalized.{name}"),
                c.finalized as f64,
            );
            out.layer(
                &format!("client.pages_meta_incomplete.{name}"),
                c.meta_incomplete as f64,
            );
            let attributed = st.fm + st.mpx + st.demod + st.reassembly + st.finalize;
            out.layer(
                &format!("phone.unattributed_ms.{name}"),
                ms(untraced_s - attributed),
            );
        }
        out.layer("phone.frames_sent", clean.frames_sent as f64);
        out.layer("phone.air_s", air_s);
        out.layer("phone.trace_overhead_ms", overhead * 1e3);
    }
    out
}
