//! Link ↔ PHY adaptation: batching 100-byte SONIC frames into OFDM bursts.
//!
//! A PHY burst costs 4 overhead symbols (preamble, training ×2, header), so
//! sending one 100-byte frame per burst would waste most of the airtime.
//! The link layer therefore packs [`FRAMES_PER_BURST`] frames per burst;
//! a burst lost to sync/header failure costs that many frames, which is the
//! granularity the loss experiments measure.
//!
//! Every burst's audio length is known before it is modulated
//! ([`modulated_samples`] plus the inter-burst guard), so a frame sequence
//! is laid out first and each burst is then written into its own span of
//! one exactly-sized buffer. [`modulate_with_table`] and
//! [`modulate_spliced`] — the station's page-refresh path — spread a page's
//! fresh bursts over long-lived helper threads (one fewer than the host's
//! cores, started once per process) and the calling thread, which takes
//! bursts too, so no caller waits on another caller's page. Modulation
//! is a pure function of (profile, payload), so the audio is bit-identical
//! to [`modulate`]'s, which stays on the calling thread, at any worker
//! count.

use crate::frame::{Frame, FrameError, FRAME_SIZE};
use sonic_image::hash::Fnv64;
use sonic_modem::frame::{demodulate_frames, modulate_frame_into, modulated_samples, MAX_PAYLOAD};
use sonic_modem::profile::Profile;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Link frames packed into one PHY burst (40 × 100 B = 4000 ≤ 4095).
pub const FRAMES_PER_BURST: usize = MAX_PAYLOAD / FRAME_SIZE;

/// Reception statistics at frame granularity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// PHY bursts detected.
    pub bursts_detected: usize,
    /// PHY bursts that failed (header/FEC/truncation).
    pub bursts_failed: usize,
    /// Link frames recovered with a valid CRC.
    pub frames_ok: usize,
    /// Link frames that arrived in a decoded burst but failed their CRC
    /// (or were a malformed partial chunk). Frames inside failed bursts are
    /// not counted here: they are lost with the burst.
    pub frames_bad_crc: usize,
}

/// Modulates a frame sequence into audio, [`FRAMES_PER_BURST`] per burst,
/// each burst followed by half a symbol of silence.
///
/// Runs on the calling thread only: the simulator calls it inside its own
/// worker pool, where burst helpers would oversubscribe the cores.
pub fn modulate(profile: &Profile, frames: &[Frame]) -> Vec<f32> {
    splice(profile, frames, &[], &BurstTable::default(), false).audio
}

/// The audio span one PHY burst occupies inside a concatenated buffer,
/// keyed by the content address of its payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpan {
    /// FNV-1a of the burst's concatenated frame bytes (length folded in).
    pub payload_hash: u64,
    /// Sample offset of the burst inside the buffer.
    pub start: usize,
    /// Sample count including the inter-burst guard.
    pub len: usize,
}

/// Per-burst index of a modulated frame sequence — the audio-side half of
/// the broadcast artifact cache. Bursts are modulated independently and the
/// inter-burst guard is silence, so a burst whose payload hash matches a
/// previous modulation can have its samples copied instead of re-synthesized.
#[derive(Debug, Clone, Default)]
pub struct BurstTable {
    /// One span per burst, in transmission order.
    pub spans: Vec<BurstSpan>,
}

impl BurstTable {
    /// Total samples the indexed audio occupies (spans tile the buffer, so
    /// this is the end of the last span).
    pub fn total_samples(&self) -> usize {
        self.spans.last().map(|s| s.start + s.len).unwrap_or(0)
    }
}

/// Accounting from [`modulate_spliced`].
#[derive(Debug, Clone)]
pub struct SplicedAudio {
    /// The modulated carousel audio (bit-identical to [`modulate`]).
    pub audio: Vec<f32>,
    /// Burst index of the new audio, reusable by the next splice.
    pub table: BurstTable,
    /// Bursts whose samples were copied from the previous audio.
    pub reused: usize,
    /// Bursts that went through the OFDM modulator.
    pub modulated: usize,
}

/// Content address of a burst payload.
fn burst_hash(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(payload).write_u64(payload.len() as u64);
    h.finish()
}

/// [`modulate`], additionally returning the per-burst span table so a later
/// refresh can splice unchanged bursts' audio via [`modulate_spliced`].
/// Bursts are modulated on the helper threads as well as the caller's.
pub fn modulate_with_table(profile: &Profile, frames: &[Frame]) -> (Vec<f32>, BurstTable) {
    let s = splice(profile, frames, &[], &BurstTable::default(), true);
    (s.audio, s.table)
}

/// Modulates a frame sequence, copying the samples of every burst whose
/// payload already appears in `prev` (a table from [`modulate_with_table`]
/// or an earlier splice over `prev_audio`) and running the OFDM modulator
/// only for new bursts, on the helper threads as well as the caller's.
///
/// Modulation is a deterministic pure function of (profile, payload) and
/// the inter-burst guard is silence, so the result is bit-identical to a
/// cold [`modulate`] of `frames`.
pub fn modulate_spliced(
    profile: &Profile,
    frames: &[Frame],
    prev_audio: &[f32],
    prev: &BurstTable,
) -> SplicedAudio {
    splice(profile, frames, prev_audio, prev, true)
}

/// One burst the modulator still has to run.
struct FreshBurst {
    /// The burst's payload bytes inside [`Batch::payloads`].
    payload: Range<usize>,
    /// Where its samples go in the output (its span minus the guard).
    samples: Range<usize>,
}

/// Lays the frame sequence out burst by burst, copies every burst found in
/// `prev`, and modulates the rest into their spans — on the helper threads
/// too when `parallel`.
fn splice(
    profile: &Profile,
    frames: &[Frame],
    prev_audio: &[f32],
    prev: &BurstTable,
    parallel: bool,
) -> SplicedAudio {
    let by_hash: BTreeMap<u64, BurstSpan> = prev
        .spans
        .iter()
        .filter(|s| s.start + s.len <= prev_audio.len())
        .map(|s| (s.payload_hash, *s))
        .collect();
    let guard = profile.symbol_len() / 2;
    let mut spans = Vec::with_capacity(frames.len().div_ceil(FRAMES_PER_BURST));
    let mut copies = Vec::new();
    let mut fresh = Vec::new();
    let mut payloads = Vec::new();
    let mut total = 0usize;
    for group in frames.chunks(FRAMES_PER_BURST) {
        let first = payloads.len();
        for f in group {
            payloads.extend_from_slice(&f.encode());
        }
        let hash = burst_hash(&payloads[first..]);
        let len = modulated_samples(profile, payloads.len() - first) + guard;
        match by_hash.get(&hash).filter(|s| s.len == len) {
            Some(s) => {
                copies.push((s.start, total, len));
                payloads.truncate(first);
            }
            None => fresh.push(FreshBurst {
                payload: first..payloads.len(),
                samples: total..total + len - guard,
            }),
        }
        spans.push(BurstSpan {
            payload_hash: hash,
            start: total,
            len,
        });
        total += len;
    }

    // Guards and not-yet-written spans start as silence.
    let mut audio = vec![0.0f32; total];
    for &(from, to, len) in &copies {
        audio[to..to + len].copy_from_slice(&prev_audio[from..from + len]);
    }
    let (reused, modulated) = (copies.len(), fresh.len());
    let batch = Batch {
        profile: profile.clone(),
        payloads,
        bursts: fresh,
        next: AtomicUsize::new(0),
        audio: Mutex::new(audio),
        progress: Mutex::new(Progress::default()),
        finished: Condvar::new(),
    };
    SplicedAudio {
        audio: if parallel {
            batch.run_with_helpers()
        } else {
            batch.run_here()
        },
        table: BurstTable { spans },
        reused,
        modulated,
    }
}

/// One page's fresh bursts, shared by the calling thread and the helpers.
struct Batch {
    profile: Profile,
    payloads: Vec<u8>,
    bursts: Vec<FreshBurst>,
    /// Next unclaimed index into `bursts`. A claim publishes nothing (the
    /// audio goes through `audio`, completion through `progress`), so
    /// relaxed increments suffice: each index is still handed out once.
    next: AtomicUsize,
    /// The exactly-sized output; each burst is copied into its own span.
    audio: Mutex<Vec<f32>>,
    progress: Mutex<Progress>,
    /// Signalled whenever a burst finishes.
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Bursts finished, or abandoned by a panicking modulation.
    done: usize,
    panicked: bool,
}

/// Counts one claimed burst as finished when dropped — also while a panic
/// unwinds, so the caller waiting on the batch cannot hang.
struct Finish<'a>(&'a Batch);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        // Every update leaves `Progress` valid, so a poisoned lock's data
        // is still sound.
        let mut p = self.0.progress.lock().unwrap_or_else(|e| e.into_inner());
        p.done += 1;
        p.panicked |= std::thread::panicking();
        self.0.finished.notify_all();
    }
}

impl Batch {
    /// Claims and modulates bursts until none are left; `burst` is the
    /// calling thread's scratch.
    fn work(&self, burst: &mut Vec<f32>) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(b) = self.bursts.get(i) else { return };
            let _finish = Finish(self);
            modulate_frame_into(&self.profile, &self.payloads[b.payload.clone()], burst);
            let mut audio = self
                .audio
                .lock()
                .expect("burst audio lock poisoned by a panicking copy");
            // The span was sized from `modulated_samples`; a length mismatch
            // is a bug and panics here instead of shifting later bursts.
            audio[b.samples.clone()].copy_from_slice(burst);
        }
    }

    /// Modulates every burst on the calling thread.
    fn run_here(self) -> Vec<f32> {
        self.work(&mut Vec::new());
        self.audio
            .into_inner()
            .expect("burst audio lock poisoned by a panicking copy")
    }

    /// Modulates the bursts on the helper threads and the calling thread,
    /// returning once every burst is in place.
    fn run_with_helpers(self) -> Vec<f32> {
        let helpers = helpers();
        let batch = Arc::new(self);
        for _ in 0..helpers.count.min(batch.bursts.len().saturating_sub(1)) {
            // A send fails only if every helper has died; the caller then
            // modulates the whole batch itself.
            let _ = helpers.tx.send(Arc::clone(&batch));
        }
        batch.work(&mut Vec::new());
        let mut p = batch.progress.lock().unwrap_or_else(|e| e.into_inner());
        while p.done < batch.bursts.len() {
            p = batch.finished.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        assert!(
            !p.panicked,
            "a burst modulation panicked on a helper thread"
        );
        drop(p);
        let mut audio = batch
            .audio
            .lock()
            .expect("burst audio lock poisoned by a panicking copy");
        std::mem::take(&mut *audio)
    }
}

/// The process's burst-modulation helper threads.
struct Helpers {
    tx: Sender<Arc<Batch>>,
    /// Helpers that started.
    count: usize,
}

/// Starts the helpers on first use: one fewer than the cores this process
/// may run on, since the calling thread modulates too. They live as long as
/// the process (each keeps its thread-local modem codec warm) and are never
/// joined; a panic on one reaches the caller through [`Progress`].
fn helpers() -> &'static Helpers {
    static HELPERS: OnceLock<Helpers> = OnceLock::new();
    HELPERS.get_or_init(|| {
        let want = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let (tx, rx) = channel::<Arc<Batch>>();
        let rx = Arc::new(Mutex::new(rx));
        let count = (0..want)
            .filter(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("sonic-modulate-{i}"))
                    .spawn(move || helper_loop(&rx))
                    .is_ok()
            })
            .count();
        Helpers { tx, count }
    })
}

fn helper_loop(rx: &Mutex<Receiver<Arc<Batch>>>) {
    let mut burst = Vec::new();
    loop {
        // One helper at a time waits in `recv`; the rest wait for the lock.
        let next = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match next {
            Ok(batch) => batch.work(&mut burst),
            Err(_) => return,
        }
    }
}

/// Demodulates audio back into link frames with loss accounting.
pub fn demodulate(profile: &Profile, audio: &[f32]) -> (Vec<Frame>, LinkStats) {
    let mut stats = LinkStats::default();
    let mut frames = Vec::new();
    for burst in demodulate_frames(profile, audio) {
        stats.bursts_detected += 1;
        match burst.payload {
            Ok(payload) => {
                for chunk in payload.chunks(FRAME_SIZE) {
                    match Frame::decode(chunk) {
                        Ok(f) => {
                            stats.frames_ok += 1;
                            frames.push(f);
                        }
                        Err(FrameError::BadSize) => {
                            // Trailing partial chunk: a malformed batch.
                            stats.frames_bad_crc += 1;
                        }
                        Err(_) => stats.frames_bad_crc += 1,
                    }
                }
            }
            Err(_) => stats.bursts_failed += 1,
        }
    }
    (frames, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| Frame::Strip {
                page_id: 7,
                column: (i % 40) as u16,
                seq: (i / 40) as u16,
                last: false,
                payload: vec![(i % 251) as u8; 86],
            })
            .collect()
    }

    #[test]
    fn roundtrip_one_burst() {
        let p = Profile::sonic_10k();
        let fs = frames(5);
        let audio = modulate(&p, &fs);
        let (got, stats) = demodulate(&p, &audio);
        assert_eq!(got, fs);
        assert_eq!(stats.bursts_detected, 1);
        assert_eq!(stats.bursts_failed, 0);
        assert_eq!(stats.frames_ok, 5);
    }

    #[test]
    fn roundtrip_multiple_bursts() {
        let p = Profile::sonic_10k();
        let fs = frames(FRAMES_PER_BURST + 3);
        let audio = modulate(&p, &fs);
        let (got, stats) = demodulate(&p, &audio);
        assert_eq!(got.len(), fs.len());
        assert_eq!(stats.bursts_detected, 2);
        assert_eq!(got, fs);
    }

    #[test]
    fn forty_frames_fit_one_burst() {
        assert_eq!(FRAMES_PER_BURST, 40);
        let p = Profile::sonic_10k();
        let fs = frames(40);
        let audio = modulate(&p, &fs);
        let (_, stats) = demodulate(&p, &audio);
        assert_eq!(stats.bursts_detected, 1);
    }

    #[test]
    fn empty_input_is_silence() {
        let p = Profile::sonic_10k();
        assert!(modulate(&p, &[]).is_empty());
    }

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The frame sequence's audio built burst by burst with the modem's
    /// free function and appended guard by guard.
    fn modulate_reference(p: &Profile, frames: &[Frame]) -> Vec<f32> {
        let mut audio = Vec::new();
        for group in frames.chunks(FRAMES_PER_BURST) {
            let payload: Vec<u8> = group.iter().flat_map(|f| f.encode()).collect();
            audio.extend(sonic_modem::frame::modulate_frame(p, &payload));
            audio.extend(std::iter::repeat_n(0.0, p.symbol_len() / 2));
        }
        audio
    }

    #[test]
    fn every_path_matches_burst_by_burst_modulation_exactly_sized() {
        let p = Profile::sonic_10k();
        for n in [0usize, 1, 39, 40, 41, 400] {
            let fs = frames(n);
            let want = modulate_reference(&p, &fs);
            let plain = modulate(&p, &fs);
            let (audio, table) = modulate_with_table(&p, &fs);
            let cold = modulate_spliced(&p, &fs, &[], &BurstTable::default());
            for (name, got) in [
                ("modulate", &plain),
                ("with_table", &audio),
                ("spliced", &cold.audio),
            ] {
                assert!(bits_eq(got, &want), "{name}: {n} frames");
                assert_eq!(got.capacity(), got.len(), "{name}: {n} frames");
            }
            assert_eq!(table.spans.len(), n.div_ceil(FRAMES_PER_BURST));
            assert_eq!(cold.table.spans, table.spans);
            // Spans tile the buffer exactly.
            let mut cursor = 0usize;
            for s in &table.spans {
                assert_eq!(s.start, cursor);
                cursor += s.len;
            }
            assert_eq!(cursor, audio.len());
        }
    }

    #[test]
    fn splice_mixing_reused_and_fresh_bursts_is_exact() {
        let p = Profile::sonic_10k();
        let fs = frames(400);
        let (audio, table) = modulate_with_table(&p, &fs);
        // Change every third burst and add a short tail burst.
        let mut changed = frames(415);
        for b in (0..10).step_by(3) {
            if let Frame::Strip { payload, .. } = &mut changed[b * FRAMES_PER_BURST + 7] {
                payload[3] ^= 0x5A;
            }
        }
        let spliced = modulate_spliced(&p, &changed, &audio, &table);
        assert_eq!((spliced.reused, spliced.modulated), (6, 5));
        assert!(bits_eq(&spliced.audio, &modulate_reference(&p, &changed)));
        assert_eq!(spliced.audio.capacity(), spliced.audio.len());
    }

    #[test]
    fn concurrent_callers_get_identical_audio() {
        let p = Profile::sonic_10k();
        let fs = frames(6 * FRAMES_PER_BURST);
        let want = modulate(&p, &fs);
        let threads = 4;
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        modulate_with_table(&p, &fs).0
                    })
                })
                .collect();
            for h in handles {
                assert!(bits_eq(&h.join().expect("caller thread"), &want));
            }
        });
    }

    #[test]
    fn splice_identical_frames_reuses_every_burst() {
        let p = Profile::sonic_10k();
        let fs = frames(FRAMES_PER_BURST + 10);
        let (audio, table) = modulate_with_table(&p, &fs);
        let spliced = modulate_spliced(&p, &fs, &audio, &table);
        assert_eq!(spliced.reused, 2);
        assert_eq!(spliced.modulated, 0);
        assert!(bits_eq(&spliced.audio, &audio));
        assert_eq!(spliced.table.spans, table.spans);
    }

    #[test]
    fn splice_with_mutated_burst_is_bit_identical_to_cold() {
        let p = Profile::sonic_10k();
        let fs = frames(3 * FRAMES_PER_BURST);
        let (audio, table) = modulate_with_table(&p, &fs);
        // Mutate one frame in the middle burst.
        let mut changed = fs.clone();
        if let Frame::Strip { payload, .. } = &mut changed[FRAMES_PER_BURST + 5] {
            payload[0] ^= 0xFF;
        }
        let spliced = modulate_spliced(&p, &changed, &audio, &table);
        assert_eq!(spliced.reused, 2);
        assert_eq!(spliced.modulated, 1);
        assert!(bits_eq(&spliced.audio, &modulate(&p, &changed)));
        // And the spliced audio still demodulates to the new frames.
        let (got, stats) = demodulate(&p, &spliced.audio);
        assert_eq!(got, changed);
        assert_eq!(stats.bursts_failed, 0);
    }

    #[test]
    fn splice_against_empty_table_modulates_everything() {
        let p = Profile::sonic_10k();
        let fs = frames(FRAMES_PER_BURST / 2);
        let spliced = modulate_spliced(&p, &fs, &[], &BurstTable::default());
        assert_eq!(spliced.reused, 0);
        assert_eq!(spliced.modulated, 1);
        assert!(bits_eq(&spliced.audio, &modulate(&p, &fs)));
    }
}
