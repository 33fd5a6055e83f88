//! Multi-threaded broadcast pipeline: render → SWP encode → chunk → OFDM.
//!
//! The serial broadcast path costs hundreds of milliseconds per page (raster
//! render, strip/SWP encoding, chunking, OFDM modulation), which caps how
//! fast a transmitter fleet can be fed. This module runs those four stages
//! as a pipeline of worker pools connected by **bounded**
//! `std::sync::mpsc::sync_channel`s (each pool's workers share the
//! receiver behind a `Mutex`): every stage can run concurrently on
//! different pages, the bounded queues give back-pressure (a slow consumer
//! stalls producers instead of buffering unboundedly), and a
//! sequence-tagged reorder buffer at the sink makes the output order — and
//! therefore everything fed into a [`BroadcastScheduler`] — deterministic
//! and identical to the serial path.
//!
//! Stage outputs are bit-identical to [`run_serial`]: every stage is a pure
//! function of its input (modulation goes through `sonic-modem`'s cached
//! `FrameCodec`, which is bit-exact versus its reference path), so the only
//! difference parallelism could introduce is ordering, and the reorder
//! buffer removes it.

use crate::chunker::page_to_frames;
use crate::frame::Frame;
use crate::link::{self, BurstTable};
use crate::page::SimplifiedPage;
use crate::server::cache::{Artifact, ArtifactTier};
use crate::server::render::Renderer;
use crate::server::scheduler::BroadcastScheduler;
use sonic_image::clickmap::ClickMap;
use sonic_image::hash::Fnv64;
use sonic_image::raster::Raster;
use sonic_image::strip;
use sonic_modem::profile::Profile;
use sonic_pagegen::{PageId, RenderedPage};
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};

/// One render request: a corpus page at an hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageJob {
    /// Corpus page to render.
    pub id: PageId,
    /// Render hour (drives versioning).
    pub hour: u64,
}

/// Everything the broadcast chain produces for one page, in job order.
#[derive(Debug, Clone)]
pub struct BroadcastArtifact {
    /// Index of the originating job in the input slice.
    pub seq: usize,
    /// The simplified page (strip/SWP-encoded screenshot + metadata).
    pub page: SimplifiedPage,
    /// The page's link-frame sequence.
    pub frames: Vec<Frame>,
    /// OFDM audio for the whole frame sequence.
    pub audio: Vec<f32>,
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads for each of the two heavy pools (render+encode and
    /// modulate). Clamped to at least 1.
    pub workers: usize,
    /// Capacity of every inter-stage channel; this bounds in-flight pages
    /// and is what back-pressure is made of. Clamped to at least 1.
    pub queue_depth: usize,
    /// Modem profile for the modulation stage.
    pub profile: Profile,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: 4,
            profile: Profile::sonic_10k(),
        }
    }
}

/// Stage 1: raster render (the "headless browser").
fn stage_render(renderer: &Renderer, job: PageJob) -> (RenderedPage, u16, u16) {
    let rendered = renderer
        .corpus()
        .render(job.id, job.hour, renderer.scale());
    let site = &renderer.corpus().sites[job.id.site];
    let ttl = site.category.landing_churn_hours().max(1) as u16;
    let version = (job.hour % u16::MAX as u64) as u16;
    (rendered, version, ttl)
}

/// Stage 2: SWP/strip image encoding into a broadcastable page.
fn stage_encode(rendered: &RenderedPage, version: u16, ttl: u16) -> SimplifiedPage {
    SimplifiedPage::from_raster(
        &rendered.url,
        &rendered.raster,
        rendered.clickmap.clone(),
        version,
        ttl,
    )
}

/// Stage 3: page → link frames.
fn stage_chunk(page: &SimplifiedPage) -> Vec<Frame> {
    page_to_frames(page)
}

/// Stage 4: link frames → OFDM audio.
fn stage_modulate(profile: &Profile, frames: &[Frame]) -> Vec<f32> {
    link::modulate(profile, frames)
}

/// Single-threaded reference: runs the four stages back-to-back per job.
/// The parallel pipeline must produce bit-identical artifacts.
pub fn run_serial(renderer: &Renderer, profile: &Profile, jobs: &[PageJob]) -> Vec<BroadcastArtifact> {
    jobs.iter()
        .enumerate()
        .map(|(seq, &job)| {
            let (rendered, version, ttl) = stage_render(renderer, job);
            let page = stage_encode(&rendered, version, ttl);
            let frames = stage_chunk(&page);
            let audio = stage_modulate(profile, &frames);
            BroadcastArtifact {
                seq,
                page,
                frames,
                audio,
            }
        })
        .collect()
}

/// Pulls final-stage results and yields them in `seq` order via a reorder
/// buffer, applying `emit` to each as soon as its turn arrives.
fn reorder_sink(
    rx: Receiver<BroadcastArtifact>,
    total: usize,
    mut emit: impl FnMut(&BroadcastArtifact),
) -> Vec<BroadcastArtifact> {
    let mut pending: BTreeMap<usize, BroadcastArtifact> = BTreeMap::new();
    let mut out = Vec::with_capacity(total);
    let mut next = 0usize;
    for artifact in rx {
        pending.insert(artifact.seq, artifact);
        while let Some(a) = pending.remove(&next) {
            emit(&a);
            out.push(a);
            next += 1;
        }
    }
    // Channel closed: all workers exited, everything must have drained.
    assert!(pending.is_empty(), "pipeline lost artifacts");
    out
}

/// Runs the broadcast pipeline over `jobs`, returning artifacts in job
/// order. `on_ready` fires on the caller thread for each artifact as it
/// clears the reorder buffer (still in job order) — this is where
/// [`run_pipeline_into_scheduler`] hooks the scheduler in.
pub fn run_pipeline_with(
    renderer: &Renderer,
    jobs: &[PageJob],
    opts: &PipelineOptions,
    on_ready: impl FnMut(&BroadcastArtifact),
) -> Vec<BroadcastArtifact> {
    let workers = opts.workers.max(1);
    let depth = opts.queue_depth.max(1);
    let profile = &opts.profile;

    // Stage channels. Bounded: a full queue blocks the upstream stage, so
    // memory stays at O(queue_depth) pages regardless of job count.
    let (job_tx, job_rx) = sync_channel::<(usize, PageJob)>(depth);
    let (page_tx, page_rx) = sync_channel::<(usize, SimplifiedPage)>(depth);
    let (frame_tx, frame_rx) = sync_channel::<(usize, SimplifiedPage, Vec<Frame>)>(depth);
    let (out_tx, out_rx) = sync_channel::<BroadcastArtifact>(depth);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let page_rx = Arc::new(Mutex::new(page_rx));
    let frame_rx = Arc::new(Mutex::new(frame_rx));

    std::thread::scope(|scope| {
        // Render + SWP-encode pool (stages 1–2 share a worker: the encode
        // input is the render output and both are per-page pure functions).
        for _ in 0..workers {
            let (job_rx, page_tx) = (Arc::clone(&job_rx), page_tx.clone());
            scope.spawn(move || {
                while let Some((seq, job)) = next(&job_rx) {
                    let (rendered, version, ttl) = stage_render(renderer, job);
                    let page = stage_encode(&rendered, version, ttl);
                    if page_tx.send((seq, page)).is_err() {
                        return;
                    }
                }
            });
        }
        // Chunking stage (cheap; one worker keeps it a distinct stage
        // without burning threads).
        {
            let (page_rx, frame_tx) = (Arc::clone(&page_rx), frame_tx.clone());
            scope.spawn(move || {
                while let Some((seq, page)) = next(&page_rx) {
                    let frames = stage_chunk(&page);
                    if frame_tx.send((seq, page, frames)).is_err() {
                        return;
                    }
                }
            });
        }
        // Modulation pool. Each worker thread keeps its own cached
        // `FrameCodec` (thread-local inside sonic-modem), so the OFDM plan
        // and scratch buffers are built once per thread, not per page.
        for _ in 0..workers {
            let (frame_rx, out_tx) = (Arc::clone(&frame_rx), out_tx.clone());
            scope.spawn(move || {
                while let Some((seq, page, frames)) = next(&frame_rx) {
                    let audio = stage_modulate(profile, &frames);
                    if out_tx
                        .send(BroadcastArtifact {
                            seq,
                            page,
                            frames,
                            audio,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
        // The workers own the clones; drop ours so the chain closes stage by
        // stage once the feeder finishes, and a stage whose workers all
        // died fails its upstream's sends instead of blocking them.
        drop(page_tx);
        drop(page_rx);
        drop(frame_tx);
        drop(frame_rx);
        drop(out_tx);
        drop(job_rx);

        // Feed jobs from a scoped thread so the caller thread can sink.
        scope.spawn(move || {
            for (seq, &job) in jobs.iter().enumerate() {
                if job_tx.send((seq, job)).is_err() {
                    return;
                }
            }
        });

        reorder_sink(out_rx, jobs.len(), on_ready)
    })
}

/// The next item for a pool worker; `None` once the upstream stage hung up
/// and the queue is drained.
fn next<T>(rx: &Mutex<Receiver<T>>) -> Option<T> {
    // A worker that panicked while waiting leaves nothing half-updated in
    // the receiver, so its guard is still sound.
    let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
    rx.recv().ok()
}

/// Per-call accounting from [`refresh_pages`] (the cumulative counters,
/// including strip/burst reuse, live in `ArtifactCache::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Pages refreshed.
    pub pages: usize,
    /// Pages served verbatim from the cache (unchanged content).
    pub full_hits: usize,
    /// Pages rebuilt by strip-delta + burst-splice against a cached basis.
    pub delta_hits: usize,
    /// Pages built cold.
    pub misses: usize,
}

/// Render-input content address: the layout hash folded with the device
/// scaling factor (the raster is a pure function of both).
fn layout_hash_scaled(renderer: &Renderer, id: PageId, hour: u64) -> u64 {
    let lh = renderer.corpus().layout(id, hour).content_hash();
    let mut h = Fnv64::new();
    h.write_u64(lh).write_u64(renderer.scale().to_bits());
    h.finish()
}

/// Rendered page content handed to [`refresh_page_with`] by a page source —
/// everything the encode → chunk → modulate stages need. The corpus
/// renderer is one producer ([`refresh_pages`] wraps it); benches and a
/// live fetcher can feed arbitrary rasters through the same cache.
#[derive(Debug, Clone)]
pub struct RenderedContent {
    /// Canonical URL (rides in the meta frames).
    pub url: String,
    /// Rendered screenshot.
    pub raster: Raster,
    /// Interactivity map.
    pub clickmap: ClickMap,
    /// Content version (page-id component; the hour on the corpus path).
    pub version: u16,
    /// Client cache TTL in hours.
    pub ttl_hours: u16,
}

/// Which path one page took through [`refresh_page_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPath {
    /// Cached artifact reused verbatim (layout or raster hash hit).
    FullHit,
    /// Rebuilt against a cached basis: only dirty strips re-encoded, only
    /// unrecognized bursts re-modulated.
    Delta,
    /// Built cold through the full pipeline.
    Cold,
}

/// Runs one page through the artifact cache, rendering lazily.
///
/// `layout_hash` is the content address of the *render input*: if it equals
/// the cached entry's, the raster is known to be bit-identical without
/// rendering and `render` is never called. Otherwise `render` produces the
/// content and the raster hash decides between verbatim reuse, strip-delta
/// rebuild and a cold build (see [`refresh_pages`] for the path rules).
pub fn refresh_page_with(
    cache: &mut impl ArtifactTier,
    key: PageId,
    layout_hash: u64,
    hour: u64,
    profile: Option<&Profile>,
    render: impl FnOnce() -> RenderedContent,
) -> (Artifact, RefreshPath) {
    let want_audio = profile.is_some();
    if let Some(a) = cache.lookup_layout(key, layout_hash, want_audio) {
        return (a, RefreshPath::FullHit);
    }
    let content = render();
    // The pixels are hashed exactly once: the per-column index serves the
    // whole-raster address, the dirty-strip diff, and the next refresh's
    // delta basis.
    let new_hashes = strip::column_hashes(&content.raster);
    let rh = strip::raster_hash_from(
        content.raster.width(),
        content.raster.height(),
        &new_hashes,
    );
    if let Some(a) = cache.lookup_raster(
        key,
        rh,
        layout_hash,
        &content.url,
        &content.clickmap,
        content.ttl_hours,
        want_audio,
    ) {
        return (a, RefreshPath::FullHit);
    }

    let basis = cache.delta_basis_mut(key);
    let (strips, col_hashes, delta) = match &basis {
        Some((prev, prev_hashes))
            if prev.page.strips.width == content.raster.width()
                && prev.page.strips.height == content.raster.height() =>
        {
            let d = strip::encode_delta_prehashed(
                &content.raster,
                &prev.page.strips,
                prev_hashes,
                new_hashes,
            );
            cache.stats_mut().strips_reused += d.reused as u64;
            cache.stats_mut().strips_reencoded += d.reencoded as u64;
            (d.strips, d.hashes, true)
        }
        _ => (strip::encode(&content.raster), new_hashes, false),
    };
    let page = Arc::new(SimplifiedPage::from_parts(
        &content.url,
        strips,
        content.clickmap,
        content.version,
        content.ttl_hours,
    ));
    let frames = Arc::new(page_to_frames(&page));
    let (audio, bursts) = match profile {
        Some(p) => match &basis {
            Some((prev, _)) if delta && prev.has_audio() => {
                let s = link::modulate_spliced(p, &frames, &prev.audio, &prev.bursts);
                cache.stats_mut().bursts_reused += s.reused as u64;
                cache.stats_mut().bursts_modulated += s.modulated as u64;
                (s.audio, s.table)
            }
            _ => link::modulate_with_table(p, &frames),
        },
        None => (Vec::new(), BurstTable::default()),
    };
    let path = if delta {
        cache.stats_mut().delta_hits += 1;
        RefreshPath::Delta
    } else {
        cache.stats_mut().misses += 1;
        RefreshPath::Cold
    };
    let artifact = Artifact {
        page,
        frames,
        audio: Arc::new(audio),
        bursts,
    };
    cache.store(
        key,
        layout_hash,
        rh,
        Arc::new(col_hashes),
        artifact.clone(),
        hour,
    );
    (artifact, path)
}

/// Runs one carousel refresh through the artifact cache.
///
/// For every job the driver picks the cheapest sound path:
///
/// 1. **Layout hit** — the layout hash (render input) is unchanged, so the
///    raster would be bit-identical: the cached artifact is reused verbatim,
///    keeping its original version (and therefore page id, frames, audio).
///    The render, encode, chunk and modulate stages all get skipped.
/// 2. **Raster hit** — the layout hash moved but the rendered pixels (and
///    the click map / TTL / URL that ride in the meta frames) did not:
///    reuse as above, after refreshing the stored layout hash.
/// 3. **Delta** — same dimensions but some columns changed: re-encode only
///    dirty strips ([`strip::encode_delta`]) and re-modulate only bursts
///    whose payload is not in the cached burst table
///    ([`link::modulate_spliced`]). The page takes the hour-derived version
///    exactly like the cold path, so the result is bit-identical to a cold
///    build of the same inputs.
/// 4. **Cold** — no usable basis: the full pipeline runs, identical to
///    [`run_serial`]'s stages.
///
/// `profile: None` runs frames-only (no audio is produced or cached) — the
/// SMS push path uses this since its product is scheduler frames, not FM
/// audio. Cached frames-only artifacts are never served to a refresh that
/// wants audio; they are rebuilt (still reusing strips via the delta path).
pub fn refresh_pages(
    renderer: &Renderer,
    cache: &mut impl ArtifactTier,
    jobs: &[PageJob],
    profile: Option<&Profile>,
) -> (Vec<Artifact>, RefreshStats) {
    let mut out = Vec::with_capacity(jobs.len());
    let mut stats = RefreshStats {
        pages: jobs.len(),
        ..RefreshStats::default()
    };
    for &job in jobs {
        let lh = layout_hash_scaled(renderer, job.id, job.hour);
        let (artifact, path) = refresh_page_with(cache, job.id, lh, job.hour, profile, || {
            let rendered = renderer.corpus().render(job.id, job.hour, renderer.scale());
            let site = &renderer.corpus().sites[job.id.site];
            RenderedContent {
                url: rendered.url,
                raster: rendered.raster,
                clickmap: rendered.clickmap,
                version: (job.hour % u16::MAX as u64) as u16,
                ttl_hours: site.category.landing_churn_hours().max(1) as u16,
            }
        });
        match path {
            RefreshPath::FullHit => stats.full_hits += 1,
            RefreshPath::Delta => stats.delta_hits += 1,
            RefreshPath::Cold => stats.misses += 1,
        }
        out.push(artifact);
    }
    (out, stats)
}

/// [`refresh_pages`] that also enqueues every artifact into `scheduler`,
/// zero-copy: the scheduler holds the cache's `Arc`s, not copies.
pub fn refresh_into_scheduler(
    renderer: &Renderer,
    cache: &mut impl ArtifactTier,
    jobs: &[PageJob],
    profile: Option<&Profile>,
    scheduler: &mut BroadcastScheduler,
    now_s: f64,
) -> (Vec<Artifact>, RefreshStats) {
    let (artifacts, stats) = refresh_pages(renderer, cache, jobs, profile);
    for a in &artifacts {
        scheduler.enqueue_prechunked(a.page.clone(), a.frames.clone(), now_s);
    }
    (artifacts, stats)
}

/// How one page rides the current carousel revolution.
#[derive(Debug, Clone)]
pub enum CarouselSlot {
    /// The page's layout or raster is unchanged since the cached build —
    /// nothing is broadcast this revolution.
    Unchanged,
    /// Genuinely new content (no usable delta basis): the page gets a
    /// full-page slot with its complete frame sequence and audio.
    Full,
    /// The page changed but a prior version is cached: only the meta
    /// bracket plus the changed columns' chunks are broadcast.
    Delta {
        /// The delta frame subset (meta frames + changed columns' chunks),
        /// each bit-identical to its counterpart in the full sequence.
        frames: Arc<Vec<Frame>>,
        /// OFDM audio for exactly `frames` — bit-identical to
        /// `link::modulate(profile, frames)`.
        audio: Arc<Vec<f32>>,
        /// How many columns changed (0 is valid: meta-only version bump).
        changed_columns: usize,
    },
}

/// One page's outcome from [`refresh_carousel`].
#[derive(Debug, Clone)]
pub struct CarouselItem {
    /// The page's corpus key.
    pub id: PageId,
    /// The up-to-date artifact (full frames and audio — the next
    /// revolution's delta basis and the repair path's source).
    pub artifact: Artifact,
    /// What, if anything, goes on air for this page.
    pub slot: CarouselSlot,
}

/// Aggregate accounting for one carousel revolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarouselStats {
    /// Jobs processed.
    pub pages: usize,
    /// Pages that were byte-identical to the cached build.
    pub unchanged: usize,
    /// Pages given a full-page slot.
    pub full_slots: usize,
    /// Pages given a delta slot.
    pub delta_slots: usize,
    /// Frames across all full slots.
    pub full_frames: usize,
    /// Frames across all delta slots.
    pub delta_frames: usize,
    /// Columns re-broadcast across all delta slots.
    pub columns_changed: usize,
    /// Total columns across all delta-slotted pages.
    pub columns_total: usize,
}

/// Selects the delta frame subset: the full meta bracket plus every chunk
/// of a changed column. Chunk sequences stay intact per column (a column is
/// rebroadcast whole, from seq 0), so the receiver's longest-prefix
/// reassembly accepts them without a new wire format.
fn delta_frame_subset(frames: &[Frame], changed: &[u16]) -> Vec<Frame> {
    let mut is_changed = Vec::new();
    for &c in changed {
        let c = c as usize;
        if c >= is_changed.len() {
            is_changed.resize(c + 1, false);
        }
        is_changed[c] = true;
    }
    frames
        .iter()
        .filter(|f| match f {
            Frame::Meta { .. } => true,
            Frame::Strip { column, .. } => {
                is_changed.get(*column as usize).copied().unwrap_or(false)
            }
        })
        .cloned()
        .collect()
}

/// Incremental carousel refresh: like [`refresh_pages`], but instead of
/// always producing full-page artifacts for the scheduler, each page is
/// classified into a [`CarouselSlot`]:
///
/// - **Unchanged** (layout or raster hash hit) — nothing airs.
/// - **Delta** (changed, cached prior with matching dimensions) — the page
///   is rebuilt (dirty strips only, via the delta basis), and the slot
///   carries just the meta bracket plus changed columns' chunks, modulated
///   directly. Because every frame is a pure function of the page and
///   modulation a pure function of (profile, frames), the delta frames and
///   audio are bit-identical to the corresponding subset of a cold build.
/// - **Full** (no usable basis) — the complete frame sequence and audio,
///   exactly the cold path.
///
/// Cached artifacts on the Delta path store the **full** frame sequence
/// and full audio (spliced against the prior burst table): they are next
/// hour's delta basis and serve repair requests. The slot's delta audio is
/// the spliced audio itself when every column changed, else a direct
/// modulation of the delta subset.
pub fn refresh_carousel(
    renderer: &Renderer,
    cache: &mut impl ArtifactTier,
    jobs: &[PageJob],
    profile: &Profile,
) -> (Vec<CarouselItem>, CarouselStats) {
    let mut out = Vec::with_capacity(jobs.len());
    for &job in jobs {
        let lh = layout_hash_scaled(renderer, job.id, job.hour);
        let item = carousel_page_with(cache, job.id, lh, job.hour, profile, || {
            let rendered = renderer.corpus().render(job.id, job.hour, renderer.scale());
            let site = &renderer.corpus().sites[job.id.site];
            RenderedContent {
                url: rendered.url,
                raster: rendered.raster,
                clickmap: rendered.clickmap,
                version: (job.hour % u16::MAX as u64) as u16,
                ttl_hours: site.category.landing_churn_hours().max(1) as u16,
            }
        });
        out.push(item);
    }
    let stats = carousel_stats(&out);
    (out, stats)
}

/// Folds a revolution's [`CarouselItem`]s into its [`CarouselStats`].
pub fn carousel_stats(items: &[CarouselItem]) -> CarouselStats {
    let mut stats = CarouselStats {
        pages: items.len(),
        ..CarouselStats::default()
    };
    for item in items {
        match &item.slot {
            CarouselSlot::Unchanged => stats.unchanged += 1,
            CarouselSlot::Full => {
                stats.full_slots += 1;
                stats.full_frames += item.artifact.frames.len();
            }
            CarouselSlot::Delta {
                frames,
                changed_columns,
                ..
            } => {
                stats.delta_slots += 1;
                stats.delta_frames += frames.len();
                stats.columns_changed += changed_columns;
                stats.columns_total += item.artifact.page.strips.width;
            }
        }
    }
    stats
}

/// One page through the incremental carousel — the render-agnostic core of
/// [`refresh_carousel`], mirroring [`refresh_page_with`]. `render` is only
/// invoked when the layout hash misses.
pub fn carousel_page_with(
    cache: &mut impl ArtifactTier,
    key: PageId,
    layout_hash: u64,
    hour: u64,
    profile: &Profile,
    render: impl FnOnce() -> RenderedContent,
) -> CarouselItem {
    // Audio is not required for the unchanged check: a delta-built
    // artifact (cached without audio) still means "nothing new to air".
    if let Some(a) = cache.lookup_layout(key, layout_hash, false) {
        return CarouselItem {
            id: key,
            artifact: a,
            slot: CarouselSlot::Unchanged,
        };
    }
    let content = render();
    let new_hashes = strip::column_hashes(&content.raster);
    let rh = strip::raster_hash_from(
        content.raster.width(),
        content.raster.height(),
        &new_hashes,
    );
    if let Some(a) = cache.lookup_raster(
        key,
        rh,
        layout_hash,
        &content.url,
        &content.clickmap,
        content.ttl_hours,
        false,
    ) {
        return CarouselItem {
            id: key,
            artifact: a,
            slot: CarouselSlot::Unchanged,
        };
    }
    let basis = cache.delta_basis_mut(key);
    let delta_basis = match &basis {
        Some((prev, prev_hashes))
            if prev.page.strips.width == content.raster.width()
                && prev.page.strips.height == content.raster.height() =>
        {
            Some((prev, prev_hashes))
        }
        _ => None,
    };
    match delta_basis {
        Some((prev, prev_hashes)) => {
            let d = strip::encode_delta_prehashed(
                &content.raster,
                &prev.page.strips,
                prev_hashes,
                new_hashes,
            );
            cache.stats_mut().strips_reused += d.reused as u64;
            cache.stats_mut().strips_reencoded += d.reencoded as u64;
            let changed = strip::diff_columns(prev_hashes, &d.hashes);
            let all_changed = changed.len() == d.hashes.len();
            let page = Arc::new(SimplifiedPage::from_parts(
                &content.url,
                d.strips,
                content.clickmap,
                content.version,
                content.ttl_hours,
            ));
            let frames_full = Arc::new(page_to_frames(&page));
            // The cached artifact keeps full audio (next hour's splice
            // basis and the repair path's source), built the cheap way:
            // splice against the prior burst table where it exists.
            let (audio, bursts) = if prev.has_audio() {
                let s = link::modulate_spliced(profile, &frames_full, &prev.audio, &prev.bursts);
                cache.stats_mut().bursts_reused += s.reused as u64;
                cache.stats_mut().bursts_modulated += s.modulated as u64;
                (s.audio, s.table)
            } else {
                link::modulate_with_table(profile, &frames_full)
            };
            cache.stats_mut().delta_hits += 1;
            let artifact = Artifact {
                page,
                frames: frames_full,
                audio: Arc::new(audio),
                bursts,
            };
            // Slot audio: when every column changed the delta IS the full
            // sequence, so the spliced audio serves verbatim; otherwise the
            // (small) delta subset regroups into its own bursts and is
            // modulated directly — still bit-identical to
            // `link::modulate(profile, delta_frames)` by purity.
            let (delta_frames, delta_audio) = if all_changed {
                (artifact.frames.clone(), artifact.audio.clone())
            } else {
                let df = Arc::new(delta_frame_subset(&artifact.frames, &changed));
                let (da, _) = link::modulate_with_table(profile, &df);
                cache.stats_mut().bursts_modulated +=
                    df.len().div_ceil(crate::link::FRAMES_PER_BURST) as u64;
                (df, Arc::new(da))
            };
            cache.store(key, layout_hash, rh, Arc::new(d.hashes), artifact.clone(), hour);
            CarouselItem {
                id: key,
                artifact,
                slot: CarouselSlot::Delta {
                    frames: delta_frames,
                    audio: delta_audio,
                    changed_columns: changed.len(),
                },
            }
        }
        None => {
            let page = Arc::new(SimplifiedPage::from_parts(
                &content.url,
                strip::encode(&content.raster),
                content.clickmap,
                content.version,
                content.ttl_hours,
            ));
            let frames = Arc::new(page_to_frames(&page));
            let (audio, bursts) = link::modulate_with_table(profile, &frames);
            cache.stats_mut().misses += 1;
            let artifact = Artifact {
                page,
                frames,
                audio: Arc::new(audio),
                bursts,
            };
            cache.store(key, layout_hash, rh, Arc::new(new_hashes), artifact.clone(), hour);
            CarouselItem {
                id: key,
                artifact,
                slot: CarouselSlot::Full,
            }
        }
    }
}

/// [`refresh_carousel`] that feeds the scheduler: Full slots take a
/// full-page entry, Delta slots take a delta entry (which a queued full
/// page supersedes, and which never serves repair requests), and Unchanged
/// pages enqueue nothing.
pub fn refresh_carousel_into_scheduler(
    renderer: &Renderer,
    cache: &mut impl ArtifactTier,
    jobs: &[PageJob],
    profile: &Profile,
    scheduler: &mut BroadcastScheduler,
    now_s: f64,
) -> (Vec<CarouselItem>, CarouselStats) {
    let (items, stats) = refresh_carousel(renderer, cache, jobs, profile);
    for item in &items {
        match &item.slot {
            CarouselSlot::Unchanged => {}
            CarouselSlot::Full => {
                scheduler.enqueue_prechunked(
                    item.artifact.page.clone(),
                    item.artifact.frames.clone(),
                    now_s,
                );
            }
            CarouselSlot::Delta { frames, .. } => {
                scheduler.enqueue_delta(item.artifact.page.clone(), frames.clone(), now_s);
            }
        }
    }
    (items, stats)
}

/// [`run_pipeline_with`] without a sink callback.
pub fn run_pipeline(
    renderer: &Renderer,
    jobs: &[PageJob],
    opts: &PipelineOptions,
) -> Vec<BroadcastArtifact> {
    run_pipeline_with(renderer, jobs, opts, |_| {})
}

/// Runs the pipeline and enqueues every page into `scheduler` as it clears
/// the reorder buffer, in job order. The bounded stage queues mean a
/// transmitter that stops draining its scheduler does not cause unbounded
/// pipeline buffering — at most `queue_depth` pages per stage are in
/// flight. Returns the artifacts (audio included) in job order.
pub fn run_pipeline_into_scheduler(
    renderer: &Renderer,
    jobs: &[PageJob],
    opts: &PipelineOptions,
    scheduler: &mut BroadcastScheduler,
    now_s: f64,
) -> Vec<BroadcastArtifact> {
    run_pipeline_with(renderer, jobs, opts, |artifact| {
        scheduler.enqueue(artifact.page.clone(), now_s);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::cache::ArtifactCache;
    use sonic_pagegen::Corpus;

    fn renderer() -> Renderer {
        Renderer::new(Corpus::small(3), 0.05)
    }

    fn jobs() -> Vec<PageJob> {
        // Mix sites, pages and hours so artifacts differ.
        vec![
            PageJob {
                id: PageId { site: 0, page: 0 },
                hour: 1,
            },
            PageJob {
                id: PageId { site: 1, page: 1 },
                hour: 2,
            },
            PageJob {
                id: PageId { site: 2, page: 0 },
                hour: 3,
            },
            PageJob {
                id: PageId { site: 0, page: 2 },
                hour: 1,
            },
            PageJob {
                id: PageId { site: 1, page: 0 },
                hour: 7,
            },
            PageJob {
                id: PageId { site: 2, page: 3 },
                hour: 9,
            },
        ]
    }

    fn assert_artifacts_identical(a: &[BroadcastArtifact], b: &[BroadcastArtifact]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.page.page_id, y.page.page_id);
            assert_eq!(x.page.url, y.page.url);
            assert_eq!(x.page.meta_blob(), y.page.meta_blob());
            assert_eq!(x.page.strips.strips, y.page.strips.strips);
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.audio.len(), y.audio.len(), "seq {}", x.seq);
            for (i, (s, t)) in x.audio.iter().zip(&y.audio).enumerate() {
                assert_eq!(s.to_bits(), t.to_bits(), "seq {} sample {i}", x.seq);
            }
        }
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial() {
        let r = renderer();
        let jobs = jobs();
        let opts = PipelineOptions {
            workers: 4,
            queue_depth: 2,
            ..PipelineOptions::default()
        };
        let serial = run_serial(&r, &opts.profile, &jobs);
        let parallel = run_pipeline(&r, &jobs, &opts);
        assert_artifacts_identical(&serial, &parallel);
    }

    #[test]
    fn single_worker_and_tiny_queue_still_complete() {
        let r = renderer();
        let jobs = jobs();
        let opts = PipelineOptions {
            workers: 1,
            queue_depth: 1,
            ..PipelineOptions::default()
        };
        let out = run_pipeline(&r, &jobs, &opts);
        assert_eq!(out.len(), jobs.len());
        for (i, a) in out.iter().enumerate() {
            assert_eq!(a.seq, i, "artifacts must arrive in job order");
            assert!(!a.audio.is_empty());
        }
    }

    #[test]
    fn zero_workers_clamps_instead_of_hanging() {
        let r = renderer();
        let jobs = &jobs()[..2];
        let opts = PipelineOptions {
            workers: 0,
            queue_depth: 0,
            ..PipelineOptions::default()
        };
        assert_eq!(run_pipeline(&r, jobs, &opts).len(), 2);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let r = renderer();
        assert!(run_pipeline(&r, &[], &PipelineOptions::default()).is_empty());
    }

    #[test]
    fn cold_refresh_is_bit_identical_to_serial_pipeline() {
        let r = renderer();
        let jobs = jobs();
        let profile = Profile::sonic_10k();
        let mut cache = ArtifactCache::unbounded();
        let (warm, stats) = refresh_pages(&r, &mut cache, &jobs, Some(&profile));
        assert_eq!(stats.misses, jobs.len(), "cold cache: every page is a miss");
        let serial = run_serial(&r, &profile, &jobs);
        assert_eq!(warm.len(), serial.len());
        for (a, s) in warm.iter().zip(&serial) {
            assert_eq!(a.page.page_id, s.page.page_id);
            assert_eq!(a.page.meta_blob(), s.page.meta_blob());
            assert_eq!(a.page.strips.strips, s.page.strips.strips);
            assert_eq!(*a.frames, s.frames);
            assert_eq!(a.audio.len(), s.audio.len());
            for (x, y) in a.audio.iter().zip(&s.audio) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn repeat_refresh_reuses_artifacts_verbatim() {
        let r = renderer();
        let jobs = jobs();
        let mut cache = ArtifactCache::unbounded();
        let (first, _) = refresh_pages(&r, &mut cache, &jobs, Some(&Profile::sonic_10k()));
        let (second, stats) = refresh_pages(&r, &mut cache, &jobs, Some(&Profile::sonic_10k()));
        assert_eq!(stats.full_hits, jobs.len());
        assert_eq!(stats.misses + stats.delta_hits, 0);
        for (a, b) in first.iter().zip(&second) {
            assert!(std::sync::Arc::ptr_eq(&a.audio, &b.audio), "audio shared, not copied");
            assert!(std::sync::Arc::ptr_eq(&a.frames, &b.frames));
        }
    }

    #[test]
    fn hourly_refresh_reuses_unchanged_pages_and_rebuilds_changed() {
        let r = renderer();
        let corpus = r.corpus();
        let jobs_h: Vec<PageJob> = corpus
            .pages()
            .into_iter()
            .map(|id| PageJob { id, hour: 12 })
            .collect();
        let jobs_h1: Vec<PageJob> = jobs_h.iter().map(|j| PageJob { hour: 13, ..*j }).collect();
        let mut cache = ArtifactCache::unbounded();
        let profile = Profile::sonic_10k();
        let (first, _) = refresh_pages(&r, &mut cache, &jobs_h, Some(&profile));
        let (second, stats) = refresh_pages(&r, &mut cache, &jobs_h1, Some(&profile));
        let changed: Vec<bool> = jobs_h
            .iter()
            .map(|j| corpus.changed(j.id, 12, 13))
            .collect();
        let n_changed = changed.iter().filter(|&&c| c).count();
        assert!(n_changed > 0, "hour 12→13 must change something");
        assert_eq!(stats.full_hits, jobs_h.len() - n_changed);
        assert_eq!(stats.delta_hits + stats.misses, n_changed);
        for ((a, b), &ch) in first.iter().zip(&second).zip(&changed) {
            if ch {
                // Rebuilt at the new hour: bit-identical to a cold build.
                let serial = run_serial(
                    &r,
                    &profile,
                    &[PageJob {
                        id: corpus.find_url(&b.page.url, 13).expect("corpus url"),
                        hour: 13,
                    }],
                );
                assert_eq!(b.page.strips.strips, serial[0].page.strips.strips);
                assert_eq!(*b.frames, serial[0].frames);
                assert_eq!(b.audio.len(), serial[0].audio.len());
                for (x, y) in b.audio.iter().zip(&serial[0].audio) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            } else {
                // Unchanged: the very same artifact, old version included.
                assert!(std::sync::Arc::ptr_eq(&a.page, &b.page));
                assert!(std::sync::Arc::ptr_eq(&a.audio, &b.audio));
            }
        }
    }

    #[test]
    fn frames_only_refresh_skips_audio_then_audio_refresh_rebuilds() {
        let r = renderer();
        let jobs = &jobs()[..2];
        let mut cache = ArtifactCache::unbounded();
        let (no_audio, _) = refresh_pages(&r, &mut cache, jobs, None);
        assert!(no_audio.iter().all(|a| !a.has_audio()));
        // Frames-only again: full hits are fine without audio.
        let (_, s2) = refresh_pages(&r, &mut cache, jobs, None);
        assert_eq!(s2.full_hits, 2);
        // Now audio is wanted: the cached frames-only artifacts are not
        // served verbatim; strips are still reused via the delta basis.
        let profile = Profile::sonic_10k();
        let (with_audio, s3) = refresh_pages(&r, &mut cache, jobs, Some(&profile));
        assert_eq!(s3.full_hits, 0);
        assert!(with_audio.iter().all(|a| a.has_audio()));
        let serial = run_serial(&r, &profile, jobs);
        for (a, s) in with_audio.iter().zip(&serial) {
            assert_eq!(a.audio.len(), s.audio.len());
            for (x, y) in a.audio.iter().zip(&s.audio) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn refresh_into_scheduler_enqueues_shared_frames() {
        let r = renderer();
        let jobs = jobs();
        let mut cache = ArtifactCache::unbounded();
        let mut sched = BroadcastScheduler::new(10_000.0);
        let (artifacts, _) =
            refresh_into_scheduler(&r, &mut cache, &jobs, None, &mut sched, 0.0);
        assert_eq!(sched.backlog_pages(), jobs.len());
        let total: usize = artifacts
            .iter()
            .map(|a| a.frames.len() * crate::frame::FRAME_SIZE)
            .sum();
        assert_eq!(sched.backlog_bytes(), total);
        // Re-push the same refresh: dedupe keeps the backlog flat.
        let _ = refresh_into_scheduler(&r, &mut cache, &jobs, None, &mut sched, 1.0);
        assert_eq!(sched.backlog_pages(), jobs.len());
        assert_eq!(sched.backlog_bytes(), total);
    }

    #[test]
    fn scheduler_sink_enqueues_in_job_order() {
        let r = renderer();
        let jobs = jobs();
        let opts = PipelineOptions {
            workers: 3,
            queue_depth: 2,
            ..PipelineOptions::default()
        };
        let mut sched = BroadcastScheduler::new(10_000.0);
        let artifacts = run_pipeline_into_scheduler(&r, &jobs, &opts, &mut sched, 0.0);
        assert_eq!(sched.backlog_pages(), jobs.len(), "all pages queued");
        let total: usize = artifacts
            .iter()
            .map(|a| a.frames.len() * crate::frame::FRAME_SIZE)
            .sum();
        assert_eq!(sched.backlog_bytes(), total);
        // ETAs must reflect job order: later jobs sit deeper in the queue.
        let mut last_eta = 0.0;
        for a in &artifacts {
            let eta = sched.eta_for(a.page.page_id).expect("queued");
            assert!(eta > last_eta, "eta must grow with queue position");
            last_eta = eta;
        }
    }
}
