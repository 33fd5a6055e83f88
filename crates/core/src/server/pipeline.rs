//! The page-to-air driver: render → SWP/strip encode → chunk → OFDM
//! modulate, through the content-addressed artifact cache.
//!
//! [`refresh_pages`] is the one way a page reaches air. The station's
//! hourly carousel, `SonicServer::push_popular` and the cluster
//! coordinator's `push_carousel` all run it. For each page it takes the
//! cheapest sound [`RefreshPath`]: verbatim reuse when the layout or raster
//! hash is unchanged, a strip-delta + burst-splice rebuild against the
//! cached previous version, or a cold build. Every path yields an artifact
//! bit-identical to a cold build of the same inputs, so a changed page
//! always airs in full: the paper's hourly 100-page refresh broadcasts each
//! changed page whole. [`refresh_page_with`] is the render-agnostic core,
//! for page sources other than the corpus renderer.
//!
//! Parallelism lives below this layer: `link::modulate_with_table` spreads
//! a page's fresh bursts over the burst workers.

use crate::chunker::page_to_frames;
use crate::link::{self, BurstTable};
use crate::page::SimplifiedPage;
use crate::server::cache::{Artifact, ArtifactTier};
use crate::server::render::Renderer;
use sonic_image::clickmap::ClickMap;
use sonic_image::hash::Fnv64;
use sonic_image::raster::Raster;
use sonic_image::strip;
use sonic_modem::profile::Profile;
use sonic_pagegen::PageId;
use std::sync::Arc;

/// One render request: a corpus page at an hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageJob {
    /// Corpus page to render.
    pub id: PageId,
    /// Render hour (drives versioning).
    pub hour: u64,
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
/// 4. **Cold** — no usable basis: every stage runs (render → strip encode →
///    chunk → modulate).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::server::cache::ArtifactCache;
    use crate::server::scheduler::BroadcastScheduler;
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

    /// The oracle: one page built cold with no cache — render →
    /// `SimplifiedPage::from_raster` → `page_to_frames` → `link::modulate`.
    fn cold_build(
        r: &Renderer,
        profile: &Profile,
        job: PageJob,
    ) -> (SimplifiedPage, Vec<Frame>, Vec<f32>) {
        let rendered = r.corpus().render(job.id, job.hour, r.scale());
        let site = &r.corpus().sites[job.id.site];
        let ttl = site.category.landing_churn_hours().max(1) as u16;
        let page = SimplifiedPage::from_raster(
            &rendered.url,
            &rendered.raster,
            rendered.clickmap,
            (job.hour % u16::MAX as u64) as u16,
            ttl,
        );
        let frames = page_to_frames(&page);
        let audio = link::modulate(profile, &frames);
        (page, frames, audio)
    }

    fn assert_audio_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn cold_refresh_is_bit_identical_to_cold_build() {
        let r = renderer();
        let jobs = jobs();
        let profile = Profile::sonic_10k();
        let mut cache = ArtifactCache::unbounded();
        let (warm, stats) = refresh_pages(&r, &mut cache, &jobs, Some(&profile));
        assert_eq!(stats.misses, jobs.len(), "cold cache: every page is a miss");
        assert_eq!(warm.len(), jobs.len());
        for (a, &job) in warm.iter().zip(&jobs) {
            let (page, frames, audio) = cold_build(&r, &profile, job);
            assert_eq!(a.page.page_id, page.page_id);
            assert_eq!(a.page.meta_blob(), page.meta_blob());
            assert_eq!(a.page.strips.strips, page.strips.strips);
            assert_eq!(*a.frames, frames);
            assert_audio_bits_eq(&a.audio, &audio);
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let r = renderer();
        let mut cache = ArtifactCache::unbounded();
        let (out, stats) = refresh_pages(&r, &mut cache, &[], Some(&Profile::sonic_10k()));
        assert!(out.is_empty());
        assert_eq!(stats, RefreshStats::default());
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
            assert!(Arc::ptr_eq(&a.audio, &b.audio), "audio shared, not copied");
            assert!(Arc::ptr_eq(&a.frames, &b.frames));
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
                let job = PageJob {
                    id: corpus.find_url(&b.page.url, 13).expect("corpus url"),
                    hour: 13,
                };
                let (page, frames, audio) = cold_build(&r, &profile, job);
                assert_eq!(b.page.strips.strips, page.strips.strips);
                assert_eq!(*b.frames, frames);
                assert_audio_bits_eq(&b.audio, &audio);
            } else {
                // Unchanged: the very same artifact, old version included.
                assert!(Arc::ptr_eq(&a.page, &b.page));
                assert!(Arc::ptr_eq(&a.audio, &b.audio));
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
        for (a, &job) in with_audio.iter().zip(jobs) {
            let (_, _, audio) = cold_build(&r, &profile, job);
            assert_audio_bits_eq(&a.audio, &audio);
        }
    }

    #[test]
    fn refreshed_artifacts_enqueue_shared_frames() {
        let r = renderer();
        let jobs = jobs();
        let mut cache = ArtifactCache::unbounded();
        let mut sched = BroadcastScheduler::new(10_000.0);
        let push = |cache: &mut ArtifactCache, sched: &mut BroadcastScheduler, now_s: f64| {
            let (artifacts, _) = refresh_pages(&r, cache, &jobs, None);
            for a in &artifacts {
                sched.enqueue_prechunked(a.page.clone(), a.frames.clone(), now_s);
            }
            artifacts
        };
        let artifacts = push(&mut cache, &mut sched, 0.0);
        assert_eq!(sched.backlog_pages(), jobs.len());
        let total: usize = artifacts
            .iter()
            .map(|a| a.frames.len() * crate::frame::FRAME_SIZE)
            .sum();
        assert_eq!(sched.backlog_bytes(), total);
        // Re-push the same refresh: dedupe keeps the backlog flat.
        let _ = push(&mut cache, &mut sched, 1.0);
        assert_eq!(sched.backlog_pages(), jobs.len());
        assert_eq!(sched.backlog_bytes(), total);
    }
}
