//! `station_day`: the TX path. Cold boot of the standard corpus at hour 12
//! (audio included) into the RAM artifact cache, then 24 hourly refreshes
//! through the same cache, nightly freeze included.
//!
//! The disk tier is left out here: its `blobs.dat` is append-only, and a
//! day of this corpus with audio appends about 2.3 GB to it, more than a
//! run may write to one file. The unbounded RAM tier never misses within
//! a day, so the disk tier would only have been written, never read; the
//! `cluster_day` workload drives the disk `ArtifactStore` instead.
//!
//! The untraced pass times the two `refresh_pages` phases from outside.
//! The traced pass hands `refresh_pages` a timing wrapper around the
//! public `ArtifactTier` trait (cache lookups and stores), records what
//! every rebuilt page was built from, and afterwards calls the stage
//! functions — render, strip encode, chunk, modulate — on those same
//! inputs, so each layer's time is measured where the pipeline hides it.

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, ratio, repeat_for, set_up, timed};
use crate::{Args, SETUPS, SETUP_SECONDS};
use sonic_core::chunker::page_to_frames;
use sonic_core::link;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::{
    Artifact, ArtifactCache, ArtifactCacheStats, ArtifactTier, TieredCache,
};
use sonic_core::server::pipeline::{refresh_pages, PageJob, RefreshStats};
use sonic_core::server::render::Renderer;
use sonic_image::clickmap::ClickMap;
use sonic_image::strip;
use sonic_modem::Profile;
use sonic_pagegen::{Corpus, PageId};
use std::sync::Arc;
use std::time::Instant;

/// Hour of the cold boot (the paper's midday corpus snapshot).
const BOOT_HOUR: u64 = 12;
/// Hourly refreshes after the boot: one broadcast day.
const DAY_HOURS: u64 = 24;
/// Render scale of the corpus.
const SCALE: f64 = 0.05;
/// Pages built during set-up to warm the stage caches.
const WARM_PAGES: usize = 8;
/// Pages whose final artifacts are audited against a cold build.
const AUDIT_PAGES: usize = 4;

/// Everything the workload derives from the seed.
struct Inputs {
    renderer: Renderer,
    profile: Profile,
    /// Refresh order of the 100 pages (a seeded permutation).
    order: Vec<PageId>,
    /// Pages audited after the day.
    audit: Vec<PageId>,
}

impl Inputs {
    fn jobs(&self, hour: u64) -> Vec<PageJob> {
        self.order.iter().map(|&id| PageJob { id, hour }).collect()
    }
}

fn setup(args: &Args) -> Inputs {
    let renderer = Renderer::new(Corpus::standard(), SCALE);
    let mut order = renderer.corpus().pages();
    crate::shuffle(&mut order, args.seed ^ 0x57A7);
    let audit = order[..AUDIT_PAGES].to_vec();
    let profile = Profile::sonic_10k();
    // Warm-up: the same few pages through every stage, whatever the seed,
    // fill the modem's codec and FFT plan caches so the first timed boot
    // does not pay for them.
    for id in renderer.corpus().pages().into_iter().take(WARM_PAGES) {
        std::hint::black_box(cold_build(&renderer, &profile, id, BOOT_HOUR));
    }
    Inputs {
        renderer,
        profile,
        order,
        audit,
    }
}

/// A page built from scratch at `hour`: render → encode → chunk → modulate.
fn cold_build(
    renderer: &Renderer,
    profile: &Profile,
    id: PageId,
    hour: u64,
) -> (SimplifiedPage, Vec<sonic_core::frame::Frame>, Vec<f32>) {
    let rendered = renderer.corpus().render(id, hour, renderer.scale());
    let ttl = renderer.corpus().sites[id.site]
        .category
        .landing_churn_hours()
        .max(1) as u16;
    let page = SimplifiedPage::from_raster(
        &rendered.url,
        &rendered.raster,
        rendered.clickmap,
        (hour % u16::MAX as u64) as u16,
        ttl,
    );
    let frames = page_to_frames(&page);
    let audio = link::modulate(profile, &frames);
    (page, frames, audio)
}

/// Result of one boot + day.
struct Day {
    boot_s: f64,
    day_s: f64,
    /// Path counts summed over the boot and every hour.
    paths: RefreshStats,
    /// Cumulative reuse counters of the RAM tier.
    cache: ArtifactCacheStats,
    /// The audited pages' artifacts after the boot (cold path) and after
    /// the last hour (mostly rebuilt on the delta path).
    audited: Vec<(PageId, Artifact)>,
}

fn add(acc: &mut RefreshStats, s: &RefreshStats) {
    acc.pages += s.pages;
    acc.full_hits += s.full_hits;
    acc.delta_hits += s.delta_hits;
    acc.misses += s.misses;
}

/// One boot + day on a fresh cache. `wrap` turns the tiered cache into
/// the tier `refresh_pages` sees; `after_refresh` runs untimed after each
/// refresh call (the traced pass re-runs stages there). Returns the tier
/// so a wrapper's totals can be read.
fn run_day<T: ArtifactTier>(
    inp: &Inputs,
    wrap: impl FnOnce(TieredCache) -> T,
    mut after_refresh: impl FnMut(&mut T),
) -> (Day, T) {
    let mut tier = wrap(TieredCache::ram_only(ArtifactCache::unbounded()));
    let mut paths = RefreshStats::default();

    let t0 = Instant::now();
    let (arts, s) = refresh_pages(
        &inp.renderer,
        &mut tier,
        &inp.jobs(BOOT_HOUR),
        Some(&inp.profile),
    );
    let boot_s = t0.elapsed().as_secs_f64();
    add(&mut paths, &s);
    let mut audited = audit_sample(inp, &arts);
    drop(arts);
    after_refresh(&mut tier);

    let mut day_s = 0.0;
    let mut last = Vec::new();
    for hour in BOOT_HOUR + 1..=BOOT_HOUR + DAY_HOURS {
        let jobs = inp.jobs(hour);
        let t = Instant::now();
        let (arts, s) = refresh_pages(&inp.renderer, &mut tier, &jobs, Some(&inp.profile));
        day_s += t.elapsed().as_secs_f64();
        add(&mut paths, &s);
        last = arts;
        after_refresh(&mut tier);
    }
    audited.extend(audit_sample(inp, &last));
    let day = Day {
        boot_s,
        day_s,
        paths,
        cache: *tier.stats_mut(),
        audited,
    };
    (day, tier)
}

/// The audit pages' artifacts out of one refresh call's results.
fn audit_sample(inp: &Inputs, arts: &[Artifact]) -> Vec<(PageId, Artifact)> {
    inp.audit
        .iter()
        .map(|&id| {
            let i = inp.order.iter().position(|&p| p == id).expect("audit page");
            (id, arts[i].clone())
        })
        .collect()
}

/// Audits artifacts against a cold build of the same page version:
/// same page id, same frames, bit-identical audio.
fn audit(inp: &Inputs, day: &Day) -> (bool, String) {
    for (id, art) in &day.audited {
        let (page, frames, audio) = cold_build(
            &inp.renderer,
            &inp.profile,
            *id,
            u64::from(art.page.version),
        );
        if page.page_id != art.page.page_id || *art.frames != frames {
            return (
                false,
                format!("{id:?}: page/frames differ from a cold build"),
            );
        }
        let same = audio.len() == art.audio.len()
            && audio
                .iter()
                .zip(art.audio.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return (
                false,
                format!("{id:?}: audio differs from cold link::modulate"),
            );
        }
    }
    (
        true,
        format!(
            "{} artifacts bit-identical to a cold build",
            day.audited.len()
        ),
    )
}

/// A delta basis: the cached artifact and its per-column hashes.
type Basis = (Artifact, Arc<Vec<u64>>);

/// What one rebuilt page was built from, captured by the wrapper.
struct Rebuild {
    id: PageId,
    hour: u64,
    basis: Option<Basis>,
    built: Artifact,
}

/// `ArtifactTier` wrapper timing every call into the cache tiers.
struct TracingTier {
    inner: TieredCache,
    lookup_s: f64,
    store_s: f64,
    /// Basis handed out by the last `delta_basis_mut`, per page.
    pending_basis: Option<(PageId, Option<Basis>)>,
    rebuilds: Vec<Rebuild>,
}

impl ArtifactTier for TracingTier {
    fn lookup_layout(
        &mut self,
        id: PageId,
        layout_hash: u64,
        want_audio: bool,
    ) -> Option<Artifact> {
        let (r, s) = timed(|| self.inner.lookup_layout(id, layout_hash, want_audio));
        self.lookup_s += s;
        r
    }

    fn lookup_raster(
        &mut self,
        id: PageId,
        raster_hash: u64,
        layout_hash: u64,
        url: &str,
        clickmap: &ClickMap,
        ttl_hours: u16,
        want_audio: bool,
    ) -> Option<Artifact> {
        let (r, s) = timed(|| {
            self.inner.lookup_raster(
                id,
                raster_hash,
                layout_hash,
                url,
                clickmap,
                ttl_hours,
                want_audio,
            )
        });
        self.lookup_s += s;
        r
    }

    fn delta_basis_mut(&mut self, id: PageId) -> Option<Basis> {
        let (r, s) = timed(|| self.inner.delta_basis_mut(id));
        self.lookup_s += s;
        self.pending_basis = Some((id, r.clone()));
        r
    }

    fn store(
        &mut self,
        id: PageId,
        layout_hash: u64,
        raster_hash: u64,
        column_hashes: Arc<Vec<u64>>,
        artifact: Artifact,
        hour: u64,
    ) {
        let basis = match self.pending_basis.take() {
            Some((pid, b)) if pid == id => b,
            _ => None,
        };
        self.rebuilds.push(Rebuild {
            id,
            hour,
            basis,
            built: artifact.clone(),
        });
        let (_, s) = timed(|| {
            ArtifactTier::store(
                &mut self.inner,
                id,
                layout_hash,
                raster_hash,
                column_hashes,
                artifact,
                hour,
            )
        });
        self.store_s += s;
    }

    fn stats_mut(&mut self) -> &mut ArtifactCacheStats {
        self.inner.stats_mut()
    }
}

/// Per-stage seconds from re-running the stages on recorded inputs.
#[derive(Default)]
struct Stages {
    render_s: f64,
    encode_s: f64,
    chunk_s: f64,
    modulate_s: f64,
    /// Rebuilt pages whose re-run audio matched the artifact bit for bit.
    audio_matches: usize,
    rebuilt: usize,
}

/// Re-runs render → strip encode → chunk → modulate for every recorded
/// rebuild, on the inputs `refresh_page_with` used, timing each stage.
fn rerun_stages(inp: &Inputs, rebuilds: &[Rebuild], st: &mut Stages) {
    let corpus = inp.renderer.corpus();
    for rb in rebuilds {
        let (rendered, s) = timed(|| corpus.render(rb.id, rb.hour, inp.renderer.scale()));
        st.render_s += s;
        let basis = rb.basis.as_ref().filter(|(prev, _)| {
            prev.page.strips.width == rendered.raster.width()
                && prev.page.strips.height == rendered.raster.height()
        });
        let (strips, s) = timed(|| {
            let hashes = strip::column_hashes(&rendered.raster);
            match basis {
                Some((prev, prev_hashes)) => {
                    strip::encode_delta_prehashed(
                        &rendered.raster,
                        &prev.page.strips,
                        prev_hashes,
                        hashes,
                    )
                    .strips
                }
                None => strip::encode(&rendered.raster),
            }
        });
        st.encode_s += s;
        std::hint::black_box(&strips);
        let (frames, s) = timed(|| page_to_frames(&rb.built.page));
        st.chunk_s += s;
        let (audio, s) = timed(|| match basis {
            Some((prev, _)) if prev.has_audio() => {
                link::modulate_spliced(&inp.profile, &frames, &prev.audio, &prev.bursts).audio
            }
            _ => link::modulate_with_table(&inp.profile, &frames).0,
        });
        st.modulate_s += s;
        st.rebuilt += 1;
        let same = audio.len() == rb.built.audio.len()
            && audio
                .iter()
                .zip(rb.built.audio.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        st.audio_matches += same as usize;
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = set_up(SETUPS, SETUP_SECONDS, || setup(args));

    let plain = || run_day(&inp, |t| t, |_| {}).0;
    let days = if args.trace {
        vec![plain()]
    } else {
        repeat_for(args.seconds, 1, plain)
    };
    let first = &days[0];
    let (audit_ok, detail) = audit(&inp, first);
    out.check("station.audio_bit_identical", audit_ok, detail);
    out.check(
        "station.paths_repeat",
        days.iter().all(|d| d.paths == first.paths),
        format!(
            "{} full hits / {} delta / {} cold over {} refreshes, {} passes",
            first.paths.full_hits,
            first.paths.delta_hits,
            first.paths.misses,
            first.paths.pages,
            days.len()
        ),
    );
    out.attempted = days.iter().map(|d| d.paths.pages as u64).sum();

    let boot: Vec<f64> = days.iter().map(|d| d.boot_s).collect();
    let day: Vec<f64> = days.iter().map(|d| d.day_s).collect();
    out.samples("station.boot_s", "s", &boot);
    out.samples("station.day_s", "s", &day);
    let ops: Vec<f64> = days
        .iter()
        .map(|d| d.paths.pages as f64 / (d.boot_s + d.day_s))
        .collect();
    out.e2e("setup_s", setup_s);
    out.e2e("peak_rss_mb", peak_rss_mb());
    out.e2e("ops_per_s", median(&ops));
    out.layer("station.boot_s", median(&boot));
    out.layer("station.day_s", median(&day));

    if args.trace {
        trace(&inp, first, &mut out);
    }
    out
}

/// The traced pass: wrapper-timed cache calls plus stage re-runs, set
/// against the untraced pass `plain`.
fn trace(inp: &Inputs, plain: &Day, out: &mut Outcome) {
    let mut st = Stages::default();
    let (traced, tier) = run_day(
        inp,
        |t| TracingTier {
            inner: t,
            lookup_s: 0.0,
            store_s: 0.0,
            pending_basis: None,
            rebuilds: Vec::new(),
        },
        |t| {
            let rebuilds = std::mem::take(&mut t.rebuilds);
            rerun_stages(inp, &rebuilds, &mut st);
        },
    );
    out.check(
        "station.stage_rerun_matches",
        st.audio_matches == st.rebuilt,
        format!(
            "{}/{} rebuilt pages re-modulate bit-identically",
            st.audio_matches, st.rebuilt
        ),
    );
    let untraced_s = plain.boot_s + plain.day_s;
    let traced_s = traced.boot_s + traced.day_s;
    let attributed =
        st.render_s + st.encode_s + st.chunk_s + st.modulate_s + tier.lookup_s + tier.store_s;
    let c = &traced.cache;
    let strips_total = c.strips_reused + c.strips_reencoded;
    let bursts_total = c.bursts_reused + c.bursts_modulated;
    out.layer("pagegen.render_ms", st.render_s * 1e3);
    out.layer("image.strip_encode_ms", st.encode_s * 1e3);
    out.layer("core.chunker_ms", st.chunk_s * 1e3);
    out.layer("modem.modulate_ms", st.modulate_s * 1e3);
    out.layer("server.cache.lookup_ms", tier.lookup_s * 1e3);
    out.layer("server.cache.store_ms", tier.store_s * 1e3);
    out.layer("server.cache.full_hits", traced.paths.full_hits as f64);
    out.layer("server.cache.delta_hits", traced.paths.delta_hits as f64);
    out.layer("server.cache.misses", traced.paths.misses as f64);
    out.layer(
        "image.strips_reused_ratio",
        ratio(c.strips_reused, strips_total),
    );
    out.layer("image.strips_delta_total", strips_total as f64);
    out.layer(
        "core.link.bursts_reused_ratio",
        ratio(c.bursts_reused, bursts_total),
    );
    out.layer("core.link.bursts_delta_total", bursts_total as f64);
    out.layer("station.unattributed_ms", (untraced_s - attributed) * 1e3);
    out.layer("station.trace_overhead_ms", (traced_s - untraced_s) * 1e3);
}
