//! Performance acceptance bench for the content-addressed broadcast
//! artifact cache.
//!
//! Three workloads over the standard 100-page corpus, audio included
//! (render → strip encode → chunk → OFDM modulate):
//!
//! 1. **Strip-mutation carousel** (the acceptance target). 15% of the
//!    pages get a localized edit — a widget-sized block of a few columns
//!    changes, the rest of the page doesn't — and the carousel re-pushes
//!    within the same content version. This is the workload the delta
//!    machinery is built for: unchanged pages are served verbatim off
//!    their layout hash, mutated pages re-encode only dirty strips and
//!    re-modulate only bursts the cached burst table doesn't recognize.
//!    Warm refresh must be ≥5x faster than the cold build of the same
//!    content.
//! 2. **Hourly churn refresh over a broadcast day**. A SONIC station
//!    broadcasts around the clock, so the honest unit of account is the
//!    day, not the hour: 24 hourly transitions starting at hour 12,
//!    including the corpus' documented nightly freeze (hours 0–5, when
//!    nothing changes and a warm refresh proves it off layout hashes
//!    alone). Cold = a station with no cache rebuilds every page every
//!    hour; warm = one cache carried across the whole day. Each active
//!    hour mutates ~15–22 churn-heavy news pages whose re-render +
//!    re-encode + re-modulate is mandatory (new version ⇒ new page id in
//!    every frame). Gate: warm day ≥4x faster than the cold day. The
//!    single hour-12→13 figure is also reported for continuity with the
//!    PR3 baseline.
//! 3. **Warm restart**. Hour-6 corpus built onto the disk artifact store,
//!    all RAM state dropped, store reopened from its index log, hour
//!    re-refreshed: every page must promote from disk (zero misses), ≥5x
//!    faster than the cold boot that seeded it.
//!
//! Results (timings, pages/s, hit rates) go to `BENCH_broadcast.json` at
//! the repo root, alongside a static `baseline_pr3` block preserving the
//! pre-store numbers and a static `delta_carousel_removed` block keeping
//! the last air-saving figures of the deleted delta carousel (DESIGN.md
//! §12.4). `--smoke` runs a reduced corpus once and reports
//! ratios informationally — CI uses it to prove the bench builds and the
//! cache + disk-store paths work end to end (`SONIC_STORE_DIR` overrides
//! the store location; default is a self-cleaning temp dir).

use sonic_core::server::cache::{share_store, ArtifactCache, TieredCache};
use sonic_core::server::pipeline::{
    refresh_page_with, refresh_pages, PageJob, RefreshPath, RefreshStats, RenderedContent,
};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_image::hash::Fnv64;
use sonic_image::raster::Rgb;
use sonic_modem::Profile;
use sonic_pagegen::{Corpus, PageId};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Fraction of pages mutated in the strip-mutation workload.
const MUTATED_PERCENT: usize = 15;
/// Width of the mutated column band, as a percentage of the page width.
const BAND_PERCENT: usize = 6;

/// Synthetic render-input content address for prepared pages: the page key
/// folded with an edit epoch (0 = original render, 1 = after the edit).
fn prepared_layout_hash(id: PageId, epoch: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(id.site as u64)
        .write_u64(id.page as u64)
        .write_u64(epoch);
    h.finish()
}

struct Prepared {
    id: PageId,
    /// The original render (what the cold carousel pushes).
    content: RenderedContent,
    /// The localized edit of the same page (what the warm refresh pushes),
    /// for the mutated subset.
    edited: Option<RenderedContent>,
}

/// Renders the whole corpus once (untimed) and prepares the localized edits.
fn prepare_pages(renderer: &Renderer, hour: u64) -> Vec<Prepared> {
    let corpus = renderer.corpus();
    let ids = corpus.pages();
    let n_mutated = ids.len() * MUTATED_PERCENT / 100;
    let stride = ids.len() / n_mutated.max(1);
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| {
            let rendered = corpus.render(id, hour, renderer.scale());
            let ttl = corpus.sites[id.site].category.landing_churn_hours().max(1) as u16;
            let content = RenderedContent {
                url: rendered.url,
                raster: rendered.raster,
                clickmap: rendered.clickmap,
                version: (hour % u16::MAX as u64) as u16,
                ttl_hours: ttl,
            };
            let mutated = stride > 0 && i % stride == 0 && i / stride < n_mutated;
            let edited = mutated.then(|| {
                // A localized edit: a widget-sized block (BAND_PERCENT of the
                // width × 1/16 of the height, e.g. a ticker or sidebar item)
                // changes somewhere in the page; the rest of the page is
                // untouched.
                let mut e = content.clone();
                let (w, h) = (e.raster.width(), e.raster.height());
                let band_w = (w * BAND_PERCENT / 100).max(1);
                let x0 = (i * 37) % (w - band_w).max(1);
                for y in h / 3..(h / 3 + h / 16).min(h) {
                    for x in x0..x0 + band_w {
                        let p = e.raster.get(x, y);
                        e.raster.set(x, y, Rgb::new(p.r ^ 0x40, p.g, p.b));
                    }
                }
                e
            });
            Prepared { id, content, edited }
        })
        .collect()
}

/// Pushes every prepared page through the cache at `epoch`, returning the
/// wall time and per-path counts. Mutated pages advance to `epoch`; the
/// rest keep their original layout hash so the cache can prove them
/// unchanged without touching the raster.
fn push_carousel(
    cache: &mut ArtifactCache,
    pages: &[Prepared],
    profile: &Profile,
    hour: u64,
    epoch: u64,
) -> (f64, RefreshStats) {
    let mut stats = RefreshStats {
        pages: pages.len(),
        ..RefreshStats::default()
    };
    let t0 = Instant::now();
    for p in pages {
        let push_edit = epoch > 0 && p.edited.is_some();
        let lh = prepared_layout_hash(p.id, if push_edit { epoch } else { 0 });
        let content = if push_edit {
            p.edited.as_ref().expect("edited content")
        } else {
            &p.content
        };
        let (artifact, path) =
            refresh_page_with(cache, p.id, lh, hour, Some(profile), || content.clone());
        match path {
            RefreshPath::FullHit => stats.full_hits += 1,
            RefreshPath::Delta => stats.delta_hits += 1,
            RefreshPath::Cold => stats.misses += 1,
        }
        black_box(&artifact);
    }
    (t0.elapsed().as_secs_f64(), stats)
}

/// The store directory: `SONIC_STORE_DIR` if set (CI points this at its
/// runner temp), else a per-process temp dir removed on drop so repeated
/// bench runs leave nothing behind.
struct StoreDir {
    path: PathBuf,
    ephemeral: bool,
}

impl StoreDir {
    fn new() -> Self {
        match std::env::var_os("SONIC_STORE_DIR") {
            Some(p) => StoreDir {
                path: PathBuf::from(p),
                ephemeral: false,
            },
            None => StoreDir {
                path: std::env::temp_dir().join(format!("sonic-store-{}", std::process::id())),
                ephemeral: true,
            },
        }
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// One cold-build + hourly-churn-refresh cycle on a fresh cache: the
/// single-transition figure kept for continuity with the PR3 baseline.
fn churn_cycle(renderer: &Renderer, profile: &Profile, hour: u64) -> (f64, f64, RefreshStats) {
    let jobs_cold = jobs_at(renderer, hour);
    let jobs_warm = jobs_at(renderer, hour + 1);
    let mut cache = ArtifactCache::unbounded();
    let t0 = Instant::now();
    let (cold, _) = refresh_pages(renderer, &mut cache, &jobs_cold, Some(profile));
    let cold_s = t0.elapsed().as_secs_f64();
    black_box(&cold);
    drop(cold);
    let t1 = Instant::now();
    let (warm, stats) = refresh_pages(renderer, &mut cache, &jobs_warm, Some(profile));
    let warm_s = t1.elapsed().as_secs_f64();
    black_box(&warm);
    (cold_s, warm_s, stats)
}

fn jobs_at(renderer: &Renderer, hour: u64) -> Vec<PageJob> {
    renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour })
        .collect()
}

fn add_refresh_stats(acc: &mut RefreshStats, s: &RefreshStats) {
    acc.pages += s.pages;
    acc.full_hits += s.full_hits;
    acc.delta_hits += s.delta_hits;
    acc.misses += s.misses;
}

/// Aggregate results of one simulated broadcast day (workload 2).
struct DayResults {
    /// Hourly transitions simulated.
    day_hours: usize,
    /// Transitions where at least one page changed (the rest are the
    /// corpus' nightly freeze).
    active_hours: usize,
    /// Page changes summed across the day.
    changed_pages: usize,
    /// Total cold time: every page rebuilt from scratch, every hour.
    cold_s: f64,
    /// Total warm time through `refresh_pages` with one day-long cache.
    churn_warm_s: f64,
    churn_stats: RefreshStats,
}

/// Simulates one broadcast day: `day_hours` hourly transitions following
/// `start_hour`. Two passes over the same hours — warm churn
/// (`refresh_pages`, one cache primed untimed at `start_hour`), then the
/// cold baseline (fresh cache every hour, the no-cache station). The cold pass runs
/// last, after the allocator is fully warm, which can only flatter it.
fn broadcast_day(
    renderer: &Renderer,
    profile: &Profile,
    start_hour: u64,
    day_hours: usize,
) -> DayResults {
    let hours: Vec<u64> = (1..=day_hours as u64).map(|k| start_hour + k).collect();
    let ids = renderer.corpus().pages();
    let (mut changed_pages, mut active_hours) = (0usize, 0usize);
    for &h in &hours {
        let n = ids
            .iter()
            .filter(|&&id| renderer.corpus().changed(id, h - 1, h))
            .count();
        changed_pages += n;
        active_hours += (n > 0) as usize;
    }

    // Warm churn: one cache across the whole day.
    let mut cache = ArtifactCache::unbounded();
    let (prime, _) = refresh_pages(renderer, &mut cache, &jobs_at(renderer, start_hour), Some(profile));
    black_box(&prime);
    drop(prime);
    let mut churn_warm_s = 0.0;
    let mut churn_stats = RefreshStats::default();
    for &h in &hours {
        let jobs = jobs_at(renderer, h);
        let t = Instant::now();
        let (arts, s) = refresh_pages(renderer, &mut cache, &jobs, Some(profile));
        churn_warm_s += t.elapsed().as_secs_f64();
        black_box(&arts);
        add_refresh_stats(&mut churn_stats, &s);
    }
    drop(cache);

    // Cold baseline: a station with no cache rebuilds everything hourly.
    let mut cold_s = 0.0;
    for &h in &hours {
        let jobs = jobs_at(renderer, h);
        let mut cold_cache = ArtifactCache::unbounded();
        let t = Instant::now();
        let (arts, _) = refresh_pages(renderer, &mut cold_cache, &jobs, Some(profile));
        cold_s += t.elapsed().as_secs_f64();
        black_box(&arts);
    }

    DayResults {
        day_hours,
        active_hours,
        changed_pages,
        cold_s,
        churn_warm_s,
        churn_stats,
    }
}

/// One warm-restart cycle (workload 3) in `dir` (wiped first): cold boot
/// onto an empty store, drop every handle, reopen and re-refresh. Returns
/// (boot s, restart s, promoted, restart misses, store entries, blob bytes).
fn warm_restart_cycle(
    renderer: &Renderer,
    profile: &Profile,
    hour: u64,
    dir: &std::path::Path,
) -> std::io::Result<(f64, f64, u64, u64, usize, u64)> {
    let jobs: Vec<PageJob> = renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour })
        .collect();
    let _ = std::fs::remove_dir_all(dir);

    let t0 = Instant::now();
    let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
    let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
    let (cold, _) = refresh_pages(renderer, &mut tiered, &jobs, Some(profile));
    let boot_s = t0.elapsed().as_secs_f64();
    black_box(&cold);
    drop(tiered); // every in-RAM artifact and the store handle are gone

    let t1 = Instant::now();
    let store = share_store(ArtifactStore::open(dir, u64::MAX)?);
    let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
    let (warm, _) = refresh_pages(renderer, &mut tiered, &jobs, Some(profile));
    let restart_s = t1.elapsed().as_secs_f64();
    black_box(&warm);
    let (entries, bytes) = {
        let s = tiered
            .store()
            .expect("store attached")
            .lock();
        (s.len(), s.live_bytes())
    };
    Ok((
        boot_s,
        restart_s,
        tiered.ram.stats.disk_promotions,
        tiered.ram.stats.misses,
        entries,
        bytes,
    ))
}

/// Untimed bit-identity spot check: the delta-spliced artifact of one
/// mutated page must equal a cold build of the same content.
fn verify_delta_identity(pages: &[Prepared], profile: &Profile, hour: u64) {
    let base = pages.iter().find(|p| p.edited.is_some()).expect("a mutated page");
    let edited = base.edited.as_ref().expect("edited content");
    let mut warm_cache = ArtifactCache::unbounded();
    let (_, path) = refresh_page_with(
        &mut warm_cache,
        base.id,
        prepared_layout_hash(base.id, 0),
        hour,
        Some(profile),
        || base.content.clone(),
    );
    assert_eq!(path, RefreshPath::Cold);
    let (delta_artifact, path) = refresh_page_with(
        &mut warm_cache,
        base.id,
        prepared_layout_hash(base.id, 1),
        hour,
        Some(profile),
        || edited.clone(),
    );
    assert_eq!(path, RefreshPath::Delta);
    let mut cold_cache = ArtifactCache::unbounded();
    let (cold_artifact, _) = refresh_page_with(
        &mut cold_cache,
        base.id,
        prepared_layout_hash(base.id, 1),
        hour,
        Some(profile),
        || edited.clone(),
    );
    assert_eq!(*delta_artifact.frames, *cold_artifact.frames, "frames must splice bit-identically");
    assert_eq!(delta_artifact.audio.len(), cold_artifact.audio.len());
    for (i, (a, b)) in delta_artifact
        .audio
        .iter()
        .zip(cold_artifact.audio.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "audio sample {i}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (corpus, scale, samples) = if smoke {
        (Corpus::small(6), 0.05, 1)
    } else {
        (
            Corpus::standard(),
            sonic_sim::experiments::env_or("SONIC_CACHE_BENCH_SCALE", 0.1),
            2,
        )
    };
    let hour = 12u64;
    let renderer = Renderer::new(corpus, scale);
    let profile = Profile::sonic_10k();

    // --- workload 1: strip-mutation carousel -------------------------------
    let pages = prepare_pages(&renderer, hour);
    let n_pages = pages.len();
    let n_mutated = pages.iter().filter(|p| p.edited.is_some()).count();
    println!(
        "strip-mutation carousel: {n_pages} pages at scale {scale}, {n_mutated} mutated \
         ({}% of pages, {BAND_PERCENT}% column band each){}",
        100 * n_mutated / n_pages,
        if smoke { "  [smoke]" } else { "" }
    );
    verify_delta_identity(&pages, &profile, hour);

    let mut best_cold = f64::INFINITY;
    let mut best_warm = f64::INFINITY;
    let mut warm_stats = RefreshStats::default();
    let mut reuse_stats = sonic_core::server::cache::ArtifactCacheStats::default();
    for _ in 0..=samples {
        // First iteration doubles as warm-up for codec/alloc caches.
        let mut cache = ArtifactCache::unbounded();
        let (cold_s, cold_stats) = push_carousel(&mut cache, &pages, &profile, hour, 0);
        assert_eq!(cold_stats.misses, n_pages, "cold cache: all misses");
        cache.stats = Default::default();
        let (warm_s, stats) = push_carousel(&mut cache, &pages, &profile, hour, 1);
        assert_eq!(stats.full_hits, n_pages - n_mutated);
        assert_eq!(stats.delta_hits, n_mutated, "every edit takes the delta path");
        best_cold = best_cold.min(cold_s);
        if warm_s < best_warm {
            best_warm = warm_s;
            warm_stats = stats;
            reuse_stats = cache.stats;
        }
    }
    let speedup = best_cold / best_warm;
    let hit_rate = warm_stats.full_hits as f64 / n_pages as f64;
    println!(
        "  cold build    {:>8.3} s   {:>7.2} pages/s",
        best_cold,
        n_pages as f64 / best_cold
    );
    println!(
        "  warm refresh  {:>8.3} s   {:>7.2} pages/s   {} full hits / {} delta / {} cold \
         (hit rate {:.0}%)",
        best_warm,
        n_pages as f64 / best_warm,
        warm_stats.full_hits,
        warm_stats.delta_hits,
        warm_stats.misses,
        hit_rate * 100.0
    );
    println!(
        "  delta reuse: {}/{} strips spliced, {}/{} bursts spliced",
        reuse_stats.strips_reused,
        reuse_stats.strips_reused + reuse_stats.strips_reencoded,
        reuse_stats.bursts_reused,
        reuse_stats.bursts_reused + reuse_stats.bursts_modulated
    );
    let need = if smoke { 0.0 } else { 5.0 };
    let pass = speedup >= need;
    let verdict = if smoke {
        "info"
    } else if pass {
        "PASS"
    } else {
        "FAIL"
    };
    println!("  speedup {speedup:>5.2}x (need >= {need:.1}x)  [{verdict}]");

    // --- workload 2: one broadcast day -------------------------------------
    let day_hours = if smoke { 6 } else { 24 };
    let day = broadcast_day(&renderer, &profile, hour, day_hours);

    // Single hour-12→13 figure, comparable to baseline_pr3.hourly_churn.
    let (sh_cold, sh_warm, sh_stats) = churn_cycle(&renderer, &profile, hour);
    let sh_speedup = sh_cold / sh_warm;

    println!(
        "\nhourly churn refresh: broadcast day of {} transitions from hour {hour} \
         ({} active, {} quiet; {} page changes across the day)",
        day.day_hours,
        day.active_hours,
        day.day_hours - day.active_hours,
        day.changed_pages
    );
    let churn_speedup = day.cold_s / day.churn_warm_s;
    let churn_need = if smoke { 0.0 } else { 4.0 };
    let churn_pass = churn_speedup >= churn_need;
    println!(
        "  cold day {:>8.3} s   warm day {:>8.3} s   speedup {churn_speedup:.2}x \
         (need >= {churn_need:.1}x)  ({} full hits / {} delta / {} cold)  [{}]",
        day.cold_s,
        day.churn_warm_s,
        day.churn_stats.full_hits,
        day.churn_stats.delta_hits,
        day.churn_stats.misses,
        if smoke {
            "info"
        } else if churn_pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  single hour {hour}->{}: cold {sh_cold:.3} s  warm {sh_warm:.3} s  \
         speedup {sh_speedup:.2}x ({} delta pages; PR3 baseline 2.14x)",
        hour + 1,
        sh_stats.delta_hits
    );

    // --- workload 3: warm restart from the disk store ----------------------
    let store_dir = StoreDir::new();
    let restart_hour = 6u64;
    println!(
        "\nwarm restart: hour-{restart_hour} corpus through the disk store at {}",
        store_dir.path.display()
    );
    let mut boot_s = f64::INFINITY;
    let mut restart_s = f64::INFINITY;
    let (mut promoted, mut restart_misses, mut store_entries, mut store_bytes) =
        (0u64, 0u64, 0usize, 0u64);
    for _ in 0..samples.max(1) {
        let (b, r, p, m, e, by) = warm_restart_cycle(&renderer, &profile, restart_hour, &store_dir.path)
            .expect("store io");
        boot_s = boot_s.min(b);
        if r < restart_s {
            restart_s = r;
            promoted = p;
            restart_misses = m;
            store_entries = e;
            store_bytes = by;
        }
    }
    assert_eq!(promoted, n_pages as u64, "every page must promote from disk");
    assert_eq!(restart_misses, 0, "a restart must never re-render");
    let restart_speedup = boot_s / restart_s;
    let restart_need = if smoke { 0.0 } else { 5.0 };
    let restart_pass = restart_speedup >= restart_need;
    println!(
        "  cold boot {boot_s:>7.3} s   restart {restart_s:>7.3} s   speedup \
         {restart_speedup:.2}x (need >= {restart_need:.1}x)  [{}]",
        if smoke {
            "info"
        } else if restart_pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "  {promoted} pages promoted, 0 misses; store: {store_entries} entries, \
         {store_bytes} blob bytes"
    );

    // Machine-readable results at the repo root.
    let json = format!(
        "{{\n  \"bench\": \"perf_broadcast_cache\",\n  \"smoke\": {smoke},\n  \
         \"pages\": {n_pages},\n  \"scale\": {scale},\n  \
         \"baseline_pr3\": {{\n    \"strip_mutation_speedup\": 11.439,\n    \
         \"hourly_churn_speedup\": 2.144\n  }},\n  \
         \"delta_carousel_removed\": {{\n    \"churn_day_air_saved_pct\": 0.00,\n    \
         \"churn_day_delta_slots\": 341,\n    \"ticker_air_saved_pct\": 69.81\n  }},\n  \
         \"strip_mutation\": {{\n    \"mutated_pages\": {n_mutated},\n    \
         \"cold_s\": {best_cold:.6},\n    \"warm_s\": {best_warm:.6},\n    \
         \"speedup\": {speedup:.3},\n    \
         \"pages_per_s_cold\": {:.3},\n    \"pages_per_s_warm\": {:.3},\n    \
         \"full_hits\": {},\n    \"delta_hits\": {},\n    \"hit_rate\": {hit_rate:.4}\n  }},\n  \
         \"hourly_churn\": {{\n    \"day_hours\": {},\n    \
         \"active_hours\": {},\n    \"changed_pages_day\": {},\n    \
         \"cold_day_s\": {:.6},\n    \"warm_day_s\": {:.6},\n    \
         \"speedup\": {churn_speedup:.3},\n    \"full_hits\": {},\n    \
         \"delta_hits\": {},\n    \"misses\": {},\n    \
         \"single_hour\": {{\n      \"cold_s\": {sh_cold:.6},\n      \
         \"warm_s\": {sh_warm:.6},\n      \"speedup\": {sh_speedup:.3}\n    }}\n  }},\n  \
         \"warm_restart\": {{\n    \"hour\": {restart_hour},\n    \
         \"cold_boot_s\": {boot_s:.6},\n    \"restart_s\": {restart_s:.6},\n    \
         \"speedup\": {restart_speedup:.3},\n    \"promoted_pages\": {promoted},\n    \
         \"store_entries\": {store_entries},\n    \"store_blob_bytes\": {store_bytes}\n  }}\n}}\n",
        n_pages as f64 / best_cold,
        n_pages as f64 / best_warm,
        warm_stats.full_hits,
        warm_stats.delta_hits,
        day.day_hours,
        day.active_hours,
        day.changed_pages,
        day.cold_s,
        day.churn_warm_s,
        day.churn_stats.full_hits,
        day.churn_stats.delta_hits,
        day.churn_stats.misses,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_broadcast.json");
    match std::fs::write(&out, json) {
        Ok(()) => println!("\nresults written to {}", out.display()),
        Err(e) => println!("\ncould not write {}: {e}", out.display()),
    }

    if !(pass && churn_pass && restart_pass) {
        println!("perf_broadcast_cache: acceptance check FAILED");
        std::process::exit(1);
    }
    println!("perf_broadcast_cache: acceptance check PASS");
}
