//! Crash-safety and determinism tests for the persistent tiered artifact
//! store: put/load bit-identity, seeded corruption of the index log
//! recovering exactly the CRC-valid prefix, same-seed byte-identical
//! on-disk state, live-byte budget eviction, and a warm restart through
//! the refresh driver promoting every page from disk.

use proptest::prelude::*;
use sonic_core::chunker::page_to_frames;
use sonic_core::link;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::{share_store, Artifact, ArtifactCache, TieredCache};
use sonic_core::server::pipeline::{refresh_pages, PageJob};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::{ArtifactStore, RECORD_LEN};
use sonic_image::clickmap::ClickMap;
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip;
use sonic_modem::profile::Profile;
use sonic_pagegen::{Corpus, PageId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Self-cleaning test directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "sonic-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(1103515245).wrapping_add(12345)
}

/// Deterministic raster from a seed (LCG fill).
fn raster_from_seed(w: usize, h: usize, seed: u64) -> Raster {
    let mut img = Raster::new(w, h);
    let mut s = seed | 1;
    for y in 0..h {
        for x in 0..w {
            s = lcg(s);
            let v = (s >> 32) as u8;
            img.set(x, y, Rgb::new(v, v.wrapping_add(61), v ^ 0xA5));
        }
    }
    img
}

/// Builds a full artifact (page, frames, audio, burst table) plus its
/// column-hash index, exactly like the cold refresh path.
fn artifact_from_seed(seed: u64, with_audio: bool) -> (Artifact, Vec<u64>) {
    let raster = raster_from_seed(12 + (seed % 7) as usize, 40, seed);
    let hashes = strip::column_hashes(&raster);
    let page = Arc::new(SimplifiedPage::from_raster(
        &format!("https://store.pk/{seed}"),
        &raster,
        ClickMap::default(),
        (seed % 100) as u16,
        6,
    ));
    let frames = Arc::new(page_to_frames(&page));
    let (audio, bursts) = if with_audio {
        link::modulate_with_table(&Profile::sonic_10k(), &frames)
    } else {
        (Vec::new(), link::BurstTable::default())
    };
    (
        Artifact {
            page,
            frames,
            audio: Arc::new(audio),
            bursts,
        },
        hashes,
    )
}

fn id(n: u64) -> PageId {
    PageId {
        site: (n / 8) as usize,
        page: (n % 8) as usize,
    }
}

fn audio_bits(a: &[f32]) -> Vec<u32> {
    a.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn put_load_roundtrip_is_bit_identical() {
    let dir = TempDir::new("roundtrip");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(42, true);
    let wrote = store.put(id(0), 11, 22, &hashes, &art, 6).unwrap();
    assert!(wrote, "first put must append a blob");

    let got = store.load(id(0)).expect("entry is live");
    assert_eq!(got.layout_hash, 11);
    assert_eq!(got.raster_hash, 22);
    assert_eq!(got.hour, 6);
    assert_eq!(&*got.column_hashes, &hashes);
    assert_eq!(got.artifact.page.url, art.page.url);
    assert_eq!(got.artifact.page.version, art.page.version);
    assert_eq!(got.artifact.page.strips.strips, art.page.strips.strips);
    assert_eq!(&*got.artifact.frames, &*art.frames, "frames recompute");
    assert_eq!(audio_bits(&got.artifact.audio), audio_bits(&art.audio));
    assert_eq!(got.artifact.bursts.spans, art.bursts.spans);

    // Reopen and load again: the log replays to the same state.
    drop(store);
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.stats.recovered_entries, 1);
    assert_eq!(store.stats.truncated_index_bytes, 0);
    let again = store.load(id(0)).expect("entry survived reopen");
    assert_eq!(audio_bits(&again.artifact.audio), audio_bits(&art.audio));
    assert_eq!(&*again.artifact.frames, &*art.frames);
}

#[test]
fn identical_content_is_written_once() {
    let dir = TempDir::new("dedupe");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(7, false);
    assert!(store.put(id(0), 1, 2, &hashes, &art, 0).unwrap());
    let before = store.blob_file_bytes();
    // Same content under another page id: index record only, no new blob.
    assert!(!store.put(id(1), 1, 2, &hashes, &art, 0).unwrap());
    assert_eq!(store.blob_file_bytes(), before);
    assert_eq!(store.stats.blob_reuses, 1);
    // Exact re-put under the same id and addresses: complete no-op.
    let log_len = std::fs::metadata(dir.path().join("index.log")).unwrap().len();
    assert!(!store.put(id(0), 1, 2, &hashes, &art, 0).unwrap());
    assert_eq!(
        std::fs::metadata(dir.path().join("index.log")).unwrap().len(),
        log_len,
        "no-op put must not grow the log"
    );
}

#[test]
fn same_seed_runs_produce_byte_identical_store_state() {
    let dir_a = TempDir::new("bytes-a");
    let dir_b = TempDir::new("bytes-b");
    for dir in [dir_a.path(), dir_b.path()] {
        let mut store = ArtifactStore::open(dir, u64::MAX).unwrap();
        for n in 0..6u64 {
            let (art, hashes) = artifact_from_seed(100 + n, n % 2 == 0);
            store
                .put(id(n), lcg(n), lcg(lcg(n)), &hashes, &art, n)
                .unwrap();
        }
        // One refresh of an existing page, same order both runs.
        let (art, hashes) = artifact_from_seed(999, true);
        store.put(id(2), 5, 6, &hashes, &art, 7).unwrap();
    }
    for file in ["blobs.dat", "index.log"] {
        let a = std::fs::read(dir_a.path().join(file)).unwrap();
        let b = std::fs::read(dir_b.path().join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical across same-seed runs");
    }
}

#[test]
fn eviction_holds_live_byte_budget_in_lru_order() {
    let dir = TempDir::new("evict");
    // Budget sized to roughly two frames-only artifacts.
    let (probe, probe_hashes) = artifact_from_seed(1, false);
    let mut sizing = ArtifactStore::open(dir.path().join("sizing"), u64::MAX).unwrap();
    sizing.put(id(0), 0, 0, &probe_hashes, &probe, 0).unwrap();
    let one = sizing.live_bytes();
    drop(sizing);

    let budget = one * 5 / 2;
    let mut store = ArtifactStore::open(dir.path().join("real"), budget).unwrap();
    for n in 0..4u64 {
        let (art, hashes) = artifact_from_seed(n + 1, false);
        store.put(id(n), n, n, &hashes, &art, n).unwrap();
        assert!(
            store.live_bytes() <= budget || store.len() == 1,
            "budget must hold after every put"
        );
    }
    assert!(store.stats.evictions > 0, "four puts must overflow the budget");
    // LRU: the oldest pages went first, the newest survived.
    assert!(store.load(id(3)).is_some(), "newest entry must survive");
    assert!(store.load(id(0)).is_none(), "oldest entry must be evicted");

    // Reopen replays the evictions too.
    let survivors = store.len();
    drop(store);
    let store = ArtifactStore::open(dir.path().join("real"), budget).unwrap();
    assert_eq!(store.len(), survivors);
    assert!(store.live_bytes() <= budget);
}

#[test]
fn corrupt_blob_fails_load_without_panicking() {
    let dir = TempDir::new("blobcrc");
    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    let (art, hashes) = artifact_from_seed(13, true);
    store.put(id(0), 1, 2, &hashes, &art, 0).unwrap();
    drop(store);

    // Flip one byte in the middle of the blob file.
    let blob_path = dir.path().join("blobs.dat");
    let mut bytes = std::fs::read(&blob_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&blob_path, &bytes).unwrap();

    let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
    assert!(store.load(id(0)).is_none(), "corrupt blob must not decode");
    assert_eq!(store.stats.corrupt_blobs, 1);
    assert_eq!(store.len(), 0, "corrupt entry is dropped");
}

/// Cold-boots an hour's corpus into a disk store through `refresh_pages`,
/// drops all RAM state, reopens the store (index-log rebuild) and refreshes
/// the same hour through a fresh RAM tier: every page must promote from
/// disk, none may be rebuilt.
#[test]
fn warm_restart_promotes_every_page_with_zero_misses() {
    let dir = TempDir::new("warm-restart");
    let renderer = Renderer::new(Corpus::small(3), 0.05);
    let profile = Profile::sonic_10k();
    let jobs: Vec<PageJob> = renderer
        .corpus()
        .pages()
        .into_iter()
        .map(|id| PageJob { id, hour: 6 })
        .collect();

    // Cold boot onto an empty store.
    let cold = {
        let store = share_store(ArtifactStore::open(dir.path(), u64::MAX).unwrap());
        let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
        let (cold, _) = refresh_pages(&renderer, &mut tiered, &jobs, Some(&profile));
        assert_eq!(tiered.ram.stats.misses, jobs.len() as u64);
        cold
    }; // RAM tier and store handle drop here: nothing survives but the files.

    // Reopen from the index log: the refresh must promote, not render.
    let store = share_store(ArtifactStore::open(dir.path(), u64::MAX).unwrap());
    {
        let s = store.lock();
        assert_eq!(s.len(), jobs.len());
        assert!(s.live_bytes() > 0);
    }
    let mut tiered = TieredCache::with_store(ArtifactCache::unbounded(), store);
    let (warm, stats) = refresh_pages(&renderer, &mut tiered, &jobs, Some(&profile));
    assert_eq!(tiered.ram.stats.disk_promotions, jobs.len() as u64);
    assert_eq!(tiered.ram.stats.misses, 0);
    assert_eq!(stats.full_hits, jobs.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(w.page.page_id, c.page.page_id);
        assert_eq!(*w.frames, *c.frames);
        assert_eq!(audio_bits(&w.audio), audio_bits(&c.audio));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corrupting or truncating `index.log` at a random offset never
    /// panics, and reopening recovers exactly the CRC-valid record prefix:
    /// every record before the damage replays, everything after is
    /// truncated away, and every surviving entry still loads bit-identical
    /// audio.
    #[test]
    fn reopen_recovers_exactly_the_crc_valid_prefix(
        seed in any::<u64>(),
        n_puts in 2usize..6,
        damage_at in any::<u64>(),
        flip in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let dir = TempDir::new(&format!("crash-{seed}-{n_puts}"));
        let mut reference = Vec::new();
        {
            let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
            for n in 0..n_puts as u64 {
                let (art, hashes) = artifact_from_seed(lcg(seed) ^ n, n % 2 == 0);
                store.put(id(n), lcg(n ^ seed), lcg(n), &hashes, &art, n).unwrap();
                reference.push(audio_bits(&art.audio));
            }
        }

        let log_path = dir.path().join("index.log");
        let mut log = std::fs::read(&log_path).unwrap();
        prop_assert_eq!(log.len(), n_puts * RECORD_LEN, "unbounded store: insert records only");
        let at = (damage_at % log.len() as u64) as usize;
        if truncate {
            log.truncate(at);
        } else {
            log[at] ^= flip | 1;
        }
        std::fs::write(&log_path, &log).unwrap();

        // Records strictly before the damaged offset are intact; the
        // damaged record and everything after must be dropped (a bad CRC
        // stops the scan — records after it are unreachable by design).
        let intact = at / RECORD_LEN;
        let mut store = ArtifactStore::open(dir.path(), u64::MAX).unwrap();
        prop_assert_eq!(store.len(), intact);
        prop_assert_eq!(store.stats.recovered_entries, intact as u64);
        prop_assert_eq!(
            std::fs::metadata(&log_path).unwrap().len(),
            (intact * RECORD_LEN) as u64,
            "torn tail truncated to the valid prefix"
        );
        for n in 0..intact as u64 {
            let got = store.load(id(n));
            let got = got.expect("intact-prefix entry must load");
            prop_assert_eq!(&audio_bits(&got.artifact.audio), &reference[n as usize]);
        }
        for n in intact as u64..n_puts as u64 {
            prop_assert!(store.load(id(n)).is_none(), "post-damage entries are gone");
        }

        // The store stays writable after recovery.
        let (art, hashes) = artifact_from_seed(seed ^ 0xDEAD, false);
        store.put(id(90), 1, 2, &hashes, &art, 9).unwrap();
        prop_assert_eq!(store.len(), intact + 1);
    }
}
