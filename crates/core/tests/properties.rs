//! Property tests for the content-addressed broadcast artifact path: a
//! delta-spliced artifact (strip-level re-encode + burst-level audio
//! splice against a cached basis) must be bit-identical to a cold full
//! re-encode of the mutated raster, for any raster and any set of column
//! mutations.

use proptest::prelude::*;
use sonic_core::chunker::page_to_frames;
use sonic_core::link;
use sonic_core::page::SimplifiedPage;
use sonic_core::server::cache::ArtifactCache;
use sonic_core::server::pipeline::{refresh_page_with, RefreshPath, RenderedContent};
use sonic_image::clickmap::ClickMap;
use sonic_image::raster::{Raster, Rgb};
use sonic_image::strip;
use sonic_modem::profile::Profile;
use sonic_pagegen::PageId;

/// Deterministic noisy raster (LCG fill) so failures reproduce from the
/// proptest seed alone.
fn raster_from_seed(w: usize, h: usize, seed: u32) -> Raster {
    let mut img = Raster::new(w, h);
    let mut s = seed | 1;
    for y in 0..h {
        for x in 0..w {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = (s >> 24) as u8;
            img.set(x, y, Rgb::new(v, v.wrapping_add(90), v ^ 0x3C));
        }
    }
    img
}

/// Applies strip-level mutations: for each (column, row, delta) entry,
/// perturbs one pixel in that column. Duplicate columns are fine.
fn mutate_columns(img: &mut Raster, edits: &[(usize, usize, u8)]) {
    let (w, h) = (img.width(), img.height());
    for &(c, r, d) in edits {
        let (x, y) = (c % w, r % h);
        let p = img.get(x, y);
        // Guaranteed change: flip at least one channel bit.
        img.set(x, y, Rgb::new(p.r ^ (d | 1), p.g.wrapping_add(d), p.b));
    }
}

fn assert_audio_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "audio length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "sample {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full warm path — [`strip::encode_delta`] against the previous
    /// strips, [`SimplifiedPage::from_parts`], re-chunk, and
    /// [`link::modulate_spliced`] against the previous audio + burst table —
    /// produces frames and audio bit-identical to building the mutated
    /// raster cold, across random rasters and random column mutations
    /// (including the empty mutation set).
    #[test]
    fn delta_spliced_artifact_matches_cold_rebuild(
        w in 8usize..40,
        h in 16usize..96,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..6),
    ) {
        let profile = Profile::sonic_10k();
        let (url, version, ttl) = ("https://prop.pk/", 7u16, 6u16);
        let base = raster_from_seed(w, h, seed);
        let mut mutated = base.clone();
        mutate_columns(&mut mutated, &edits);

        // Basis artifact (the "previous hour" in the cache).
        let (strips0, hashes0) = strip::encode_with_hashes(&base);
        let page0 = SimplifiedPage::from_parts(
            url, strips0, ClickMap::default(), version, ttl);
        let frames0 = page_to_frames(&page0);
        let (audio0, table0) = link::modulate_with_table(&profile, &frames0);

        // Warm path: strip delta + burst splice against the basis.
        let d = strip::encode_delta(&mutated, &page0.strips, &hashes0);
        prop_assert_eq!(d.reused + d.reencoded, w, "one verdict per column");
        let page1 = SimplifiedPage::from_parts(
            url, d.strips, ClickMap::default(), version, ttl);
        let frames1 = page_to_frames(&page1);
        let spliced = link::modulate_spliced(&profile, &frames1, &audio0, &table0);

        // Cold path: full re-encode of the mutated raster.
        let cold = SimplifiedPage::from_raster(
            url, &mutated, ClickMap::default(), version, ttl);
        let frames_cold = page_to_frames(&cold);
        let audio_cold = link::modulate(&profile, &frames_cold);

        prop_assert_eq!(&page1.strips.strips, &cold.strips.strips);
        prop_assert_eq!(page1.page_id, cold.page_id);
        prop_assert_eq!(&frames1, &frames_cold);
        assert_audio_bits_eq(&spliced.audio, &audio_cold);

        // The splice's own table must describe the new audio exactly: a
        // second splice against it with zero changes reuses every burst.
        let again = link::modulate_spliced(
            &profile, &frames1, &spliced.audio, &spliced.table);
        prop_assert_eq!(again.modulated, 0, "identical frames: all bursts reused");
        assert_audio_bits_eq(&again.audio, &audio_cold);

        // No mutations ⇒ everything is reused outright.
        if edits.is_empty() {
            prop_assert_eq!(d.reencoded, 0);
            prop_assert_eq!(spliced.modulated, 0);
        }
    }

    /// The refresh driver's `Delta` path — [`refresh_page_with`] against a
    /// cached basis of the same dimensions — caches and returns an artifact
    /// (the one that airs, next hour's splice basis and the repair source)
    /// that matches a cold build of the mutated content frame-for-frame and
    /// sample-for-sample. An empty edit set is a raster hit instead and
    /// serves the cached artifact, which equals the cold build as well.
    #[test]
    fn refresh_delta_path_matches_cold_rebuild(
        w in 8usize..32,
        h in 16usize..64,
        seed in any::<u32>(),
        edits in proptest::collection::vec(
            (0usize..64, 0usize..64, any::<u8>()), 0..5),
    ) {
        let profile = Profile::sonic_10k();
        let id = PageId { site: 3, page: 1 };
        let base = raster_from_seed(w, h, seed);
        let mut mutated = base.clone();
        mutate_columns(&mut mutated, &edits);
        // Same version/ttl both hours: the content (not the clock) is what
        // changes, so an empty edit set is a legitimate raster hit.
        let content = |raster: &Raster| RenderedContent {
            url: "https://prop.pk/refresh".into(),
            raster: raster.clone(),
            clickmap: ClickMap::default(),
            version: 9,
            ttl_hours: 6,
        };

        // Warm: prime at hour 0, then the mutated content at hour 1.
        let mut warm = ArtifactCache::unbounded();
        let (_, path0) = refresh_page_with(
            &mut warm, id, 0xA0, 0, Some(&profile), || content(&base));
        prop_assert_eq!(path0, RefreshPath::Cold);
        let (art1, path1) = refresh_page_with(
            &mut warm, id, 0xA1, 1, Some(&profile), || content(&mutated));

        // Cold: the mutated content built with no prior state.
        let mut cold_cache = ArtifactCache::unbounded();
        let (cold, cold_path) = refresh_page_with(
            &mut cold_cache, id, 0xA1, 1, Some(&profile), || content(&mutated));
        prop_assert_eq!(cold_path, RefreshPath::Cold);

        let changed = strip::diff_columns(
            &strip::column_hashes(&base), &strip::column_hashes(&mutated));
        let want = if changed.is_empty() { RefreshPath::FullHit } else { RefreshPath::Delta };
        prop_assert_eq!(path1, want);
        prop_assert_eq!(art1.page.page_id, cold.page.page_id);
        prop_assert_eq!(&art1.page.strips.strips, &cold.page.strips.strips);
        prop_assert_eq!(&*art1.frames, &*cold.frames);
        assert_audio_bits_eq(&art1.audio, &cold.audio);
        prop_assert_eq!(&art1.bursts.spans, &cold.bursts.spans);
        // A second refresh of the same content serves the cached artifact.
        let (again, path2) = refresh_page_with(
            &mut warm, id, 0xA1, 1, Some(&profile), || content(&mutated));
        prop_assert_eq!(path2, RefreshPath::FullHit);
        prop_assert!(std::sync::Arc::ptr_eq(&again.audio, &art1.audio));
    }
}
