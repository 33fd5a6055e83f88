//! `cluster_day`: the 50-site chaos day (`ClusterSoakConfig` defaults: two
//! broadcast hours plus the drain, two kills an hour, an SMS flood hour,
//! link faults everywhere), driven by this benchmark's own loop over the
//! public control-plane calls: `Coordinator::push_carousel`,
//! `accept_sms` and `pump`, then `SiteNode::service` and `advance` over
//! each site's `SimLink`. The kill schedule, the link fault plans and all
//! SMS traffic are generated from the seed during set-up and offered on
//! simulated time.

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, ratio, repeat_for, set_up};
use crate::{mix, Args, SETUPS, SETUP_SECONDS};
use sonic_core::frame::Frame;
use sonic_core::net::rpc::RpcPolicy;
use sonic_core::net::transport::{LinkFaultPlan, SimLink};
use sonic_core::page::page_id_for;
use sonic_core::server::cache::share_store;
use sonic_core::server::cluster::{Coordinator, CoordinatorConfig, SiteConfig, SiteNode};
use sonic_core::server::render::Renderer;
use sonic_core::server::store::ArtifactStore;
use sonic_pagegen::{Corpus, PageId};
use sonic_sim::cluster::ClusterSoakConfig;
use sonic_sim::pool;
use sonic_sms::gateway;
use sonic_sms::geo::{Coverage, GeoPoint, TransmitterSite};
use sonic_sms::queries::{format_nack, Nack};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Listener-stage workers (the host has two cores).
const WORKERS: usize = 2;

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a) ^ b) ^ c)
}

/// Everything the day offers, generated from the seed.
struct Inputs {
    cfg: ClusterSoakConfig,
    coverage: Coverage,
    plans: Vec<LinkFaultPlan>,
    /// `(time, site)` kills, sorted.
    kills: Vec<(f64, u32)>,
    /// SMS offered per tick: `(tick, message)`, sorted by tick.
    sms: Vec<(u64, String)>,
    store_dir: PathBuf,
}

/// A fleet on a grid wide enough that each site covers only its own
/// neighbourhood (so an SMS routes to exactly one site).
fn coverage(n: usize) -> Coverage {
    Coverage {
        sites: (0..n)
            .map(|i| TransmitterSite {
                id: i as u32,
                location: GeoPoint::new(24.0 + (i / 8) as f64 * 0.9, 66.0 + (i % 8) as f64 * 0.9),
                radius_km: 45.0,
                freq_mhz: 88.0 + 0.2 * i as f64,
            })
            .collect(),
    }
}

/// Mild ambient damage on every link, plus one ~2-minute partition for
/// about a quarter of the fleet.
fn link_plan(seed: u64, site: u32, hours: u32) -> LinkFaultPlan {
    let h = mix3(seed, u64::from(site), 0x11_4B);
    let mut down = Vec::new();
    if h.is_multiple_of(4) {
        let at = 300.0 + (mix(h) % (u64::from(hours) * 3000).max(1)) as f64;
        down.push((at, at + 120.0));
    }
    LinkFaultPlan {
        seed: mix(h ^ 0xF0),
        mtu: 512,
        base_latency_s: 0.03,
        jitter_s: 0.05,
        drop_prob: 0.005,
        corrupt_prob: 0.002,
        reorder_prob: 0.02,
        down,
        spikes: vec![],
    }
}

fn setup(args: &Args, work: &Path) -> Inputs {
    let cfg = ClusterSoakConfig {
        seed: args.seed,
        workers: WORKERS,
        ..ClusterSoakConfig::default()
    };
    let cov = coverage(cfg.sites);
    let plans = (0..cfg.sites as u32)
        .map(|s| link_plan(cfg.seed, s, cfg.hours))
        .collect();
    let mut kills = Vec::new();
    for h in 0..u64::from(cfg.hours) {
        for i in 0..cfg.kills_per_hour as u64 {
            let site = (mix3(cfg.seed ^ 0x4B11, h, i) % cfg.sites as u64) as u32;
            let at = h as f64 * 3600.0 + 120.0 + (mix3(cfg.seed, h, i ^ 0x77) % 3000) as f64;
            kills.push((at, site));
        }
    }
    kills.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // The URLs the day's SMS traffic asks for (page 0 of each corpus site).
    let corpus = Corpus::small(cfg.corpus_sites);
    let urls: Vec<Vec<String>> = (0..u64::from(cfg.hours))
        .map(|h| {
            (0..cfg.corpus_sites)
                .map(|s| corpus.layout(PageId { site: s, page: 0 }, h).url)
                .collect()
        })
        .collect();
    let per_hour = (3600.0 / cfg.tick_s).round() as u64;
    let per_minute = (60.0 / cfg.tick_s).round() as u64;
    let n_sites = cfg.sites as u64;
    let n_pages = cfg.corpus_sites as u64;
    let mut sms = Vec::new();
    for tick in 0..per_hour * u64::from(cfg.hours) {
        let hour = tick / per_hour;
        if tick % per_minute == 0 {
            for g in 0..cfg.gets_per_minute as u64 {
                let h = mix3(cfg.seed ^ 0x6E7, tick, g);
                let at = &cov.sites[(mix(h) % n_sites) as usize].location;
                sms.push((
                    tick,
                    gateway::format_request(&urls[hour as usize][(h % n_pages) as usize], at),
                ));
            }
        }
        if hour == u64::from(cfg.flood_hour) {
            let version = (hour % u64::from(u16::MAX)) as u16;
            for f in 0..cfg.flood_per_tick as u64 {
                let h = mix3(cfg.seed ^ 0xF_100D, tick, f);
                let at = &cov.sites[(mix(h) % n_sites) as usize].location;
                let msg = if h.is_multiple_of(3) {
                    format_nack(&Nack {
                        page_id: page_id_for(&urls[hour as usize][(h % n_pages) as usize], version),
                        meta: false,
                        columns: vec![(0, 0)],
                        location: *at,
                    })
                } else {
                    gateway::format_request(
                        &urls[hour as usize][(mix(h ^ 1) % n_pages) as usize],
                        at,
                    )
                };
                sms.push((tick, msg));
            }
        }
    }
    let store_dir = work.join("cluster-store");
    Inputs {
        cfg,
        coverage: cov,
        plans,
        kills,
        sms,
        store_dir,
    }
}

/// Seconds spent in each control-plane call (traced pass only).
#[derive(Default)]
struct Spans {
    push: f64,
    accept: f64,
    pump: f64,
    service: f64,
    advance: f64,
    listener: f64,
    /// Store, renderer, coordinator, site and link construction.
    boot: f64,
    /// Kill and restart handling.
    churn: f64,
}

/// Codec counters read from a component's debug rendering: the frame
/// decoders inside `RpcClient` and `SiteNode` are private fields, and
/// their `Debug` output is the only public view of `DecoderStats`.
fn decoder_stats(debug: &str) -> (u64, u64) {
    let field = |rest: &str, name: &str| -> u64 {
        rest.find(name)
            .and_then(|i| {
                rest[i + name.len()..]
                    .split(|c: char| !c.is_ascii_digit())
                    .find(|s| !s.is_empty())?
                    .parse()
                    .ok()
            })
            .unwrap_or(0)
    };
    let (mut resyncs, mut crc) = (0, 0);
    for (i, _) in debug.match_indices("DecoderStats {") {
        let rest = &debug[i..];
        let end = rest.find('}').unwrap_or(rest.len());
        resyncs += field(&rest[..end], "resyncs: ");
        crc += field(&rest[..end], "crc_failures: ");
    }
    (resyncs, crc)
}

/// What one day produced.
#[derive(Default, PartialEq, Debug)]
struct Report {
    frames_aired: u64,
    frames_heard: u64,
    kills: u64,
    restarts: u64,
    hung_pages: u64,
    rpc_submitted: u64,
    rpc_sent: u64,
    rpc_retries: u64,
    rpc_expired: u64,
    rpc_shed: u64,
    refused: u64,
    codec_resyncs: u64,
    codec_crc_failures: u64,
    pipe_bytes: u64,
    /// Bytes the shared disk `ArtifactStore` wrote (`blobs.dat` plus
    /// `index.log`; both are append-only).
    store_bytes: u64,
    failovers: u64,
    inline_fallbacks: u64,
    sms_shed: u64,
}

/// Per-page frame counts of one site's epoch (the listener stage).
fn digest(job: (u32, Vec<Frame>)) -> (u32, Vec<(u32, u32)>) {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for f in &job.1 {
        *counts.entry(f.page_id()).or_insert(0) += 1;
    }
    (job.0, counts.into_iter().collect())
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the day once on a fresh store: wall seconds and report. With
/// `spans` every control-plane call is timed.
fn run_day(inp: &Inputs, mut spans: Option<&mut Spans>) -> (f64, Report) {
    let cfg = &inp.cfg;
    let _ = std::fs::remove_dir_all(&inp.store_dir);
    std::fs::create_dir_all(&inp.store_dir).expect("create store dir");
    let t_wall = Instant::now();
    let store = share_store(ArtifactStore::open(&inp.store_dir, 256 << 20).expect("open store"));
    let renderer = Renderer::new(Corpus::small(cfg.corpus_sites), cfg.render_scale);
    let coord_cfg = CoordinatorConfig {
        rpc: RpcPolicy {
            deadline_s: 5.0,
            probe_interval_s: 15.0,
            ..RpcPolicy::default()
        },
        ping_interval_s: 20.0,
        ingress_capacity: 256,
        ingress_drain_per_pump: 64,
    };
    let mut coord = Coordinator::new(renderer, inp.coverage.clone(), store.clone(), coord_cfg);
    let site_cfg = |id: u32| SiteConfig {
        site_id: id,
        rate_bps: cfg.rate_bps,
        ..SiteConfig::default()
    };
    let mut sites: BTreeMap<u32, SiteNode> = (0..cfg.sites as u32)
        .map(|id| (id, SiteNode::new(site_cfg(id), Some(store.clone()))))
        .collect();
    let mut links: BTreeMap<u32, SimLink> = inp
        .plans
        .iter()
        .enumerate()
        .map(|(id, plan)| (id as u32, SimLink::symmetric(plan.clone())))
        .collect();
    if let Some(s) = spans.as_deref_mut() {
        s.boot += t_wall.elapsed().as_secs_f64();
    }

    let mut rep = Report::default();
    let mut pending_restarts: BTreeMap<u32, f64> = BTreeMap::new();
    let mut epoch: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
    let (mut next_kill, mut next_sms) = (0usize, 0usize);
    let per_hour = (3600.0 / cfg.tick_s).round() as u64;
    let per_minute = (60.0 / cfg.tick_s).round() as u64;
    let day_ticks = per_hour * u64::from(cfg.hours);
    let total_ticks = day_ticks + (cfg.drain_s / cfg.tick_s).round() as u64;

    let span = |slot: fn(&mut Spans) -> &mut f64, t: Instant, spans: &mut Option<&mut Spans>| {
        if let Some(s) = spans.as_deref_mut() {
            *slot(s) += t.elapsed().as_secs_f64();
        }
    };
    for tick in 0..total_ticks {
        let t = tick as f64 * cfg.tick_s;
        let in_day = tick < day_ticks;
        let hour = (tick / per_hour).min(u64::from(cfg.hours).saturating_sub(1));

        if in_day && tick % per_hour == 0 {
            let t0 = Instant::now();
            coord.push_carousel(hour, cfg.carousel_top_n, t);
            span(|s| &mut s.push, t0, &mut spans);
        }
        let t0 = Instant::now();
        while in_day && next_kill < inp.kills.len() && inp.kills[next_kill].0 <= t {
            let victim = inp.kills[next_kill].1;
            next_kill += 1;
            if let Some(node) = sites.remove(&victim) {
                if spans.is_some() {
                    let (resyncs, crc) = decoder_stats(&format!("{node:?}"));
                    rep.codec_resyncs += resyncs;
                    rep.codec_crc_failures += crc;
                }
                if let Some(l) = links.get_mut(&victim) {
                    l.a_to_b.flush_inflight();
                    l.b_to_a.flush_inflight();
                }
                rep.kills += 1;
                pending_restarts.insert(victim, t + cfg.down_time_s);
            }
        }
        let due: Vec<u32> = pending_restarts
            .iter()
            .filter(|&(_, &at)| at <= t || !in_day)
            .map(|(&s, _)| s)
            .collect();
        for site in due {
            pending_restarts.remove(&site);
            sites.insert(site, SiteNode::new(site_cfg(site), Some(store.clone())));
            rep.restarts += 1;
        }
        span(|s| &mut s.churn, t0, &mut spans);
        let t0 = Instant::now();
        while next_sms < inp.sms.len() && inp.sms[next_sms].0 == tick {
            coord.accept_sms(&inp.sms[next_sms].1);
            next_sms += 1;
        }
        span(|s| &mut s.accept, t0, &mut spans);

        let t0 = Instant::now();
        coord.pump(t, &mut links);
        span(|s| &mut s.pump, t0, &mut spans);

        for (id, node) in sites.iter_mut() {
            if let Some(link) = links.get_mut(id) {
                let t0 = Instant::now();
                node.service(t, link);
                span(|s| &mut s.service, t0, &mut spans);
            }
            let t0 = Instant::now();
            let aired = node.advance(cfg.tick_s);
            span(|s| &mut s.advance, t0, &mut spans);
            if !aired.is_empty() {
                rep.frames_aired += aired.len() as u64;
                epoch.entry(*id).or_default().extend(aired);
            }
        }
        if (tick + 1) % per_minute == 0 || tick + 1 == total_ticks {
            let t0 = Instant::now();
            let jobs: Vec<(u32, Vec<Frame>)> = std::mem::take(&mut epoch).into_iter().collect();
            for (_, counts) in pool::run_ordered(jobs, cfg.workers, digest) {
                rep.frames_heard += counts.iter().map(|&(_, n)| u64::from(n)).sum::<u64>();
            }
            span(|s| &mut s.listener, t0, &mut spans);
        }
    }
    let wall_s = t_wall.elapsed().as_secs_f64();

    rep.hung_pages = sites
        .values()
        .map(|n| n.scheduler.backlog_pages() as u64)
        .sum();
    for c in coord.clients().values() {
        rep.rpc_submitted += c.stats.submitted;
        rep.rpc_sent += c.stats.sent;
        rep.rpc_retries += c.stats.retries;
        rep.rpc_expired += c.stats.expired;
        rep.rpc_shed += c.stats.shed_repairs + c.stats.shed_deltas + c.stats.shed_pages;
    }
    rep.refused = coord.stats.refused_overloaded + coord.stats.submit_shed;
    rep.failovers = coord.stats.failovers;
    rep.inline_fallbacks = coord.stats.inline_fallbacks;
    rep.sms_shed = coord.ingress.stats.shed_nacks + coord.ingress.stats.shed_requests;
    rep.pipe_bytes = links
        .values()
        .map(|l| l.a_to_b.stats.bytes_sent + l.b_to_a.stats.bytes_sent)
        .sum();
    rep.store_bytes = dir_bytes(&inp.store_dir);
    if spans.is_some() {
        let mut debug = String::new();
        for c in coord.clients().values() {
            debug.push_str(&format!("{c:?}"));
        }
        for n in sites.values() {
            debug.push_str(&format!("{n:?}"));
        }
        let (resyncs, crc) = decoder_stats(&debug);
        rep.codec_resyncs += resyncs;
        rep.codec_crc_failures += crc;
    }
    (wall_s, rep)
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = set_up(SETUPS, SETUP_SECONDS, || setup(args, work));

    let days = if args.trace {
        vec![run_day(&inp, None)]
    } else {
        repeat_for(args.seconds, 1, || run_day(&inp, None))
    };
    let r = &days[0].1;
    out.check(
        "cluster.no_hung_pages",
        r.hung_pages == 0,
        format!("{} pages still queued after the drain", r.hung_pages),
    );
    out.check(
        "cluster.frames_heard_eq_aired",
        r.frames_heard == r.frames_aired,
        format!("{} heard / {} aired", r.frames_heard, r.frames_aired),
    );
    out.check(
        "cluster.restarts_eq_kills",
        r.restarts == r.kills && r.kills > 0,
        format!("{} restarts / {} kills", r.restarts, r.kills),
    );
    out.check(
        "cluster.day_repeats",
        days.iter().all(|d| d.1 == *r),
        format!("{} days of seed {}", days.len(), args.seed),
    );
    out.attempted = days.iter().map(|d| d.1.rpc_submitted).sum();
    out.failed = days.iter().map(|d| d.1.hung_pages).sum();

    let walls: Vec<f64> = days.iter().map(|d| d.0).collect();
    out.samples("cluster.day_s", "s", &walls);
    let ops: Vec<f64> = days
        .iter()
        .map(|d| d.1.rpc_submitted as f64 / d.0)
        .collect();
    out.e2e("setup_s", setup_s);
    out.e2e("peak_rss_mb", peak_rss_mb());
    out.e2e("ops_per_s", median(&ops));
    out.layer("cluster.day_s", median(&walls));
    out.layer(
        "cluster.rpc_fail_frac",
        ratio(r.rpc_expired + r.refused, r.rpc_submitted),
    );

    if args.trace {
        let mut sp = Spans::default();
        let (traced_s, t) = run_day(&inp, Some(&mut sp));
        let ms = |s: f64| s * 1e3;
        out.layer("server.cluster.push_ms", ms(sp.push));
        out.layer("server.cluster.pump_ms", ms(sp.pump));
        out.layer("server.cluster.service_ms", ms(sp.service));
        out.layer("server.cluster.advance_ms", ms(sp.advance));
        out.layer("sms.accept_ms", ms(sp.accept));
        out.layer("cluster.listener_ms", ms(sp.listener));
        out.layer("cluster.boot_ms", ms(sp.boot));
        out.layer("cluster.kill_restart_ms", ms(sp.churn));
        let attributed = sp.push
            + sp.pump
            + sp.service
            + sp.advance
            + sp.accept
            + sp.listener
            + sp.boot
            + sp.churn;
        out.layer("cluster.unattributed_ms", ms(days[0].0 - attributed));
        out.layer("cluster.trace_overhead_ms", ms(traced_s - days[0].0));
        out.layer("net.rpc.submitted", t.rpc_submitted as f64);
        out.layer("net.rpc.sent", t.rpc_sent as f64);
        out.layer("net.rpc.retries", t.rpc_retries as f64);
        out.layer("net.rpc.expired", t.rpc_expired as f64);
        out.layer("net.rpc.shed", t.rpc_shed as f64);
        out.layer("net.rpc.refused", t.refused as f64);
        out.layer("net.codec.resyncs", t.codec_resyncs as f64);
        out.layer("net.codec.crc_failures", t.codec_crc_failures as f64);
        out.layer("net.pipe.bytes", t.pipe_bytes as f64);
        out.layer("server.store.bytes_written", t.store_bytes as f64);
        out.layer("server.cluster.failovers", t.failovers as f64);
        out.layer("server.cluster.inline_fallbacks", t.inline_fallbacks as f64);
        out.layer("sms.shed", t.sms_shed as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_stats_sum_every_rendering() {
        let debug =
            "RpcClient { decoder: FrameDecoder { buf: [], stats: DecoderStats { frames: 9, \
                     resyncs: 2, skipped_bytes: 40, crc_failures: 1 } } } SiteNode { decoder: \
                     FrameDecoder { stats: DecoderStats { frames: 3, resyncs: 0, skipped_bytes: 0, \
                     crc_failures: 4 } } }";
        assert_eq!(decoder_stats(debug), (2, 5));
        assert_eq!(decoder_stats("no decoders"), (0, 0));
    }
}
