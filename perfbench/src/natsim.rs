//! `natsim_day`: the country-scale scenario engine over one full diurnal
//! day — `ScenarioConfig::national(seed)` cut to 24 hours, DSP cohort on,
//! two workers.
//!
//! The headline is *active* listener-hours (listeners actually tuned in,
//! per the diurnal mask) per host second. The engine's `listener_hours`
//! counts the whole population every hour, idle or not, so a window of
//! night hours inflates it without any work being done; a full day counts
//! every hour of the diurnal curve once.

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, repeat_for, set_up, timed};
use crate::{Args, SETUPS, SETUP_SECONDS};
use sonic_radio::faults::{Fault, FaultPlan};
use sonic_sim::scenario::{self, ScenarioConfig, ScenarioReport};

/// Simulated hours: one diurnal day.
const HOURS: u32 = 24;
/// Worker threads (the host has two cores).
const WORKERS: usize = 2;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        hours: HOURS,
        workers: WORKERS,
        ..ScenarioConfig::national(seed)
    }
}

/// FNV-1a digest of the rendered report (byte-stable across replays).
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

struct Day {
    wall_s: f64,
    active_lh: u64,
    escalations: u64,
    digest: u64,
}

fn day(cfg: &ScenarioConfig) -> Day {
    let (report, wall_s): (ScenarioReport, f64) = timed(|| scenario::run(cfg));
    Day {
        wall_s,
        active_lh: report.aggregates.active_listener_hours,
        escalations: report.aggregates.dsp_runs,
        digest: digest(&report.text),
    }
}

/// Calls `FaultPlan::burst_loss_curve` from outside the engine as often as
/// its memoized tier does over the day: once per carousel slot per
/// transmitter, over site weather of the engine's shape (0–3 deep fades
/// and 0–2 mutes per site-hour). Returns (calls, seconds).
fn loss_curves(cfg: &ScenarioConfig) -> (u64, f64) {
    let frame_airtime_s = 100.0 * 8.0 / cfg.rate_bps;
    let budget = (3_600.0 / frame_airtime_s) as u64;
    let sizes: Vec<u32> = (0..cfg.pages as u64)
        .map(|p| 14 + (crate::mix(cfg.seed ^ p) % 90) as u32)
        .collect();
    let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut calls = 0u64;
    let mut sink = 0.0f64;
    let (_, secs) = timed(|| {
        for hour in 0..u64::from(cfg.hours) {
            let plans: Vec<FaultPlan> = (0..cfg.terrain.sites as u64)
                .map(|site| {
                    let base = crate::mix(cfg.seed ^ (hour << 8) ^ site);
                    let mut faults = Vec::new();
                    for i in 0..base % 4 {
                        let h = crate::mix(base ^ i);
                        faults.push(Fault::Fade {
                            start_s: unit(h) * 3_400.0,
                            len_s: 30.0 + unit(crate::mix(h)) * 240.0,
                            depth_db: 8.0 + unit(crate::mix(h ^ 1)) * 28.0,
                        });
                    }
                    for i in 0..(base >> 8) % 3 {
                        let h = crate::mix(base ^ (i + 16));
                        faults.push(Fault::Mute {
                            start_s: unit(h) * 3_560.0,
                            len_s: 2.0 + unit(crate::mix(h)) * 35.0,
                        });
                    }
                    FaultPlan { seed: base, faults }
                })
                .collect();
            let (mut used, mut t, mut idx) = (0u64, 0.0f64, 0usize);
            while used + u64::from(sizes[idx % sizes.len()]) <= budget {
                let n = sizes[idx % sizes.len()];
                for plan in &plans {
                    let curve =
                        plan.burst_loss_curve(t, frame_airtime_s, n, (hour << 20) ^ idx as u64);
                    sink += f64::from(curve.n_alive);
                    calls += 1;
                }
                t += f64::from(n) * frame_airtime_s;
                used += u64::from(n);
                idx += 1;
            }
        }
    });
    std::hint::black_box(sink);
    (calls, secs)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is the configuration plus a small warm run (terrain, the
    // worker pool and the DSP chain's plan caches).
    let (cfg, setup_s) = set_up(SETUPS, SETUP_SECONDS, || {
        let cfg = config(args.seed);
        let warm = ScenarioConfig {
            hours: 1,
            listeners: 2_000,
            ..cfg.clone()
        };
        std::hint::black_box(scenario::run(&warm).listener_hours);
        cfg
    });

    // Two days at least: the replay check compares their digests.
    let days = if args.trace {
        vec![day(&cfg)]
    } else {
        repeat_for(args.seconds, 2, || day(&cfg))
    };
    let first = &days[0];
    out.check(
        "natsim.report_digest",
        first.active_lh > 0,
        format!(
            "{:016x} ({} active listener-hours)",
            first.digest, first.active_lh
        ),
    );
    out.attempted = days.iter().map(|d| d.active_lh).sum();

    let rate: Vec<f64> = days.iter().map(|d| d.active_lh as f64 / d.wall_s).collect();
    out.samples(
        "sim.day_s",
        "s",
        &days.iter().map(|d| d.wall_s).collect::<Vec<_>>(),
    );
    out.e2e("setup_s", setup_s);
    out.e2e("peak_rss_mb", peak_rss_mb());
    out.e2e("ops_per_s", median(&rate));
    out.layer("sim.active_lh_per_s", median(&rate));

    let mut all = days.iter().map(|d| d.digest).collect::<Vec<_>>();
    if args.trace {
        let traced = day(&cfg);
        all.push(traced.digest);
        let fast_cfg = ScenarioConfig {
            dsp_cohort_per_hour: 0,
            ..cfg.clone()
        };
        let fast = day(&fast_cfg);
        let (calls, curve_s) = loss_curves(&cfg);
        out.layer("sim.fast_path_s", fast.wall_s);
        out.layer("sim.dsp_cohort_s", traced.wall_s - fast.wall_s);
        out.layer("radio.faults.loss_curve_ms", curve_s * 1e3);
        out.layer("radio.faults.loss_curves", calls as f64);
        out.layer("sim.active_listener_hours", traced.active_lh as f64);
        out.layer("sim.escalations", traced.escalations as f64);
        out.layer(
            "sim.trace_overhead_ms",
            (traced.wall_s - first.wall_s) * 1e3,
        );
    }
    out.check(
        "natsim.same_seed_same_report",
        all.iter().all(|&d| d == first.digest),
        format!("{} runs of seed {}", all.len(), args.seed),
    );
    out
}
