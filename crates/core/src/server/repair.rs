//! Closed-loop broadcast repair (the journal extension's retransmission
//! budget, §3.1's "users can request missing content").
//!
//! Clients derive their per-page loss map after finalizing (or timing out)
//! a reception and uplink a compact `NACK` (see `sonic_sms::queries::Nack`):
//! per damaged column a single `(column, from_seq)` pair, because strip
//! columns are sequential entropy streams and everything after the first
//! gap is undecodable anyway. The planner
//!
//! 1. **validates** each NACK against the registered page (known id, sane
//!    column indices),
//! 2. **coalesces** ranges across clients per transmitter site — two phones
//!    missing column 7 from chunks 3 and 1 become one range `(7, 1)`, since
//!    a burst from the lower seq serves both,
//! 3. **schedules** a targeted repair burst (the matching frame subset of
//!    the original broadcast) through the site's `BroadcastScheduler`, under
//!    a per-page retry budget with exponential backoff so a pathological
//!    receiver cannot monopolize airtime.
//!
//! Repair frames carry the original page id, so receivers fold them into
//! the same `PageAssembly` that produced the loss map.

use crate::chunker::page_to_frames;
use crate::frame::Frame;
use crate::page::SimplifiedPage;
use crate::server::scheduler::BroadcastScheduler;
use sonic_sms::queries::Nack;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Repair policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Repair bursts allowed per (site, page) before NACKs are refused.
    pub max_attempts_per_page: u32,
    /// Delay before the first repair burst (coalescing window: NACKs from
    /// other clients arriving meanwhile merge into the same burst).
    pub coalesce_s: f64,
    /// Base of the exponential backoff between repair bursts for one page:
    /// attempt `n` waits `backoff_base_s · 2^(n-1)`.
    pub backoff_base_s: f64,
    /// Most recently broadcast pages kept repairable (bounded registry).
    pub max_registry_pages: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_attempts_per_page: 4,
            coalesce_s: 30.0,
            backoff_base_s: 60.0,
            max_registry_pages: 256,
        }
    }
}

/// Why a NACK was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackRejection {
    /// The page id is not (or no longer) in the repair registry.
    UnknownPage,
    /// A column index exceeds the page's width.
    InvalidRange,
    /// The per-page retry budget is spent.
    BudgetExhausted,
}

/// Coalesced outstanding repair need for one (site, page lineage).
#[derive(Debug, Default)]
struct PageRepair {
    /// On-air page id of the edition the ranges refer to.
    page_id: u32,
    /// Hour-version of that edition. A NACK for a *newer* version of the
    /// same url resets this entry — ranges from the old edition are
    /// meaningless against the new frames, and a new edition must not be
    /// born with its predecessor's spent retry budget.
    version: u16,
    /// Metadata region requested by at least one client.
    meta: bool,
    /// column → lowest `from_seq` across clients (a burst from the lower
    /// seq serves every client missing a higher one).
    columns: BTreeMap<u16, u16>,
    /// Distinct NACKs folded into this entry since the last burst.
    clients: usize,
    /// Repair bursts already spent on this page edition.
    attempts: u32,
    /// Earliest time the next burst may be scheduled (coalescing window,
    /// then exponential backoff).
    next_eligible_s: f64,
}

/// Planner counters (diagnostics and soak assertions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// NACKs validated and coalesced.
    pub nacks_accepted: usize,
    /// NACKs refused (unknown page, bad range, spent budget).
    pub nacks_rejected: usize,
    /// Repair bursts handed to schedulers.
    pub bursts_scheduled: usize,
    /// Total frames across those bursts.
    pub frames_scheduled: usize,
    /// Times a NACK hit an exhausted budget.
    pub budget_exhausted: usize,
    /// High-water mark of repair bursts spent on one (site, page).
    pub max_attempts_on_page: u32,
}

/// Validates, coalesces and schedules repair traffic for a transmitter
/// fleet.
#[derive(Debug, Default)]
pub struct RepairPlanner {
    /// Policy knobs.
    pub config: RepairConfig,
    /// (site id, url-base id) → outstanding coalesced need. Keyed by the
    /// version-independent base of the page id (url hash), so one url
    /// holds exactly one entry per site across editions: when the hour
    /// version rolls, the entry resets instead of leaking a stale twin.
    pending: BTreeMap<(u32, u32), PageRepair>,
    /// page id → broadcast source material, FIFO-bounded.
    registry: BTreeMap<u32, Arc<SimplifiedPage>>,
    registry_order: VecDeque<u32>,
    /// Counters.
    pub stats: RepairStats,
}

impl RepairPlanner {
    /// Creates a planner with the default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a planner with an explicit policy.
    pub fn with_config(config: RepairConfig) -> Self {
        RepairPlanner {
            config,
            ..Self::default()
        }
    }

    /// Makes a broadcast page repairable. Call on every enqueue; re-registering
    /// an already-known id just refreshes its registry position.
    pub fn register_page(&mut self, page: Arc<SimplifiedPage>) {
        let id = page.page_id;
        if self.registry.insert(id, page).is_none() {
            self.registry_order.push_back(id);
        }
        while self.registry.len() > self.config.max_registry_pages {
            if let Some(old) = self.registry_order.pop_front() {
                self.registry.remove(&old);
            } else {
                break;
            }
        }
    }

    /// Number of repairable pages currently registered.
    pub fn registered_pages(&self) -> usize {
        self.registry.len()
    }

    /// Outstanding (site, page) repairs not yet scheduled.
    pub fn pending_repairs(&self) -> usize {
        self.pending.len()
    }

    /// Highest repair-burst count spent on any (site, page) over the
    /// planner's lifetime — always within `config.max_attempts_per_page`
    /// (the soak asserts this).
    pub fn max_attempts_used(&self) -> u32 {
        self.stats.max_attempts_on_page
    }

    /// Validates a NACK for `site_id` and coalesces it into the pending
    /// need. Returns the estimated seconds until the repair burst is
    /// scheduled (the caller adds scheduler backlog for the full ETA).
    pub fn accept_nack(
        &mut self,
        site_id: u32,
        nack: &Nack,
        now_s: f64,
    ) -> Result<f64, NackRejection> {
        let Some(page) = self.registry.get(&nack.page_id) else {
            self.stats.nacks_rejected += 1;
            return Err(NackRejection::UnknownPage);
        };
        let width = page.strips.width as u16;
        if nack.columns.iter().any(|&(col, _)| col >= width) {
            self.stats.nacks_rejected += 1;
            return Err(NackRejection::InvalidRange);
        }
        let version = page.version;
        let entry = self
            .pending
            .entry((site_id, base_id(nack.page_id, version)))
            .or_insert_with(|| PageRepair {
                page_id: nack.page_id,
                version,
                next_eligible_s: now_s + self.config.coalesce_s,
                ..PageRepair::default()
            });
        if entry.version != version || entry.page_id != nack.page_id {
            // A new hour edition of the url: old ranges are void and the
            // retry budget starts fresh — the new edition has never had a
            // repair burst of its own.
            *entry = PageRepair {
                page_id: nack.page_id,
                version,
                next_eligible_s: now_s + self.config.coalesce_s,
                ..PageRepair::default()
            };
        }
        if entry.attempts >= self.config.max_attempts_per_page {
            self.stats.nacks_rejected += 1;
            self.stats.budget_exhausted += 1;
            return Err(NackRejection::BudgetExhausted);
        }
        entry.meta |= nack.meta;
        for &(col, from) in &nack.columns {
            entry
                .columns
                .entry(col)
                .and_modify(|f| *f = (*f).min(from))
                .or_insert(from);
        }
        entry.clients += 1;
        self.stats.nacks_accepted += 1;
        Ok((entry.next_eligible_s - now_s).max(0.0))
    }

    /// Extracts every pending repair whose coalescing window / backoff has
    /// elapsed as a ready-to-transmit burst, charging the retry budget.
    ///
    /// `covered(site_id, page_id)` reports whether the site already has the
    /// need in hand (a full broadcast queued, or an earlier repair burst
    /// still in flight) — or no longer exists at all. Covered entries are
    /// dropped without spending budget. This is the transport-agnostic core:
    /// [`schedule_due`](Self::schedule_due) feeds local schedulers, while a
    /// cluster coordinator routes the bursts over RPC instead.
    pub fn due_bursts(
        &mut self,
        now_s: f64,
        mut covered: impl FnMut(u32, u32) -> bool,
    ) -> Vec<DueBurst> {
        let mut due: Vec<(u32, u32)> = self
            .pending
            .iter()
            .filter(|(_, r)| now_s >= r.next_eligible_s)
            .map(|(&k, _)| k)
            .collect();
        due.sort_unstable();
        let mut bursts = Vec::new();
        for key in due {
            let site_id = key.0;
            let page_id = match self.pending.get(&key) {
                Some(r) => r.page_id,
                None => continue,
            };
            let Some(page) = self.registry.get(&page_id).cloned() else {
                // Page aged out of the registry since the NACK: drop.
                self.pending.remove(&key);
                continue;
            };
            if covered(site_id, page_id) {
                // A queued full broadcast covers any range, and an in-flight
                // repair burst should air before more budget is spent.
                self.pending.remove(&key);
                continue;
            }
            let Some(repair) = self.pending.get_mut(&key) else {
                continue;
            };
            let frames = repair_frames(&page, repair.meta, &repair.columns);
            if frames.is_empty() {
                self.pending.remove(&key);
                continue;
            }
            self.stats.bursts_scheduled += 1;
            self.stats.frames_scheduled += frames.len();
            repair.attempts += 1;
            self.stats.max_attempts_on_page = self.stats.max_attempts_on_page.max(repair.attempts);
            // Ranges are now in flight; a client still missing data after
            // this burst will NACK again, re-entering the backoff gate.
            repair.meta = false;
            repair.columns.clear();
            repair.clients = 0;
            repair.next_eligible_s = now_s
                + self.config.backoff_base_s * f64::from(1u32 << (repair.attempts - 1).min(16));
            bursts.push(DueBurst {
                site_id,
                page,
                frames: Arc::new(frames),
            });
        }
        bursts
    }

    /// Schedules every due repair burst onto its site's local scheduler.
    /// Returns the number of bursts scheduled. Call periodically (each
    /// simulation tick / server loop).
    pub fn schedule_due(
        &mut self,
        now_s: f64,
        schedulers: &mut BTreeMap<u32, BroadcastScheduler>,
    ) -> usize {
        let bursts = self.due_bursts(now_s, |site_id, page_id| {
            schedulers.get(&site_id).is_none_or(|s| {
                s.eta_full_for(page_id).is_some() || s.repair_queued(page_id)
            })
        });
        let mut scheduled = 0usize;
        for b in bursts {
            if let Some(sched) = schedulers.get_mut(&b.site_id) {
                sched.enqueue_repair(b.page, b.frames, now_s);
                scheduled += 1;
            }
        }
        scheduled
    }
}

/// One repair burst whose window has elapsed, ready for transmission.
#[derive(Debug, Clone)]
pub struct DueBurst {
    /// Transmitter site the burst belongs to.
    pub site_id: u32,
    /// Source page (carries the on-air `page_id` receivers fold frames by).
    pub page: Arc<SimplifiedPage>,
    /// The targeted frame subset covering the coalesced ranges.
    pub frames: Arc<Vec<Frame>>,
}

/// Version-independent base of an on-air page id: undoes the version mix
/// applied by `page_id_for`, leaving the pure url hash.
fn base_id(page_id: u32, version: u16) -> u32 {
    page_id ^ ((u32::from(version) << 16) | u32::from(version))
}

/// The subset of a page's frames covering the coalesced ranges: all meta
/// frames when requested, and each damaged column's chunks from its lowest
/// missing seq onward.
fn repair_frames(page: &SimplifiedPage, meta: bool, columns: &BTreeMap<u16, u16>) -> Vec<Frame> {
    page_to_frames(page)
        .into_iter()
        .filter(|f| match f {
            Frame::Meta { .. } => meta,
            Frame::Strip { column, seq, .. } => {
                columns.get(column).is_some_and(|&from| *seq >= from)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonic_image::clickmap::ClickMap;
    use sonic_image::raster::{Raster, Rgb};
    use sonic_sms::geo::GeoPoint;

    fn noisy_page(url: &str, w: usize, h: usize) -> Arc<SimplifiedPage> {
        let mut img = Raster::new(w, h);
        let mut x = 3u32;
        for yy in 0..h {
            for xx in 0..w {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                img.set(xx, yy, Rgb::new((x >> 16) as u8, (x >> 8) as u8, x as u8));
            }
        }
        Arc::new(SimplifiedPage::from_raster(url, &img, ClickMap::default(), 1, 6))
    }

    fn nack(page_id: u32, cols: Vec<(u16, u16)>) -> Nack {
        Nack {
            page_id,
            meta: false,
            columns: cols,
            location: GeoPoint::new(31.5, 74.3),
        }
    }

    #[test]
    fn unknown_page_and_bad_ranges_are_rejected() {
        let mut pl = RepairPlanner::new();
        let p = noisy_page("https://a.pk/", 10, 200);
        assert_eq!(
            pl.accept_nack(0, &nack(p.page_id, vec![(0, 0)]), 0.0),
            Err(NackRejection::UnknownPage)
        );
        pl.register_page(p.clone());
        assert_eq!(
            pl.accept_nack(0, &nack(p.page_id, vec![(10, 0)]), 0.0),
            Err(NackRejection::InvalidRange),
            "column == width is out of range"
        );
        assert!(pl.accept_nack(0, &nack(p.page_id, vec![(9, 1)]), 0.0).is_ok());
        assert_eq!(pl.stats.nacks_rejected, 2);
        assert_eq!(pl.stats.nacks_accepted, 1);
    }

    #[test]
    fn ranges_coalesce_across_clients_to_min_from_seq() {
        let mut pl = RepairPlanner::new();
        let p = noisy_page("https://b.pk/", 8, 300);
        pl.register_page(p.clone());
        pl.accept_nack(0, &nack(p.page_id, vec![(3, 4)]), 0.0).expect("a");
        pl.accept_nack(0, &nack(p.page_id, vec![(3, 1), (5, 0)]), 5.0).expect("b");
        let entry = pl.pending.get(&(0, base_id(p.page_id, p.version))).expect("pending");
        assert_eq!(entry.columns.get(&3), Some(&1), "min from_seq wins");
        assert_eq!(entry.columns.get(&5), Some(&0));
        assert_eq!(entry.clients, 2);
        assert_eq!(pl.pending_repairs(), 1, "one coalesced entry");
    }

    #[test]
    fn repair_burst_contains_exactly_the_requested_subset() {
        let p = noisy_page("https://c.pk/", 6, 400);
        let mut cols = BTreeMap::new();
        cols.insert(2u16, 1u16);
        let frames = repair_frames(&p, true, &cols);
        assert!(!frames.is_empty());
        let full = page_to_frames(&p).len();
        assert!(frames.len() < full, "subset, not the whole page");
        for f in &frames {
            match f {
                Frame::Meta { .. } => {}
                Frame::Strip { column, seq, .. } => {
                    assert_eq!(*column, 2);
                    assert!(*seq >= 1);
                }
            }
        }
        assert!(
            frames.iter().any(|f| matches!(f, Frame::Meta { .. })),
            "meta requested"
        );
    }

    #[test]
    fn scheduling_waits_for_coalesce_window_then_backs_off() {
        let mut pl = RepairPlanner::with_config(RepairConfig {
            coalesce_s: 30.0,
            backoff_base_s: 100.0,
            ..RepairConfig::default()
        });
        let p = noisy_page("https://d.pk/", 6, 300);
        pl.register_page(p.clone());
        let mut scheds = BTreeMap::from([(0u32, BroadcastScheduler::new(80_000.0))]);
        pl.accept_nack(0, &nack(p.page_id, vec![(1, 0)]), 0.0).expect("nack");
        assert_eq!(pl.schedule_due(10.0, &mut scheds), 0, "inside coalesce window");
        assert_eq!(pl.schedule_due(31.0, &mut scheds), 1);
        assert!(scheds.get(&0).expect("site").backlog_bytes() > 0);
        // Drain the scheduler so the page is no longer queued.
        while !scheds.get_mut(&0).expect("site").advance(1.0).is_empty() {}
        // A fresh NACK must wait for the backoff (100 s × 2^0 after burst 1).
        pl.accept_nack(0, &nack(p.page_id, vec![(1, 0)]), 32.0).expect("nack2");
        assert_eq!(pl.schedule_due(80.0, &mut scheds), 0, "inside backoff");
        assert_eq!(pl.schedule_due(132.0, &mut scheds), 1);
    }

    #[test]
    fn retry_budget_exhausts_and_rejects_further_nacks() {
        let mut pl = RepairPlanner::with_config(RepairConfig {
            max_attempts_per_page: 2,
            coalesce_s: 0.0,
            backoff_base_s: 1.0,
            ..RepairConfig::default()
        });
        let p = noisy_page("https://e.pk/", 6, 300);
        pl.register_page(p.clone());
        let mut scheds = BTreeMap::from([(0u32, BroadcastScheduler::new(1e9))]);
        let mut t = 0.0;
        for _ in 0..2 {
            pl.accept_nack(0, &nack(p.page_id, vec![(1, 0)]), t).expect("in budget");
            t += 1.0;
            assert_eq!(pl.schedule_due(t, &mut scheds), 1);
            while !scheds.get_mut(&0).expect("s").advance(1.0).is_empty() {}
            t += 1_000.0;
        }
        assert_eq!(
            pl.accept_nack(0, &nack(p.page_id, vec![(1, 0)]), t),
            Err(NackRejection::BudgetExhausted)
        );
        assert_eq!(pl.stats.bursts_scheduled, 2);
        assert_eq!(pl.stats.budget_exhausted, 1);
    }

    #[test]
    fn queued_page_satisfies_repair_without_spending_budget() {
        let mut pl = RepairPlanner::with_config(RepairConfig {
            coalesce_s: 0.0,
            ..RepairConfig::default()
        });
        let p = noisy_page("https://f.pk/", 6, 300);
        pl.register_page(p.clone());
        let mut scheds = BTreeMap::from([(0u32, BroadcastScheduler::new(8_000.0))]);
        // Full page already queued for broadcast.
        scheds.get_mut(&0).expect("s").enqueue(p.clone(), 0.0);
        pl.accept_nack(0, &nack(p.page_id, vec![(1, 0)]), 0.0).expect("nack");
        assert_eq!(pl.schedule_due(1.0, &mut scheds), 0);
        assert_eq!(pl.pending_repairs(), 0, "queued broadcast serves the need");
        assert_eq!(pl.stats.bursts_scheduled, 0);
    }

    #[test]
    fn new_hour_version_resets_the_retry_budget() {
        let mut pl = RepairPlanner::with_config(RepairConfig {
            max_attempts_per_page: 1,
            coalesce_s: 0.0,
            backoff_base_s: 1.0,
            ..RepairConfig::default()
        });
        let mut img = Raster::new(6, 300);
        let mut x = 9u32;
        for yy in 0..300 {
            for xx in 0..6 {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                img.set(xx, yy, Rgb::new((x >> 16) as u8, (x >> 8) as u8, x as u8));
            }
        }
        let url = "https://hourly.pk/";
        let v1 = Arc::new(SimplifiedPage::from_raster(url, &img, ClickMap::default(), 1, 6));
        let v2 = Arc::new(SimplifiedPage::from_raster(url, &img, ClickMap::default(), 2, 6));
        assert_ne!(v1.page_id, v2.page_id, "version is mixed into the id");
        pl.register_page(v1.clone());
        let mut scheds = BTreeMap::from([(0u32, BroadcastScheduler::new(1e9))]);
        // Exhaust v1's budget of one burst.
        pl.accept_nack(0, &nack(v1.page_id, vec![(1, 0)]), 0.0).expect("v1 in budget");
        assert_eq!(pl.schedule_due(1.0, &mut scheds), 1);
        while !scheds.get_mut(&0).expect("s").advance(1.0).is_empty() {}
        assert_eq!(
            pl.accept_nack(0, &nack(v1.page_id, vec![(1, 0)]), 10.0),
            Err(NackRejection::BudgetExhausted)
        );
        // The next hour's edition of the same url arrives: its budget must
        // be fresh, and the url still holds a single pending entry.
        pl.register_page(v2.clone());
        pl.accept_nack(0, &nack(v2.page_id, vec![(1, 0)]), 20.0).expect("v2 fresh budget");
        assert_eq!(pl.pending_repairs(), 1, "one entry per (site, url) lineage");
        assert_eq!(pl.schedule_due(21.0, &mut scheds), 1, "v2 burst airs");
        assert_eq!(pl.stats.bursts_scheduled, 2);
    }

    #[test]
    fn registry_is_bounded_fifo() {
        let mut pl = RepairPlanner::with_config(RepairConfig {
            max_registry_pages: 3,
            ..RepairConfig::default()
        });
        let pages: Vec<_> = (0..5)
            .map(|i| noisy_page(&format!("https://g{i}.pk/"), 4, 50))
            .collect();
        for p in &pages {
            pl.register_page(p.clone());
        }
        assert_eq!(pl.registered_pages(), 3);
        assert_eq!(
            pl.accept_nack(0, &nack(pages[0].page_id, vec![(0, 0)]), 0.0),
            Err(NackRejection::UnknownPage),
            "oldest page aged out"
        );
        assert!(pl.accept_nack(0, &nack(pages[4].page_id, vec![(0, 0)]), 0.0).is_ok());
    }
}
