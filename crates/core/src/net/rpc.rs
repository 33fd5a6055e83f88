//! Per-site RPC machinery: deadlines, retry budgets, exponential backoff
//! and health-checked failover — the `RepairPlanner` budget idiom applied
//! to the control plane.
//!
//! One [`RpcClient`] manages the coordinator's view of one site. Requests
//! are submitted into a *bounded* queue with class-based shedding (repair
//! bursts dropped before carousel pages — degrading gracefully beats
//! buffering without bound), sent under a bounded in-flight window, and
//! retried with exponential backoff while their per-RPC attempt budget
//! lasts. Consecutive *control-plane* deadline expiries (pings, resumes)
//! trip the site into `Down` — data pushes can tear under congestion
//! without flapping health; while down, only probe pings flow, and the
//! first response of any kind flips the site back `Up` (the coordinator
//! then issues a warm-restart `Resume`).

use super::codec::{frame_bytes, FrameDecoder};
use super::proto::{decode_msg, encode_msg, Msg, Request, Response};
use super::transport::Pipe;
use std::collections::{BTreeMap, VecDeque};

/// Priority class of a queued request — shed order under overload, lowest
/// value first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// NACK repair bursts: retransmissions, cheapest to lose (the next
    /// carousel pass covers them).
    Repair = 0,
    /// The deleted delta carousel's slots. Nothing submits this class; it
    /// stays while the benchmark still reads [`RpcStats::shed_deltas`].
    Delta = 1,
    /// Full pages (carousel pushes, query results).
    Page = 2,
    /// Health probes and resume instructions: never shed.
    Control = 3,
}

/// RPC policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcPolicy {
    /// Seconds an attempt may remain unanswered before it expires.
    pub deadline_s: f64,
    /// Attempts (first try + retries) per RPC before giving up.
    pub max_attempts: u32,
    /// Base of the exponential backoff between attempts: attempt `n`
    /// waits `backoff_base_s · 2^(n-1)` after its expiry.
    pub backoff_base_s: f64,
    /// Most RPCs in flight at once (send window).
    pub max_outstanding: usize,
    /// Most requests waiting in the send queue; beyond it, shedding.
    pub max_queued: usize,
    /// Consecutive control-class expiries that trip the site `Down`.
    pub fail_threshold: u32,
    /// Seconds between probe pings while `Down`.
    pub probe_interval_s: f64,
}

impl Default for RpcPolicy {
    fn default() -> Self {
        RpcPolicy {
            deadline_s: 5.0,
            max_attempts: 3,
            backoff_base_s: 2.0,
            max_outstanding: 8,
            max_queued: 64,
            fail_threshold: 3,
            probe_interval_s: 15.0,
        }
    }
}

/// Client counters (soak assertions and diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Messages written to the wire (first attempts + retries + probes).
    pub sent: u64,
    /// Attempts re-sent after an expiry.
    pub retries: u64,
    /// RPCs completed by a response.
    pub completed: u64,
    /// Attempt expiries (deadline passed unanswered).
    pub expired: u64,
    /// RPCs abandoned with their attempt budget spent.
    pub gave_up: u64,
    /// Repair-class requests shed at the queue.
    pub shed_repairs: u64,
    /// Delta-class requests shed at the queue (always 0: nothing submits
    /// [`JobClass::Delta`]).
    pub shed_deltas: u64,
    /// Page-class requests shed at the queue.
    pub shed_pages: u64,
    /// Probe pings sent while down.
    pub probes: u64,
    /// Up→Down transitions.
    pub downs: u64,
    /// Down→Up transitions.
    pub recoveries: u64,
    /// High-water mark of the send queue.
    pub peak_queued: usize,
    /// High-water mark of in-flight RPCs.
    pub peak_outstanding: usize,
}

/// One request attempt's state.
#[derive(Debug, Clone)]
struct Flight {
    req: Request,
    class: JobClass,
    attempts: u32,
}

/// Health of the remote site as seen through this client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Up,
    Down,
}

/// The coordinator-side endpoint of one coordinator↔site link.
#[derive(Debug)]
pub struct RpcClient {
    /// Policy knobs.
    pub policy: RpcPolicy,
    next_id: u64,
    queue: VecDeque<Flight>,
    /// id → (flight, deadline). Sent, awaiting a response.
    outstanding: BTreeMap<u64, (Flight, f64)>,
    /// id → (flight, retry-at). Expired, waiting out the backoff.
    backoff: BTreeMap<u64, (Flight, f64)>,
    decoder: FrameDecoder,
    health: Health,
    consecutive_failures: u32,
    next_probe_s: f64,
    /// Set by a Down→Up transition; taken by the coordinator to trigger
    /// the warm-restart `Resume` exactly once per recovery.
    recovered_flag: bool,
    /// Last time the response decoder made progress (or sat empty) —
    /// the stall watchdog's reference point.
    last_rx_progress_s: f64,
    /// Counters.
    pub stats: RpcStats,
}

impl RpcClient {
    /// A client under `policy`, starting healthy.
    pub fn new(policy: RpcPolicy) -> Self {
        RpcClient {
            policy,
            next_id: 0,
            queue: VecDeque::new(),
            outstanding: BTreeMap::new(),
            backoff: BTreeMap::new(),
            decoder: FrameDecoder::new(),
            health: Health::Up,
            consecutive_failures: 0,
            next_probe_s: 0.0,
            recovered_flag: false,
            last_rx_progress_s: 0.0,
            stats: RpcStats::default(),
        }
    }

    /// Whether the site currently counts as healthy.
    pub fn is_up(&self) -> bool {
        self.health == Health::Up
    }

    /// Takes the "just recovered" edge (true at most once per Down→Up).
    pub fn take_recovered(&mut self) -> bool {
        std::mem::take(&mut self.recovered_flag)
    }

    /// Requests waiting to be sent.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// RPCs in flight (sent or backing off).
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.backoff.len()
    }

    /// Whether any queued, sent or backing-off request matches `pred` —
    /// the coalescing check: a duplicate of work already pending adds
    /// queue pressure without adding information.
    pub fn has_pending(&self, pred: impl Fn(&Request) -> bool) -> bool {
        self.queue.iter().any(|f| pred(&f.req))
            || self.outstanding.values().any(|(f, _)| pred(&f.req))
            || self.backoff.values().any(|(f, _)| pred(&f.req))
    }

    fn note_shed(&mut self, class: JobClass) {
        match class {
            JobClass::Repair => self.stats.shed_repairs += 1,
            JobClass::Delta => self.stats.shed_deltas += 1,
            JobClass::Page => self.stats.shed_pages += 1,
            JobClass::Control => {}
        }
    }

    /// Submits a request. Under queue pressure the *lowest* class present
    /// is shed first: an incoming page push evicts a queued repair burst,
    /// while an incoming repair is dropped outright when nothing cheaper
    /// waits. Returns whether the request was accepted.
    pub fn submit(&mut self, class: JobClass, req: Request) -> bool {
        self.stats.submitted += 1;
        if self.queue.len() >= self.policy.max_queued.max(1) {
            let victim = self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(i, fl)| (fl.class, *i))
                .map(|(i, fl)| (i, fl.class));
            match victim {
                Some((i, vclass)) if vclass < class => {
                    self.queue.remove(i);
                    self.note_shed(vclass);
                }
                _ => {
                    self.note_shed(class);
                    return false;
                }
            }
        }
        self.queue.push_back(Flight {
            req,
            class,
            attempts: 0,
        });
        self.stats.peak_queued = self.stats.peak_queued.max(self.queue.len());
        true
    }

    fn send_flight(&mut self, mut flight: Flight, now_s: f64, tx: &mut Pipe) {
        flight.attempts += 1;
        if flight.attempts > 1 {
            self.stats.retries += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut payload = Vec::new();
        encode_msg(
            &Msg::Req {
                id,
                req: flight.req.clone(),
            },
            &mut payload,
        );
        let wrote = tx.send(&frame_bytes(&payload), now_s);
        self.stats.sent += 1;
        if wrote {
            let deadline = now_s + self.policy.deadline_s;
            self.outstanding.insert(id, (flight, deadline));
            self.stats.peak_outstanding = self.stats.peak_outstanding.max(self.outstanding.len());
        } else {
            // Refused write (severed link): an immediate failed attempt.
            self.note_attempt_failure(id, flight, now_s);
        }
    }

    fn note_attempt_failure(&mut self, id: u64, flight: Flight, now_s: f64) {
        self.stats.expired += 1;
        // Only control-plane expiries advance the failure count: pings and
        // resumes are single-chunk messages that survive anything short of
        // a dead peer, while a torn multi-kilobyte page push is congestion
        // or link damage — flipping health on data tears makes the whole
        // fleet flap under load.
        if flight.class == JobClass::Control {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.policy.fail_threshold
                && self.health == Health::Up
            {
                self.health = Health::Down;
                self.stats.downs += 1;
                self.next_probe_s = now_s + self.policy.probe_interval_s;
            }
        }
        if flight.attempts >= self.policy.max_attempts {
            self.stats.gave_up += 1;
            return;
        }
        let shift = (flight.attempts.saturating_sub(1)).min(16);
        let retry_at = now_s + self.policy.backoff_base_s * f64::from(1u32 << shift);
        self.backoff.insert(id, (flight, retry_at));
    }

    fn note_response(&mut self, now_s: f64) {
        self.consecutive_failures = 0;
        if self.health == Health::Down {
            self.health = Health::Up;
            self.stats.recoveries += 1;
            self.recovered_flag = true;
        }
        let _ = now_s;
    }

    /// One scheduling round at `now_s`: reads responses from `rx`,
    /// expires overdue attempts, resends backed-off flights, fills the
    /// send window from the queue (probes only while `Down`), and returns
    /// every RPC completed this round as `(request, response)`.
    pub fn tick(&mut self, now_s: f64, tx: &mut Pipe, rx: &mut Pipe) -> Vec<(Request, Response)> {
        // 1. Responses.
        let mut bytes = Vec::new();
        rx.recv_into(now_s, &mut bytes);
        let frames_before = self.decoder.stats.frames;
        self.decoder.feed(&bytes);
        let mut completed = Vec::new();
        while let Some(frame) = self.decoder.next_frame() {
            let Some(Msg::Resp { id, resp }) = decode_msg(&frame) else {
                continue; // requests or damage: not ours to handle
            };
            let Some((flight, _)) = self.outstanding.remove(&id) else {
                continue; // late reply to an expired attempt
            };
            self.stats.completed += 1;
            self.note_response(now_s);
            completed.push((flight.req, resp));
        }
        // Stall watchdog: bytes buffered but nothing decoded for a full
        // deadline means the decoder is waiting on a torn frame's tail —
        // abandon it and re-scan rather than livelock.
        if self.decoder.buffered() == 0 || self.decoder.stats.frames > frames_before {
            self.last_rx_progress_s = now_s;
        } else if now_s - self.last_rx_progress_s > self.policy.deadline_s {
            self.decoder.force_resync();
            self.last_rx_progress_s = now_s;
        }

        // 2. Deadline expiries.
        let overdue: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, (_, dl))| now_s >= *dl)
            .map(|(&id, _)| id)
            .collect();
        for id in overdue {
            if let Some((flight, _)) = self.outstanding.remove(&id) {
                self.note_attempt_failure(id, flight, now_s);
            }
        }

        // 3. Backed-off flights whose wait elapsed re-enter the window.
        let due: Vec<u64> = self
            .backoff
            .iter()
            .filter(|(_, (_, at))| now_s >= *at)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            if self.outstanding.len() >= self.policy.max_outstanding {
                break;
            }
            if self.health == Health::Down {
                break; // hold retries while down; probes drive recovery
            }
            if let Some((flight, _)) = self.backoff.remove(&id) {
                self.send_flight(flight, now_s, tx);
            }
        }

        // 4. Fresh sends (or probes while down).
        if self.health == Health::Up {
            while self.outstanding.len() < self.policy.max_outstanding {
                let Some(flight) = self.queue.pop_front() else {
                    break;
                };
                self.send_flight(flight, now_s, tx);
            }
        } else if now_s >= self.next_probe_s {
            self.next_probe_s = now_s + self.policy.probe_interval_s;
            self.stats.probes += 1;
            self.send_flight(
                Flight {
                    req: Request::Ping,
                    class: JobClass::Control,
                    attempts: 0,
                },
                now_s,
                tx,
            );
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::transport::{LinkFaultPlan, SimLink};

    /// A minimal site-side responder: acks every decoded request.
    fn pump_site(link: &mut SimLink, dec: &mut FrameDecoder, now_s: f64, answer: bool) -> usize {
        let mut bytes = Vec::new();
        link.a_to_b.recv_into(now_s, &mut bytes);
        dec.feed(&bytes);
        let mut n = 0;
        while let Some(frame) = dec.next_frame() {
            let Some(Msg::Req { id, .. }) = decode_msg(&frame) else {
                continue;
            };
            n += 1;
            if answer {
                let mut payload = Vec::new();
                encode_msg(
                    &Msg::Resp {
                        id,
                        resp: Response::Done { eta_ms: 1000 },
                    },
                    &mut payload,
                );
                link.b_to_a.send(&frame_bytes(&payload), now_s);
            }
        }
        n
    }

    #[test]
    fn request_completes_over_clean_link() {
        let mut link = SimLink::symmetric(LinkFaultPlan::clean(5));
        let mut client = RpcClient::new(RpcPolicy::default());
        let mut site = FrameDecoder::new();
        assert!(client.submit(JobClass::Page, Request::Ping));
        let mut done = Vec::new();
        for t in 0..10 {
            let now = t as f64 * 0.1;
            done.extend(client.tick(now, &mut link.a_to_b, &mut link.b_to_a));
            pump_site(&mut link, &mut site, now, true);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(client.stats.completed, 1);
        assert!(client.is_up());
    }

    #[test]
    fn silence_expires_retries_then_gives_up_and_marks_down() {
        let policy = RpcPolicy {
            deadline_s: 1.0,
            max_attempts: 3,
            backoff_base_s: 1.0,
            fail_threshold: 3,
            ..RpcPolicy::default()
        };
        let mut link = SimLink::symmetric(LinkFaultPlan::clean(6));
        let mut client = RpcClient::new(policy);
        let mut site = FrameDecoder::new();
        client.submit(JobClass::Control, Request::Ping);
        for t in 0..300 {
            let now = t as f64 * 0.1;
            client.tick(now, &mut link.a_to_b, &mut link.b_to_a);
            pump_site(&mut link, &mut site, now, false); // site reads, never answers
        }
        assert_eq!(client.stats.gave_up, 1);
        assert_eq!(client.stats.retries, 2, "3 attempts = 2 retries");
        assert!(!client.is_up(), "threshold expiries trip Down");
        assert!(client.stats.probes > 0, "down sites get probed");
    }

    #[test]
    fn recovery_flips_up_and_sets_edge_flag() {
        let policy = RpcPolicy {
            deadline_s: 0.5,
            max_attempts: 1,
            fail_threshold: 1,
            probe_interval_s: 1.0,
            ..RpcPolicy::default()
        };
        let mut link = SimLink::symmetric(LinkFaultPlan::clean(8));
        let mut client = RpcClient::new(policy);
        let mut site = FrameDecoder::new();
        client.submit(JobClass::Control, Request::Ping);
        // Phase 1: silence until Down.
        for t in 0..40 {
            let now = t as f64 * 0.1;
            client.tick(now, &mut link.a_to_b, &mut link.b_to_a);
            pump_site(&mut link, &mut site, now, false);
        }
        assert!(!client.is_up());
        assert!(!client.take_recovered());
        // Phase 2: the site answers probes again.
        for t in 40..80 {
            let now = t as f64 * 0.1;
            client.tick(now, &mut link.a_to_b, &mut link.b_to_a);
            pump_site(&mut link, &mut site, now, true);
        }
        assert!(client.is_up());
        assert!(client.take_recovered(), "edge observed once");
        assert!(!client.take_recovered(), "…exactly once");
        assert_eq!(client.stats.recoveries, 1);
    }

    #[test]
    fn queue_sheds_repairs_before_pages() {
        let policy = RpcPolicy {
            max_queued: 2,
            ..RpcPolicy::default()
        };
        let mut client = RpcClient::new(policy);
        assert!(client.submit(JobClass::Repair, Request::Ping));
        assert!(client.submit(JobClass::Page, Request::Ping));
        // Queue full. A page push evicts the queued repair…
        assert!(client.submit(JobClass::Page, Request::Ping));
        assert_eq!(client.stats.shed_repairs, 1);
        // …but an incoming repair is refused when nothing cheaper waits.
        assert!(!client.submit(JobClass::Repair, Request::Ping));
        assert_eq!(client.stats.shed_repairs, 2);
        assert_eq!(client.queued(), 2, "bounded");
    }

    #[test]
    fn outstanding_window_is_bounded() {
        let policy = RpcPolicy {
            max_outstanding: 4,
            max_queued: 64,
            ..RpcPolicy::default()
        };
        let mut link = SimLink::symmetric(LinkFaultPlan::clean(9));
        let mut client = RpcClient::new(policy);
        for _ in 0..30 {
            client.submit(JobClass::Page, Request::Ping);
        }
        client.tick(0.0, &mut link.a_to_b, &mut link.b_to_a);
        assert_eq!(client.outstanding.len(), 4);
        assert_eq!(client.stats.peak_outstanding, 4);
        assert_eq!(client.queued(), 26);
    }
}
