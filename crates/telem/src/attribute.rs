//! Critical-path latency attribution over stitched causal traces.
//!
//! The paper's fig. 3 argument is a *breakdown*: response time decomposed
//! into where it was actually spent. This module walks a request's
//! stitched multi-node trace (see [`TraceEvent::span`]/
//! [`TraceEvent::parent`]) and charges every nanosecond between its
//! `Arrive` and `Done` events to exactly one [`Bucket`]. The charge is
//! conservative by construction: the window is cut at every span
//! boundary into elementary intervals, and each interval is charged
//! once — covered intervals to the highest-priority covering span's
//! bucket, gaps to a bucket inferred from the instants inside them or
//! the next span to start. Per-request bucket sums therefore equal the
//! end-to-end latency exactly, with no double-charged overlap.
//!
//! Everything here is integer nanosecond arithmetic over canonically
//! sorted traces, so the same trace always attributes to the same bytes
//! — the property the `press attribute` CLI's byte-determinism gate
//! checks.

use std::collections::{BTreeMap, HashMap};

use crate::span::{EventKind, Trace, TraceEvent};

/// Where a nanosecond of end-to-end latency went. One bucket per
/// nanosecond; see the module docs for the charging rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// HTTP parse CPU and external-NIC receive.
    Parse = 0,
    /// Admission/dispatch queue wait before parsing starts.
    QueueWait = 1,
    /// Distribution decision and time to reach the wire.
    Dispatch = 2,
    /// Intra-cluster transport: send CPU, NIC occupancy, propagation,
    /// remote polling.
    NetSend = 3,
    /// Stalled waiting for flow-control credits.
    CreditStall = 4,
    /// Service time on a remote cacher (recv CPU + cache service).
    RemoteCache = 5,
    /// Disk occupancy and disk-queue wait.
    Disk = 6,
    /// Reply-side CPU and external-NIC transmit.
    ReplyTx = 7,
    /// Retry/backoff and failover delays.
    Retry = 8,
}

/// Number of buckets (the width of per-request charge vectors).
pub const BUCKET_COUNT: usize = 9;

/// All buckets in display order.
pub const BUCKETS: [Bucket; BUCKET_COUNT] = [
    Bucket::Parse,
    Bucket::QueueWait,
    Bucket::Dispatch,
    Bucket::NetSend,
    Bucket::CreditStall,
    Bucket::RemoteCache,
    Bucket::Disk,
    Bucket::ReplyTx,
    Bucket::Retry,
];

impl Bucket {
    /// Stable lowercase name used in tables and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Parse => "parse",
            Bucket::QueueWait => "queue-wait",
            Bucket::Dispatch => "dispatch",
            Bucket::NetSend => "net-send",
            Bucket::CreditStall => "credit-stall",
            Bucket::RemoteCache => "remote-cache",
            Bucket::Disk => "disk",
            Bucket::ReplyTx => "reply-tx",
            Bucket::Retry => "retry",
        }
    }
}

/// One request's attribution: its end-to-end window and the per-bucket
/// charges, which sum to `total_ns` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Request id.
    pub req: u64,
    /// Node the request arrived on.
    pub origin: u16,
    /// Distinct nodes its trace touched (≥ 2 means it was stitched
    /// across a forward).
    pub nodes: usize,
    /// End-to-end nanoseconds from `Arrive` to `Done`.
    pub total_ns: u64,
    /// Charge per bucket, indexed by `Bucket as usize`.
    pub ns: [u64; BUCKET_COUNT],
}

impl RequestAttribution {
    /// The sum of all bucket charges (equals `total_ns` by
    /// construction; exposed so tests can assert conservation).
    pub fn charged_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Priority of a span kind when several spans cover the same interval:
/// higher wins. Spans that never charge (faults are instants) get none.
fn span_priority(kind: EventKind) -> Option<u32> {
    match kind {
        EventKind::DiskRead => Some(60),
        EventKind::Parse => Some(50),
        EventKind::NicRx => Some(45),
        EventKind::ReplyCpu => Some(40),
        EventKind::ReplyTx => Some(38),
        EventKind::ViaRecv => Some(30),
        EventKind::ViaSend => Some(25),
        EventKind::NicTx => Some(20),
        EventKind::RdmaWrite => Some(18),
        _ => None,
    }
}

/// The bucket a covering span charges to. `remote` is true when the
/// span ran on a node other than the request's origin.
fn span_bucket(kind: EventKind, remote: bool) -> Bucket {
    match kind {
        EventKind::DiskRead => Bucket::Disk,
        EventKind::Parse | EventKind::NicRx => Bucket::Parse,
        EventKind::ReplyCpu | EventKind::ReplyTx => Bucket::ReplyTx,
        // The reply's receive leg on the origin is transport; the
        // forward's receive leg on the cacher is remote service.
        EventKind::ViaRecv if remote => Bucket::RemoteCache,
        _ => Bucket::NetSend,
    }
}

/// The bucket an uncovered gap charges to, given the next span to
/// start (if any) and whether the request was last seen on a node
/// other than its origin when the gap opened.
fn gap_bucket(next: Option<(EventKind, bool)>, last_remote: bool) -> Bucket {
    match next {
        Some((EventKind::Parse | EventKind::NicRx, _)) => Bucket::QueueWait,
        Some((EventKind::DiskRead, _)) => Bucket::Disk,
        // Waiting on a receive means the request is in flight: wire
        // propagation plus the receiver's polling delay.
        Some((EventKind::ViaRecv, _)) => Bucket::NetSend,
        Some((EventKind::ReplyCpu | EventKind::ReplyTx, _)) => Bucket::ReplyTx,
        // Anything else next (a send, typically), and tail gaps: being
        // serviced wherever the request currently sits.
        Some(_) | None => {
            if last_remote {
                Bucket::RemoteCache
            } else {
                Bucket::Dispatch
            }
        }
    }
}

/// Attributes one request's events (its full stitched trace, canonical
/// order). Returns `None` unless the events contain an `Arrive` and a
/// later `Done`.
pub fn attribute_request(req: u64, events: &[TraceEvent]) -> Option<RequestAttribution> {
    let arrive = events.iter().find(|e| e.kind == EventKind::Arrive)?;
    let origin = arrive.node;
    let w0 = arrive.ts_ns;
    let done = events
        .iter()
        .find(|e| e.kind == EventKind::Done && e.ts_ns >= w0)?;
    let w1 = done.ts_ns;
    let mut out = RequestAttribution {
        req,
        origin,
        nodes: {
            let mut nodes: Vec<u16> = events.iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes.len()
        },
        total_ns: w1 - w0,
        ns: [0; BUCKET_COUNT],
    };
    if w1 == w0 {
        return Some(out);
    }

    // Spans clipped to the window, as (start, end, kind, remote, prio).
    let mut spans: Vec<(u64, u64, EventKind, bool, u32)> = Vec::new();
    for e in events {
        if e.dur_ns == 0 {
            continue;
        }
        let Some(prio) = span_priority(e.kind) else {
            continue;
        };
        let s = e.ts_ns.max(w0);
        let t = (e.ts_ns + e.dur_ns).min(w1);
        if s < t {
            spans.push((s, t, e.kind, e.node != origin, prio));
        }
    }

    // Elementary interval boundaries: the window edges plus every
    // clipped span edge.
    let mut bounds: Vec<u64> = vec![w0, w1];
    for &(s, t, ..) in &spans {
        bounds.push(s);
        bounds.push(t);
    }
    bounds.sort_unstable();
    bounds.dedup();

    for pair in bounds.windows(2) {
        let (x, y) = (pair[0], pair[1]);
        // Highest-priority span covering [x, y); kind discriminant
        // breaks priority ties deterministically.
        let cover = spans
            .iter()
            .filter(|&&(s, t, ..)| s <= x && t >= y)
            .max_by_key(|&&(.., kind, _, prio)| (prio, u16::MAX - kind as u16));
        let bucket = if let Some(&(.., kind, remote, _)) = cover {
            span_bucket(kind, remote)
        } else if events.iter().any(|e| {
            e.dur_ns == 0 && e.ts_ns >= x && e.ts_ns < y && matches!(e.kind, EventKind::CreditStall)
        }) {
            Bucket::CreditStall
        } else if events.iter().any(|e| {
            e.dur_ns == 0
                && e.ts_ns >= x
                && e.ts_ns < y
                && matches!(
                    e.kind,
                    EventKind::Retry | EventKind::Failover | EventKind::DiskError
                )
        }) {
            Bucket::Retry
        } else {
            let next = spans
                .iter()
                .filter(|&&(s, ..)| s >= y)
                .min_by_key(|&&(s, t, kind, ..)| (s, t, kind as u16))
                .map(|&(.., kind, remote, _)| (kind, remote));
            // Which node was the request last seen on at time x?
            let last_remote = events
                .iter()
                .rfind(|e| e.ts_ns <= x)
                .map(|e| e.node != origin)
                .unwrap_or(false);
            gap_bucket(next, last_remote)
        };
        out.ns[bucket as usize] += y - x;
    }
    debug_assert_eq!(out.charged_ns(), out.total_ns);
    Some(out)
}

/// Groups a trace's events by request id (zero — not request-bound —
/// excluded), in ascending request order.
pub fn by_request(trace: &Trace) -> BTreeMap<u64, Vec<TraceEvent>> {
    let mut map: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in trace.events() {
        if e.req != 0 {
            map.entry(e.req).or_default().push(*e);
        }
    }
    map
}

/// Attributes every completed request in a trace, in request-id order.
pub fn attribute_trace(trace: &Trace) -> Vec<RequestAttribution> {
    by_request(trace)
        .iter()
        .filter_map(|(&req, events)| attribute_request(req, events))
        .collect()
}

/// Every span of a trace by id, built once: walking many causal chains
/// then costs one map build, not one per walk.
#[derive(Debug)]
pub struct SpanIndex<'a> {
    by_span: HashMap<u32, &'a TraceEvent>,
}

impl<'a> SpanIndex<'a> {
    /// Indexes every event of `trace` that carries a span id.
    pub fn new(trace: &'a Trace) -> Self {
        SpanIndex {
            by_span: trace
                .events()
                .iter()
                .filter(|e| e.span != 0)
                .map(|e| (e.span, e))
                .collect(),
        }
    }

    /// Walks the causal chain from `span` to its root via parent links,
    /// returning the events oldest-first. Dangling parents (links into a
    /// dropped buffer tail) end the walk.
    pub fn chain(&self, span: u32) -> Vec<TraceEvent> {
        let mut chain = Vec::new();
        let mut cur = span;
        while cur != 0 {
            let Some(&e) = self.by_span.get(&cur) else {
                break;
            };
            chain.push(*e);
            if chain.len() > self.by_span.len() {
                break; // cycle guard: corrupt input must not hang
            }
            cur = e.parent;
        }
        chain.reverse();
        chain
    }
}

/// Aggregate of many request attributions: integer mean per bucket plus
/// the p50/p99 requests by end-to-end latency (the critical-path
/// exemplars). All integer math — formatting it is byte-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionSummary {
    /// Requests attributed.
    pub requests: usize,
    /// Requests whose trace touched ≥ 2 nodes.
    pub forwarded: usize,
    /// Mean charge per bucket in nanoseconds (floor division).
    pub mean_ns: [u64; BUCKET_COUNT],
    /// Mean end-to-end nanoseconds (floor division).
    pub mean_total_ns: u64,
    /// The request at the 50th latency percentile.
    pub p50: Option<RequestAttribution>,
    /// The request at the 99th latency percentile.
    pub p99: Option<RequestAttribution>,
}

/// Summarizes a set of request attributions.
pub fn summarize(attrs: &[RequestAttribution]) -> AttributionSummary {
    let n = attrs.len();
    let mut sum = [0u64; BUCKET_COUNT];
    let mut total = 0u64;
    for a in attrs {
        for (acc, v) in sum.iter_mut().zip(a.ns.iter()) {
            *acc += v;
        }
        total += a.total_ns;
    }
    let mut by_total: Vec<&RequestAttribution> = attrs.iter().collect();
    by_total.sort_by_key(|a| (a.total_ns, a.req));
    let pick = |q_num: usize, q_den: usize| -> Option<RequestAttribution> {
        if n == 0 {
            return None;
        }
        let idx = ((n - 1) * q_num) / q_den;
        Some(by_total[idx].clone())
    };
    AttributionSummary {
        requests: n,
        forwarded: attrs.iter().filter(|a| a.nodes >= 2).count(),
        mean_ns: if n == 0 {
            [0; BUCKET_COUNT]
        } else {
            let mut m = [0u64; BUCKET_COUNT];
            for (m, s) in m.iter_mut().zip(sum.iter()) {
                *m = s / n as u64;
            }
            m
        },
        mean_total_ns: if n == 0 { 0 } else { total / n as u64 },
        p50: pick(50, 100),
        p99: pick(99, 100),
    }
}

/// The top-2 buckets of a summary as a compact `"disk 41% / net-send
/// 22%"` string for SLO report cards, or `"n/a"` when nothing was
/// attributed. Percentages are integer shares of the summed means.
pub fn hot_stages(summary: &AttributionSummary) -> String {
    let charged: u64 = summary.mean_ns.iter().sum();
    if summary.requests == 0 || charged == 0 {
        return "n/a".to_string();
    }
    let mut ranked: Vec<(Bucket, u64)> = BUCKETS
        .iter()
        .map(|&b| (b, summary.mean_ns[b as usize]))
        .filter(|&(_, ns)| ns > 0)
        .collect();
    ranked.sort_by_key(|&(b, ns)| (u64::MAX - ns, b as usize));
    ranked
        .iter()
        .take(2)
        .map(|&(b, ns)| format!("{} {}%", b.name(), ns * 100 / charged))
        .collect::<Vec<_>>()
        .join(" / ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::lane;

    fn ev(ts: u64, dur: u64, node: u16, kind: EventKind, req: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            node,
            lane: lane::MAIN,
            kind,
            req,
            a: 0,
            b: 0,
            span: 0,
            parent: 0,
        }
    }

    #[test]
    fn local_request_charges_conserve() {
        let events = vec![
            ev(100, 0, 0, EventKind::Arrive, 1),
            ev(100, 40, 0, EventKind::NicRx, 1),
            ev(160, 50, 0, EventKind::Parse, 1), // 20ns queue-wait gap
            ev(210, 0, 0, EventKind::Dispatch, 1),
            ev(230, 300, 0, EventKind::DiskRead, 1),
            ev(530, 70, 0, EventKind::ReplyCpu, 1),
            ev(600, 100, 0, EventKind::ReplyTx, 1),
            ev(700, 0, 0, EventKind::Done, 1),
        ];
        let a = attribute_request(1, &events).expect("complete request");
        assert_eq!(a.total_ns, 600);
        assert_eq!(a.charged_ns(), a.total_ns, "exact conservation");
        assert_eq!(a.ns[Bucket::Parse as usize], 90); // NicRx 40 + Parse 50
        assert_eq!(a.ns[Bucket::QueueWait as usize], 20);
        assert_eq!(a.ns[Bucket::Disk as usize], 320); // 20ns gap before + 300 span
        assert_eq!(a.ns[Bucket::ReplyTx as usize], 170);
        assert_eq!(a.nodes, 1);
    }

    #[test]
    fn forwarded_request_charges_remote_and_transport() {
        let events = vec![
            ev(0, 0, 0, EventKind::Arrive, 2),
            ev(0, 10, 0, EventKind::Parse, 2),
            ev(10, 30, 0, EventKind::ViaSend, 2),
            ev(60, 20, 1, EventKind::ViaRecv, 2), // remote leg
            ev(80, 0, 1, EventKind::CacheHit, 2),
            ev(90, 30, 1, EventKind::ViaSend, 2),
            ev(130, 20, 0, EventKind::ViaRecv, 2), // reply leg, at origin
            ev(150, 50, 0, EventKind::ReplyTx, 2),
            ev(200, 0, 0, EventKind::Done, 2),
        ];
        let a = attribute_request(2, &events).expect("complete request");
        assert_eq!(a.charged_ns(), 200);
        assert_eq!(a.nodes, 2);
        // Remote recv (20) + remote service gap 80..90 (10).
        assert_eq!(a.ns[Bucket::RemoteCache as usize], 30);
        // Sends 30+30, wire gaps 40..60 and 120..130, origin recv 20.
        assert_eq!(a.ns[Bucket::NetSend as usize], 110);
        assert_eq!(a.ns[Bucket::ReplyTx as usize], 50);
        assert_eq!(a.ns[Bucket::Parse as usize], 10);
    }

    #[test]
    fn stall_and_retry_gaps_charge_their_buckets() {
        let events = vec![
            ev(0, 0, 0, EventKind::Arrive, 3),
            ev(0, 10, 0, EventKind::Parse, 3),
            ev(15, 0, 0, EventKind::CreditStall, 3), // stalled 10..40
            ev(40, 10, 0, EventKind::ViaSend, 3),
            ev(55, 0, 0, EventKind::Retry, 3), // backoff 50..90
            ev(90, 10, 0, EventKind::ViaSend, 3),
            ev(100, 0, 0, EventKind::Done, 3),
        ];
        let a = attribute_request(3, &events).expect("complete request");
        assert_eq!(a.charged_ns(), 100);
        assert_eq!(a.ns[Bucket::CreditStall as usize], 30);
        assert_eq!(a.ns[Bucket::Retry as usize], 40);
        assert_eq!(a.ns[Bucket::NetSend as usize], 20);
    }

    #[test]
    fn overlapping_spans_charge_once_by_priority() {
        let events = vec![
            ev(0, 0, 0, EventKind::Arrive, 4),
            // NicTx underneath a full-width DiskRead: disk wins, once.
            ev(0, 100, 0, EventKind::DiskRead, 4),
            ev(20, 40, 0, EventKind::NicTx, 4),
            ev(100, 0, 0, EventKind::Done, 4),
        ];
        let a = attribute_request(4, &events).expect("complete request");
        assert_eq!(a.charged_ns(), 100);
        assert_eq!(a.ns[Bucket::Disk as usize], 100);
        assert_eq!(a.ns[Bucket::NetSend as usize], 0);
    }

    #[test]
    fn incomplete_requests_are_skipped() {
        let no_done = vec![ev(0, 0, 0, EventKind::Arrive, 5)];
        assert!(attribute_request(5, &no_done).is_none());
        let no_arrive = vec![ev(0, 0, 0, EventKind::Done, 6)];
        assert!(attribute_request(6, &no_arrive).is_none());
    }

    #[test]
    fn chain_walks_parents_across_nodes() {
        let mut e1 = ev(0, 0, 0, EventKind::Arrive, 7);
        e1.span = 1;
        let mut e2 = ev(10, 5, 0, EventKind::ViaSend, 7);
        e2.span = 2;
        e2.parent = 1;
        let mut e3 = ev(20, 5, 1, EventKind::ViaRecv, 7);
        e3.span = 3;
        e3.parent = 2;
        let trace = Trace::from_events(vec![e1, e2, e3], 0);
        let chain = SpanIndex::new(&trace).chain(3);
        let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Arrive, EventKind::ViaSend, EventKind::ViaRecv]
        );
        assert_eq!(chain[0].node, 0);
        assert_eq!(chain[2].node, 1);
    }

    #[test]
    fn summary_and_hot_stages_are_deterministic() {
        let mk = |req: u64, disk: u64, net: u64| {
            let mut ns = [0u64; BUCKET_COUNT];
            ns[Bucket::Disk as usize] = disk;
            ns[Bucket::NetSend as usize] = net;
            RequestAttribution {
                req,
                origin: 0,
                nodes: 2,
                total_ns: disk + net,
                ns,
            }
        };
        let attrs = vec![mk(1, 100, 50), mk(2, 300, 100), mk(3, 200, 100)];
        let s = summarize(&attrs);
        assert_eq!(s.requests, 3);
        assert_eq!(s.forwarded, 3);
        assert_eq!(s.mean_ns[Bucket::Disk as usize], 200);
        assert_eq!(s.mean_total_ns, 283);
        // Totals sorted: 150 (req 1), 300 (req 3), 400 (req 2).
        assert_eq!(s.p50.as_ref().unwrap().req, 3);
        assert_eq!(s.p99.as_ref().unwrap().req, 3, "(n-1)*99/100 floors to 1");
        // Mean net-send floors to 83; shares of 283 floor to 70% / 29%.
        assert_eq!(hot_stages(&s), "disk 70% / net-send 29%");
        assert_eq!(hot_stages(&summarize(&[])), "n/a");
    }
}
