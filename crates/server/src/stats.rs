//! Shared atomic counters for the live cluster.

use press_telem::{AtomicCounter, Registry};

/// Counters accumulated across all node threads.
///
/// All counters are monotone [`AtomicCounter`]s (relaxed ordering) — they
/// are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests answered from the initial node (local cache or disk).
    pub served_local: AtomicCounter,
    /// Requests forwarded to a service node.
    pub forwarded: AtomicCounter,
    /// Disk reads performed (cache misses + replication).
    pub disk_reads: AtomicCounter,
    /// Forward messages sent.
    pub forward_msgs: AtomicCounter,
    /// File-data messages sent.
    pub file_msgs: AtomicCounter,
    /// Caching broadcasts sent.
    pub caching_msgs: AtomicCounter,
    /// Flow-control (credit return) messages sent.
    pub flow_msgs: AtomicCounter,
    /// Remote memory writes of load information.
    pub rdma_load_writes: AtomicCounter,
    /// Remote memory writes of file data (RemoteWrite transfer mode).
    pub rdma_file_writes: AtomicCounter,
    /// Forwarded requests re-sent to another peer after a timeout.
    pub retries: AtomicCounter,
    /// Forwarded requests served locally after retries ran out.
    pub failovers: AtomicCounter,
    /// In-flight requests dropped because their node crashed.
    pub requests_lost: AtomicCounter,
    /// VIA operations that completed with error status (or could not be
    /// posted); recovered by the retry machinery rather than panicking.
    pub via_errors: AtomicCounter,
    /// Arrivals rejected at the admission bound (overload protection).
    pub shed_admission: AtomicCounter,
    /// Arrivals rejected because their deadline could not be met.
    pub shed_deadline: AtomicCounter,
    /// Forwards steered away from a peer whose circuit breaker is open.
    pub breaker_diverts: AtomicCounter,
    /// Cached copies discarded by mid-run file updates.
    pub invalidations: AtomicCounter,
    /// Main-loop passes that found a reply to a forward (a file-data
    /// message or a file-ring entry) only because the 1 ms tick ran out,
    /// with no wake-up raised for it: each is a reply whose completion or
    /// ring write failed to wake the loop.
    pub replies_found_by_tick: AtomicCounter,
    /// Main-loop waits that polled the event channel before parking:
    /// those after a pass that handled an event.
    pub polls: AtomicCounter,
    /// Events a poll caught, each one a futex wake saved.
    pub poll_hits: AtomicCounter,
}

impl ServerStats {
    /// Bumps a counter by one.
    pub(crate) fn bump(counter: &AtomicCounter) {
        counter.bump();
    }

    /// Adds `n` to a counter.
    pub(crate) fn add(counter: &AtomicCounter, n: u64) {
        counter.add(n);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicCounter) -> u64 {
        counter.get()
    }

    /// Total requests completed.
    pub fn completed(&self) -> u64 {
        Self::get(&self.served_local) + Self::get(&self.forwarded)
    }

    /// Publishes every counter into a telemetry [`Registry`] under the
    /// `press_live_*` names, with any caller-supplied labels.
    pub fn fill_registry(&self, reg: &mut Registry, labels: &[(&str, &str)]) {
        let series: [(&str, &AtomicCounter); 20] = [
            ("press_live_served_local", &self.served_local),
            ("press_live_forwarded", &self.forwarded),
            ("press_live_disk_reads", &self.disk_reads),
            ("press_live_forward_msgs", &self.forward_msgs),
            ("press_live_file_msgs", &self.file_msgs),
            ("press_live_caching_msgs", &self.caching_msgs),
            ("press_live_flow_msgs", &self.flow_msgs),
            ("press_live_rdma_load_writes", &self.rdma_load_writes),
            ("press_live_rdma_file_writes", &self.rdma_file_writes),
            ("press_live_retries", &self.retries),
            ("press_live_failovers", &self.failovers),
            ("press_live_requests_lost", &self.requests_lost),
            ("press_live_via_errors", &self.via_errors),
            ("press_live_shed_admission", &self.shed_admission),
            ("press_live_shed_deadline", &self.shed_deadline),
            ("press_live_breaker_diverts", &self.breaker_diverts),
            ("press_live_invalidations", &self.invalidations),
            (
                "press_live_replies_found_by_tick",
                &self.replies_found_by_tick,
            ),
            ("press_live_polls", &self.polls),
            ("press_live_poll_hits", &self.poll_hits),
        ];
        for (name, c) in series {
            reg.inc(name, labels, c.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServerStats::default();
        ServerStats::bump(&s.served_local);
        ServerStats::bump(&s.forwarded);
        ServerStats::bump(&s.forwarded);
        assert_eq!(ServerStats::get(&s.served_local), 1);
        assert_eq!(ServerStats::get(&s.forwarded), 2);
        assert_eq!(s.completed(), 3);
    }

    #[test]
    fn registry_export_carries_labels() {
        let s = ServerStats::default();
        ServerStats::add(&s.file_msgs, 7);
        let mut reg = Registry::default();
        s.fill_registry(&mut reg, &[("engine", "live")]);
        let recs = reg.records();
        assert_eq!(recs.len(), 20);
        let file_msgs = recs
            .iter()
            .find(|r| r.name == "press_live_file_msgs")
            .expect("file msgs series");
        assert_eq!(file_msgs.value, press_telem::MetricValue::Counter(7));
        assert!(file_msgs
            .labels
            .contains(&("engine".to_string(), "live".to_string())));
    }
}
