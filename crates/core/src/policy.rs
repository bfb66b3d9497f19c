//! The locality-conscious request-distribution policy (Section 2.2).

use press_cluster::NodeId;
use press_macros as press;

/// Tunables of the distribution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// A node is overloaded when its open connections exceed this
    /// threshold (`T = 80` in the paper's experiments).
    pub overload_threshold: u32,
    /// Requests for files at least this large are always serviced locally
    /// by the initial node (512 KB in the paper's prototype).
    pub large_file_cutoff: u64,
}

impl PolicyConfig {
    /// The paper's values: `T = 80`, cutoff 512 KB.
    pub fn new() -> Self {
        PolicyConfig {
            overload_threshold: 80,
            large_file_cutoff: 512 * 1024,
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::new()
    }
}

/// What the initial node decides to do with a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Service the request at the initial node (reading from disk and
    /// caching the file if it is not already cached there).
    ServeLocal,
    /// Forward the request to the given service node, which caches the
    /// file (or will read and cache it).
    Forward(NodeId),
}

/// Everything the initial node knows when it makes a decision.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// The node that accepted the request.
    pub initial: NodeId,
    /// Size of the requested file in bytes.
    pub file_bytes: u64,
    /// Whether the initial node caches the file.
    pub cached_locally: bool,
    /// Whether this is the first request ever for the file (no node has
    /// cached it).
    pub first_request: bool,
    /// Bitmask of the nodes believed to cache the file (from
    /// caching-info broadcasts) that the initial node also believes are
    /// live: bit `i` stands for node `i`.
    pub cachers: u128,
    /// The initial node's *view* of every node's load, indexed by node.
    /// With piggy-backing or broadcast dissemination this view can lag
    /// reality; with no dissemination it is all zeros.
    pub loads: &'a [u32],
    /// Whether load information may be used (false for the NLB strategy).
    pub load_balancing: bool,
}

/// Reads a load view the way the policy does: indexed by node, and a
/// node the view does not cover counts as idle.
pub fn view_load(loads: &[u32]) -> impl Fn(u16) -> u32 + '_ {
    move |n| loads.get(n as usize).copied().unwrap_or(0)
}

/// The paper's target rule: the least-loaded node of `mask` that
/// `admits` accepts, ties going to the lowest id. Every forwarding
/// choice in both engines — the first decision, a breaker diversion, a
/// retry's re-route — is made here.
#[press::hot_path]
pub fn least_loaded(
    mask: u128,
    load: impl Fn(u16) -> u32,
    admits: impl Fn(u16) -> bool,
) -> Option<NodeId> {
    let mut best: Option<(u32, u16)> = None;
    let mut rest = mask;
    while rest != 0 {
        let i = rest.trailing_zeros() as u16;
        rest &= rest - 1;
        if !admits(i) {
            continue;
        }
        // Set bits come lowest first, so only a strictly lower load
        // displaces the best so far.
        let l = load(i);
        if best.is_none_or(|(b, _)| l < b) {
            best = Some((l, i));
        }
    }
    best.map(|(_, i)| NodeId(i))
}

/// Decides where a request is serviced, following Section 2.2:
///
/// 1. large files (≥ cutoff) are always serviced locally;
/// 2. the initial node serves the first request for a file, and any file
///    it already caches;
/// 3. otherwise the least-loaded caching node is the candidate, and is
///    chosen unless it is overloaded while either the initial node or the
///    globally least-loaded node is not — in which case the initial node
///    serves (and thereby replicates) the file.
///
/// Under NLB (`load_balancing == false`) step 3 degenerates to "forward to
/// the lowest-numbered caching node", with no overload escape hatch.
///
/// # Example
///
/// ```
/// use press_core::{decide, Decision, PolicyConfig, RequestView};
/// use press_cluster::NodeId;
///
/// let cfg = PolicyConfig::default();
/// let view = RequestView {
///     initial: NodeId(0),
///     file_bytes: 10_000,
///     cached_locally: false,
///     first_request: false,
///     cachers: 0b1100, // nodes 2 and 3
///     loads: &[10, 0, 50, 5],
///     load_balancing: true,
/// };
/// // Node 3 is the least-loaded cacher and not overloaded:
/// assert_eq!(decide(&cfg, &view), Decision::Forward(NodeId(3)));
/// ```
#[press::hot_path]
pub fn decide(cfg: &PolicyConfig, view: &RequestView<'_>) -> Decision {
    if view.file_bytes >= cfg.large_file_cutoff {
        return Decision::ServeLocal;
    }
    if view.first_request || view.cached_locally {
        return Decision::ServeLocal;
    }
    // Candidates are remote cachers; if only the initial node caches it we
    // would have hit `cached_locally`, and if nobody does, `first_request`
    // handling (or a lost broadcast) leaves us serving locally.
    let remote_cachers = view.cachers & !(1 << view.initial.0);
    if !view.load_balancing {
        return lowest(remote_cachers);
    }
    let load = view_load(view.loads);
    let Some(candidate) = least_loaded(remote_cachers, &load, |_| true) else {
        return Decision::ServeLocal;
    };
    let overloaded = |n: NodeId| load(n.0) > cfg.overload_threshold;
    if !overloaded(candidate) {
        return Decision::Forward(candidate);
    }
    // Candidate is overloaded. Forward anyway only if the initial node and
    // the globally least-loaded node are overloaded too; otherwise serve
    // locally, replicating the popular file.
    let everyone = u128::MAX
        .checked_shr(128 - view.loads.len().min(128) as u32)
        .unwrap_or(0);
    let global_min = least_loaded(everyone, &load, |_| true).unwrap_or(view.initial);
    if overloaded(view.initial) && overloaded(global_min) {
        Decision::Forward(candidate)
    } else {
        Decision::ServeLocal
    }
}

/// NLB's rule, load ignored: forward to the lowest-numbered node of
/// `mask`, or serve locally when it is empty.
pub fn lowest(mask: u128) -> Decision {
    least_loaded(mask, |_| 0, |_| true).map_or(Decision::ServeLocal, Decision::Forward)
}

/// The power-of-two-choices variant of [`decide`]: the candidate set is
/// restricted to the probed cachers (`probed` holds each reply as
/// `(node, load)`), whose loads are *fresh* rather than a lagging
/// broadcast view. Steps 1–2 of the policy are assumed to have run
/// already (probes are only issued for requests that would otherwise
/// forward), so this only re-runs step 3 over the sample.
///
/// The overload escape hatch compares the freshest numbers available:
/// the best probed load against the initial node's own (exact) load.
#[press::hot_path]
pub fn decide_probed(
    cfg: &PolicyConfig,
    initial: NodeId,
    own_load: u32,
    probed: &[(u16, u32)],
) -> Decision {
    let load = probed_load(probed);
    let remote = probed_mask(probed) & !(1 << initial.0);
    let Some(node) = least_loaded(remote, &load, |_| true) else {
        return Decision::ServeLocal;
    };
    if load(node.0) <= cfg.overload_threshold || own_load > cfg.overload_threshold {
        Decision::Forward(node)
    } else {
        Decision::ServeLocal
    }
}

/// The nodes that answered a probe, as a bitmask.
pub(crate) fn probed_mask(probed: &[(u16, u32)]) -> u128 {
    probed.iter().fold(0, |m, &(n, _)| m | 1 << n)
}

/// Reads probe replies (one per probed peer) as a load view.
pub(crate) fn probed_load(probed: &[(u16, u32)]) -> impl Fn(u16) -> u32 + '_ {
    move |n| probed.iter().find(|p| p.0 == n).map_or(0, |p| p.1)
}

/// Applies the initial node's circuit breakers to a decision: a
/// `Forward` whose target `admits` refuses goes to the least-loaded
/// admissible cacher other than the initial node and that target, or
/// is served locally when there is none. Returns the decision to act
/// on and whether it was diverted.
#[press::hot_path]
pub fn divert(
    decision: Decision,
    initial: NodeId,
    cachers: u128,
    load: impl Fn(u16) -> u32,
    admits: impl Fn(u16) -> bool,
) -> (Decision, bool) {
    match decision {
        Decision::Forward(t) if !admits(t.0) => {
            let rest = cachers & !(1 << initial.0) & !(1 << t.0);
            let next = least_loaded(rest, load, admits);
            (next.map_or(Decision::ServeLocal, Decision::Forward), true)
        }
        d => (d, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_view(cachers: u128, loads: &[u32]) -> RequestView<'_> {
        RequestView {
            initial: NodeId(0),
            file_bytes: 8_192,
            cached_locally: false,
            first_request: false,
            cachers,
            loads,
            load_balancing: true,
        }
    }

    #[test]
    fn large_files_always_local() {
        let cfg = PolicyConfig::default();
        let mut v = base_view(0b10, &[0, 0]);
        v.file_bytes = 512 * 1024;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn first_request_local() {
        let cfg = PolicyConfig::default();
        let mut v = base_view(0, &[0, 0]);
        v.first_request = true;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn locally_cached_stays_local() {
        let cfg = PolicyConfig::default();
        let mut v = base_view(0b11, &[99, 0]);
        v.cached_locally = true;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn forwards_to_least_loaded_cacher() {
        let cfg = PolicyConfig::default();
        let v = base_view(0b1110, &[0, 40, 10, 20]);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(2)));
    }

    #[test]
    fn overloaded_candidate_replicates_locally() {
        let cfg = PolicyConfig::default();
        // Candidate loaded over T=80, but the initial node is idle: the
        // initial node serves and replicates.
        let v = base_view(0b10, &[0, 81]);
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn forwards_when_everyone_overloaded() {
        let cfg = PolicyConfig::default();
        let v = base_view(0b10, &[90, 95, 85, 88]);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
    }

    #[test]
    fn nlb_ignores_load() {
        let cfg = PolicyConfig::default();
        let mut v = base_view(0b110, &[0, 0, 1000]);
        v.load_balancing = false;
        // Lowest-numbered remote cacher, regardless of load.
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
    }

    #[test]
    fn no_remote_cachers_serves_locally() {
        let cfg = PolicyConfig::default();
        // Only ourselves (stale broadcast).
        let v = base_view(0b1, &[0, 0]);
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn tie_broken_by_node_id() {
        let cfg = PolicyConfig::default();
        let v = base_view(0b1010, &[0, 7, 0, 7]);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
        assert_eq!(
            least_loaded(0b1010, view_load(&[0, 7, 0, 7]), |_| true),
            Some(NodeId(1))
        );
    }

    #[test]
    fn least_loaded_reads_missing_loads_as_idle() {
        // Node 5 lies beyond the load view, so it counts as idle.
        assert_eq!(
            least_loaded(0b10_0010, view_load(&[0, 3]), |_| true),
            Some(NodeId(5))
        );
        assert_eq!(least_loaded(0b10, view_load(&[0, 3]), |_| false), None);
        assert_eq!(least_loaded(0, view_load(&[]), |_| true), None);
    }

    #[test]
    fn refused_target_diverts_to_next_best_admissible_cacher() {
        let loads = [0, 1, 5, 3, 9];
        // Node 1 is the least-loaded cacher, but its breaker is open.
        let admits = |n: u16| n != 1;
        let (d, diverted) = divert(
            Decision::Forward(NodeId(1)),
            NodeId(0),
            0b1_1111,
            view_load(&loads),
            admits,
        );
        assert_eq!((d, diverted), (Decision::Forward(NodeId(3)), true));
        // An admitted target passes through untouched.
        let (d, diverted) = divert(
            Decision::Forward(NodeId(2)),
            NodeId(0),
            0b1_1111,
            view_load(&loads),
            admits,
        );
        assert_eq!((d, diverted), (Decision::Forward(NodeId(2)), false));
        let (d, diverted) = divert(
            Decision::ServeLocal,
            NodeId(0),
            0b1_1111,
            view_load(&loads),
            |_| false,
        );
        assert_eq!((d, diverted), (Decision::ServeLocal, false));
    }

    #[test]
    fn every_cacher_refused_serves_locally() {
        let (d, diverted) = divert(
            Decision::Forward(NodeId(2)),
            NodeId(0),
            0b1110,
            view_load(&[0, 0, 0, 0]),
            |_| false,
        );
        assert_eq!((d, diverted), (Decision::ServeLocal, true));
    }

    #[test]
    fn initial_node_is_never_chosen() {
        // The initial node is the idlest cacher (a stale broadcast says
        // so) and admitted, yet neither the decision nor the diversion
        // picks it.
        let loads = [0, 50, 9];
        let v = base_view(0b111, &loads);
        assert_eq!(
            decide(&PolicyConfig::default(), &v),
            Decision::Forward(NodeId(2))
        );
        let (d, _) = divert(
            Decision::Forward(NodeId(1)),
            NodeId(0),
            0b111,
            view_load(&loads),
            |n| n != 1,
        );
        assert_eq!(d, Decision::Forward(NodeId(2)));
    }

    #[test]
    fn retry_mask_excludes_the_failed_target() {
        // Node 2 is the idlest cacher but just missed its deadline; the
        // engines re-route over `cachers & !initial & !failed`.
        let loads = [0, 4, 1, 4];
        let retry_mask = |cachers: u128| cachers & !(1 << 0) & !(1 << 2);
        assert_eq!(
            least_loaded(retry_mask(0b1111), view_load(&loads), |_| true),
            Some(NodeId(1))
        );
        assert_eq!(
            least_loaded(retry_mask(0b0101), view_load(&loads), |_| true),
            None
        );
    }

    #[test]
    fn probed_picks_least_loaded_fresh_reply() {
        let cfg = PolicyConfig::default();
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 5, &[(3, 12), (1, 7)]),
            Decision::Forward(NodeId(1))
        );
        // Ties break by node id, as in the full policy.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 5, &[(3, 7), (1, 7)]),
            Decision::Forward(NodeId(1))
        );
    }

    #[test]
    fn probed_overload_escape_matches_policy_shape() {
        let cfg = PolicyConfig::default();
        // Probed peer overloaded, we are not: replicate locally.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 10, &[(2, 81)]),
            Decision::ServeLocal
        );
        // Everyone overloaded: forward anyway.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 90, &[(2, 81)]),
            Decision::Forward(NodeId(2))
        );
        // No usable replies (only ourselves): serve locally.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 10, &[(0, 10)]),
            Decision::ServeLocal
        );
    }
}
