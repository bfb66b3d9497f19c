//! The mini-loom suite: exhaustive interleaving checks of the
//! workspace's lock-free protocols, in both directions — the shipped
//! orderings pass across the whole state space, and the weakened
//! variants are caught (evidence the checker sees the bug class).
//!
//! Interleaving counts are asserted as minimums and printed, so the
//! exhaustiveness of each run is visible in test output.

use press_analyze::models;

#[test]
fn membership_shipped_orderings_hold_exhaustively() {
    let out = models::check_membership_shipped();
    println!(
        "membership (shipped orderings): {} interleavings, exhaustive",
        out.executions
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.complete, "state space must be fully explored");
    // 3 threads (2+2+3 steps) plus stale-read branching: well beyond the
    // 210 pure schedules.
    assert!(
        out.executions >= 210,
        "only {} interleavings",
        out.executions
    );
}

#[test]
fn membership_relaxed_orderings_are_caught() {
    let out = models::check_membership_relaxed();
    println!(
        "membership (relaxed orderings): stale-epoch read found after {} interleavings",
        out.executions
    );
    let msg = out
        .violation
        .expect("relaxed orderings must admit a stale-epoch read");
    assert!(msg.contains("stale-epoch"), "unexpected violation: {msg}");
}

#[test]
fn crash_recover_epoch_counts_transitions_exactly() {
    let out = models::check_crash_recover();
    println!(
        "crash/recover race: {} interleavings, exhaustive",
        out.executions
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.complete);
    // Recover-first is a no-op belief change (1 step), so the tree has
    // exactly 4 leaves; all RMWs, so no stale-read branching.
    assert!(out.executions >= 4, "only {} interleavings", out.executions);
}

#[test]
fn credit_repair_clamped_keeps_the_window_invariant() {
    let out = models::check_credit_repair_clamped();
    println!(
        "credit repair (clamped): {} interleavings, exhaustive",
        out.executions
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.complete);
    // 3 threads, 4 one-RMW arrivals: 4!/2! = 12 arrival orders.
    assert!(
        out.executions >= 12,
        "only {} interleavings",
        out.executions
    );
}

#[test]
fn credit_repair_unclamped_overflow_is_caught() {
    let out = models::check_credit_repair_unclamped();
    println!(
        "credit repair (unclamped): overflow found after {} interleavings",
        out.executions
    );
    let msg = out
        .violation
        .expect("pre-audit accounting must overflow the window");
    assert!(
        msg.contains("credit overflow"),
        "unexpected violation: {msg}"
    );
}

#[test]
fn batch_pool_atomic_claim_fills_every_slot_once() {
    let out = models::check_batch_pool_atomic();
    println!(
        "batch pool (fetch_add claim): {} interleavings, exhaustive",
        out.executions
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.complete);
    assert!(
        out.executions >= 20,
        "only {} interleavings",
        out.executions
    );
}

#[test]
fn batch_pool_split_claim_race_is_caught() {
    let out = models::check_batch_pool_split();
    println!(
        "batch pool (split load/store claim): double claim found after {} interleavings",
        out.executions
    );
    let msg = out.violation.expect("split claim must double-claim a slot");
    assert!(msg.contains("written"), "unexpected violation: {msg}");
}

#[test]
fn send_ring_shipped_orderings_hold_exhaustively() {
    let out = models::check_send_ring_shipped();
    println!(
        "send ring (shipped orderings): {} interleavings, exhaustive",
        out.executions
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.complete, "state space must be fully explored");
    // Two threads of up-to-2 messages each, plus stale-read branching on
    // tail/head/slot: more than the pure schedules alone.
    assert!(out.executions >= 6, "only {} interleavings", out.executions);
}

#[test]
fn send_ring_relaxed_publish_is_caught() {
    let out = models::check_send_ring_relaxed_publish();
    println!(
        "send ring (relaxed publish): stale payload found after {} interleavings",
        out.executions
    );
    let msg = out
        .violation
        .expect("a relaxed tail publish must admit a stale payload read");
    assert!(msg.contains("stale payload"), "unexpected violation: {msg}");
}

#[test]
fn send_ring_relaxed_credit_return_is_caught() {
    let out = models::check_send_ring_relaxed_retire();
    println!(
        "send ring (relaxed credit return): premature reuse found after {} interleavings",
        out.executions
    );
    let msg = out
        .violation
        .expect("a relaxed credit return must admit premature slot reuse");
    assert!(msg.contains("overwrite"), "unexpected violation: {msg}");
}

#[test]
fn event_order_shipped_drain_keeps_recovery_order_exhaustively() {
    for recovering in [true, false] {
        let out = models::check_event_order_shipped(recovering);
        println!(
            "event order (take_events, recovering node: {recovering}): {} interleavings, exhaustive",
            out.executions
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.complete, "state space must be fully explored");
        assert!(
            out.executions >= 20,
            "only {} interleavings",
            out.executions
        );
    }
}

#[test]
fn event_order_first_version_drain_is_caught() {
    for (recovering, expect) in [
        (true, "before the Recover"),
        (false, "before its ResetPeer"),
    ] {
        let out = models::check_event_order_first_version(recovering);
        println!(
            "event order (no take_events, recovering node: {recovering}): misorder found after {} interleavings",
            out.executions
        );
        let msg = out
            .violation
            .expect("a decoded message overtaking queued events must be found");
        assert!(msg.contains(expect), "unexpected violation: {msg}");
    }
}
