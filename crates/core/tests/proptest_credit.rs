//! Property tests for the credit window both engines use for flow
//! control. Whatever mix of sends, credit returns, channel resets and
//! queue drops a channel sees (including credit returns from before a
//! reset that arrive after it), credits never exceed the window, a
//! message waits only while no credit is left, and every admitted
//! message leaves once, in FIFO order, or is counted as dropped.

use press_core::{CreditReturns, CreditWindow};
use proptest::collection::vec;
use proptest::prelude::*;

/// One step of a channel's history, decoded from a drawn `(kind, arg)`:
/// the sender offers its next message (weight 4), a credit return of
/// `arg` credits arrives, stale or not (weight 3), the peer crashed or
/// rejoined so the window is fresh (weight 1), or the peer was evicted so
/// what waits for it is dropped (weight 1).
#[derive(Debug, Clone, Copy)]
enum Op {
    Admit,
    Grant(u32),
    Refill,
    DropQueued,
}

fn decode(kind: u8, arg: u32) -> Op {
    match kind {
        0..=3 => Op::Admit,
        4..=6 => Op::Grant(arg),
        7 => Op::Refill,
        _ => Op::DropQueued,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_bounds_order_and_conservation(
        window in 1u32..=32,
        steps in vec((0u8..9, 0u32..=36), 0..200),
    ) {
        let mut w = CreditWindow::new(window);
        let mut next = 0u64;
        let mut sent: Vec<u64> = Vec::new();
        let mut dropped = 0usize;
        for &(kind, arg) in &steps {
            match decode(kind, arg) {
                Op::Admit => {
                    sent.extend(w.admit(next));
                    next += 1;
                }
                Op::Grant(n) => sent.extend(w.grant(n)),
                Op::Refill => dropped += w.refill(),
                Op::DropQueued => dropped += w.drop_queued(),
            }
            prop_assert!(w.credits() <= window, "{} credits over a window of {window}", w.credits());
            prop_assert!(
                w.queued_len() == 0 || w.credits() == 0,
                "{} queued behind {} credits",
                w.queued_len(),
                w.credits()
            );
        }
        // FIFO and once: ids were admitted in increasing order.
        prop_assert!(sent.windows(2).all(|p| p[0] < p[1]), "out of order: {sent:?}");
        prop_assert_eq!(sent.len() + dropped + w.queued_len(), next as usize);
    }

    /// The receiver's counter asks for exactly one batch per `batch`
    /// consumed messages, and a reset forgets a partial batch.
    #[test]
    fn returns_are_whole_batches(batch in 1u32..8, steps in vec(proptest::bool::ANY, 0..200)) {
        let mut r = CreditReturns::new(batch);
        let mut since = 0u32;
        for reset in steps {
            if reset {
                r.forget();
                since = 0;
                continue;
            }
            since += 1;
            let due = r.count_consumed();
            if since == batch {
                prop_assert_eq!(due, Some(batch));
                since = 0;
            } else {
                prop_assert_eq!(due, None);
            }
        }
    }
}
