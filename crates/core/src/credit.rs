//! Credit-based flow control, shared by the simulator and the live node.
//!
//! PRESS runs its own flow control over VIA (the paper's fifth message
//! type, Table 2): a sender keeps at most `window` unconsumed
//! credit-bearing messages in flight toward one peer, and the receiver
//! returns credits in batches as it consumes them (DESIGN.md § 5.1:
//! window 32, batches of 4). [`CreditWindow`] is the sender's side of one
//! channel, [`CreditReturns`] the receiver's count of credits it owes.
//!
//! Credits never exceed the window. A credit return for traffic sent
//! before a crash or a rejoin can arrive after the channel was reset to
//! a fresh window; clamping keeps it from opening the window past the
//! peer's receive slots.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

/// The sender side of one channel: credits clamped to the window, and the
/// messages waiting in FIFO order behind a shut window.
///
/// A non-empty queue implies zero credits: a message waits only while no
/// credit covers it, and a grant releases every message it covers.
#[derive(Debug, Clone)]
pub struct CreditWindow<M> {
    window: u32,
    credits: u32,
    queued: VecDeque<M>,
}

impl<M> CreditWindow<M> {
    /// A fresh channel with all `window` credits.
    pub fn new(window: u32) -> Self {
        CreditWindow {
            window,
            credits: window,
            queued: VecDeque::new(),
        }
    }

    /// Spends a credit on `msg` and hands it back to send now, or queues
    /// it behind the shut window and returns `None`.
    pub fn admit(&mut self, msg: M) -> Option<M> {
        if self.credits == 0 {
            self.queued.push_back(msg);
            return None;
        }
        self.credits -= 1;
        Some(msg)
    }

    /// Applies `n` returned credits, clamped to the window, and yields the
    /// queued messages they release, oldest first. Every released message
    /// is already paid for; dropping the iterator early drops the rest.
    pub fn grant(&mut self, n: u32) -> Drain<'_, M> {
        self.credits = self.credits.saturating_add(n).min(self.window);
        let released = self.queued.len().min(self.credits as usize);
        self.credits -= released as u32;
        self.queued.drain(..released)
    }

    /// Restores a full window (a fresh connection after a crash or a
    /// rejoin) and drops everything queued. Returns how many messages were
    /// dropped: they never spent a credit, so dropping them is loss, not
    /// leak.
    pub fn refill(&mut self) -> usize {
        self.credits = self.window;
        self.drop_queued()
    }

    /// Drops every queued message and returns how many there were.
    pub fn drop_queued(&mut self) -> usize {
        let dropped = self.queued.len();
        self.queued.clear();
        dropped
    }

    /// Messages waiting for credits.
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// Credits the sender may still spend.
    pub fn credits(&self) -> u32 {
        self.credits
    }
}

/// The receiver side of one channel: counts consumed credit-bearing
/// messages and says when a batch of credits is due back to the sender.
#[derive(Debug, Clone, Copy)]
pub struct CreditReturns {
    batch: u32,
    consumed: u32,
}

impl CreditReturns {
    /// Returns credits in batches of `batch`.
    pub fn new(batch: u32) -> Self {
        CreditReturns { batch, consumed: 0 }
    }

    /// Counts one consumed message. Returns the credits to send back once
    /// a whole batch has been consumed, and starts the next batch.
    pub fn count_consumed(&mut self) -> Option<u32> {
        self.consumed += 1;
        if self.consumed < self.batch {
            return None;
        }
        self.consumed = 0;
        Some(self.batch)
    }

    /// Forgets a partial batch: the channel was reset, so the sender's
    /// fresh window already covers those messages.
    pub fn forget(&mut self) {
        self.consumed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stale_batch_after_a_reset_leaves_a_full_window() {
        let mut w = CreditWindow::new(32);
        for i in 0..32 {
            assert_eq!(w.admit(i), Some(i));
        }
        // The peer crashed with the window spent; the channel is reset
        // before a batch it returned earlier arrives.
        assert_eq!(w.refill(), 0);
        assert_eq!(w.grant(4).count(), 0);
        assert_eq!(w.credits(), 32);
    }
}
