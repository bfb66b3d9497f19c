//! Fixture: queue growth inside `#[press::hot_path]` scopes.

use std::collections::VecDeque;

#[press::hot_path]
fn unguarded(q: &mut VecDeque<u32>, v: u32) {
    q.push_back(v);
    q.push_front(v);
}

#[press::hot_path]
fn guarded(q: &mut VecDeque<u32>, v: u32, cap: usize) {
    if q.len() < cap {
        q.push_back(v);
    }
}

#[press::hot_path]
fn rotated(q: &mut VecDeque<u32>, v: u32) {
    if q.len() >= 8 {
        q.pop_front();
    }
    q.push_back(v);
}

fn cold(q: &mut VecDeque<u32>, v: u32) {
    q.push_back(v);
}

#[press::hot_path]
fn waived(q: &mut VecDeque<u32>, v: u32) {
    // press::allow(hot-path-transitive): drained unconditionally by the next flush
    q.push_back(v);
}
