//! Pending-request scheduler.
//!
//! The paper names *scheduling* as one of the aspectual properties that cut
//! across functional components. This module provides the policy engine a
//! scheduling aspect delegates to: a queue of pending activations drained
//! according to a pluggable [`SchedulerPolicy`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Ordering policy for draining pending requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// First come, first served.
    #[default]
    Fifo,
    /// Last come, first served (favors fresh work; starves old).
    Lifo,
    /// Highest priority first; FIFO among equals.
    Priority,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry<T> {
    priority: u32,
    seq: u64,
    item: T,
}

impl<T: Eq> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on priority, FIFO (min seq) among equals.
        self.priority
            .cmp(&other.priority)
            .then_with(|| Reverse(self.seq).cmp(&Reverse(other.seq)))
    }
}

impl<T: Eq> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A queue of pending requests drained according to a [`SchedulerPolicy`].
///
/// Not internally synchronized; wrap it in a mutex, or use it from
/// inside an aspect, which already runs under the moderator's lock.
///
/// ```
/// use amf_concurrency::{Scheduler, SchedulerPolicy};
///
/// let mut s = Scheduler::new(SchedulerPolicy::Priority);
/// s.enqueue_with_priority("low", 1);
/// s.enqueue_with_priority("high", 9);
/// assert_eq!(s.dequeue(), Some("high"));
/// assert_eq!(s.dequeue(), Some("low"));
/// ```
pub struct Scheduler<T> {
    policy: SchedulerPolicy,
    fifo: VecDeque<Entry<T>>,
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy)
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Eq> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new(SchedulerPolicy::default())
    }
}

impl<T> Scheduler<T> {
    /// Creates an empty scheduler with the given policy.
    pub fn new(policy: SchedulerPolicy) -> Self {
        Self {
            policy,
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        match self.policy {
            SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => self.fifo.len(),
            SchedulerPolicy::Priority => self.heap.len(),
        }
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Eq> Scheduler<T> {
    /// Enqueues with default priority zero.
    pub fn enqueue(&mut self, item: T) {
        self.enqueue_with_priority(item, 0);
    }

    /// Enqueues with an explicit priority (only meaningful under
    /// [`SchedulerPolicy::Priority`]; ignored otherwise).
    pub fn enqueue_with_priority(&mut self, item: T, priority: u32) {
        let entry = Entry {
            priority,
            seq: self.next_seq,
            item,
        };
        self.next_seq += 1;
        match self.policy {
            SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => self.fifo.push_back(entry),
            SchedulerPolicy::Priority => self.heap.push(entry),
        }
    }

    /// The request [`Scheduler::dequeue`] would return next, without
    /// removing it.
    pub fn peek(&self) -> Option<&T> {
        match self.policy {
            SchedulerPolicy::Fifo => self.fifo.front().map(|e| &e.item),
            SchedulerPolicy::Lifo => self.fifo.back().map(|e| &e.item),
            SchedulerPolicy::Priority => self.heap.peek().map(|e| &e.item),
        }
    }

    /// Removes the first pending request matching `pred`, regardless of
    /// policy order; returns whether one was found. Used to cancel a
    /// request that gave up (e.g. a timed-out waiter).
    pub fn cancel(&mut self, pred: impl Fn(&T) -> bool) -> bool
    where
        T: Clone,
    {
        match self.policy {
            SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => {
                if let Some(pos) = self.fifo.iter().position(|e| pred(&e.item)) {
                    self.fifo.remove(pos);
                    return true;
                }
                false
            }
            SchedulerPolicy::Priority => {
                let before = self.heap.len();
                let entries: Vec<Entry<T>> = self.heap.drain().collect();
                let mut removed = false;
                for e in entries {
                    if !removed && pred(&e.item) {
                        removed = true;
                    } else {
                        self.heap.push(e);
                    }
                }
                debug_assert!(self.heap.len() + usize::from(removed) == before);
                removed
            }
        }
    }

    /// Removes and returns the next request under the active policy.
    pub fn dequeue(&mut self) -> Option<T> {
        match self.policy {
            SchedulerPolicy::Fifo => self.fifo.pop_front().map(|e| e.item),
            SchedulerPolicy::Lifo => self.fifo.pop_back().map(|e| e.item),
            SchedulerPolicy::Priority => self.heap.pop().map(|e| e.item),
        }
    }

    /// Drains every pending request in policy order.
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(item) = self.dequeue() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut s = Scheduler::new(SchedulerPolicy::Fifo);
        for i in 0..5 {
            s.enqueue(i);
        }
        assert_eq!(s.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lifo_reverses_arrival_order() {
        let mut s = Scheduler::new(SchedulerPolicy::Lifo);
        for i in 0..5 {
            s.enqueue(i);
        }
        assert_eq!(s.drain(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn priority_orders_by_priority_then_fifo() {
        let mut s = Scheduler::new(SchedulerPolicy::Priority);
        s.enqueue_with_priority("a", 1);
        s.enqueue_with_priority("b", 3);
        s.enqueue_with_priority("c", 3);
        s.enqueue_with_priority("d", 2);
        assert_eq!(s.drain(), vec!["b", "c", "d", "a"]);
    }

    #[test]
    fn len_and_is_empty_track() {
        let mut s = Scheduler::new(SchedulerPolicy::Priority);
        assert!(s.is_empty());
        s.enqueue(1);
        s.enqueue(2);
        assert_eq!(s.len(), 2);
        s.dequeue();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn default_policy_is_fifo() {
        let s: Scheduler<u8> = Scheduler::default();
        assert_eq!(s.policy(), SchedulerPolicy::Fifo);
    }

    #[test]
    fn dequeue_on_empty_is_none() {
        let mut s: Scheduler<u8> = Scheduler::new(SchedulerPolicy::Lifo);
        assert_eq!(s.dequeue(), None);
    }
}
