//! The event queue: a `(time, insertion order)` binary heap shared by both
//! engines.
//!
//! Events pop in ascending `(time, insertion order)` — equal-time events
//! are FIFO. Push and pop are `O(log n)` in the number of pending events;
//! the heap's backing `Vec` is reused, so the queue stops allocating once
//! it has grown to the run's peak backlog.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use empower_model::{LinkId, NodeId};

/// Simulator events. Hot variants are kept small (`u32` indices, `f32`
/// price — lossless, the wire header stores `f32`) so a [`Scheduled`]
/// entry stays within one cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A frame finishes transmitting on `link`.
    TxEnd { link: LinkId },
    /// The application of flow `flow` offers its next packet.
    Emit { flow: u32 },
    /// The 100 ms control slot boundary: demand measurement, price
    /// broadcasts, dual updates, ACKs, controller steps, stats sampling.
    ControlTick,
    /// Failure injection / capacity change.
    LinkChange { link: LinkId, capacity_mbps: f64 },
    /// Node crash (`up = false`) or recovery (`up = true`): every link
    /// adjacent to `node` goes down with it and comes back at the capacity
    /// it had when the node crashed.
    NodeChange { node: NodeId, up: bool },
    /// Delay-equalization release of a held packet into the reorder buffer.
    Release { flow: u32, route: u16, seq: u32, price: f32, created_at: f64 },
    /// A TCP acknowledgement arrives back at the sender of `flow`.
    TcpAckArrival { flow: u32, ack_seq: u32, dup: bool },
    /// TCP retransmission-timeout check for `flow`.
    TcpRtoCheck { flow: u32 },
    /// Start generating traffic for `flow`.
    FlowStart { flow: u32 },
    /// Stop generating traffic for `flow`.
    FlowStop { flow: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: f64,
    /// Insertion counter: deterministic FIFO tie-break at equal times.
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.total_cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event queue with deterministic FIFO tie-breaking: a
/// binary heap over `(time, insertion counter)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    counter: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at` (seconds).
    pub fn push(&mut self, at: f64, event: Event) {
        debug_assert!(at.is_finite() && at >= 0.0, "bad event time {at}");
        self.heap.push(Scheduled { at, seq: self.counter, event });
        self.counter += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::ControlTick);
        q.push(1.0, Event::Emit { flow: 0 });
        q.push(3.0, Event::ControlTick);
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Emit { flow: 0 });
        q.push(1.0, Event::Emit { flow: 1 });
        q.push(1.0, Event::Emit { flow: 2 });
        for expect in 0..3 {
            match q.pop().unwrap().1 {
                Event::Emit { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::ControlTick);
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(10.0, Event::Emit { flow: 10 });
        q.push(0.05, Event::Emit { flow: 0 });
        q.push(3.0, Event::Emit { flow: 3 });
        q.push(300.0, Event::Emit { flow: 300 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(at, _)| at)).collect();
        assert_eq!(order, vec![0.05, 3.0, 10.0, 300.0]);
    }

    /// Regression: a far-future entry must not pop before a later push
    /// that precedes it in time, made after an earlier pop.
    #[test]
    fn overflow_window_extension_keeps_order() {
        let mut q = EventQueue::new();
        q.push(50.0, Event::Emit { flow: 50 });
        q.push(0.01, Event::Emit { flow: 0 });
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 0 }))));
        // Push between now and the far-future entry.
        q.push(49.9, Event::Emit { flow: 49 });
        q.push(0.02, Event::Emit { flow: 1 });
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Emit { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(flows, vec![1, 49, 50]);
    }

    /// A push earlier than the last peeked time still pops before
    /// everything later.
    #[test]
    fn late_push_at_current_time_pops_first() {
        let mut q = EventQueue::new();
        q.push(0.2, Event::Emit { flow: 2 });
        assert_eq!(q.peek_time(), Some(0.2));
        q.push(0.11, Event::Emit { flow: 1 });
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 1 }))));
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 2 }))));
    }

    /// Saturating far-future times (1e18 s and beyond) pop in exact
    /// `(time, insertion)` order like any other event.
    #[test]
    fn saturating_far_future_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(1.0e18, Event::Emit { flow: 2 });
        q.push(0.01, Event::Emit { flow: 0 });
        q.push(9.0e18, Event::Emit { flow: 3 });
        q.push(5.0, Event::Emit { flow: 1 });
        q.push(1.0e18, Event::Emit { flow: 4 }); // equal-time tie
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Emit { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2, 4, 3]);
    }

    /// The independent ordering oracle: every pending entry in a flat
    /// `Vec`, the expected pop found by a linear scan for the minimum by
    /// `(at.total_cmp, seq)` — no heap, no shared ordering code.
    #[derive(Default)]
    struct PendingVec {
        pending: Vec<(f64, u64, Event)>,
        counter: u64,
    }

    impl PendingVec {
        fn push(&mut self, at: f64, event: Event) {
            self.pending.push((at, self.counter, event));
            self.counter += 1;
        }

        fn min_index(&self) -> Option<usize> {
            (0..self.pending.len()).min_by(|&a, &b| {
                let (pa, pb) = (&self.pending[a], &self.pending[b]);
                pa.0.total_cmp(&pb.0).then_with(|| pa.1.cmp(&pb.1))
            })
        }

        fn pop(&mut self) -> Option<(f64, Event)> {
            let (at, _, event) = self.pending.swap_remove(self.min_index()?);
            Some((at, event))
        }

        fn peek_time(&self) -> Option<f64> {
            self.min_index().map(|i| self.pending[i].0)
        }
    }

    /// Pops one event from both the queue and the oracle and asserts they
    /// agree on time bits, event and emptiness; returns the popped time.
    fn pop_both(q: &mut EventQueue, oracle: &mut PendingVec, seed: u64) -> Option<f64> {
        match (q.pop(), oracle.pop()) {
            (Some((qa, qe)), Some((oa, oe))) => {
                assert_eq!(qa.to_bits(), oa.to_bits(), "seed {seed}: time mismatch");
                assert_eq!(qe, oe, "seed {seed}: event mismatch at t={qa}");
                Some(qa)
            }
            (None, None) => None,
            (q, o) => panic!("seed {seed}: emptiness mismatch {q:?} vs {o:?}"),
        }
    }

    /// Far-future property test: schedules reach hundreds of seconds out,
    /// repeat far-future collision times so equal-time ties pile up,
    /// push at the current instant after later events were peeked,
    /// interleave peeks, and use saturating 1e17-scale times; the queue
    /// must pop the oracle's exact `(time, FIFO)` sequence throughout.
    #[test]
    fn far_future_schedules_match_pending_vec() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0x0F10_0000 + seed);
            let mut q = EventQueue::new();
            let mut oracle = PendingVec::default();
            let mut now = 0.0f64;
            let mut next_id = 0u32;
            // Shared far-future collision instants, reached by pushes made
            // at very different current times.
            let marks: [f64; 6] = [97.3, 194.6, 291.9, 389.2, 486.5, 583.8];
            for step in 0..600 {
                let burst = 1 + (rng.next_u64() % 3) as usize;
                for _ in 0..burst {
                    let at = match rng.next_u64() % 12 {
                        // Equal-time burst at the current instant.
                        0 => now,
                        // Far-future equal-time ties.
                        1 | 2 => marks[(rng.next_u64() % 6) as usize],
                        // Half a second to 40 s out.
                        3 => now + 0.41 + (rng.next_u64() % 100) as f64 * 0.4,
                        // Up to 600 s out.
                        4 => now + (rng.next_u64() % 60_000) as f64 * 0.01,
                        // Saturating far future.
                        5 => 4.0e17 + (rng.next_u64() % 3) as f64 * 1.0e17,
                        // Frame/ACK-scale delays.
                        _ => now + (rng.next_u64() % 4000) as f64 * 1e-4,
                    };
                    let at = at.max(now);
                    q.push(at, Event::Emit { flow: next_id });
                    oracle.push(at, Event::Emit { flow: next_id });
                    next_id += 1;
                }
                if step % 5 == 0 {
                    assert_eq!(q.peek_time(), oracle.peek_time(), "seed {seed} peek");
                }
                for _ in 0..rng.next_u64() % 3 {
                    if let Some(at) = pop_both(&mut q, &mut oracle, seed) {
                        now = at;
                    }
                }
            }
            while pop_both(&mut q, &mut oracle, seed).is_some() {}
        }
    }

    /// Random-schedule property test: the queue and the oracle pop
    /// identical `(time, event)` sequences over seeded schedules with
    /// equal-time bursts, short delays and far-future events, under
    /// interleaved push/pop. Events are pairwise distinct so any
    /// tie-break divergence is observable.
    #[test]
    fn queue_matches_pending_vec_on_random_schedules() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xEC0_0000 + seed);
            let mut q = EventQueue::new();
            let mut oracle = PendingVec::default();
            let mut now = 0.0f64;
            let mut next_id = 0u32;
            for _ in 0..400 {
                let burst = 1 + (rng.next_u64() % 4) as usize;
                for _ in 0..burst {
                    let at = match rng.next_u64() % 10 {
                        // Equal-time burst at the current instant.
                        0 | 1 => now,
                        // Far future: half a second to 10 s out.
                        2 => now + 0.5 + (rng.next_u64() % 1000) as f64 * 0.01,
                        // Frame/ACK-scale delays.
                        _ => now + (rng.next_u64() % 4000) as f64 * 1e-4,
                    };
                    q.push(at, Event::Emit { flow: next_id });
                    oracle.push(at, Event::Emit { flow: next_id });
                    next_id += 1;
                }
                for _ in 0..rng.next_u64() % 3 {
                    if let Some(at) = pop_both(&mut q, &mut oracle, seed) {
                        now = at;
                    }
                }
            }
            while pop_both(&mut q, &mut oracle, seed).is_some() {}
        }
    }
}
