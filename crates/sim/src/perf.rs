//! Deterministic hot-path work counters for the simulator engines.
//!
//! Both [`crate::Simulation`] (the optimized engine) and
//! [`crate::ReferenceSimulation`] (the retained pre-optimization engine)
//! maintain a [`SimPerfStats`], so `bench_sim` can compare work — not
//! wall-clock — across machines, and `ci.sh` can gate on exact counter
//! values.

/// Work counters accumulated while the simulation runs. All counts are
/// deterministic functions of the scenario (no timing, no sampling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimPerfStats {
    /// Events popped from the queue and dispatched by `run_until`.
    pub events_dispatched: u64,
    /// Occupancy tests performed by `can_start`'s interference-domain
    /// scan: domain *elements* visited in the reference engine, non-zero
    /// domain-row *words* ANDed in the bitset engine (both early-exit on a
    /// busy hit).
    pub domain_probes: u64,
    /// Steady-state hot-path heap allocations. The counted allocation
    /// classes are fixed (domain `.to_vec()` clones, per-tick scratch
    /// vectors, reorder/ACK result vectors, packet-struct moves through
    /// growth); the optimized engine only counts slab growth here, so the
    /// reference/optimized ratio is the headline "allocations removed"
    /// figure.
    pub hot_allocs: u64,
    /// Packet-slab inserts that reused a freed slot.
    pub slab_hits: u64,
    /// Packet-slab inserts that grew the slab (allocation-class events).
    pub slab_grows: u64,
    /// Bytes the reference engine would have allocated at hot sites the
    /// optimized engine serves from reused storage.
    pub bytes_not_allocated: u64,
    /// Per-event `String` allocations the sharded trace merge avoided by
    /// rendering every canonical sort key into one shared buffer (one
    /// saved allocation per merged trace event).
    pub trace_merge_saved_allocs: u64,
}
