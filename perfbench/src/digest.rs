//! Model digest: FNV-1a over every simulated statistic a run reads.
//!
//! Each op's statistics — per-core [`Counts`], per-tag counts,
//! [`MemCtrlStats`], [`DropStats`] and latency summaries — are written as
//! little-endian words into a buffer and hashed with `pp_net`'s FNV-1a;
//! the run's digest is FNV-1a over the sequence of op digests. A change
//! that speeds up only the host must leave every digest unchanged.

use pp_core::experiment::LatencySummary;
use pp_net::fivetuple::fnv1a;
use pp_sim::counters::Counts;
use pp_sim::fault::DropStats;
use pp_sim::memctrl::MemCtrlStats;

/// An op-by-op digest of simulated statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    op: Vec<u8>,
    ops: Vec<u8>,
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one word into the current op.
    pub fn word(&mut self, w: u64) {
        self.op.extend_from_slice(&w.to_le_bytes());
    }

    /// Feed a string (tag names, flow labels).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.op.extend_from_slice(s.as_bytes());
    }

    /// Feed every field of a [`Counts`].
    pub fn counts(&mut self, c: &Counts) {
        for w in [
            c.instructions,
            c.compute_cycles,
            c.stall_cycles,
            c.l1_refs,
            c.l1_hits,
            c.l2_refs,
            c.l2_hits,
            c.l3_refs,
            c.l3_hits,
            c.l3_misses,
            c.remote_accesses,
            c.packets,
        ] {
            self.word(w);
        }
    }

    /// Feed a tag breakdown, name and counts per tag.
    pub fn tags(&mut self, tags: &[(&'static str, Counts)]) {
        self.word(tags.len() as u64);
        for (name, c) in tags {
            self.text(name);
            self.counts(c);
        }
    }

    /// Feed every field of a [`DropStats`].
    pub fn drops(&mut self, d: &DropStats) {
        for w in [
            d.offered,
            d.nic_rx_exhausted,
            d.queue_full,
            d.element_dropped,
            d.wire_overflow,
            d.shed,
            d.drained,
        ] {
            self.word(w);
        }
    }

    /// Feed every field of a [`MemCtrlStats`].
    pub fn memctrl(&mut self, m: &MemCtrlStats) {
        for w in [
            m.transfers,
            m.reads,
            m.writes,
            m.prefetches,
            m.total_queue_delay,
            m.busy_cycles,
        ] {
            self.word(w);
        }
    }

    /// Feed a latency summary (percentiles by their bit patterns).
    pub fn latency(&mut self, l: &LatencySummary) {
        for v in [l.p50_us, l.p95_us, l.p99_us, l.mean_us] {
            self.word(v.to_bits());
        }
        self.word(l.samples);
    }

    /// Close the current op: its FNV-1a joins the run's sequence.
    pub fn end_op(&mut self) {
        let h = fnv1a(&self.op);
        self.op.clear();
        self.ops.extend_from_slice(&h.to_le_bytes());
    }

    /// The run digest: FNV-1a over the op digests (closing any open op).
    pub fn finish(&mut self) -> u64 {
        if !self.op.is_empty() {
            self.end_op();
        }
        fnv1a(&self.ops)
    }
}

/// `MemCtrlStats` accumulated over windows (the struct has no `add`).
pub fn memctrl_add(a: &MemCtrlStats, b: &MemCtrlStats) -> MemCtrlStats {
    MemCtrlStats {
        transfers: a.transfers + b.transfers,
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        prefetches: a.prefetches + b.prefetches,
        total_queue_delay: a.total_queue_delay + b.total_queue_delay,
        busy_cycles: a.busy_cycles + b.busy_cycles,
    }
}

/// `b − a` for cumulative `MemCtrlStats` read before (`a`) and after (`b`).
pub fn memctrl_delta(b: &MemCtrlStats, a: &MemCtrlStats) -> MemCtrlStats {
    MemCtrlStats {
        transfers: b.transfers - a.transfers,
        reads: b.reads - a.reads,
        writes: b.writes - a.writes,
        prefetches: b.prefetches - a.prefetches,
        total_queue_delay: b.total_queue_delay - a.total_queue_delay,
        busy_cycles: b.busy_cycles - a.busy_cycles,
    }
}

/// `DropStats` accumulated over windows.
pub fn drops_add(a: &DropStats, b: &DropStats) -> DropStats {
    DropStats {
        offered: a.offered + b.offered,
        nic_rx_exhausted: a.nic_rx_exhausted + b.nic_rx_exhausted,
        queue_full: a.queue_full + b.queue_full,
        element_dropped: a.element_dropped + b.element_dropped,
        wire_overflow: a.wire_overflow + b.wire_overflow,
        shed: a.shed + b.shed,
        drained: a.drained + b.drained,
    }
}

/// `b − a` for cumulative `DropStats`.
pub fn drops_delta(b: &DropStats, a: &DropStats) -> DropStats {
    DropStats {
        offered: b.offered - a.offered,
        nic_rx_exhausted: b.nic_rx_exhausted - a.nic_rx_exhausted,
        queue_full: b.queue_full - a.queue_full,
        element_dropped: b.element_dropped - a.element_dropped,
        wire_overflow: b.wire_overflow - a.wire_overflow,
        shed: b.shed - a.shed,
        drained: b.drained - a.drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let c = Counts {
            packets: 3,
            l1_refs: 40,
            ..Counts::default()
        };
        let run = |first: u64| {
            let mut d = Digest::new();
            d.word(first);
            d.counts(&c);
            d.end_op();
            d.drops(&DropStats {
                offered: 3,
                ..DropStats::default()
            });
            d.finish()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        // An op boundary is part of the digest.
        let mut one = Digest::new();
        one.word(1);
        one.word(2);
        let mut two = Digest::new();
        two.word(1);
        two.end_op();
        two.word(2);
        assert_ne!(one.finish(), two.finish());
    }
}
