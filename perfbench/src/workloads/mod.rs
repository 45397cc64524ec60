//! The four workloads and what every one of them hands back.
//!
//! Each workload is a closed loop of *rounds*. A round builds everything
//! it runs from the seed (that build is its set-up), then runs timed ops
//! back to back, each starting when the previous one returned. Rounds
//! repeat until the time budget is spent, so set-up is measured several
//! times per run. Every round of one run replays the same seed, so every
//! round must produce the same model digest; a round that does not has
//! all its ops counted as failed.

pub mod fleet;
pub mod predict;
pub mod steady;

use crate::digest::{drops_add, memctrl_add};
use crate::report::Metric;
use crate::rig::Window;
use pp_core::experiment::ExpParams;
use pp_core::workload::Scale;
use pp_sim::counters::Counts;
use pp_sim::fault::DropStats;
use pp_sim::memctrl::MemCtrlStats;
use pp_sim::types::Cycles;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five chains alone on one core, batch 1 and 64, paper scale.
    Solo,
    /// The Fig. 9 consolidation (12 flows, two sockets), paper scale.
    Corun,
    /// The paper's method end to end: profile, predict, measure.
    Predict,
    /// The cluster crash-and-restart case under the fleet controller.
    Fleet,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Solo,
        Workload::Corun,
        Workload::Predict,
        Workload::Fleet,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Corun => "corun",
            Workload::Predict => "predict",
            Workload::Fleet => "fleet",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much simulated work each workload does. [`Size::full`] is the
/// benchmark; [`Size::smoke`] is a tiny version for tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `solo`: scale, warmup, and the window every op simulates.
    pub solo: ExpParams,
    /// `solo`: windows per chain and batch in one round.
    pub solo_windows: u32,
    /// `corun`: scale, warmup, and op window.
    pub corun: ExpParams,
    /// `corun`: windows per round.
    pub corun_windows: u32,
    /// `predict`: scale, warmup and window of every scenario.
    pub predict: ExpParams,
    /// `predict`: SYN ramp levels per profiled type.
    pub levels: u8,
    /// `fleet`: scale, warmup and control window.
    pub fleet: ExpParams,
    /// `fleet`: SYN ramp levels of the admission predictor.
    pub fleet_levels: u8,
    /// Ops a run completes at least, whatever its time budget, so the
    /// p90 has ten samples beyond it.
    pub min_ops: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        let paper = ExpParams::paper();
        let quick = ExpParams::quick();
        Size {
            solo: ExpParams {
                warmup_ms: 4.0,
                window_ms: 1.0,
                ..paper
            },
            solo_windows: 12,
            corun: ExpParams {
                warmup_ms: 4.0,
                window_ms: 0.5,
                ..paper
            },
            corun_windows: 40,
            predict: ExpParams {
                warmup_ms: 1.0,
                window_ms: 2.0,
                ..quick
            },
            levels: 6,
            fleet: ExpParams {
                warmup_ms: 0.5,
                window_ms: 1.5,
                ..quick
            },
            fleet_levels: 3,
            min_ops: 100,
        }
    }

    /// A few simulated microseconds per step at test scale.
    pub fn smoke() -> Self {
        let quick = ExpParams {
            scale: Scale::Test,
            ..ExpParams::quick()
        };
        let tiny = ExpParams {
            warmup_ms: 0.05,
            window_ms: 0.05,
            ..quick
        };
        Size {
            solo: tiny,
            solo_windows: 2,
            corun: tiny,
            corun_windows: 2,
            predict: tiny,
            levels: 2,
            // The fleet's claims are about control windows, not their
            // length: it runs at its full size, for fewer rounds.
            fleet: Self::full().fleet,
            fleet_levels: 2,
            min_ops: 1,
        }
    }
}

/// When a run stops starting rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many host seconds have passed (and `min_ops` ops ran).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(u32),
}

/// Simulated statistics of one round, summed over its measured windows.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Counter totals over every measured core and window.
    pub counts: Counts,
    /// Per-tag totals.
    pub tags: BTreeMap<&'static str, Counts>,
    /// Memory-controller totals over both sockets.
    pub memctrl: MemCtrlStats,
    /// Busiest controller's utilization in any window.
    pub memctrl_peak_util: f64,
    /// Loss-ledger totals.
    pub drops: DropStats,
    /// Modelled throughput summed over the measured flows, Mpkt/s.
    pub mpps: f64,
    /// Geometric mean over the measured flows of each flow's p99
    /// residence time, µs.
    pub p99_us: f64,
    /// The worst flow's p99 residence time, µs.
    pub p99_worst_us: f64,
}

impl SimStats {
    /// Summarize the flows' p99 residence times (flows that completed no
    /// packet are left out).
    pub fn set_p99(&mut self, per_flow: &[f64]) {
        let seen: Vec<f64> = per_flow.iter().copied().filter(|&p| p > 0.0).collect();
        let mean_ln = seen.iter().map(|p| p.ln()).sum::<f64>() / seen.len().max(1) as f64;
        self.p99_us = if seen.is_empty() { 0.0 } else { mean_ln.exp() };
        self.p99_worst_us = seen.iter().copied().fold(0.0, f64::max);
    }

    /// Add one window's events.
    pub fn add_window(&mut self, w: &Window) {
        for c in &w.cores {
            self.counts.accumulate(&c.counts.total);
            for (name, t) in &c.counts.tags {
                self.tags.entry(name).or_default().accumulate(t);
            }
            self.drops = drops_add(&self.drops, &c.drops);
        }
        for m in &w.memctrl {
            self.memctrl = memctrl_add(&self.memctrl, m);
            self.memctrl_peak_util = self
                .memctrl_peak_util
                .max(m.busy_cycles as f64 / w.cycles.max(1) as f64);
        }
    }
}

/// Everything one run of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Rounds run.
    pub rounds: u32,
    /// Set-up host seconds, one per round.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of every timed op.
    pub op_ms: Vec<f64>,
    /// Host wall seconds the timed ops took (ops that overlap on worker
    /// threads count once).
    pub timed_s: f64,
    /// Simulated packets retired in the timed ops.
    pub packets: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Model digest of every round.
    pub digests: Vec<u64>,
    /// Simulated statistics of the first round.
    pub sim: SimStats,
    /// Workload-specific results of the first round (prediction error,
    /// loss, controller counts, reference errors).
    pub extra: Vec<Metric>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one finished round: its set-up, ops and digest. Ops of a
    /// round whose digest differs from the first round's count as failed.
    pub fn close_round(&mut self, round: Round) {
        let ops = round.op_ms.len() as u64;
        self.attempted += ops;
        self.failed += round.failed;
        if let Some(&first) = self.digests.first() {
            if round.digest != first {
                self.failed += ops - round.failed;
                self.notes.push(format!(
                    "round {} digest {:#018x} differs from round 0 {:#018x}",
                    self.rounds, round.digest, first
                ));
            }
        } else {
            self.sim = round.sim;
            self.extra = round.extra;
        }
        self.digests.push(round.digest);
        self.setup_s.push(round.setup_s);
        self.op_ms.extend(round.op_ms);
        self.timed_s += round.timed_s;
        self.packets += round.packets;
        self.rounds += 1;
    }

    /// Append another run of the same workload and seed, round by round.
    pub fn absorb(&mut self, other: Outcome) {
        let Outcome {
            setup_s,
            op_ms,
            timed_s,
            packets,
            digests,
            sim,
            extra,
            notes,
            ..
        } = other;
        let per_round = op_ms.len() / digests.len().max(1);
        let mut ops = op_ms.into_iter();
        for (&digest, setup_s) in digests.iter().zip(setup_s) {
            self.close_round(Round {
                setup_s,
                op_ms: ops.by_ref().take(per_round).collect(),
                digest,
                sim: sim.clone(),
                extra: extra.clone(),
                ..Round::default()
            });
        }
        // A round that failed in both runs' digest checks counts once.
        self.failed = (self.failed + other.failed).min(self.attempted);
        self.timed_s += timed_s;
        self.packets += packets;
        self.notes.extend(notes);
    }
}

/// What one round hands back to [`Outcome::close_round`].
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up host seconds.
    pub setup_s: f64,
    /// Host ms per timed op.
    pub op_ms: Vec<f64>,
    /// Host wall seconds of the timed ops.
    pub timed_s: f64,
    /// Simulated packets retired in timed ops.
    pub packets: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Model digest.
    pub digest: u64,
    /// Simulated statistics.
    pub sim: SimStats,
    /// Workload-specific results.
    pub extra: Vec<Metric>,
}

/// Run rounds until the budget is spent; `round(i)` runs round `i`.
pub fn run_rounds(budget: Budget, min_ops: usize, mut round: impl FnMut(u32) -> Round) -> Outcome {
    let t = Instant::now();
    let mut out = Outcome::default();
    loop {
        let done = match budget {
            Budget::Seconds(s) => {
                out.rounds > 0 && t.elapsed().as_secs_f64() >= s && out.op_ms.len() >= min_ops
            }
            Budget::Rounds(n) => out.rounds >= n,
        };
        if done {
            return out;
        }
        let r = round(out.rounds);
        out.close_round(r);
    }
}

/// Time one op: returns its result and host milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Modelled packets/s of `packets` retired over `cycles` at `freq_ghz`.
pub fn pps(packets: u64, cycles: Cycles, freq_ghz: f64) -> f64 {
    packets as f64 * freq_ghz * 1e9 / cycles.max(1) as f64
}
