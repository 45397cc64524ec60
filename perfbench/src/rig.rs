//! Instrumented scenario execution: the steps of
//! `pp_core::experiment::run_scenario` (fresh machine, flow builds,
//! engine, warmup, measured window), called one by one so each can be
//! timed as a span of its own layer. A unit test pins the result to the
//! library's `run_scenario` bit for bit.

use crate::digest::{drops_delta, memctrl_delta, Digest};
use crate::trace::Tracer;
use pp_core::experiment::{FlowPlacement, FlowResult, LatencySummary, Scenario};
use pp_sim::config::MachineConfig;
use pp_sim::counters::{CounterSnapshot, DerivedMetrics};
use pp_sim::engine::Engine;
use pp_sim::fault::DropStats;
use pp_sim::latency::LatencyHistogram;
use pp_sim::machine::Machine;
use pp_sim::memctrl::MemCtrlStats;
use pp_sim::types::{CoreId, Cycles, SocketId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Per-flow seed, as `pp_core::experiment` derives it (SplitMix64 over
/// the master seed and the flow's scenario index). The library keeps it
/// private; `rig_matches_run_scenario` fails if the two ever diverge.
pub fn flow_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One core's events over a window.
#[derive(Debug, Clone)]
pub struct CoreWindow {
    /// The core.
    pub core: CoreId,
    /// Counter deltas, total and per tag.
    pub counts: CounterSnapshot,
    /// Loss-ledger delta.
    pub drops: DropStats,
}

/// One measured window of one machine.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window length, simulated cycles.
    pub cycles: Cycles,
    /// Per-core events, in the order the cores were asked for.
    pub cores: Vec<CoreWindow>,
    /// Per-socket memory-controller deltas.
    pub memctrl: Vec<MemCtrlStats>,
}

impl Window {
    /// Feed every simulated statistic of the window into `d`.
    pub fn digest(&self, d: &mut Digest) {
        d.word(self.cycles);
        for c in &self.cores {
            d.word(c.core.0 as u64);
            d.counts(&c.counts.total);
            d.tags(&c.counts.tags);
            d.drops(&c.drops);
        }
        for m in &self.memctrl {
            d.memctrl(m);
        }
    }

    /// Packets retired in the window on all measured cores.
    pub fn packets(&self) -> u64 {
        self.cores.iter().map(|c| c.counts.total.packets).sum()
    }
}

/// Advance `engine` by one window from its current clock, exactly as
/// `Engine::measure(0, cycles)` does, and read back the counters of
/// `cores` (with their drop handles) and every memory controller. The
/// run is the `sim.run` span, the readout the `sim.measure` span.
pub fn measure_window(
    engine: &mut Engine,
    cores: &[(CoreId, &Rc<RefCell<DropStats>>)],
    cycles: Cycles,
    tr: &Tracer,
    op: u64,
) -> Window {
    let sockets = engine.machine.config().sockets;
    let read = |e: &Engine| {
        let snaps: Vec<(CounterSnapshot, DropStats)> = cores
            .iter()
            .map(|(c, d)| (e.machine.core(*c).counters.snapshot(), *d.borrow()))
            .collect();
        let mcs: Vec<MemCtrlStats> = (0..sockets)
            .map(|s| e.machine.memctrl_stats(SocketId(s)))
            .collect();
        (snaps, mcs)
    };
    // `measure` first brings lagging cores up to the leader's clock (its
    // zero-length warmup), then snapshots.
    let start = engine.machine.max_clock();
    tr.span("sim.warmup", op, || engine.run_until(start));
    let (before, mc0) = tr.span("sim.measure", op, || read(engine));
    let t0 = engine.machine.max_clock();
    tr.span("sim.run", op, || engine.run_until(t0 + cycles));
    tr.span("sim.measure", op, || {
        let (after, mc1) = read(engine);
        Window {
            cycles,
            cores: cores
                .iter()
                .zip(before.iter().zip(after.iter()))
                .map(|((core, _), ((s0, d0), (s1, d1)))| CoreWindow {
                    core: *core,
                    counts: s1.delta(s0),
                    drops: drops_delta(d1, d0),
                })
                .collect(),
            memctrl: mc1
                .iter()
                .zip(&mc0)
                .map(|(b, a)| memctrl_delta(b, a))
                .collect(),
        }
    })
}

/// One built flow of a rig.
pub struct RigFlow {
    /// Where and what.
    pub placement: FlowPlacement,
    /// Residence-time histogram.
    pub lat: Rc<RefCell<LatencyHistogram>>,
    /// Loss ledger.
    pub drops: Rc<RefCell<DropStats>>,
    /// Simulated bytes the flow's structures occupy.
    pub working_set: u64,
}

/// A scenario built on a fresh machine, ready to run.
pub struct Rig {
    /// The engine that owns the machine and the flow tasks.
    pub engine: Engine,
    /// The flows, in scenario order.
    pub flows: Vec<RigFlow>,
}

impl Rig {
    /// Build `s` on a fresh Westmere machine: `sim.machine_new`, one
    /// `click.build` per flow, `sim.engine_new`. Returns the rig and the
    /// host seconds the three steps took.
    pub fn build(s: &Scenario, tr: &Tracer, op: u64) -> (Rig, f64) {
        let t = Instant::now();
        let mut machine = tr.span("sim.machine_new", op, || {
            Machine::new(MachineConfig::westmere())
        });
        let mut built = Vec::with_capacity(s.flows.len());
        for (i, p) in s.flows.iter().enumerate() {
            let before = machine.allocator(p.domain).used();
            let b = tr.span("click.build", op, || {
                p.flow.build_with_structure(
                    &mut machine,
                    p.domain,
                    s.params.scale,
                    flow_seed(s.params.seed, i),
                    p.flow.structure_seed(s.params.seed),
                    s.params.batch_size,
                )
            });
            let ws = machine.allocator(p.domain).used() - before;
            built.push((*p, b, ws));
        }
        let mut engine = tr.span("sim.engine_new", op, || Engine::new(machine));
        let flows = built
            .into_iter()
            .map(|(p, b, ws)| {
                let flow = RigFlow {
                    placement: p,
                    lat: b.task.latency_handle(),
                    drops: b.task.drop_handle(),
                    working_set: ws,
                };
                engine.set_task(p.core, Box::new(b.task));
                flow
            })
            .collect();
        (Rig { engine, flows }, t.elapsed().as_secs_f64())
    }

    /// Run the warmup and discard its latency samples and loss counts.
    pub fn warmup(&mut self, cycles: Cycles, tr: &Tracer, op: u64) {
        tr.span("sim.warmup", op, || self.engine.run_until(cycles));
        for f in &self.flows {
            f.lat.borrow_mut().reset();
            f.drops.borrow_mut().reset();
        }
    }

    /// Measure one window over every flow's core.
    pub fn window(&mut self, cycles: Cycles, tr: &Tracer, op: u64) -> Window {
        let cores: Vec<(CoreId, &Rc<RefCell<DropStats>>)> = self
            .flows
            .iter()
            .map(|f| (f.placement.core, &f.drops))
            .collect();
        measure_window(&mut self.engine, &cores, cycles, tr, op)
    }

    /// Latency summary of flow `i` since the last reset.
    pub fn latency(&self, i: usize) -> LatencySummary {
        let freq = self.engine.machine.config().freq_ghz;
        LatencySummary::from_histogram(&self.flows[i].lat.borrow(), freq)
    }

    /// The flows' results over `w`, in the shape `run_scenario` returns.
    pub fn results(&self, w: &Window) -> Vec<FlowResult> {
        let freq = self.engine.machine.config().freq_ghz;
        self.flows
            .iter()
            .zip(&w.cores)
            .enumerate()
            .map(|(i, (f, c))| FlowResult {
                core: f.placement.core,
                flow: f.placement.flow,
                metrics: DerivedMetrics::from_counts(&c.counts.total, w.cycles, freq),
                counts: c.counts.total,
                tags: c.counts.tags.clone(),
                working_set_bytes: f.working_set,
                latency: self.latency(i),
                drops: *f.drops.borrow(),
            })
            .collect()
    }
}

/// Output check for one flow over one window: the ledger closes exactly,
/// `offered == delivered + dropped`.
pub fn ledger_closes(c: &CoreWindow) -> bool {
    c.drops.offered == c.counts.total.packets + c.drops.total_dropped()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::experiment::{run_scenario, ExpParams};
    use pp_core::placement::Placement;
    use pp_core::workload::FlowType;

    #[test]
    fn rig_matches_run_scenario() {
        let mut params = ExpParams::quick();
        params.warmup_ms = 0.2;
        params.window_ms = 0.3;
        params.seed = 7;
        let s = Placement {
            socket0: vec![FlowType::Ip, FlowType::Fw],
            socket1: vec![FlowType::Mon],
        }
        .scenario(params);
        let lib = run_scenario(&s);
        let tr = Tracer::new(false);
        let (mut rig, _) = Rig::build(&s, &tr, 0);
        let cfg = rig.engine.machine.config().clone();
        rig.warmup(params.warmup_cycles(&cfg), &tr, 0);
        let w = rig.window(params.window_cycles(&cfg), &tr, 0);
        let ours = rig.results(&w);
        assert_eq!(ours.len(), lib.flows.len());
        for (a, b) in ours.iter().zip(&lib.flows) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.counts, b.counts, "{} counters", a.flow);
            assert_eq!(a.tags, b.tags, "{} tags", a.flow);
            assert_eq!(a.drops, b.drops, "{} ledger", a.flow);
            assert_eq!(a.working_set_bytes, b.working_set_bytes);
            assert_eq!(a.latency.p99_us.to_bits(), b.latency.p99_us.to_bits());
            assert_eq!(a.metrics.pps.to_bits(), b.metrics.pps.to_bits());
        }
        assert!(w.cores.iter().all(ledger_closes));
    }
}
