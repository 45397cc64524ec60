//! `solo` and `corun`: scenarios built once per round, then run for many
//! fixed simulated windows. One op is one window.

use super::{pps, run_rounds, timed, Budget, Outcome, Round, SimStats, Size, Workload};
use crate::digest::Digest;
use crate::report::Metric;
use crate::rig::{ledger_closes, Rig};
use crate::trace::Tracer;
use pp_bench::experiments::table1::PAPER_TABLE1;
use pp_core::experiment::{solo_scenario, ExpParams, Scenario};
use pp_core::placement::Placement;
use pp_core::workload::{FlowType, REALISTIC};

/// The Fig. 9 per-socket mix: 2 MON, 2 VPN, 1 FW, 1 RE.
pub use pp_bench::experiments::fig9::MIX;

/// Datapath batch sizes `solo` runs every chain at.
pub const SOLO_BATCHES: [usize; 2] = [1, 64];

/// The scenarios of one round, each with the windows it runs.
fn scenarios(w: Workload, size: &Size, seed: u64) -> Vec<(Scenario, u32)> {
    match w {
        Workload::Solo => REALISTIC
            .iter()
            .flat_map(|&f| {
                SOLO_BATCHES.map(|b| {
                    let params = ExpParams { seed, ..size.solo }.with_batch(b);
                    (solo_scenario(f, params), size.solo_windows)
                })
            })
            .collect(),
        Workload::Corun => {
            let p = Placement {
                socket0: MIX.to_vec(),
                socket1: MIX.to_vec(),
            };
            vec![(
                p.scenario(ExpParams { seed, ..size.corun }),
                size.corun_windows,
            )]
        }
        other => unreachable!("{} is not a steady workload", other.name()),
    }
}

/// Run `solo` or `corun` for `budget`.
pub fn run(w: Workload, size: &Size, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let scenarios = scenarios(w, size, seed);
    let mut op = 0u64;
    run_rounds(budget, size.min_ops, |_| {
        tr.span("bench.round", 0, || round(w, &scenarios, tr, &mut op))
    })
}

/// Per-flow results `solo` compares with the paper's Table 1.
struct SoloRow {
    flow: FlowType,
    batch: usize,
    pps: f64,
    cpi: f64,
    l3_refs_per_pkt: f64,
}

fn round(w: Workload, scenarios: &[(Scenario, u32)], tr: &Tracer, op: &mut u64) -> Round {
    let mut r = Round::default();
    let mut d = Digest::new();
    let mut sim = SimStats::default();
    let mut rows = Vec::new();
    let mut p99s = Vec::new();
    for (s, windows) in scenarios {
        let (mut rig, setup) = Rig::build(s, tr, 0);
        r.setup_s += setup;
        let cfg = rig.engine.machine.config().clone();
        let (warm, win) = (s.params.warmup_cycles(&cfg), s.params.window_cycles(&cfg));
        rig.warmup(warm, tr, 0);
        let mut per_flow = vec![pp_sim::counters::Counts::default(); rig.flows.len()];
        for _ in 0..*windows {
            *op += 1;
            let id = *op;
            let ((win_stats, ok), ms) = timed(|| {
                tr.span("bench.op", id, || {
                    let ws = rig.window(win, tr, id);
                    let ok = ws.cores.iter().all(ledger_closes);
                    (ws, ok)
                })
            });
            r.op_ms.push(ms);
            r.timed_s += ms / 1e3;
            r.packets += win_stats.packets();
            r.failed += u64::from(!ok);
            for (acc, c) in per_flow.iter_mut().zip(&win_stats.cores) {
                acc.accumulate(&c.counts.total);
            }
            win_stats.digest(&mut d);
            d.end_op();
            sim.add_window(&win_stats);
        }
        let cycles = win * u64::from(*windows);
        for (i, c) in per_flow.iter().enumerate() {
            let lat = rig.latency(i);
            d.latency(&lat);
            p99s.push(lat.p99_us);
            let flow_pps = pps(c.packets, cycles, cfg.freq_ghz);
            sim.mpps += flow_pps / 1e6;
            rows.push(SoloRow {
                flow: rig.flows[i].placement.flow,
                batch: s.params.batch_size,
                pps: flow_pps,
                cpi: c.cpi().unwrap_or(0.0),
                l3_refs_per_pkt: c.l3_refs as f64 / c.packets.max(1) as f64,
            });
        }
        d.end_op();
    }
    if w == Workload::Solo {
        r.extra = table1_errors(&rows, 2.8);
    }
    sim.set_p99(&p99s);
    r.sim = sim;
    r.digest = d.finish();
    r
}

/// Mean |ours − paper| / paper over the five chains at batch 1 (the
/// scalar datapath, bit for bit), for pps, CPI and L3 refs per packet.
/// The paper's pps is its 2.8 GHz clock over its cycles per packet.
fn table1_errors(rows: &[SoloRow], paper_ghz: f64) -> Vec<Metric> {
    let mut err = [0.0f64; 3];
    let mut n = 0.0;
    for (name, cpi, _, _, cycles, refs, _, _) in PAPER_TABLE1 {
        let Some(row) = rows.iter().find(|r| r.batch == 1 && r.flow.name() == name) else {
            continue;
        };
        let paper_pps = paper_ghz * 1e9 / cycles;
        for (e, (ours, theirs)) in err.iter_mut().zip([
            (row.pps, paper_pps),
            (row.cpi, cpi),
            (row.l3_refs_per_pkt, refs),
        ]) {
            *e += (ours - theirs).abs() / theirs * 100.0;
        }
        n += 1.0;
    }
    let mean = |e: f64| if n > 0.0 { e / n } else { 0.0 };
    vec![
        Metric::new("ref.table1.pps_err_pct", mean(err[0]), "%"),
        Metric::new("ref.table1.cpi_err_pct", mean(err[1]), "%"),
        Metric::new("ref.table1.l3_refs_per_pkt_err_pct", mean(err[2]), "%"),
    ]
}
