//! `predict`: the paper's method end to end, as a user runs it. Profile
//! MON, VPN, FW and RE alone, ramp five SYN competitors against each,
//! predict every flow of the Fig. 9 placement, then measure that
//! placement. One op is one scenario on a fresh machine; the scenarios
//! of a phase shard across host threads through `run_many`.

use super::steady::MIX;
use super::{run_rounds, timed, Budget, Outcome, Round, SimStats, Size};
use crate::digest::Digest;
use crate::report::Metric;
use crate::rig::{ledger_closes, Rig, Window};
use crate::trace::Tracer;
use pp_core::experiment::{
    corun_scenario, default_threads, run_many, solo_scenario, ContentionConfig, ExpParams,
    FlowResult, Scenario,
};
use pp_core::placement::Placement;
use pp_core::predictor::Predictor;
use pp_core::profiler::SoloProfile;
use pp_core::sensitivity::SensitivityCurve;
use pp_core::workload::FlowType;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The profiled types: the distinct flows of the Fig. 9 mix.
pub const TYPES: [FlowType; 4] = [FlowType::Mon, FlowType::Vpn, FlowType::Fw, FlowType::Re];

/// The paper's largest Fig. 9 prediction error, pp.
pub const PAPER_MAX_ERR_PP: f64 = 1.26;

/// Host worker threads: `run_many` sharding, never more than the host has.
pub fn jobs() -> usize {
    default_threads().clamp(1, 2)
}

/// One finished scenario op.
struct Op {
    flows: Vec<FlowResult>,
    window: Window,
    setup_s: f64,
    ms: f64,
    ok: bool,
}

/// Build, warm up and measure one scenario as one op.
fn scenario_op(s: &Scenario, tr: &Tracer, id: u64) -> Op {
    let ((flows, window, setup_s, ok), ms) = timed(|| {
        tr.span("bench.op", id, || {
            let (mut rig, setup_s) = Rig::build(s, tr, id);
            let cfg = rig.engine.machine.config().clone();
            rig.warmup(s.params.warmup_cycles(&cfg), tr, id);
            let w = rig.window(s.params.window_cycles(&cfg), tr, id);
            let ok = w.cores.iter().all(ledger_closes);
            (rig.results(&w), w, setup_s, ok)
        })
    });
    Op {
        flows,
        window,
        setup_s,
        ms,
        ok,
    }
}

/// Run a phase's scenarios on the worker threads, in canonical order.
fn phase(
    name: &'static str,
    scenarios: Vec<Scenario>,
    tr: &Tracer,
    next_op: &AtomicU64,
    r: &mut Round,
    d: &mut Digest,
    sim: &mut SimStats,
) -> Vec<Vec<FlowResult>> {
    let (ops, ms) = timed(|| {
        tr.span(name, 0, || {
            let parent = tr.current();
            run_many(scenarios, jobs(), |s| {
                let id = next_op.fetch_add(1, Ordering::Relaxed);
                tr.within(parent, || scenario_op(&s, tr, id))
            })
        })
    });
    r.timed_s += ms / 1e3;
    ops.into_iter()
        .map(|op| {
            r.setup_s += op.setup_s;
            r.op_ms.push(op.ms);
            r.packets += op.window.packets();
            r.failed += u64::from(!op.ok);
            op.window.digest(d);
            for f in &op.flows {
                d.latency(&f.latency);
            }
            d.end_op();
            sim.add_window(&op.window);
            op.flows
        })
        .collect()
}

/// Run `predict` for `budget`.
pub fn run(size: &Size, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let params = ExpParams {
        seed,
        ..size.predict
    };
    let next_op = AtomicU64::new(1);
    run_rounds(budget, size.min_ops, |_| {
        tr.span("bench.round", 0, || {
            round(params, size.levels, tr, &next_op)
        })
    })
}

fn round(params: ExpParams, levels: u8, tr: &Tracer, next_op: &AtomicU64) -> Round {
    let mut r = Round::default();
    let mut d = Digest::new();
    let mut sim = SimStats::default();

    // 1. Solo profiles.
    let solos: Vec<SoloProfile> = phase(
        "core.profile",
        TYPES.iter().map(|&t| solo_scenario(t, params)).collect(),
        tr,
        next_op,
        &mut r,
        &mut d,
        &mut sim,
    )
    .iter()
    .map(|flows| SoloProfile::from_result(&flows[0]))
    .collect();

    // 2. SYN ramps: the target on core 0 against five SYN flows per level.
    let ramp: Vec<(FlowType, u8)> = TYPES
        .iter()
        .flat_map(|&t| (0..levels).map(move |l| (t, l)))
        .collect();
    let coruns = phase(
        "core.ramp",
        ramp.iter()
            .map(|&(t, level)| {
                let syn = FlowType::Syn { level, levels };
                corun_scenario(t, &[syn; 5], ContentionConfig::Both, params)
            })
            .collect(),
        tr,
        next_op,
        &mut r,
        &mut d,
        &mut sim,
    );
    let mut by_refs: BTreeMap<FlowType, Vec<(f64, f64)>> = BTreeMap::new();
    let mut by_fills: BTreeMap<FlowType, Vec<(f64, f64)>> = BTreeMap::new();
    for (&(t, _), flows) in ramp.iter().zip(&coruns) {
        let solo_pps = solos.iter().find(|p| p.flow == t).expect("profiled").pps;
        let drop = (solo_pps - flows[0].metrics.pps) / solo_pps * 100.0;
        let refs: f64 = flows[1..].iter().map(|f| f.metrics.l3_refs_per_sec).sum();
        let fills: f64 = flows[1..].iter().map(|f| f.metrics.l3_misses_per_sec).sum();
        by_refs.entry(t).or_default().push((refs, drop));
        by_fills.entry(t).or_default().push((fills, drop));
    }
    let complete = TYPES.iter().all(|t| {
        let pts = &by_refs[t];
        pts.len() == levels as usize && pts.iter().all(|(x, y)| x.is_finite() && y.is_finite())
    });
    let curves = |m: BTreeMap<FlowType, Vec<(f64, f64)>>| -> Vec<(FlowType, SensitivityCurve)> {
        m.into_iter()
            .map(|(t, pts)| (t, SensitivityCurve::from_points(pts)))
            .collect()
    };
    let predictor = Predictor::from_parts(solos.clone(), curves(by_refs), levels)
        .with_fill_curves(curves(by_fills));

    // 3. Predict every flow of the Fig. 9 placement from the profiles.
    let placement = Placement {
        socket0: MIX.to_vec(),
        socket1: MIX.to_vec(),
    };
    let mut predicted = Vec::new();
    let mut in_range = 0usize;
    for side in [&placement.socket0, &placement.socket1] {
        for i in 0..side.len() {
            let competitors: Vec<FlowType> = side
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &c)| c)
                .collect();
            let p = tr.span("core.predict", 0, || {
                predictor.predict_drop(side[i], &competitors)
            });
            let max_x = predictor.curve(side[i]).map(|c| c.max_x()).unwrap_or(0.0);
            in_range += usize::from(predictor.estimated_competition(&competitors) <= max_x);
            predicted.push(p);
        }
    }

    // 4. Measure the placement.
    let mix = phase(
        "core.mix",
        vec![placement.scenario(params)],
        tr,
        next_op,
        &mut r,
        &mut d,
        &mut sim,
    );
    let errors: Vec<f64> = mix[0]
        .iter()
        .zip(&predicted)
        .map(|(f, p)| {
            let solo_pps = predictor.solo(f.flow).expect("profiled").pps;
            let measured = (solo_pps - f.metrics.pps) / solo_pps * 100.0;
            (p - measured).abs()
        })
        .collect();
    let sound = complete && errors.len() == 12 && errors.iter().all(|e| e.is_finite());
    if !sound {
        // The round's prediction is unusable: every op of it fails.
        r.failed = r.op_ms.len() as u64;
    }
    for e in &errors {
        d.word(e.to_bits());
    }
    sim.mpps = mix[0].iter().map(|f| f.metrics.pps).sum::<f64>() / 1e6;
    sim.set_p99(&mix[0].iter().map(|f| f.latency.p99_us).collect::<Vec<_>>());
    let max_err = errors.iter().copied().fold(0.0, f64::max);
    let mean_err = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    r.extra = vec![
        Metric::new("pred_err_max_pp", max_err, "pp"),
        Metric::new("pred_err_mean_pp", mean_err, "pp"),
        Metric::new(
            "core.pred_in_range_share",
            in_range as f64 / 12.0,
            "fraction",
        ),
        Metric::new(
            "ref.fig9.max_err_minus_paper_pp",
            max_err - PAPER_MAX_ERR_PP,
            "pp",
        ),
    ];
    r.sim = sim;
    r.digest = d.finish();
    r
}
