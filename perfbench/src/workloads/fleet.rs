//! `fleet`: the cluster crash-and-restart case. Three machines each run
//! an IP and a MON tenant at batch 16; machine 0 crashes at window 4 and
//! restarts ten windows later while the fleet controller ticks every
//! window — heartbeats, telemetry ingest over a per-machine channel,
//! death declaration, re-placement on the survivors, and the return
//! home. One op is one control window.
//!
//! The loop follows `repro cluster-chaos`'s `machine-crash-restart`
//! scenario step for step, and each round checks that scenario's claims:
//! exact per-tenant conservation, two probes, one declaration, two
//! budgeted re-placements and two free returns, no parks, and both
//! refugees home at the end.

use super::{pps, run_rounds, timed, Budget, Outcome, Round, SimStats, Size};
use crate::digest::Digest;
use crate::report::Metric;
use crate::rig::measure_window;
use crate::trace::Tracer;
use pp_bench::experiments::cluster_chaos::INTERFERENCE_FLOOR;
use pp_core::admission::{AdmissionController, Sla};
use pp_core::experiment::{ExpParams, LatencySummary};
use pp_core::fleet::{FleetAction, FleetConfig, FleetController};
use pp_core::predictor::Predictor;
use pp_core::supervisor::TenantId;
use pp_core::telemetry::TelemetryReport;
use pp_core::workload::FlowType;
use pp_sim::cluster::{Cluster, MachineId, TelemetryChannel};
use pp_sim::config::MachineConfig;
use pp_sim::engine::{CoreTask, Engine};
use pp_sim::fault::{DropStats, FaultInjector, FaultKind, FaultPlan, TaskControls};
use pp_sim::latency::LatencyHistogram;
use pp_sim::types::{CoreId, MemDomain};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const MACHINES: usize = 3;
/// Placement cores per machine, and the controller's machine capacity.
const SLOTS: usize = 3;
const BATCH: usize = 16;
const CALIB_WINDOWS: u32 = 2;
/// Offered load as a fraction of each tenant's measured capacity.
const OFFERED_LOAD: f64 = 0.75;
/// Controller-side delivered-rate floor, as a fraction of calibrated pps.
const FLOOR_FRAC: f64 = 0.4;
const CRASH_AT: u32 = 4;
const RESTART_AFTER: u32 = 10;
/// Control windows per round: the crash, the restart, and a tail.
const WINDOWS: u32 = CRASH_AT + RESTART_AFTER + 12;
/// The flow classes profiled for re-placement admission.
const PROFILE: [FlowType; 3] = [FlowType::Ip, FlowType::Mon, FlowType::Fw];
/// Tenants: (class, SLA priority, home machine).
const FLEET: [(FlowType, u8, usize); 6] = [
    (FlowType::Ip, 2, 0),
    (FlowType::Mon, 1, 0),
    (FlowType::Ip, 2, 1),
    (FlowType::Mon, 1, 1),
    (FlowType::Ip, 2, 2),
    (FlowType::Mon, 1, 2),
];

/// Driver-side state of one tenant.
struct Tenant {
    id: TenantId,
    flow: FlowType,
    home: usize,
    /// Current placement (`None` = parked, task in `parked`).
    loc: Option<(usize, CoreId)>,
    lat: Rc<RefCell<LatencyHistogram>>,
    /// Residence times over the control windows.
    lat_all: LatencyHistogram,
    drops: Rc<RefCell<DropStats>>,
    controls: Rc<TaskControls>,
    parked: Option<Box<dyn CoreTask>>,
    offered_pace: u64,
    calib_pps: f64,
    min_pps: f64,
    prev: DropStats,
    /// Packets retired, flushed from the occupied core at every move.
    processed: u64,
    /// The occupied core's retired total at (re-)installation.
    counter_base: u64,
}

impl Tenant {
    /// Packets retired so far, including the occupied core's unflushed part.
    fn retired(&self, cluster: &Cluster) -> u64 {
        self.processed
            + self
                .loc
                .map_or(0, |(m, c)| core_packets(cluster, m, c) - self.counter_base)
    }

    /// Ledger check: `offered == retired + undelivered`.
    fn conserves(&self, cluster: &Cluster) -> bool {
        let d = self.drops.borrow();
        d.offered == self.retired(cluster) + d.undelivered()
    }

    fn flush(&mut self, cluster: &Cluster) {
        if let Some((m, c)) = self.loc {
            let now = core_packets(cluster, m, c);
            self.processed += now - self.counter_base;
            self.counter_base = now;
        }
    }

    /// Take the task off its engine through the counted drain path.
    fn park(&mut self, cluster: &mut Cluster) {
        self.flush(cluster);
        if let Some((m, core)) = self.loc.take() {
            let mut task = cluster
                .engine_mut(MachineId(m))
                .take_task(core)
                .expect("located tenant");
            task.on_migrate();
            self.parked = Some(task);
        }
    }
}

fn core_packets(cluster: &Cluster, m: usize, core: CoreId) -> u64 {
    cluster
        .engine(MachineId(m))
        .machine
        .core(core)
        .counters
        .total()
        .packets
}

/// Unchosen loss fraction between two ledger readings.
fn observed_loss(cur: &DropStats, prev: &DropStats) -> f64 {
    let offered = cur.offered.saturating_sub(prev.offered);
    let lost = cur.total_dropped().saturating_sub(prev.total_dropped());
    let chosen = (cur.shed + cur.drained).saturating_sub(prev.shed + prev.drained);
    lost.saturating_sub(chosen) as f64 / offered.max(1) as f64
}

/// Run `fleet` for `budget`. The admission predictor is profiled once
/// per run, before the first round, on one thread: it is set-up here, and
/// one thread keeps the run's peak resident memory repeatable.
pub fn run(size: &Size, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let params = ExpParams { seed, ..size.fleet };
    let (predictor, profile_s) = timed(|| {
        tr.span("core.profile", 0, || {
            Predictor::profile(&PROFILE, size.fleet_levels, params, 1)
        })
    });
    let admission = AdmissionController::new(&predictor);
    let slas: Vec<Sla> = PROFILE
        .iter()
        .map(|&f| Sla {
            flow: f,
            max_drop_pct: 40.0,
        })
        .collect();
    let mut op = 0u64;
    let mut out = run_rounds(budget, size.min_ops, |_| {
        tr.span("bench.round", 0, || {
            round(params, &admission, &slas, tr, &mut op)
        })
    });
    out.notes.push(format!(
        "admission profile: {:.3} s (once per run)",
        profile_s / 1e3
    ));
    out
}

fn round(
    params: ExpParams,
    admission: &AdmissionController<'_>,
    slas: &[Sla],
    tr: &Tracer,
    op: &mut u64,
) -> Round {
    let mut r = Round::default();
    let mut d = Digest::new();
    let mut sim = SimStats::default();
    let seed = params.seed ^ 0xC10577;

    // Set-up: three machines, six tenants at home.
    let t_setup = Instant::now();
    let cfg = MachineConfig::westmere();
    let mut cluster = tr.span("sim.machine_new", 0, || {
        Cluster::new_uniform(MACHINES, &cfg)
    });
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut next_core = [0u16; MACHINES];
    for (ti, &(flow, _, home)) in FLEET.iter().enumerate() {
        let core = CoreId(next_core[home]);
        next_core[home] += 1;
        let eng = cluster.engine_mut(MachineId(home));
        let built = tr.span("click.build", 0, || {
            flow.build_with_structure(
                &mut eng.machine,
                MemDomain(0),
                params.scale,
                seed ^ (0x1111 * (ti as u64 + 1)),
                flow.structure_seed(seed),
                BATCH,
            )
        });
        tenants.push(Tenant {
            id: TenantId(ti),
            flow,
            home,
            loc: Some((home, core)),
            lat: built.task.latency_handle(),
            lat_all: LatencyHistogram::new(),
            drops: built.task.drop_handle(),
            controls: built.task.controls_handle(),
            parked: None,
            offered_pace: 1,
            calib_pps: 0.0,
            min_pps: f64::INFINITY,
            prev: DropStats::default(),
            processed: 0,
            counter_base: 0,
        });
        eng.set_task(core, Box::new(built.task));
    }
    r.setup_s = t_setup.elapsed().as_secs_f64();

    let window = params.window_cycles(&cfg);
    let freq = cfg.freq_ghz;
    tr.span("sim.warmup", 0, || {
        cluster.run_all_until(params.warmup_cycles(&cfg))
    });
    for t in tenants.iter_mut() {
        t.lat.borrow_mut().reset();
        t.drops.borrow_mut().reset();
        let (m, core) = t.loc.expect("placed at home");
        t.counter_base = core_packets(&cluster, m, core);
    }

    // One window on every up machine; per-tenant packets by tenant index.
    let step = |cluster: &mut Cluster, tenants: &[Tenant], id: u64, d: &mut Digest| {
        let mut per_tenant = vec![None; tenants.len()];
        let mut windows = Vec::new();
        for m in 0..MACHINES {
            if !cluster.is_up(MachineId(m)) {
                continue;
            }
            let here: Vec<usize> = (0..tenants.len())
                .filter(|&i| tenants[i].loc.map(|l| l.0) == Some(m))
                .collect();
            let cores: Vec<_> = here
                .iter()
                .map(|&i| (tenants[i].loc.expect("here").1, &tenants[i].drops))
                .collect();
            let eng: &mut Engine = cluster.engine_mut(MachineId(m));
            let w = measure_window(eng, &cores, window, tr, id);
            for (&i, c) in here.iter().zip(&w.cores) {
                per_tenant[i] = Some(c.counts.total.packets);
            }
            d.word(m as u64);
            w.digest(d);
            windows.push(w);
        }
        (per_tenant, windows)
    };

    // Capacity probe: one unpaced window fixes each tenant's pace.
    let (probe, _) = step(&mut cluster, &tenants, 0, &mut d);
    for (t, p) in tenants.iter_mut().zip(&probe) {
        let cpp = window as f64 / p.expect("every tenant runs").max(1) as f64;
        t.offered_pace = (cpp / OFFERED_LOAD).max(1.0) as u64;
        t.controls.pace_cycles.set(t.offered_pace);
        t.lat.borrow_mut().reset();
    }
    // Calibration: the paced operating point each floor derives from.
    for _ in 0..CALIB_WINDOWS {
        let (calib, _) = step(&mut cluster, &tenants, 0, &mut d);
        for (t, p) in tenants.iter_mut().zip(&calib) {
            t.calib_pps += pps(p.expect("every tenant runs"), window, freq) / CALIB_WINDOWS as f64;
            t.lat.borrow_mut().reset();
        }
    }
    d.end_op();

    let mut ctrl = FleetController::new(FleetConfig {
        machine_capacity: SLOTS,
        ..FleetConfig::default()
    });
    for _ in 0..MACHINES {
        ctrl.add_machine();
    }
    for t in tenants.iter_mut() {
        let (_, priority, home) = FLEET[t.id.0];
        let id = ctrl.add_tenant(t.flow, priority, MachineId(home));
        debug_assert_eq!(id, t.id);
        ctrl.set_floor(id, FLOOR_FRAC * t.calib_pps);
        t.prev = *t.drops.borrow();
    }
    let mut channels: Vec<TelemetryChannel<(TenantId, TelemetryReport)>> =
        (0..MACHINES).map(|_| TelemetryChannel::new()).collect();
    let plan = FaultPlan::seeded(seed ^ 0xC1A5).with_machine_crash(CRASH_AT, RESTART_AFTER, 0);
    let mut injector = FaultInjector::new(plan);
    let (mut probes, mut parks) = (0u32, 0u32);

    for w in 0..WINDOWS {
        *op += 1;
        let id = *op;
        let ((packets, conserved), ms) = timed(|| {
            tr.span("bench.op", id, || {
                // 1. Scripted crash and restart.
                let fired: Vec<_> = injector.advance(w).to_vec();
                for f in &fired {
                    let m = f
                        .target
                        .map(usize::from)
                        .expect("cluster faults are targeted");
                    match f.kind {
                        FaultKind::MachineCrash { .. } if f.begin => {
                            for t in tenants.iter_mut().filter(|t| t.loc.map(|l| l.0) == Some(m)) {
                                t.park(&mut cluster);
                            }
                            cluster.set_up(MachineId(m), false);
                        }
                        FaultKind::MachineCrash { .. } => cluster.set_up(MachineId(m), true),
                        other => unreachable!("the plan holds only a crash, got {}", other.name()),
                    }
                }
                // 2. Heartbeats from up machines; 3. delivered telemetry.
                for m in cluster.machine_ids() {
                    if cluster.is_up(m) {
                        ctrl.heartbeat(m, w);
                    }
                }
                for ch in channels.iter_mut() {
                    for (tid, rep) in ch.recv(w) {
                        tr.span("core.telemetry.ingest", id, || ctrl.ingest(tid, &rep));
                    }
                }
                // 4. One control tick behind the predictor's admission gate.
                let placed: Vec<(FlowType, Option<usize>)> = tenants
                    .iter()
                    .map(|t| (t.flow, t.loc.map(|l| l.0)))
                    .collect();
                let mut gate = |m: MachineId, flow: FlowType| {
                    let resident: Vec<FlowType> = placed
                        .iter()
                        .filter(|(_, l)| *l == Some(m.index()))
                        .map(|(f, _)| *f)
                        .collect();
                    admission.readmit(&resident, slas, flow).admitted()
                };
                let actions = tr.span("core.fleet.tick", id, || ctrl.tick(w, &mut gate));
                for a in actions {
                    match a {
                        FleetAction::ProbeMachine { .. } => probes += 1,
                        FleetAction::DeclareDead { .. } => {}
                        FleetAction::Replace { tenant, to } => tr.span("sim.migrate", id, || {
                            // From a refuge (return home) or from the parked box.
                            let t = &mut tenants[tenant.0];
                            t.park(&mut cluster);
                            let task = t.parked.take().expect("tenant task parked");
                            let dest = (0..SLOTS as u16)
                                .map(CoreId)
                                .find(|&c| !cluster.engine(to).has_task(c))
                                .expect("controller capacity keeps a slot free");
                            let eng = cluster.engine_mut(to);
                            let now = eng.machine.max_clock();
                            eng.machine.core_mut(dest).clock = now;
                            eng.set_task(dest, task);
                            t.loc = Some((to.index(), dest));
                            t.counter_base = core_packets(&cluster, to.index(), dest);
                            t.controls.pace_cycles.set(t.offered_pace);
                        }),
                        FleetAction::Park { tenant } => {
                            tenants[tenant.0].park(&mut cluster);
                            parks += 1;
                        }
                    }
                }
                // 5. One window per up machine; reports onto the channels.
                let (got, windows) = step(&mut cluster, &tenants, id, &mut d);
                for (t, p) in tenants.iter_mut().zip(&got) {
                    let Some(p) = *p else { continue };
                    let (m, _) = t.loc.expect("measured tenants are placed");
                    let rate = pps(p, window, freq);
                    t.min_pps = t.min_pps.min(rate);
                    let cur = *t.drops.borrow();
                    let lat = LatencySummary::from_histogram(&t.lat.borrow(), freq);
                    t.lat_all.merge(&t.lat.borrow());
                    t.lat.borrow_mut().reset();
                    let rep = TelemetryReport {
                        window: w,
                        pps: rate,
                        p99_us: lat.p99_us,
                        loss_frac: observed_loss(&cur, &t.prev),
                    };
                    t.prev = cur;
                    channels[m].send(w, (t.id, rep));
                }
                // 6. Parked tenants refuse their offered load, counted.
                for t in tenants.iter_mut().filter(|t| t.loc.is_none()) {
                    let refused = window / t.offered_pace.max(1);
                    let mut dr = t.drops.borrow_mut();
                    dr.offered += refused;
                    dr.drained += refused;
                }
                for win in &windows {
                    sim.add_window(win);
                }
                let packets: u64 = got.iter().flatten().sum();
                (packets, tenants.iter().all(|t| t.conserves(&cluster)))
            })
        });
        r.op_ms.push(ms);
        r.timed_s += ms / 1e3;
        r.packets += packets;
        r.failed += u64::from(!conserved);
        d.word(packets);
        d.end_op();
    }

    for t in tenants.iter_mut() {
        t.flush(&cluster);
    }
    let ledger = tenants.iter().fold(DropStats::default(), |a, t| {
        crate::digest::drops_add(&a, &t.drops.borrow())
    });
    let home_again = tenants.iter().all(|t| t.loc.map(|l| l.0) == Some(t.home));
    let crash_counted = tenants
        .iter()
        .filter(|t| t.home == 0)
        .all(|t| t.drops.borrow().drained > 0);
    let interference = tenants
        .iter()
        .filter(|t| t.home != 0)
        .all(|t| t.min_pps >= INTERFERENCE_FLOOR * t.calib_pps);
    let claims = probes == 2
        && ctrl.decisions() == 5
        && ctrl.replacements_used() == 2
        && parks == 0
        && home_again
        && crash_counted
        && interference;
    if !claims {
        r.failed = r.op_ms.len() as u64;
    }
    let mut p99s = Vec::new();
    for t in &tenants {
        d.drops(&t.drops.borrow());
        d.word(t.processed);
        let lat = LatencySummary::from_histogram(&t.lat_all, freq);
        d.latency(&lat);
        p99s.push(lat.p99_us);
    }
    sim.set_p99(&p99s);
    for w in [
        u64::from(probes),
        ctrl.decisions(),
        u64::from(ctrl.replacements_used()),
    ] {
        d.word(w);
    }
    sim.drops = ledger;
    sim.mpps = pps(r.packets, window * u64::from(WINDOWS), freq) / 1e6;
    let loss = ledger.undelivered() as f64 / ledger.offered.max(1) as f64 * 100.0;
    r.extra = vec![
        Metric::new("loss_pct", loss, "%"),
        Metric::new("core.fleet.decisions", ctrl.decisions() as f64, "count"),
        Metric::new(
            "core.fleet.replacements",
            f64::from(ctrl.replacements_used()),
            "count",
        ),
        Metric::new("core.fleet.probes", f64::from(probes), "count"),
    ];
    r.sim = sim;
    r.digest = d.finish();
    r
}
