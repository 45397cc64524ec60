//! The repository benchmark: four workloads run through the public APIs
//! of `pp-net`, `pp-sim`, `pp-click` and `pp-core`, timed end to end
//! (`--trace 0`) or per layer (`--trace 1`). See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.

pub mod digest;
pub mod host;
pub mod report;
pub mod rig;
pub mod stats;
pub mod trace;
pub mod workloads;

use pp_core::workload::{FlowType, Scale, REALISTIC};
use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
use report::{Metric, ResultLine};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::{Budget, Outcome, Size, Workload};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload (expected one of {})", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if let Some(k) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload; returns its outcome and the host wall seconds of
/// the whole call.
pub fn run_workload(
    w: Workload,
    size: &Size,
    seed: u64,
    budget: Budget,
    tr: &Tracer,
) -> (Outcome, f64) {
    let t = Instant::now();
    let out = match w {
        Workload::Solo | Workload::Corun => workloads::steady::run(w, size, seed, budget, tr),
        Workload::Predict => workloads::predict::run(size, seed, budget, tr),
        Workload::Fleet => workloads::fleet::run(size, seed, budget, tr),
    };
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Simulated packets per host second, in thousands.
fn kpps_host(out: &Outcome) -> f64 {
    out.packets as f64 / out.timed_s.max(1e-9) / 1e3
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order:
/// the ones whose run-to-run spread on a shared host stays inside a
/// bound (see `README.md`, "Noise floor"). `None` for an empty run.
pub fn end_to_end(out: &Outcome) -> Option<Vec<Metric>> {
    Some(vec![
        Metric::new("setup_s", stats::median(&out.setup_s)?, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("sim_mpps", out.sim.mpps, "Mpkt/s"),
        Metric::new("sim_p99_us", out.sim.p99_us, "us"),
    ])
}

/// Host-speed metrics of an untraced run: simulated packets per host
/// second and the op-time percentiles (0 where a run has too few ops).
pub fn host_speed(out: &Outcome) -> [Metric; 3] {
    let pct = |p: f64| stats::percentile(&out.op_ms, p).map_or(0.0, |x| x.value);
    [
        Metric::new("sim_kpps_host", kpps_host(out), "kpkt/s"),
        Metric::new("op_ms_p50", pct(50.0), "ms"),
        Metric::new("op_ms_p90", pct(90.0), "ms"),
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order. Every name appears
/// on every workload; a layer or result the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim_kpps_host", "kpkt/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("sim.p99_worst_us", "us"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_access", "ns"),
    ("sim.l1_refs_per_pkt", "count"),
    ("sim.l1_hit_ratio", "fraction"),
    ("sim.l2_hit_ratio", "fraction"),
    ("sim.l3_hit_ratio", "fraction"),
    ("sim.l3_misses_per_pkt", "count"),
    ("sim.cycles_per_pkt", "cycles"),
    ("sim.stall_cycles_per_pkt", "cycles"),
    ("sim.cpi", "cycles/instr"),
    ("sim.memctrl.util", "fraction"),
    ("sim.memctrl.queue_delay_cy", "cycles"),
    ("sim.memctrl.reads_per_pkt", "count"),
    ("sim.machine_new_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.measure_us", "us"),
    ("sim.drops.nic_rx_exhausted", "count"),
    ("sim.drops.queue_full", "count"),
    ("sim.drops.wire_overflow", "count"),
    ("sim.drops.shed", "count"),
    ("sim.drops.drained", "count"),
    ("net.gen_ns_per_pkt", "ns"),
    ("net.gen_share_est", "fraction"),
    ("click.build_s", "s"),
    ("click.tag.framework.cycles_per_pkt", "cycles"),
    ("click.tag.rx_desc.cycles_per_pkt", "cycles"),
    ("click.tag.tx_desc.cycles_per_pkt", "cycles"),
    ("click.tag.check_ip_header.cycles_per_pkt", "cycles"),
    ("click.tag.radix_ip_lookup.cycles_per_pkt", "cycles"),
    ("click.tag.dec_ip_ttl.cycles_per_pkt", "cycles"),
    ("core.profile_s", "s"),
    ("core.ramp_s", "s"),
    ("core.mix_s", "s"),
    ("core.predict_us", "us"),
    ("core.pred_in_range_share", "fraction"),
    ("core.fleet.tick_us", "us"),
    ("core.fleet.decisions", "count"),
    ("core.fleet.replacements", "count"),
    ("core.fleet.probes", "count"),
    ("core.telemetry.ingest_us", "us"),
    ("pred_err_max_pp", "pp"),
    ("pred_err_mean_pp", "pp"),
    ("loss_pct", "%"),
    ("error_rate", "fraction"),
    ("ref.table1.pps_err_pct", "%"),
    ("ref.table1.cpi_err_pct", "%"),
    ("ref.table1.l3_refs_per_pkt_err_pct", "%"),
    ("ref.fig9.max_err_minus_paper_pp", "pp"),
    ("layer.bench.self_s", "s"),
    ("layer.sim.self_s", "s"),
    ("layer.click.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.bench.wall_share", "fraction"),
    ("layer.sim.wall_share", "fraction"),
    ("layer.click.wall_share", "fraction"),
    ("layer.core.wall_share", "fraction"),
    ("trace.overhead", "ratio"),
    ("trace.account", "ratio"),
    ("trace.spans", "count"),
    ("trace.digest_match", "count"),
];

/// Layers of the span names, in report order. `net` runs only inside
/// `Engine::run_until`, so it has no span of its own; the traffic replay
/// measures it instead.
pub const LAYERS: [&str; 4] = ["bench", "sim", "click", "core"];

/// Tolerance on `trace.account`: traced layer wall time over untraced
/// wall time may differ from 1 by this much (tracing overhead, time
/// outside any span, and host noise between the alternating arms).
pub const ACCOUNT_TOLERANCE: f64 = 0.15;

/// Flow types whose traffic a workload generates.
fn traffic_types(w: Workload) -> &'static [FlowType] {
    match w {
        Workload::Solo => &REALISTIC,
        Workload::Corun | Workload::Predict => &workloads::predict::TYPES,
        Workload::Fleet => &[FlowType::Ip, FlowType::Mon],
    }
}

fn scale_of(w: Workload, size: &Size) -> Scale {
    match w {
        Workload::Solo => size.solo.scale,
        Workload::Corun => size.corun.scale,
        Workload::Predict => size.predict.scale,
        Workload::Fleet => size.fleet.scale,
    }
}

/// Replay the workload's traffic outside the engine — the same specs as
/// the flows' generators, `packets` packets in all — and return host ns
/// per generated packet.
pub fn replay_traffic(w: Workload, size: &Size, seed: u64, packets: u64) -> f64 {
    let types = traffic_types(w);
    let per_type = (packets / types.len() as u64).clamp(1, 100_000);
    let t = Instant::now();
    for (i, f) in types.iter().enumerate() {
        let spec = f.spec(scale_of(w, size), rig::flow_seed(seed, i));
        // The generator spec `pp_click::pipelines::FlowSpec` derives for
        // these chains (IP: random destinations; others: a flow population).
        let traffic = match f {
            FlowType::Ip => TrafficSpec::random_dst(spec.frame_len(), spec.seed ^ 0xA5A5),
            _ => TrafficSpec::flow_population(
                spec.frame_len(),
                spec.flow_population,
                spec.seed ^ 0xA5A5,
            ),
        };
        let mut gen = TrafficGen::new(traffic);
        let mut pkt = gen.next_packet();
        for _ in 1..per_type {
            gen.next_packet_into(&mut pkt);
        }
        std::hint::black_box(&pkt);
    }
    t.elapsed().as_nanos() as f64 / (per_type * types.len() as u64) as f64
}

/// Per-layer metrics from a traced run (`traced`, its spans) and the
/// untraced run beside it (`base`, its wall seconds).
pub fn per_layer(
    base: &Outcome,
    base_wall_s: f64,
    traced: &Outcome,
    spans: &[Span],
    gen_ns_per_pkt: f64,
) -> Vec<Metric> {
    let (layers, calls) = trace::summarize(spans);
    let total_s = |name: &str| calls.get(name).map_or(0.0, |c| c.total_ns as f64 / 1e9);
    let mean_us = |name: &str| {
        calls
            .get(name)
            .map_or(0.0, |c| c.total_ns as f64 / 1e3 / c.calls.max(1) as f64)
    };
    let rounds = f64::from(traced.rounds.max(1));
    let s = &base.sim;
    let c = &s.counts;
    let per_pkt = |v: u64| v as f64 / c.packets.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    for m in host_speed(base) {
        set(&m.name, m.value);
    }
    set("sim.p99_worst_us", s.p99_worst_us);
    let run_s = total_s("sim.run");
    set("sim.run_s", run_s / rounds);
    set(
        "sim.host_ns_per_access",
        run_s * 1e9 / rounds / c.l1_refs.max(1) as f64,
    );
    set("sim.l1_refs_per_pkt", per_pkt(c.l1_refs));
    set("sim.l1_hit_ratio", ratio(c.l1_hits, c.l1_refs));
    set("sim.l2_hit_ratio", ratio(c.l2_hits, c.l2_refs));
    set("sim.l3_hit_ratio", ratio(c.l3_hits, c.l3_refs));
    set("sim.l3_misses_per_pkt", per_pkt(c.l3_misses));
    set("sim.cycles_per_pkt", per_pkt(c.cycles()));
    set("sim.stall_cycles_per_pkt", per_pkt(c.stall_cycles));
    set("sim.cpi", c.cpi().unwrap_or(0.0));
    set("sim.memctrl.util", s.memctrl_peak_util);
    set(
        "sim.memctrl.queue_delay_cy",
        ratio(s.memctrl.total_queue_delay, s.memctrl.reads),
    );
    set("sim.memctrl.reads_per_pkt", per_pkt(s.memctrl.reads));
    set("sim.machine_new_s", total_s("sim.machine_new") / rounds);
    set("sim.warmup_s", total_s("sim.warmup") / rounds);
    set("sim.measure_us", mean_us("sim.measure"));
    let d = &s.drops;
    for (k, x) in [
        ("nic_rx_exhausted", d.nic_rx_exhausted),
        ("queue_full", d.queue_full),
        ("wire_overflow", d.wire_overflow),
        ("shed", d.shed),
        ("drained", d.drained),
    ] {
        set(&format!("sim.drops.{k}"), x as f64);
    }
    set("net.gen_ns_per_pkt", gen_ns_per_pkt);
    set(
        "net.gen_share_est",
        gen_ns_per_pkt * base.packets as f64 / 1e9 / base_wall_s,
    );
    set("click.build_s", total_s("click.build") / rounds);
    for tag in [
        "framework",
        "rx_desc",
        "tx_desc",
        "check_ip_header",
        "radix_ip_lookup",
        "dec_ip_ttl",
    ] {
        let cy = s.tags.get(tag).map_or(0, |t| t.cycles());
        set(&format!("click.tag.{tag}.cycles_per_pkt"), per_pkt(cy));
    }
    set("core.profile_s", total_s("core.profile") / rounds);
    set("core.ramp_s", total_s("core.ramp") / rounds);
    set("core.mix_s", total_s("core.mix") / rounds);
    set("core.predict_us", mean_us("core.predict"));
    set("core.fleet.tick_us", mean_us("core.fleet.tick"));
    set("core.telemetry.ingest_us", mean_us("core.telemetry.ingest"));
    for m in &base.extra {
        set(&m.name, m.value);
    }
    set(
        "error_rate",
        base.failed as f64 / base.attempted.max(1) as f64,
    );
    for l in LAYERS {
        let t = layers.get(l).copied().unwrap_or_default();
        set(
            &format!("layer.{l}.self_s"),
            t.self_ns as f64 / 1e9 / rounds,
        );
        set(
            &format!("layer.{l}.wall_share"),
            t.wall_ns / 1e9 / base_wall_s,
        );
    }
    let traced_wall: f64 = layers.values().map(|l| l.wall_ns).sum::<f64>() / 1e9;
    set(
        "trace.overhead",
        kpps_host(traced) / kpps_host(base).max(1e-9),
    );
    set("trace.account", traced_wall / base_wall_s);
    set("trace.spans", spans.len() as f64);
    set(
        "trace.digest_match",
        f64::from(u8::from(traced.digests.first() == base.digests.first())),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// End-to-end figures only one workload produces (from its `extra`).
const WORKLOAD_E2E: [&str; 3] = ["pred_err_max_pp", "pred_err_mean_pp", "loss_pct"];

/// Every end-to-end figure the workload produces, bounded or not: the
/// `BENCHMARK.json` four, the host-speed three, prediction error or loss
/// where the workload has them, and the error rate.
pub fn all_end_to_end(out: &Outcome) -> Vec<Metric> {
    let mut all = end_to_end(out).unwrap_or_default();
    all.extend(host_speed(out));
    let own = ["pred_err_max_pp", "pred_err_mean_pp", "loss_pct"];
    all.extend(
        out.extra
            .iter()
            .filter(|m| own.contains(&m.name.as_str()))
            .cloned(),
    );
    all.push(Metric::new(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    ));
    all
}

/// The human-readable report of the end-to-end metrics: all eleven the
/// benchmark defines, with units and sample counts, `n/a` where the
/// workload does not produce one.
pub fn describe(w: Workload, out: &Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    let extra = |name: &str| out.extra.iter().find(|m| m.name == name).map(|m| m.value);
    let n_ops = out.op_ms.len();
    let pct = |p: f64| match stats::percentile(&out.op_ms, p) {
        Some(x) => format!("{:.4} ms (n={}, {} beyond)", x.value, x.n, x.beyond),
        None => format!(
            "n/a (n={n_ops}: fewer than {} samples beyond)",
            stats::MIN_BEYOND
        ),
    };
    let med = stats::median(&out.setup_s).unwrap_or(0.0);
    lines.push(format!(
        "setup_s          {med:.4} s (median of n={} set-ups)",
        out.setup_s.len()
    ));
    lines.push(format!(
        "sim_kpps_host    {:.3} kpkt/s (n={n_ops} ops, {} packets)",
        kpps_host(out),
        out.packets
    ));
    lines.push(format!("op_ms_p50        {}", pct(50.0)));
    lines.push(format!("op_ms_p90        {}", pct(90.0)));
    lines.push(format!("peak_rss_mb      {:.1} MB (n=1)", peak_rss_mb()));
    lines.push(format!(
        "sim_mpps         {:.6} Mpkt/s simulated (deterministic per seed)",
        out.sim.mpps
    ));
    lines.push(format!(
        "sim_p99_us       {:.4} us simulated (geometric mean of the flows' p99; worst flow {:.4} us)",
        out.sim.p99_us, out.sim.p99_worst_us
    ));
    let opt = |name: &str, unit: &str, only: Workload| match extra(name) {
        Some(x) if w == only => format!("{x:.4} {unit}"),
        _ => format!("n/a ({} only)", only.name()),
    };
    lines.push(format!(
        "pred_err_max_pp  {}",
        opt("pred_err_max_pp", "pp", Workload::Predict)
    ));
    lines.push(format!(
        "pred_err_mean_pp {}",
        opt("pred_err_mean_pp", "pp", Workload::Predict)
    ));
    lines.push(format!(
        "loss_pct         {}",
        opt("loss_pct", "%", Workload::Fleet)
    ));
    lines.push(format!(
        "error_rate       {:.6} ({} failed of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    let digests: Vec<String> = out.digests.iter().map(|d| format!("{d:#018x}")).collect();
    let same = out.digests.windows(2).all(|p| p[0] == p[1]);
    lines.push(format!(
        "model digest     {} ({} rounds, {})",
        digests.first().cloned().unwrap_or_default(),
        out.rounds,
        if same { "identical" } else { "DIFFER" }
    ));
    for m in out
        .extra
        .iter()
        .filter(|m| !WORKLOAD_E2E.contains(&m.name.as_str()))
    {
        lines.push(format!("{:<16} {:.4} {}", m.name, m.value, m.unit));
    }
    lines.extend(out.notes.iter().cloned());
    lines
}

/// Run the command line; returns the exit code.
pub fn main_with(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <solo|corun|predict|fleet> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    let host = host::HostRecord::read();
    let size = Size::full();
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu={:?} rustc={:?} commit={} profile={}",
        host.nproc, host.cpu_model, host.rustc, host.commit, host.profile
    );
    println!("model: checked only against the paper's published numbers (Table 1, Fig. 9), not against hardware");
    let line = if !args.trace {
        let (out, _) = run_workload(
            w,
            &size,
            args.seed,
            Budget::Seconds(args.seconds),
            &Tracer::new(false),
        );
        for l in describe(w, &out) {
            println!("  {l}");
        }
        let Some(metrics) = end_to_end(&out) else {
            eprintln!("perfbench: the run completed no round");
            return 1;
        };
        let all = ResultLine {
            correct: out.failed == 0,
            attempted: out.attempted,
            failed: out.failed,
            metrics: all_end_to_end(&out),
        };
        if let Ok(json) = all.to_json() {
            println!("e2e {json}");
        }
        ResultLine { metrics, ..all }
    } else {
        // One-round runs, untraced and traced in turn, so both arms see
        // the same host conditions.
        let (mut base, mut traced) = (Outcome::default(), Outcome::default());
        let mut base_wall = 0.0;
        let tr = Tracer::new(true);
        let t = Instant::now();
        while base.rounds == 0
            || t.elapsed().as_secs_f64() < args.seconds
            || base.op_ms.len() < size.min_ops
        {
            let (o, wall) =
                run_workload(w, &size, args.seed, Budget::Rounds(1), &Tracer::new(false));
            base.absorb(o);
            base_wall += wall;
            traced.absorb(run_workload(w, &size, args.seed, Budget::Rounds(1), &tr).0);
        }
        let spans = tr.take();
        let gen = replay_traffic(w, &size, args.seed, base.sim.counts.packets);
        let metrics = per_layer(&base, base_wall, &traced, &spans, gen);
        for l in describe(w, &base) {
            println!("  {l}");
        }
        for m in &metrics {
            println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let account = metrics
            .iter()
            .find(|m| m.name == "trace.account")
            .map_or(0.0, |m| m.value);
        println!(
            "  layer wall time accounts for {:.1}% of the untraced wall time (tolerance ±{:.0}%): {}",
            account * 100.0,
            ACCOUNT_TOLERANCE * 100.0,
            if (account - 1.0).abs() <= ACCOUNT_TOLERANCE { "within" } else { "OUTSIDE" }
        );
        let path = format!(".bench_out/trace-{}-{}.jsonl", w.name(), args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&path, trace::to_json_lines(&spans)));
        match written {
            Ok(()) => println!("  spans: {} written to {path}", spans.len()),
            Err(e) => println!("  spans: {} not written ({e})", spans.len()),
        }
        let digest_ok = traced
            .digests
            .iter()
            .all(|d| Some(d) == base.digests.first());
        let failed = base.failed + traced.failed + if digest_ok { 0 } else { traced.attempted };
        ResultLine {
            correct: failed == 0,
            attempted: base.attempted + traced.attempted,
            failed,
            metrics,
        }
    };
    match line.to_json() {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&args("--workload fleet --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Fleet,
                seed: 9,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload solo --seed x --seconds 1 --trace 0",
            "--workload solo --seed 1 --seconds 0 --trace 0",
            "--workload solo --seed 1 --seconds 1 --trace 2",
            "--workload solo --seed 1 --seconds 1",
            "--workload solo --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload solo --workload solo --seed 1 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str, unit: &str| {
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in PER_LAYER {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let out = Outcome {
            setup_s: vec![1.0],
            ..Outcome::default()
        };
        let e2e = end_to_end(&out).expect("one round");
        for m in &e2e {
            assert!(
                listed(&m.name, &m.unit),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            e2e.len() + PER_LAYER.len() + 4
        );
    }

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(report::valid_name(name), "{name}");
            assert!(report::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} repeated");
        }
    }
}
