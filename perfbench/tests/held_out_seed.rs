//! One small run of every workload at a seed never used to tune the
//! benchmark: every output check passes, the error rate is 0, and the
//! traced run reproduces the untraced model digest exactly.

use perfbench::trace::Tracer;
use perfbench::workloads::{Budget, Size, Workload};
use perfbench::{per_layer, run_workload, PER_LAYER};

const HELD_OUT_SEED: u64 = 90_210;

#[test]
fn every_workload_passes_its_checks_at_a_held_out_seed() {
    let size = Size::smoke();
    for w in Workload::ALL {
        let (base, wall) = run_workload(
            w,
            &size,
            HELD_OUT_SEED,
            Budget::Rounds(2),
            &Tracer::new(false),
        );
        assert!(base.attempted > 0, "{}: ops ran", w.name());
        assert_eq!(
            base.failed,
            0,
            "{}: error_rate is 0 ({:?})",
            w.name(),
            base.notes
        );
        assert_eq!(base.digests.len(), 2);
        assert_eq!(
            base.digests[0],
            base.digests[1],
            "{}: rounds replay the seed",
            w.name()
        );

        let tr = Tracer::new(true);
        let (traced, _) = run_workload(w, &size, HELD_OUT_SEED, Budget::Rounds(1), &tr);
        let spans = tr.take();
        assert_eq!(traced.failed, 0, "{}: traced checks", w.name());
        assert_eq!(
            traced.digests[0],
            base.digests[0],
            "{}: tracing perturbs nothing simulated",
            w.name()
        );
        assert!(
            spans.iter().any(|s| s.name == "sim.run"),
            "{}: sim.run traced",
            w.name()
        );

        let metrics = per_layer(&base, wall, &traced, &spans, 1.0);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(get("error_rate"), Some(0.0));
        assert_eq!(get("trace.digest_match"), Some(1.0));
        assert!(
            metrics.iter().all(|m| m.value.is_finite()),
            "{}: finite metrics",
            w.name()
        );
    }
}
