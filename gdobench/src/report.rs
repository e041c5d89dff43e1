//! Turning what a run measured into its checks and metrics: the
//! end-to-end metrics every workload reports, the per-layer metrics read
//! from the outside spans and from a traced pass's `RunReport`, and the
//! checks shared by every workload.

use crate::measure::{median, peak_rss_mb, ratio, tail, Checks, Metrics, Spans};
use gdo::GdoStats;
use partition::PartitionStats;
use std::collections::BTreeMap;
use telemetry::RunReport;

/// Work counters that must repeat exactly for the same seed.
const EXACT_COUNTERS: [&str; 8] = [
    "sat.prove_calls",
    "sat.conflicts",
    "gdo.funnel.c2.proofs",
    "gdo.funnel.c3.proofs",
    "gdo.funnel.const.proofs",
    "gdo.funnel.c2.applied",
    "gdo.funnel.c3.applied",
    "gdo.funnel.const.applied",
];

/// The set-up layers, timed per repetition.
const SETUP_LAYERS: [&str; 5] = [
    "workloads.generate",
    "workloads.script",
    "formats.parse",
    "library.map",
    "timing.full_sta",
];

fn counter(report: &RunReport, key: &str) -> u64 {
    report.counters.get(key).copied().unwrap_or(0)
}

fn span_s(report: &RunReport, key: &str) -> f64 {
    report.spans.get(key).map_or(0.0, |s| s.total_s)
}

/// Sums the counters of `s` into `into` (QoR, funnel and proof counts).
pub fn add_stats(into: &mut GdoStats, s: &GdoStats) {
    into.gates_before += s.gates_before;
    into.gates_after += s.gates_after;
    into.literals_before += s.literals_before;
    into.literals_after += s.literals_after;
    into.delay_before += s.delay_before;
    into.delay_after += s.delay_after;
    into.sub2_mods += s.sub2_mods;
    into.sub3_mods += s.sub3_mods;
    into.const_mods += s.const_mods;
    into.resub_mods += s.resub_mods;
    into.proofs += s.proofs;
    into.proofs_valid += s.proofs_valid;
    into.rounds += s.rounds;
    into.verify_rollbacks += s.verify_rollbacks;
    into.budget_exhausted |= s.budget_exhausted;
}

/// Checks every traced pass's funnel against its summary, and that the
/// exact counters repeat from one traced pass to the next.
pub fn check_traced(checks: &mut Checks, reports: &[RunReport]) {
    for report in reports {
        let errors = bench::funnel_consistency_errors(report);
        checks.require(errors.is_empty(), || {
            format!("telemetry funnel inconsistent: {}", errors.join("; "))
        });
    }
    if let Some((a, rest)) = reports.split_first() {
        for b in rest {
            for key in EXACT_COUNTERS {
                let (x, y) = (counter(a, key), counter(b, key));
                checks.require(x == y, || format!("{key} not repeatable: {x} vs {y}"));
            }
        }
    }
}

/// Checks that the outside spans cover the run's wall time and returns
/// the covered share.
pub fn check_coverage(checks: &mut Checks, run: &Spans) -> f64 {
    let coverage = run.covered() / run.wall();
    checks.require((0.98..=1.0 + 1e-9).contains(&coverage), || {
        format!("outside spans cover {:.2}% of the run", 100.0 * coverage)
    });
    coverage
}

/// What a workload measured for its end-to-end metrics.
pub struct EndToEnd {
    /// Wall time of each set-up repetition.
    pub setup: Vec<f64>,
    /// Optimize time of each untraced pass.
    pub optimize: Vec<f64>,
    /// Latency of each operation of the untraced passes, grouped by
    /// operation kind (netlist or circuit).
    pub latencies: Vec<Vec<f64>>,
    /// Operations in one pass; a run makes at least two untraced passes.
    pub ops_per_pass: usize,
    /// Σ delay before and after, over the workload's netlists.
    pub delay: (f64, f64),
    /// Σ literals before and after.
    pub literals: (f64, f64),
}

impl EndToEnd {
    fn delay_after_pct(&self) -> f64 {
        100.0 * ratio(self.delay.1, self.delay.0)
    }

    fn literals_after_pct(&self) -> f64 {
        100.0 * ratio(self.literals.1, self.literals.0)
    }

    fn all_latencies(&self) -> Vec<f64> {
        self.latencies.iter().flatten().copied().collect()
    }

    /// The median over operation kinds of each kind's median latency.
    /// Every kind is equally frequent, so this estimates the p50 of the pooled
    /// latencies, read from each kind's middle rather than from the
    /// edge of whichever kind the pooled median lands in. Pooled,
    /// `rewrite_dense`'s two fast netlists and one slow one put the p50
    /// at the fast ones' upper quartile, and `proof_bound`'s at the
    /// slower x3 pass and the faster apex6 one: the samples a noisy host
    /// moves most.
    fn p50(&self) -> f64 {
        let kinds: Vec<f64> = self.latencies.iter().map(|k| median(k)).collect();
        median(&kinds)
    }

    fn tail(&self) -> (f64, String) {
        tail(&self.latencies, 2 * self.ops_per_pass)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    #[allow(clippy::cast_precision_loss)]
    pub fn put(&self, m: &mut Metrics) {
        let all = self.all_latencies();
        m.put("setup_s", median(&self.setup), "s");
        m.put("optimize_s", median(&self.optimize), "s");
        m.put("delay_after_pct", self.delay_after_pct(), "%");
        m.put("literals_after_pct", self.literals_after_pct(), "%");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("latency_p50_s", self.p50(), "s");
        m.put("latency_tail_s", self.tail().0, "s");
        m.put(
            "throughput_jobs_per_s",
            ratio(all.len() as f64, self.optimize.iter().sum()),
            "1/s",
        );
    }

    /// The report-line numbers that go with the metrics.
    pub fn describe(&self, info: &mut BTreeMap<String, String>) {
        let mut put = |k: &str, v: String| info.insert(k.to_string(), v);
        let passes: Vec<String> = self.optimize.iter().map(|s| format!("{s:.4}")).collect();
        put("pass_optimize_s", passes.join(","));
        put("setup_reps", self.setup.len().to_string());
        put("latency_samples", self.all_latencies().len().to_string());
        put("latency_tail_percentile", self.tail().1);
        let delay = 100.0 - self.delay_after_pct();
        put("delay_reduction_pct", delay.to_string());
        let literals = 100.0 - self.literals_after_pct();
        put("literal_reduction_pct", literals.to_string());
    }
}

/// The set-up layer metrics: each layer's median over the repetitions.
pub fn put_setup_layers(m: &mut Metrics, reps: &[Spans]) {
    for layer in SETUP_LAYERS {
        let times: Vec<f64> = reps.iter().map(|s| s.total(layer)).collect();
        m.put(&format!("{layer}_s"), median(&times), "s");
    }
}

/// The GDO, SAT, simulation and incremental-STA layer metrics of one
/// traced pass. Spans are inclusive and overlap; they are never summed.
#[allow(clippy::cast_precision_loss)]
pub fn put_gdo_layers(m: &mut Metrics, report: &RunReport, stats: &GdoStats) {
    let c = |key: &str| counter(report, key) as f64;
    let funnel = |stage: &str| -> f64 {
        bench::FUNNEL_CLASSES
            .iter()
            .map(|class| bench::funnel_count(report, class, stage) as f64)
            .sum()
    };
    m.put("gdo.prove_s", span_s(report, "gdo.prove"), "s");
    m.put("sat.prove_calls", c("sat.prove_calls"), "count");
    m.put("sat.conflicts", c("sat.conflicts"), "count");
    m.put("sat.propagations", c("sat.propagations"), "count");
    m.put("gdo.proofs", stats.proofs as f64, "count");
    m.put(
        "gdo.proof_yield",
        ratio(stats.proofs_valid as f64, stats.proofs as f64),
        "ratio",
    );
    m.put(
        "gdo.proofs_per_rewrite",
        ratio(stats.proofs as f64, stats.total_mods() as f64),
        "ratio",
    );
    m.put("gdo.round.bpfs_s", span_s(report, "gdo.round.bpfs"), "s");
    m.put("sim.vectors", c("sim.vectors"), "count");
    m.put("sim.obs_cone_gates", c("sim.obs_cone_gates"), "count");
    m.put(
        "gdo.bpfs_kill_ratio",
        1.0 - ratio(funnel("bpfs_survived"), funnel("filtered")),
        "ratio",
    );
    m.put(
        "gdo.round.candidates_s",
        span_s(report, "gdo.round.candidates"),
        "s",
    );
    m.put(
        "gdo.candidates.considered",
        c("gdo.candidates.considered"),
        "count",
    );
    m.put("gdo.candidates.kept", c("gdo.candidates.kept"), "count");
    m.put("gdo.round.apply_s", span_s(report, "gdo.round.apply"), "s");
    m.put("gdo.applied", stats.total_mods() as f64, "count");
    m.put(
        "sta.incremental_updates",
        c("sta.incremental_updates"),
        "count",
    );
    m.put("sta.dirty_signals", c("sta.dirty_signals"), "count");
}

/// The partition layer metrics (zeros for whole-netlist workloads).
#[allow(clippy::cast_precision_loss)]
pub fn put_partition_layers(
    m: &mut Metrics,
    report: &RunReport,
    ps: Option<&PartitionStats>,
    threads: usize,
) {
    let wall = span_s(report, "partition.optimize");
    let (regions, rewrites, conflicts, busy) = match ps {
        Some(ps) => (
            ps.regions as f64,
            ps.region_rewrites as f64,
            ps.stitch_conflicts as f64,
            ratio(span_s(report, "gdo.optimize"), threads as f64 * wall),
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    m.put("partition.optimize_s", wall, "s");
    m.put("partition.regions", regions, "count");
    m.put("partition.region_rewrites", rewrites, "count");
    m.put("partition.stitch_conflicts", conflicts, "count");
    m.put("partition.region_busy_ratio", busy, "ratio");
}

/// Gateway layer numbers of a served pass.
#[derive(Default)]
pub struct GatewayLayers {
    pub admit_s: f64,
    pub queue_wait_p50_s: f64,
    pub run_p50_s: f64,
    pub cache_hit_ratio: f64,
    pub shed: u64,
}

impl GatewayLayers {
    /// The gateway layer metrics (zeros for offline workloads).
    #[allow(clippy::cast_precision_loss)]
    pub fn put(&self, m: &mut Metrics) {
        m.put("gateway.admit_s", self.admit_s, "s");
        m.put("gateway.queue_wait_p50_s", self.queue_wait_p50_s, "s");
        m.put("gateway.run_p50_s", self.run_p50_s, "s");
        m.put("gateway.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        m.put("gateway.shed", self.shed as f64, "count");
    }
}

/// The benchmark's own costs: verification, tracing overhead (traced
/// against untraced optimize time) and the trace's coverage.
pub fn put_own_layers(
    m: &mut Metrics,
    write_s: f64,
    verify_s: f64,
    optimize: (&[f64], &[f64]),
    coverage: f64,
) {
    m.put("formats.write_s", write_s, "s");
    m.put("sat.verify_s", verify_s, "s");
    let (untraced, traced) = optimize;
    m.put(
        "telemetry.overhead_pct",
        100.0 * (ratio(median(traced), median(untraced)) - 1.0),
        "%",
    );
    m.put("trace.span_coverage_pct", 100.0 * coverage, "%");
}
