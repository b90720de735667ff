//! The names every later claim uses: end-to-end metrics with their
//! regression bounds, per-layer metrics with their units. `BENCHMARK.json`
//! lists the same tables (a test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may get worse before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// Measured with tracing off, reported on every workload.
///
/// Every bound is the widest the driver's contract allows. The driver takes
/// the spread of a metric over runs at *different* seeds, so it contains the
/// draw of the topologies as well as the clock, and this host's speed was
/// seen to change by half for minutes at a time (README, "Spread and
/// bounds"). Runs at one seed agree far more closely; `compare` reports the
/// shift in percent beside its verdict.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "e2e_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "verdict_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "deliveries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count (or a ratio of counts) made by the program: it must repeat
    /// exactly from repetition to repetition and from run to run at one
    /// seed. A drift is a behaviour change and is never averaged.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Measured in the traced pass, from outside the layer crates. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Layer; 78] = [
    timed("scenarios.parse_us", "us"),
    timed("scenarios.generate_ms", "ms"),
    timed("groups.cyclic_families_ms", "ms"),
    count("groups.cyclic_families", "count", Lower),
    timed("detectors.mu_new_ms", "ms"),
    timed("detectors.gamma_groups_ns", "ns"),
    timed("core.runtime_new_ms", "ms"),
    timed("core.runtime_new_self_ms", "ms"),
    timed("core.multicast_ns", "ns"),
    timed("core.run_ms", "ms"),
    count("core.steps", "count", Lower),
    count("core.actions", "count", Lower),
    count("core.idle_ticks", "count", Lower),
    count("core.deliveries", "count", Higher),
    timed("core.ns_per_step", "ns"),
    rate("core.steps_per_s", "1/s"),
    count("core.actions_per_delivery", "ratio", Lower),
    count("core.units", "count", Lower),
    count("core.batch_width_mean", "ratio", Higher),
    count("core.latency_ticks_p50", "ticks", Lower),
    count("core.latency_ticks_p99", "ticks", Lower),
    timed("core.report_us", "us"),
    timed("core.fold_state_us", "us"),
    timed("core.spec.check_all_ms", "ms"),
    timed("core.spec.integrity_ms", "ms"),
    timed("core.spec.ordering_ms", "ms"),
    timed("core.spec.termination_ms", "ms"),
    timed("core.spec.minimality_ms", "ms"),
    timed("engine.shard.specs_us", "us"),
    count("engine.shard.count", "count", Higher),
    count("engine.shard.cross_permille", "permille", Higher),
    timed("core.shard.clone_us", "us"),
    timed("core.shard.record_sum_ms", "ms"),
    timed("core.shard.record_max_ms", "ms"),
    timed("core.shard.merge_ms", "ms"),
    timed("engine.shard.overhead_ms", "ms"),
    rate("engine.shard.speedup", "ratio"),
    timed("engine.enabled_actions_ns", "ns"),
    timed("engine.step_ns", "ns"),
    timed("engine.is_quiescent_ns", "ns"),
    timed("engine.fingerprint_us", "us"),
    timed("engine.snapshot_us", "us"),
    timed("engine.restore_us", "us"),
    count("engine.snapshot_bytes", "bytes", Lower),
    count("engine.snapshot_deep_bytes", "bytes", Lower),
    timed("engine.visited_insert_ns", "ns"),
    timed("engine.loop_ns_per_step", "ns"),
    timed("engine.enabled_actions_share", "ratio"),
    rate("engine.step_share", "ratio"),
    timed("engine.vs_sustained_x", "ratio"),
    timed("explore.partition_ms", "ms"),
    count("explore.leaves", "count", Lower),
    count("explore.steps_executed", "count", Lower),
    count("explore.steps_avoided", "count", Higher),
    count("explore.snapshots", "count", Lower),
    count("explore.snapshot_bytes", "bytes", Lower),
    count("explore.dedup_hits", "count", Higher),
    count("explore.por_pruned", "count", Higher),
    timed("explore.us_per_leaf", "us"),
    rate("explore.leaves_per_s", "1/s"),
    timed("explore.describe_enabled_us", "us"),
    timed("explore.commute_ns", "ns"),
    count("kernel.steps", "count", Lower),
    count("kernel.msgs_sent", "count", Lower),
    count("kernel.msgs_per_delivery", "ratio", Lower),
    count("kernel.steps_per_delivery", "ratio", Lower),
    timed("objects.paxos_decide_us", "us"),
    timed("objects.abd_write_read_us", "us"),
    timed("objects.log_append_ns", "ns"),
    timed("objects.log_bump_lock_ns", "ns"),
    timed("objects.consensus_propose_ns", "ns"),
    rate("bench.reps", "count"),
    rate("bench.tail_rank", "%"),
    timed("bench.e2e_ms_tail", "ms"),
    timed("bench.e2e_ms_iqr", "ms"),
    timed("bench.trace_overhead_pct", "%"),
    timed("bench.timer_ns", "ns"),
    timed("bench.failed_share", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
