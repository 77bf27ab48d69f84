//! The per-layer metric catalogue.
//!
//! Every traced run reports every name below, in this order, so one
//! list (mirrored by `BENCHMARK.json` `per_layer`) serves all
//! workloads. A layer a workload does not exercise reads 0 and is
//! listed under `not_exercised` in the report line. `NOTES.md` names
//! the end-to-end metric and workload each one should move.

use caladrius_api::json::Value;
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("api.http.rtt_ms.plan_submit", "ms"),
    ("api.http.rtt_ms.job_poll", "ms"),
    ("api.http.rtt_ms.evaluate", "ms"),
    ("api.http.rtt_ms.packing", "ms"),
    ("api.http.rtt_ms.fleet_plan_submit", "ms"),
    ("api.http.rtt_ms.fleet_job_poll", "ms"),
    ("api.http.handler_ms.plan_submit", "ms"),
    ("api.http.handler_ms.job_poll", "ms"),
    ("api.http.handler_ms.evaluate", "ms"),
    ("api.http.handler_ms.packing", "ms"),
    ("api.http.handler_ms.fleet_plan_submit", "ms"),
    ("api.http.handler_ms.fleet_job_poll", "ms"),
    ("api.http.edge_wait_ms", "ms"),
    ("api.http.requests_per_op", "count"),
    ("api.jobs.queue_wait_ms", "ms"),
    ("api.jobs.run_ms", "ms"),
    ("api.jobs.polls_per_job", "count"),
    ("api.json.response_bytes.plan", "bytes"),
    ("api.json.response_bytes.fleet_plan", "bytes"),
    ("api.json.response_bytes.evaluate", "bytes"),
    ("api.json.response_bytes.packing", "bytes"),
    ("api.json.parse_ms.fleet_plan", "ms"),
    ("core.service.evaluate_ms", "ms"),
    ("core.service.fit_ms", "ms"),
    ("core.service.model_cache_hit_ratio", "ratio"),
    ("core.service.incremental_fit_share", "ratio"),
    ("core.accuracy.score_ms", "ms"),
    ("core.capacity.plan_ms", "ms"),
    ("core.capacity.plan_cache_hit_ratio", "ratio"),
    ("core.capacity.warm_start_share", "ratio"),
    ("core.capacity.oracle_memo_hit_ratio", "ratio"),
    ("core.capacity.oracle_evals_per_plan", "count"),
    ("tsdb.ingest_us", "us"),
    ("tsdb.read_ms", "ms"),
    ("tsdb.tail_cache_hit_ratio", "ratio"),
    ("tsdb.storage_bytes", "bytes"),
    ("forecast.prophet_ms", "ms"),
    ("forecast.stats_summary_ms", "ms"),
    ("planner.search_ms", "ms"),
    ("planner.windows", "count"),
    ("planner.oracle_evals", "count"),
    ("heron-sim.replay_ms", "ms"),
    ("heron-sim.events", "count"),
    ("heron-sim.closed_form_ticks", "count"),
    ("heron-sim.ticks_skipped", "count"),
    ("heron-sim.fallback_windows", "count"),
    ("graph.packing_ms", "ms"),
    ("fleet.plan_ms.steady", "ms"),
    ("fleet.plan_ms.drift", "ms"),
    ("fleet.plan_ms.alldrift", "ms"),
    ("fleet.unchanged", "count"),
    ("fleet.drifted", "count"),
    ("fleet.cold", "count"),
    ("fleet.shard_plan_ms_max", "ms"),
    ("fleet.shard_plan_ms_mean", "ms"),
    ("fleet.allocator_ms", "ms"),
    ("exec.tasks.fit", "count"),
    ("exec.tasks.planner", "count"),
    ("exec.tasks.fleet-plan", "count"),
    ("exec.task_ms_p50.fit", "ms"),
    ("exec.task_ms_p50.planner", "ms"),
    ("exec.task_ms_p50.fleet-plan", "ms"),
    ("exec.queue_depth_max", "count"),
    ("span.http.request.self_ms", "ms"),
    ("span.api.job.self_ms", "ms"),
    ("span.core.plan.self_ms", "ms"),
    ("span.core.fit.self_ms", "ms"),
    ("span.core.evaluate.self_ms", "ms"),
    ("span.fleet.plan.self_ms", "ms"),
    ("span.fleet.shard.plan.self_ms", "ms"),
    ("span.fleet.ingest.self_ms", "ms"),
    ("span.sim.run.self_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.lost_spans", "count"),
];

/// The program spans whose self time is reported as
/// `span.<name>.self_ms`.
pub const SPANS: &[&str] = &[
    "http.request",
    "api.job",
    "core.plan",
    "core.fit",
    "core.evaluate",
    "fleet.plan",
    "fleet.shard.plan",
    "fleet.ingest",
    "sim.run",
];

/// Per-layer values measured by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records a catalogue metric. Panics on a name outside the
    /// catalogue: that is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = CATALOGUE
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name:?} is not in the per-layer catalogue"));
        assert!(value.is_finite(), "{name} measured {value}");
        self.values.insert(name, value);
    }

    /// Every catalogue metric in catalogue order; unmeasured ones read 0.
    pub fn metrics(&self) -> Vec<crate::Metric> {
        CATALOGUE
            .iter()
            .map(|(name, unit)| crate::Metric {
                name: name.to_string(),
                unit,
                value: self.values.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }

    pub fn not_exercised_json(&self) -> Value {
        Value::Array(
            CATALOGUE
                .iter()
                .filter(|(name, _)| !self.values.contains_key(name))
                .map(|(name, _)| Value::from(*name))
                .collect(),
        )
    }

    pub fn print(&self) {
        println!("  per-layer (traced phase):");
        for m in self.metrics() {
            if self.values.contains_key(m.name.as_str()) {
                println!("    {:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
    }
}
