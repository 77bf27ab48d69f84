//! The Caladrius service: orchestration of providers, traffic models and
//! performance models into the dry-run evaluation the paper's §V
//! demonstrates (Heron `update --dry-run` semantics: "the new packing
//! plan and the expected throughput is calculated without requiring
//! topology deployment").

use crate::accuracy::{AccuracyMonitor, AccuracySummary, PendingPrediction, PredictionKind};
use crate::config::CaladriusConfig;
use crate::error::{CoreError, Result};
use crate::model::component::{ComponentFitStats, GroupingKind};
use crate::model::cpu::{CpuFitStats, CpuModel};
use crate::model::topology::{BackpressureRisk, TopologyModel, TopologyPrediction};
use crate::model::traits::{ModelOutput, ModelRegistry, PerformanceQuery};
use crate::providers::graph::GraphService;
use crate::providers::metrics::{
    component_observations, cpu_observations, source_history, MetricsProvider,
};
use crate::providers::tracker::TopologyTracker;
use crate::traffic::{TrafficForecast, TrafficModelRegistry};
use caladrius_forecast::{DataPoint, Forecaster, UpdateOutcome};
use caladrius_obs::{Counter, Histogram};
use caladrius_tsdb::DataVersion;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// How the evaluation picks the source rate to model against.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceRateSpec {
    /// The mean observed source rate over the most recent minutes.
    Current,
    /// An explicit rate in tuples/min (what-if analysis).
    Fixed(f64),
    /// The forecast peak over the configured horizon — the preemptive
    /// scaling case. `conservative` uses the forecast's upper bound.
    Forecast {
        /// Traffic model name (defaults to the first configured).
        model: Option<String>,
        /// Use the interval's upper bound instead of the point forecast.
        conservative: bool,
    },
}

/// A full dry-run evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Topology evaluated.
    pub topology: String,
    /// Parallelism overrides the evaluation assumed.
    pub proposed_parallelisms: BTreeMap<String, u32>,
    /// Source rate (tuples/min) the prediction was made at.
    pub source_rate: f64,
    /// Traffic forecast backing the source rate, when one was requested.
    pub traffic: Option<TrafficForecast>,
    /// Outputs of every configured performance model.
    pub model_outputs: Vec<ModelOutput>,
    /// The detailed throughput prediction.
    pub prediction: TopologyPrediction,
    /// Eq. 14 risk classification.
    pub risk: BackpressureRisk,
    /// The topology saturation point `t'₀`, if observable.
    pub saturation_rate: Option<f64>,
    /// Predicted total CPU load (cores) per bolt under the proposal.
    pub cpu_by_component: BTreeMap<String, f64>,
}

/// Structural summary of a proposed packing plan (paper §III-C1's graph
/// calculation interface).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingOverview {
    /// Containers used.
    pub containers: usize,
    /// Instances placed.
    pub total_instances: usize,
    /// Largest number of instances on a single container (stream-manager
    /// load concentration — see the `stmgr_ablation` bench for why this
    /// matters).
    pub max_instances_per_container: usize,
    /// Standard deviation of instances per container (0 = perfectly even).
    pub balance_stddev: f64,
    /// Fraction of upstream→downstream instance pairs crossing containers.
    pub remote_pair_fraction: f64,
    /// Distinct instance-level paths through the topology (paper Fig. 1c).
    pub instance_paths: u64,
}

/// Cumulative model-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelCacheStats {
    /// Evaluations served entirely from cached fitted models.
    pub hits: u64,
    /// Evaluations that had to (re)fit because the key changed or the
    /// topology was never fitted.
    pub misses: u64,
    /// Individual model fits performed (one per component throughput
    /// model, one per CPU model).
    pub fits: u64,
    /// Fits resolved incrementally from cached sufficient statistics
    /// (the watermark advanced; only the delta was read and absorbed).
    pub incremental_fits: u64,
    /// Fits computed from scratch over the full training window.
    pub full_fits: u64,
    /// Capacity-plan searches completed ([`Caladrius::plan_capacity`]).
    pub plans: u64,
    /// Oracle evaluations the plan searches spent in total.
    pub plan_evals: u64,
    /// Capacity-oracle assessments answered from the plan-time memo
    /// (`CachedOracle`) instead of re-running the fitted models.
    pub oracle_hits: u64,
    /// Capacity-oracle assessments computed by the fitted models.
    pub oracle_misses: u64,
}

/// Cumulative plan-cache counters (see [`crate::capacity::PlanCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plans served verbatim from the cache (no forecast, no search).
    pub hits: u64,
    /// Plans that had to run the search because no valid entry existed.
    pub misses: u64,
    /// Misses whose search was warm-started from a stale cached plan.
    pub warm_starts: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
}

/// What every cached answer for one topology is valid for: the
/// topology's metrics [`DataVersion`] and its tracker plan version
/// ([`TopologyTracker::last_updated`]). [`Caladrius`] reads it once per
/// request; the model and plan caches store it with each entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStamp {
    /// The metrics store's watermark and rewrite count.
    pub data: DataVersion,
    /// Packing-plan version; parallelism changes bump it.
    pub plan_version: u64,
}

impl CacheStamp {
    /// True when state built at `older` can absorb what changed since
    /// incrementally: the plan is unchanged and the data only gained
    /// samples past `older`'s watermark ([`DataVersion::extends`]).
    pub fn extends(&self, older: &CacheStamp) -> bool {
        self.plan_version == older.plan_version && self.data.extends(&older.data)
    }
}

/// One topology's fitted models plus the [`CacheStamp`] they were
/// fitted at and the streaming sufficient statistics they were solved
/// from. An entry is served verbatim while the stamp is unchanged.
///
/// When the stamp only [extends](CacheStamp::extends) the entry's, the
/// retained [`ComponentFitStats`]/[`CpuFitStats`] absorb just the
/// `(watermark_old, watermark_new]` delta and re-solve in O(1) per
/// model (the *Stale* path). The entry goes fully cold — full refit —
/// when the plan version moved, the store rewrote history (out-of-order
/// or duplicate samples, or a truncation), or the anchored window
/// `[fitted_from, watermark]` grew past twice the configured training
/// window (periodic re-anchoring keeps the expanding window from
/// diverging unboundedly from the sliding batch window).
struct CachedModels {
    stamp: CacheStamp,
    /// Start of the window the sufficient statistics cover (the `from`
    /// of the original full fit — deltas expand the window rightwards).
    fitted_from: i64,
    fit_stats: HashMap<String, ComponentFitStats>,
    cpu_stats: HashMap<String, CpuFitStats>,
    topology_model: Arc<TopologyModel>,
    cpu_models: Arc<HashMap<String, CpuModel>>,
}

/// A fitted traffic forecaster and the [`DataVersion`] it was fitted
/// at. It ignores the plan version, so a re-plan does not refit traffic
/// models. While the data only extends, `Forecaster::update` absorbs the
/// new tail instead of refitting over the whole window; `anchor` marks
/// the first fitted timestamp so the expanding window is re-anchored
/// (full refit) on the same 2× schedule as the performance models.
struct CachedForecaster {
    model: Box<dyn Forecaster + Send>,
    version: DataVersion,
    anchor: i64,
}

/// One component-model fit job: (name, parallelism, upstream emission
/// weights, grouping).
type FitJob = (String, u32, Vec<(String, f64)>, GroupingKind);

/// Per-bolt fit jobs in declaration order, with per-edge emission
/// weights derived from each upstream's out-degree.
fn fit_jobs(spec: &caladrius_graph::topology_graph::LogicalSpec) -> Vec<FitJob> {
    let mut out_degree: HashMap<&str, usize> = HashMap::new();
    for (from_c, _, _) in &spec.edges {
        *out_degree.entry(from_c.as_str()).or_insert(0) += 1;
    }
    spec.components
        .iter()
        .filter_map(|(name, parallelism)| {
            let in_edges: Vec<&(String, String, String)> = spec
                .edges
                .iter()
                .filter(|(_, to_c, _)| to_c == name)
                .collect();
            if in_edges.is_empty() {
                return None; // spout
            }
            let upstreams: Vec<(String, f64)> = in_edges
                .iter()
                .map(|(from_c, _, _)| (from_c.clone(), 1.0 / out_degree[from_c.as_str()] as f64))
                .collect();
            let grouping = GroupingKind::from_name(&in_edges[0].2);
            Some((name.clone(), *parallelism, upstreams, grouping))
        })
        .collect()
}

/// An incremental read of `(old watermark, new watermark]`: the range
/// helpers' "no observations" error just means nothing new has landed.
fn nothing_new_is_empty<T>(delta: Result<Vec<T>>) -> Result<Vec<T>> {
    match delta {
        Err(CoreError::NotEnoughObservations { .. }) => Ok(Vec::new()),
        other => other,
    }
}

/// What [`Caladrius::fitted_models`] hands out: the fitted topology model
/// and the per-component CPU models, shared with the cache.
pub type FittedModels = (Arc<TopologyModel>, Arc<HashMap<String, CpuModel>>);

/// The Caladrius performance-modelling service.
pub struct Caladrius {
    config: CaladriusConfig,
    metrics: Arc<dyn MetricsProvider>,
    tracker: Arc<dyn TopologyTracker>,
    traffic: TrafficModelRegistry,
    performance: ModelRegistry,
    graphs: GraphService,
    model_cache: Mutex<HashMap<String, CachedModels>>,
    forecaster_cache: Mutex<HashMap<(String, String), CachedForecaster>>,
    plan_cache: Mutex<crate::capacity::PlanCache>,
    /// Cache/fit/plan counters live in the process-wide obs registry,
    /// labelled `service="<instance id>"` so [`Caladrius::model_cache_stats`]
    /// stays exact per instance while `/metrics/service` sees every
    /// instance in the process.
    cache_hits: Counter,
    cache_misses: Counter,
    model_fits: Counter,
    incremental_fits: Counter,
    full_fits: Counter,
    plans_run: Counter,
    plan_evals: Counter,
    oracle_cache_hits: Counter,
    oracle_cache_misses: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    plan_warm_starts: Counter,
    plan_cache_evictions: Counter,
    evaluate_duration: Histogram,
    fit_duration: Histogram,
    plan_duration: Histogram,
    accuracy: AccuracyMonitor,
    /// This instance's `service` label value.
    scope_id: String,
}

impl std::fmt::Debug for Caladrius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Caladrius")
            .field("config", &self.config)
            .field("traffic_models", &self.traffic.names())
            .field("performance_models", &self.performance.names())
            .finish_non_exhaustive()
    }
}

impl Caladrius {
    /// Creates a service with default config and model registries.
    pub fn new(metrics: Arc<dyn MetricsProvider>, tracker: Arc<dyn TopologyTracker>) -> Self {
        Self::with_config(metrics, tracker, CaladriusConfig::default())
    }

    /// Creates a service with an explicit configuration.
    pub fn with_config(
        metrics: Arc<dyn MetricsProvider>,
        tracker: Arc<dyn TopologyTracker>,
        config: CaladriusConfig,
    ) -> Self {
        Self::with_config_labelled(metrics, tracker, config, &[])
    }

    /// [`Caladrius::with_config`] with extra labels on every obs series
    /// this instance registers (cache counters, fit/plan histograms).
    /// The fleet tier labels each shard's service `shard="<index>"` so
    /// one `/metrics` exposition separates per-shard cache and plan
    /// behaviour; the per-instance `service` label is always present.
    pub fn with_config_labelled(
        metrics: Arc<dyn MetricsProvider>,
        tracker: Arc<dyn TopologyTracker>,
        config: CaladriusConfig,
        extra_labels: &[(&str, &str)],
    ) -> Self {
        let registry = caladrius_obs::global_registry();
        let service_id = caladrius_obs::next_scope_id().to_string();
        let mut labels: Vec<(&str, &str)> = vec![("service", &service_id)];
        labels.extend_from_slice(extra_labels);
        registry.describe(
            "caladrius_model_cache_hits_total",
            "Evaluations served entirely from cached fitted models",
        );
        registry.describe(
            "caladrius_model_cache_misses_total",
            "Evaluations that had to (re)fit models",
        );
        registry.describe(
            "caladrius_model_fits_total",
            "Individual component/CPU model fits performed",
        );
        registry.describe(
            "caladrius_model_fits_incremental_total",
            "Model fits resolved incrementally from cached sufficient statistics",
        );
        registry.describe(
            "caladrius_model_fits_full_total",
            "Model fits computed from scratch over the full training window",
        );
        registry.describe("caladrius_plans_total", "Capacity-plan searches completed");
        registry.describe(
            "caladrius_plan_oracle_evals_total",
            "Oracle evaluations spent inside plan searches",
        );
        registry.describe(
            "caladrius_oracle_cache_hits_total",
            "Capacity-oracle assessments answered from the plan-time memo",
        );
        registry.describe(
            "caladrius_oracle_cache_misses_total",
            "Capacity-oracle assessments computed by the fitted models",
        );
        registry.describe(
            "caladrius_plan_cache_hits_total",
            "Capacity plans served verbatim from the plan cache",
        );
        registry.describe(
            "caladrius_plan_cache_misses_total",
            "Capacity plans that had to run the horizon search",
        );
        registry.describe(
            "caladrius_plan_warm_starts_total",
            "Plan searches warm-started from a stale cached timeline",
        );
        registry.describe(
            "caladrius_plan_cache_evictions_total",
            "Plan-cache entries dropped by the LRU bound",
        );
        registry.describe(
            "caladrius_evaluate_duration_seconds",
            "Wall-clock time of Caladrius::evaluate",
        );
        registry.describe(
            "caladrius_model_fit_duration_seconds",
            "Wall-clock time of a full model (re)fit on a cache miss",
        );
        registry.describe(
            "caladrius_plan_duration_seconds",
            "Wall-clock time of Caladrius::plan_capacity",
        );
        let plan_cache = crate::capacity::PlanCache::new(config.plan_cache_capacity);
        Self {
            config,
            metrics,
            tracker,
            traffic: TrafficModelRegistry::with_defaults(),
            performance: ModelRegistry::with_defaults(),
            graphs: GraphService::new(),
            model_cache: Mutex::new(HashMap::new()),
            forecaster_cache: Mutex::new(HashMap::new()),
            plan_cache: Mutex::new(plan_cache),
            cache_hits: registry.counter("caladrius_model_cache_hits_total", &labels),
            cache_misses: registry.counter("caladrius_model_cache_misses_total", &labels),
            model_fits: registry.counter("caladrius_model_fits_total", &labels),
            incremental_fits: registry.counter("caladrius_model_fits_incremental_total", &labels),
            full_fits: registry.counter("caladrius_model_fits_full_total", &labels),
            plans_run: registry.counter("caladrius_plans_total", &labels),
            plan_evals: registry.counter("caladrius_plan_oracle_evals_total", &labels),
            oracle_cache_hits: registry.counter("caladrius_oracle_cache_hits_total", &labels),
            oracle_cache_misses: registry.counter("caladrius_oracle_cache_misses_total", &labels),
            plan_cache_hits: registry.counter("caladrius_plan_cache_hits_total", &labels),
            plan_cache_misses: registry.counter("caladrius_plan_cache_misses_total", &labels),
            plan_warm_starts: registry.counter("caladrius_plan_warm_starts_total", &labels),
            plan_cache_evictions: registry.counter("caladrius_plan_cache_evictions_total", &labels),
            evaluate_duration: registry.histogram("caladrius_evaluate_duration_seconds", &labels),
            fit_duration: registry.histogram("caladrius_model_fit_duration_seconds", &labels),
            plan_duration: registry.histogram("caladrius_plan_duration_seconds", &labels),
            accuracy: AccuracyMonitor::new(&service_id),
            scope_id: service_id,
        }
    }

    /// The obs scopes this instance owns, as `(label, scope id)` pairs:
    /// its own `service` id and the `db` ids of its metrics stores. A
    /// front door renders exactly these (plus unscoped series) on
    /// `/metrics/service`.
    pub fn obs_scopes(&self) -> Vec<(&'static str, String)> {
        let mut scopes = vec![("service", self.scope_id.clone())];
        scopes.extend(self.metrics.db_scopes().into_iter().map(|id| ("db", id)));
        scopes
    }

    /// The active configuration.
    pub fn config(&self) -> &CaladriusConfig {
        &self.config
    }

    /// Mutable access to the traffic-model registry (to plug custom
    /// models in, per the paper's extensibility goal).
    pub fn traffic_registry_mut(&mut self) -> &mut TrafficModelRegistry {
        &mut self.traffic
    }

    /// Mutable access to the performance-model registry.
    pub fn performance_registry_mut(&mut self) -> &mut ModelRegistry {
        &mut self.performance
    }

    /// Known topology names.
    pub fn topologies(&self) -> Vec<String> {
        self.tracker.topologies()
    }

    /// Shared handle to the metrics provider (the API tier's raw metrics
    /// endpoint reads through it).
    pub fn metrics_provider(&self) -> Arc<dyn MetricsProvider> {
        Arc::clone(&self.metrics)
    }

    /// Structural assessment of a proposed packing — the paper's "graph
    /// calculation interface for estimating properties of proposed
    /// packing plans" (§III-C1). Parallelism overrides are applied, the
    /// instances are round-robin packed over `containers`, and the
    /// resulting plan is summarised.
    pub fn packing_overview(
        &self,
        topology: &str,
        proposed_parallelisms: &HashMap<String, u32>,
        containers: usize,
    ) -> Result<PackingOverview> {
        use caladrius_graph::topology_graph::{
            instance_path_count, round_robin_assignment, LogicalSpec,
        };
        if containers == 0 {
            return Err(CoreError::InvalidRequest(
                "containers must be at least 1".into(),
            ));
        }
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        let mut spec = LogicalSpec::new(logical.spec.name.clone());
        for (name, p) in &logical.spec.components {
            let p = proposed_parallelisms.get(name).copied().unwrap_or(*p);
            if p == 0 {
                return Err(CoreError::InvalidRequest(format!(
                    "parallelism of {name:?} must be positive"
                )));
            }
            spec = spec.component(name.clone(), p);
        }
        for (from, to, grouping) in &logical.spec.edges {
            spec = spec.edge(from.clone(), to.clone(), grouping.clone());
        }

        let assignment = round_robin_assignment(&spec, containers);
        let counts: Vec<f64> = assignment.iter().map(|c| c.len() as f64).collect();
        let total_instances: usize = assignment.iter().map(Vec::len).sum();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;

        // Remote-pair fraction: how many upstream→downstream instance
        // pairs cross containers under this assignment.
        let mut location = HashMap::new();
        for (c_idx, contents) in assignment.iter().enumerate() {
            for (component, index) in contents {
                location.insert((component.clone(), *index), c_idx);
            }
        }
        let parallelism: HashMap<&str, u32> = spec
            .components
            .iter()
            .map(|(n, p)| (n.as_str(), *p))
            .collect();
        let mut pairs = 0usize;
        let mut remote = 0usize;
        for (from, to, _) in &spec.edges {
            for fi in 0..parallelism[from.as_str()] {
                for ti in 0..parallelism[to.as_str()] {
                    pairs += 1;
                    if location.get(&(from.clone(), fi)) != location.get(&(to.clone(), ti)) {
                        remote += 1;
                    }
                }
            }
        }

        Ok(PackingOverview {
            containers,
            total_instances,
            max_instances_per_container: counts.iter().copied().fold(0.0, f64::max) as usize,
            balance_stddev: var.sqrt(),
            remote_pair_fraction: if pairs > 0 {
                remote as f64 / pairs as f64
            } else {
                0.0
            },
            instance_paths: instance_path_count(&spec)?,
        })
    }

    /// The topology's metrics version; an error when it has no data.
    fn data_version(&self, topology: &str) -> Result<DataVersion> {
        self.metrics
            .data_version(topology)
            .ok_or_else(|| CoreError::Unknown(format!("no metrics for {topology:?}")))
    }

    /// The one read of what a request's cached answers are keyed on.
    fn stamp(&self, topology: &str) -> Result<CacheStamp> {
        Ok(CacheStamp {
            data: self.data_version(topology)?,
            plan_version: self.tracker.last_updated(topology)?,
        })
    }

    /// The training window `[from, to]` ending at minute `to`.
    fn window_ending(&self, to: i64) -> (i64, i64) {
        let from = to - i64::from(self.config.source_window_minutes - 1) * 60_000;
        (from, to)
    }

    /// Spout component names of a topology.
    fn spouts(&self, topology: &str) -> Result<Vec<String>> {
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        Ok(logical
            .spec
            .components
            .iter()
            .filter(|(name, _)| !logical.spec.edges.iter().any(|(_, to, _)| to == name))
            .map(|(name, _)| name.clone())
            .collect())
    }

    /// The topology's offered-load history over the training window.
    pub fn source_history(&self, topology: &str) -> Result<Vec<DataPoint>> {
        self.history_ending(topology, self.data_version(topology)?.watermark)
    }

    /// Offered-load history over the training window ending at `to`.
    fn history_ending(&self, topology: &str, to: i64) -> Result<Vec<DataPoint>> {
        let (from, to) = self.window_ending(to);
        source_history(
            self.metrics.as_ref(),
            topology,
            &self.spouts(topology)?,
            from,
            to,
        )
    }

    /// Forecasts future source throughput with the named models (or the
    /// configured defaults), over the configured horizon.
    ///
    /// With `per_spout_models` enabled in the config, a separate model is
    /// fitted per spout instance and the forecasts are summed — the
    /// paper's "slower but more accurate" option (§IV-A).
    pub fn forecast_traffic(
        &self,
        topology: &str,
        models: Option<&[String]>,
    ) -> Result<Vec<TrafficForecast>> {
        self.forecast_traffic_at(topology, models, self.data_version(topology)?)
    }

    /// [`Caladrius::forecast_traffic`] over the data at `version`.
    fn forecast_traffic_at(
        &self,
        topology: &str,
        models: Option<&[String]>,
        version: DataVersion,
    ) -> Result<Vec<TrafficForecast>> {
        let names: Vec<String> = match models {
            Some(names) => names.to_vec(),
            None => self.config.traffic_models.clone(),
        };
        if self.config.per_spout_models {
            return names
                .iter()
                .map(|name| self.forecast_traffic_per_spout(topology, name))
                .collect();
        }
        let history = self.history_ending(topology, version.watermark)?;
        let horizon = self.horizon_after(&history);
        names
            .iter()
            .map(|name| self.forecast_cached(topology, name, version, &history, &horizon))
            .collect()
    }

    /// Forecasts through the per-(topology, model) forecaster cache.
    ///
    /// `history` is the training window ending at `version`'s watermark.
    /// While the data only extends, the cached fitted forecaster absorbs
    /// just the tail via [`Forecaster::update`] (streaming sufficient
    /// statistics) instead of refitting over the whole window. Models
    /// that can't update incrementally (Prophet) report
    /// [`UpdateOutcome::FullRefitNeeded`] and are refitted, and so does
    /// every model once the store rewrote history. Like the
    /// performance-model cache, the fitted window expands rightwards
    /// from its anchor and is re-anchored with a full refit once it
    /// spans twice the configured training window. For a fixed version
    /// the cached forecaster is left untouched, so repeated forecasts
    /// stay deterministic — the invariant the plan cache's probe relies
    /// on.
    fn forecast_cached(
        &self,
        topology: &str,
        name: &str,
        version: DataVersion,
        history: &[DataPoint],
        horizon: &[i64],
    ) -> Result<TrafficForecast> {
        let Some(first) = history.first() else {
            return self.traffic.forecast(name, history, horizon);
        };
        let key = (topology.to_string(), name.to_string());
        let reanchor_span = 2 * i64::from(self.config.source_window_minutes) * 60_000;
        // Taken out as a statement so the lock guard drops before the
        // update/predict work (and before the re-insert re-locks).
        let cached = self.forecaster_cache.lock().remove(&key);
        if let Some(mut entry) = cached {
            let current = if entry.version == version {
                true
            } else if version.extends(&entry.version)
                && version.watermark - entry.anchor < reanchor_span
            {
                let since = entry.version.watermark;
                let tail: Vec<DataPoint> =
                    history.iter().filter(|p| p.ts > since).cloned().collect();
                matches!(entry.model.update(&tail), Ok(UpdateOutcome::Incremental))
            } else {
                false
            };
            if current {
                if let Ok(points) = entry.model.predict(horizon) {
                    entry.version = version;
                    self.forecaster_cache.lock().insert(key, entry);
                    return TrafficForecast::from_points(name, points);
                }
            }
            // Rewritten history, re-anchor due, update refused, or a
            // predict failure: fall through to a fresh fit.
        }
        let mut model = self.traffic.create(name)?;
        model.fit(history)?;
        let points = model.predict(horizon)?;
        self.forecaster_cache.lock().insert(
            key,
            CachedForecaster {
                model,
                version,
                anchor: first.ts,
            },
        );
        TrafficForecast::from_points(name, points)
    }

    fn horizon_after(&self, history: &[DataPoint]) -> Vec<i64> {
        let last = history.last().map(|p| p.ts).unwrap_or(0);
        (1..=i64::from(self.config.forecast_horizon_minutes))
            .map(|m| last + m * 60_000)
            .collect()
    }

    /// Fits one model of `model_name` per spout instance and sums the
    /// forecasts to the topology level. Interval bounds are summed too,
    /// which is conservative (it assumes per-spout errors are perfectly
    /// correlated).
    pub fn forecast_traffic_per_spout(
        &self,
        topology: &str,
        model_name: &str,
    ) -> Result<TrafficForecast> {
        use caladrius_forecast::ForecastPoint;
        use heron_sim::metrics::metric;
        let (from, to) = self.window_ending(self.data_version(topology)?.watermark);
        let mut combined: BTreeMap<i64, ForecastPoint> = BTreeMap::new();
        let mut fitted_any = false;
        for spout in self.spouts(topology)? {
            let per_instance = self.metrics.per_instance_series(
                topology,
                &spout,
                metric::SOURCE_OFFERED,
                from,
                to,
            )?;
            for (_, series) in per_instance {
                let history: Vec<DataPoint> = series
                    .iter()
                    .map(|s| DataPoint::new(s.ts, s.value))
                    .collect();
                if history.is_empty() {
                    continue;
                }
                let horizon = self.horizon_after(&history);
                let forecast = self.traffic.forecast(model_name, &history, &horizon)?;
                fitted_any = true;
                for p in forecast.points {
                    let entry = combined.entry(p.ts).or_insert(ForecastPoint {
                        ts: p.ts,
                        yhat: 0.0,
                        lower: 0.0,
                        upper: 0.0,
                    });
                    entry.yhat += p.yhat;
                    entry.lower += p.lower;
                    entry.upper += p.upper;
                }
            }
        }
        if !fitted_any {
            return Err(CoreError::NotEnoughObservations {
                what: format!("per-spout source history for {topology:?}"),
                needed: 1,
                got: 0,
            });
        }
        let points: Vec<ForecastPoint> = combined.into_values().collect();
        let mean = points.iter().map(|p| p.yhat).sum::<f64>() / points.len() as f64;
        let peak = points.iter().map(|p| p.yhat).fold(f64::MIN, f64::max);
        let peak_upper = points.iter().map(|p| p.upper).fold(f64::MIN, f64::max);
        Ok(TrafficForecast {
            model: format!("{model_name} (per-spout)"),
            points,
            mean,
            peak,
            peak_upper,
        })
    }

    /// Fits the full topology throughput model from the training window.
    pub fn fit_topology_model(&self, topology: &str) -> Result<TopologyModel> {
        let (from, to) = self.window_ending(self.data_version(topology)?.watermark);
        Ok(self.fit_topology_stats(topology, from, to)?.0)
    }

    /// Full-window topology fit that also returns the streaming
    /// sufficient statistics each component model was solved from, so
    /// the model cache can absorb future watermark deltas without
    /// re-reading the window. Bolts fit independently, so the cold path
    /// fans out on the shared "fit" pool; job order is declaration
    /// order, so a fit failure surfaces for the same component the
    /// sequential loop would have stopped on.
    fn fit_topology_stats(
        &self,
        topology: &str,
        from: i64,
        to: i64,
    ) -> Result<(TopologyModel, HashMap<String, ComponentFitStats>)> {
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        let spec = logical.spec.clone();
        let jobs = fit_jobs(&spec);
        let metrics = self.metrics.as_ref();
        let fitted = caladrius_exec::shared_pool("fit").parallel_try_map(
            &jobs,
            |_, (name, parallelism, upstreams, grouping)| {
                let observations =
                    component_observations(metrics, topology, name, upstreams, from, to)?;
                let mut stats =
                    ComponentFitStats::new(name.clone(), *parallelism, grouping.clone())?;
                for o in &observations {
                    stats.push(o);
                }
                let model = stats.solve()?;
                self.model_fits.inc();
                self.full_fits.inc();
                Ok::<_, CoreError>((name.clone(), model, stats))
            },
        )?;
        let mut models = HashMap::new();
        let mut stats_by_name = HashMap::new();
        for (name, model, stats) in fitted {
            models.insert(name.clone(), model);
            stats_by_name.insert(name, stats);
        }
        Ok((TopologyModel::new(spec, models)?, stats_by_name))
    }

    /// Fits a CPU model per bolt from the training window. Bolts whose
    /// observations cannot support a fit (no data, or no input-rate
    /// variance to regress on) are skipped rather than failing the whole
    /// report.
    pub fn fit_cpu_models(&self, topology: &str) -> Result<HashMap<String, CpuModel>> {
        let (from, to) = self.window_ending(self.data_version(topology)?.watermark);
        Ok(self.fit_cpu_stats(topology, from, to)?.0)
    }

    /// Full-window CPU fit that also keeps each bolt's regression sums.
    /// Statistics are retained even for bolts that couldn't support a
    /// fit yet — future deltas may push them over the threshold.
    fn fit_cpu_stats(
        &self,
        topology: &str,
        from: i64,
        to: i64,
    ) -> Result<(HashMap<String, CpuModel>, HashMap<String, CpuFitStats>)> {
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        let bolts: Vec<String> = logical
            .spec
            .components
            .iter()
            .filter(|(name, _)| logical.spec.edges.iter().any(|(_, to_c, _)| to_c == name))
            .map(|(name, _)| name.clone())
            .collect();
        let metrics = self.metrics.as_ref();
        let fitted = caladrius_exec::shared_pool("fit").parallel_try_map(&bolts, |_, name| {
            let mut stats = CpuFitStats::new();
            match cpu_observations(metrics, topology, name, from, to) {
                Ok(obs) => {
                    for o in &obs {
                        stats.push(o);
                    }
                }
                Err(CoreError::NotEnoughObservations { .. }) => {}
                Err(other) => return Err(other),
            }
            match stats.solve() {
                Ok(model) => {
                    self.model_fits.inc();
                    self.full_fits.inc();
                    Ok((name.clone(), Some(model), stats))
                }
                Err(CoreError::NotEnoughObservations { .. }) => Ok((name.clone(), None, stats)),
                Err(other) => Err(other),
            }
        })?;
        let mut models = HashMap::new();
        let mut stats_by_name = HashMap::new();
        for (name, model, stats) in fitted {
            if let Some(model) = model {
                models.insert(name.clone(), model);
            }
            stats_by_name.insert(name, stats);
        }
        Ok((models, stats_by_name))
    }

    /// Builds a cold cache entry: full fits over the sliding training
    /// window ending at the stamp's watermark.
    fn full_fit_entry(&self, topology: &str, stamp: CacheStamp) -> Result<CachedModels> {
        let (from, to) = self.window_ending(stamp.data.watermark);
        let (topology_model, fit_stats) = self.fit_topology_stats(topology, from, to)?;
        let (cpu_models, cpu_stats) = self.fit_cpu_stats(topology, from, to)?;
        Ok(CachedModels {
            stamp,
            fitted_from: from,
            fit_stats,
            cpu_stats,
            topology_model: Arc::new(topology_model),
            cpu_models: Arc::new(cpu_models),
        })
    }

    /// The incremental (Stale) path: reads only the delta between the
    /// entry's watermark and `stamp`'s through the range helpers (whose
    /// newest-chunk reads ride the tsdb decoded-tail cache), pushes it
    /// into the retained sufficient statistics, and re-solves every
    /// model in O(1) per model. Because batch fits stream through the
    /// same accumulators in the same order, the result is exactly what a
    /// batch fit over `[fitted_from, watermark]` would produce.
    fn absorb_delta(
        &self,
        topology: &str,
        mut entry: CachedModels,
        stamp: CacheStamp,
    ) -> Result<CachedModels> {
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        let spec = logical.spec.clone();
        let metrics = self.metrics.as_ref();
        let from = entry.stamp.data.watermark.saturating_add(1);
        let watermark = stamp.data.watermark;

        let mut models = HashMap::new();
        for (name, parallelism, upstreams, _) in fit_jobs(&spec) {
            let stats = entry.fit_stats.get_mut(&name).ok_or_else(|| {
                CoreError::Unknown(format!("no cached fit statistics for {name:?}"))
            })?;
            if stats.parallelism() != parallelism {
                return Err(CoreError::Unknown(format!(
                    "cached fit statistics for {name:?} cover a different parallelism"
                )));
            }
            let delta = nothing_new_is_empty(component_observations(
                metrics, topology, &name, &upstreams, from, watermark,
            ))?;
            for o in &delta {
                stats.push(o);
            }
            let model = stats.solve()?;
            self.model_fits.inc();
            self.incremental_fits.inc();
            models.insert(name, model);
        }
        entry.topology_model = Arc::new(TopologyModel::new(spec, models)?);

        let mut cpu_models = HashMap::new();
        for name in entry.fit_stats.keys().cloned().collect::<Vec<_>>() {
            let stats = entry.cpu_stats.entry(name.clone()).or_default();
            let delta =
                nothing_new_is_empty(cpu_observations(metrics, topology, &name, from, watermark))?;
            for o in &delta {
                stats.push(o);
            }
            match stats.solve() {
                Ok(model) => {
                    self.model_fits.inc();
                    self.incremental_fits.inc();
                    cpu_models.insert(name, model);
                }
                Err(CoreError::NotEnoughObservations { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        entry.cpu_models = Arc::new(cpu_models);
        entry.stamp = stamp;
        Ok(entry)
    }

    /// Fitted models for `topology`, served from the [`CacheStamp`]-keyed
    /// cache. Three states:
    ///
    /// * **Hit** — the stamp is unchanged: the cached models are
    ///   returned as-is.
    /// * **Stale** — the stamp [extends](CacheStamp::extends) the
    ///   entry's (only newer samples landed) and the anchored window
    ///   hasn't outgrown its 2× re-anchor bound: the delta is absorbed
    ///   into the retained sufficient statistics
    ///   (`Caladrius::absorb_delta`). Counted as a cache miss plus
    ///   `incremental_fits`.
    /// * **Cold** — anything else: full refit over the sliding window,
    ///   counted as a cache miss plus `full_fits`.
    pub fn fitted_models(&self, topology: &str) -> Result<FittedModels> {
        self.fitted_models_at(topology, self.stamp(topology)?)
    }

    /// [`Caladrius::fitted_models`] at an already-read stamp.
    fn fitted_models_at(&self, topology: &str, stamp: CacheStamp) -> Result<FittedModels> {
        let reanchor_span = 2 * i64::from(self.config.source_window_minutes) * 60_000;
        let stale = {
            let mut cache = self.model_cache.lock();
            match cache.get(topology) {
                Some(entry) if entry.stamp == stamp => {
                    self.cache_hits.inc();
                    return Ok((
                        Arc::clone(&entry.topology_model),
                        Arc::clone(&entry.cpu_models),
                    ));
                }
                Some(entry)
                    if stamp.extends(&entry.stamp)
                        && stamp.data.watermark - entry.fitted_from < reanchor_span =>
                {
                    cache.remove(topology)
                }
                _ => None,
            }
        };
        self.cache_misses.inc();
        let mut span = caladrius_obs::global_span("core.fit");
        span.field("topology", topology);
        let fit_started = Instant::now();
        let entry = match stale {
            Some(entry) => match self.absorb_delta(topology, entry, stamp) {
                Ok(updated) => {
                    span.field("mode", "incremental");
                    updated
                }
                // Anything unexpected in the delta (topology drift the
                // versions didn't catch, provider errors) falls back to
                // the cold path rather than serving a dubious model.
                Err(_) => {
                    span.field("mode", "full");
                    self.full_fit_entry(topology, stamp)?
                }
            },
            None => {
                span.field("mode", "full");
                self.full_fit_entry(topology, stamp)?
            }
        };
        self.fit_duration.record_duration(fit_started.elapsed());
        let result = (
            Arc::clone(&entry.topology_model),
            Arc::clone(&entry.cpu_models),
        );
        self.model_cache.lock().insert(topology.to_string(), entry);
        Ok(result)
    }

    /// Resolves a requested traffic-model name against the configured
    /// default.
    fn resolve_traffic_model(&self, requested: Option<&str>) -> Result<String> {
        requested
            .map(String::from)
            .or_else(|| self.config.traffic_models.first().cloned())
            .ok_or_else(|| CoreError::InvalidRequest("no traffic model configured".into()))
    }

    /// Cumulative cache and fit counters.
    pub fn model_cache_stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.cache_hits.get(),
            misses: self.cache_misses.get(),
            fits: self.model_fits.get(),
            incremental_fits: self.incremental_fits.get(),
            full_fits: self.full_fits.get(),
            plans: self.plans_run.get(),
            plan_evals: self.plan_evals.get(),
            oracle_hits: self.oracle_cache_hits.get(),
            oracle_misses: self.oracle_cache_misses.get(),
        }
    }

    /// Cumulative plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_cache_hits.get(),
            misses: self.plan_cache_misses.get(),
            warm_starts: self.plan_warm_starts.get(),
            evictions: self.plan_cache_evictions.get(),
        }
    }

    /// Pre-forecast plan-cache lookup for `topology` under `request`,
    /// without fitting models or forecasting. A
    /// [`crate::capacity::PlanCacheLookup::Hit`] timeline is byte-identical to what
    /// [`Caladrius::plan_capacity`] would return (and is counted as a
    /// cache hit); `Stale` means a search would warm-start from the
    /// previous plan; `Absent` means it would run cold. The fleet tier
    /// uses this to partition topologies into unchanged / drifted / new
    /// before deciding what to schedule on the plan pool.
    pub fn plan_cache_lookup(
        &self,
        topology: &str,
        request: &crate::capacity::CapacityPlanRequest,
    ) -> Result<crate::capacity::PlanCacheLookup> {
        let model_name = self.resolve_traffic_model(request.traffic_model.as_deref())?;
        let request_key =
            crate::capacity::plan_request_key(&model_name, request.conservative, &request.planner);
        let lookup = self
            .plan_cache
            .lock()
            .probe(topology, request_key, self.stamp(topology)?);
        if matches!(lookup, crate::capacity::PlanCacheLookup::Hit(_)) {
            self.plan_cache_hits.inc();
        }
        Ok(lookup)
    }

    /// Drops cached fitted models (all topologies, or one). Invalidation
    /// is otherwise automatic — new data or plan versions force refits —
    /// so this is only needed when a provider is swapped out from under
    /// the service. Cached plan timelines for the same scope are dropped
    /// too: they were searched against the dropped models.
    pub fn invalidate_model_cache(&self, topology: Option<&str>) {
        let mut cache = self.model_cache.lock();
        match topology {
            Some(name) => {
                cache.remove(name);
            }
            None => cache.clear(),
        }
        drop(cache);
        // Cached fitted forecasters read the same provider: drop them too.
        let mut forecasters = self.forecaster_cache.lock();
        match topology {
            Some(name) => forecasters.retain(|(t, _), _| t != name),
            None => forecasters.clear(),
        }
        drop(forecasters);
        self.plan_cache.lock().invalidate(topology);
    }

    fn resolve_source_rate(
        &self,
        topology: &str,
        spec: &SourceRateSpec,
    ) -> Result<(f64, Option<TrafficForecast>)> {
        match spec {
            SourceRateSpec::Fixed(rate) => {
                if !(rate.is_finite() && *rate >= 0.0) {
                    return Err(CoreError::InvalidRequest(format!(
                        "fixed source rate must be non-negative, got {rate}"
                    )));
                }
                Ok((*rate, None))
            }
            SourceRateSpec::Current => {
                let history = self.source_history(topology)?;
                let recent: Vec<f64> = history.iter().rev().take(5).map(|p| p.y).collect();
                Ok((recent.iter().sum::<f64>() / recent.len() as f64, None))
            }
            SourceRateSpec::Forecast {
                model,
                conservative,
            } => {
                let name = model
                    .clone()
                    .or_else(|| self.config.traffic_models.first().cloned())
                    .ok_or_else(|| {
                        CoreError::InvalidRequest("no traffic model configured".into())
                    })?;
                let forecast = self
                    .forecast_traffic(topology, Some(std::slice::from_ref(&name)))?
                    .pop()
                    .expect("one model requested, one forecast returned");
                let rate = if *conservative {
                    forecast.peak_upper
                } else {
                    forecast.peak
                };
                Ok((rate.max(0.0), Some(forecast)))
            }
        }
    }

    /// Runs the full dry-run evaluation: fit models from live metrics
    /// (or reuse cached fits while the [`CacheStamp`] is unchanged),
    /// resolve the source rate, run every configured
    /// performance model, classify backpressure risk and predict CPU
    /// loads.
    pub fn evaluate(
        &self,
        topology: &str,
        proposed_parallelisms: &HashMap<String, u32>,
        source: &SourceRateSpec,
    ) -> Result<EvaluationReport> {
        self.score_pending();
        let mut span = caladrius_obs::global_span("core.evaluate");
        span.field("topology", topology);
        let started = Instant::now();
        let (model, cpu_models) = self.fitted_models(topology)?;
        let (source_rate, traffic) = self.resolve_source_rate(topology, source)?;

        let query = PerformanceQuery {
            topology: &model,
            parallelisms: proposed_parallelisms,
            source_rate,
        };
        let mut model_outputs = Vec::new();
        for name in &self.config.performance_models {
            model_outputs.push(self.performance.run(name, &query)?);
        }
        let prediction = model.predict(proposed_parallelisms, source_rate)?;
        let (risk, saturation_rate) =
            model.backpressure_risk(proposed_parallelisms, source_rate)?;

        let mut cpu_by_component = BTreeMap::new();
        for report in &prediction.per_component {
            let (Some(cpu), Some(component)) = (
                cpu_models.get(&report.name),
                model.component_model(&report.name),
            ) else {
                continue;
            };
            cpu_by_component.insert(
                report.name.clone(),
                cpu.predict_component(component, report.parallelism, report.source_rate)?,
            );
        }

        // Register what this evaluation claimed about the future so the
        // accuracy monitor can score it once the window closes.
        if let Some(forecast) = &traffic {
            if let (Some(first), Some(last)) = (forecast.points.first(), forecast.points.last()) {
                let window_start = first.ts;
                let window_end = last.ts + 60_000;
                self.accuracy.record(PendingPrediction {
                    topology: topology.to_string(),
                    model: forecast.model.clone(),
                    kind: PredictionKind::Traffic,
                    window_start,
                    window_end,
                    predicted: source_rate,
                });
                // Throughput claims are only realizable for the deployed
                // parallelism — hypothetical proposals never run.
                if proposed_parallelisms.is_empty() {
                    self.accuracy.record(PendingPrediction {
                        topology: topology.to_string(),
                        model: "topology_model".to_string(),
                        kind: PredictionKind::Throughput,
                        window_start,
                        window_end,
                        predicted: prediction.sink_output_rate,
                    });
                }
            }
        }
        self.evaluate_duration.record_duration(started.elapsed());

        Ok(EvaluationReport {
            topology: topology.to_string(),
            proposed_parallelisms: proposed_parallelisms
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            source_rate,
            traffic,
            model_outputs,
            prediction,
            risk,
            saturation_rate,
            cpu_by_component,
        })
    }

    /// Preemptive-scaling helper: finds the smallest parallelism for
    /// `component` (all else unchanged) that keeps backpressure risk low
    /// at `source_rate`, up to `max_parallelism`. Returns `None` when no
    /// parallelism in range suffices.
    ///
    /// Raising a component's parallelism weakly raises the topology
    /// saturation point, so "risk is Low at parallelism p" is a
    /// monotone predicate — the boundary is found by binary search
    /// (O(log max) risk evaluations instead of the old linear scan).
    pub fn recommend_parallelism(
        &self,
        topology: &str,
        component: &str,
        source_rate: f64,
        max_parallelism: u32,
    ) -> Result<Option<u32>> {
        let (model, _) = self.fitted_models(topology)?;
        let mut failure: Option<CoreError> = None;
        let found = caladrius_planner::min_satisfying(1, max_parallelism, |p| {
            let proposal = HashMap::from([(component.to_string(), p)]);
            match model.backpressure_risk(&proposal, source_rate) {
                Ok((risk, _)) => Ok(risk == BackpressureRisk::Low),
                Err(e) => {
                    failure = Some(e);
                    Err(caladrius_planner::PlanError::Oracle(String::new()))
                }
            }
        });
        match (found, failure) {
            (_, Some(e)) => Err(e),
            (Ok(found), None) => Ok(found),
            (Err(e), None) => Err(e.into()),
        }
    }

    /// Horizon capacity planning: forecasts source traffic, chunks the
    /// horizon into windows, and searches the joint parallelism space of
    /// every modelled bolt for the minimum-cost assignment that keeps
    /// backpressure risk Low (with the request's CPU headroom) at each
    /// window's peak forecast rate. Returns the hysteresis-smoothed plan
    /// timeline with per-window scale actions; fitted models are served
    /// from the [`CacheStamp`]-keyed cache.
    ///
    /// Validate a returned timeline against the simulator with
    /// [`caladrius_planner::replay_timeline`].
    pub fn plan_capacity(
        &self,
        topology: &str,
        request: &crate::capacity::CapacityPlanRequest,
    ) -> Result<caladrius_planner::PlanTimeline> {
        use crate::capacity::{
            forecast_fingerprint, forecast_windows, plan_request_key, CachedOracle, ModelOracle,
            PlanCacheLookup,
        };
        self.score_pending();
        let mut span = caladrius_obs::global_span("core.plan");
        span.field("topology", topology);
        let started = Instant::now();
        request.planner.validate().map_err(CoreError::from)?;

        // Fast plan-cache probe before any model or forecast work: the
        // models and the forecast are deterministic functions of the data
        // at one stamp, so a matching stamp guarantees the cached
        // timeline is what the search would reproduce. The same stamp
        // keys the fits and the forecast below.
        let model_name = self.resolve_traffic_model(request.traffic_model.as_deref())?;
        let request_key = plan_request_key(&model_name, request.conservative, &request.planner);
        let stamp = self.stamp(topology)?;
        let warm = match self.plan_cache.lock().probe(topology, request_key, stamp) {
            PlanCacheLookup::Hit(timeline) => {
                self.plan_cache_hits.inc();
                span.field("plan_cache", "hit");
                self.plan_duration.record_duration(started.elapsed());
                return Ok(timeline);
            }
            PlanCacheLookup::Stale(previous) => Some(previous),
            PlanCacheLookup::Absent => None,
        };

        let (model, cpu_models) = self.fitted_models_at(topology, stamp)?;
        let forecast = self
            .forecast_traffic_at(
                topology,
                Some(std::slice::from_ref(&model_name)),
                stamp.data,
            )?
            .pop()
            .expect("one model requested, one forecast returned");
        let windows = forecast_windows(
            &forecast,
            request.planner.window_minutes,
            request.conservative,
        )?;
        // Authoritative identity check after the forecast actually ran:
        // covers the quantized window rates on top of the stamp the fast
        // probe already compared.
        let fingerprint = forecast_fingerprint(stamp, &windows);
        if let Some(timeline) = self
            .plan_cache
            .lock()
            .confirm(topology, request_key, fingerprint)
        {
            self.plan_cache_hits.inc();
            span.field("plan_cache", "fingerprint-hit");
            self.plan_duration.record_duration(started.elapsed());
            return Ok(timeline);
        }
        self.plan_cache_misses.inc();

        // Plan the modelled bolts in declaration order; the current
        // deployment seeds the window-0 action diff.
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        let initial: Vec<(String, u32)> = logical
            .spec
            .components
            .iter()
            .filter(|(name, _)| model.component_model(name).is_some())
            .map(|(name, p)| (name.clone(), *p))
            .collect();
        let components: Vec<String> = initial.iter().map(|(name, _)| name.clone()).collect();
        if components.is_empty() {
            return Err(CoreError::Unpredictable(format!(
                "no modelled bolts to plan for {topology:?}"
            )));
        }

        // The memo makes repeated assessments — smoothing probes, binary
        // searches revisiting a configuration, adjacent same-rate
        // windows — free across the whole plan.
        let oracle = CachedOracle::with_counters(
            ModelOracle::new(Arc::clone(&model), Arc::clone(&cpu_models), components),
            self.oracle_cache_hits.clone(),
            self.oracle_cache_misses.clone(),
        );
        if warm.is_some() {
            self.plan_warm_starts.inc();
            span.field("plan_cache", "warm-start");
        }
        let timeline = caladrius_planner::plan_horizon_warm(
            &oracle,
            &initial,
            &windows,
            &request.planner,
            warm.as_ref(),
        )
        .map_err(CoreError::from)?;
        self.plans_run.inc();
        self.plan_evals.add(timeline.oracle_evals);
        span.field("oracle_evals", timeline.oracle_evals);
        let evicted = self.plan_cache.lock().insert(
            topology,
            request_key,
            stamp,
            fingerprint,
            timeline.clone(),
        );
        self.plan_cache_evictions.add(evicted);
        // Each planning window is a dated traffic claim; register them
        // all for future scoring.
        for window in &windows {
            self.accuracy.record(PendingPrediction {
                topology: topology.to_string(),
                model: model_name.clone(),
                kind: PredictionKind::Traffic,
                window_start: window.start_ts,
                window_end: window.end_ts,
                predicted: window.peak_rate,
            });
        }
        self.plan_duration.record_duration(started.elapsed());
        Ok(timeline)
    }

    /// Sink component names of a topology (no outgoing edges).
    fn sinks(&self, topology: &str) -> Result<Vec<String>> {
        let logical = self.graphs.logical(self.tracker.as_ref(), topology)?;
        Ok(logical
            .spec
            .components
            .iter()
            .filter(|(name, _)| !logical.spec.edges.iter().any(|(from, _, _)| from == name))
            .map(|(name, _)| name.clone())
            .collect())
    }

    /// Scores every pending forecast-accuracy prediction whose window
    /// has closed (the metrics watermark passed its end), feeding APE
    /// histograms per (topology, model, kind). Runs automatically at the
    /// top of [`Caladrius::evaluate`] and [`Caladrius::plan_capacity`];
    /// callers may also invoke it directly (e.g. on a timer). Returns
    /// the number of predictions scored by this pass.
    pub fn score_pending(&self) -> usize {
        let due = self
            .accuracy
            .take_due(|topology| self.metrics.latest_minute(topology));
        let mut scored = 0;
        for prediction in &due {
            match self.realize(prediction) {
                Some(realized) => {
                    self.accuracy.score(prediction, realized);
                    scored += 1;
                }
                None => self.accuracy.drop_unrealizable(prediction),
            }
        }
        scored
    }

    /// What actually happened over a prediction's window: the realized
    /// peak of the predicted quantity, or `None` when the window's data
    /// is gone (truncated) or never materialised.
    fn realize(&self, prediction: &PendingPrediction) -> Option<f64> {
        let topology = &prediction.topology;
        // Window ends are exclusive: the sample at `window_end` belongs
        // to the next window. Scoring windows always sit at the recent
        // end of the store, so the reads ride the tsdb decoded-tail cache.
        // An empty window has no peak.
        let from = prediction.window_start;
        let to = prediction.window_end - 1;
        let peak = |series: Vec<DataPoint>| {
            series
                .iter()
                .map(|p| p.y)
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                })
        };
        match prediction.kind {
            PredictionKind::Traffic => {
                let spouts = self.spouts(topology).ok()?;
                let history =
                    source_history(self.metrics.as_ref(), topology, &spouts, from, to).ok()?;
                peak(history)
            }
            PredictionKind::Throughput => {
                let mut by_ts: BTreeMap<i64, f64> = BTreeMap::new();
                for sink in self.sinks(topology).ok()? {
                    let series = self
                        .metrics
                        .component_series(
                            topology,
                            &sink,
                            heron_sim::metrics::metric::EMIT_COUNT,
                            from,
                            to,
                        )
                        .ok()?;
                    for s in series {
                        *by_ts.entry(s.ts).or_insert(0.0) += s.value;
                    }
                }
                peak(
                    by_ts
                        .into_iter()
                        .map(|(ts, y)| DataPoint::new(ts, y))
                        .collect(),
                )
            }
        }
    }

    /// Per-(topology, model, kind) forecast-accuracy summaries scored so
    /// far by this service instance.
    pub fn accuracy_summaries(&self) -> Vec<AccuracySummary> {
        self.accuracy.summaries()
    }

    /// Predictions still waiting for their horizon windows to close.
    pub fn pending_predictions(&self) -> usize {
        self.accuracy.pending_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::metrics::SimMetricsProvider;
    use crate::providers::tracker::StaticTracker;
    use caladrius_workload::wordcount::{
        wordcount_topology, WordCountParallelism, ALPHA, SPLITTER_CAPACITY_PER_MIN,
    };
    use heron_sim::engine::{SimConfig, Simulation};

    const PARALLELISM: WordCountParallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };

    /// Runs one sweep leg (warmup + 10 recorded minutes) into `metrics`,
    /// starting at simulated minute `start`.
    fn run_leg(metrics: &heron_sim::metrics::SimMetrics, start: u64, rate: f64) {
        let topo = wordcount_topology(PARALLELISM, rate);
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Restarted topologies never share wall-clock minutes.
        sim.skip_to_minute(start);
        sim.warmup_minutes(30);
        sim.run_minutes_into(10, metrics);
    }

    /// Runs the word-count topology through a source-rate sweep so the
    /// metrics contain both linear and saturated windows.
    fn sweep_metrics() -> heron_sim::metrics::SimMetrics {
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        for (leg, rate) in [4.0e6, 8.0e6, 12.0e6, 16.0e6, 20.0e6, 26.0e6]
            .into_iter()
            .enumerate()
        {
            run_leg(&metrics, leg as u64 * 100, rate);
        }
        metrics
    }

    /// Service over the sweep metrics, keeping the shared metrics handle.
    fn service_with_metrics() -> (Caladrius, heron_sim::metrics::SimMetrics) {
        let metrics = sweep_metrics();
        let tracker = StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6));
        let caladrius = Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(tracker),
        );
        (caladrius, metrics)
    }

    fn service() -> Caladrius {
        service_with_metrics().0
    }

    #[test]
    fn end_to_end_fit_and_evaluate() {
        let caladrius = service();
        assert_eq!(caladrius.topologies(), vec!["wordcount"]);

        let model = caladrius.fit_topology_model("wordcount").unwrap();
        let splitter = model.component_model("splitter").unwrap();
        assert!(
            (splitter.instance.alpha - ALPHA).abs() < 0.1,
            "fitted alpha {}",
            splitter.instance.alpha
        );
        let sat = splitter
            .instance
            .saturation
            .expect("sweep saturates the splitter");
        assert!(
            (sat.input_sp - SPLITTER_CAPACITY_PER_MIN).abs() / SPLITTER_CAPACITY_PER_MIN < 0.05,
            "fitted SP {}",
            sat.input_sp
        );

        // Dry-run: current config (splitter p=2) at 30 M/min is high risk;
        // splitter p=4 clears it (knee at ~44 M/min).
        let report = caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(30.0e6))
            .unwrap();
        assert_eq!(report.risk, BackpressureRisk::High);
        assert_eq!(report.prediction.bottleneck.as_deref(), Some("splitter"));

        let proposal = HashMap::from([("splitter".to_string(), 4u32)]);
        let report = caladrius
            .evaluate("wordcount", &proposal, &SourceRateSpec::Fixed(30.0e6))
            .unwrap();
        assert_eq!(report.risk, BackpressureRisk::Low);
        assert!(report.prediction.bottleneck.is_none());
        // Throughput ≈ 30 M × α words/min at the sink.
        let expected = 30.0e6 * ALPHA;
        assert!(
            (report.prediction.sink_output_rate - expected).abs() / expected < 0.05,
            "sink output {}",
            report.prediction.sink_output_rate
        );
        assert_eq!(report.model_outputs.len(), 3);
        assert!(report.cpu_by_component.contains_key("splitter"));
        assert!(report.cpu_by_component["splitter"] > 0.0);
    }

    #[test]
    fn evaluate_with_current_rate() {
        let caladrius = service();
        let report = caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Current)
            .unwrap();
        // The final sweep leg offered 26 M/min.
        assert!((report.source_rate - 26.0e6).abs() / 26.0e6 < 0.02);
        assert_eq!(report.risk, BackpressureRisk::High);
    }

    #[test]
    fn evaluate_with_forecast_source() {
        let caladrius = service();
        let report = caladrius
            .evaluate(
                "wordcount",
                &HashMap::new(),
                &SourceRateSpec::Forecast {
                    model: Some("stats_summary".into()),
                    conservative: false,
                },
            )
            .unwrap();
        let forecast = report.traffic.expect("forecast requested");
        assert_eq!(forecast.model, "stats_summary");
        assert!(report.source_rate > 0.0);
    }

    #[test]
    fn recommend_parallelism_finds_smallest_safe() {
        let caladrius = service();
        // 30 M/min needs splitter knee > 30/0.95: p=3 knees at 33 M.
        let p = caladrius
            .recommend_parallelism("wordcount", "splitter", 30.0e6, 16)
            .unwrap();
        assert_eq!(p, Some(3));
        // An absurd rate exceeds every parallelism in range.
        let p = caladrius
            .recommend_parallelism("wordcount", "splitter", 1.0e12, 4)
            .unwrap();
        assert_eq!(p, None);
    }

    #[test]
    fn traffic_forecast_runs_configured_models() {
        let caladrius = service();
        let forecasts = caladrius.forecast_traffic("wordcount", None).unwrap();
        assert_eq!(forecasts.len(), 2); // prophet + stats_summary
        for f in &forecasts {
            assert!(f.mean > 0.0);
            assert_eq!(
                f.points.len(),
                caladrius.config().forecast_horizon_minutes as usize
            );
        }
    }

    #[test]
    fn packing_overview_reports_structure() {
        let caladrius = service();
        // Deployed: spout 8, splitter 2, counter 3 = 13 instances.
        let overview = caladrius
            .packing_overview("wordcount", &HashMap::new(), 4)
            .unwrap();
        assert_eq!(overview.containers, 4);
        assert_eq!(overview.total_instances, 13);
        assert_eq!(overview.max_instances_per_container, 4);
        assert!(overview.remote_pair_fraction > 0.0);
        assert_eq!(overview.instance_paths, 8 * 2 * 3);
        // Proposed splitter 4: 15 instances, more paths.
        let proposal = HashMap::from([("splitter".to_string(), 4u32)]);
        let overview = caladrius
            .packing_overview("wordcount", &proposal, 4)
            .unwrap();
        assert_eq!(overview.total_instances, 15);
        assert_eq!(overview.instance_paths, 8 * 4 * 3);
        // Errors.
        assert!(caladrius
            .packing_overview("wordcount", &HashMap::new(), 0)
            .is_err());
        assert!(caladrius
            .packing_overview(
                "wordcount",
                &HashMap::from([("splitter".to_string(), 0)]),
                2
            )
            .is_err());
        assert!(caladrius
            .packing_overview("ghost", &HashMap::new(), 2)
            .is_err());
    }

    #[test]
    fn raw_series_selection_through_provider() {
        let caladrius = service();
        let provider = caladrius.metrics_provider();
        let (name, filters) =
            caladrius_tsdb::query::parse_selector("execute-count{component=splitter,instance=0}")
                .unwrap();
        let rows = provider
            .select_series("wordcount", &name, &filters, 0, i64::MAX)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].1.is_empty());
        assert_eq!(rows[0].0.tag("instance"), Some("0"));
        assert!(provider
            .select_series("ghost", &name, &filters, 0, 1)
            .is_err());
    }

    #[test]
    fn per_spout_forecast_sums_instances() {
        let caladrius = service();
        let combined = caladrius
            .forecast_traffic_per_spout("wordcount", "stats_summary")
            .unwrap();
        assert_eq!(combined.model, "stats_summary (per-spout)");
        // 8 spout instances sharing the offered load: the per-spout sum
        // must land near the whole-topology forecast.
        let whole = caladrius
            .forecast_traffic("wordcount", Some(&["stats_summary".to_string()]))
            .unwrap()
            .pop()
            .unwrap();
        assert!(
            (combined.mean - whole.mean).abs() / whole.mean < 0.02,
            "per-spout {} vs whole {}",
            combined.mean,
            whole.mean
        );
        assert!(combined.peak_upper >= combined.peak);
    }

    #[test]
    fn per_spout_config_switches_forecast_path() {
        let parallelism = WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        };
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        let mut sim = Simulation::new(
            wordcount_topology(parallelism, 8.0e6),
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run_minutes_into(30, &metrics);
        let config = crate::config::CaladriusConfig {
            per_spout_models: true,
            ..crate::config::CaladriusConfig::default()
        };
        let caladrius = Caladrius::with_config(
            Arc::new(SimMetricsProvider::new(metrics)),
            Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 8.0e6))),
            config,
        );
        let forecasts = caladrius
            .forecast_traffic("wordcount", Some(&["stats_summary".to_string()]))
            .unwrap();
        assert_eq!(forecasts[0].model, "stats_summary (per-spout)");
        assert!((forecasts[0].mean - 8.0e6).abs() / 8.0e6 < 0.01);
    }

    #[test]
    fn repeated_evaluate_serves_cached_models_without_refitting() {
        let caladrius = service();
        let source = SourceRateSpec::Fixed(30.0e6);
        let first = caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after_first = caladrius.model_cache_stats();
        assert_eq!(after_first.misses, 1);
        assert_eq!(after_first.hits, 0);
        assert!(after_first.fits > 0);

        let second = caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after_second = caladrius.model_cache_stats();
        assert_eq!(
            after_second.fits, after_first.fits,
            "second evaluate on unchanged data must perform zero model fits"
        );
        assert_eq!(after_second.hits, 1);
        assert_eq!(after_second.misses, 1);
        assert_eq!(second, first);

        // recommend_parallelism shares the same cached fits.
        caladrius
            .recommend_parallelism("wordcount", "splitter", 30.0e6, 16)
            .unwrap();
        let after_third = caladrius.model_cache_stats();
        assert_eq!(after_third.fits, after_first.fits);
        assert_eq!(after_third.hits, 2);
    }

    #[test]
    fn new_minutes_invalidate_model_cache() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // A fresh leg of data moves the watermark: the next evaluate
        // must refit over the newer window.
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
        assert!(after.fits > before.fits, "new data must force a refit");
    }

    #[test]
    fn packing_change_invalidates_model_cache() {
        use crate::providers::tracker::ClusterTracker;
        use heron_sim::cluster::Cluster;
        use heron_sim::packing::PackingAlgorithm;

        let metrics = sweep_metrics();
        let mut cluster = Cluster::new();
        cluster
            .submit(
                wordcount_topology(PARALLELISM, 20.0e6),
                PackingAlgorithm::RoundRobin { num_containers: 4 },
            )
            .unwrap();
        let shared = Arc::new(parking_lot::RwLock::new(cluster));
        let caladrius = Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics)),
            Arc::new(ClusterTracker::new(Arc::clone(&shared))),
        );

        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();
        assert_eq!(before.hits, 1);

        // Scaling the deployed topology bumps the tracker version; models
        // fitted against the old plan must not be reused.
        shared
            .write()
            .update_parallelism("wordcount", &[("splitter", 3)])
            .unwrap();
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.fits > before.fits, "plan change must force a refit");
    }

    #[test]
    fn explicit_invalidation_drops_cached_entry() {
        let caladrius = service();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        caladrius.invalidate_model_cache(Some("wordcount"));
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        assert_eq!(caladrius.model_cache_stats().misses, 2);
    }

    #[test]
    fn invalid_requests_rejected() {
        let caladrius = service();
        assert!(caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(-1.0))
            .is_err());
        assert!(caladrius
            .evaluate("ghost", &HashMap::new(), &SourceRateSpec::Fixed(1.0))
            .is_err());
        assert!(caladrius.forecast_traffic("ghost", None).is_err());
    }

    #[test]
    fn recommend_parallelism_matches_linear_scan() {
        let caladrius = service();
        let (model, _) = caladrius.fitted_models("wordcount").unwrap();
        for rate in [
            5.0e6, 10.0e6, 20.0e6, 30.0e6, 40.0e6, 55.0e6, 70.0e6, 90.0e6, 150.0e6, 1.0e12,
        ] {
            let linear = (1..=16u32).find(|p| {
                let proposal = HashMap::from([("splitter".to_string(), *p)]);
                let (risk, _) = model.backpressure_risk(&proposal, rate).unwrap();
                risk == BackpressureRisk::Low
            });
            let binary = caladrius
                .recommend_parallelism("wordcount", "splitter", rate, 16)
                .unwrap();
            assert_eq!(binary, linear, "binary/linear divergence at {rate:.3e}");
        }
    }

    #[test]
    fn forecast_accuracy_scores_predictions_and_ranks_biased_model_worse() {
        use caladrius_forecast::stats::StatsSummaryModel;
        use caladrius_forecast::{ForecastError, ForecastPoint, Forecaster};

        /// A deliberately miscalibrated forecaster: the fitted
        /// stats-summary mean, tripled.
        struct BiasedModel(StatsSummaryModel);
        impl Forecaster for BiasedModel {
            fn fit(&mut self, history: &[DataPoint]) -> std::result::Result<(), ForecastError> {
                self.0.fit(history)
            }
            fn predict(
                &self,
                timestamps: &[i64],
            ) -> std::result::Result<Vec<ForecastPoint>, ForecastError> {
                Ok(self
                    .0
                    .predict(timestamps)?
                    .into_iter()
                    .map(|mut p| {
                        p.yhat *= 3.0;
                        p.lower *= 3.0;
                        p.upper *= 3.0;
                        p
                    })
                    .collect())
            }
            fn name(&self) -> &'static str {
                "biased"
            }
        }

        let (mut caladrius, metrics) = service_with_metrics();
        caladrius.traffic_registry_mut().register("biased", || {
            Box::new(BiasedModel(StatsSummaryModel::mean()))
        });

        // Two evaluations of the deployed topology, one per model. Each
        // registers a traffic prediction for the coming horizon (and a
        // throughput prediction for the deployed parallelism).
        for model in ["stats_summary", "biased"] {
            caladrius
                .evaluate(
                    "wordcount",
                    &HashMap::new(),
                    &SourceRateSpec::Forecast {
                        model: Some(model.into()),
                        conservative: false,
                    },
                )
                .unwrap();
        }
        assert!(caladrius.pending_predictions() >= 3);
        assert_eq!(caladrius.score_pending(), 0, "windows still open");

        // Let the future happen: run the topology (at the final sweep
        // leg's offered rate) through the full forecast horizon so the
        // watermark passes every pending window's end.
        let watermark = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        let topo = wordcount_topology(PARALLELISM, 26.0e6);
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(watermark as u64 / 60_000);
        sim.run_minutes_into(65, &metrics);

        let scored = caladrius.score_pending();
        assert!(scored >= 3, "expected ≥3 scored predictions, got {scored}");

        let summaries = caladrius.accuracy_summaries();
        let ape_of = |model: &str, kind: PredictionKind| {
            summaries
                .iter()
                .find(|s| s.model == model && s.kind == kind)
                .unwrap_or_else(|| panic!("no summary for {model}/{kind:?}"))
        };
        let fitted = ape_of("stats_summary", PredictionKind::Traffic);
        let biased = ape_of("biased", PredictionKind::Traffic);
        assert!(fitted.count >= 1 && biased.count >= 1);
        assert!(fitted.mean_ape.is_finite() && fitted.p90_ape >= 0.0);
        assert!(
            biased.mean_ape > fitted.mean_ape,
            "biased model (APE {:.3}) must score worse than fitted (APE {:.3})",
            biased.mean_ape,
            fitted.mean_ape
        );
        let throughput = ape_of("topology_model", PredictionKind::Throughput);
        assert!(throughput.count >= 1);

        // The APE histograms surface on the global registry too.
        let families = caladrius_obs::global_registry().families();
        assert!(families.iter().any(|f| f.name == "caladrius_forecast_ape"
            && f.rows
                .iter()
                .any(|r| r.labels.iter().any(|(k, v)| k == "model" && v == "biased"))));
    }

    #[test]
    fn plan_capacity_covers_the_horizon_and_counts_searches() {
        use crate::capacity::CapacityPlanRequest;
        let caladrius = service();
        let request = CapacityPlanRequest::default();
        let timeline = caladrius.plan_capacity("wordcount", &request).unwrap();

        // Default horizon is 60 forecast minutes in 15-minute windows.
        assert_eq!(timeline.windows.len(), 4);
        for window in &timeline.windows {
            // Only the modelled bolts are planned — never the spout.
            let names: Vec<&str> = window
                .parallelisms
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(names, vec!["splitter", "counter"]);
            assert!(window.cost.total_instances >= 2);
            assert!(window.cost.containers >= 1);
            // The model itself judges the planned configuration safe at
            // the planned (headroomed) rate.
            let proposal: HashMap<String, u32> = window.parallelisms.iter().cloned().collect();
            let report = caladrius
                .evaluate(
                    "wordcount",
                    &proposal,
                    &SourceRateSpec::Fixed(window.planned_rate),
                )
                .unwrap();
            assert_eq!(
                report.risk,
                BackpressureRisk::Low,
                "window {} plan is not Low-risk at {:.3e}",
                window.window,
                window.planned_rate
            );
        }
        assert!(!timeline.peak_parallelisms.is_empty());
        assert!(timeline.peak_cost.total_instances > 0);

        let stats = caladrius.model_cache_stats();
        assert_eq!(stats.plans, 1);
        assert!(stats.plan_evals >= timeline.oracle_evals);
        assert!(stats.plan_evals > 0);
        // The search revisits configurations (each ascent phase re-probes
        // its final assignment, smoothing re-probes solved plans): the
        // plan-time memo must absorb those instead of the models.
        assert!(stats.oracle_misses > 0);
        assert!(
            stats.oracle_hits > 0,
            "repeated assessments must hit the oracle memo"
        );

        // A second plan on unchanged data is served verbatim from the
        // plan cache: no new search, no new fits, identical timeline.
        let fits_before = stats.fits;
        let again = caladrius.plan_capacity("wordcount", &request).unwrap();
        assert_eq!(again, timeline, "cache hit must be byte-identical");
        let stats = caladrius.model_cache_stats();
        assert_eq!(stats.plans, 1, "cache hit must not run a search");
        assert_eq!(stats.fits, fits_before, "cache hit must not refit");
        let plan_cache = caladrius.plan_cache_stats();
        assert_eq!((plan_cache.hits, plan_cache.misses), (1, 1));
        assert_eq!(plan_cache.warm_starts, 0);
    }

    /// A service whose sliding window covers `[anchor, watermark]` of
    /// the shared metrics — the batch reference for the incremental
    /// equivalence assertions.
    fn batch_reference(metrics: &heron_sim::metrics::SimMetrics, window_minutes: u32) -> Caladrius {
        let config = crate::config::CaladriusConfig {
            source_window_minutes: window_minutes,
            ..crate::config::CaladriusConfig::default()
        };
        Caladrius::with_config(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6))),
            config,
        )
    }

    #[test]
    fn watermark_advance_refits_incrementally_and_matches_batch() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        let wm_old = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let cold = caladrius.model_cache_stats();
        assert!(cold.full_fits > 0, "first fit is a full fit");
        assert_eq!(cold.incremental_fits, 0);
        assert_eq!(cold.fits, cold.full_fits);

        // New data moves the watermark; the refit must absorb only the
        // delta into the cached sufficient statistics.
        run_leg(&metrics, 600, 24.0e6);
        let (inc_model, inc_cpu) = caladrius.fitted_models("wordcount").unwrap();
        let warm = caladrius.model_cache_stats();
        assert!(
            warm.incremental_fits > 0,
            "watermark advance must refit incrementally"
        );
        assert_eq!(
            warm.full_fits, cold.full_fits,
            "watermark advance must not trigger full refits"
        );
        assert_eq!(warm.fits, warm.full_fits + warm.incremental_fits);

        // Equivalence: the incremental models cover the anchored window
        // [wm_old - (W-1) min, wm_new]. A batch service whose sliding
        // window spans exactly that range pushes the identical
        // observation sequence through the same accumulators, so the
        // component models must agree bit for bit.
        let wm_new = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        let gap_minutes = ((wm_new - wm_old) / 60_000) as u32;
        let batch = batch_reference(
            &metrics,
            caladrius.config().source_window_minutes + gap_minutes,
        );
        let batch_model = batch.fit_topology_model("wordcount").unwrap();
        for name in ["splitter", "counter"] {
            let inc = inc_model.component_model(name).unwrap();
            let full = batch_model.component_model(name).unwrap();
            assert_eq!(
                inc.instance.alpha.to_bits(),
                full.instance.alpha.to_bits(),
                "incremental alpha for {name} must equal the batch fit"
            );
            assert_eq!(inc.instance.saturation, full.instance.saturation);
            for (a, b) in inc.shares.iter().zip(&full.shares) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // CPU observations are assembled instance-major, so the batch
        // push order interleaves differently — tolerance-bounded rather
        // than bitwise.
        let batch_cpu = batch.fit_cpu_models("wordcount").unwrap();
        assert_eq!(inc_cpu.len(), batch_cpu.len());
        for (name, inc) in inc_cpu.iter() {
            let full = &batch_cpu[name];
            assert!(
                (inc.psi - full.psi).abs() <= 1e-9 * full.psi.abs().max(1.0),
                "cpu psi for {name}: incremental {} vs batch {}",
                inc.psi,
                full.psi
            );
            assert!((inc.base - full.base).abs() <= 1e-9 * full.base.abs().max(1.0));
        }
    }

    #[test]
    fn truncation_forces_full_refit() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // Retention drops the oldest leg: the cached sufficient
        // statistics cover windows that no longer exist, so the delta
        // path must be refused even though only the watermark moved.
        metrics.db().truncate_before(200 * 60_000).unwrap();
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(
            after.incremental_fits, before.incremental_fits,
            "truncated history must not be patched incrementally"
        );
        assert!(
            after.full_fits > before.full_fits,
            "truncation must force a full refit"
        );
    }

    #[test]
    fn retention_eviction_forces_full_refit() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // A retention pass evicts old chunks through the same truncation
        // path the cache guards on (the generation counter), so fitted
        // state over evicted windows must be rebuilt in full.
        let dropped = caladrius_tsdb::retention::RetentionPolicy::hours(4)
            .enforce(&metrics.db())
            .unwrap();
        assert!(dropped > 0, "retention must evict chunks for this test");
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.incremental_fits, before.incremental_fits);
        assert!(
            after.full_fits > before.full_fits,
            "retention-driven eviction must force a full refit"
        );
    }

    #[test]
    fn long_gap_reanchors_with_full_refit() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // The next leg lands far past twice the training window: the
        // anchored window would outgrow its re-anchor bound, so the
        // cache falls back to a cold fit over the fresh sliding window.
        run_leg(&metrics, 1600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.incremental_fits, before.incremental_fits);
        assert!(
            after.full_fits > before.full_fits,
            "re-anchor must refit in full"
        );
    }

    #[test]
    fn forecaster_cache_updates_incrementally_and_matches_batch() {
        let models = ["stats_summary".to_string()];
        let (caladrius, metrics) = service_with_metrics();
        let wm_old = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        let first = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        let again = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        assert_eq!(first, again, "cached forecaster must be deterministic");

        // New data: the cached forecaster absorbs the tail. The result
        // must equal a fresh fit over the anchored window
        // [anchor, wm_new] — same points pushed in the same order.
        run_leg(&metrics, 600, 24.0e6);
        let incremental = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap()
            .pop()
            .unwrap();
        let wm_new = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        let gap_minutes = ((wm_new - wm_old) / 60_000) as u32;
        let batch = batch_reference(
            &metrics,
            caladrius.config().source_window_minutes + gap_minutes,
        );
        let full = batch
            .forecast_traffic("wordcount", Some(&models))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(incremental.points.len(), full.points.len());
        for (a, b) in incremental.points.iter().zip(&full.points) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(
                a.yhat.to_bits(),
                b.yhat.to_bits(),
                "incremental forecast must equal the batch fit over the anchored window"
            );
        }
    }
}
