//! Metrics provider: the interface Caladrius pulls performance metrics
//! through, and the observation-window assembly feeding the models.

use crate::error::{CoreError, Result};
use crate::model::component::ComponentObservation;
use crate::model::cpu::CpuObservation;
use caladrius_forecast::DataPoint;
use caladrius_tsdb::{DataVersion, IngestStats, Sample, SeriesKey, TagFilter, TailCacheStats};
use heron_sim::metrics::{metric, SimMetrics};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};

/// Backpressure-time (ms per minute) above which a window counts as
/// backpressured. The metric is bimodal (≈0 or ≈60 000, paper §IV-B1), so
/// the exact threshold is uncritical.
pub const BACKPRESSURE_THRESHOLD_MS: f64 = 1_000.0;

/// Access to per-minute, per-instance metrics of running topologies —
/// the paper's "Metrics Interface", implemented against Cuckoo and the
/// HeronMetricsCache at Twitter, and against the simulator tsdb here.
pub trait MetricsProvider: Send + Sync {
    /// Per-minute sum of `metric_name` across all instances of
    /// `component` in `[from, to]`.
    fn component_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<Sample>>;

    /// Per-minute series of `metric_name` per instance of `component`.
    fn per_instance_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<(u32, Vec<Sample>)>>;

    /// The [`DataVersion`] of the topology's own metrics, `None` when
    /// the topology is unknown or has no data. Every cache in
    /// [`crate::service::Caladrius`] is keyed on it, so it must change
    /// whenever data the topology's answers read from changes: new
    /// samples move the watermark, and out-of-order or duplicate samples
    /// and truncations move the rewrite count. Another topology's writes
    /// must not move it.
    fn data_version(&self, topology: &str) -> Option<DataVersion>;

    /// Timestamp (ms) of the newest recorded minute for the topology, if
    /// any data exists: the watermark of [`MetricsProvider::data_version`].
    fn latest_minute(&self, topology: &str) -> Option<i64> {
        self.data_version(topology).map(|v| v.watermark)
    }

    /// Cumulative ingest counters of the backing store, if it exposes
    /// them (`None` for providers without ingest visibility).
    fn ingest_stats(&self) -> Option<IngestStats> {
        None
    }

    /// Decoded-tail cache hit/miss counters of the backing store, if it
    /// exposes them (`None` for providers without a tail cache).
    fn tail_cache_stats(&self) -> Option<caladrius_tsdb::TailCacheStats> {
        None
    }

    /// Scope ids (`db` label values) of the tsdb stores behind this
    /// provider, so a service's exposition includes its own stores'
    /// series and no other's. Empty for providers without a tsdb.
    fn db_scopes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Raw series access for ad-hoc queries (the metrics-debugging
    /// endpoint): every series of `metric_name` within the topology that
    /// matches `filters`, with its full key.
    fn select_series(
        &self,
        topology: &str,
        metric_name: &str,
        filters: &[caladrius_tsdb::TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(caladrius_tsdb::SeriesKey, Vec<Sample>)>>;
}

/// The tsdb-backed provider used with the simulator: one [`SimMetrics`]
/// store per topology, looked up by topology id.
///
/// * **Data-version isolation** — the service's caches are keyed by
///   each topology's [`DataVersion`], and every topology has its *own*
///   store (own `MetricsDb`, own watermark and rewrite count), so one
///   topology's ingest or truncation never invalidates another's cached
///   models.
/// * **Online registration** — stores register while the service runs
///   (a fleet shard hosts topologies as tenants arrive), so the map sits
///   behind a `RwLock`. Reads run under the read guard on the borrowed
///   store: no clone, no allocation per read.
#[derive(Debug, Default)]
pub struct SimMetricsProvider {
    stores: RwLock<HashMap<String, SimMetrics>>,
}

impl SimMetricsProvider {
    /// A provider holding one store, registered under its topology id.
    pub fn new(metrics: SimMetrics) -> Self {
        let provider = Self::default();
        provider.register(metrics);
        provider
    }

    /// Registers (or replaces) a store under its topology id.
    pub fn register(&self, metrics: SimMetrics) {
        self.stores
            .write()
            .insert(metrics.topology().to_string(), metrics);
    }

    /// A handle on the store of `topology`, if registered.
    pub fn metrics(&self, topology: &str) -> Option<SimMetrics> {
        self.stores.read().get(topology).cloned()
    }

    /// Number of registered stores.
    pub fn len(&self) -> usize {
        self.stores.read().len()
    }

    /// True when no store is registered.
    pub fn is_empty(&self) -> bool {
        self.stores.read().is_empty()
    }

    /// Runs `read` on the store of `topology` under the read guard.
    fn read<T>(&self, topology: &str, read: impl FnOnce(&SimMetrics) -> T) -> Result<T> {
        let stores = self.stores.read();
        let metrics = stores
            .get(topology)
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))?;
        Ok(read(metrics))
    }
}

impl MetricsProvider for SimMetricsProvider {
    fn component_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<Sample>> {
        self.read(topology, |m| {
            m.component_sum(metric_name, Some(component), from, to)
        })
    }

    fn per_instance_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<(u32, Vec<Sample>)>> {
        self.read(topology, |m| {
            m.per_instance(metric_name, component, from, to)
        })
    }

    fn data_version(&self, topology: &str) -> Option<DataVersion> {
        // O(1) off the per-db counters — no catalog scan, no series locks.
        self.read(topology, |m| m.db().data_version()).ok()?
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        let mut total = IngestStats::default();
        for metrics in self.stores.read().values() {
            let stats = metrics.db().ingest_stats();
            total.batches += stats.batches;
            total.samples += stats.samples;
        }
        Some(total)
    }

    fn tail_cache_stats(&self) -> Option<TailCacheStats> {
        let mut total = TailCacheStats::default();
        for metrics in self.stores.read().values() {
            let stats = metrics.db().tail_cache_stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
        }
        Some(total)
    }

    fn db_scopes(&self) -> Vec<String> {
        self.stores
            .read()
            .values()
            .map(|m| m.db().scope_id().to_string())
            .collect()
    }

    fn select_series(
        &self,
        topology: &str,
        metric_name: &str,
        filters: &[TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(SeriesKey, Vec<Sample>)>> {
        let mut scoped = vec![TagFilter::eq(heron_sim::metrics::tag::TOPOLOGY, topology)];
        scoped.extend_from_slice(filters);
        let rows = self.read(topology, |m| m.db().select(metric_name, &scoped, from, to))??;
        Ok(rows)
    }
}

/// Assembles per-minute [`ComponentObservation`]s for one component.
///
/// `upstream_emits` lists `(upstream component, fraction of its emission
/// that reaches this component)` pairs; the component's source rate per
/// minute is the weighted sum of those upstream emit series — "the
/// throughput that the external source provides whilst waiting to be
/// processed by the entity" (paper §II-C), seen from inside the topology.
pub fn component_observations(
    provider: &dyn MetricsProvider,
    topology: &str,
    component: &str,
    upstream_emits: &[(String, f64)],
    from: i64,
    to: i64,
) -> Result<Vec<ComponentObservation>> {
    let input = provider.component_series(topology, component, metric::EXECUTE_COUNT, from, to)?;
    let output = provider.component_series(topology, component, metric::EMIT_COUNT, from, to)?;
    let bp = provider.component_series(topology, component, metric::BACKPRESSURE_TIME, from, to)?;
    let per_instance =
        provider.per_instance_series(topology, component, metric::EXECUTE_COUNT, from, to)?;

    // Source = weighted sum of upstream emissions, minute-aligned.
    let mut source: BTreeMap<i64, f64> = BTreeMap::new();
    for (upstream, weight) in upstream_emits {
        for s in provider.component_series(topology, upstream, metric::EMIT_COUNT, from, to)? {
            *source.entry(s.ts).or_insert(0.0) += s.value * weight;
        }
    }

    let input_by_ts: BTreeMap<i64, f64> = input.iter().map(|s| (s.ts, s.value)).collect();
    let output_by_ts: BTreeMap<i64, f64> = output.iter().map(|s| (s.ts, s.value)).collect();
    let bp_by_ts: BTreeMap<i64, f64> = bp.iter().map(|s| (s.ts, s.value)).collect();

    let mut observations = Vec::new();
    for (ts, input_rate) in &input_by_ts {
        let Some(output_rate) = output_by_ts.get(ts) else {
            continue;
        };
        let source_rate = source.get(ts).copied().unwrap_or(*input_rate);
        let backpressured = bp_by_ts.get(ts).copied().unwrap_or(0.0) > BACKPRESSURE_THRESHOLD_MS;
        let per_instance_inputs: Vec<f64> = per_instance
            .iter()
            .map(|(_, series)| {
                series
                    .iter()
                    .find(|s| s.ts == *ts)
                    .map(|s| s.value)
                    .unwrap_or(0.0)
            })
            .collect();
        observations.push(ComponentObservation {
            source_rate,
            input_rate: *input_rate,
            output_rate: *output_rate,
            per_instance_inputs,
            backpressured,
        });
    }
    if observations.is_empty() {
        return Err(CoreError::NotEnoughObservations {
            what: format!("component observations for {component:?}"),
            needed: 1,
            got: 0,
        });
    }
    Ok(observations)
}

/// The topology's source-throughput history (offered load summed over all
/// spouts, tuples/min) as forecaster training data.
pub fn source_history(
    provider: &dyn MetricsProvider,
    topology: &str,
    spouts: &[String],
    from: i64,
    to: i64,
) -> Result<Vec<DataPoint>> {
    let mut by_ts: BTreeMap<i64, f64> = BTreeMap::new();
    for spout in spouts {
        for s in provider.component_series(topology, spout, metric::SOURCE_OFFERED, from, to)? {
            *by_ts.entry(s.ts).or_insert(0.0) += s.value;
        }
    }
    if by_ts.is_empty() {
        return Err(CoreError::NotEnoughObservations {
            what: format!("source history for {topology:?}"),
            needed: 1,
            got: 0,
        });
    }
    Ok(by_ts
        .into_iter()
        .map(|(ts, y)| DataPoint::new(ts, y))
        .collect())
}

/// Pools per-instance `(input rate, cpu load)` pairs of a component into
/// CPU-model training data.
///
/// Backpressured windows are excluded: at saturation the measured CPU is
/// clipped at the instance's allocation ("its CPU ... load is supposed to
/// be at the maximum possible level", paper §V-E), so including those
/// windows would bias the linear ratio ψ.
pub fn cpu_observations(
    provider: &dyn MetricsProvider,
    topology: &str,
    component: &str,
    from: i64,
    to: i64,
) -> Result<Vec<CpuObservation>> {
    let inputs =
        provider.per_instance_series(topology, component, metric::EXECUTE_COUNT, from, to)?;
    let cpus = provider.per_instance_series(topology, component, metric::CPU_LOAD, from, to)?;
    let bps =
        provider.per_instance_series(topology, component, metric::BACKPRESSURE_TIME, from, to)?;
    let by_instance = |series: Vec<(u32, Vec<Sample>)>| -> BTreeMap<u32, BTreeMap<i64, f64>> {
        series
            .into_iter()
            .map(|(i, s)| (i, s.into_iter().map(|x| (x.ts, x.value)).collect()))
            .collect()
    };
    let cpu_by_instance = by_instance(cpus);
    let bp_by_instance = by_instance(bps);
    let mut observations = Vec::new();
    for (instance, series) in inputs {
        let Some(cpu_series) = cpu_by_instance.get(&instance) else {
            continue;
        };
        let bp_series = bp_by_instance.get(&instance);
        for s in series {
            let backpressured = bp_series
                .and_then(|b| b.get(&s.ts))
                .is_some_and(|ms| *ms > BACKPRESSURE_THRESHOLD_MS);
            if backpressured {
                continue;
            }
            if let Some(cpu) = cpu_series.get(&s.ts) {
                observations.push(CpuObservation {
                    input_rate: s.value,
                    cpu_load: *cpu,
                });
            }
        }
    }
    if observations.is_empty() {
        return Err(CoreError::NotEnoughObservations {
            what: format!("cpu observations for {component:?}"),
            needed: 2,
            got: 0,
        });
    }
    Ok(observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_sim::engine::{SimConfig, Simulation};
    use heron_sim::grouping::Grouping;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{TopologyBuilder, WorkProfile};

    fn run_sim(rate: f64) -> SimMetrics {
        let mut sim = sim_named("t", rate);
        sim.warmup_minutes(2);
        sim.run_minutes(10)
    }

    fn sim_named(name: &str, rate: f64) -> Simulation {
        let topo = TopologyBuilder::new(name)
            .spout("spout", 2, RateProfile::constant(rate), 60)
            .bolt(
                "bolt",
                2,
                WorkProfile::new(1000.0, 2.0, 8).with_gateway_overhead(0.0),
            )
            .edge("spout", "bolt", Grouping::shuffle())
            .build()
            .unwrap();
        Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap()
    }

    /// Two stores in one provider: `a` and a live simulation feeding `b`.
    fn two_store_provider() -> (SimMetricsProvider, Simulation, SimMetrics) {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let mut sim_b = sim_named("b", 300.0);
        sim_b.warmup_minutes(2);
        let b = sim_b.run_minutes(10);
        provider.register(b.clone());
        (provider, sim_b, b)
    }

    #[test]
    fn one_stores_ingest_and_truncation_leave_the_others_version() {
        let (provider, mut sim_b, b) = two_store_provider();
        assert_eq!(provider.len(), 2);
        let a_version = provider.data_version("t").expect("a has data");
        let b_version = provider.data_version("b").expect("b has data");

        sim_b.run_minutes_into(1, &b);
        let b_ingested = provider.data_version("b").unwrap();
        assert_ne!(b_ingested, b_version, "b's ingest moves b's version");
        assert_eq!(provider.data_version("t"), Some(a_version));

        let cutoff = provider.latest_minute("b").unwrap();
        assert!(b.db().truncate_before(cutoff).unwrap() > 0);
        assert_ne!(provider.data_version("b"), Some(b_ingested));
        assert_eq!(provider.data_version("t"), Some(a_version));
    }

    #[test]
    fn unknown_topology_is_unknown_on_every_read() {
        let (provider, _, _) = two_store_provider();
        let unknown = |r: Result<()>| matches!(r, Err(CoreError::Unknown(_)));
        assert!(unknown(
            provider
                .component_series("ghost", "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
                .map(drop)
        ));
        assert!(unknown(
            provider
                .per_instance_series("ghost", "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
                .map(drop)
        ));
        assert!(unknown(
            provider
                .select_series("ghost", metric::EXECUTE_COUNT, &[], 0, i64::MAX)
                .map(drop)
        ));
        assert_eq!(provider.data_version("ghost"), None);
        assert!(provider.metrics("ghost").is_none());
    }

    #[test]
    fn stats_and_scopes_cover_every_store() {
        let (provider, mut sim_b, b) = two_store_provider();
        let a = provider.metrics("t").expect("registered");
        // Seal a chunk in b's series, so reads reach the tail cache.
        sim_b.run_minutes_into(caladrius_tsdb::series::DEFAULT_CHUNK_SIZE as u64, &b);
        for topology in ["t", "b", "b"] {
            provider
                .component_series(topology, "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
                .unwrap();
        }
        let (a_ingest, b_ingest) = (a.db().ingest_stats(), b.db().ingest_stats());
        let ingest = provider.ingest_stats().unwrap();
        assert_eq!(ingest.batches, a_ingest.batches + b_ingest.batches);
        assert_eq!(ingest.samples, a_ingest.samples + b_ingest.samples);
        let (a_tail, b_tail) = (a.db().tail_cache_stats(), b.db().tail_cache_stats());
        let tail = provider.tail_cache_stats().unwrap();
        assert_eq!(tail.hits, a_tail.hits + b_tail.hits);
        assert_eq!(tail.misses, a_tail.misses + b_tail.misses);
        assert!(
            tail.hits > 0 && tail.misses > 0,
            "b's reads reach the tail cache"
        );
        let mut scopes = provider.db_scopes();
        scopes.sort();
        let mut expected = vec![a.db().scope_id().to_string(), b.db().scope_id().to_string()];
        expected.sort();
        assert_eq!(scopes, expected);
    }

    #[test]
    fn provider_reads_component_series() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let series = provider
            .component_series("t", "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
            .unwrap();
        assert_eq!(series.len(), 10);
        assert!((series[5].value - 500.0 * 60.0).abs() < 1.0);
        assert!(provider
            .component_series("other", "bolt", metric::EXECUTE_COUNT, 0, 1)
            .is_err());
        assert!(provider.latest_minute("t").is_some());
        assert!(provider.latest_minute("other").is_none());
    }

    #[test]
    fn observations_align_minutes() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let obs = component_observations(
            &provider,
            "t",
            "bolt",
            &[("spout".to_string(), 1.0)],
            0,
            i64::MAX,
        )
        .unwrap();
        assert_eq!(obs.len(), 10);
        for o in &obs {
            assert!((o.source_rate - 30_000.0).abs() < 1.0);
            assert!((o.input_rate - 30_000.0).abs() < 1.0);
            // The bolt is a sink: its recorded output is its processing
            // throughput (the way the paper counts the Counter's output),
            // not input × selectivity.
            assert!((o.output_rate - 30_000.0).abs() < 1.0);
            assert_eq!(o.per_instance_inputs.len(), 2);
            assert!(!o.backpressured);
        }
    }

    #[test]
    fn source_history_sums_spouts() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let hist = source_history(&provider, "t", &["spout".to_string()], 0, i64::MAX).unwrap();
        assert_eq!(hist.len(), 10);
        assert!((hist[0].y - 30_000.0).abs() < 1.0);
        assert!(hist.windows(2).all(|w| w[1].ts - w[0].ts == 60_000));
    }

    #[test]
    fn cpu_observations_pool_instances() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let obs = cpu_observations(&provider, "t", "bolt", 0, i64::MAX).unwrap();
        assert_eq!(obs.len(), 20); // 2 instances x 10 minutes
        for o in &obs {
            assert!(o.cpu_load > 0.0 && o.cpu_load <= 1.0);
            assert!(o.input_rate > 0.0);
        }
    }

    #[test]
    fn missing_component_yields_not_enough_observations() {
        let provider = SimMetricsProvider::new(run_sim(100.0));
        assert!(matches!(
            component_observations(&provider, "t", "ghost", &[], 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
        assert!(matches!(
            cpu_observations(&provider, "t", "ghost", 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
        assert!(matches!(
            source_history(&provider, "t", &["ghost".to_string()], 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
    }
}
