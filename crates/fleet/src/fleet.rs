//! The sharded fleet: N independent `Caladrius` instances behind one
//! front door, plus the cluster-level container-budget planner.
//!
//! Topologies are pinned to shards by rendezvous hashing on the
//! topology id ([`crate::hash::assign_shard`]), so growing the fleet
//! only migrates topologies onto the new shard and every surviving
//! shard keeps its tsdb contents and warm model caches. Each shard runs
//! its own [`Caladrius`] over a multi-store [`SimMetricsProvider`] (one
//! tsdb store per hosted topology) and a [`StaticTracker`] that
//! registers topologies online, with a `shard="<index>"` label on its
//! obs series, which keeps per-shard cache and plan behaviour separable in
//! one `/metrics` exposition.
//!
//! [`Fleet::plan_fleet`] is the cluster planner: it runs every
//! topology's *unconstrained* capacity plan in parallel, reads the
//! per-window container demand off the timelines, splits the cluster
//! container budget with the exact greedy allocator
//! ([`crate::allocator`]), and re-plans only the topologies whose grant
//! binds — handing the grant to the planner as
//! `ResourceLimits::max_containers`.

use crate::allocator::{allocate_greedy, risk, Allocation, TopologyDemand};
use crate::hash::assign_shard;
use caladrius_core::capacity::{CapacityPlanRequest, PlanCacheLookup};
use caladrius_core::config::CaladriusConfig;
use caladrius_core::providers::{MetricsProvider, SimMetricsProvider, StaticTracker};
use caladrius_core::{Caladrius, CoreError, ModelCacheStats, PlanCacheStats, Result};
use caladrius_obs::{Counter, ParentSpanScope, RequestScope};
use caladrius_planner::{PlanTimeline, UNLIMITED_CONTAINERS};
use caladrius_tsdb::{IngestStats, MetricBatch};
use heron_sim::metrics::SimMetrics;
use heron_sim::topology::Topology;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Fleet-tier configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (each a full `Caladrius` instance). Must be at
    /// least 1.
    pub shards: usize,
    /// Cluster-wide container budget split across topologies by
    /// [`Fleet::plan_fleet`]. [`UNLIMITED_CONTAINERS`] disables the
    /// allocator (every topology keeps its unconstrained plan).
    pub cluster_container_budget: u32,
    /// Per-shard service configuration.
    pub caladrius: CaladriusConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            cluster_container_budget: UNLIMITED_CONTAINERS,
            caladrius: CaladriusConfig::default(),
        }
    }
}

/// One shard: a `Caladrius` instance plus its shard-local seams and
/// ingest counters.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    service: Caladrius,
    provider: Arc<SimMetricsProvider>,
    tracker: Arc<StaticTracker>,
    ingest_batches: Counter,
    ingest_samples: Counter,
}

impl Shard {
    fn new(index: usize, fleet_id: &str, config: &CaladriusConfig) -> Shard {
        let provider = Arc::new(SimMetricsProvider::default());
        let tracker = Arc::new(StaticTracker::new());
        let label = index.to_string();
        let service = Caladrius::with_config_labelled(
            Arc::clone(&provider) as _,
            Arc::clone(&tracker) as _,
            config.clone(),
            &[("shard", &label)],
        );
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_fleet_ingest_batches_total",
            "Metric batches routed to a shard by the fleet tier",
        );
        registry.describe(
            "caladrius_fleet_ingest_samples_total",
            "Metric samples routed to a shard by the fleet tier",
        );
        // The fleet id keeps co-resident fleets (tests, blue/green
        // deployments) from sharing counter series, mirroring the
        // per-instance `service` label on `Caladrius`' own metrics.
        let labels = [("fleet", fleet_id), ("shard", &label)];
        Shard {
            index,
            service,
            ingest_batches: registry.counter("caladrius_fleet_ingest_batches_total", &labels),
            ingest_samples: registry.counter("caladrius_fleet_ingest_samples_total", &labels),
            provider,
            tracker,
        }
    }

    /// Shard index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's service instance.
    pub fn service(&self) -> &Caladrius {
        &self.service
    }

    /// Number of topologies hosted by this shard.
    pub fn topologies(&self) -> usize {
        self.provider.len()
    }
}

/// One topology's slice of a fleet plan.
#[derive(Debug, Clone)]
pub struct TopologyPlanOutcome {
    /// Topology id.
    pub topology: String,
    /// Hosting shard.
    pub shard: usize,
    /// Per-window container demand of the unconstrained plan.
    pub demand: Vec<u32>,
    /// Containers granted by the cluster allocator.
    pub granted_containers: u32,
    /// Residual backpressure risk under the grant.
    pub risk: f64,
    /// The plan honoured by the grant: the unconstrained timeline when
    /// the grant covers peak demand, otherwise the constrained re-plan.
    /// `None` when planning failed (see `error`).
    pub timeline: Option<PlanTimeline>,
    /// Why no timeline was produced, when planning failed.
    pub error: Option<String>,
}

/// The cluster plan: per-topology grants and timelines under one
/// container budget.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Budget the allocation ran under.
    pub budget: u32,
    /// Containers handed out across the fleet (`≤ budget`).
    pub total_granted: u32,
    /// Topologies whose unconstrained plan was served verbatim from the
    /// shard plan caches (nothing changed since the previous replan —
    /// these never touched the plan pool).
    pub unchanged: usize,
    /// Topologies whose data moved since their last plan: re-planned,
    /// warm-started from the stale cached timeline.
    pub drifted: usize,
    /// Topologies never planned before (no cache entry): planned cold.
    pub cold: usize,
    /// Per-topology outcomes, sorted by topology id.
    pub outcomes: Vec<TopologyPlanOutcome>,
}

impl FleetPlan {
    /// Number of topologies whose plan failed.
    pub fn errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }
}

/// Health snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Topologies hosted.
    pub topologies: usize,
    /// Model-cache counters of the shard's service.
    pub model_cache: ModelCacheStats,
    /// Plan-cache counters of the shard's service.
    pub plan_cache: PlanCacheStats,
    /// tsdb ingest totals across the shard's topologies.
    pub ingest: IngestStats,
    /// Decoded-tail cache totals across the shard's topologies.
    pub tail_cache: caladrius_tsdb::TailCacheStats,
    /// Batches the fleet tier routed to this shard.
    pub routed_batches: u64,
}

/// Health snapshot of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Total topologies across shards.
    pub topologies: usize,
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardHealth>,
}

/// The sharded fleet service.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<Shard>,
    /// topology id → (shard index, that topology's metrics store).
    assignments: RwLock<HashMap<String, (usize, SimMetrics)>>,
    /// This fleet's `fleet` label value.
    scope_id: String,
}

impl Fleet {
    /// Builds a fleet of `config.shards` empty shards.
    pub fn new(config: FleetConfig) -> Fleet {
        assert!(config.shards > 0, "a fleet needs at least one shard");
        let fleet_id = caladrius_obs::next_scope_id().to_string();
        let shards = (0..config.shards)
            .map(|index| Shard::new(index, &fleet_id, &config.caladrius))
            .collect();
        Fleet {
            config,
            shards,
            assignments: RwLock::new(HashMap::new()),
            scope_id: fleet_id,
        }
    }

    /// The obs scopes this fleet owns, as `(label, scope id)` pairs: its
    /// own `fleet` id plus every shard service's scopes (see
    /// [`Caladrius::obs_scopes`]).
    pub fn obs_scopes(&self) -> Vec<(&'static str, String)> {
        let mut scopes = vec![("fleet", self.scope_id.clone())];
        for shard in &self.shards {
            scopes.extend(shard.service.obs_scopes());
        }
        scopes
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of registered topologies.
    pub fn len(&self) -> usize {
        self.assignments.read().len()
    }

    /// True when no topology is registered.
    pub fn is_empty(&self) -> bool {
        self.assignments.read().is_empty()
    }

    /// All registered topology ids, sorted.
    pub fn topologies(&self) -> Vec<String> {
        let mut names: Vec<String> = self.assignments.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The shard hosting `topology`, if registered.
    pub fn shard_of(&self, topology: &str) -> Option<usize> {
        self.assignments.read().get(topology).map(|(s, _)| *s)
    }

    /// Registers a topology: pins it to its rendezvous shard, creates
    /// its own metrics store there, and records it with the shard's
    /// tracker. Re-registering bumps the tracker version (invalidating
    /// cached models) but keeps the existing metrics store.
    pub fn register(&self, topology: Topology) -> SimMetrics {
        let name = topology.name.clone();
        let index = assign_shard(&name, self.shards.len());
        let shard = &self.shards[index];
        let metrics = shard.provider.metrics(&name).unwrap_or_else(|| {
            let metrics = SimMetrics::new(&name);
            shard.provider.register(metrics.clone());
            metrics
        });
        shard.tracker.insert(topology);
        self.assignments
            .write()
            .insert(name, (index, metrics.clone()));
        metrics
    }

    /// Routes a metric batch to the owning shard's store for
    /// `topology`. Errors when the topology is not registered.
    ///
    /// When a request id is installed (the HTTP ingest path), the hop is
    /// recorded as a `fleet.ingest` span so `/trace/recent` shows which
    /// shard the batch landed on; bulk feeding outside a request stays
    /// span-free so it cannot flush the trace ring.
    pub fn ingest(&self, topology: &str, batch: &MetricBatch) -> Result<()> {
        let mut span =
            caladrius_obs::current_request_id().map(|_| caladrius_obs::global_span("fleet.ingest"));
        let (index, metrics) = self
            .assignments
            .read()
            .get(topology)
            .cloned()
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))?;
        metrics.ingest(batch);
        let shard = &self.shards[index];
        shard.ingest_batches.inc();
        shard.ingest_samples.add(batch.len() as u64);
        if let Some(span) = span.as_mut() {
            span.field("topology", topology)
                .field("shard", index)
                .field("samples", batch.len());
        }
        Ok(())
    }

    /// Plans capacity for one topology on its owning shard (the
    /// single-tenant path, budget-unaware).
    pub fn plan_topology(
        &self,
        topology: &str,
        request: &CapacityPlanRequest,
    ) -> Result<PlanTimeline> {
        let index = self
            .shard_of(topology)
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))?;
        self.shards[index].service.plan_capacity(topology, request)
    }

    /// The cluster planner: unconstrained plans for every topology in
    /// parallel, budget split by the greedy allocator, constrained
    /// re-plans where the grant binds. `budget` overrides the
    /// configured cluster budget when given.
    pub fn plan_fleet(&self, request: &CapacityPlanRequest, budget: Option<u32>) -> FleetPlan {
        let budget = budget.unwrap_or(self.config.cluster_container_budget);
        let names = self.topologies();
        let pool = caladrius_exec::shared_pool("fleet-plan");

        // The cluster plan is one `fleet.plan` span; its id and the
        // caller's request id cross into the pool workers so every
        // per-topology `fleet.shard.plan` span — and the `core.plan`
        // spans beneath them — reconstructs as one tree under the
        // originating request in `/trace/recent`.
        let request_id = caladrius_obs::current_request_id();
        let mut plan_span = caladrius_obs::global_span("fleet.plan");
        plan_span
            .field("topologies", names.len())
            .field("budget", budget);
        let plan_span_id = plan_span.id();
        // One pool task: a `fleet.shard.plan` span (constrained when it
        // carries a grant) on the owning shard.
        let shard_plan = |i: usize, request: &CapacityPlanRequest, grant: Option<u32>| {
            let _request = request_id.map(RequestScope::enter);
            let _parent = ParentSpanScope::enter(plan_span_id);
            let mut span = caladrius_obs::global_span("fleet.shard.plan");
            span.field("topology", &names[i])
                .field("shard", self.shard_of(&names[i]).unwrap_or(0));
            match grant {
                None => span.field("stage", "unconstrained"),
                Some(grant) => span.field("stage", "constrained").field("grant", grant),
            };
            self.plan_topology(&names[i], request)
        };

        // Stage 1: delta partition, then unconstrained plans for what
        // actually changed. The plan-cache probe is cheap (no models, no
        // forecasts), so unchanged topologies are served inline and
        // never touch the pool; drifted and cold ones fan out across
        // shards, where `plan_capacity` warm-starts drifted searches
        // from their stale cached timelines.
        let mut unconstrained = request.clone();
        unconstrained.planner.limits.max_containers = UNLIMITED_CONTAINERS;
        let mut first: Vec<Option<Result<PlanTimeline>>> = Vec::with_capacity(names.len());
        let (mut unchanged, mut drifted, mut cold) = (0usize, 0usize, 0usize);
        let mut pending: Vec<usize> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let lookup = self.shard_of(name).map(|s| {
                self.shards[s]
                    .service
                    .plan_cache_lookup(name, &unconstrained)
            });
            match lookup {
                Some(Ok(PlanCacheLookup::Hit(timeline))) => {
                    unchanged += 1;
                    first.push(Some(Ok(timeline)));
                    continue;
                }
                Some(Ok(PlanCacheLookup::Stale(_))) => drifted += 1,
                // Absent, unregistered, or unprobeable (e.g. no metrics
                // yet): plan cold and let the real error surface there.
                _ => cold += 1,
            }
            first.push(None);
            pending.push(i);
        }
        let solved: Vec<Result<PlanTimeline>> =
            pool.parallel_map(&pending, |_, i| shard_plan(*i, &unconstrained, None));
        for (i, outcome) in pending.into_iter().zip(solved) {
            first[i] = Some(outcome);
        }
        let first: Vec<Result<PlanTimeline>> = first
            .into_iter()
            .map(|o| o.expect("every topology is cached or planned"))
            .collect();
        plan_span
            .field("unchanged", unchanged)
            .field("drifted", drifted)
            .field("cold", cold);

        // Stage 2: demand curves → budget grants. Failed plans carry an
        // empty curve, so the allocator skips them.
        let demands: Vec<TopologyDemand> = names
            .iter()
            .zip(&first)
            .map(|(name, outcome)| TopologyDemand {
                topology: name.clone(),
                per_window_containers: outcome
                    .as_ref()
                    .map(|t| t.windows.iter().map(|w| w.cost.containers).collect())
                    .unwrap_or_default(),
            })
            .collect();
        let allocation = self.allocate(&demands, budget);

        // Stage 3: constrained re-plans, only where the grant binds.
        // The constrained request key covers `max_containers`, so a
        // plan-cache hit here means the grant is unchanged vs the
        // previous fleet plan over unchanged data — those re-plans are
        // served from cache and skip the pool too.
        let replan_grants: Vec<(usize, u32)> = demands
            .iter()
            .enumerate()
            .filter_map(|(i, demand)| {
                let grant = allocation.grants[i].containers;
                (first[i].is_ok() && grant > 0 && grant < demand.peak()).then_some((i, grant))
            })
            .collect();
        let mut replans: HashMap<usize, Result<PlanTimeline>> = HashMap::new();
        let mut pooled_grants: Vec<(usize, u32)> = Vec::new();
        for (i, grant) in replan_grants {
            let mut constrained = request.clone();
            constrained.planner.limits.max_containers = grant;
            let hit = self.shard_of(&names[i]).and_then(|s| {
                match self.shards[s]
                    .service
                    .plan_cache_lookup(&names[i], &constrained)
                {
                    Ok(PlanCacheLookup::Hit(timeline)) => Some(timeline),
                    _ => None,
                }
            });
            match hit {
                Some(timeline) => {
                    replans.insert(i, Ok(timeline));
                }
                None => pooled_grants.push((i, grant)),
            }
        }
        replans.extend(pooled_grants.iter().map(|(i, _)| *i).zip(pool.parallel_map(
            &pooled_grants,
            |_, (i, grant)| {
                let mut constrained = request.clone();
                constrained.planner.limits.max_containers = *grant;
                shard_plan(*i, &constrained, Some(*grant))
            },
        )));

        let outcomes = names
            .into_iter()
            .zip(first)
            .enumerate()
            .map(|(i, (topology, outcome))| {
                let grant = allocation.grants[i].containers;
                let demand = demands[i].per_window_containers.clone();
                let shard = self.shard_of(&topology).unwrap_or(0);
                let (timeline, error) = match (outcome, replans.remove(&i)) {
                    (Err(e), _) => (None, Some(e.to_string())),
                    (Ok(_), _) if grant == 0 && demands[i].peak() > 0 => (
                        None,
                        Some("no containers granted within the cluster budget".to_string()),
                    ),
                    (Ok(t), None) => (Some(t), None),
                    (_, Some(Ok(t))) => (Some(t), None),
                    (_, Some(Err(e))) => (None, Some(e.to_string())),
                };
                TopologyPlanOutcome {
                    topology,
                    shard,
                    granted_containers: grant,
                    risk: risk(&demand, grant),
                    demand,
                    timeline,
                    error,
                }
            })
            .collect();
        FleetPlan {
            budget,
            total_granted: allocation.total_granted,
            unchanged,
            drifted,
            cold,
            outcomes,
        }
    }

    fn allocate(&self, demands: &[TopologyDemand], budget: u32) -> Allocation {
        if budget == UNLIMITED_CONTAINERS {
            // No cluster budget: grant every topology its peak demand.
            let grants = demands
                .iter()
                .map(|d| crate::allocator::BudgetGrant {
                    topology: d.topology.clone(),
                    containers: d.peak(),
                    risk: 0.0,
                })
                .collect::<Vec<_>>();
            let total_granted = grants.iter().map(|g| g.containers).sum();
            Allocation {
                grants,
                total_granted,
                budget,
            }
        } else {
            allocate_greedy(demands, budget)
        }
    }

    /// Per-shard health: topology counts, model-cache counters, and
    /// ingest totals.
    pub fn health(&self) -> FleetHealth {
        let shards = self
            .shards
            .iter()
            .map(|shard| ShardHealth {
                shard: shard.index,
                topologies: shard.provider.len(),
                model_cache: shard.service.model_cache_stats(),
                plan_cache: shard.service.plan_cache_stats(),
                ingest: shard.provider.ingest_stats().unwrap_or_default(),
                tail_cache: shard.provider.tail_cache_stats().unwrap_or_default(),
                routed_batches: shard.ingest_batches.get(),
            })
            .collect();
        FleetHealth {
            topologies: self.len(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::tests::staged;
    use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};

    fn fleet_topology(name: &str) -> Topology {
        let mut topology = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
            6.0e6,
        );
        topology.name = name.to_string();
        topology
    }

    /// A fleet with `n` topologies, each carrying the full staged
    /// metric history.
    fn fed_fleet(shards: usize, n: usize, budget: u32) -> Fleet {
        let fleet = Fleet::new(FleetConfig {
            shards,
            cluster_container_budget: budget,
            ..FleetConfig::default()
        });
        let staged = staged();
        let mut batch = MetricBatch::new(0);
        for i in 0..n {
            let name = format!("tenant-{i}");
            let metrics = fleet.register(fleet_topology(&name));
            let bound = staged.bind(&metrics);
            for idx in 0..staged.minutes() {
                bound.fill(staged, idx, &mut batch);
                fleet.ingest(&name, &batch).expect("registered");
            }
        }
        fleet
    }

    #[test]
    fn registration_routes_by_rendezvous_hash() {
        let fleet = Fleet::new(FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        });
        for i in 0..32 {
            let name = format!("tenant-{i}");
            fleet.register(fleet_topology(&name));
            assert_eq!(fleet.shard_of(&name), Some(assign_shard(&name, 4)));
        }
        assert_eq!(fleet.len(), 32);
        let hosted: usize = fleet.shards().iter().map(Shard::topologies).sum();
        assert_eq!(hosted, 32, "every topology hosted by exactly one shard");
        assert_eq!(fleet.topologies().len(), 32);
    }

    #[test]
    fn ingest_lands_in_the_owning_shard_only() {
        let fleet = fed_fleet(4, 8, UNLIMITED_CONTAINERS);
        let staged = staged();
        let health = fleet.health();
        assert_eq!(health.topologies, 8);
        let total_batches: u64 = health.shards.iter().map(|s| s.routed_batches).sum();
        assert_eq!(total_batches, 8 * staged.minutes() as u64);
        for shard in &health.shards {
            // A shard's routed batches match its hosted topology count.
            assert_eq!(
                shard.routed_batches,
                shard.topologies as u64 * staged.minutes() as u64
            );
        }
        // Unknown topologies are rejected, not silently dropped.
        let batch = MetricBatch::new(0);
        assert!(fleet.ingest("ghost", &batch).is_err());
    }

    #[test]
    fn steady_replan_is_served_from_the_plan_caches() {
        let fleet = fed_fleet(2, 4, UNLIMITED_CONTAINERS);
        let request = CapacityPlanRequest::default();

        let cold = fleet.plan_fleet(&request, None);
        assert_eq!(cold.errors(), 0, "outcomes: {:?}", cold.outcomes);
        assert_eq!((cold.unchanged, cold.drifted, cold.cold), (0, 0, 4));

        // Nothing changed: every topology must be served from cache,
        // byte-identical, without a single new search or oracle eval.
        let evals_before: u64 = fleet
            .health()
            .shards
            .iter()
            .map(|s| s.model_cache.plan_evals)
            .sum();
        let warm = fleet.plan_fleet(&request, None);
        assert_eq!((warm.unchanged, warm.drifted, warm.cold), (4, 0, 0));
        let evals_after: u64 = fleet
            .health()
            .shards
            .iter()
            .map(|s| s.model_cache.plan_evals)
            .sum();
        assert_eq!(evals_after, evals_before, "cache hits must not search");
        for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(a.topology, b.topology);
            assert_eq!(
                a.timeline, b.timeline,
                "{}: cached plan drifted",
                a.topology
            );
        }
        let hits: u64 = fleet
            .health()
            .shards
            .iter()
            .map(|s| s.plan_cache.hits)
            .sum();
        assert!(hits >= 4, "expected ≥4 plan-cache hits, got {hits}");

        // New data for one topology: exactly that one drifts (and its
        // re-plan warm-starts), the rest stay unchanged.
        let staged = staged();
        let drifting = "tenant-0";
        let metrics = fleet
            .assignments
            .read()
            .get(drifting)
            .map(|(_, m)| m.clone())
            .expect("registered");
        let bound = staged.bind(&metrics);
        let mut batch = MetricBatch::new(0);
        let span_ms = staged.minute_ts(staged.minutes() - 1) - staged.minute_ts(0) + 60_000;
        bound.fill_at(staged, 0, span_ms, &mut batch);
        fleet.ingest(drifting, &batch).expect("registered");

        let delta = fleet.plan_fleet(&request, None);
        assert_eq!((delta.unchanged, delta.drifted, delta.cold), (3, 1, 0));
        assert_eq!(delta.errors(), 0);
        let warm_starts: u64 = fleet
            .health()
            .shards
            .iter()
            .map(|s| s.plan_cache.warm_starts)
            .sum();
        assert_eq!(warm_starts, 1, "the drifted re-plan must warm-start");
    }

    #[test]
    fn one_tenants_truncation_leaves_shard_mates_incremental() {
        let fleet = fed_fleet(1, 2, UNLIMITED_CONTAINERS);
        let request = CapacityPlanRequest::default();
        let (truncated, steady) = ("tenant-0", "tenant-1");
        let store = |name: &str| {
            fleet
                .assignments
                .read()
                .get(name)
                .map(|(_, m)| m.clone())
                .expect("registered")
        };
        fleet.plan_topology(steady, &request).unwrap();
        let service = fleet.shards()[0].service();
        let before = service.model_cache_stats();

        // A retention pass on one tenant's store rewrites only that
        // tenant's history.
        let staged = staged();
        let dropped = store(truncated)
            .db()
            .truncate_before(staged.minute_ts(10))
            .unwrap();
        assert!(dropped > 0);

        // The shard-mate's next in-order minute is absorbed incrementally.
        let mut batch = MetricBatch::new(0);
        let span_ms = staged.minute_ts(staged.minutes() - 1) - staged.minute_ts(0) + 60_000;
        staged
            .bind(&store(steady))
            .fill_at(staged, 0, span_ms, &mut batch);
        fleet.ingest(steady, &batch).expect("registered");
        fleet.plan_topology(steady, &request).unwrap();
        let after = service.model_cache_stats();
        assert_eq!(
            after.full_fits, before.full_fits,
            "another tenant's truncation must not force a full refit"
        );
        assert!(after.incremental_fits > before.incremental_fits);
    }

    #[test]
    fn fleet_plan_respects_the_cluster_budget() {
        let fleet = fed_fleet(2, 3, UNLIMITED_CONTAINERS);
        let request = CapacityPlanRequest::default();

        // Unconstrained pass: every topology plans, grants cover peaks.
        let free = fleet.plan_fleet(&request, None);
        assert_eq!(free.errors(), 0, "outcomes: {:?}", free.outcomes);
        assert_eq!(free.outcomes.len(), 3);
        let peak_sum: u32 = free
            .outcomes
            .iter()
            .map(|o| o.demand.iter().copied().max().unwrap_or(0))
            .sum();
        assert!(peak_sum > 0);
        assert_eq!(free.total_granted, peak_sum);
        assert!(free.outcomes.iter().all(|o| o.risk == 0.0));

        // Tight budget: grants sum within budget, constrained timelines
        // respect their grants.
        let tight_budget = peak_sum.saturating_sub(2).max(1);
        let tight = fleet.plan_fleet(&request, Some(tight_budget));
        assert!(tight.total_granted <= tight_budget);
        for outcome in &tight.outcomes {
            if let Some(timeline) = &outcome.timeline {
                assert!(
                    timeline.peak_cost.containers <= outcome.granted_containers,
                    "{}: {} containers vs grant {}",
                    outcome.topology,
                    timeline.peak_cost.containers,
                    outcome.granted_containers
                );
            }
        }
        // At least one topology had to shrink or was starved.
        assert!(tight.outcomes.iter().any(|o| o.risk > 0.0
            || o.granted_containers < o.demand.iter().copied().max().unwrap_or(0)
            || o.timeline.is_some()));
    }
}
