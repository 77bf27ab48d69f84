//! `fleet-rounds`: the cluster planner over HTTP, one client, closed
//! loop.
//!
//! A fleet of WordCount tenants on 4 shards is fed the staged stream,
//! then one full training window of fresh minutes, so every tenant's
//! fitted window is already in its steady state; the cold first plan
//! runs in set-up after that. The measured phase repeats a
//! fixed cycle of `POST /fleet/plan` rounds, each polled to completion
//! with a budget above total demand, so the allocator runs every round:
//!
//! * `steady` — no new data: every tenant is served from its plan cache;
//! * `drift` — a fresh minute reaches a seeded 10 % of tenants first;
//! * `alldrift` — a fresh minute reaches every tenant first: fit and
//!   forecast bound.

use crate::client::{self, Poller};
use crate::layers::Layers;
use crate::stats::Samples;
use crate::trace::{ratio, DepthSampler, Drain, ExecTotals, RouteTimer, SpanTally};
use crate::{Args, Outcome, Rng, Scale};
use caladrius_api::json::{self, Value};
use caladrius_api::{HttpClient, HttpServer};
use caladrius_core::traffic::TrafficModelRegistry;
use caladrius_fleet::{
    allocate_greedy, BoundWorkload, Fleet, FleetConfig, FleetService, StagedWorkload,
    TopologyDemand,
};
use caladrius_obs::{RequestScope, SpanEvent};
use caladrius_tsdb::MetricBatch;
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use heron_sim::metrics::SimMetrics;
use std::sync::Arc;
use std::time::Instant;

const PLAN_ROUTE: &str = "/fleet/plan";
const MINUTE_MS: i64 = 60_000;
const KINDS: [Kind; 3] = [Kind::Steady, Kind::Drift, Kind::AllDrift];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Steady,
    Drift,
    AllDrift,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Drift => "drift",
            Kind::AllDrift => "alldrift",
        }
    }
}

struct Sizes {
    tenants: usize,
    shards: usize,
    /// Set-ups before and after the measured phase.
    setup_reps: (usize, usize),
    /// Most untimed all-drift rounds run between set-up and the measured
    /// phase (see [`warm_up`]).
    max_warmup_rounds: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tenants: 256,
            shards: 4,
            setup_reps: (3, 2),
            max_warmup_rounds: 64,
        },
        Scale::Smoke => Sizes {
            tenants: 16,
            shards: 4,
            setup_reps: (1, 1),
            max_warmup_rounds: 1,
        },
    }
}

struct Tenant {
    name: String,
    metrics: SimMetrics,
    bound: BoundWorkload,
}

/// Everything one set-up builds; the server stops when it drops.
struct Env {
    staged: StagedWorkload,
    fleet: Arc<Fleet>,
    service: Arc<FleetService>,
    tenants: Vec<Tenant>,
    budget: u32,
    /// Where every tenant's fresh minutes go on after the prefill.
    fresh: Fresh,
    client: HttpClient,
    _server: HttpServer,
}

fn setup(sizes: &Sizes) -> Result<Env, String> {
    let staged = StagedWorkload::stage_wordcount();
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: sizes.shards,
        ..FleetConfig::default()
    }));
    let window = fleet.config().caladrius.source_window_minutes as usize;
    let mut batch = MetricBatch::new(0);
    let mut tenants = Vec::with_capacity(sizes.tenants);
    let mut fresh = Fresh::start(&staged);
    for i in 0..sizes.tenants {
        let mut topology = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
            6.0e6,
        );
        topology.name = format!("tenant-{i:04}");
        let metrics = fleet.register(topology.clone());
        let bound = staged.bind(&metrics);
        for idx in 0..staged.minutes() {
            bound.fill(&staged, idx, &mut batch);
            fleet
                .ingest(&topology.name, &batch)
                .map_err(|e| e.to_string())?;
        }
        // A full window of fresh minutes pushes the staged sweep out of
        // the training window: from here on each fresh minute replaces
        // one replayed minute of the same leg.
        fresh = Fresh::start(&staged);
        for _ in 0..window {
            bound.fill_at(&staged, fresh.idx, fresh.offset, &mut batch);
            fleet
                .ingest(&topology.name, &batch)
                .map_err(|e| e.to_string())?;
            fresh.advance(&staged);
        }
        tenants.push(Tenant {
            name: topology.name,
            metrics,
            bound,
        });
    }
    let service = FleetService::new(Arc::clone(&fleet), crate::workers());
    let server = HttpServer::serve("127.0.0.1:0", crate::workers(), service.handler())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let client = HttpClient::new(server.local_addr());
    // The cold first plan: every tenant fits and plans with empty caches. Its
    // unconstrained grant total is the fleet's demand; the measured
    // rounds run with twice that budget.
    let cold = client::run_job(&client, PLAN_ROUTE, "{}", &mut Poller::new(0))?;
    let cold = cold.done.get("result").cloned().unwrap_or(Value::Null);
    let field = |name: &str| cold.get(name).and_then(Value::as_f64).unwrap_or(-1.0);
    if field("errors") != 0.0 || field("cold") != sizes.tenants as f64 {
        return Err(format!(
            "cold fleet plan: errors {} cold {} of {}",
            field("errors"),
            field("cold"),
            sizes.tenants
        ));
    }
    let budget = (2.0 * field("total_granted")).max(1.0) as u32;
    Ok(Env {
        staged,
        fleet,
        service,
        tenants,
        budget,
        fresh,
        client,
        _server: server,
    })
}

/// `StagedWorkload::stage_wordcount` records 10 minutes per rate leg.
const LEG_MINUTES: usize = 10;

/// The stream of fresh minutes: the staged sweep's last (highest-rate)
/// leg replayed in a loop, each replay shifted to follow the minute
/// shipped before it.
#[derive(Debug, Clone, Copy)]
struct Fresh {
    /// Next staged minute to ship.
    idx: usize,
    /// Timestamp shift of the current replay.
    offset: i64,
}

impl Fresh {
    fn start(staged: &StagedWorkload) -> Fresh {
        let first = staged.minutes() - LEG_MINUTES;
        Fresh {
            idx: first,
            offset: Self::leg_span(staged),
        }
    }

    /// Time one replay of the last leg takes up.
    fn leg_span(staged: &StagedWorkload) -> i64 {
        let last = staged.minutes() - 1;
        staged.minute_ts(last) - staged.minute_ts(last + 1 - LEG_MINUTES) + MINUTE_MS
    }

    fn advance(&mut self, staged: &StagedWorkload) {
        self.idx += 1;
        if self.idx == staged.minutes() {
            self.idx -= LEG_MINUTES;
            self.offset += Self::leg_span(staged);
        }
    }
}

/// Per-round-kind measurements.
#[derive(Default)]
struct Rounds {
    round_s: [Samples; 3],
    cycle_ops_ms: Samples,
    granted: Samples,
    ingest_batches: u64,
    ingest_s: f64,
    attempted: u64,
    failed: u64,
}

#[derive(Default)]
struct Traced {
    submit_rtt: Samples,
    poll_rtt: Samples,
    polls: Samples,
    queue_wait: Samples,
    run: Samples,
    bytes: Samples,
    parse_ms: Samples,
    ingest_us: Samples,
    allocator_ms: Samples,
    plan_ms: [Samples; 3],
    partition: [Samples; 3],
    shard_max: Samples,
    shard_mean: Samples,
    read_ms: Samples,
    prophet_ms: Samples,
    stats_ms: Samples,
    spans: SpanTally,
}

struct State<'a> {
    env: &'a Env,
    rng: Rng,
    /// Each tenant's own fresh-minute stream, advanced only by the
    /// minutes it receives: its training window stays a gap-free run of
    /// replays of one leg, so every round of a kind plans from the same
    /// data however many rounds a run completes.
    fresh: Vec<Fresh>,
    batch: MetricBatch,
    poller: Poller,
}

impl State<'_> {
    /// Ships one fresh staged minute to the chosen tenants through
    /// `Fleet::ingest`; returns per-batch times in µs.
    fn ship(&mut self, chosen: &[usize]) -> Result<Vec<f64>, String> {
        let env = self.env;
        let mut times = Vec::with_capacity(chosen.len());
        for &i in chosen {
            let tenant = &env.tenants[i];
            let fresh = &mut self.fresh[i];
            tenant
                .bound
                .fill_at(&env.staged, fresh.idx, fresh.offset, &mut self.batch);
            fresh.advance(&env.staged);
            let started = Instant::now();
            env.fleet
                .ingest(&tenant.name, &self.batch)
                .map_err(|e| e.to_string())?;
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(times)
    }

    /// A seeded 10 % of the tenants (at least one), distinct.
    fn drift_set(&mut self) -> Vec<usize> {
        let n = self.env.tenants.len();
        let k = (n / 10).max(1);
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.rng.below((n - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }

    fn round(
        &mut self,
        kind: Kind,
        rounds: &mut Rounds,
        out: &mut Outcome,
        traced: Option<&mut Traced>,
        drain: &mut Drain,
        exec: &mut ExecTotals,
    ) -> Result<(), String> {
        let env = self.env;
        let n = env.tenants.len();
        let chosen: Vec<usize> = match kind {
            Kind::Steady => Vec::new(),
            Kind::Drift => self.drift_set(),
            Kind::AllDrift => (0..n).collect(),
        };
        let tracing = traced.is_some();
        let cycle_started = Instant::now();
        if tracing {
            drain.skip();
        }
        let mut ingest_us = Vec::new();
        if !chosen.is_empty() {
            // Inside a request scope the fleet records its
            // `fleet.ingest` spans; the traced phase reads them.
            let _scope = tracing.then(|| RequestScope::enter(caladrius_obs::next_request_id()));
            let started = Instant::now();
            ingest_us = self.ship(&chosen)?;
            rounds.ingest_s += started.elapsed().as_secs_f64();
            rounds.ingest_batches += chosen.len() as u64;
        }
        let ingest_spans = if tracing { drain.take() } else { Vec::new() };

        if tracing {
            exec.begin();
        }
        let body = format!("{{\"budget\": {}}}", env.budget);
        rounds.attempted += 1;
        let started = Instant::now();
        let job = client::run_job(&env.client, PLAN_ROUTE, &body, &mut self.poller);
        let round_s = started.elapsed().as_secs_f64();
        let op_ms = cycle_started.elapsed().as_secs_f64() * 1e3;
        let op_spans = if tracing {
            exec.end();
            drain.take()
        } else {
            Vec::new()
        };
        let job = match job {
            Ok(job) => job,
            Err(e) => {
                eprintln!("perfbench: {} round failed: {e}", kind.name());
                rounds.failed += 1;
                return Ok(());
            }
        };
        let k = kind as usize;
        rounds.round_s[k].push(round_s);
        rounds.cycle_ops_ms.push(op_ms);
        let plan = job.done.get("result").cloned().unwrap_or(Value::Null);
        let field = |name: &str| plan.get(name).and_then(Value::as_f64).unwrap_or(-1.0);
        let expected = match kind {
            Kind::Steady => (n, 0, 0),
            Kind::Drift => (n - chosen.len(), chosen.len(), 0),
            Kind::AllDrift => (0, n, 0),
        };
        let seen = (field("unchanged"), field("drifted"), field("cold"));
        out.check(
            seen == (expected.0 as f64, expected.1 as f64, expected.2 as f64)
                && field("errors") == 0.0,
            || {
                format!(
                    "{} round: unchanged/drifted/cold {seen:?}, expected {expected:?}, errors {}",
                    kind.name(),
                    field("errors")
                )
            },
        );
        let granted = field("total_granted");
        out.check(granted > 0.0 && granted <= f64::from(env.budget), || {
            format!("{} round granted {granted} of {}", kind.name(), env.budget)
        });
        rounds.granted.push(granted);

        if let Some(t) = traced {
            t.spans.add(&ingest_spans);
            t.spans.add(&op_spans);
            t.submit_rtt.push(job.submit_rtt_ms);
            for rtt in &job.poll_rtts_ms {
                t.poll_rtt.push(*rtt);
            }
            t.polls.push(job.poll_rtts_ms.len() as f64);
            if let Some(timing) = env.service.jobs().timing(job.id) {
                if let Some(ms) = timing.queue_wait_ms() {
                    t.queue_wait.push(ms as f64);
                }
                if let Some(ms) = timing.duration_ms() {
                    t.run.push(ms as f64);
                }
            }
            t.bytes.push(job.done_bytes as f64);
            let raw = job.done.to_json();
            let started = Instant::now();
            json::parse(&raw).map_err(|e| e.to_string())?;
            t.parse_ms.push(started.elapsed().as_secs_f64() * 1e3);
            for us in ingest_us {
                t.ingest_us.push(us);
            }
            t.partition[0].push(seen.0);
            t.partition[1].push(seen.1);
            t.partition[2].push(seen.2);
            record_round_spans(t, kind, &op_spans);

            let demands = demands_of(&plan)?;
            let started = Instant::now();
            std::hint::black_box(allocate_greedy(&demands, env.budget));
            t.allocator_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if kind == Kind::AllDrift {
                probe_forecast(t, env)?;
            }
            drain.skip();
        }
        Ok(())
    }
}

fn record_round_spans(t: &mut Traced, kind: Kind, spans: &[SpanEvent]) {
    let ms = |e: &SpanEvent| e.duration_us as f64 / 1e3;
    if let Some(plan) = spans.iter().find(|e| e.name == "fleet.plan") {
        t.plan_ms[kind as usize].push(ms(plan));
    }
    let shard: Vec<f64> = spans
        .iter()
        .filter(|e| e.name == "fleet.shard.plan")
        .map(ms)
        .collect();
    if !shard.is_empty() {
        t.shard_max.push(shard.iter().copied().fold(0.0, f64::max));
        t.shard_mean
            .push(shard.iter().sum::<f64>() / shard.len() as f64);
    }
}

/// The round's per-tenant demand curves, as the allocator saw them.
fn demands_of(plan: &Value) -> Result<Vec<TopologyDemand>, String> {
    plan.get("topologies")
        .and_then(Value::as_array)
        .ok_or("fleet plan lacks topologies")?
        .iter()
        .map(|t| {
            Ok(TopologyDemand {
                topology: t
                    .get("topology")
                    .and_then(Value::as_str)
                    .ok_or("outcome lacks topology")?
                    .to_string(),
                per_window_containers: t
                    .get("demand")
                    .and_then(Value::as_array)
                    .ok_or("outcome lacks demand")?
                    .iter()
                    .map(|d| d.as_f64().unwrap_or(0.0) as u32)
                    .collect(),
            })
        })
        .collect()
}

/// After an all-drifted round, times one tenant's history read and
/// traffic refits in-process on the data that round planned from.
fn probe_forecast(t: &mut Traced, env: &Env) -> Result<(), String> {
    let tenant = &env.tenants[0].name;
    let shard = env.fleet.shard_of(tenant).ok_or("tenant has no shard")?;
    let service = env.fleet.shards()[shard].service();
    let started = Instant::now();
    let history = service.source_history(tenant).map_err(|e| e.to_string())?;
    t.read_ms.push(started.elapsed().as_secs_f64() * 1e3);
    let last = history.last().map_or(0, |p| p.ts);
    let horizon: Vec<i64> = (1..=i64::from(service.config().forecast_horizon_minutes))
        .map(|m| last + m * MINUTE_MS)
        .collect();
    let registry = TrafficModelRegistry::with_defaults();
    for (model, samples) in [
        ("prophet", &mut t.prophet_ms),
        ("stats_summary", &mut t.stats_ms),
    ] {
        let started = Instant::now();
        registry
            .forecast(model, &history, &horizon)
            .map_err(|e| e.to_string())?;
        samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Summed shard counters, for before/after deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    model_hits: u64,
    model_misses: u64,
    fits: u64,
    incremental: u64,
    plans: u64,
    plan_evals: u64,
    oracle_hits: u64,
    oracle_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    warm_starts: u64,
    tail_hits: u64,
    tail_misses: u64,
}

fn counters(fleet: &Fleet) -> Counters {
    let mut c = Counters::default();
    for s in fleet.health().shards {
        c.model_hits += s.model_cache.hits;
        c.model_misses += s.model_cache.misses;
        c.fits += s.model_cache.fits;
        c.incremental += s.model_cache.incremental_fits;
        c.plans += s.model_cache.plans;
        c.plan_evals += s.model_cache.plan_evals;
        c.oracle_hits += s.model_cache.oracle_hits;
        c.oracle_misses += s.model_cache.oracle_misses;
        c.plan_hits += s.plan_cache.hits;
        c.plan_misses += s.plan_cache.misses;
        c.warm_starts += s.plan_cache.warm_starts;
        c.tail_hits += s.tail_cache.hits;
        c.tail_misses += s.tail_cache.misses;
    }
    c
}

/// Brings the fleet to the state a long-running service is in. Every
/// replanned tenant records its planning windows as pending forecast
/// predictions, which stay pending for the whole horizon, so each
/// shard's queue grows until it is full (4096); while it grows, rounds
/// get slower. Untimed all-drift rounds run until no shard's queue grew
/// over a round, so the measured phase starts from the same state
/// however fast the program is.
fn warm_up(
    state: &mut State,
    max_rounds: usize,
    rounds: &mut Rounds,
    out: &mut Outcome,
    drain: &mut Drain,
    exec: &mut ExecTotals,
) -> Result<(), String> {
    let pending = |fleet: &Fleet| -> Vec<usize> {
        fleet
            .shards()
            .iter()
            .map(|s| s.service().pending_predictions())
            .collect()
    };
    let mut before = pending(&state.env.fleet);
    for _ in 0..max_rounds {
        state.round(Kind::AllDrift, rounds, out, None, drain, exec)?;
        let after = pending(&state.env.fleet);
        if after.iter().zip(&before).all(|(a, b)| a <= b) {
            break;
        }
        before = after;
    }
    Ok(())
}

/// Runs whole cycles, so every round kind is sampled equally often.
/// With tracing, every other cycle is traced; the untraced ones give the
/// end-to-end numbers and the overhead baseline over the same stretch
/// of data.
fn run_cycles(
    state: &mut State,
    seconds: f64,
    out: &mut Outcome,
    mut traced: Option<&mut Traced>,
    drain: &mut Drain,
    exec: &mut ExecTotals,
) -> Result<(Rounds, Rounds), String> {
    let mut rounds = Rounds::default();
    let mut trounds = Rounds::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut cycle = 0usize;
    while Instant::now() < deadline {
        for kind in KINDS {
            if cycle % 2 == 1 && traced.is_some() {
                state.round(kind, &mut trounds, out, traced.as_deref_mut(), drain, exec)?;
            } else {
                state.round(kind, &mut rounds, out, None, drain, exec)?;
            }
        }
        cycle += 1;
    }
    Ok((rounds, trounds))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizes = sizes(args.scale);
    let (env, mut setup_s) = crate::set_up(sizes.setup_reps.0, || setup(&sizes))?;
    let mut state = State {
        env: &env,
        rng: Rng::new(args.seed),
        fresh: vec![env.fresh; env.tenants.len()],
        batch: MetricBatch::new(0),
        poller: Poller::new(args.seed),
    };
    let mut out = Outcome::default();
    let mut drain = Drain::new();
    let mut exec = ExecTotals::default();
    let mut traced = Traced::default();
    let mut warmup = Rounds::default();
    warm_up(
        &mut state,
        sizes.max_warmup_rounds,
        &mut warmup,
        &mut out,
        &mut drain,
        &mut exec,
    )?;
    let before = counters(&env.fleet);
    let routes = [PLAN_ROUTE, "/fleet/jobs/{id}"].map(RouteTimer::start);
    let sampler = args.trace.then(DepthSampler::start);
    let (rounds, trounds) = run_cycles(
        &mut state,
        args.seconds,
        &mut out,
        args.trace.then_some(&mut traced),
        &mut drain,
        &mut exec,
    )?;
    let attempted = warmup.attempted + rounds.attempted + trounds.attempted;
    let failed = warmup.failed + rounds.failed + trounds.failed;
    if let Some(sampler) = sampler {
        let mut layers = Layers::default();
        sampler.finish(&mut layers);
        let ops = trounds.cycle_ops_ms.len();
        let handler = routes.map(|r| r.mean_ms());
        report_layers(
            &mut layers,
            &traced,
            &env,
            handler,
            before,
            counters(&env.fleet),
            ops,
        );
        exec.report(&mut layers, ops);
        traced
            .spans
            .report(&mut layers, ops, trounds.cycle_ops_ms.sum(), drain.lost);
        let untraced = rounds.cycle_ops_ms.median();
        if untraced > 0.0 {
            layers.set(
                "trace.overhead_pct",
                (trounds.cycle_ops_ms.median() / untraced - 1.0) * 100.0,
            );
        }
        out.layers = layers;
    }

    out.attempted = attempted;
    out.failed = failed;
    out.check(!rounds.cycle_ops_ms.is_empty(), || {
        "no round completed".into()
    });
    setup_s = setup_s.min(crate::set_up(sizes.setup_reps.1, || setup(&sizes))?.1);
    out.report("setup_s", "s", setup_s);
    out.report("failed_share", "ratio", ratio(failed, attempted.max(1)));
    out.report("tenants", "count", env.tenants.len() as f64);
    out.report("rounds", "count", rounds.cycle_ops_ms.len() as f64);
    for kind in KINDS {
        out.report(
            &format!("fleet_{}_round_s", kind.name()),
            "s",
            rounds.round_s[kind as usize].median(),
        );
    }
    out.report(
        "ingest_batches_per_s",
        "1/s",
        rounds.ingest_batches as f64 / rounds.ingest_s.max(f64::MIN_POSITIVE),
    );
    out.report("plan_containers", "count", rounds.granted.mean());

    out.e2e("op_ms_p50", "ms", rounds.cycle_ops_ms.median());
    out.e2e("op_ms_p90", "ms", rounds.cycle_ops_ms.quantile(0.9));
    out.e2e(
        "ops_per_s",
        "1/s",
        rounds.cycle_ops_ms.len() as f64 / (rounds.cycle_ops_ms.sum() / 1e3),
    );
    out.e2e("setup_s", "s", setup_s);
    Ok(out)
}

fn report_layers(
    layers: &mut Layers,
    t: &Traced,
    env: &Env,
    handler_ms: [f64; 2],
    before: Counters,
    after: Counters,
    ops: usize,
) {
    let ops = ops.max(1) as f64;
    layers.set("api.http.rtt_ms.fleet_plan_submit", t.submit_rtt.mean());
    layers.set("api.http.rtt_ms.fleet_job_poll", t.poll_rtt.mean());
    layers.set("api.http.handler_ms.fleet_plan_submit", handler_ms[0]);
    layers.set("api.http.handler_ms.fleet_job_poll", handler_ms[1]);
    let requests = t.submit_rtt.len() + t.poll_rtt.len();
    let handler_total =
        handler_ms[0] * t.submit_rtt.len() as f64 + handler_ms[1] * t.poll_rtt.len() as f64;
    layers.set(
        "api.http.edge_wait_ms",
        (t.submit_rtt.sum() + t.poll_rtt.sum() - handler_total) / requests.max(1) as f64,
    );
    layers.set("api.http.requests_per_op", requests as f64 / ops);
    layers.set("api.jobs.queue_wait_ms", t.queue_wait.mean());
    layers.set("api.jobs.run_ms", t.run.mean());
    layers.set("api.jobs.polls_per_job", t.polls.mean());
    layers.set("api.json.response_bytes.fleet_plan", t.bytes.mean());
    layers.set("api.json.parse_ms.fleet_plan", t.parse_ms.median());

    let d = |a: u64, b: u64| a - b;
    let (hits, misses) = (
        d(after.model_hits, before.model_hits),
        d(after.model_misses, before.model_misses),
    );
    layers.set("core.service.fit_ms", t.spans.mean_ms("core.fit"));
    layers.set(
        "core.service.model_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    layers.set(
        "core.service.incremental_fit_share",
        ratio(
            d(after.incremental, before.incremental),
            d(after.fits, before.fits),
        ),
    );
    let (plan_hits, plan_misses) = (
        d(after.plan_hits, before.plan_hits),
        d(after.plan_misses, before.plan_misses),
    );
    layers.set("core.capacity.plan_ms", t.spans.mean_ms("core.plan"));
    layers.set(
        "core.capacity.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses),
    );
    layers.set(
        "core.capacity.warm_start_share",
        ratio(d(after.warm_starts, before.warm_starts), plan_misses),
    );
    let (oracle_hits, oracle_misses) = (
        d(after.oracle_hits, before.oracle_hits),
        d(after.oracle_misses, before.oracle_misses),
    );
    layers.set(
        "core.capacity.oracle_memo_hit_ratio",
        ratio(oracle_hits, oracle_hits + oracle_misses),
    );
    layers.set(
        "core.capacity.oracle_evals_per_plan",
        d(after.plan_evals, before.plan_evals) as f64 / d(after.plans, before.plans).max(1) as f64,
    );
    layers.set("tsdb.ingest_us", t.ingest_us.median());
    layers.set("tsdb.read_ms", t.read_ms.median());
    let (tail_hits, tail_misses) = (
        d(after.tail_hits, before.tail_hits),
        d(after.tail_misses, before.tail_misses),
    );
    layers.set(
        "tsdb.tail_cache_hit_ratio",
        ratio(tail_hits, tail_hits + tail_misses),
    );
    layers.set(
        "tsdb.storage_bytes",
        env.tenants
            .iter()
            .map(|t| t.metrics.db().storage_bytes() as f64)
            .sum(),
    );
    layers.set("forecast.prophet_ms", t.prophet_ms.median());
    layers.set("forecast.stats_summary_ms", t.stats_ms.median());
    for kind in KINDS {
        layers.set(
            &format!("fleet.plan_ms.{}", kind.name()),
            t.plan_ms[kind as usize].median(),
        );
    }
    layers.set("fleet.unchanged", t.partition[0].mean());
    layers.set("fleet.drifted", t.partition[1].mean());
    layers.set("fleet.cold", t.partition[2].mean());
    layers.set("fleet.shard_plan_ms_max", t.shard_max.mean());
    layers.set("fleet.shard_plan_ms_mean", t.shard_mean.mean());
    layers.set("fleet.allocator_ms", t.allocator_ms.median());
}
