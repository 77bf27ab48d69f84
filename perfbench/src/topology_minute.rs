//! `topology-minute`: the freshness loop of one topology, one client,
//! closed loop.
//!
//! Each iteration lands the next held-out minute in the tsdb, asks the
//! service for a capacity plan over HTTP (`POST /topology/wordcount/plan`,
//! then polling `/jobs/{id}`), and validates the returned timeline by
//! replaying it in the simulator. Every plan misses the plan cache and
//! warm-starts, so tsdb since-reads, the Prophet refit, the incremental
//! model fit, the planner search, the job queue and the sim replay do
//! the work.
//!
//! The held-out minutes are one hour centred on the daily trough,
//! landed again and again with a growing timestamp offset. Its first and
//! last minutes sit at the same point of the diurnal curve, so the
//! replay is seamless, and every run plans over the same stretch of the
//! day however many iterations it completes.

use crate::client::{self, Job, Poller};
use crate::layers::Layers;
use crate::stats::Samples;
use crate::trace::{ratio, DepthSampler, Drain, ExecTotals, RouteTimer, SpanTally};
use crate::{Args, Outcome, Scale};
use caladrius_api::json::Value;
use caladrius_api::{ApiService, HttpClient, HttpServer};
use caladrius_core::capacity::{
    forecast_windows, validate_plan, CachedOracle, CapacityPlanRequest, ModelOracle,
};
use caladrius_core::config::CaladriusConfig;
use caladrius_core::providers::metrics::source_history;
use caladrius_core::providers::{SimMetricsProvider, StaticTracker};
use caladrius_core::traffic::TrafficModelRegistry;
use caladrius_core::Caladrius;
use caladrius_fleet::{BoundWorkload, StagedWorkload};
use caladrius_planner::{
    plan_horizon_warm, PlanAction, PlanCost, PlanTimeline, PlannerConfig, ReplayConfig, WindowPlan,
};
use caladrius_tsdb::MetricBatch;
use heron_sim::metrics::SimMetrics;
use heron_sim::topology::Topology;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const TOPOLOGY: &str = "wordcount";
const PLAN_ROUTE: &str = "/topology/wordcount/plan";
const MINUTE_MS: i64 = 60_000;

struct Sizes {
    /// Minutes fed before the loop starts (≈ 1.5 days at full size).
    history: usize,
    /// Held-out minutes the loop lands one by one, replayed in a loop.
    stretch: usize,
    window: u32,
    horizon: u32,
    /// Set-ups before and after the measured phase.
    setup_reps: (usize, usize),
    /// Every n-th plan is compared against a cold plan on a twin.
    check_every: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            history: 2160,
            stretch: 60,
            window: 1440,
            horizon: 240,
            setup_reps: (5, 4),
            check_every: 25,
        },
        Scale::Smoke => Sizes {
            history: 360,
            stretch: 20,
            window: 240,
            horizon: 60,
            setup_reps: (1, 1),
            check_every: 4,
        },
    }
}

/// Everything one set-up builds; the server stops when it drops.
struct Env {
    topology: Topology,
    config: CaladriusConfig,
    staged: StagedWorkload,
    bound: BoundWorkload,
    live: SimMetrics,
    service: Arc<Caladrius>,
    /// Realised topology source rate per minute over history + stretch.
    realised: BTreeMap<i64, f64>,
    /// First timestamp of the held-out stretch, and the shift between
    /// two replays of it.
    stretch_ts: i64,
    stretch_period: i64,
    client: HttpClient,
    _server: HttpServer,
}

fn setup(args: &Args, sizes: &Sizes) -> Result<Env, String> {
    // The phase is fixed so the held-out stretch is centred on the daily
    // trough in every run.
    let total = sizes.history + sizes.stretch;
    let staging = SimMetrics::new(TOPOLOGY);
    let topology = crate::diurnal_wordcount(
        args.seed,
        trough_phase(sizes.history + sizes.stretch / 2),
        total as u64,
        &staging,
    )?;
    let staged = StagedWorkload::from_staged(&staging);
    if staged.minutes() != total {
        return Err(format!(
            "simulated {} minutes, expected {total}",
            staged.minutes()
        ));
    }
    let realised = source_history(
        &SimMetricsProvider::new(staging),
        TOPOLOGY,
        &["spout".to_string()],
        0,
        i64::MAX,
    )
    .map_err(|e| e.to_string())?
    .into_iter()
    .map(|p| (p.ts, p.y))
    .collect();
    let stretch_ts = staged.minute_ts(sizes.history);
    let stretch_period = staged.minute_ts(total - 1) - stretch_ts + MINUTE_MS;

    let live = SimMetrics::new(TOPOLOGY);
    let bound = staged.bind(&live);
    let mut batch = MetricBatch::new(0);
    for idx in 0..sizes.history {
        bound.fill(&staged, idx, &mut batch);
        live.ingest(&batch);
    }
    let config = CaladriusConfig {
        source_window_minutes: sizes.window,
        forecast_horizon_minutes: sizes.horizon,
        ..CaladriusConfig::default()
    };
    let service = Arc::new(twin(&live, &topology, &config));
    let api = ApiService::new(Arc::clone(&service), crate::workers());
    let server = HttpServer::serve("127.0.0.1:0", crate::workers(), api.handler())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let client = HttpClient::new(server.local_addr());
    // The first plan is cold (full fits, cold search); the loop measures
    // the steady state after it.
    client::run_job(&client, PLAN_ROUTE, "{}", &mut Poller::new(args.seed))?;
    Ok(Env {
        topology,
        config,
        staged,
        bound,
        live,
        service,
        realised,
        stretch_ts,
        stretch_period,
        client,
        _server: server,
    })
}

/// The phase that puts minute `minute` at the daily trough (the
/// profile's sine bottoms out three quarters into each period).
fn trough_phase(minute: usize) -> u64 {
    const DAY: u64 = 86_400;
    (DAY * 7 / 4 - (minute as u64 * 60) % DAY) % DAY
}

impl Env {
    /// The realised source rate at `ts`; minutes past the history are
    /// replays of the held-out stretch.
    fn realised_at(&self, ts: i64) -> Option<f64> {
        let ts = if ts < self.stretch_ts {
            ts
        } else {
            self.stretch_ts + (ts - self.stretch_ts) % self.stretch_period
        };
        self.realised.get(&ts).copied()
    }
}

/// A service over the same store as the one behind the server.
fn twin(live: &SimMetrics, topology: &Topology, config: &CaladriusConfig) -> Caladrius {
    Caladrius::with_config(
        Arc::new(SimMetricsProvider::new(live.clone())),
        Arc::new(StaticTracker::new().with(topology.clone())),
        config.clone(),
    )
}

/// Rebuilds a [`PlanTimeline`] from the plan route's JSON. The route
/// omits nothing the replay or the comparison needs; `oracle_evals`
/// is kept as served.
fn timeline_from_json(plan: &Value) -> Result<PlanTimeline, String> {
    let num = |v: &Value, key: &str| -> Result<f64, String> {
        match v.get(key) {
            Some(Value::Null) => Ok(f64::INFINITY),
            Some(n) => n.as_f64().ok_or_else(|| format!("{key} is not a number")),
            None => Err(format!("plan JSON lacks {key}")),
        }
    };
    let parallelisms = |v: &Value| -> Result<Vec<(String, u32)>, String> {
        v.as_object()
            .ok_or("parallelisms is not an object")?
            .iter()
            .map(|(k, p)| {
                let p = p.as_f64().ok_or("parallelism is not a number")?;
                Ok((k.clone(), p as u32))
            })
            .collect()
    };
    let cost = |v: &Value| -> Result<PlanCost, String> {
        Ok(PlanCost {
            total_instances: num(v, "total_instances")? as u32,
            total_cores: num(v, "total_cores")?,
            total_ram_mb: num(v, "total_ram_mb")? as u64,
            containers: num(v, "containers")? as u32,
        })
    };
    let windows = plan
        .get("windows")
        .and_then(Value::as_array)
        .ok_or("plan JSON lacks windows")?
        .iter()
        .map(|w| {
            let actions = w
                .get("actions")
                .and_then(Value::as_array)
                .ok_or("window lacks actions")?
                .iter()
                .map(|a| {
                    let component = a
                        .get("component")
                        .and_then(Value::as_str)
                        .ok_or("action lacks component")?
                        .to_string();
                    let (from, to) = (num(a, "from")? as u32, num(a, "to")? as u32);
                    match a.get("direction").and_then(Value::as_str) {
                        Some("up") => Ok(PlanAction::ScaleUp {
                            component,
                            from,
                            to,
                        }),
                        Some("down") => Ok(PlanAction::ScaleDown {
                            component,
                            from,
                            to,
                        }),
                        _ => Err("action lacks a direction".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(WindowPlan {
                window: num(w, "window")? as usize,
                start_ts: num(w, "start_ts")? as i64,
                end_ts: num(w, "end_ts")? as i64,
                peak_rate: num(w, "peak_rate")?,
                planned_rate: num(w, "planned_rate")?,
                parallelisms: parallelisms(
                    w.get("parallelisms").ok_or("window lacks parallelisms")?,
                )?,
                cost: cost(w.get("cost").ok_or("window lacks cost")?)?,
                saturation_rate: num(w, "saturation_rate")?,
                actions,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PlanTimeline {
        windows,
        peak_parallelisms: parallelisms(
            plan.get("peak_parallelisms")
                .ok_or("plan JSON lacks peak_parallelisms")?,
        )?,
        peak_cost: cost(plan.get("peak_cost").ok_or("plan JSON lacks peak_cost")?)?,
        oracle_evals: num(plan, "oracle_evals")? as u64,
    })
}

/// A timeline as JSON would carry it: parallelisms sorted by name and
/// the search-effort counter dropped, so a warm and a cold plan of the
/// same data compare equal exactly when they plan the same.
fn canonical(timeline: &PlanTimeline) -> PlanTimeline {
    let sorted = |p: &[(String, u32)]| {
        let mut p = p.to_vec();
        p.sort();
        p
    };
    PlanTimeline {
        windows: timeline
            .windows
            .iter()
            .map(|w| WindowPlan {
                parallelisms: sorted(&w.parallelisms),
                ..w.clone()
            })
            .collect(),
        peak_parallelisms: sorted(&timeline.peak_parallelisms),
        peak_cost: timeline.peak_cost,
        oracle_evals: 0,
    }
}

/// Per-iteration measurements shared by both phases.
#[derive(Default)]
struct Loop {
    plan_ms: Samples,
    iteration_ms: Samples,
    validate_ms: Samples,
    ape: Samples,
    containers: Samples,
    attempted: u64,
    failed: u64,
}

/// What the traced phase accumulates on top of [`Loop`].
#[derive(Default)]
struct Traced {
    submit_rtt: Samples,
    poll_rtt: Samples,
    polls: Samples,
    queue_wait: Samples,
    run: Samples,
    plan_bytes: Samples,
    ingest_us: Samples,
    read_ms: Samples,
    prophet_ms: Samples,
    stats_ms: Samples,
    score_ms: Samples,
    plan_ms: Samples,
    search_ms: Samples,
    windows: Samples,
    oracle_evals: Samples,
    events: Samples,
    closed_form: Samples,
    skipped: Samples,
    fallback: Samples,
    tail_hits: u64,
    tail_misses: u64,
    spans: SpanTally,
}

struct State<'a> {
    env: &'a Env,
    sizes: &'a Sizes,
    /// Held-out minutes landed so far.
    landed: usize,
    batch: MetricBatch,
    previous: Option<PlanTimeline>,
    poller: Poller,
}

impl State<'_> {
    /// One iteration. A failed operation is counted in `lp.failed`; a
    /// failed check is recorded in `out.violations`.
    #[allow(clippy::too_many_arguments)]
    fn iterate(
        &mut self,
        lp: &mut Loop,
        out: &mut Outcome,
        traced: Option<&mut Traced>,
        drain: &mut Drain,
        exec: &mut ExecTotals,
        shadow: &Caladrius,
        iteration: usize,
    ) {
        let env = self.env;
        let started = Instant::now();
        let stretch = self.sizes.stretch;
        env.bound.fill_at(
            &env.staged,
            self.sizes.history + self.landed % stretch,
            (self.landed / stretch) as i64 * env.stretch_period,
            &mut self.batch,
        );
        let ingest_started = Instant::now();
        env.live.ingest(&self.batch);
        let ingest_us = ingest_started.elapsed().as_secs_f64() * 1e6;
        self.landed += 1;

        let tracing = traced.is_some();
        if tracing {
            drain.skip();
            exec.begin();
        }
        let tail_before = env.live.db().tail_cache_stats();
        lp.attempted += 1;
        let job = client::run_job(&env.client, PLAN_ROUTE, "{}", &mut self.poller);
        let plan_ms = started.elapsed().as_secs_f64() * 1e3;
        let tail_after = env.live.db().tail_cache_stats();
        let op_spans = if tracing {
            exec.end();
            drain.take()
        } else {
            Vec::new()
        };
        let job: Job = match job {
            Ok(job) => job,
            Err(e) => {
                eprintln!("perfbench: plan failed: {e}");
                lp.failed += 1;
                return;
            }
        };
        let result = job.done.get("result").cloned().unwrap_or(Value::Null);
        let timeline = match timeline_from_json(&result) {
            Ok(t) => t,
            Err(e) => {
                out.violations.push(format!("plan {iteration}: {e}"));
                return;
            }
        };
        lp.plan_ms.push(plan_ms);

        // Validate the served timeline in the simulator, as the
        // horizon-planner example does.
        let validate_started = Instant::now();
        let validation = validate_plan(&env.topology, &timeline, &ReplayConfig::default());
        let validate_ms = validate_started.elapsed().as_secs_f64() * 1e3;
        lp.iteration_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let validation = match validation {
            Ok(v) => v,
            Err(e) => {
                out.violations
                    .push(format!("plan {iteration}: replay failed: {e}"));
                return;
            }
        };
        lp.validate_ms.push(validate_ms);
        out.check(validation.all_low_risk, || {
            let risky: Vec<usize> = validation
                .windows
                .iter()
                .filter(|w| !w.low_risk)
                .map(|w| w.window)
                .collect();
            format!("plan {iteration}: windows {risky:?} backpressure in replay")
        });

        // Forecast accuracy against the minutes that land later.
        for w in &timeline.windows {
            let realised = (w.start_ts..w.end_ts)
                .step_by(MINUTE_MS as usize)
                .filter_map(|ts| env.realised_at(ts))
                .fold(f64::NAN, f64::max);
            if realised > 0.0 {
                lp.ape
                    .push((w.peak_rate - realised).abs() / realised * 100.0);
            } else {
                out.violations.push(format!(
                    "plan {iteration}: no realised minutes in window {}",
                    w.window
                ));
            }
        }
        lp.containers.push(f64::from(timeline.peak_cost.containers));

        if iteration.is_multiple_of(self.sizes.check_every) {
            // Warm == cold: a fresh service over the same data must plan
            // exactly what the warm-started service served.
            let cold = twin(&env.live, &env.topology, &env.config)
                .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default());
            match cold {
                Ok(cold) => out.check(canonical(&cold) == canonical(&timeline), || {
                    format!(
                        "plan {iteration}: served plan differs from a cold plan on a twin:\n  served {:?}\n  cold   {:?}",
                        canonical(&timeline),
                        canonical(&cold)
                    )
                }),
                Err(e) => out
                    .violations
                    .push(format!("plan {iteration}: cold twin plan failed: {e}")),
            }
        }

        if let Some(t) = traced {
            let sim_spans = drain.take();
            t.spans.add(&op_spans);
            t.spans.add(&sim_spans);
            t.submit_rtt.push(job.submit_rtt_ms);
            for rtt in &job.poll_rtts_ms {
                t.poll_rtt.push(*rtt);
            }
            t.polls.push(job.poll_rtts_ms.len() as f64);
            if let Some(ms) = job.done.get("queue_wait_ms").and_then(Value::as_f64) {
                t.queue_wait.push(ms);
            }
            if let Some(ms) = job.done.get("duration_ms").and_then(Value::as_f64) {
                t.run.push(ms);
            }
            t.plan_bytes.push(job.done_bytes as f64);
            t.ingest_us.push(ingest_us);
            t.tail_hits += tail_after.hits - tail_before.hits;
            t.tail_misses += tail_after.misses - tail_before.misses;
            t.events.push(validation.sim_events as f64);
            t.closed_form.push(validation.closed_form_ticks as f64);
            t.skipped.push(validation.ticks_skipped as f64);
            t.fallback.push(
                validation
                    .windows
                    .iter()
                    .filter(|w| w.closed_form_ticks == 0)
                    .count() as f64,
            );
            if let Err(e) = probe_layers(t, shadow, env, self.previous.as_ref()) {
                out.violations
                    .push(format!("plan {iteration}: layer probe failed: {e}"));
            }
            // Probe work is not the service's: drop its spans.
            drain.skip();
        }
        self.previous = Some(timeline);
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Times each layer's public function on the data the service just
/// planned from, on a shadow service that follows the same store.
fn probe_layers(
    t: &mut Traced,
    shadow: &Caladrius,
    env: &Env,
    previous: Option<&PlanTimeline>,
) -> Result<(), String> {
    let (model, cpu) = shadow.fitted_models(TOPOLOGY).map_err(|e| e.to_string())?;

    let started = Instant::now();
    shadow.score_pending();
    t.score_ms.push(ms_since(started));

    let started = Instant::now();
    let history = shadow.source_history(TOPOLOGY).map_err(|e| e.to_string())?;
    t.read_ms.push(ms_since(started));

    let last = history.last().map_or(0, |p| p.ts);
    let horizon: Vec<i64> = (1..=i64::from(env.config.forecast_horizon_minutes))
        .map(|m| last + m * MINUTE_MS)
        .collect();
    let registry = TrafficModelRegistry::with_defaults();
    let started = Instant::now();
    let forecast = registry
        .forecast("prophet", &history, &horizon)
        .map_err(|e| e.to_string())?;
    t.prophet_ms.push(ms_since(started));
    let started = Instant::now();
    registry
        .forecast("stats_summary", &history, &horizon)
        .map_err(|e| e.to_string())?;
    t.stats_ms.push(ms_since(started));

    let planner = PlannerConfig::default();
    let windows =
        forecast_windows(&forecast, planner.window_minutes, false).map_err(|e| e.to_string())?;
    let initial: Vec<(String, u32)> = vec![("splitter".into(), 2), ("counter".into(), 3)];
    let oracle = CachedOracle::new(ModelOracle::new(
        model,
        cpu,
        initial.iter().map(|(n, _)| n.clone()).collect(),
    ));
    let started = Instant::now();
    let searched = plan_horizon_warm(&oracle, &initial, &windows, &planner, previous)
        .map_err(|e| e.to_string())?;
    t.search_ms.push(ms_since(started));
    t.windows.push(windows.len() as f64);
    t.oracle_evals.push(searched.oracle_evals as f64);

    let started = Instant::now();
    shadow
        .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default())
        .map_err(|e| e.to_string())?;
    t.plan_ms.push(ms_since(started));
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizes = sizes(args.scale);
    let (env, mut setup_s) = crate::set_up(sizes.setup_reps.0, || setup(args, &sizes))?;
    let shadow = twin(&env.live, &env.topology, &env.config);
    shadow
        .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default())
        .map_err(|e| format!("shadow plan failed: {e}"))?;

    let mut out = Outcome::default();
    let mut state = State {
        env: &env,
        sizes: &sizes,
        landed: 0,
        batch: MetricBatch::new(0),
        previous: None,
        poller: Poller::new(args.seed),
    };
    let mut drain = Drain::new();
    let mut exec = ExecTotals::default();
    let mut iteration = 0usize;

    // With tracing, every other iteration is traced; the untraced ones
    // in between give the end-to-end numbers and the overhead baseline
    // over the same stretch of data.
    let mut lp = Loop::default();
    let mut tlp = Loop::default();
    let mut traced = Traced::default();
    let model_before = env.service.model_cache_stats();
    let plan_before = env.service.plan_cache_stats();
    let routes = [PLAN_ROUTE_PATTERN, JOB_ROUTE_PATTERN].map(RouteTimer::start);
    let sampler = args.trace.then(DepthSampler::start);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        if args.trace && iteration % 2 == 1 {
            state.iterate(
                &mut tlp,
                &mut out,
                Some(&mut traced),
                &mut drain,
                &mut exec,
                &shadow,
                iteration,
            );
        } else {
            state.iterate(
                &mut lp, &mut out, None, &mut drain, &mut exec, &shadow, iteration,
            );
        }
        iteration += 1;
    }

    if let Some(sampler) = sampler {
        let mut layers = Layers::default();
        sampler.finish(&mut layers);
        let ops = tlp.plan_ms.len();
        let handler = routes.map(|r| r.mean_ms());
        report_layers(
            &mut layers,
            &traced,
            &tlp,
            &env,
            handler,
            model_before,
            plan_before,
        );
        exec.report(&mut layers, ops);
        let wall = tlp.plan_ms.sum() + tlp.validate_ms.sum();
        traced.spans.report(&mut layers, ops, wall, drain.lost);
        if lp.plan_ms.median() > 0.0 {
            layers.set(
                "trace.overhead_pct",
                (tlp.plan_ms.median() / lp.plan_ms.median() - 1.0) * 100.0,
            );
        }
        out.layers = layers;
    }
    lp.attempted += tlp.attempted;
    lp.failed += tlp.failed;

    out.attempted = lp.attempted;
    out.failed = lp.failed;
    out.check(!lp.plan_ms.is_empty(), || "no plan completed".into());
    setup_s = setup_s.min(crate::set_up(sizes.setup_reps.1, || setup(args, &sizes))?.1);
    out.report("setup_s", "s", setup_s);
    out.report(
        "failed_share",
        "ratio",
        ratio(lp.failed, lp.attempted.max(1)),
    );
    out.report("plans", "count", lp.plan_ms.len() as f64);
    out.report("plan_ms_p50", "ms", lp.plan_ms.median());
    out.report("plan_ms_p90", "ms", lp.plan_ms.quantile(0.9));
    out.report("validate_ms_p50", "ms", lp.validate_ms.median());
    out.report("forecast_ape_pct", "%", lp.ape.mean());
    out.report("plan_containers", "count", lp.containers.mean());

    out.e2e("op_ms_p50", "ms", lp.plan_ms.median());
    out.e2e("op_ms_p90", "ms", lp.plan_ms.quantile(0.9));
    out.e2e(
        "ops_per_s",
        "1/s",
        lp.iteration_ms.len() as f64 / (lp.iteration_ms.sum() / 1e3),
    );
    out.e2e("setup_s", "s", setup_s);
    Ok(out)
}

const PLAN_ROUTE_PATTERN: &str = "/topology/{topology}/plan";
const JOB_ROUTE_PATTERN: &str = "/jobs/{id}";

#[allow(clippy::too_many_arguments)]
fn report_layers(
    layers: &mut Layers,
    t: &Traced,
    lp: &Loop,
    env: &Env,
    handler_ms: [f64; 2],
    model_before: caladrius_core::ModelCacheStats,
    plan_before: caladrius_core::PlanCacheStats,
) {
    let ops = lp.plan_ms.len().max(1) as f64;
    layers.set("api.http.rtt_ms.plan_submit", t.submit_rtt.mean());
    layers.set("api.http.rtt_ms.job_poll", t.poll_rtt.mean());
    layers.set("api.http.handler_ms.plan_submit", handler_ms[0]);
    layers.set("api.http.handler_ms.job_poll", handler_ms[1]);
    let requests = t.submit_rtt.len() + t.poll_rtt.len();
    let rtt_total = t.submit_rtt.sum() + t.poll_rtt.sum();
    let handler_total =
        handler_ms[0] * t.submit_rtt.len() as f64 + handler_ms[1] * t.poll_rtt.len() as f64;
    layers.set(
        "api.http.edge_wait_ms",
        (rtt_total - handler_total) / requests.max(1) as f64,
    );
    layers.set("api.http.requests_per_op", requests as f64 / ops);
    layers.set("api.jobs.queue_wait_ms", t.queue_wait.mean());
    layers.set("api.jobs.run_ms", t.run.mean());
    layers.set("api.jobs.polls_per_job", t.polls.mean());
    layers.set("api.json.response_bytes.plan", t.plan_bytes.mean());

    let model = env.service.model_cache_stats();
    let hits = model.hits - model_before.hits;
    let misses = model.misses - model_before.misses;
    // The service's own fits (`core.fit` spans): a probe on the shadow
    // would find the decoded tail already warmed by the service's read.
    layers.set("core.service.fit_ms", t.spans.mean_ms("core.fit"));
    layers.set(
        "core.service.model_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    layers.set(
        "core.service.incremental_fit_share",
        ratio(
            model.incremental_fits - model_before.incremental_fits,
            model.fits - model_before.fits,
        ),
    );
    layers.set("core.accuracy.score_ms", t.score_ms.median());
    let plan = env.service.plan_cache_stats();
    let plan_hits = plan.hits - plan_before.hits;
    let plan_misses = plan.misses - plan_before.misses;
    layers.set("core.capacity.plan_ms", t.plan_ms.median());
    layers.set(
        "core.capacity.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses),
    );
    layers.set(
        "core.capacity.warm_start_share",
        ratio(plan.warm_starts - plan_before.warm_starts, plan_misses),
    );
    let oracle_hits = model.oracle_hits - model_before.oracle_hits;
    let oracle_misses = model.oracle_misses - model_before.oracle_misses;
    layers.set(
        "core.capacity.oracle_memo_hit_ratio",
        ratio(oracle_hits, oracle_hits + oracle_misses),
    );
    layers.set(
        "core.capacity.oracle_evals_per_plan",
        (model.plan_evals - model_before.plan_evals) as f64
            / (model.plans - model_before.plans).max(1) as f64,
    );
    layers.set("tsdb.ingest_us", t.ingest_us.median());
    layers.set("tsdb.read_ms", t.read_ms.median());
    layers.set(
        "tsdb.tail_cache_hit_ratio",
        ratio(t.tail_hits, t.tail_hits + t.tail_misses),
    );
    layers.set("tsdb.storage_bytes", env.live.db().storage_bytes() as f64);
    layers.set("forecast.prophet_ms", t.prophet_ms.median());
    layers.set("forecast.stats_summary_ms", t.stats_ms.median());
    layers.set("planner.search_ms", t.search_ms.median());
    layers.set("planner.windows", t.windows.mean());
    layers.set("planner.oracle_evals", t.oracle_evals.mean());
    layers.set("heron-sim.replay_ms", lp.validate_ms.median());
    layers.set("heron-sim.events", t.events.mean());
    layers.set("heron-sim.closed_form_ticks", t.closed_form.mean());
    layers.set("heron-sim.ticks_skipped", t.skipped.mean());
    layers.set("heron-sim.fallback_windows", t.fallback.mean());
}
