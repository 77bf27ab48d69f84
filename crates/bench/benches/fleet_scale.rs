//! Fleet-tier scale bench: 1k+ topologies on a sharded fleet under
//! continuous ingest with periodic cluster replans, measured at the
//! HTTP route layer.
//!
//! The paper positions Caladrius as a *service* that models "multiple
//! topologies concurrently"; this bench stresses that claim at fleet
//! scale. One simulator run is staged and replayed into every topology
//! ([`caladrius_fleet::feed`]), so the numbers isolate the fleet tier
//! itself: the tsdb ingest fan-out, the per-shard model caches, the
//! cluster budget allocator, and the admission edge.
//!
//! Phases (full mode; `CALADRIUS_BENCH_FAST=1` shrinks the fleet):
//!
//! 1. **Feed** — register 1024 topologies across 8 shards and ingest
//!    the 40-minute staged history into each (≈ 41 k batches).
//! 2. **Replans under continuous ingest** — alternate "ship one fresh
//!    minute to every topology" (watermarks advance, cached models go
//!    stale) with full cluster replans through `POST /fleet/plan`:
//!    cold (first fit), refit (after new data), warm (no new data —
//!    served from the plan caches, asserted ≥5× faster than refit),
//!    drifted (fresh data to 10 % of tenants — only those re-plan,
//!    asserted ≥2× faster than refit), plus a budget-constrained
//!    pass. Route latency is read off the shared
//!    `caladrius_http_request_duration_seconds` histograms — plan
//!    submission is async (202 + poll), so the route p99 must stay
//!    flat no matter how long planning takes.
//! 3. **Admission burst** — 256 rapid low-priority plan requests
//!    against a 64-token bucket (no refill) on a drained front door:
//!    the bucket admits its capacity and sheds the rest with 429 +
//!    `Retry-After`, giving the recorded shed rate.

use caladrius_api::json::{self, Value};
use caladrius_api::{AdmissionConfig, FrontDoor, Request, Response};
use caladrius_bench::{columns, fast_mode, header, row};
use caladrius_fleet::{Fleet, FleetConfig, FleetService, StagedWorkload};
use caladrius_tsdb::MetricBatch;
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn request(method: &str, path: &str, body: &str, headers: &[(&str, &str)]) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: BTreeMap::new(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: body.as_bytes().to_vec(),
    }
}

fn body_json(response: &Response) -> Value {
    json::parse(std::str::from_utf8(&response.body).expect("utf-8 body")).expect("json body")
}

/// Submits a fleet plan and blocks until the job finishes, polling the
/// job route once so poll latency lands in the histograms too.
fn replan(service: &Arc<FleetService>, body: &str) -> Value {
    let accepted = service.handle(request("POST", "/fleet/plan", body, &[]));
    assert_eq!(accepted.status, 202, "{:?}", accepted.body);
    let envelope = body_json(&accepted);
    let id = envelope
        .get("job_id")
        .and_then(Value::as_f64)
        .expect("job id") as u64;
    let poll = envelope
        .get("poll")
        .and_then(Value::as_str)
        .expect("poll url");
    let polled = service.handle(request("GET", poll, "", &[]));
    assert!(polled.status == 200 || polled.status == 202);
    match service.jobs().wait(id).expect("job exists") {
        caladrius_api::jobs::JobState::Done(result) => result,
        other => panic!("fleet replan did not finish: {other:?}"),
    }
}

fn route_p99_ms(route: &str) -> f64 {
    // The route family is registered windowed by the front doors; the
    // cumulative snapshot still covers the whole bench run.
    caladrius_obs::global_registry()
        .windowed_histogram(
            "caladrius_http_request_duration_seconds",
            &[("route", route)],
        )
        .snapshot()
        .quantile(0.99)
        * 1e3
}

fn main() {
    header(
        "fleet_scale: sharded multi-tenant fleet under replans",
        "Caladrius \"is designed to model multiple topologies concurrently\" — \
         scaled to a 1k-topology fleet with a cluster container budget",
    );
    let (topologies, shards) = if fast_mode() { (128, 4) } else { (1024, 8) };

    // Phase 1: stage once, feed every topology its full history.
    let staged = StagedWorkload::stage_wordcount();
    let minutes_per_topology = staged.minutes();
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards,
        ..FleetConfig::default()
    }));
    let feed_started = Instant::now();
    let mut bindings = Vec::with_capacity(topologies);
    let mut batch = MetricBatch::new(0);
    for i in 0..topologies {
        let name = format!("tenant-{i:04}");
        let mut topology = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
            6.0e6,
        );
        topology.name = name.clone();
        let metrics = fleet.register(topology);
        let bound = staged.bind(&metrics);
        for idx in 0..staged.minutes() {
            bound.fill(&staged, idx, &mut batch);
            fleet.ingest(&name, &batch).expect("registered");
        }
        bindings.push((name, bound));
    }
    let feed_secs = feed_started.elapsed().as_secs_f64();
    let total_batches = (topologies * minutes_per_topology) as f64;
    println!(
        "\nfeed: {topologies} topologies x {minutes_per_topology} minutes on {shards} shards \
         in {feed_secs:.2}s ({:.0} batches/s)",
        total_batches / feed_secs
    );

    let service = FleetService::new(Arc::clone(&fleet), 2);

    // Phase 2: replans under continuous ingest. `offset` pushes each
    // recycled staged minute past every previously ingested timestamp.
    let minute_ms = 60_000i64;
    let span_ms = (staged.minute_ts(staged.minutes() - 1) - staged.minute_ts(0)) + minute_ms;
    let mut offset = span_ms;
    let mut fresh_minute = 0usize;
    // Ships one fresh staged minute to the first `count` topologies.
    let ship_minute = |fresh_minute: &mut usize, offset: &mut i64, count: usize| {
        let started = Instant::now();
        let mut batch = MetricBatch::new(0);
        for (name, bound) in bindings.iter().take(count) {
            bound.fill_at(&staged, *fresh_minute, *offset, &mut batch);
            fleet.ingest(name, &batch).expect("registered");
        }
        *fresh_minute += 1;
        if *fresh_minute == staged.minutes() {
            *fresh_minute = 0;
            *offset += span_ms;
        }
        started.elapsed().as_secs_f64()
    };

    columns(
        "replan",
        &[
            "wall s",
            "granted",
            "unchanged",
            "drifted",
            "cold",
            "errors",
        ],
    );
    let run_replan = |label: &str, body: &str| -> (Value, f64) {
        let started = Instant::now();
        let result = replan(&service, body);
        let wall = started.elapsed().as_secs_f64();
        let field = |name: &str| result.get(name).and_then(Value::as_f64).unwrap();
        row(
            label,
            &[
                wall,
                field("total_granted"),
                field("unchanged"),
                field("drifted"),
                field("cold"),
                field("errors"),
            ],
        );
        (result, wall)
    };
    let partition = |result: &Value| -> (f64, f64, f64) {
        let field = |name: &str| result.get(name).and_then(Value::as_f64).unwrap();
        (field("unchanged"), field("drifted"), field("cold"))
    };

    let (cold, _) = run_replan("cold", "{}");
    assert_eq!(cold.get("errors").and_then(Value::as_f64), Some(0.0));
    assert_eq!(partition(&cold), (0.0, 0.0, topologies as f64));
    let peak_sum = cold.get("total_granted").and_then(Value::as_f64).unwrap();
    assert!(peak_sum >= topologies as f64, "grants: {peak_sum}");

    let ingest_secs = ship_minute(&mut fresh_minute, &mut offset, topologies);
    println!(
        "  continuous ingest: one fresh minute to all {topologies} topologies in \
         {ingest_secs:.3}s ({:.0} batches/s)",
        topologies as f64 / ingest_secs
    );
    let (refit, refit_wall) = run_replan("refit", "{}");
    assert_eq!(refit.get("errors").and_then(Value::as_f64), Some(0.0));
    assert_eq!(partition(&refit), (0.0, topologies as f64, 0.0));

    // Steady traffic: every topology's plan cache holds a fingerprint-
    // current timeline, so the replan is pure cache probes — no
    // forecasting, no search — and must come back identical, fast.
    let (warm, warm_wall) = run_replan("warm", "{}");
    assert_eq!(warm.get("errors").and_then(Value::as_f64), Some(0.0));
    assert_eq!(partition(&warm), (topologies as f64, 0.0, 0.0));
    assert_eq!(
        warm.get("total_granted").and_then(Value::as_f64),
        refit.get("total_granted").and_then(Value::as_f64),
        "cached plans must match the plans they memoise"
    );
    let warm_speedup = refit_wall / warm_wall;
    println!("  warm replan speedup vs refit: {warm_speedup:.1}x");
    assert!(
        warm_speedup >= 5.0,
        "steady-traffic replan speedup {warm_speedup:.1}x < 5x"
    );

    // 10 % drift: only the drifted tenants see fresh data; the rest are
    // served from their plan caches and skip the planner pool entirely.
    let drifted_count = (topologies / 10).max(1);
    ship_minute(&mut fresh_minute, &mut offset, drifted_count);
    let (drifted, drifted_wall) = run_replan("drift 10%", "{}");
    assert_eq!(drifted.get("errors").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        partition(&drifted),
        (
            (topologies - drifted_count) as f64,
            drifted_count as f64,
            0.0
        )
    );
    let drift_speedup = refit_wall / drifted_wall;
    println!("  drifted replan speedup vs refit: {drift_speedup:.1}x");
    assert!(
        drift_speedup >= 2.0,
        "10% drift replan speedup {drift_speedup:.1}x < 2x"
    );

    // Budget-constrained pass: three quarters of unconstrained demand.
    let budget = ((peak_sum * 0.75) as u32).max(1);
    let (tight, _) = run_replan("budgeted", &format!("{{\"budget\": {budget}}}"));
    let granted = tight.get("total_granted").and_then(Value::as_f64).unwrap();
    assert!(granted <= f64::from(budget), "{granted} > {budget}");

    // Route latency while all of the above ran: submission is async,
    // so the plan route's p99 must stay in request-handling territory.
    for _ in 0..64 {
        assert_eq!(
            service
                .handle(request("GET", "/fleet/health", "", &[]))
                .status,
            200
        );
    }
    let plan_p99 = route_p99_ms("/fleet/plan");
    let health_p99 = route_p99_ms("/fleet/health");
    println!(
        "  route p99: POST /fleet/plan {plan_p99:.2} ms (submit only), \
         GET /fleet/health {health_p99:.2} ms"
    );
    assert!(plan_p99 < 250.0, "plan submission p99 {plan_p99:.2} ms");
    assert!(health_p99 < 250.0, "health p99 {health_p99:.2} ms");

    // Per-shard cache behaviour across the replan rounds: model cache
    // (fitted models) and plan cache (whole timelines) side by side.
    columns(
        "shard",
        &[
            "topologies",
            "model hit",
            "model miss",
            "plan hit",
            "plan miss",
            "warm",
            "evict",
        ],
    );
    let mut plan_hits = 0u64;
    let mut warm_starts = 0u64;
    for shard in fleet.health().shards {
        plan_hits += shard.plan_cache.hits;
        warm_starts += shard.plan_cache.warm_starts;
        row(
            format!("shard {}", shard.shard),
            &[
                shard.topologies as f64,
                shard.model_cache.hits as f64,
                shard.model_cache.misses as f64,
                shard.plan_cache.hits as f64,
                shard.plan_cache.misses as f64,
                shard.plan_cache.warm_starts as f64,
                shard.plan_cache.evictions as f64,
            ],
        );
    }
    // The warm and drifted rounds were served from the plan caches; the
    // refit and drifted re-plans warm-started from their stale entries.
    assert!(
        plan_hits >= (2 * topologies - drifted_count) as u64,
        "plan-cache hits {plan_hits} too low"
    );
    assert!(
        warm_starts >= (topologies + drifted_count) as u64,
        "warm starts {warm_starts} too low"
    );

    // Phase 3: admission burst on a drained front door (empty fleet, so
    // admitted jobs cost nothing and the numbers isolate the edge).
    let burst = 256u32;
    let bucket = 64.0;
    let edge = FleetService::with_admission(
        Arc::new(Fleet::new(FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        })),
        2,
        AdmissionConfig {
            enabled: true,
            bucket_capacity: bucket,
            refill_per_second: 0.0,
            queue_depth_watermark: f64::from(burst),
            slo_p99_seconds: f64::INFINITY,
            ..AdmissionConfig::default()
        },
    );
    let mut admitted = 0u32;
    let mut shed = 0u32;
    let burst_started = Instant::now();
    for _ in 0..burst {
        match edge
            .handle(request("POST", "/fleet/plan", "{}", &[]))
            .status
        {
            202 => admitted += 1,
            429 => shed += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    let burst_secs = burst_started.elapsed().as_secs_f64();
    let shed_rate = f64::from(shed) / f64::from(burst);
    println!(
        "\nadmission burst: {burst} low-priority plan requests in {burst_secs:.3}s -> \
         {admitted} admitted, {shed} shed (shed rate {:.1}%)",
        shed_rate * 100.0
    );
    assert_eq!(
        admitted, bucket as u32,
        "bucket admits exactly its capacity"
    );
    assert!(shed_rate > 0.5, "burst must overrun the bucket");

    println!("\nfleet_scale: OK ({topologies} topologies, {shards} shards)");
}
