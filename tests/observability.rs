//! End-to-end test of the observability layer through the REST surface:
//! driving real traffic over HTTP must light up the Prometheus
//! exposition at `/metrics/service` (covering the HTTP, job, service,
//! tsdb and simulator layers) and leave attributable spans in
//! `/trace/recent`.

use caladrius::api::{json, ApiService, HttpClient, HttpServer, Value};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::fleet::{Fleet, FleetConfig, FleetService, StagedWorkload};
use caladrius::sim::prelude::*;
use caladrius::tsdb::MetricBatch;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn start_service() -> (HttpServer, HttpClient) {
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = SimMetrics::new("wordcount");
    for (leg, rate) in [6.0e6, 14.0e6, 26.0e6].into_iter().enumerate() {
        let mut sim =
            Simulation::new(wordcount_topology(parallelism, rate), SimConfig::default()).unwrap();
        sim.skip_to_minute(leg as u64 * 60);
        sim.warmup_minutes(25);
        sim.run_minutes_into(10, &metrics);
    }
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 26.0e6))),
    );
    let api = ApiService::new(Arc::new(caladrius), 2);
    let server = HttpServer::serve("127.0.0.1:0", 4, api.handler()).unwrap();
    let client = HttpClient::new(server.local_addr());
    (server, client)
}

/// Extracts the value of the first sample line whose name+labels prefix
/// contains every given fragment.
fn scrape(text: &str, fragments: &[&str]) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| fragments.iter().all(|f| l.contains(f)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_service_covers_every_instrumented_layer() {
    let (_server, client) = start_service();

    // Generate observable work: sync evaluation, async job, health.
    assert_eq!(client.get("/health").unwrap().0, 200);
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 20000000}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": 10000000}"#,
        )
        .unwrap();
    assert_eq!(status, 202, "{body}");
    let poll = json::parse(&body)
        .unwrap()
        .get("poll")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let final_poll = loop {
        let (_, body) = client.get(&poll).unwrap();
        let v = json::parse(&body).unwrap();
        match v.get("state").unwrap().as_str().unwrap() {
            "pending" => {
                assert!(std::time::Instant::now() < deadline);
                std::thread::sleep(Duration::from_millis(10));
            }
            "done" => break v,
            other => panic!("job failed: {other} {body}"),
        }
    };
    // Job timing rides along in the poll response.
    assert!(final_poll.get("queued_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(final_poll.get("duration_ms").unwrap().as_f64().unwrap() >= 0.0);

    let (status, text) = client.get("/metrics/service").unwrap();
    assert_eq!(status, 200);

    // HTTP tier: per-route counters and latency histograms.
    assert!(
        scrape(
            &text,
            &["caladrius_http_requests_total", "route=\"/health\""]
        )
        .unwrap()
            >= 1.0
    );
    assert!(
        scrape(
            &text,
            &[
                "caladrius_http_requests_total",
                "route=\"/model/topology/heron/{topology}\"",
                "status=\"200\"",
            ],
        )
        .unwrap()
            >= 1.0
    );
    assert!(
        scrape(
            &text,
            &[
                "caladrius_http_request_duration_seconds_count",
                "route=\"/health\""
            ],
        )
        .unwrap()
            >= 1.0
    );

    // Job tier: the async evaluation ran through the worker pool.
    assert!(scrape(&text, &["caladrius_job_duration_seconds_count"]).unwrap() >= 1.0);

    // Service tier: model fits and cache traffic from the evaluations.
    assert!(scrape(&text, &["caladrius_model_fits_total"]).unwrap() >= 1.0);
    // Single-watermark evaluations fit cold, so every fit is a full fit.
    assert!(scrape(&text, &["caladrius_model_fits_full_total"]).unwrap() >= 1.0);
    assert!(scrape(&text, &["caladrius_model_fits_incremental_total"]).is_some());
    assert!(scrape(&text, &["caladrius_evaluate_duration_seconds_count"]).unwrap() >= 2.0);

    // Data tier: the simulator legs were ingested through the tsdb, and
    // the decoded-tail cache counters are exposed (cold fits read full
    // windows, so only presence — not traffic — is guaranteed here).
    assert!(scrape(&text, &["caladrius_tsdb_ingest_samples_total"]).unwrap() > 0.0);
    assert!(scrape(&text, &["caladrius_tsdb_ingest_batch_size_count"]).unwrap() > 0.0);
    assert!(scrape(&text, &["caladrius_tsdb_tail_cache_hits_total"]).is_some());
    assert!(scrape(&text, &["caladrius_tsdb_tail_cache_misses_total"]).is_some());

    // The /health JSON mirrors the same counters.
    let (status, health) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    let health = json::parse(&health).unwrap();
    let model_cache = health.get("model_cache").unwrap();
    assert!(model_cache.get("full_fits").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(
        model_cache
            .get("incremental_fits")
            .unwrap()
            .as_f64()
            .unwrap(),
        0.0
    );
    let tsdb = health.get("tsdb").unwrap();
    assert!(tsdb.get("tail_cache_hits").unwrap().as_f64().is_some());
    assert!(tsdb.get("tail_cache_misses").unwrap().as_f64().is_some());

    // Simulator: per-minute step timing recorded while seeding metrics.
    assert!(scrape(&text, &["caladrius_sim_minute_duration_seconds_count"]).unwrap() > 0.0);
}

/// Every `(scope label, id)` pair on the sample rows of an exposition.
fn scope_pairs(text: &str) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        for label in caladrius::obs::SCOPE_LABELS {
            for sep in ['{', ','] {
                let needle = format!("{sep}{label}=\"");
                if let Some(at) = line.find(&needle) {
                    let rest = &line[at + needle.len()..];
                    let id = &rest[..rest.find('"').expect("closing quote")];
                    pairs.insert((label.to_string(), id.to_string()));
                }
            }
        }
    }
    pairs
}

#[test]
fn services_in_one_process_expose_disjoint_scoped_series() {
    let (_a_server, a) = start_service();
    let (_b_server, b) = start_service();
    let (_fleet_server, fleet) = start_fleet();
    let mut seen = Vec::new();
    for client in [&a, &b, &fleet] {
        let (status, text) = client.get("/metrics/service").unwrap();
        assert_eq!(status, 200);
        let pairs = scope_pairs(&text);
        for label in ["service", "runner", "db"] {
            assert!(
                pairs.iter().any(|(l, _)| l == label),
                "no {label} series in:\n{text}"
            );
        }
        seen.push(pairs);
    }
    assert!(seen[2].iter().any(|(l, _)| l == "fleet"));
    for (i, j) in [(0, 1), (0, 2), (1, 2)] {
        let shared: Vec<_> = seen[i].intersection(&seen[j]).collect();
        assert!(shared.is_empty(), "instances {i} and {j} share {shared:?}");
    }
}

#[test]
fn event_scheduler_counters_surface_in_service_metrics() {
    let (_server, client) = start_service();

    // Drive an event-mode simulation in-process: a relaxed constant
    // load advances almost entirely in closed form, so both scheduler
    // counters must accumulate.
    let mut sim = Simulation::new(
        wordcount_topology(WordCountParallelism::default(), 8.0e6),
        SimConfig {
            event_mode: true,
            metric_noise: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.run_minutes(3);
    assert!(sim.ticks_closed_form() > 0);

    let (status, text) = client.get("/metrics/service").unwrap();
    assert_eq!(status, 200);
    assert!(scrape(&text, &["caladrius_sim_events_total"]).unwrap() > 0.0);
    assert!(scrape(&text, &["caladrius_sim_ticks_closed_form_total"]).unwrap() > 0.0);
}

#[test]
fn trace_recent_spans_carry_request_ids() {
    let (_server, client) = start_service();
    assert_eq!(client.get("/health").unwrap().0, 200);
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 15000000}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = client.get("/trace/recent?limit=100").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty());

    let span = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("no {name} span in {body}"))
    };
    // The evaluation's core span shares the request id of its enclosing
    // HTTP span — the id was minted at the edge and propagated down.
    let evaluate = span("core.evaluate");
    let eval_request = evaluate.get("request_id").unwrap().as_str().unwrap();
    let http_ids: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("http.request"))
        .map(|e| e.get("request_id").unwrap().as_str().unwrap())
        .collect();
    assert!(!http_ids.is_empty());
    assert!(
        http_ids.contains(&eval_request),
        "core.evaluate request id {eval_request} not among http ids {http_ids:?}"
    );
    assert_eq!(
        evaluate
            .get("fields")
            .unwrap()
            .get("topology")
            .unwrap()
            .as_str(),
        Some("wordcount")
    );
}

/// A small staged fleet (2 shards × 4 topologies) behind its HTTP
/// front door.
fn start_fleet() -> (HttpServer, HttpClient) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    }));
    let staged = StagedWorkload::stage_wordcount();
    let mut batch = MetricBatch::new(0);
    for i in 0..4 {
        let name = format!("obs-tenant-{i}");
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
            fleet.ingest(&name, &batch).expect("registered topology");
        }
    }
    let service = FleetService::new(fleet, 2);
    let server = HttpServer::serve("127.0.0.1:0", 4, service.handler()).unwrap();
    let client = HttpClient::new(server.local_addr());
    (server, client)
}

/// Polls a job envelope until the job finishes.
fn wait_for_job(client: &HttpClient, accepted_body: &str) {
    let poll = json::parse(accepted_body)
        .expect("job envelope")
        .get("poll")
        .and_then(Value::as_str)
        .expect("poll url")
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = client.get(&poll).expect("poll round-trip");
        match json::parse(&body)
            .unwrap()
            .get("state")
            .and_then(Value::as_str)
        {
            Some("done") => return,
            Some("failed") => panic!("job failed: {body}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "job timed out");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// A cluster plan over real HTTP leaves one *connected* span tree in
/// the trace ring: `http.request` → `api.job` → `fleet.plan` → one
/// `fleet.shard.plan` per topology → `core.plan`, all attributed to
/// the caller-supplied request id even though the work hopped from the
/// HTTP worker to the job worker to the shared planning pool.
#[test]
fn fleet_plan_fans_out_one_connected_span_tree() {
    let (_server, client) = start_fleet();
    let supplied = "beefcafe";
    let expected_id = caladrius::obs::RequestId::parse(supplied)
        .unwrap()
        .to_string();

    let (status, _, body) = client
        .post_full("/fleet/plan", "{}", &[("x-request-id", supplied)])
        .unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);

    let (status, body) = client
        .get(&format!("/trace/recent?request_id={supplied}&limit=2048"))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "no spans for request {supplied}");
    for event in events {
        assert_eq!(
            event.get("request_id").and_then(Value::as_str),
            Some(expected_id.as_str()),
            "foreign span in filtered trace: {event:?}"
        );
    }

    let spans_named = |name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .collect()
    };
    let span_id = |e: &Value| e.get("span_id").and_then(Value::as_f64).unwrap() as u64;
    let parent_id = |e: &Value| {
        e.get("parent_span_id")
            .and_then(Value::as_f64)
            .map(|p| p as u64)
    };

    // Exactly one HTTP edge span, one job span and one cluster-plan
    // span, linked in that order.
    let http = spans_named("http.request");
    let accepted: Vec<&&Value> = http
        .iter()
        .filter(|e| {
            e.get("fields")
                .and_then(|f| f.get("route"))
                .and_then(Value::as_str)
                == Some("/fleet/plan")
        })
        .collect();
    assert_eq!(accepted.len(), 1, "{body}");
    let jobs = spans_named("api.job");
    assert_eq!(jobs.len(), 1, "{body}");
    assert_eq!(
        parent_id(jobs[0]),
        Some(span_id(accepted[0])),
        "api.job not parented to the accepting http.request"
    );
    let plans = spans_named("fleet.plan");
    assert_eq!(plans.len(), 1, "{body}");
    assert_eq!(
        parent_id(plans[0]),
        Some(span_id(jobs[0])),
        "fleet.plan not parented to its api.job"
    );

    // One shard-plan span per topology, each parented to the cluster
    // plan; every core.plan span sits under some shard-plan span.
    let shard_plans = spans_named("fleet.shard.plan");
    assert_eq!(shard_plans.len(), 4, "{body}");
    let plan_span = span_id(plans[0]);
    let shard_ids: Vec<u64> = shard_plans
        .iter()
        .map(|e| {
            assert_eq!(parent_id(e), Some(plan_span), "{e:?}");
            span_id(e)
        })
        .collect();
    let core_plans = spans_named("core.plan");
    assert_eq!(core_plans.len(), 4, "{body}");
    for core in &core_plans {
        let parent = parent_id(core).expect("core.plan has a parent");
        assert!(
            shard_ids.contains(&parent),
            "core.plan parent {parent} not a fleet.shard.plan: {body}"
        );
    }
}

/// A single-topology plan connects the same way through the job
/// runner: `http.request` → `api.job` → `core.plan`, all under the
/// caller-supplied request id.
#[test]
fn topology_plan_spans_connect_through_the_job() {
    let (_server, client) = start_service();
    let supplied = "feedface";
    let (status, _, body) = client
        .post_full(
            "/topology/wordcount/plan",
            "{}",
            &[("x-request-id", supplied)],
        )
        .unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);

    let (status, body) = client
        .get(&format!("/trace/recent?request_id={supplied}&limit=2048"))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    let only = |name: &str, route: Option<&str>| -> &Value {
        let matching: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .filter(|e| {
                route.is_none()
                    || e.get("fields")
                        .and_then(|f| f.get("route"))
                        .and_then(Value::as_str)
                        == route
            })
            .collect();
        assert_eq!(matching.len(), 1, "one {name} span expected: {body}");
        matching[0]
    };
    let span_id = |e: &Value| e.get("span_id").and_then(Value::as_f64);
    let parent_id = |e: &Value| e.get("parent_span_id").and_then(Value::as_f64);

    let accepted = only("http.request", Some("/topology/{topology}/plan"));
    let job = only("api.job", None);
    let plan = only("core.plan", None);
    assert_eq!(
        parent_id(job),
        span_id(accepted),
        "api.job not parented to the accepting http.request"
    );
    assert_eq!(
        parent_id(plan),
        span_id(job),
        "core.plan not parented to its api.job"
    );
}

/// `/slo/status` and `/debug/flight` round-trip as JSON over the fleet
/// front door, and serving requests populates both: the plan route's
/// SLO objective appears with finite burn rates, and the flight
/// recorder holds at least one snapshot with flattened samples.
#[test]
fn slo_status_and_flight_round_trip_over_http() {
    let (_server, client) = start_fleet();
    let (status, _, body) = client.post_full("/fleet/plan", "{}", &[]).unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);

    let (status, body) = client.get("/slo/status").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert!(v.get("firing").and_then(Value::as_f64).unwrap() >= 0.0);
    assert!(v.get("warning").and_then(Value::as_f64).unwrap() >= 0.0);
    let objectives = v.get("objectives").and_then(Value::as_array).unwrap();
    let route_slo = objectives
        .iter()
        .find(|o| o.get("name").and_then(Value::as_str) == Some("route:/fleet/plan"))
        .unwrap_or_else(|| panic!("no /fleet/plan objective: {body}"));
    for field in ["fast_burn_rate", "slow_burn_rate", "target"] {
        let value = route_slo.get(field).and_then(Value::as_f64).unwrap();
        assert!(value.is_finite() && value >= 0.0, "{field}: {value}");
    }
    assert!(route_slo.get("good").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(
        objectives
            .iter()
            .any(|o| o.get("name").and_then(Value::as_str) == Some("fleet-plan-jobs")),
        "plan job objective missing: {body}"
    );

    let (status, body) = client.get("/debug/flight").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let snapshots = v.get("snapshots").and_then(Value::as_array).unwrap();
    assert!(!snapshots.is_empty(), "flight dump is empty: {body}");
    let samples = snapshots
        .last()
        .unwrap()
        .get("samples")
        .and_then(Value::as_array)
        .unwrap();
    assert!(
        samples.iter().any(|s| {
            s.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with("caladrius_http_request_duration_seconds"))
        }),
        "no flattened duration sample: {body}"
    );
    assert!(v.get("slo_transitions").and_then(Value::as_array).is_some());
    assert!(v.get("sheds").and_then(Value::as_array).is_some());
}
