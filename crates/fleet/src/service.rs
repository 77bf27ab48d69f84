//! Fleet HTTP front door: the fleet's route table over the API tier's
//! shared [`caladrius_api::Edge`]. The edge supplies the request
//! telemetry, the job store (same poll shape, timing included),
//! admission control and the observability endpoints; the fleet's
//! `/metrics/service` scrape holds every shard's `shard="<i>"` service
//! and store series plus the fleet shed/ingest counters. Its own routes:
//!
//! * `POST /fleet/plan` — cluster planning as an async job (`202` +
//!   poll URL). The body may set `"budget"` (containers) to override
//!   the configured cluster budget, plus the same planner knobs as the
//!   single-topology plan route. Low-priority requests are shed with
//!   `429` + `Retry-After` under overload.
//! * `GET /fleet/jobs/{id}` — poll a fleet plan job.
//! * `GET /fleet/health` — per-shard topology counts, model-cache
//!   counters and ingest totals.

use crate::fleet::{Fleet, FleetPlan, TopologyPlanOutcome};
use caladrius_api::edge::{self, Edge, FrontDoor};
use caladrius_api::http::{Handler, Request, Response};
use caladrius_api::json::Value;
use caladrius_api::routes::body_json;
use caladrius_api::{AdmissionConfig, JobRunner};
use caladrius_core::capacity::CapacityPlanRequest;
use std::sync::Arc;

/// The fleet tier's HTTP service: routes fleet requests to a shared
/// [`Fleet`] through the shared [`Edge`].
pub struct FleetService {
    fleet: Arc<Fleet>,
    edge: Edge,
}

/// Route label of the fleet plan endpoint (admission + metrics key).
const PLAN_ROUTE: &str = "/fleet/plan";

impl FleetService {
    /// Wraps a fleet with `job_workers` async workers and admission
    /// control disabled.
    pub fn new(fleet: Arc<Fleet>, job_workers: usize) -> Arc<Self> {
        Self::with_admission(fleet, job_workers, AdmissionConfig::default())
    }

    /// Wraps a fleet with an explicit admission-control configuration
    /// on the plan route.
    pub fn with_admission(
        fleet: Arc<Fleet>,
        job_workers: usize,
        admission: AdmissionConfig,
    ) -> Arc<Self> {
        Arc::new(FleetService {
            fleet,
            edge: Edge::new(JobRunner::new(job_workers), admission),
        })
    }

    /// The job runner (tests gate its workers to force queueing).
    pub fn jobs(&self) -> &JobRunner {
        self.edge.jobs()
    }

    /// A connection handler for [`caladrius_api::HttpServer::serve`].
    pub fn handler(self: &Arc<Self>) -> Handler {
        edge::handler(self)
    }

    /// `POST /fleet/plan` — cluster planning across every registered
    /// topology, async through the job store.
    fn plan(&self, request: &Request) -> Response {
        if let Err(shed) = self.edge.admit(PLAN_ROUTE, request) {
            return shed;
        }
        let (plan_request, budget) = match edge::parse_body(request, parse_fleet_plan_body) {
            Ok(parsed) => parsed,
            Err(bad) => return bad,
        };
        let fleet = Arc::clone(&self.fleet);
        let id = self.jobs().submit(move || {
            let plan = fleet.plan_fleet(&plan_request, budget);
            // Fleet plan jobs burn their own error budget: any topology
            // failing to plan counts as a bad event.
            caladrius_obs::global_slos()
                .objective("fleet-plan-jobs", caladrius_obs::SloConfig::default())
                .record(plan.errors() == 0);
            Ok(fleet_plan_to_json(&plan))
        });
        self.edge.accepted(Ok(id), "/fleet/jobs")
    }

    /// `GET /fleet/health` — per-shard snapshot.
    fn health(&self) -> Response {
        let health = self.fleet.health();
        let n = |count: u64| Value::from(count as f64);
        let shards = health
            .shards
            .iter()
            .map(|s| {
                Value::object([
                    ("shard", Value::from(s.shard as f64)),
                    ("topologies", Value::from(s.topologies as f64)),
                    ("cache_hits", n(s.model_cache.hits)),
                    ("cache_misses", n(s.model_cache.misses)),
                    ("model_fits", n(s.model_cache.fits)),
                    ("model_fits_incremental", n(s.model_cache.incremental_fits)),
                    ("model_fits_full", n(s.model_cache.full_fits)),
                    ("plans", n(s.model_cache.plans)),
                    ("plan_cache_hits", n(s.plan_cache.hits)),
                    ("plan_cache_misses", n(s.plan_cache.misses)),
                    ("plan_warm_starts", n(s.plan_cache.warm_starts)),
                    ("plan_cache_evictions", n(s.plan_cache.evictions)),
                    ("ingest_batches", n(s.ingest.batches)),
                    ("ingest_samples", n(s.ingest.samples)),
                    ("tail_cache_hits", n(s.tail_cache.hits)),
                    ("tail_cache_misses", n(s.tail_cache.misses)),
                    ("routed_batches", n(s.routed_batches)),
                ])
            })
            .collect();
        Response::json(
            Value::object([
                ("status", Value::from("ok")),
                ("topologies", Value::from(health.topologies as f64)),
                ("shards", Value::Array(shards)),
            ])
            .to_json(),
        )
    }
}

impl FrontDoor for FleetService {
    fn edge(&self) -> &Edge {
        &self.edge
    }

    /// The fleet's own `fleet` id plus every shard service's scopes.
    fn obs_scopes(&self) -> Vec<(&'static str, String)> {
        self.fleet.obs_scopes()
    }

    fn route(&self, request: &Request, segments: &[&str]) -> Option<(&'static str, Response)> {
        Some(match (request.method.as_str(), segments) {
            ("POST", ["fleet", "plan"]) => (PLAN_ROUTE, self.plan(request)),
            ("GET", ["fleet", "jobs", id]) => ("/fleet/jobs/{id}", self.edge.job_status(id)),
            ("GET", ["fleet", "health"]) => ("/fleet/health", self.health()),
            (_, ["fleet", ..]) => edge::method_not_allowed(),
            _ => return None,
        })
    }
}

/// Parses a `POST /fleet/plan` body: the single-topology planner knobs
/// (`traffic_model`, `conservative`, `horizon_minutes`, ...) via the
/// API tier's parser, plus the fleet-only `"budget"` (containers,
/// overriding the configured cluster budget).
fn parse_fleet_plan_body(body: &str) -> Result<(CapacityPlanRequest, Option<u32>), String> {
    let request = caladrius_api::parse_plan_body(body)?;
    let budget = body_json(body)?
        .get("budget")
        .map(|raw| {
            raw.as_f64()
                .filter(|b| b.fract() == 0.0 && *b >= 1.0)
                .map(|b| b.min(f64::from(u32::MAX)) as u32)
                .ok_or_else(|| "budget must be a positive integer".to_string())
        })
        .transpose()?;
    Ok((request, budget))
}

fn outcome_to_json(outcome: &TopologyPlanOutcome) -> Value {
    let mut fields = vec![
        ("topology", Value::from(outcome.topology.as_str())),
        ("shard", Value::from(outcome.shard as f64)),
        (
            "demand",
            Value::Array(
                outcome
                    .demand
                    .iter()
                    .map(|d| Value::from(f64::from(*d)))
                    .collect(),
            ),
        ),
        (
            "granted_containers",
            Value::from(f64::from(outcome.granted_containers)),
        ),
        ("risk", Value::from(outcome.risk)),
    ];
    if let Some(timeline) = &outcome.timeline {
        fields.push((
            "plan",
            Value::object([
                ("windows", Value::from(timeline.windows.len() as f64)),
                (
                    "peak_containers",
                    Value::from(f64::from(timeline.peak_cost.containers)),
                ),
                (
                    "peak_instances",
                    Value::from(f64::from(timeline.peak_cost.total_instances)),
                ),
            ]),
        ));
    }
    if let Some(error) = &outcome.error {
        fields.push(("error", Value::from(error.as_str())));
    }
    Value::object(fields)
}

/// Renders a fleet plan for the job result payload.
pub fn fleet_plan_to_json(plan: &FleetPlan) -> Value {
    Value::object([
        ("budget", Value::from(f64::from(plan.budget))),
        ("total_granted", Value::from(f64::from(plan.total_granted))),
        ("errors", Value::from(plan.errors() as f64)),
        ("unchanged", Value::from(plan.unchanged as f64)),
        ("drifted", Value::from(plan.drifted as f64)),
        ("cold", Value::from(plan.cold as f64)),
        (
            "topologies",
            Value::Array(plan.outcomes.iter().map(outcome_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use caladrius_api::admission::PRIORITY_HEADER;
    use caladrius_api::jobs::JobState;
    use std::collections::BTreeMap;

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

    fn empty_service() -> Arc<FleetService> {
        FleetService::new(
            Arc::new(Fleet::new(crate::fleet::FleetConfig::default())),
            1,
        )
    }

    #[test]
    fn parse_accepts_budget_and_planner_knobs() {
        let (request, budget) =
            parse_fleet_plan_body(r#"{"budget": 24, "conservative": true}"#).expect("valid");
        assert_eq!(budget, Some(24));
        assert!(request.conservative);
        let (_, none) = parse_fleet_plan_body("{}").expect("valid");
        assert_eq!(none, None);
        assert!(parse_fleet_plan_body(r#"{"budget": 0}"#).is_err());
        assert!(parse_fleet_plan_body(r#"{"budget": 1.5}"#).is_err());
        assert!(parse_fleet_plan_body(r#"{"budget": "lots"}"#).is_err());
    }

    #[test]
    fn fleet_routes_dispatch() {
        let service = empty_service();
        let health = service.handle(request("GET", "/fleet/health", "", &[]));
        assert_eq!(health.status, 200);
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.contains("\"shards\""), "{body}");

        assert_eq!(
            service
                .handle(request("GET", "/fleet/plan", "", &[]))
                .status,
            405
        );
        assert_eq!(service.handle(request("GET", "/nope", "", &[])).status, 404);
        assert_eq!(
            service
                .handle(request("GET", "/fleet/jobs/zero", "", &[]))
                .status,
            400
        );
        assert_eq!(
            service
                .handle(request("GET", "/fleet/jobs/17", "", &[]))
                .status,
            404
        );
        let metrics = service.handle(request("GET", "/metrics/service", "", &[]));
        assert_eq!(metrics.status, 200);
    }

    #[test]
    fn plan_jobs_run_async_even_on_an_empty_fleet() {
        let service = empty_service();
        let accepted = service.handle(request("POST", "/fleet/plan", "{}", &[]));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let body = String::from_utf8(accepted.body).unwrap();
        let id = caladrius_api::json::parse(&body)
            .unwrap()
            .get("job_id")
            .and_then(Value::as_f64)
            .expect("job id") as u64;
        let done = service.jobs().wait(id).expect("job exists");
        let JobState::Done(result) = done else {
            panic!("empty-fleet plan should succeed: {done:?}");
        };
        assert_eq!(result.get("errors").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            result
                .get("topologies")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
    }

    /// Submits a fleet plan over the route table, waits for the job and
    /// returns its poll body.
    fn finished_plan_poll(service: &FleetService) -> Value {
        let accepted = service.handle(request("POST", "/fleet/plan", "{}", &[]));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let envelope = caladrius_api::json::parse(std::str::from_utf8(&accepted.body).unwrap())
            .expect("job envelope");
        let id = envelope
            .get("job_id")
            .and_then(Value::as_f64)
            .expect("job id") as u64;
        service.jobs().wait(id).expect("job exists");
        let poll = envelope.get("poll").and_then(Value::as_str).expect("poll");
        let polled = service.handle(request("GET", poll, "", &[]));
        assert_eq!(polled.status, 200);
        caladrius_api::json::parse(std::str::from_utf8(&polled.body).unwrap()).expect("poll body")
    }

    #[test]
    fn finished_fleet_job_poll_carries_timing() {
        let v = finished_plan_poll(&empty_service());
        assert_eq!(v.get("state").and_then(Value::as_str), Some("done"));
        for field in ["queued_ms", "started_ms", "finished_ms"] {
            assert!(
                v.get(field).and_then(Value::as_f64).is_some(),
                "{field}: {v:?}"
            );
        }
        assert!(v.get("queue_wait_ms").and_then(Value::as_f64).unwrap() >= 0.0);
        assert!(v.get("duration_ms").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn fleet_scrape_reevaluates_slo_burn_rates() {
        let service = empty_service();
        finished_plan_poll(&service);
        let scrape = service.handle(request("GET", "/metrics/service", "", &[]));
        assert_eq!(scrape.status, 200);
        let text = String::from_utf8(scrape.body).unwrap();
        assert!(
            text.lines()
                .any(|l| l.starts_with("caladrius_slo_burn_rate{")
                    && l.contains("objective=\"fleet-plan-jobs\"")),
            "no fleet-plan-jobs burn rate in:\n{text}"
        );
        // The edge describes the http series, so a fleet-only process
        // renders their help text too.
        assert!(
            text.contains("# HELP caladrius_http_requests_total "),
            "{text}"
        );
    }

    #[test]
    fn low_priority_fleet_plans_shed_under_pressure() {
        let service = FleetService::with_admission(
            Arc::new(Fleet::new(crate::fleet::FleetConfig::default())),
            1,
            AdmissionConfig {
                enabled: true,
                slo_p99_seconds: -1.0, // any recorded latency sheds
                retry_after_seconds: 5,
                ..AdmissionConfig::default()
            },
        );
        // Prime the route histogram with a high-priority request.
        let primed = service.handle(request(
            "POST",
            "/fleet/plan",
            "{}",
            &[(PRIORITY_HEADER, "high")],
        ));
        assert_eq!(primed.status, 202);
        let shed = service.handle(request("POST", "/fleet/plan", "{}", &[]));
        assert_eq!(shed.status, 429);
        assert!(shed
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "5"));
        // High priority still lands.
        let high = service.handle(request(
            "POST",
            "/fleet/plan",
            "{}",
            &[(PRIORITY_HEADER, "high")],
        ));
        assert_eq!(high.status, 202);
    }
}
