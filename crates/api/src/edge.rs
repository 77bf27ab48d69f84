//! The HTTP edge every front door shares.
//!
//! The single-topology [`crate::ApiService`] and the fleet tier's front
//! door differ only in their route tables. Everything around a route —
//! request-id scope, `http.request` span, per-route counters and the
//! windowed latency histogram, the per-route SLO, the flight snapshot,
//! admission control, the async job store and its poll shape, and the
//! observability endpoints (`/metrics/service`, `/trace/recent`,
//! `/slo/status`, `/debug/flight`) — lives here, once:
//!
//! * [`Edge`] owns the [`JobRunner`] and the [`AdmissionController`]
//!   and builds the shared responses: admit-or-`429`, the accepted-job
//!   `202`, the job-status poll (with timing), and the owned-scope
//!   Prometheus scrape.
//! * [`FrontDoor`] is a route table over an edge; its provided
//!   [`FrontDoor::handle`] serves one request with the full telemetry
//!   and falls back to the shared observability routes.

use crate::admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, Priority, PRIORITY_HEADER,
};
use crate::http::{Handler, Request, Response};
use crate::jobs::{JobRejected, JobRunner, JobState};
use crate::json::Value;
use caladrius_obs::RequestScope;
use std::sync::Arc;
use std::time::Instant;

/// Per-route request counter.
const REQUESTS_METRIC: &str = "caladrius_http_requests_total";
/// Per-route windowed latency histogram (admission's p99 signal).
const DURATION_METRIC: &str = "caladrius_http_request_duration_seconds";

/// The shared HTTP edge: a front door's job runner and admission
/// controller, plus the responses every front door builds the same way.
pub struct Edge {
    jobs: JobRunner,
    admission: AdmissionController,
}

impl Edge {
    /// An edge running jobs on `jobs`, with admission control on the
    /// sheddable routes configured by `admission`.
    pub fn new(jobs: JobRunner, admission: AdmissionConfig) -> Self {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            REQUESTS_METRIC,
            "HTTP requests by route pattern, method and status",
        );
        registry.describe(
            DURATION_METRIC,
            "HTTP request handling time by route pattern (cumulative rows plus recent-window quantile gauges)",
        );
        registry.describe(
            caladrius_obs::BURN_RATE_METRIC,
            "SLO error-budget burn rate by objective and evaluation window",
        );
        Edge {
            jobs,
            admission: AdmissionController::new(admission),
        }
    }

    /// The async job runner.
    pub fn jobs(&self) -> &JobRunner {
        &self.jobs
    }

    /// Admission control for a sheddable `route`: `Err` carries the
    /// `429` + `Retry-After` response when the request is shed.
    pub fn admit(&self, route: &str, request: &Request) -> Result<(), Response> {
        let priority =
            Priority::from_header(request.headers.get(PRIORITY_HEADER).map(String::as_str));
        match self
            .admission
            .decide(route, priority, route_p99(route), self.jobs.queue_depth())
        {
            AdmissionDecision::Admit => Ok(()),
            AdmissionDecision::Shed {
                retry_after_seconds,
            } => Err(too_many_requests(
                "shed by admission control",
                retry_after_seconds,
            )),
        }
    }

    /// The response to a job submission: `202 {job_id, poll}` with the
    /// poll URL `{poll_prefix}/{id}`, or `429` + `Retry-After` when a
    /// keyed submission hit its per-key cap.
    pub fn accepted(&self, submitted: Result<u64, JobRejected>, poll_prefix: &str) -> Response {
        match submitted {
            Ok(id) => Response::json_status(
                202,
                Value::object([
                    ("job_id", Value::from(id as f64)),
                    ("poll", Value::from(format!("{poll_prefix}/{id}"))),
                ])
                .to_json(),
            ),
            Err(rejected) => too_many_requests(
                rejected.to_string(),
                self.admission.config().retry_after_seconds,
            ),
        }
    }

    /// A job poll: its state (`202` while pending), its result or error,
    /// and its timing milestones (`queued_ms`, `started_ms`,
    /// `finished_ms`, `queue_wait_ms`, `duration_ms`).
    pub fn job_status(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return error_json(400, "job id must be an integer");
        };
        let Some(state) = self.jobs.state(id) else {
            return error_json(404, "no such job");
        };
        let (status, mut fields) = match state {
            JobState::Pending => (202, vec![("state", Value::from("pending"))]),
            JobState::Done(result) => (
                200,
                vec![("state", Value::from("done")), ("result", result)],
            ),
            JobState::Failed(message) => (
                200,
                vec![
                    ("state", Value::from("failed")),
                    ("error", Value::from(message)),
                ],
            ),
        };
        if let Some(timing) = self.jobs.timing(id) {
            let opt = |v: Option<i64>| v.map(|ms| Value::from(ms as f64)).unwrap_or(Value::Null);
            fields.push(("queued_ms", Value::from(timing.queued_unix_ms as f64)));
            fields.push(("started_ms", opt(timing.started_unix_ms)));
            fields.push(("finished_ms", opt(timing.finished_unix_ms)));
            fields.push(("queue_wait_ms", opt(timing.queue_wait_ms())));
            fields.push(("duration_ms", opt(timing.duration_ms())));
        }
        Response::json_status(status, Value::object(fields).to_json())
    }

    /// `GET /metrics/service`: every unscoped series plus the front
    /// door's `owned` scopes and its job runner's, never another
    /// in-process instance's. SLO burn-rate gauges are re-evaluated
    /// first so the scrape never reports stale burn rates.
    fn service_metrics(&self, mut owned: Vec<(&'static str, String)>) -> Response {
        caladrius_obs::evaluate_slos();
        owned.push(("runner", self.jobs.scope_id().to_string()));
        Response {
            status: 200,
            content_type: caladrius_obs::PROMETHEUS_CONTENT_TYPE.into(),
            body: caladrius_obs::render_prometheus_owned(caladrius_obs::global_registry(), &owned)
                .into_bytes(),
            headers: Vec::new(),
        }
    }
}

/// A route table served through the shared [`Edge`].
pub trait FrontDoor: Send + Sync + 'static {
    /// The edge holding this front door's jobs and admission control.
    fn edge(&self) -> &Edge;

    /// The `(label, scope id)` pairs of this front door's own obs series
    /// (services, stores, fleets); the edge adds its job runner's.
    fn obs_scopes(&self) -> Vec<(&'static str, String)>;

    /// Dispatches to this front door's own routes, returning the
    /// normalized route pattern (the metric label) with the response.
    /// `segments` is the path split on `/`. `None` hands the request to
    /// the shared observability routes (and their `405`/`404`).
    fn route(&self, request: &Request, segments: &[&str]) -> Option<(&'static str, Response)>;

    /// Serves one request (usable directly in tests, no sockets needed).
    ///
    /// Installs the request id (from `x-request-id`, minting one for
    /// hand-built requests) for the duration of the handler so every
    /// span recorded below attributes to this request, and records the
    /// `http.request` span, per-route counters, the windowed latency
    /// histogram, the per-route SLO and a due flight snapshot.
    fn handle(&self, request: Request) -> Response {
        let request_id = request
            .request_id()
            .unwrap_or_else(caladrius_obs::next_request_id);
        let _request_scope = RequestScope::enter(request_id);
        let started = Instant::now();
        let mut span = caladrius_obs::global_span("http.request");
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let (route, response) = self
            .route(&request, &segments)
            .unwrap_or_else(|| shared_route(self, &request, &segments));
        span.field("route", route)
            .field("method", &request.method)
            .field("status", response.status);
        let registry = caladrius_obs::global_registry();
        let status = response.status.to_string();
        registry
            .counter(
                REQUESTS_METRIC,
                &[
                    ("route", route),
                    ("method", &request.method),
                    ("status", &status),
                ],
            )
            .inc();
        registry
            .windowed_histogram(DURATION_METRIC, &[("route", route)])
            .record_duration(started.elapsed());
        record_route_slo(
            route,
            response.status,
            started.elapsed().as_secs_f64(),
            self.edge().admission.config().slo_p99_seconds,
        );
        caladrius_obs::global_flight().maybe_snapshot(registry);
        response
    }
}

/// A connection handler for [`crate::HttpServer::serve`] over a front
/// door.
pub fn handler(door: &Arc<impl FrontDoor>) -> Handler {
    let door = Arc::clone(door);
    Arc::new(move |request| door.handle(request))
}

/// The `405` every route table answers for a known path with the wrong
/// method.
pub fn method_not_allowed() -> (&'static str, Response) {
    ("method_not_allowed", error_json(405, "method not allowed"))
}

/// Parses a request body as UTF-8 with `parse`; `Err` carries the `400`
/// response naming what was wrong.
pub fn parse_body<T>(
    request: &Request,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, Response> {
    let body = request
        .body_str()
        .ok_or_else(|| error_json(400, "body is not UTF-8"))?;
    parse(body).map_err(|msg| error_json(400, msg))
}

/// A JSON error response: `{"error": message}` with `status`.
pub fn error_json(status: u16, message: impl Into<String>) -> Response {
    let body = Value::object([("error", Value::from(message.into()))]);
    Response::json_status(status, body.to_json())
}

/// The routes every front door serves the same way, then `404`.
fn shared_route<D: FrontDoor + ?Sized>(
    door: &D,
    request: &Request,
    segments: &[&str],
) -> (&'static str, Response) {
    match (request.method.as_str(), segments) {
        ("GET", ["metrics", "service"]) => (
            "/metrics/service",
            door.edge().service_metrics(door.obs_scopes()),
        ),
        ("GET", ["trace", "recent"]) => ("/trace/recent", trace_recent_response(request)),
        ("GET", ["slo", "status"]) => ("/slo/status", slo_status_response()),
        ("GET", ["debug", "flight"]) => ("/debug/flight", flight_response()),
        (_, ["metrics", "service"])
        | (_, ["trace", ..])
        | (_, ["slo", ..])
        | (_, ["debug", "flight"]) => method_not_allowed(),
        _ => ("unmatched", error_json(404, "no such endpoint")),
    }
}

/// `GET /trace/recent?limit=N&request_id=...`: newest spans first,
/// `limit` clamped to the ring capacity, optionally filtered to one
/// request id.
fn trace_recent_response(request: &Request) -> Response {
    let tracer = caladrius_obs::tracer();
    let limit = match request.query.get("limit") {
        None => 100,
        Some(v) => match v.parse::<usize>() {
            // An oversized limit cannot return more than the ring holds;
            // clamp instead of letting callers size allocations.
            Ok(n) => n.min(tracer.capacity()),
            Err(_) => return error_json(400, "limit must be a non-negative integer"),
        },
    };
    let request_id = match request.query.get("request_id") {
        None => None,
        Some(raw) => match caladrius_obs::RequestId::parse(raw) {
            Some(id) => Some(id),
            None => return error_json(400, "request_id must be a hex or decimal id"),
        },
    };
    let events = tracer
        .recent_filtered(limit, request_id)
        .into_iter()
        .map(|e| {
            Value::object([
                ("seq", Value::from(e.seq as f64)),
                ("ts_unix_ms", Value::from(e.ts_unix_ms as f64)),
                ("name", Value::from(e.name.clone())),
                ("duration_us", Value::from(e.duration_us as f64)),
                (
                    "request_id",
                    e.request_id
                        .map(|id| Value::from(id.to_string()))
                        .unwrap_or(Value::Null),
                ),
                ("span_id", Value::from(e.span_id as f64)),
                (
                    "parent_span_id",
                    e.parent_span_id
                        .map(|id| Value::from(id as f64))
                        .unwrap_or(Value::Null),
                ),
                ("fields", pairs_to_json(&e.fields)),
            ])
        })
        .collect();
    Response::json(Value::object([("events", Value::Array(events))]).to_json())
}

fn slo_status_to_json(status: &caladrius_obs::SloStatus) -> Value {
    Value::object([
        ("name", Value::from(status.name.clone())),
        ("target", Value::from(status.target)),
        ("state", Value::from(status.state.as_str())),
        ("fast_burn_rate", Value::from(status.fast_burn)),
        ("slow_burn_rate", Value::from(status.slow_burn)),
        (
            "fast_window_seconds",
            Value::from(status.fast_window_secs as f64),
        ),
        (
            "slow_window_seconds",
            Value::from(status.slow_window_secs as f64),
        ),
        ("good", Value::from(status.good as f64)),
        ("bad", Value::from(status.bad as f64)),
    ])
}

/// `GET /slo/status`: evaluates every registered objective (also
/// refreshing the burn-rate gauges and flight-recorder transitions) and
/// reports the multi-window verdicts.
fn slo_status_response() -> Response {
    let statuses = caladrius_obs::evaluate_slos();
    let mut fields = slo_state_counts(&statuses);
    fields.push((
        "objectives",
        Value::Array(statuses.iter().map(slo_status_to_json).collect()),
    ));
    Response::json(Value::object(fields).to_json())
}

/// `firing` and `warning`: how many of `statuses` are in each state.
pub(crate) fn slo_state_counts(
    statuses: &[caladrius_obs::SloStatus],
) -> Vec<(&'static str, Value)> {
    let count = |state: caladrius_obs::SloState| {
        Value::from(statuses.iter().filter(|s| s.state == state).count() as f64)
    };
    vec![
        ("firing", count(caladrius_obs::SloState::Firing)),
        ("warning", count(caladrius_obs::SloState::Warning)),
    ]
}

/// Span fields and sample labels as a JSON object.
fn pairs_to_json(pairs: &[(String, String)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.clone())))
            .collect(),
    )
}

/// `GET /debug/flight`: dumps the flight recorder's retained snapshots,
/// SLO transitions and shed decisions. Takes a snapshot first when due
/// (or when none exists yet) so the dump is never empty.
fn flight_response() -> Response {
    let flight = caladrius_obs::global_flight();
    let registry = caladrius_obs::global_registry();
    if !flight.maybe_snapshot(registry) && flight.snapshot_count() == 0 {
        flight.force_snapshot(registry);
    }
    let snapshots = flight
        .snapshots()
        .into_iter()
        .map(|s| {
            Value::object([
                ("ts_unix_ms", Value::from(s.ts_unix_ms as f64)),
                ("uptime_secs", Value::from(s.uptime_secs as f64)),
                (
                    "samples",
                    Value::Array(
                        s.samples
                            .iter()
                            .map(|sample| {
                                Value::object([
                                    ("name", Value::from(sample.name.clone())),
                                    ("labels", pairs_to_json(&sample.labels)),
                                    ("value", Value::from(sample.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let transitions = flight
        .transitions()
        .into_iter()
        .map(|t| {
            Value::object([
                ("ts_unix_ms", Value::from(t.ts_unix_ms as f64)),
                ("objective", Value::from(t.objective.clone())),
                ("from", Value::from(t.from.as_str())),
                ("to", Value::from(t.to.as_str())),
                ("fast_burn_rate", Value::from(t.fast_burn)),
                ("slow_burn_rate", Value::from(t.slow_burn)),
            ])
        })
        .collect();
    let sheds = flight
        .sheds()
        .into_iter()
        .map(|s| {
            Value::object([
                ("ts_unix_ms", Value::from(s.ts_unix_ms as f64)),
                ("route", Value::from(s.route.clone())),
                ("priority", Value::from(s.priority.clone())),
                ("reason", Value::from(s.reason.clone())),
            ])
        })
        .collect();
    let body = Value::object([
        ("snapshots", Value::Array(snapshots)),
        ("slo_transitions", Value::Array(transitions)),
        ("sheds", Value::Array(sheds)),
    ]);
    Response::json(body.to_json())
}

/// Observed **recent** p99 latency of a route, read from the same
/// per-route windowed histogram [`FrontDoor::handle`] records into.
/// `None` until the route has served a request inside the sliding
/// window, so shedding reacts to the last couple of minutes — a
/// long-past burst can no longer pin admission shut.
fn route_p99(route: &str) -> Option<f64> {
    let snapshot = caladrius_obs::global_registry()
        .windowed_histogram(DURATION_METRIC, &[("route", route)])
        .windowed_snapshot();
    (snapshot.count > 0).then(|| snapshot.quantile(0.99))
}

/// `429 Too Many Requests` with a `Retry-After` hint — both load
/// shedding and per-topology fairness caps surface this shape.
fn too_many_requests(error: impl Into<String>, retry_after_seconds: u32) -> Response {
    error_json(429, error).with_header("Retry-After", retry_after_seconds.to_string())
}

/// Feeds the per-route SLO objective: a request is good when it neither
/// failed server-side nor blew the route's latency SLO.
fn record_route_slo(route: &str, status: u16, elapsed_secs: f64, latency_slo: f64) {
    caladrius_obs::global_slos()
        .objective(
            &format!("route:{route}"),
            caladrius_obs::SloConfig::default(),
        )
        .record(status < 500 && elapsed_secs <= latency_slo);
}
