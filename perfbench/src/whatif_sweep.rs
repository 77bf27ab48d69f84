//! `whatif-sweep`: read-only what-if queries on unchanged data, two
//! clients, closed loop.
//!
//! Each client cycles through one seeded list of proposals: three
//! in four are `POST /model/topology/heron/wordcount` at a fixed source
//! rate with varied Splitter/Counter parallelism (some deliberately
//! high-risk), the rest `GET /model/packing/heron/wordcount`. The models
//! are always cache hits and nothing is forecast or searched, so the
//! HTTP edge, JSON, `core.service` prediction and `graph` do the work.

use crate::client::{self, Call};
use crate::layers::Layers;
use crate::stats::Samples;
use crate::trace::{ratio, Drain, RouteTimer, SpanTally};
use crate::{Args, Outcome, Rng, Scale};
use caladrius_api::json::Value;
use caladrius_api::{ApiService, HttpClient, HttpServer};
use caladrius_core::providers::{SimMetricsProvider, StaticTracker};
use caladrius_core::service::{EvaluationReport, PackingOverview, SourceRateSpec};
use caladrius_core::Caladrius;
use heron_sim::metrics::SimMetrics;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const TOPOLOGY: &str = "wordcount";
const EVALUATE_ROUTE: &str = "/model/topology/heron/wordcount";
/// The what-if source rate, sentences/min: above the deployed
/// Splitter's knee, so low Splitter parallelisms are high-risk.
const SOURCE_RATE: f64 = 24.0e6;

struct Sizes {
    history_minutes: u64,
    proposals: usize,
    /// Set-ups before and after the measured phase.
    setup_reps: (usize, usize),
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            history_minutes: 1440,
            proposals: 64,
            setup_reps: (5, 4),
        },
        Scale::Smoke => Sizes {
            history_minutes: 240,
            proposals: 8,
            setup_reps: (1, 1),
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Evaluate,
    Packing,
}

/// One proposal with the answer the in-process service gives for it.
struct Proposal {
    kind: Kind,
    parallelism: HashMap<String, u32>,
    containers: usize,
    /// HTTP method target and body.
    target: String,
    body: String,
    expected: Value,
}

/// Exactly three in four proposals are evaluations, in a seeded order.
fn proposals(rng: &mut Rng, n: usize) -> Vec<Proposal> {
    let mut list: Vec<Proposal> = (0..n)
        .map(|i| {
            let splitter = 1 + rng.below(6) as u32;
            let counter = 1 + rng.below(6) as u32;
            let parallelism = HashMap::from([
                ("splitter".to_string(), splitter),
                ("counter".to_string(), counter),
            ]);
            if i % 4 == 3 {
                let containers = 1 + rng.below(6) as usize;
                Proposal {
                    kind: Kind::Packing,
                    target: format!(
                        "/model/packing/heron/wordcount?containers={containers}&parallelism=splitter:{splitter},counter:{counter}"
                    ),
                    body: String::new(),
                    parallelism,
                    containers,
                    expected: Value::Null,
                }
            } else {
                Proposal {
                    kind: Kind::Evaluate,
                    target: EVALUATE_ROUTE.to_string(),
                    body: format!(
                        "{{\"source_rate\": {SOURCE_RATE}, \"parallelism\": {{\"splitter\": {splitter}, \"counter\": {counter}}}}}"
                    ),
                    parallelism,
                    containers: 0,
                    expected: Value::Null,
                }
            }
        })
        .collect();
    for i in (1..list.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        list.swap(i, j);
    }
    list
}

/// The fields of an evaluation both sides must agree on, from the
/// in-process report.
fn evaluation_view(report: &EvaluationReport) -> Value {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::from);
    Value::object([
        ("source_rate", Value::from(report.source_rate)),
        (
            "sink_output_rate",
            Value::from(report.prediction.sink_output_rate),
        ),
        (
            "bottleneck",
            report
                .prediction
                .bottleneck
                .clone()
                .map_or(Value::Null, Value::from),
        ),
        (
            "backpressure_risk",
            Value::from(format!("{:?}", report.risk).to_lowercase()),
        ),
        ("saturation_rate", opt(report.saturation_rate)),
        (
            "cpu_by_component",
            Value::Object(
                report
                    .cpu_by_component
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            ),
        ),
        (
            "components",
            Value::Array(
                report
                    .prediction
                    .per_component
                    .iter()
                    .map(|c| {
                        Value::object([
                            ("name", Value::from(c.name.clone())),
                            ("parallelism", Value::from(c.parallelism)),
                            ("input_rate", Value::from(c.input_rate)),
                            ("output_rate", Value::from(c.output_rate)),
                            ("saturated", Value::from(c.saturated)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The same fields read back from the route's JSON.
fn evaluation_view_json(v: &Value) -> Value {
    let pick = |v: &Value, keys: &[&'static str]| {
        Value::object(
            keys.iter()
                .map(|k| (*k, v.get(k).cloned().unwrap_or(Value::Null))),
        )
    };
    let mut view = pick(
        v,
        &[
            "source_rate",
            "sink_output_rate",
            "bottleneck",
            "backpressure_risk",
            "saturation_rate",
            "cpu_by_component",
        ],
    );
    let components = v
        .get("components")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|c| {
            pick(
                c,
                &[
                    "name",
                    "parallelism",
                    "input_rate",
                    "output_rate",
                    "saturated",
                ],
            )
        })
        .collect();
    if let Value::Object(map) = &mut view {
        map.insert("components".into(), Value::Array(components));
    }
    view
}

fn packing_view(o: &PackingOverview) -> Value {
    Value::object([
        ("containers", Value::from(o.containers)),
        ("total_instances", Value::from(o.total_instances)),
        (
            "max_instances_per_container",
            Value::from(o.max_instances_per_container),
        ),
        ("balance_stddev", Value::from(o.balance_stddev)),
        ("remote_pair_fraction", Value::from(o.remote_pair_fraction)),
        ("instance_paths", Value::from(o.instance_paths as f64)),
    ])
}

fn packing_view_json(v: &Value) -> Value {
    Value::object(
        [
            "containers",
            "total_instances",
            "max_instances_per_container",
            "balance_stddev",
            "remote_pair_fraction",
            "instance_paths",
        ]
        .map(|k| (k, v.get(k).cloned().unwrap_or(Value::Null))),
    )
}

/// Everything one set-up builds; the server stops when it drops.
struct Env {
    service: Arc<Caladrius>,
    proposals: Vec<Proposal>,
    addr: std::net::SocketAddr,
    _server: HttpServer,
}

fn setup(args: &Args, sizes: &Sizes) -> Result<Env, String> {
    // One seeded diurnal day of WordCount history to fit the models on.
    let mut rng = Rng::new(args.seed);
    let live = SimMetrics::new(TOPOLOGY);
    let topology =
        crate::diurnal_wordcount(args.seed, rng.below(86_400), sizes.history_minutes, &live)?;
    let service = Arc::new(Caladrius::new(
        Arc::new(SimMetricsProvider::new(live)),
        Arc::new(StaticTracker::new().with(topology)),
    ));
    let mut proposals = proposals(&mut rng, sizes.proposals);
    for p in &mut proposals {
        p.expected = match p.kind {
            Kind::Evaluate => evaluation_view(
                &service
                    .evaluate(
                        TOPOLOGY,
                        &p.parallelism,
                        &SourceRateSpec::Fixed(SOURCE_RATE),
                    )
                    .map_err(|e| format!("in-process evaluate: {e}"))?,
            ),
            Kind::Packing => packing_view(
                &service
                    .packing_overview(TOPOLOGY, &p.parallelism, p.containers)
                    .map_err(|e| format!("in-process packing: {e}"))?,
            ),
        };
    }
    let api = ApiService::new(Arc::clone(&service), crate::workers());
    let server = HttpServer::serve("127.0.0.1:0", crate::workers(), api.handler())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    Ok(Env {
        service,
        proposals,
        addr: server.local_addr(),
        _server: server,
    })
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    rtt_ms: Samples,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// Traced phase only, per kind (evaluate, packing).
    kind_rtt: [Samples; 2],
    kind_bytes: [Samples; 2],
    evaluate_ms: Samples,
    packing_ms: Samples,
}

/// Spans shared by both clients in the traced phase.
struct SharedTrace {
    drain: Drain,
    spans: SpanTally,
}

fn query(client: &HttpClient, p: &Proposal) -> Result<Call, String> {
    match p.kind {
        Kind::Evaluate => client::post(client, &p.target, &p.body),
        Kind::Packing => client::get(client, &p.target),
    }
}

fn run_client(
    env: &Env,
    start: usize,
    deadline: Instant,
    trace: Option<&Mutex<SharedTrace>>,
) -> ClientLog {
    let client = HttpClient::new(env.addr);
    let mut log = ClientLog::default();
    let n = env.proposals.len();
    let mut i = start;
    while Instant::now() < deadline {
        let p = &env.proposals[i % n];
        i += 1;
        log.attempted += 1;
        let call = match query(&client, p) {
            Ok(call) if call.status == 200 => call,
            Ok(call) => {
                eprintln!(
                    "perfbench: {} status {}: {}",
                    p.target, call.status, call.body
                );
                log.failed += 1;
                continue;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                log.failed += 1;
                continue;
            }
        };
        log.rtt_ms.push(call.rtt_ms);
        let served = client::parse(&call.body).map(|v| match p.kind {
            Kind::Evaluate => evaluation_view_json(&v),
            Kind::Packing => packing_view_json(&v),
        });
        if served.as_ref() != Ok(&p.expected) {
            log.violations.push(format!(
                "{} {}: served {:?}, in-process {}",
                p.target,
                p.body,
                served.map(|v| v.to_json()),
                p.expected.to_json()
            ));
        }
        if let Some(shared) = trace {
            let k = p.kind as usize;
            log.kind_rtt[k].push(call.rtt_ms);
            log.kind_bytes[k].push(call.body.len() as f64);
            {
                let mut shared = shared.lock().expect("trace lock poisoned");
                let events = shared.drain.take();
                // The in-process probes below run without a request id;
                // only the service's own spans carry one.
                let served: Vec<_> = events
                    .into_iter()
                    .filter(|e| e.request_id.is_some())
                    .collect();
                shared.spans.add(&served);
            }
            let started = Instant::now();
            let ok = match p.kind {
                Kind::Evaluate => env
                    .service
                    .evaluate(
                        TOPOLOGY,
                        &p.parallelism,
                        &SourceRateSpec::Fixed(SOURCE_RATE),
                    )
                    .is_ok(),
                Kind::Packing => env
                    .service
                    .packing_overview(TOPOLOGY, &p.parallelism, p.containers)
                    .is_ok(),
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match p.kind {
                Kind::Evaluate => log.evaluate_ms.push(ms),
                Kind::Packing => log.packing_ms.push(ms),
            }
            if !ok {
                log.violations
                    .push(format!("in-process probe of {} failed", p.target));
            }
        }
    }
    log
}

/// Runs the clients until `seconds` pass; returns their logs and the
/// wall time from start to the last client's end.
fn run_phase(env: &Env, seconds: f64, trace: Option<&Mutex<SharedTrace>>) -> (Vec<ClientLog>, f64) {
    let clients = crate::workers();
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let start = c * env.proposals.len() / clients;
                scope.spawn(move || run_client(env, start, deadline, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, started.elapsed().as_secs_f64())
}

fn merge(logs: &[ClientLog], pick: impl Fn(&ClientLog) -> &Samples) -> Samples {
    let mut all = Samples::default();
    for log in logs {
        for v in pick(log).values() {
            all.push(*v);
        }
    }
    all
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizes = sizes(args.scale);
    let (env, mut setup_s) = crate::set_up(sizes.setup_reps.0, || setup(args, &sizes))?;
    let mut out = Outcome::default();

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (logs, elapsed) = run_phase(&env, untraced_secs, None);
    let rtt = merge(&logs, |l| &l.rtt_ms);
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.violations.extend(log.violations.iter().cloned());
    }
    let completed = rtt.len() as f64;

    if args.trace {
        let routes = [EVALUATE_ROUTE_PATTERN, PACKING_ROUTE_PATTERN].map(RouteTimer::start);
        let stats_before = env.service.model_cache_stats();
        let shared = Mutex::new(SharedTrace {
            drain: Drain::new(),
            spans: SpanTally::default(),
        });
        let (tlogs, _) = run_phase(&env, args.seconds / 2.0, Some(&shared));
        for log in &tlogs {
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.violations.extend(log.violations.iter().cloned());
        }
        let shared = shared.into_inner().expect("trace lock poisoned");
        let trtt = merge(&tlogs, |l| &l.rtt_ms);
        let mut layers = Layers::default();
        let handler = routes.map(|r| r.mean_ms());
        let names = [
            ("evaluate", EVALUATE_ROUTE_PATTERN),
            ("packing", PACKING_ROUTE_PATTERN),
        ];
        let mut handler_total = 0.0;
        for (k, (name, _)) in names.iter().enumerate() {
            let kind_rtt = merge(&tlogs, |l| &l.kind_rtt[k]);
            layers.set(&format!("api.http.rtt_ms.{name}"), kind_rtt.mean());
            layers.set(&format!("api.http.handler_ms.{name}"), handler[k]);
            layers.set(
                &format!("api.json.response_bytes.{name}"),
                merge(&tlogs, |l| &l.kind_bytes[k]).mean(),
            );
            handler_total += handler[k] * kind_rtt.len() as f64;
        }
        layers.set(
            "api.http.edge_wait_ms",
            (trtt.sum() - handler_total) / trtt.len().max(1) as f64,
        );
        layers.set("api.http.requests_per_op", 1.0);
        layers.set(
            "core.service.evaluate_ms",
            merge(&tlogs, |l| &l.evaluate_ms).median(),
        );
        layers.set(
            "graph.packing_ms",
            merge(&tlogs, |l| &l.packing_ms).median(),
        );
        let stats = env.service.model_cache_stats();
        let hits = stats.hits - stats_before.hits;
        let misses = stats.misses - stats_before.misses;
        layers.set(
            "core.service.model_cache_hit_ratio",
            ratio(hits, hits + misses),
        );
        shared
            .spans
            .report(&mut layers, trtt.len(), trtt.sum(), shared.drain.lost);
        if rtt.median() > 0.0 {
            layers.set(
                "trace.overhead_pct",
                (trtt.median() / rtt.median() - 1.0) * 100.0,
            );
        }
        out.layers = layers;
    }

    out.check(completed > 0.0, || "no query completed".into());
    setup_s = setup_s.min(crate::set_up(sizes.setup_reps.1, || setup(args, &sizes))?.1);
    out.report("setup_s", "s", setup_s);
    out.report(
        "failed_share",
        "ratio",
        ratio(out.failed, out.attempted.max(1)),
    );
    out.report("queries", "count", completed);
    out.report("whatif_rps", "1/s", completed / elapsed);
    out.report("whatif_ms_p50", "ms", rtt.median());
    out.report("whatif_ms_p90", "ms", rtt.quantile(0.9));

    out.e2e("op_ms_p50", "ms", rtt.median());
    out.e2e("op_ms_p90", "ms", rtt.quantile(0.9));
    out.e2e("ops_per_s", "1/s", completed / elapsed);
    out.e2e("setup_s", "s", setup_s);
    Ok(out)
}

const EVALUATE_ROUTE_PATTERN: &str = "/model/topology/heron/{topology}";
const PACKING_ROUTE_PATTERN: &str = "/model/packing/heron/{topology}";
