//! End-to-end benchmark of the Caladrius service over real HTTP.
//!
//! One command runs one workload against the real `HttpServer` +
//! `ApiService` / `FleetService` on loopback and prints every metric by
//! name with its unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload topology-minute --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `--workload` — `topology-minute`, `fleet-rounds` or `whatif-sweep`.
//! * `--seed` — every generated input (traffic profile, drift sets,
//!   what-if proposals) derives from it; the service sees only the
//!   generated inputs.
//! * `--seconds` — length of the measured phase.
//! * `--trace 0|1` — `0` measures the end-to-end metrics untraced; `1`
//!   runs an untraced phase, then a traced one that times each layer's
//!   public functions and reads the program's spans and counters, and
//!   reports the per-layer metrics.
//! * `--scale full|smoke` — `smoke` shrinks every input for the
//!   package's own smoke test.
//!
//! Earlier stdout lines are a human-readable report plus one `report`
//! JSON line (host facts, every workload-specific metric); the last
//! line is the result object `{correct, attempted, failed, metrics}`.
//! Any failed correctness check exits non-zero without the report and
//! result lines.

mod client;
mod fleet_rounds;
mod layers;
mod stats;
mod topology_minute;
mod trace;
mod whatif_sweep;

use caladrius_api::json::Value;
use caladrius_workload::traffic::DiurnalTraffic;
use caladrius_workload::wordcount::{wordcount_topology_with, WordCountParallelism};
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::SimMetrics;
use heron_sim::topology::Topology;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the published numbers use.
    Full,
    /// Tiny inputs for the smoke test.
    Smoke,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted / failed in the measured phase(s).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any entry fails the run.
    pub violations: Vec<String>,
    /// The contract metrics of `BENCHMARK.json` `end_to_end`.
    pub e2e: Vec<Metric>,
    /// Every workload-specific end-to-end metric, by its own name.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: layers::Layers,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn report(&mut self, name: &str, unit: &'static str, value: f64) {
        self.report.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale must be full or smoke".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Commit of the checkout the benchmark was built from; `unknown`
/// outside a git checkout or without git.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |commit| commit.trim().to_string())
}

/// Host facts recorded with every result, so numbers from different
/// hosts, thread counts, commits or build profiles are never compared
/// silently.
fn host_facts() -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", Value::from(nproc as f64)),
        (
            "configured_threads",
            Value::from(caladrius_exec::configured_threads() as f64),
        ),
        ("git_commit", Value::from(git_commit())),
        (
            "build_profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ]
}

/// Builds a workload's set-up `reps` times, dropping each one (and
/// stopping its server) before the next, and returns the last one with
/// the fastest set-up time in seconds. Interference from the rest of
/// the host only ever adds time, so the minimum is the steadiest
/// measure of the set-up's own cost. Workloads call it again after the
/// measured phase, so a slow spell of the host has to last the whole
/// run to show in `setup_s`.
pub fn set_up<E>(
    reps: usize,
    mut build: impl FnMut() -> Result<E, String>,
) -> Result<(E, f64), String> {
    let mut fastest = f64::INFINITY;
    let mut env = None;
    for _ in 0..reps.max(1) {
        drop(env.take());
        let started = std::time::Instant::now();
        env = Some(build()?);
        fastest = fastest.min(started.elapsed().as_secs_f64());
    }
    Ok((env.expect("at least one set-up"), fastest))
}

/// Worker threads for the HTTP server, job runner and client pool:
/// never more than the host's cores, so the load generator and the
/// service share one process without oversubscribing it.
pub fn workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    caladrius_exec::configured_threads().clamp(1, nproc)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::object([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "topology-minute" => topology_minute::run(&args),
        "fleet-rounds" => fleet_rounds::run(&args),
        "whatif-sweep" => whatif_sweep::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\n{} (seed {}, {} s):",
        args.workload, args.seed, args.seconds
    );
    for m in outcome.report.iter().chain(&outcome.e2e) {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        outcome.layers.print();
    }
    if !outcome.violations.is_empty() {
        for v in outcome.violations.iter().take(10) {
            eprintln!("perfbench: correctness check failed: {v}");
        }
        eprintln!(
            "perfbench: {} correctness check(s) failed",
            outcome.violations.len()
        );
        return ExitCode::FAILURE;
    }
    let mut report = host_facts();
    report.push(("workload", Value::from(args.workload.as_str())));
    report.push(("seed", Value::from(args.seed as f64)));
    report.push(("metrics", metrics_json(&outcome.report)));
    if args.trace {
        report.push(("not_exercised", outcome.layers.not_exercised_json()));
    }
    println!("report {}", Value::object(report).to_json());
    let metrics = if args.trace {
        outcome.layers.metrics()
    } else {
        outcome.e2e.clone()
    };
    let result = Value::object([
        ("correct", Value::from(true)),
        ("attempted", Value::from(outcome.attempted as f64)),
        ("failed", Value::from(outcome.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Simulates `minutes` of a WordCount topology (8 spouts, 2 Splitters,
/// 3 Counters) into `metrics` and returns the topology. Its source
/// follows a diurnal day around 14 M sentences/min whose peaks come
/// close to the deployed Splitter's knee (≈ 22 M/min at p = 2), so a
/// planner scales the Splitter up and down through the day. `seed`
/// varies the level, the amplitude and the simulator's metric noise.
pub fn diurnal_wordcount(
    seed: u64,
    phase_secs: u64,
    minutes: u64,
    metrics: &SimMetrics,
) -> Result<Topology, String> {
    let mut rng = Rng::new(seed ^ 0x6469_7572);
    let traffic = DiurnalTraffic {
        base_rate: (13.5e6 + 1.0e6 * rng.unit()) / 60.0,
        amplitude: 0.38 + 0.04 * rng.unit(),
        period_secs: 86_400,
        phase_secs,
        knots_per_period: 24,
    };
    let topology = wordcount_topology_with(
        WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        },
        traffic.to_profile(minutes * 60),
        None,
    );
    Simulation::new(
        topology.clone(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
    .map_err(|e| e.to_string())?
    .run_minutes_into(minutes, metrics);
    Ok(topology)
}

/// Seeded splitmix64: every generated input derives from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}
