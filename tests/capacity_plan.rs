//! Capacity-planner acceptance: per-component minimality of the joint
//! search (property-based) and sim-replay validation of full plans on
//! the WordCount chain and the fan-out/fan-in diamond.

use caladrius::core::capacity::{CapacityPlanRequest, ModelOracle};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::planner::{
    plan_horizon, plan_window, replay_timeline, Assessment, CapacityOracle, PlanError,
    PlannerConfig, ReplayConfig, ResourceLimits, WindowReplay, WindowSpec,
};
use caladrius::sim::prelude::*;
use caladrius::workload::diamond::{diamond_topology, DiamondParallelism};
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Minimality property
// ---------------------------------------------------------------------

/// Closed-form capacity model with the monotone structure the planner
/// contract requires: component `i` sees `ratio_i * rate` input served
/// at `service_i` tuples/min per instance.
struct SynthOracle {
    /// (name, ratio, per-instance service rate, cpu base, cpu per tuple)
    comps: Vec<(String, f64, f64, f64, f64)>,
}

impl CapacityOracle for SynthOracle {
    fn components(&self) -> Vec<String> {
        self.comps.iter().map(|(n, ..)| n.clone()).collect()
    }

    fn assess(&self, parallelisms: &[(String, u32)], rate: f64) -> Result<Assessment, PlanError> {
        let mut saturation = f64::INFINITY;
        let mut bottleneck = None;
        let mut cpu = Vec::with_capacity(self.comps.len());
        for (name, ratio, service, base, per_tuple) in &self.comps {
            let p = parallelisms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| *p)
                .unwrap_or(1);
            let sat = service * f64::from(p) / ratio;
            if sat < saturation {
                saturation = sat;
                bottleneck = Some(name.clone());
            }
            cpu.push((name.clone(), base + per_tuple * ratio * rate / f64::from(p)));
        }
        Ok(Assessment {
            feasible: rate < saturation * 0.95,
            bottleneck,
            saturation_rate: saturation,
            cpu_per_instance: cpu,
        })
    }
}

fn accepts(oracle: &SynthOracle, ps: &[(String, u32)], rate: f64, budget: f64) -> bool {
    let a = oracle.assess(ps, rate).expect("synthetic oracle is total");
    a.feasible && a.cpu_per_instance.iter().all(|(_, c)| *c <= budget + 1e-9)
}

proptest! {
    /// Decrementing ANY component of a returned plan makes the window
    /// infeasible (or blows the CPU budget): the plan is per-component
    /// minimal, the property the single in-order trim pass guarantees.
    #[test]
    fn plan_window_is_per_component_minimal(
        comps in prop::collection::vec(
            (0.5f64..4.0, 1.0e6f64..20.0e6, 0.0f64..0.2, 0.0f64..1.0e-8),
            2..5,
        ),
        rate in 1.0e6f64..60.0e6,
    ) {
        let oracle = SynthOracle {
            comps: comps
                .iter()
                .enumerate()
                .map(|(i, (ratio, service, base, per_tuple))| {
                    (format!("bolt{i}"), *ratio, *service, *base, *per_tuple)
                })
                .collect(),
        };
        let config = PlannerConfig {
            limits: ResourceLimits {
                max_parallelism: 64,
                ..ResourceLimits::default()
            },
            ..PlannerConfig::default()
        };
        let budget = config.limits.cores_per_instance * config.cpu_utilization_cap;
        match plan_window(&oracle, rate, &config) {
            Ok(solution) => {
                prop_assert!(
                    accepts(&oracle, &solution.parallelisms, rate, budget),
                    "returned plan {:?} is not itself acceptable at {rate:.3e}",
                    solution.parallelisms
                );
                for i in 0..solution.parallelisms.len() {
                    if solution.parallelisms[i].1 == 1 {
                        continue;
                    }
                    let mut decremented = solution.parallelisms.clone();
                    decremented[i].1 -= 1;
                    prop_assert!(
                        !accepts(&oracle, &decremented, rate, budget),
                        "plan {:?} is not minimal: {:?} still acceptable at {rate:.3e}",
                        solution.parallelisms,
                        decremented
                    );
                }
            }
            // The random rate can exceed what max_parallelism sustains.
            Err(PlanError::Infeasible { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected planner error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Sim-replay acceptance: WordCount
// ---------------------------------------------------------------------

const WORDCOUNT_PARALLELISM: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 2,
    counter: 3,
};

/// Sweeps the topology through linear and saturated regimes so the
/// fitted models know both slopes and knees.
fn sweep<F: Fn(f64) -> caladrius::sim::topology::Topology>(
    name: &str,
    rates: &[f64],
    build: F,
) -> caladrius::sim::metrics::SimMetrics {
    let metrics = caladrius::sim::metrics::SimMetrics::new(name);
    for (leg, rate) in rates.iter().enumerate() {
        let mut sim = Simulation::new(
            build(*rate),
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(leg as u64 * 100);
        sim.warmup_minutes(30);
        sim.run_minutes_into(10, &metrics);
    }
    metrics
}

#[test]
fn wordcount_plan_replays_low_risk_in_every_window() {
    let metrics = sweep(
        "wordcount",
        &[4.0e6, 8.0e6, 12.0e6, 16.0e6, 20.0e6, 26.0e6],
        |rate| wordcount_topology(WORDCOUNT_PARALLELISM, rate),
    );
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(wordcount_topology(WORDCOUNT_PARALLELISM, 20.0e6))),
    );

    let timeline = caladrius
        .plan_capacity("wordcount", &CapacityPlanRequest::default())
        .unwrap();
    assert!(!timeline.windows.is_empty());

    let replays = replay_timeline(
        &wordcount_topology(WORDCOUNT_PARALLELISM, 20.0e6),
        &timeline,
        &ReplayConfig {
            warmup_minutes: 15,
            measure_minutes: 5,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(replays.len(), timeline.windows.len());
    for replay in &replays {
        assert!(
            replay.low_risk,
            "window {} backpressured in replay: {replay:?}",
            replay.window
        );
        assert!(replay.sink_rate > 0.0);
        assert_closed_form(replay);
    }

    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 1);
    assert!(stats.plan_evals > 0);
}

// ---------------------------------------------------------------------
// Sim-replay acceptance: diamond (fan-out/fan-in)
// ---------------------------------------------------------------------

#[test]
fn diamond_plan_scales_branches_and_replays_low_risk() {
    let parallelism = DiamondParallelism::default();
    let metrics = sweep(
        "diamond",
        &[8.0e6, 16.0e6, 24.0e6, 28.0e6, 36.0e6],
        |rate| diamond_topology(parallelism, rate),
    );
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(diamond_topology(parallelism, 8.0e6))),
    );
    let model = caladrius.fit_topology_model("diamond").unwrap();
    let cpu_models = caladrius.fit_cpu_models("diamond").unwrap();
    let oracle = ModelOracle::new(
        Arc::new(model),
        Arc::new(cpu_models),
        vec![
            "enrich".into(),
            "geo".into(),
            "device".into(),
            "aggregator".into(),
        ],
    );

    // A quiet window, a peak past the default branch knee (2 x 15 M/min
    // per branch = 30 M/min), and a dip back down.
    let windows: Vec<WindowSpec> = [20.0e6, 34.0e6, 12.0e6]
        .iter()
        .enumerate()
        .map(|(i, rate)| WindowSpec {
            start_ts: i as i64 * 900_000,
            end_ts: (i as i64 + 1) * 900_000,
            peak_rate: *rate,
        })
        .collect();
    let initial = vec![
        ("enrich".to_string(), parallelism.enrich),
        ("geo".to_string(), parallelism.geo),
        ("device".to_string(), parallelism.device),
        ("aggregator".to_string(), parallelism.aggregator),
    ];
    let config = PlannerConfig {
        hysteresis_windows: 1,
        ..PlannerConfig::default()
    };
    let timeline = plan_horizon(&oracle, &initial, &windows, &config).unwrap();

    // The 34 M/min window must scale both enricher branches past the
    // knee of the deployed configuration.
    let peak_window = &timeline.windows[1];
    for branch in ["geo", "device"] {
        let p = peak_window
            .parallelisms
            .iter()
            .find(|(n, _)| n == branch)
            .map(|(_, p)| *p)
            .unwrap();
        assert!(
            p >= 3,
            "peak window must scale {branch} beyond the 30 M/min knee, got p={p}"
        );
    }

    let replays = replay_timeline(
        &diamond_topology(parallelism, 8.0e6),
        &timeline,
        &ReplayConfig {
            warmup_minutes: 15,
            measure_minutes: 5,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    for replay in &replays {
        assert!(
            replay.low_risk,
            "window {} backpressured in replay: {replay:?}",
            replay.window
        );
        assert_closed_form(replay);
    }
}

// ---------------------------------------------------------------------
// Replay never needs the exact-tick fallback
// ---------------------------------------------------------------------

/// Replay always runs event mode; a window with no closed-form ticks
/// would mean it fell back to exact ticking for the whole run.
fn assert_closed_form(replay: &WindowReplay) {
    assert!(
        replay.closed_form_ticks > 0,
        "window {} never advanced in closed form: {replay:?}",
        replay.window
    );
}

/// Every bolt at the planner's largest parallelism, spouts as given.
fn at_max_parallelism(mut topology: Topology) -> Topology {
    let max = ResourceLimits::default().max_parallelism;
    for component in &mut topology.components {
        if !component.kind.is_spout() {
            component.parallelism = max;
        }
    }
    topology
}

#[test]
fn event_mode_engages_at_the_largest_planned_parallelism() {
    // Closed-form ticks are only possible once the fluid model built
    // (at most 64 flow terms per instance), so even the widest plan the
    // planner may emit replays on the event scheduler, not exact ticks.
    for topology in [
        wordcount_topology(WORDCOUNT_PARALLELISM, 8.0e6),
        diamond_topology(DiamondParallelism::default(), 12.0e6),
    ] {
        let topology = at_max_parallelism(topology);
        let name = topology.name.clone();
        let mut sim = Simulation::new(
            topology,
            SimConfig {
                event_mode: true,
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run_minutes(3);
        assert!(
            sim.ticks_closed_form() > 0,
            "{name} at max parallelism fell back to exact ticks"
        );
    }
}
