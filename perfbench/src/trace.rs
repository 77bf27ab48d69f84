//! Reading what the program already records: the global tracer ring
//! (spans) and the global metrics registry (counters, histograms,
//! gauges). Nothing here adds instrumentation to the program.

use crate::layers::{Layers, SPANS};
use caladrius_obs::{BucketCount, HistogramSnapshot, RequestId, SpanEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Incremental reader of the tracer ring. The ring keeps only the
/// newest 2048 events, so callers drain it after every operation;
/// events overwritten before a drain are counted in `lost`.
#[derive(Debug)]
pub struct Drain {
    last_seq: Option<u64>,
    pub lost: u64,
}

impl Drain {
    /// Starts after every event recorded so far.
    pub fn new() -> Self {
        let mut drain = Drain {
            last_seq: None,
            lost: 0,
        };
        drain.skip();
        drain
    }

    /// Forgets every event recorded so far, counting none as lost.
    pub fn skip(&mut self) {
        self.last_seq = caladrius_obs::tracer().total_recorded().checked_sub(1);
    }

    /// Events recorded since the previous call, oldest first.
    pub fn take(&mut self) -> Vec<SpanEvent> {
        let ring = caladrius_obs::tracer();
        let next = self.last_seq.map_or(0, |s| s + 1);
        let fresh = ring.total_recorded().saturating_sub(next) as usize;
        if fresh == 0 {
            return Vec::new();
        }
        // A little slack covers events recorded between the two reads.
        let limit = (fresh + 64).min(ring.capacity());
        let mut events: Vec<SpanEvent> = ring
            .recent(limit)
            .into_iter()
            .filter(|e| e.seq >= next)
            .collect();
        events.reverse();
        if let Some(first) = events.first() {
            self.lost += first.seq - next;
        }
        if let Some(last) = events.last() {
            self.last_seq = Some(last.seq);
        }
        events
    }
}

/// Self time of each event: its duration minus the time its children
/// (events naming it as parent) cover. Children are only known by
/// duration, not start time, so their cover is approximated as their
/// summed duration capped at the parent's.
///
/// A child that outlives its parent runs detached: it is the body of a
/// job whose request handler returned at once. The job runner opens
/// each `api.job` span before the body re-installs the submitting
/// request's span as parent, so `api.job` is recorded as a root and the
/// body as a child of the finished request. Such a body is counted as
/// a child of its request's `api.job` span instead.
pub fn self_times_us(events: &[SpanEvent]) -> Vec<(&str, u64)> {
    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.span_id, e)).collect();
    let jobs: HashMap<RequestId, &SpanEvent> = events
        .iter()
        .filter(|e| e.name == "api.job")
        .filter_map(|e| Some((e.request_id?, e)))
        .collect();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for e in events {
        let Some(parent) = e.parent_span_id.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        let parent = if e.duration_us <= parent.duration_us {
            Some(parent.span_id)
        } else {
            e.request_id
                .and_then(|r| jobs.get(&r))
                .filter(|job| job.span_id != e.span_id && job.duration_us >= e.duration_us)
                .map(|job| job.span_id)
        };
        if let Some(parent) = parent {
            *covered.entry(parent).or_default() += e.duration_us;
        }
    }
    events
        .iter()
        .map(|e| {
            let cover = covered.get(&e.span_id).copied().unwrap_or(0);
            (e.name.as_str(), e.duration_us.saturating_sub(cover))
        })
        .collect()
}

/// Self time per span name accumulated over many operations.
#[derive(Debug, Default)]
pub struct SpanTally {
    /// Per name: (summed self time, summed duration, events), µs.
    by_name: BTreeMap<String, (u64, u64, u64)>,
}

impl SpanTally {
    pub fn add(&mut self, events: &[SpanEvent]) {
        for (e, (_, self_us)) in events.iter().zip(self_times_us(events)) {
            let entry = self.by_name.entry(e.name.clone()).or_default();
            entry.0 += self_us;
            entry.1 += e.duration_us;
            entry.2 += 1;
        }
    }

    /// Mean duration of the named span, ms; 0 when none was seen.
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some((_, dur, n)) if *n > 0 => *dur as f64 / *n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Total self time of every span, ms.
    pub fn total_self_ms(&self) -> f64 {
        self.by_name.values().map(|v| v.0).sum::<u64>() as f64 / 1e3
    }

    /// Reports `span.<name>.self_ms` as self time per operation and
    /// `trace.coverage` as attributed self time over `wall_ms`, the
    /// operations' summed end-to-end time.
    pub fn report(&self, layers: &mut Layers, ops: usize, wall_ms: f64, lost: u64) {
        let ops = ops.max(1) as f64;
        for name in SPANS {
            if let Some((self_us, _, _)) = self.by_name.get(*name) {
                layers.set(&format!("span.{name}.self_ms"), *self_us as f64 / 1e3 / ops);
            }
        }
        if wall_ms > 0.0 {
            layers.set("trace.coverage", self.total_self_ms() / wall_ms);
        }
        layers.set("trace.lost_spans", lost as f64);
    }
}

/// Difference of a registry histogram between two points in time.
#[derive(Debug, Clone)]
pub struct HistDelta {
    before: HistogramSnapshot,
}

impl HistDelta {
    pub fn start(snapshot: HistogramSnapshot) -> Self {
        HistDelta { before: snapshot }
    }

    /// The non-empty buckets of the values recorded since `start`.
    pub fn buckets_since(&self, after: &HistogramSnapshot) -> Vec<BucketCount> {
        let before: HashMap<u64, u64> = self
            .before
            .buckets
            .iter()
            .map(|b| (b.lower.to_bits(), b.count))
            .collect();
        after
            .buckets
            .iter()
            .map(|b| BucketCount {
                count: b.count - before.get(&b.lower.to_bits()).copied().unwrap_or(0),
                ..*b
            })
            .filter(|b| b.count > 0)
            .collect()
    }

    /// Mean of the values recorded since `start`, in the histogram's own
    /// unit; 0 when none were.
    pub fn mean_since(&self, after: &HistogramSnapshot) -> f64 {
        let count = after.count - self.before.count;
        if count == 0 {
            0.0
        } else {
            (after.sum - self.before.sum) / count as f64
        }
    }
}

/// Mean server-side handling time of a route since a start point, from
/// the existing `caladrius_http_request_duration_seconds{route}`
/// histogram.
#[derive(Debug)]
pub struct RouteTimer {
    route: &'static str,
    delta: HistDelta,
}

impl RouteTimer {
    pub fn start(route: &'static str) -> Self {
        RouteTimer {
            route,
            delta: HistDelta::start(route_histogram(route)),
        }
    }

    /// Mean handler time in ms, 0 when the route served nothing.
    pub fn mean_ms(&self) -> f64 {
        self.delta.mean_since(&route_histogram(self.route)) * 1e3
    }
}

/// Server-side handling time of one route, from the existing
/// `caladrius_http_request_duration_seconds{route}` histogram.
fn route_histogram(route: &str) -> HistogramSnapshot {
    caladrius_obs::global_registry()
        .windowed_histogram(
            "caladrius_http_request_duration_seconds",
            &[("route", route)],
        )
        .snapshot()
}

/// The exec pools whose series are reported.
pub const POOLS: [&str; 3] = ["fit", "planner", "fleet-plan"];

fn exec_tasks(pool: &str) -> u64 {
    caladrius_obs::global_registry()
        .counter("caladrius_exec_tasks_total", &[("pool", pool)])
        .get()
}

fn exec_durations(pool: &str) -> HistogramSnapshot {
    caladrius_obs::global_registry()
        .histogram("caladrius_exec_task_duration_seconds", &[("pool", pool)])
        .snapshot()
}

/// Exec-pool work summed over the service's operations only: the
/// benchmark brackets each operation with [`ExecTotals::begin`] and
/// [`ExecTotals::end`], so its own in-process layer probes, which run
/// on the same process-wide pools, are left out.
#[derive(Debug, Default)]
pub struct ExecTotals {
    open: Vec<(u64, HistDelta)>,
    tasks: [u64; 3],
    /// Per pool: task-duration buckets keyed by their lower bound.
    buckets: [BTreeMap<u64, BucketCount>; 3],
}

impl ExecTotals {
    pub fn begin(&mut self) {
        self.open = POOLS
            .iter()
            .map(|p| (exec_tasks(p), HistDelta::start(exec_durations(p))))
            .collect();
    }

    pub fn end(&mut self) {
        for (i, (pool, (tasks, delta))) in POOLS.iter().zip(self.open.drain(..)).enumerate() {
            self.tasks[i] += exec_tasks(pool) - tasks;
            for bucket in delta.buckets_since(&exec_durations(pool)) {
                self.buckets[i]
                    .entry(bucket.lower.to_bits())
                    .or_insert(BucketCount { count: 0, ..bucket })
                    .count += bucket.count;
            }
        }
    }

    /// Reports `exec.tasks.<pool>` per operation and
    /// `exec.task_ms_p50.<pool>`.
    pub fn report(&self, layers: &mut Layers, ops: usize) {
        for (i, pool) in POOLS.iter().enumerate() {
            layers.set(
                &format!("exec.tasks.{pool}"),
                self.tasks[i] as f64 / ops.max(1) as f64,
            );
            let mut buckets: Vec<BucketCount> = self.buckets[i].values().copied().collect();
            buckets.sort_by(|a, b| a.lower.total_cmp(&b.lower));
            let count: u64 = buckets.iter().map(|b| b.count).sum();
            if count > 0 {
                let snapshot = HistogramSnapshot {
                    count,
                    sum: 0.0,
                    max: buckets.last().map_or(0.0, |b| b.upper),
                    buckets,
                };
                layers.set(
                    &format!("exec.task_ms_p50.{pool}"),
                    snapshot.quantile(0.5) * 1e3,
                );
            }
        }
    }
}

/// Polls the exec pools' queue-depth gauges on a thread of its own for
/// the highest depth seen; [`DepthSampler::finish`] stops and joins it.
#[derive(Debug)]
pub struct DepthSampler {
    stop: Arc<AtomicBool>,
    max: Arc<Mutex<f64>>,
    handle: std::thread::JoinHandle<()>,
}

impl DepthSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let max = Arc::new(Mutex::new(0.0f64));
        let gauges: Vec<_> = POOLS
            .iter()
            .map(|p| {
                caladrius_obs::global_registry().gauge("caladrius_exec_queue_depth", &[("pool", p)])
            })
            .collect();
        let handle = {
            let (stop, max) = (Arc::clone(&stop), Arc::clone(&max));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let depth = gauges.iter().map(|g| g.get()).fold(0.0, f64::max);
                    let mut m = max.lock().expect("depth sampler lock poisoned");
                    *m = m.max(depth);
                    drop(m);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        DepthSampler { stop, max, handle }
    }

    pub fn finish(self, layers: &mut Layers) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("depth sampler panicked");
        let max = *self.max.lock().expect("depth sampler lock poisoned");
        layers.set("exec.queue_depth_max", max);
    }
}

/// Share of `part` in `whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
