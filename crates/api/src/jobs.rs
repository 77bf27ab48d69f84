//! Asynchronous model jobs.
//!
//! "A call to the topology modelling endpoints may incur a wait (up to
//! several seconds, depending on the modelling logic). Therefore, it is
//! prudent to let the API be asynchronous" (paper §III-A). A job is a
//! closure executed on a worker pool; clients receive an id immediately
//! and poll for the result.

use crate::json::Value;
use caladrius_obs::{Gauge, ParentSpanScope, RequestScope};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default bound on tracked jobs per runner.
pub const DEFAULT_JOB_CAPACITY: usize = 1024;

/// Default bound on in-flight (pending or running) jobs per fairness
/// key — one tenant topology cannot monopolize the worker pool.
pub const DEFAULT_PER_KEY_IN_FLIGHT: u32 = 16;

/// A keyed submission was refused: the key already has `in_flight`
/// unfinished jobs against a cap of `cap`. Maps to `429 Too Many
/// Requests` at the HTTP edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRejected {
    /// The fairness key (topology id) that hit its cap.
    pub key: String,
    /// Unfinished jobs currently held by the key.
    pub in_flight: u32,
    /// The per-key in-flight cap.
    pub cap: u32,
}

impl std::fmt::Display for JobRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job for {:?} rejected: {} of {} in-flight jobs already held",
            self.key, self.in_flight, self.cap
        )
    }
}

impl std::error::Error for JobRejected {}

/// The lifecycle of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Queued or running.
    Pending,
    /// Finished successfully with a JSON result.
    Done(Value),
    /// Failed with an error message.
    Failed(String),
}

/// Timing milestones of a job, all in Unix milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTiming {
    /// When the job was submitted.
    pub queued_unix_ms: i64,
    /// When a worker picked the job up (None while queued).
    pub started_unix_ms: Option<i64>,
    /// When the job finished (None while queued or running).
    pub finished_unix_ms: Option<i64>,
}

impl JobTiming {
    /// Milliseconds spent queued before a worker picked the job up.
    pub fn queue_wait_ms(&self) -> Option<i64> {
        self.started_unix_ms.map(|s| s - self.queued_unix_ms)
    }

    /// Milliseconds of actual execution, once finished.
    pub fn duration_ms(&self) -> Option<i64> {
        match (self.started_unix_ms, self.finished_unix_ms) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }
}

fn unix_ms() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

type Task = Box<dyn FnOnce() -> Result<Value, String> + Send>;

struct JobEntry {
    state: JobState,
    timing: JobTiming,
    /// Fairness key (topology id) the job counts against, if any.
    key: Option<String>,
}

struct StoreInner {
    states: HashMap<u64, JobEntry>,
    /// Insertion order of job ids, oldest first (drives eviction).
    order: VecDeque<u64>,
    /// Unfinished jobs per fairness key (pending or running).
    in_flight: HashMap<String, u32>,
}

/// A capacity-bounded store of job states.
///
/// Holds at most `capacity` jobs. When a new job arrives at capacity the
/// oldest *finished* (done or failed) job is evicted; pending jobs are
/// never dropped, so the store can temporarily exceed capacity while
/// more than `capacity` jobs are in flight at once.
pub struct JobStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for JobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobStore")
            .field("capacity", &self.capacity)
            .field("jobs", &self.len())
            .finish()
    }
}

impl JobStore {
    /// Creates a store bounded to `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(StoreInner {
                states: HashMap::new(),
                order: VecDeque::new(),
                in_flight: HashMap::new(),
            }),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tracks a new job, evicting the oldest finished job if the store
    /// is at capacity. Stamps the queued timestamp.
    pub fn insert(&self, id: u64, state: JobState) {
        let mut inner = self.inner.lock();
        Self::insert_entry(&mut inner, self.capacity, id, state, None);
    }

    /// Tracks a new job counted against fairness key `key`, refusing the
    /// insert when the key already holds `cap` unfinished jobs. The
    /// check-and-increment runs under the store lock, so concurrent
    /// submitters can never jointly exceed the cap.
    pub fn insert_keyed(&self, id: u64, key: &str, cap: u32) -> Result<(), JobRejected> {
        let mut inner = self.inner.lock();
        let in_flight = inner.in_flight.get(key).copied().unwrap_or(0);
        if in_flight >= cap {
            return Err(JobRejected {
                key: key.to_string(),
                in_flight,
                cap,
            });
        }
        *inner.in_flight.entry(key.to_string()).or_insert(0) += 1;
        Self::insert_entry(
            &mut inner,
            self.capacity,
            id,
            JobState::Pending,
            Some(key.to_string()),
        );
        Ok(())
    }

    fn insert_entry(
        inner: &mut StoreInner,
        capacity: usize,
        id: u64,
        state: JobState,
        key: Option<String>,
    ) {
        if inner.states.len() >= capacity {
            Self::evict_oldest_finished(inner, 1);
        }
        let entry = JobEntry {
            state,
            timing: JobTiming {
                queued_unix_ms: unix_ms(),
                ..JobTiming::default()
            },
            key,
        };
        if inner.states.insert(id, entry).is_none() {
            inner.order.push_back(id);
        }
    }

    /// Unfinished jobs currently counted against a fairness key.
    pub fn in_flight(&self, key: &str) -> u32 {
        self.inner.lock().in_flight.get(key).copied().unwrap_or(0)
    }

    /// Records the outcome of a tracked job, stamping the finished
    /// timestamp for terminal states (and releasing the job's fairness
    /// slot, if keyed). Outcomes for jobs already evicted are dropped
    /// (their slot was reclaimed while they ran).
    pub fn update(&self, id: u64, state: JobState) {
        let mut inner = self.inner.lock();
        let mut release = None;
        if let Some(slot) = inner.states.get_mut(&id) {
            if !matches!(state, JobState::Pending) && slot.timing.finished_unix_ms.is_none() {
                slot.timing.finished_unix_ms = Some(unix_ms());
                release = slot.key.clone();
            }
            slot.state = state;
        }
        if let Some(key) = release {
            if let Some(count) = inner.in_flight.get_mut(&key) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    inner.in_flight.remove(&key);
                }
            }
        }
    }

    /// Stamps the started timestamp when a worker picks the job up and
    /// returns the timing so far (None if the job was already evicted).
    pub fn mark_started(&self, id: u64) -> Option<JobTiming> {
        let mut inner = self.inner.lock();
        let slot = inner.states.get_mut(&id)?;
        if slot.timing.started_unix_ms.is_none() {
            slot.timing.started_unix_ms = Some(unix_ms());
        }
        Some(slot.timing)
    }

    /// A job's current state.
    pub fn get(&self, id: u64) -> Option<JobState> {
        self.inner.lock().states.get(&id).map(|e| e.state.clone())
    }

    /// A job's timing milestones.
    pub fn timing(&self, id: u64) -> Option<JobTiming> {
        self.inner.lock().states.get(&id).map(|e| e.timing)
    }

    /// Evicts oldest-first finished jobs until at most `keep` jobs remain
    /// tracked (or no finished jobs are left). Returns how many were
    /// evicted.
    pub fn evict_finished(&self, keep: usize) -> usize {
        let mut inner = self.inner.lock();
        let excess = inner.states.len().saturating_sub(keep);
        Self::evict_oldest_finished(&mut inner, excess)
    }

    fn evict_oldest_finished(inner: &mut StoreInner, max_evictions: usize) -> usize {
        let mut evicted = 0;
        if max_evictions == 0 {
            return evicted;
        }
        let mut kept = VecDeque::with_capacity(inner.order.len());
        while let Some(id) = inner.order.pop_front() {
            let finished = !matches!(
                inner.states.get(&id).map(|e| &e.state),
                Some(JobState::Pending)
            );
            if finished && evicted < max_evictions {
                inner.states.remove(&id);
                evicted += 1;
            } else {
                kept.push_back(id);
            }
        }
        inner.order = kept;
        evicted
    }

    /// Number of tracked jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().states.len()
    }

    /// True when no jobs are tracked.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().states.is_empty()
    }
}

/// A worker pool executing jobs and a bounded store of their states.
pub struct JobRunner {
    next_id: AtomicU64,
    store: Arc<JobStore>,
    tx: Sender<(u64, Task)>,
    queue_depth: Gauge,
    per_key_cap: u32,
    /// This runner's `runner` label value.
    scope_id: String,
}

impl std::fmt::Debug for JobRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRunner")
            .field("jobs", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl JobRunner {
    /// Starts a runner with `workers` threads and the default job bound.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_JOB_CAPACITY)
    }

    /// Starts a runner with `workers` threads tracking at most
    /// `capacity` jobs (oldest finished jobs are evicted beyond that).
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_jobs_queue_depth",
            "Jobs submitted but not yet picked up by a worker",
        );
        registry.describe(
            "caladrius_job_queue_wait_seconds",
            "Time jobs spent queued before a worker picked them up",
        );
        registry.describe(
            "caladrius_job_duration_seconds",
            "Execution time of jobs once running",
        );
        let runner_id = caladrius_obs::next_scope_id().to_string();
        let labels: &[(&str, &str)] = &[("runner", &runner_id)];
        let queue_depth = registry.gauge("caladrius_jobs_queue_depth", labels);
        let queue_wait = registry.histogram("caladrius_job_queue_wait_seconds", labels);
        let duration = registry.histogram("caladrius_job_duration_seconds", labels);

        let (tx, rx) = unbounded::<(u64, Task)>();
        let store = Arc::new(JobStore::new(capacity));
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let store = Arc::clone(&store);
            let queue_depth = queue_depth.clone();
            let queue_wait = queue_wait.clone();
            let duration = duration.clone();
            std::thread::spawn(move || {
                while let Ok((id, task)) = rx.recv() {
                    queue_depth.add(-1.0);
                    if let Some(timing) = store.mark_started(id) {
                        if let Some(wait) = timing.queue_wait_ms() {
                            queue_wait.record(wait.max(0) as f64 / 1000.0);
                        }
                    }
                    let started = Instant::now();
                    let outcome = match task() {
                        Ok(value) => JobState::Done(value),
                        Err(message) => JobState::Failed(message),
                    };
                    duration.record_duration(started.elapsed());
                    store.update(id, outcome);
                }
            });
        }
        Self {
            next_id: AtomicU64::new(1),
            store,
            tx,
            queue_depth,
            per_key_cap: DEFAULT_PER_KEY_IN_FLIGHT,
            scope_id: runner_id,
        }
    }

    /// The `runner` label value this runner's obs series carry.
    pub fn scope_id(&self) -> &str {
        &self.scope_id
    }

    /// Sets the per-key in-flight cap enforced by
    /// [`JobRunner::submit_keyed`] (minimum 1).
    pub fn with_per_key_cap(mut self, cap: u32) -> Self {
        self.per_key_cap = cap.max(1);
        self
    }

    /// The per-key in-flight cap enforced by [`JobRunner::submit_keyed`].
    pub fn per_key_cap(&self) -> u32 {
        self.per_key_cap
    }

    /// Unfinished jobs currently counted against a fairness key.
    pub fn in_flight(&self, key: &str) -> u32 {
        self.store.in_flight(key)
    }

    /// [`JobRunner::submit`] counted against fairness key `key`
    /// (topology id): the submission is refused with [`JobRejected`]
    /// when `key` already holds [`JobRunner::per_key_cap`] unfinished
    /// jobs, so one tenant cannot monopolize the worker pool.
    pub fn submit_keyed(
        &self,
        key: &str,
        task: impl FnOnce() -> Result<Value, String> + Send + 'static,
    ) -> Result<u64, JobRejected> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.store.insert_keyed(id, key, self.per_key_cap)?;
        self.enqueue(id, task);
        Ok(id)
    }

    /// Submits a job; returns its id immediately.
    pub fn submit(&self, task: impl FnOnce() -> Result<Value, String> + Send + 'static) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.store.insert(id, JobState::Pending);
        self.enqueue(id, task);
        id
    }

    /// Queues a tracked job. This is the one place trace context
    /// crosses into a job: the submitter's request id and innermost
    /// live span (the `http.request` span, on the HTTP path) are
    /// re-installed on the worker, and the job body runs inside an
    /// `api.job` span parented to that span, so spans the job records
    /// stay attributable to, and connected under, the originating
    /// request.
    fn enqueue(&self, id: u64, task: impl FnOnce() -> Result<Value, String> + Send + 'static) {
        self.queue_depth.add(1.0);
        let request_id = caladrius_obs::current_request_id();
        let parent_span = caladrius_obs::current_span_id();
        let task: Task = Box::new(move || {
            let _request = request_id.map(RequestScope::enter);
            let _parent = parent_span.map(ParentSpanScope::enter);
            let mut span = caladrius_obs::global_span("api.job");
            span.field("job", id);
            task()
        });
        self.tx
            .send((id, task))
            .expect("workers outlive the runner");
    }

    /// Polls a job's state.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.store.get(id)
    }

    /// A job's timing milestones.
    pub fn timing(&self, id: u64) -> Option<JobTiming> {
        self.store.timing(id)
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> f64 {
        self.queue_depth.get()
    }

    /// Blocks until the job completes (testing convenience).
    pub fn wait(&self, id: u64) -> Option<JobState> {
        loop {
            match self.state(id) {
                Some(JobState::Pending) => std::thread::sleep(std::time::Duration::from_millis(2)),
                other => return other,
            }
        }
    }

    /// Number of tracked jobs.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no jobs are tracked.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_poll() {
        let runner = JobRunner::new(2);
        assert!(runner.is_empty());
        let id = runner.submit(|| Ok(Value::Number(42.0)));
        let state = runner.wait(id).unwrap();
        assert_eq!(state, JobState::Done(Value::Number(42.0)));
        assert_eq!(runner.len(), 1);
    }

    #[test]
    fn failures_captured() {
        let runner = JobRunner::new(1);
        let id = runner.submit(|| Err("boom".into()));
        assert_eq!(runner.wait(id), Some(JobState::Failed("boom".into())));
    }

    #[test]
    fn unknown_job_is_none() {
        let runner = JobRunner::new(1);
        assert_eq!(runner.state(999), None);
        assert_eq!(runner.wait(999), None);
    }

    #[test]
    fn ids_are_unique_and_concurrent_jobs_complete() {
        let runner = Arc::new(JobRunner::new(4));
        let ids: Vec<u64> = (0..20)
            .map(|i| runner.submit(move || Ok(Value::Number(f64::from(i)))))
            .collect();
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 20);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                runner.wait(*id),
                Some(JobState::Done(Value::Number(i as f64)))
            );
        }
    }

    #[test]
    fn evict_finished_drops_oldest_completed_first() {
        let store = JobStore::new(10);
        store.insert(1, JobState::Done(Value::Null));
        store.insert(2, JobState::Pending);
        store.insert(3, JobState::Failed("x".into()));
        store.insert(4, JobState::Done(Value::Number(4.0)));
        // Shrink to 2 tracked jobs: ids 1 and 3 (oldest finished) go;
        // the pending job survives even though it is older than id 4.
        assert_eq!(store.evict_finished(2), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(3), None);
        assert_eq!(store.get(2), Some(JobState::Pending));
        assert_eq!(store.get(4), Some(JobState::Done(Value::Number(4.0))));
        // Nothing finished is left to evict below the pending floor.
        assert_eq!(store.evict_finished(0), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(2), Some(JobState::Pending));
    }

    #[test]
    fn update_after_eviction_is_dropped() {
        let store = JobStore::new(10);
        store.insert(1, JobState::Done(Value::Null));
        store.evict_finished(0);
        store.update(1, JobState::Failed("late".into()));
        assert_eq!(store.get(1), None);
        assert!(store.is_empty());
    }

    #[test]
    fn runner_capacity_bounds_tracked_jobs() {
        let runner = JobRunner::with_capacity(1, 3);
        let ids: Vec<u64> = (0..3)
            .map(|i| runner.submit(move || Ok(Value::Number(f64::from(i)))))
            .collect();
        for id in &ids {
            runner.wait(*id);
        }
        assert_eq!(runner.len(), 3);
        // A fourth submission evicts the oldest completed job.
        let newest = runner.submit(|| Ok(Value::Null));
        assert_eq!(runner.len(), 3);
        assert_eq!(runner.state(ids[0]), None, "oldest completed evicted");
        assert!(runner.state(ids[1]).is_some());
        assert!(runner.wait(newest).is_some());
    }

    #[test]
    fn timing_milestones_progress_with_lifecycle() {
        let runner = JobRunner::new(1);
        let id = runner.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(Value::Null)
        });
        let queued = runner.timing(id).expect("tracked");
        assert!(queued.queued_unix_ms > 0);
        runner.wait(id);
        let done = runner.timing(id).expect("tracked");
        assert!(done.started_unix_ms.is_some(), "started stamped");
        assert!(done.finished_unix_ms.is_some(), "finished stamped");
        assert!(done.queue_wait_ms().unwrap() >= 0);
        assert!(done.duration_ms().unwrap() >= 0);
        assert!(done.finished_unix_ms.unwrap() >= done.started_unix_ms.unwrap());
    }

    /// Two-tenant fairness regression: tenant `a` saturating its per-key
    /// cap must not block tenant `b`, and finishing releases the slots.
    #[test]
    fn per_key_caps_prevent_tenant_monopoly() {
        let runner = JobRunner::new(1).with_per_key_cap(2);
        assert_eq!(runner.per_key_cap(), 2);
        // Occupy the single worker so keyed jobs stay in flight until we
        // release the gate.
        let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();
        let blocker = runner.submit(move || {
            gate_rx.recv().ok();
            Ok(Value::Null)
        });
        let a1 = runner.submit_keyed("tenant-a", || Ok(Value::Null)).unwrap();
        let a2 = runner.submit_keyed("tenant-a", || Ok(Value::Null)).unwrap();
        assert_eq!(runner.in_flight("tenant-a"), 2);
        // Tenant a is at its cap: the third submission is refused...
        let rejected = runner
            .submit_keyed("tenant-a", || Ok(Value::Null))
            .unwrap_err();
        assert_eq!(rejected.key, "tenant-a");
        assert_eq!((rejected.in_flight, rejected.cap), (2, 2));
        // ...while tenant b is admitted despite a's backlog.
        let b1 = runner.submit_keyed("tenant-b", || Ok(Value::Null)).unwrap();
        assert_eq!(runner.in_flight("tenant-b"), 1);
        gate_tx.send(()).unwrap();
        for id in [blocker, a1, a2, b1] {
            assert_eq!(runner.wait(id), Some(JobState::Done(Value::Null)));
        }
        // Terminal states release the fairness slots.
        assert_eq!(runner.in_flight("tenant-a"), 0);
        assert_eq!(runner.in_flight("tenant-b"), 0);
        runner
            .submit_keyed("tenant-a", || Ok(Value::Null))
            .expect("slots released after completion");
    }

    #[test]
    fn queue_depth_drains_to_zero() {
        let runner = JobRunner::new(2);
        let ids: Vec<u64> = (0..5).map(|_| runner.submit(|| Ok(Value::Null))).collect();
        for id in ids {
            runner.wait(id);
        }
        // Every submitted job has been picked up, so the gauge is back to 0.
        assert_eq!(runner.queue_depth(), 0.0);
    }

    #[test]
    fn pending_visible_while_running() {
        let runner = JobRunner::new(1);
        let blocker = runner.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Ok(Value::Null)
        });
        let queued = runner.submit(|| Ok(Value::Null));
        assert_eq!(runner.state(queued), Some(JobState::Pending));
        runner.wait(blocker);
        runner.wait(queued);
    }
}
