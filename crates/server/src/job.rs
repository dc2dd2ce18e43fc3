//! Job records and the bounded [`JobStore`].
//!
//! A job moves through the state machine
//! `Queued → Running → {Done, Failed, Cancelled}` (the kubelet-style
//! provider pattern: the store maps job ids to shared records while the
//! orchestrator owns the `JoinHandle`s). Every record carries its own
//! [`EventLog`] — an append-only line buffer with a condvar — so any
//! number of HTTP streams can tail a job's NDJSON events without
//! touching the runner's hot path beyond one mutex push per event.

use crate::spec::JobSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use stoneage_sim::Snapshot;
use stoneage_wire::Value;

/// Job identifier, dense from 1.
pub type JobId = u64;

/// Returned by [`JobStore::insert`] when every retained job is still
/// live (nothing terminal to evict).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreFull;

impl std::fmt::Display for StoreFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("job store full of live jobs")
    }
}

impl std::error::Error for StoreFull {}

/// The lifecycle state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for cores.
    Queued,
    /// Executing on the orchestrator's thread pool.
    Running,
    /// Every seed reached an output configuration.
    Done,
    /// A seed failed (budget exhausted, invalid resume frame, …).
    Failed,
    /// Cancelled by request, before or during execution.
    Cancelled,
}

impl JobState {
    /// The wire name (`queued`, `running`, `done`, `failed`, `cancelled`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Append-only NDJSON event buffer with wakeups for tailing readers.
#[derive(Default)]
pub struct EventLog {
    lines: Mutex<LogInner>,
    cond: Condvar,
}

#[derive(Default)]
struct LogInner {
    lines: Vec<String>,
    closed: bool,
}

impl EventLog {
    /// Appends one event line and wakes every tailing stream.
    pub fn push(&self, line: String) {
        let mut inner = self.lines.lock().expect("event log poisoned");
        inner.lines.push(line);
        self.cond.notify_all();
    }

    /// Marks the log complete (the job reached a terminal state); tailing
    /// streams drain what is left and hang up.
    pub fn close(&self) {
        let mut inner = self.lines.lock().expect("event log poisoned");
        inner.closed = true;
        self.cond.notify_all();
    }

    /// Lines from index `from` onward, plus whether the log is closed.
    /// Blocks up to `timeout` when nothing new is available yet.
    pub fn wait_from(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let mut inner = self.lines.lock().expect("event log poisoned");
        if inner.lines.len() <= from && !inner.closed {
            let (guard, _) = self
                .cond
                .wait_timeout(inner, timeout)
                .expect("event log poisoned");
            inner = guard;
        }
        (
            inner.lines.get(from..).unwrap_or(&[]).to_vec(),
            inner.closed,
        )
    }

    /// Number of lines pushed so far.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("event log poisoned").lines.len()
    }

    /// Whether no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-seed result of a finished run.
#[derive(Clone, Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// FNV fingerprint over outputs + rounds + messages (see
    /// [`crate::outcome_fingerprint`]).
    pub fingerprint: u64,
    /// Rounds to the output configuration.
    pub rounds: u64,
    /// Total non-ε transmissions.
    pub messages: u64,
    /// Worker threads the run used, as the engine reports them
    /// (`Outcome::workers`); `None` for a run that ended at its round
    /// budget, which returns no outcome.
    pub workers: Option<usize>,
}

/// One job: spec, state, cancel flag, event log, latest snapshot,
/// results. Shared (`Arc`) between the store, the orchestrator, the
/// runner thread, and any number of HTTP handlers.
pub struct Job {
    /// The job id.
    pub id: JobId,
    /// The validated spec the job was submitted with.
    pub spec: JobSpec,
    state: Mutex<JobState>,
    /// Cooperative cancellation: the runner checks this between
    /// execution segments and between seeds.
    pub cancel: AtomicBool,
    /// The job's NDJSON event stream.
    pub events: EventLog,
    latest: Mutex<Option<Arc<Snapshot>>>,
    results: Mutex<Vec<SeedResult>>,
    error: Mutex<Option<String>>,
}

impl Job {
    fn new(id: JobId, spec: JobSpec) -> Job {
        Job {
            id,
            spec,
            state: Mutex::new(JobState::Queued),
            cancel: AtomicBool::new(false),
            events: EventLog::default(),
            latest: Mutex::new(None),
            results: Mutex::new(Vec::new()),
            error: Mutex::new(None),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        *self.state.lock().expect("job state poisoned")
    }

    /// Transitions to `next`. Terminal states are sticky: once a job is
    /// `Done`/`Failed`/`Cancelled` no further transition applies (the
    /// orchestrator and the runner may race to cancel a finishing job).
    pub fn set_state(&self, next: JobState) -> JobState {
        let mut state = self.state.lock().expect("job state poisoned");
        if !state.is_terminal() {
            *state = next;
        }
        *state
    }

    /// Requests cooperative cancellation.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The most recent checkpoint frame, if any was captured.
    pub fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.latest.lock().expect("job snapshot poisoned").clone()
    }

    /// Replaces the latest checkpoint frame.
    pub fn set_snapshot(&self, snap: Arc<Snapshot>) {
        *self.latest.lock().expect("job snapshot poisoned") = Some(snap);
    }

    /// Appends one seed's result.
    pub fn push_result(&self, result: SeedResult) {
        self.results
            .lock()
            .expect("job results poisoned")
            .push(result);
    }

    /// The per-seed results so far.
    pub fn results(&self) -> Vec<SeedResult> {
        self.results.lock().expect("job results poisoned").clone()
    }

    /// Records the failure message.
    pub fn set_error(&self, message: String) {
        *self.error.lock().expect("job error poisoned") = Some(message);
    }

    /// The failure message of a `Failed` job.
    pub fn error(&self) -> Option<String> {
        self.error.lock().expect("job error poisoned").clone()
    }

    /// The status document served by `GET /jobs/{id}`.
    pub fn status_json(&self) -> Value {
        self.status_json_between(|| {})
    }

    /// [`Job::status_json`], running `between` after the state is read
    /// and before anything else is — the window a finishing runner can
    /// land in (tests force interleavings through it).
    fn status_json_between(&self, between: impl FnOnce()) -> Value {
        // The state is read first. The runner publishes a seed's result
        // and the job's error before the terminal state that follows
        // them, so a `done` (or `failed`) read here implies every result
        // (and the error) is already visible to the reads below.
        let state = self.state();
        between();
        let results: Vec<Value> = self
            .results()
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("seed".into(), r.seed.into()),
                    (
                        "fingerprint".into(),
                        format!("{:#018x}", r.fingerprint).into(),
                    ),
                    ("rounds".into(), r.rounds.into()),
                    ("messages".into(), r.messages.into()),
                ])
            })
            .collect();
        let snapshot_boundary = self
            .latest_snapshot()
            .map(|s| Value::from(s.boundary()))
            .unwrap_or(Value::Null);
        Value::Object(vec![
            ("id".into(), self.id.into()),
            ("state".into(), state.as_str().into()),
            ("protocol".into(), self.spec.protocol.as_str().into()),
            (
                "seeds".into(),
                Value::Array(self.spec.seeds.iter().map(|&s| s.into()).collect()),
            ),
            ("budget".into(), self.spec.budget.into()),
            ("results".into(), Value::Array(results)),
            (
                "error".into(),
                self.error().map(Value::from).unwrap_or(Value::Null),
            ),
            ("snapshot_boundary".into(), snapshot_boundary),
        ])
    }
}

/// Bounded map of job id → record. When full, inserting evicts the
/// oldest **terminal** job; if every slot is still live the submit is
/// refused (HTTP 429) rather than growing without bound.
pub struct JobStore {
    inner: Mutex<StoreInner>,
    cap: usize,
}

struct StoreInner {
    jobs: BTreeMap<JobId, Arc<Job>>,
    next_id: JobId,
}

impl JobStore {
    /// A store retaining at most `cap` jobs.
    pub fn new(cap: usize) -> JobStore {
        JobStore {
            inner: Mutex::new(StoreInner {
                jobs: BTreeMap::new(),
                next_id: 1,
            }),
            cap: cap.max(1),
        }
    }

    /// Admits a new job. [`StoreFull`] when the store is full of live
    /// jobs.
    pub fn insert(&self, spec: JobSpec) -> Result<Arc<Job>, StoreFull> {
        let mut inner = self.inner.lock().expect("job store poisoned");
        if inner.jobs.len() >= self.cap {
            let evict = inner
                .jobs
                .iter()
                .find(|(_, j)| j.state().is_terminal())
                .map(|(&id, _)| id);
            match evict {
                Some(id) => {
                    inner.jobs.remove(&id);
                }
                None => return Err(StoreFull),
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, spec));
        inner.jobs.insert(id, job.clone());
        Ok(job)
    }

    /// Looks up a job.
    pub fn get(&self, id: JobId) -> Option<Arc<Job>> {
        self.inner
            .lock()
            .expect("job store poisoned")
            .jobs
            .get(&id)
            .cloned()
    }

    /// Every retained job, in id order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.inner
            .lock()
            .expect("job store poisoned")
            .jobs
            .values()
            .cloned()
            .collect()
    }

    /// Jobs per state: `[queued, running, done, failed, cancelled]`.
    pub fn counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for job in self.list() {
            let i = match job.state() {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[i] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;
    use std::sync::Barrier;

    fn spec() -> JobSpec {
        parse_spec(br#"{"graph": {"family": "tree", "n": 4}, "protocol": "mis"}"#).unwrap()
    }

    #[test]
    fn state_machine_is_sticky_at_terminals() {
        let job = Job::new(1, spec());
        assert_eq!(job.state(), JobState::Queued);
        assert_eq!(job.set_state(JobState::Running), JobState::Running);
        assert_eq!(job.set_state(JobState::Cancelled), JobState::Cancelled);
        // A racing "finished" transition cannot resurrect the job.
        assert_eq!(job.set_state(JobState::Done), JobState::Cancelled);
        assert_eq!(job.state(), JobState::Cancelled);
    }

    #[test]
    fn store_evicts_terminal_jobs_only() {
        let store = JobStore::new(2);
        let a = store.insert(spec()).unwrap();
        let _b = store.insert(spec()).unwrap();
        // Full of live jobs: refuse.
        assert!(store.insert(spec()).is_err());
        // Finish one; the next insert evicts it.
        a.set_state(JobState::Done);
        let c = store.insert(spec()).unwrap();
        assert_eq!(c.id, 3);
        assert!(store.get(a.id).is_none());
        assert!(store.get(c.id).is_some());
        assert_eq!(store.list().len(), 2);
    }

    fn result(seed: u64) -> SeedResult {
        SeedResult {
            seed,
            fingerprint: seed,
            rounds: 1,
            messages: 1,
            workers: Some(1),
        }
    }

    /// The runner's finishing order — `push_result` of the last seed,
    /// then `set_state(Done)` — lands between the status read's first
    /// and later reads, forced with barriers: `done` must still imply
    /// every result is present.
    #[test]
    fn done_status_implies_every_result_is_present() {
        let job = Arc::new(Job::new(1, spec()));
        job.set_state(JobState::Running);
        job.push_result(result(1));
        let first_read = Arc::new(Barrier::new(2));
        let finished = Arc::new(Barrier::new(2));
        let runner = {
            let (job, first_read, finished) = (job.clone(), first_read.clone(), finished.clone());
            std::thread::spawn(move || {
                first_read.wait();
                job.push_result(result(2));
                job.set_state(JobState::Done);
                finished.wait();
            })
        };
        let status = job.status_json_between(|| {
            first_read.wait();
            finished.wait();
        });
        runner.join().expect("runner thread");
        let results = status["results"].as_array().expect("results array").len();
        assert!(
            status["state"].as_str() != Some("done") || results == 2,
            "done with {results} of 2 results: {status}"
        );
        let status = job.status_json();
        assert_eq!(status["state"].as_str(), Some("done"));
        assert_eq!(status["results"].as_array().map(<[Value]>::len), Some(2));
    }

    #[test]
    fn event_log_tail_sees_lines_and_close() {
        let log = EventLog::default();
        log.push("one".into());
        let (lines, closed) = log.wait_from(0, Duration::from_millis(1));
        assert_eq!(lines, vec!["one".to_string()]);
        assert!(!closed);
        // Nothing new: times out empty.
        let (lines, closed) = log.wait_from(1, Duration::from_millis(1));
        assert!(lines.is_empty() && !closed);
        log.push("two".into());
        log.close();
        let (lines, closed) = log.wait_from(1, Duration::from_millis(1));
        assert_eq!(lines, vec!["two".to_string()]);
        assert!(closed);
    }
}
