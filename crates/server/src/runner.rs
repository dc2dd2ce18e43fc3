//! Job execution: the segmented runner behind the orchestrator.
//!
//! The engine has no cancellation hook, and adding one would thread a
//! flag through every backend. Instead the runner exploits the snapshot
//! subsystem: a job with a checkpoint cadence is executed as a chain of
//! **segments**, each a complete [`Simulation`] run whose budget is the
//! next checkpoint boundary. A segment that ends in
//! [`ExecError::RoundLimit`] before the real budget is not a failure —
//! the observer just captured a fresh snapshot at that exact boundary,
//! so the runner checks the job's cancel flag and resumes from the
//! frame. Cancellation latency is therefore one cadence, and a
//! cancelled job always leaves a downloadable, resumable snapshot.
//! Jobs with cadence `0` run as a single segment (cancel applies only
//! between seeds).
//!
//! Determinism: the snapshot config digest excludes the budget, so a
//! run chopped into segments replays the exact per-round RNG stream of
//! an uninterrupted run — the loopback test pins this by comparing
//! fingerprints against a direct `Simulation` run.

use crate::job::{Job, JobState, SeedResult};
use crate::metrics::Metrics;
use crate::spec::ProtocolId;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use stoneage_core::{
    Alphabet, AsMulti, Letter, MultiFsm, Protocol, TableProtocol, TableProtocolBuilder, Transitions,
};
use stoneage_graph::{DynamicGraph, Graph};
use stoneage_protocols::stabilization::{coloring_stabilized, mis_stabilized};
use stoneage_protocols::{ColoringProtocol, MisProtocol, SelfStabColoring, SelfStabMis};
use stoneage_sim::{
    write_snapshot_file, ExecError, Observer, Simulation, SnapState, Snapshot,
    StabilizationObserver,
};
use stoneage_wire::Value;

/// A stabilization predicate usable across segments: plain `fn` so the
/// registry below can pick one per protocol without boxing.
type Pred<S> = fn(&Graph, &DynamicGraph, &[S]) -> bool;

/// The deterministic fingerprint the server reports per seed: FNV-1a 64
/// over the output vector, the round count, and the message count.
/// Public so integration tests and benches can pin a server-run job
/// against a direct [`Simulation`] run of the same spec.
pub fn outcome_fingerprint(outputs: &[u64], rounds: u64, messages: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    word(outputs.len() as u64);
    for &out in outputs {
        word(out);
    }
    word(rounds);
    word(messages);
    hash
}

/// The benchmark blinker: two states, flips every round, never
/// terminates (same table as `engine_bench`'s workload). Blinker jobs
/// run to their round budget by design.
fn blinker() -> TableProtocol {
    let alphabet = Alphabet::new(["a", "b"]);
    let mut builder = TableProtocolBuilder::new("blinker", alphabet, 1, Letter(0));
    let s0 = builder.add_state("s0", Letter(0));
    let s1 = builder.add_state("s1", Letter(1));
    builder.add_input_state(s0);
    builder.set_transition_all(s0, Transitions::det(s1, Some(Letter(0))));
    builder.set_transition_all(s1, Transitions::det(s0, Some(Letter(1))));
    builder.build().expect("blinker table is well-formed")
}

/// Runs `job` to a terminal state on the `workers` cores the
/// orchestrator charged it, pushing NDJSON events, snapshots, and
/// per-seed results onto the shared record as it goes. Called from an
/// orchestrator-owned worker thread.
pub(crate) fn execute(
    job: &Arc<Job>,
    metrics: &Arc<Metrics>,
    jobs_dir: Option<&Path>,
    workers: usize,
) {
    let graph = job.spec.graph.build();
    emit(
        job,
        metrics,
        Value::Object(vec![
            ("type".into(), "started".into()),
            ("id".into(), job.id.into()),
            ("protocol".into(), job.spec.protocol.as_str().into()),
            ("nodes".into(), graph.node_count().into()),
        ]),
    );
    let result = match job.spec.protocol {
        ProtocolId::Mis => run_seeds(
            &MisProtocol::new(),
            Some(mis_stabilized as Pred<_>),
            false,
            &graph,
            job,
            metrics,
            jobs_dir,
            workers,
        ),
        ProtocolId::Coloring => run_seeds(
            &ColoringProtocol::new(),
            Some(coloring_stabilized as Pred<_>),
            false,
            &graph,
            job,
            metrics,
            jobs_dir,
            workers,
        ),
        ProtocolId::SelfStabMis => run_seeds(
            &SelfStabMis::new(),
            Some(mis_stabilized as Pred<_>),
            false,
            &graph,
            job,
            metrics,
            jobs_dir,
            workers,
        ),
        ProtocolId::SelfStabColoring => run_seeds(
            &SelfStabColoring::new(),
            Some(coloring_stabilized as Pred<_>),
            false,
            &graph,
            job,
            metrics,
            jobs_dir,
            workers,
        ),
        ProtocolId::Blinker => run_seeds(
            &AsMulti(blinker()),
            None,
            true,
            &graph,
            job,
            metrics,
            jobs_dir,
            workers,
        ),
    };
    let (event, state) = match result {
        Ok(true) => ("done", JobState::Done),
        Ok(false) => ("cancelled", JobState::Cancelled),
        Err(message) => return fail(job, metrics, message),
    };
    emit(
        job,
        metrics,
        Value::Object(vec![
            ("type".into(), event.into()),
            ("id".into(), job.id.into()),
        ]),
    );
    job.set_state(state);
    job.events.close();
    Metrics::inc(&metrics.jobs_completed);
}

/// The terminal path of a failed job: records `message` as its error,
/// emits the `failed` event, marks it `Failed`, closes its event log and
/// counts it completed. Also the orchestrator's path for a job whose
/// runner panicked.
pub(crate) fn fail(job: &Job, metrics: &Metrics, message: String) {
    job.set_error(message.clone());
    emit(
        job,
        metrics,
        Value::Object(vec![
            ("type".into(), "failed".into()),
            ("id".into(), job.id.into()),
            ("error".into(), message.into()),
        ]),
    );
    job.set_state(JobState::Failed);
    job.events.close();
    Metrics::inc(&metrics.jobs_completed);
}

/// Runs every seed in the spec's matrix on `workers` cores. `Ok(true)` =
/// all seeds done, `Ok(false)` = cancelled, `Err` = failed.
#[allow(clippy::too_many_arguments)] // internal plumbing fn, one call site per protocol
fn run_seeds<P>(
    protocol: &P,
    stab_pred: Option<Pred<P::State>>,
    run_to_budget: bool,
    graph: &Graph,
    job: &Arc<Job>,
    metrics: &Arc<Metrics>,
    jobs_dir: Option<&Path>,
    workers: usize,
) -> Result<bool, String>
where
    P: MultiFsm + Sync,
    P::State: SnapState + Send + Sync,
{
    let resume0 = match &job.spec.resume_from {
        Some(bytes) => Some(Arc::new(
            Snapshot::from_bytes(bytes).map_err(|e| format!("resume_from frame: {e}"))?,
        )),
        None => None,
    };
    for (i, &seed) in job.spec.seeds.iter().enumerate() {
        if job.cancel_requested() {
            return Ok(false);
        }
        emit(
            job,
            metrics,
            Value::Object(vec![
                ("type".into(), "seed_started".into()),
                ("seed".into(), seed.into()),
            ]),
        );
        let resume = if i == 0 { resume0.clone() } else { None };
        match run_one_seed(
            protocol,
            stab_pred,
            run_to_budget,
            graph,
            job,
            seed,
            resume,
            metrics,
            jobs_dir,
            workers,
        )? {
            Some(result) => {
                let mut event = vec![
                    ("type".into(), "seed_done".into()),
                    ("seed".into(), seed.into()),
                    (
                        "fingerprint".into(),
                        format!("{:#018x}", result.fingerprint).into(),
                    ),
                    ("rounds".into(), result.rounds.into()),
                    ("messages".into(), result.messages.into()),
                ];
                if let Some(used) = result.workers {
                    event.push(("workers".into(), used.into()));
                }
                emit(job, metrics, Value::Object(event));
                job.push_result(result);
            }
            None => return Ok(false),
        }
    }
    Ok(true)
}

/// Runs one seed as a chain of checkpoint-bounded segments, on the
/// parallel schedule with `workers` workers when that is more than one.
/// `Ok(None)` = cancelled between segments.
#[allow(clippy::too_many_arguments)] // internal plumbing fn, one call site
fn run_one_seed<P>(
    protocol: &P,
    stab_pred: Option<Pred<P::State>>,
    run_to_budget: bool,
    graph: &Graph,
    job: &Arc<Job>,
    seed: u64,
    resume: Option<Arc<Snapshot>>,
    metrics: &Arc<Metrics>,
    jobs_dir: Option<&Path>,
    workers: usize,
) -> Result<Option<SeedResult>, String>
where
    P: MultiFsm + Sync,
    P::State: SnapState + Send + Sync,
{
    let spec = &job.spec;
    let cadence = spec.checkpoint_every;
    let total = spec.budget;
    let mut last: Option<Arc<Snapshot>> = resume;
    let mut stab = match (&spec.churn, stab_pred) {
        (Some(plan), Some(pred)) => {
            Some(StabilizationObserver::new(graph, plan, pred).map_err(|e| e.to_string())?)
        }
        _ => None,
    };
    loop {
        if job.cancel_requested() {
            return Ok(None);
        }
        let base = last.as_ref().map(|s| s.boundary()).unwrap_or(0);
        let target = match base.checked_div(cadence) {
            None => total,
            Some(q) => (q + 1).saturating_mul(cadence).min(total),
        };
        if target <= base {
            return Err(format!(
                "seed {seed}: resume boundary {base} already at or past the budget {total}"
            ));
        }
        let mut observer = StreamObserver {
            protocol,
            job,
            metrics,
            seed,
            jobs_dir,
            events_every: spec.events_every,
            throttle: spec.throttle,
            latest: None,
            stab: stab.as_mut(),
        };
        let mut sim = Simulation::sync(protocol, graph)
            .seed(seed)
            .budget(target)
            .observe(&mut observer);
        if cadence > 0 {
            sim = sim.checkpoint_every(cadence);
        }
        if let Some(snap) = last.as_deref() {
            sim = sim.resume_from(snap);
        }
        if let Some(plan) = spec.churn.as_ref() {
            sim = sim.with_churn(plan);
        }
        if let Some(plan) = spec.faults.as_ref() {
            sim = sim.with_faults(plan);
        }
        if workers > 1 {
            sim = sim.parallel(stoneage_sim::ParallelPolicy::forced(
                workers,
                stoneage_sim::MergeStrategy::default(),
            ));
        }
        let run = sim.run();
        let captured = observer.latest.take();
        match run {
            Ok(outcome) => {
                if let Some(st) = stab.as_ref() {
                    emit_stabilization(job, metrics, seed, st);
                }
                let rounds = outcome.rounds().unwrap_or(0);
                let messages = outcome.messages_sent().unwrap_or(0);
                return Ok(Some(SeedResult {
                    seed,
                    fingerprint: outcome_fingerprint(&outcome.outputs, rounds, messages),
                    rounds,
                    messages,
                    workers: Some(outcome.workers),
                }));
            }
            Err(ExecError::RoundLimit { .. }) if target < total => match captured {
                Some(snap) => last = Some(snap),
                // checkpoint_every(cadence) guarantees a boundary frame at
                // every segment end, so this is unreachable in practice.
                None => {
                    return Err(format!(
                        "seed {seed}: segment ended at round {target} without a checkpoint"
                    ))
                }
            },
            Err(ExecError::RoundLimit { .. }) if run_to_budget => {
                // Non-terminating workloads (blinker) are *expected* to
                // hit the budget; report rounds-only results.
                if let Some(st) = stab.as_ref() {
                    emit_stabilization(job, metrics, seed, st);
                }
                return Ok(Some(SeedResult {
                    seed,
                    fingerprint: outcome_fingerprint(&[], total, 0),
                    rounds: total,
                    messages: 0,
                    workers: None,
                }));
            }
            Err(e) => {
                if let Some(st) = stab.as_ref() {
                    emit_stabilization(job, metrics, seed, st);
                }
                // The latest snapshot stays downloadable: a budget-limited
                // job can be resumed with a larger budget.
                return Err(format!("seed {seed}: {e}"));
            }
        }
    }
}

/// The per-segment observer: forwards rounds to the stabilization
/// replica, throttles, emits `round`/`checkpoint` NDJSON events, and
/// persists + publishes checkpoint frames.
struct StreamObserver<'a, P: Protocol> {
    protocol: &'a P,
    job: &'a Job,
    metrics: &'a Metrics,
    seed: u64,
    jobs_dir: Option<&'a Path>,
    events_every: u64,
    throttle: Duration,
    latest: Option<Arc<Snapshot>>,
    stab: Option<&'a mut StabilizationObserver<Pred<P::State>>>,
}

impl<P: Protocol> Observer<P::State> for StreamObserver<'_, P> {
    fn on_round_end(&mut self, round: u64, states: &[P::State]) {
        if let Some(stab) = self.stab.as_mut() {
            stab.on_round_end(round, states);
        }
        Metrics::inc(&self.metrics.rounds);
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
        if self.events_every != 0 && round.is_multiple_of(self.events_every) {
            let undecided = states
                .iter()
                .filter(|s| self.protocol.output(s).is_none())
                .count();
            emit(
                self.job,
                self.metrics,
                Value::Object(vec![
                    ("type".into(), "round".into()),
                    ("seed".into(), self.seed.into()),
                    ("round".into(), round.into()),
                    ("undecided".into(), undecided.into()),
                ]),
            );
        }
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        let frame = Arc::new(snapshot.clone());
        let mut persisted = Value::Null;
        if let Some(dir) = self.jobs_dir {
            match persist_frame(dir, self.job.id, &frame) {
                Ok((path, bytes)) => {
                    Metrics::add(&self.metrics.snapshot_bytes, bytes);
                    persisted = path.display().to_string().into();
                }
                Err(e) => {
                    // Persistence is best-effort; the in-memory frame
                    // still serves `GET /jobs/{id}/snapshot`.
                    emit(
                        self.job,
                        self.metrics,
                        Value::Object(vec![
                            ("type".into(), "persist_error".into()),
                            ("error".into(), e.to_string().into()),
                        ]),
                    );
                }
            }
        }
        self.job.set_snapshot(frame.clone());
        self.latest = Some(frame);
        Metrics::inc(&self.metrics.checkpoints);
        emit(
            self.job,
            self.metrics,
            Value::Object(vec![
                ("type".into(), "checkpoint".into()),
                ("seed".into(), self.seed.into()),
                ("boundary".into(), snapshot.boundary().into()),
                ("persisted".into(), persisted),
            ]),
        );
    }
}

/// Writes the frame to `<dir>/job-<id>/latest.snap` via the atomic
/// write-validate-rename helper; returns the path and the frame size.
fn persist_frame(
    dir: &Path,
    id: u64,
    frame: &Snapshot,
) -> Result<(PathBuf, u64), Box<dyn std::error::Error>> {
    let job_dir = dir.join(format!("job-{id}"));
    std::fs::create_dir_all(&job_dir)?;
    let path = job_dir.join("latest.snap");
    write_snapshot_file(&path, frame)?;
    let bytes = frame.to_bytes().len() as u64;
    Ok((path, bytes))
}

/// Emits one `stabilization` event per churn record collected so far.
fn emit_stabilization<F>(job: &Job, metrics: &Metrics, seed: u64, stab: &StabilizationObserver<F>) {
    for record in stab.records() {
        emit(
            job,
            metrics,
            Value::Object(vec![
                ("type".into(), "stabilization".into()),
                ("seed".into(), seed.into()),
                ("at_round".into(), record.at_round.into()),
                ("event".into(), format!("{:?}", record.event).into()),
                (
                    "restabilized_after".into(),
                    record
                        .restabilized_after
                        .map(Value::from)
                        .unwrap_or(Value::Null),
                ),
            ]),
        );
    }
}

/// Pushes one event line onto the job's log and bumps the counter.
fn emit(job: &Job, metrics: &Metrics, event: Value) {
    job.events.push(event.to_string_compact());
    Metrics::inc(&metrics.events);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_length_sensitive() {
        let a = outcome_fingerprint(&[1, 0, 1], 9, 40);
        assert_eq!(a, outcome_fingerprint(&[1, 0, 1], 9, 40));
        assert_ne!(a, outcome_fingerprint(&[1, 1, 0], 9, 40));
        assert_ne!(a, outcome_fingerprint(&[1, 0, 1], 10, 40));
        assert_ne!(a, outcome_fingerprint(&[1, 0, 1], 9, 41));
        assert_ne!(a, outcome_fingerprint(&[1, 0, 1, 0], 9, 40));
        assert_ne!(outcome_fingerprint(&[], 0, 0), 0);
    }

    #[test]
    fn blinker_table_builds_and_never_outputs() {
        let table = blinker();
        let multi = AsMulti(table);
        let q0 = multi.initial_state(0);
        assert!(multi.output(&q0).is_none());
    }
}
