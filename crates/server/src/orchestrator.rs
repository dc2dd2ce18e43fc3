//! The scheduling loop: one thread owning every runner `JoinHandle`.
//!
//! HTTP handlers never touch threads; they send [`Command`]s down a
//! channel and the orchestrator reacts. Runner threads report back on
//! the same channel as [`Event`]s — the command/event split (borrowed
//! from event-sourced orchestrators) keeps a single owner for all
//! mutable scheduling state: the pending queue, the running map, and
//! the free-core count. Jobs occupy `min(spec.workers, cores)` cores
//! while running, and the runner runs them on that many workers;
//! submissions beyond the core budget queue in FIFO order.

use crate::job::{JobId, JobState, JobStore};
use crate::metrics::Metrics;
use crate::runner;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use stoneage_wire::Value;

/// Requests from HTTP handlers (and [`crate::Server::shutdown`]).
pub(crate) enum Command {
    /// Schedule the job with this id (already inserted in the store).
    Submit(JobId),
    /// Cancel the job: dequeue it if still queued, or raise its
    /// cooperative cancel flag if running.
    Cancel(JobId),
    /// Drain: cancel everything, join every runner, exit the loop.
    Shutdown,
}

/// Reports from runner threads.
pub(crate) enum Event {
    /// The runner for this job ended (any terminal state, including a
    /// panic turned into `Failed`).
    Finished(JobId),
}

/// The channel message type: commands and events share one queue so the
/// loop has a single blocking point.
pub(crate) enum Msg {
    /// A request from outside the loop.
    Cmd(Command),
    /// A report from a runner thread.
    Ev(Event),
}

/// Sends [`Event::Finished`] for its job when dropped — on a runner
/// thread's normal return and while it unwinds alike.
struct FinishedOnDrop {
    tx: Sender<Msg>,
    id: JobId,
}

impl Drop for FinishedOnDrop {
    fn drop(&mut self) {
        // The loop may already be gone on unclean teardown.
        let _ = self.tx.send(Msg::Ev(Event::Finished(self.id)));
    }
}

/// The text of a panic payload (`panic!` carries a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

pub(crate) struct Orchestrator {
    store: Arc<JobStore>,
    metrics: Arc<Metrics>,
    jobs_dir: Option<PathBuf>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    cores: usize,
    free: usize,
    pending: VecDeque<JobId>,
    running: HashMap<JobId, (JoinHandle<()>, usize)>,
}

impl Orchestrator {
    pub(crate) fn new(
        store: Arc<JobStore>,
        metrics: Arc<Metrics>,
        jobs_dir: Option<PathBuf>,
        cores: usize,
        tx: Sender<Msg>,
        rx: Receiver<Msg>,
    ) -> Orchestrator {
        Orchestrator {
            store,
            metrics,
            jobs_dir,
            tx,
            rx,
            cores,
            free: cores,
            pending: VecDeque::new(),
            running: HashMap::new(),
        }
    }

    /// The loop body; runs until [`Command::Shutdown`] has drained every
    /// runner.
    pub(crate) fn run(mut self) {
        let mut draining = false;
        loop {
            let msg = match self.rx.recv() {
                Ok(msg) => msg,
                // Every sender gone (server dropped without shutdown):
                // nothing can arrive anymore, stop.
                Err(_) => return,
            };
            match msg {
                Msg::Cmd(Command::Submit(id)) => {
                    if draining {
                        self.finish_without_running(id, "server shutting down");
                    } else {
                        self.pending.push_back(id);
                        self.try_schedule();
                    }
                }
                Msg::Cmd(Command::Cancel(id)) => self.cancel(id),
                Msg::Cmd(Command::Shutdown) => {
                    draining = true;
                    // Queued jobs never ran: cancel them outright.
                    while let Some(id) = self.pending.pop_front() {
                        self.finish_without_running(id, "server shutting down");
                    }
                    // Running jobs get the cooperative flag and are
                    // joined as their Finished events arrive.
                    for (id, _) in self.running.iter() {
                        if let Some(job) = self.store.get(*id) {
                            job.request_cancel();
                        }
                    }
                    if self.running.is_empty() {
                        return;
                    }
                }
                Msg::Ev(Event::Finished(id)) => {
                    if let Some((handle, cores)) = self.running.remove(&id) {
                        let _ = handle.join();
                        self.free += cores;
                    }
                    if draining {
                        if self.running.is_empty() {
                            return;
                        }
                    } else {
                        self.try_schedule();
                    }
                }
            }
            self.metrics
                .queue_depth
                .store(self.pending.len(), Ordering::Relaxed);
        }
    }

    /// Starts queued jobs while cores remain. A job needing more cores
    /// than the whole machine still runs (alone) rather than starving.
    fn try_schedule(&mut self) {
        while let Some(&id) = self.pending.front() {
            let Some(job) = self.store.get(id) else {
                self.pending.pop_front();
                continue;
            };
            if job.cancel_requested() {
                // Cancelled while queued by a direct flag write.
                self.pending.pop_front();
                self.finish_without_running(id, "cancelled while queued");
                continue;
            }
            let need = job.spec.workers.min(self.cores).max(1);
            if need > self.free {
                break;
            }
            self.pending.pop_front();
            self.free -= need;
            job.set_state(JobState::Running);
            let metrics = self.metrics.clone();
            let jobs_dir = self.jobs_dir.clone();
            let tx = self.tx.clone();
            let handle = std::thread::spawn(move || {
                // `Finished` goes out however the runner ends — even if
                // the failure path below panics too — so the core is
                // returned and shutdown can join this thread.
                let _finished = FinishedOnDrop { tx, id };
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    runner::execute(&job, &metrics, jobs_dir.as_deref(), need)
                }));
                if let Err(payload) = run {
                    let message = format!("job panicked: {}", panic_message(payload.as_ref()));
                    runner::fail(&job, &metrics, message);
                }
            });
            self.running.insert(id, (handle, need));
        }
    }

    fn cancel(&mut self, id: JobId) {
        let Some(job) = self.store.get(id) else {
            return;
        };
        job.request_cancel();
        if let Some(pos) = self.pending.iter().position(|&p| p == id) {
            self.pending.remove(pos);
            self.finish_without_running(id, "cancelled while queued");
        }
        // Running jobs finish through the cooperative flag; terminal
        // jobs ignore the request (sticky state).
    }

    /// Terminal path for a job that never got a runner thread: mark it
    /// cancelled, emit the event, close the log.
    fn finish_without_running(&self, id: JobId, reason: &str) {
        let Some(job) = self.store.get(id) else {
            return;
        };
        if job.state().is_terminal() {
            return;
        }
        job.events.push(
            Value::Object(vec![
                ("type".into(), "cancelled".into()),
                ("id".into(), id.into()),
                ("reason".into(), reason.into()),
            ])
            .to_string_compact(),
        );
        Metrics::inc(&self.metrics.events);
        job.set_state(JobState::Cancelled);
        job.events.close();
        Metrics::inc(&self.metrics.jobs_completed);
    }
}
