//! The seam between the server and the optimizer driver.
//!
//! `moela-serve` owns queueing, lifecycle, and HTTP; it knows nothing
//! about algorithms, problems, or checkpoint envelopes. The binary that
//! embeds the server supplies a [`JobRunner`] — in `moela-dse` that is
//! the same engine the `run`/`resume` subcommands use, which is what
//! makes served artifacts byte-identical to CLI runs.
//!
//! Failures cross the seam with a [`FailureKind`] so the supervision
//! layer can tell a spec that will never work (fail it) from an I/O
//! hiccup or an exhausted fault budget (retry it with backoff).

use std::path::Path;

use moela_moo::checkpoint::CancelToken;
use moela_persist::Value;

use crate::job::LiveMetrics;
use crate::supervise::Heartbeat;

/// Everything a runner gets for one job execution.
pub struct JobContext<'a> {
    /// Stable job id (`job-000001`).
    pub id: &'a str,
    /// The job's run directory; the runner creates or reopens the
    /// `RunStore` here, including checkpoints from a previous life.
    pub dir: &'a Path,
    /// The validated submission spec.
    pub spec: &'a Value,
    /// Cancellation flag: the runner must thread it into the optimizer
    /// so a cancel, drain, deadline, or stall interrupt parks the run
    /// at the next step boundary.
    pub cancel: CancelToken,
    /// Which attempt this is, 1-based. Retries resume from the last
    /// checkpoint, so a runner rarely needs this beyond reporting.
    pub attempt: u64,
    /// Step-boundary heartbeat: the runner must beat it from the
    /// optimizer loop or the watchdog will mark the job stalled.
    pub heartbeat: &'a Heartbeat,
    /// Slot the runner fills with its live metrics aggregator so
    /// `GET /jobs/{id}` can report in-flight progress.
    pub live: &'a LiveMetrics,
}

/// How one job execution ended (errors are the `Err` channel).
#[derive(Debug)]
pub enum RunOutcome {
    /// Ran to completion; `summary` becomes the job's final report.
    Completed {
        /// Small JSON summary (evaluations, PHV, artifact names).
        summary: Value,
    },
    /// Parked at a checkpoint because the cancel token fired; the
    /// `RunStore` is resumable.
    Interrupted,
}

/// How a failed execution should be treated by the supervision layer.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum FailureKind {
    /// Retrying cannot help (bad spec, logic error): fail the job.
    Permanent,
    /// Likely to succeed on a retry (fault budget, races): back off and
    /// retry from the last checkpoint.
    Transient,
    /// A checkpoint/trace/artifact write failed: retry like a transient
    /// failure, and additionally flip the server's readiness to
    /// degraded until a write succeeds again.
    Disk,
}

/// A classified execution failure.
#[derive(Debug)]
pub struct RunError {
    /// Human-readable cause, recorded on the job.
    pub message: String,
    /// Retry disposition.
    pub kind: FailureKind,
}

impl RunError {
    /// A failure retries cannot fix.
    pub fn permanent(message: impl Into<String>) -> Self {
        RunError { message: message.into(), kind: FailureKind::Permanent }
    }

    /// A failure worth retrying with backoff.
    pub fn transient(message: impl Into<String>) -> Self {
        RunError { message: message.into(), kind: FailureKind::Transient }
    }

    /// A disk-write failure: retried, and degrades `/readyz`.
    pub fn disk(message: impl Into<String>) -> Self {
        RunError { message: message.into(), kind: FailureKind::Disk }
    }

    /// Whether the supervision layer should schedule a retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self.kind, FailureKind::Transient | FailureKind::Disk)
    }
}

impl From<String> for RunError {
    fn from(message: String) -> Self {
        RunError::permanent(message)
    }
}

/// Validates and executes jobs. Implementations must be `Send + Sync`;
/// one instance is shared by every run worker.
pub trait JobRunner: Send + Sync {
    /// Checks a submission spec before it is accepted into the queue,
    /// returning the normalized spec to persist. Errors become 400s.
    fn validate(&self, spec: &Value) -> Result<Value, String>;

    /// Drives one job to an outcome. Called from a run worker thread; a
    /// fresh directory means a new run, an existing checkpoint means
    /// resume. Panics are contained by the worker and treated as
    /// transient failures, but classified errors in `Err` are always
    /// preferred.
    fn run(&self, ctx: JobContext<'_>) -> Result<RunOutcome, RunError>;
}
