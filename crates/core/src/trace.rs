//! Deterministic record/replay traces for the serving front-end.
//!
//! A live [`SloServer`](crate::SloServer) run is driven by the wall clock:
//! requests arrive whenever clients submit them, and the admission core steps
//! whenever the event loop wakes. Every admission decision, however, is a pure
//! function of (a) the request stamps (arrival, deadline, cost multiplier,
//! source), (b) the order in which requests became visible to the core, and
//! (c) the sequence of steps the core took — the `now` value of each and how
//! many attempts it admitted — never of the wall clock itself. A
//! [`ServingTrace`] records exactly those inputs (plus
//! the decisions they produced), so replaying the trace through the
//! virtual-clock [`SloScheduler`](crate::SloScheduler) reproduces the live
//! run's admission decisions bitwise: any production incident becomes a
//! deterministic regression test.
//!
//! # Replay-determinism contract
//!
//! Replay is bitwise-exact for every run that drained gracefully
//! ([`ServingTrace::replayable`] is `true`). A run that hit its drain
//! deadline mid-step ([`hard_cancelled`](ServingTrace::hard_cancelled)) had
//! in-flight executions refused by a wall-timed [`CancellationToken`]
//! (rescnn_tensor) — an inherently wall-dependent cut — so such traces replay
//! best-effort: the recorded steps replay exactly, and the remaining pending
//! work is cancelled at the same step boundary.
//!
//! # Persistence
//!
//! Traces persist as a line-oriented text format with `f64` fields stored as
//! their IEEE-754 bit patterns in hex (decimal formatting would not round-trip
//! bitwise). The offline `serde` compatibility stub cannot deserialize, so the
//! format is hand-rolled, mirroring `CalibratedCostModel::save`/`load`.
//!
//! A step line is `step <now bits> <size>`. Traces written before steps had a
//! size carry `step <now bits>` alone; they load with [`TraceStep::size`]
//! `None` and replay each such step as a whole round, which is what those
//! runs did.

use std::fmt::Write as _;
use std::path::Path;

use serde::Serialize;

use crate::error::{CoreError, Result};
use crate::slo::{Rejected, SloOutcome};

/// The timing stamps of one recorded request, in submission (ticket) order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceRequest {
    /// Arrival stamp (wall milliseconds since server start for live runs,
    /// virtual milliseconds for recorded batch drains).
    pub arrival_ms: f64,
    /// Absolute completion deadline on the same clock.
    pub deadline_ms: f64,
    /// Service-time multiplier the request carried.
    pub cost_multiplier: f64,
    /// Originating source id, when the request was breaker-gated.
    pub source: Option<u64>,
    /// Number of admission steps that had already run when this request
    /// became visible to the core — replay feeds the request in immediately
    /// before step `enqueued_step`, reproducing submission/step interleaving
    /// exactly (a request can arrive mid-drain and only be seen two steps
    /// later; eligibility alone cannot reconstruct that).
    pub enqueued_step: usize,
}

/// One admission step of a recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceStep {
    /// The `now` value the core was stepped at.
    pub now_ms: f64,
    /// How many attempts the step admitted: the earliest `size` eligible ones
    /// in (arrival, submission index) order. A live server's steps are waves
    /// of at most its thread budget; a batch drain's are whole rounds. `None`
    /// (a trace from before sizes were recorded) replays as a whole round.
    pub size: Option<usize>,
}

/// The admission decision one request received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceDecision {
    /// Executed to completion.
    Served {
        /// Resolution the scale model planned.
        planned: usize,
        /// Resolution actually served (`< planned` means degraded).
        served: usize,
        /// Served on the quantized arm (precision demotion).
        int8: bool,
    },
    /// Shed by admission control (`Rejected::Overloaded`).
    Shed,
    /// Expired before service could start (`Rejected::DeadlineExceeded`).
    Expired,
    /// Shed at the gate by an open circuit breaker (`Rejected::CircuitOpen`).
    BreakerShed,
    /// The request's own plan/execute stage failed (isolated fault, contained
    /// panic, retry budget exhausted, or drain cancellation).
    Failed,
}

impl TraceDecision {
    /// Classifies a settled outcome (`int8` is the request's
    /// precision-demotion flag; only meaningful for completions).
    pub fn from_outcome(outcome: &SloOutcome, int8: bool) -> Self {
        match outcome {
            SloOutcome::Completed(done) => TraceDecision::Served {
                planned: done.planned_resolution,
                served: done.served_resolution,
                int8,
            },
            SloOutcome::Rejected(Rejected::Overloaded) => TraceDecision::Shed,
            SloOutcome::Rejected(Rejected::DeadlineExceeded) => TraceDecision::Expired,
            SloOutcome::Rejected(Rejected::CircuitOpen) => TraceDecision::BreakerShed,
            SloOutcome::Failed(_) => TraceDecision::Failed,
        }
    }
}

/// A recorded serving run: request stamps, step boundaries, and the decisions
/// they produced. The determinism contract is stated in the docs of its
/// (private) `trace` module.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServingTrace {
    /// Request stamps in submission (ticket) order.
    pub requests: Vec<TraceRequest>,
    /// Every admission step that processed at least one attempt, in order.
    pub steps: Vec<TraceStep>,
    /// Per-request decision, in submission order (filled when the run
    /// finishes).
    pub decisions: Vec<TraceDecision>,
    /// The run hit its drain deadline and hard-cancelled pending work; replay
    /// of the cancelled tail is best-effort rather than bitwise.
    pub hard_cancelled: bool,
}

impl ServingTrace {
    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace recorded no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Whether replay is guaranteed bitwise (the run drained gracefully).
    pub fn replayable(&self) -> bool {
        !self.hard_cancelled
    }

    /// Serializes the trace to `path` in the bit-exact text format.
    ///
    /// # Errors
    /// Returns an error if the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_text()).map_err(|error| CoreError::InvalidConfig {
            reason: format!("writing serving trace to {}: {error}", path.display()),
        })
    }

    /// Renders the trace in the bit-exact text format (what [`save`](Self::save)
    /// writes).
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        let _ = writeln!(text, "rescnn-serving-trace v1");
        let _ = writeln!(text, "hard_cancelled {}", u8::from(self.hard_cancelled));
        let _ = writeln!(text, "requests {}", self.requests.len());
        for request in &self.requests {
            let source = request.source.map_or_else(|| "-".to_string(), |s| s.to_string());
            let _ = writeln!(
                text,
                "req {:016x} {:016x} {:016x} {source} {}",
                request.arrival_ms.to_bits(),
                request.deadline_ms.to_bits(),
                request.cost_multiplier.to_bits(),
                request.enqueued_step,
            );
        }
        let _ = writeln!(text, "steps {}", self.steps.len());
        for step in &self.steps {
            let now_bits = step.now_ms.to_bits();
            let _ = match step.size {
                Some(size) => writeln!(text, "step {now_bits:016x} {size}"),
                None => writeln!(text, "step {now_bits:016x}"),
            };
        }
        let _ = writeln!(text, "decisions {}", self.decisions.len());
        for decision in &self.decisions {
            let _ = match decision {
                TraceDecision::Served { planned, served, int8 } => {
                    writeln!(text, "served {planned} {served} {}", u8::from(*int8))
                }
                TraceDecision::Shed => writeln!(text, "shed"),
                TraceDecision::Expired => writeln!(text, "expired"),
                TraceDecision::BreakerShed => writeln!(text, "breaker_shed"),
                TraceDecision::Failed => writeln!(text, "failed"),
            };
        }
        text
    }

    /// Loads a trace previously written by [`save`](Self::save).
    ///
    /// # Errors
    /// Returns an error if the file cannot be read or is malformed.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|error| CoreError::InvalidConfig {
            reason: format!("reading serving trace from {}: {error}", path.display()),
        })?;
        Self::from_text(&text).map_err(|error| CoreError::InvalidConfig {
            reason: format!("in serving trace {}: {error}", path.display()),
        })
    }

    /// Parses the bit-exact text format (what [`to_text`](Self::to_text)
    /// renders).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] on a malformed trace.
    pub fn from_text(text: &str) -> Result<Self> {
        Self::parse(text).map_err(|reason| CoreError::InvalidConfig {
            reason: format!("malformed serving trace: {reason}"),
        })
    }

    fn parse(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty file")?;
        if header.trim() != "rescnn-serving-trace v1" {
            return Err(format!("unrecognized header {header:?}"));
        }
        let mut trace = ServingTrace::default();
        for line in lines {
            let mut fields = line.split_whitespace();
            let Some(tag) = fields.next() else { continue };
            match tag {
                "hard_cancelled" => trace.hard_cancelled = next_usize(&mut fields)? != 0,
                "requests" | "steps" | "decisions" => {
                    // Section counts are informational; entries self-describe.
                    let _ = next_usize(&mut fields)?;
                }
                "req" => {
                    let arrival_ms = next_bits(&mut fields)?;
                    let deadline_ms = next_bits(&mut fields)?;
                    let cost_multiplier = next_bits(&mut fields)?;
                    let source = match fields.next().ok_or("req missing source")? {
                        "-" => None,
                        raw => Some(raw.parse::<u64>().map_err(|e| format!("source: {e}"))?),
                    };
                    let enqueued_step = next_usize(&mut fields)?;
                    trace.requests.push(TraceRequest {
                        arrival_ms,
                        deadline_ms,
                        cost_multiplier,
                        source,
                        enqueued_step,
                    });
                }
                "step" => {
                    let now_ms = next_bits(&mut fields)?;
                    let size = fields.next().map(parse_usize).transpose()?;
                    trace.steps.push(TraceStep { now_ms, size });
                }
                "served" => {
                    let planned = next_usize(&mut fields)?;
                    let served = next_usize(&mut fields)?;
                    let int8 = next_usize(&mut fields)? != 0;
                    trace.decisions.push(TraceDecision::Served { planned, served, int8 });
                }
                "shed" => trace.decisions.push(TraceDecision::Shed),
                "expired" => trace.decisions.push(TraceDecision::Expired),
                "breaker_shed" => trace.decisions.push(TraceDecision::BreakerShed),
                "failed" => trace.decisions.push(TraceDecision::Failed),
                other => return Err(format!("unrecognized line tag {other:?}")),
            }
        }
        if trace.decisions.len() != trace.requests.len() && !trace.decisions.is_empty() {
            return Err(format!(
                "{} decisions for {} requests",
                trace.decisions.len(),
                trace.requests.len()
            ));
        }
        Ok(trace)
    }
}

fn next_bits<'s>(fields: &mut impl Iterator<Item = &'s str>) -> std::result::Result<f64, String> {
    let raw = fields.next().ok_or("missing f64 bits field")?;
    u64::from_str_radix(raw, 16).map(f64::from_bits).map_err(|e| format!("f64 bits {raw:?}: {e}"))
}

fn next_usize<'s>(
    fields: &mut impl Iterator<Item = &'s str>,
) -> std::result::Result<usize, String> {
    parse_usize(fields.next().ok_or("missing integer field")?)
}

fn parse_usize(raw: &str) -> std::result::Result<usize, String> {
    raw.parse::<usize>().map_err(|e| format!("integer {raw:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ServingTrace {
        ServingTrace {
            requests: vec![
                TraceRequest {
                    arrival_ms: 0.125,
                    deadline_ms: 50.0,
                    cost_multiplier: 1.0,
                    source: Some(7),
                    enqueued_step: 0,
                },
                TraceRequest {
                    // A non-terminating decimal expansion: round-tripping it
                    // is exactly what decimal formatting would get wrong.
                    arrival_ms: std::f64::consts::PI,
                    deadline_ms: f64::INFINITY,
                    cost_multiplier: 8.0,
                    source: None,
                    enqueued_step: 2,
                },
            ],
            steps: vec![
                TraceStep { now_ms: 1.5, size: Some(1) },
                TraceStep { now_ms: 3.0000000000000004, size: Some(2) },
                TraceStep { now_ms: f64::INFINITY, size: None },
            ],
            decisions: vec![
                TraceDecision::Served { planned: 224, served: 112, int8: true },
                TraceDecision::Failed,
            ],
            hard_cancelled: false,
        }
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("rescnn-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.trace");
        trace.save(&path).unwrap();
        let loaded = ServingTrace::load(&path).unwrap();
        assert_eq!(trace, loaded, "text round trip must be bit-exact, infinities included");
        assert_eq!(loaded.steps[1].now_ms.to_bits(), trace.steps[1].now_ms.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traces_without_step_sizes_still_load() {
        // The text a pre-wave build wrote: `step` lines carry the `now` bits alone.
        let legacy = "rescnn-serving-trace v1\nhard_cancelled 0\nrequests 1\n\
                      req 0000000000000000 4049000000000000 3ff0000000000000 - 0\n\
                      steps 2\nstep 3ff8000000000000\nstep 7ff0000000000000\n\
                      decisions 1\nserved 224 224 0\n";
        let trace = ServingTrace::parse(legacy).unwrap();
        assert_eq!(
            trace.steps,
            vec![
                TraceStep { now_ms: 1.5, size: None },
                TraceStep { now_ms: f64::INFINITY, size: None },
            ]
        );
        assert_eq!(trace.to_text(), legacy, "and it is written back as it was read");
        assert!(ServingTrace::parse("rescnn-serving-trace v1\nstep 3ff8000000000000 x").is_err());
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(ServingTrace::parse("").is_err(), "empty file");
        assert!(ServingTrace::parse("not-a-trace").is_err(), "bad header");
        assert!(
            ServingTrace::parse("rescnn-serving-trace v1\nbogus 1").is_err(),
            "unknown line tag"
        );
        assert!(
            ServingTrace::parse("rescnn-serving-trace v1\nreq zz 0 0 - 0").is_err(),
            "bad bits field"
        );
        let ok = ServingTrace::parse("rescnn-serving-trace v1\nhard_cancelled 1\n").unwrap();
        assert!(ok.hard_cancelled && ok.is_empty() && !ok.replayable());
    }

    #[test]
    fn decision_classification() {
        let rejected = SloOutcome::Rejected(Rejected::Overloaded);
        assert_eq!(TraceDecision::from_outcome(&rejected, false), TraceDecision::Shed);
        let expired = SloOutcome::Rejected(Rejected::DeadlineExceeded);
        assert_eq!(TraceDecision::from_outcome(&expired, false), TraceDecision::Expired);
        let gated = SloOutcome::Rejected(Rejected::CircuitOpen);
        assert_eq!(TraceDecision::from_outcome(&gated, false), TraceDecision::BreakerShed);
        let failed = SloOutcome::Failed(CoreError::EmptyDataset);
        assert_eq!(TraceDecision::from_outcome(&failed, true), TraceDecision::Failed);
    }
}
