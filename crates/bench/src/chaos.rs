//! Cross-layer deterministic chaos harness for the resilient serving core.
//!
//! [`ChaosPlan`] generalises [`crate::load::FaultPlan`] from
//! single-layer stream corruption to coordinated, seeded injection at every
//! lifecycle layer:
//!
//! * **decode** — bit flips and scan truncations in stored streams (via the
//!   embedded fault plan);
//! * **execute** — latency spikes (cost multipliers) and injected panics
//!   (every n-th request);
//! * **source** — a *hot source*: one client whose every request carries a
//!   persistently corrupt stream until a recovery instant on the virtual
//!   clock, exercising circuit-breaker trip/shed/probe behaviour.
//!
//! Every decision is a pure function of `(plan, request index, arrival)`, so
//! the same plan produces the same faults on every run, host, and thread
//! budget — which is what lets the `slo_chaos` binary machine-check bitwise
//! determinism of the resulting [`SloReport`]s.

use crate::load::{ArrivalTrace, FaultDecision, FaultPlan};
use rescnn_core::{
    DynamicResolutionPipeline, Result, SloOptions, SloReport, SloRequest, SloScheduler, SourceId,
};
use rescnn_data::Dataset;

/// A persistently corrupt client: every request from `source` carries a
/// truncated stream until its arrival reaches `recover_at_ms` on the virtual
/// clock (use `f64::INFINITY` for a client that never recovers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSource {
    /// The corrupt client's identity.
    pub source: SourceId,
    /// Virtual instant from which the client's streams are healthy again.
    pub recover_at_ms: f64,
}

/// A seeded, cross-layer chaos plan. All decisions are deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Decode-layer corruption and execute-layer latency spikes.
    pub faults: FaultPlan,
    /// Execute-layer panic injection: every `n`-th request panics mid-execute
    /// (0 disables). Mirrors [`SloOptions::with_chaos_panic_every`].
    pub panic_every: usize,
    /// Round-robin source fan-out: request `i` is tagged `SourceId(i % n)`.
    /// 0 leaves every request unsourced (no breaker gating applies).
    pub num_sources: u64,
    /// The persistently corrupt client, if any (requires `num_sources > 0`).
    pub hot_source: Option<HotSource>,
}

impl ChaosPlan {
    /// No chaos at all: healthy streams, no panics, no sources.
    pub fn none() -> Self {
        ChaosPlan { faults: FaultPlan::none(), panic_every: 0, num_sources: 0, hot_source: None }
    }

    /// The source tag for request `index` under the round-robin fan-out.
    pub fn source_for(&self, index: usize) -> Option<SourceId> {
        (self.num_sources > 0).then(|| SourceId(index as u64 % self.num_sources))
    }

    /// Whether request `index`, arriving at `arrival_ms`, carries the hot
    /// source's persistent corruption. Hot-source corruption dominates the
    /// per-request fault draw: the point is a *persistent* decode failure
    /// from one client, not an independent coin flip.
    pub fn hot_corrupt(&self, index: usize, arrival_ms: f64) -> bool {
        match (&self.hot_source, self.source_for(index)) {
            (Some(hot), Some(source)) => source == hot.source && arrival_ms < hot.recover_at_ms,
            _ => false,
        }
    }
}

/// Drives one [`SloScheduler`] drain under a chaos plan: request `i` serves
/// `data[i % data.len()]`, arrives at `trace.arrivals_ms[i]`, is tagged with
/// its round-robin source, and is injected per the plan's decode/execute/source
/// layers. Resilience policies (retry, breaker, watchdog, memory budget) come
/// in through `options`.
///
/// # Errors
/// Returns an error if the dataset is empty or encoding a fault carrier
/// fails; per-request faults and injected panics never abort the drain.
pub fn run_slo_chaos(
    pipeline: &DynamicResolutionPipeline,
    data: &Dataset,
    trace: &ArrivalTrace,
    chaos: &ChaosPlan,
    options: SloOptions,
) -> Result<SloReport> {
    if data.is_empty() {
        return Err(rescnn_core::CoreError::EmptyDataset);
    }
    let quality = pipeline.config().encode_quality;
    let options = if chaos.panic_every > 0 {
        options.with_chaos_panic_every(chaos.panic_every)
    } else {
        options
    };
    let mut scheduler = SloScheduler::new(pipeline, options);
    for (i, &arrival) in trace.arrivals_ms.iter().enumerate() {
        let sample = &data.samples()[i % data.len()];
        let mut request = SloRequest::new(sample, arrival, arrival + trace.deadline_slack_ms);
        if let Some(source) = chaos.source_for(i) {
            request = request.with_source(source);
        }
        if chaos.hot_corrupt(i, arrival) {
            let stream = sample
                .encode_progressive(quality)
                .map_err(rescnn_core::CoreError::from)?
                .with_truncated_scan(0, 2);
            request = request.with_storage(stream);
        } else {
            match chaos.faults.decide(i) {
                FaultDecision::Healthy => {}
                FaultDecision::BitFlip { scan, byte, bit } => {
                    let stream = sample
                        .encode_progressive(quality)
                        .map_err(rescnn_core::CoreError::from)?
                        .with_bit_flip(scan, byte, bit);
                    request = request.with_storage(stream);
                }
                FaultDecision::Truncate { scan, keep } => {
                    let stream = sample
                        .encode_progressive(quality)
                        .map_err(rescnn_core::CoreError::from)?
                        .with_truncated_scan(scan, keep);
                    request = request.with_storage(stream);
                }
                FaultDecision::Spike { multiplier } => {
                    request = request.with_cost_multiplier(multiplier);
                }
            }
        }
        scheduler.submit(request);
    }
    scheduler.run()
}

/// Strips the only host-dependent fields (`wall_seconds`, `threads`) so two
/// reports can be compared bitwise across reruns and thread budgets.
pub fn comparable(mut report: SloReport) -> SloReport {
    report.wall_seconds = 0.0;
    report.threads = 0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_fan_out_is_round_robin_and_optional() {
        let mut plan = ChaosPlan::none();
        assert_eq!(plan.source_for(5), None);
        plan.num_sources = 3;
        assert_eq!(plan.source_for(0), Some(SourceId(0)));
        assert_eq!(plan.source_for(4), Some(SourceId(1)));
        assert_eq!(plan.source_for(5), Some(SourceId(2)));
    }

    #[test]
    fn hot_source_corruption_ends_at_the_recovery_instant() {
        let mut plan = ChaosPlan::none();
        plan.num_sources = 4;
        plan.hot_source = Some(HotSource { source: SourceId(1), recover_at_ms: 100.0 });
        // Requests 1, 5, 9, … belong to the hot source.
        assert!(plan.hot_corrupt(1, 10.0));
        assert!(plan.hot_corrupt(5, 99.9));
        assert!(!plan.hot_corrupt(5, 100.0), "recovery instant is inclusive-healthy");
        assert!(!plan.hot_corrupt(2, 10.0), "cold sources are never hot-corrupted");
        let never = ChaosPlan {
            hot_source: Some(HotSource { source: SourceId(0), recover_at_ms: f64::INFINITY }),
            num_sources: 2,
            ..ChaosPlan::none()
        };
        assert!(never.hot_corrupt(0, 1e12));
    }

    #[test]
    fn comparable_zeroes_only_host_dependent_fields() {
        let plan = ChaosPlan::none();
        assert_eq!(plan, plan.clone());
        // Pure-plan determinism: the same plan makes the same decisions.
        let chaotic = ChaosPlan {
            faults: FaultPlan::corruption(0.2, 7),
            panic_every: 3,
            num_sources: 2,
            hot_source: Some(HotSource { source: SourceId(0), recover_at_ms: 50.0 }),
        };
        for i in 0..64 {
            assert_eq!(chaotic.faults.decide(i), chaotic.faults.decide(i));
            assert_eq!(chaotic.hot_corrupt(i, 25.0), chaotic.hot_corrupt(i, 25.0));
        }
    }
}
