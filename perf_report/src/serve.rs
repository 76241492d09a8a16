//! `serve_open`: an open loop against a live `SloServer`. Small images make
//! per-request plan work as small as it gets, so the queue, the admission step,
//! wake-ups and delivery are the largest share of a request they can be, and
//! bursts build queues that a closed loop never does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rescnn_core::{
    Completion, ResolutionLatencyModel, ServerConfig, ServerReport, ServerRequest, SloOptions,
    SloOutcome, SloRequest, SloScheduler, SloServer,
};
use rescnn_data::Sample;
use rescnn_models::ModelKind;

use crate::config::{
    self, BURST_MAX, BURST_RATE_HZ, DEADLINE_SLACK_MS, SERVE_CROP, SERVE_MAX_DIMENSION, SERVE_POOL,
    SERVE_QUEUE_CAPACITY, SERVE_RUNGS,
};
use crate::deploy::{deploy, layer_probes, Deployment};
use crate::json::Value;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workload::{Checks, Measured, Metrics, Quality, Res, Workload};

/// One scheduled request: when it is due, which pool sample it carries, and
/// how many requests arrive with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ms: f64,
    pub sample: usize,
    pub burst: usize,
}

/// Bursts of at most / at least this many requests are the small / large class.
const SMALL_BURST: usize = 2;
const LARGE_BURST: usize = 7;

/// A compound-Poisson schedule of about `seconds`: burst epochs separated by
/// exponential gaps, each burst of 1..=`BURST_MAX` requests. The draws are
/// stratified — every seed gets the same multiset of gaps (the exponential's
/// evenly spaced quantiles) and burst sizes (each size equally often) in its own
/// order, and walks the pool in its own sequence of permutations — so offered
/// load and work are identical across seeds while queues form at different
/// moments.
pub fn schedule(seed: u64, seconds: f64, pool_len: usize) -> Vec<Arrival> {
    let decks = ((seconds * BURST_RATE_HZ / BURST_MAX as f64).round() as usize).max(1);
    let bursts = decks * BURST_MAX;
    let mut sizes: Vec<usize> = (0..bursts).map(|i| 1 + i % BURST_MAX).collect();
    Rng::for_stream(seed, 1).shuffle(&mut sizes);
    let mean_gap_ms = 1_000.0 / BURST_RATE_HZ;
    let mut gaps: Vec<f64> =
        (0..bursts).map(|k| -mean_gap_ms * (1.0 - (k as f64 + 0.5) / bursts as f64).ln()).collect();
    Rng::for_stream(seed, 2).shuffle(&mut gaps);

    let mut order = Rng::for_stream(seed, 3);
    let mut deck: Vec<usize> = Vec::new();
    let mut arrivals = Vec::new();
    let mut due_ms = 0.0;
    for (size, gap) in sizes.into_iter().zip(gaps) {
        due_ms += gap;
        for _ in 0..size {
            if deck.is_empty() {
                deck = order.permutation(pool_len);
            }
            arrivals.push(Arrival {
                due_ms,
                sample: deck.pop().expect("refilled above"),
                burst: size,
            });
        }
    }
    arrivals
}

/// Everything observed about one pass of a schedule through a live server.
struct ServerRun {
    /// Schedule index of each accepted ticket, in ticket order.
    accepted: Vec<usize>,
    rejected: usize,
    /// How late each submission started, and how long `submit` took.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Each delivered completion with the instant the consumer received it.
    completions: Vec<(Instant, Completion)>,
    report: ServerReport,
    epoch: Instant,
    wall_s: f64,
    /// Outcome of replaying the recording, once that has been tried.
    replay_matches: Option<bool>,
}

pub struct ServeOpen {
    dep: Deployment,
    samples: Vec<Arc<Sample>>,
    options: SloOptions,
    /// Estimated service milliseconds at the top rung.
    top_estimate_ms: f64,
    last: Option<ServerRun>,
}

impl ServeOpen {
    /// Paces `arrivals` against a fresh server while a consumer thread drains
    /// the completion stream, then drains the server gracefully.
    fn serve(&self, arrivals: &[Arrival], record: bool) -> Res<ServerRun> {
        let config = ServerConfig::default()
            .with_options(self.options.clone())
            .with_queue_capacity(SERVE_QUEUE_CAPACITY)
            .with_record(record);
        let mut server = SloServer::start(Arc::clone(&self.dep.pipeline), config)?;
        let stream = server.completions().ok_or("a fresh server has its completion stream")?;
        let consumer = std::thread::spawn(move || {
            stream.map(|completion| (Instant::now(), completion)).collect::<Vec<_>>()
        });

        let mut accepted = Vec::with_capacity(arrivals.len());
        let mut rejected = 0usize;
        let mut late_ms = Vec::with_capacity(arrivals.len());
        let mut submit_us = Vec::with_capacity(arrivals.len());
        let epoch = Instant::now();
        for (index, arrival) in arrivals.iter().enumerate() {
            let due = epoch + Duration::from_secs_f64(arrival.due_ms / 1e3);
            wait_until(due);
            let request =
                ServerRequest::new(Arc::clone(&self.samples[arrival.sample]), DEADLINE_SLACK_MS)
                    .with_storage(self.dep.streams[arrival.sample].clone());
            let begun = Instant::now();
            let outcome = server.submit(request);
            submit_us.push(begun.elapsed().as_secs_f64() * 1e6);
            late_ms.push(begun.saturating_duration_since(due).as_secs_f64() * 1e3);
            match outcome {
                Ok(_) => accepted.push(index),
                Err(_) => rejected += 1,
            }
        }
        let report = server.join()?;
        let completions = consumer.join().map_err(|_| "the completion consumer thread panicked")?;
        let wall_s = epoch.elapsed().as_secs_f64();
        Ok(ServerRun {
            accepted,
            rejected,
            late_ms,
            submit_us,
            completions,
            report,
            epoch,
            wall_s,
            replay_matches: None,
        })
    }

    /// Every accepted ticket settled exactly once and nothing was hard-cancelled.
    fn check_settlement(run: &ServerRun, checks: &mut Checks) {
        let mut seen = vec![0usize; run.accepted.len()];
        let mut unknown = 0usize;
        for (_, completion) in &run.completions {
            match seen.get_mut(completion.ticket.0 as usize) {
                Some(count) => *count += 1,
                None => unknown += 1,
            }
        }
        let wrong = seen.iter().filter(|&&count| count != 1).count();
        checks.require(wrong == 0 && unknown == 0, || {
            format!("{wrong} accepted tickets did not settle exactly once ({unknown} unknown)")
        });
        checks.require(run.report.hard_cancelled == 0 && run.report.drained_gracefully, || {
            format!("the drain hard-cancelled {} requests", run.report.hard_cancelled)
        });
    }

    /// Replays a recorded run through the virtual-clock scheduler; the
    /// admission decisions must come out bitwise equal.
    fn replay_matches(&self, arrivals: &[Arrival], run: &ServerRun) -> Res<bool> {
        let live = run.report.trace.as_ref().ok_or("a recording run carries its trace")?;
        if !live.replayable() {
            return Ok(false);
        }
        let mut scheduler = SloScheduler::new(&self.dep.pipeline, self.options.clone());
        for &index in &run.accepted {
            let sample = arrivals[index].sample;
            // Placeholder stamps: replay takes every stamp from the trace.
            scheduler.submit(
                SloRequest::new(&self.dep.pool[sample], 0.0, 1.0)
                    .with_storage(self.dep.streams[sample].clone()),
            );
        }
        let (_, replayed) = scheduler.replay(live)?;
        Ok(replayed.decisions == live.decisions)
    }
}

/// Sleeps to just before `due`, then spins: a plain sleep overshoots by the
/// timer slack plus a wake-up delay. The window is short on purpose — a thread
/// that spins for milliseconds uses up its slice and is descheduled for longer
/// than a sleeper waits to wake (measured on the 2-core sandbox).
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Workload for ServeOpen {
    const NAME: &'static str = "serve_open";

    fn threads() -> usize {
        config::serve_threads()
    }

    fn setup(_seed: u64) -> Res<Self> {
        let dep = deploy(
            ModelKind::ResNet18,
            &SERVE_RUNGS,
            SERVE_CROP,
            SERVE_POOL,
            SERVE_MAX_DIMENSION,
            Self::threads(),
        )?;
        let samples = dep.pool.iter().cloned().map(Arc::new).collect();
        let latency = ResolutionLatencyModel::analytic(&dep.pipeline)?;
        let top_estimate_ms = latency.estimate_ms(SERVE_RUNGS[SERVE_RUNGS.len() - 1]);
        let options = SloOptions::default().with_latency_model(latency);
        Ok(ServeOpen { dep, samples, options, top_estimate_ms, last: None })
    }

    fn check(&mut self, checks: &mut Checks) -> Res<()> {
        // Two full bursts, recorded: warms the read path and proves settlement
        // and replay on every run, traced or not.
        let arrivals: Vec<Arrival> = (0..2 * BURST_MAX)
            .map(|i| Arrival {
                due_ms: (i / BURST_MAX) as f64 * 100.0,
                sample: i % SERVE_POOL,
                burst: BURST_MAX,
            })
            .collect();
        let run = self.serve(&arrivals, true)?;
        Self::check_settlement(&run, checks);
        checks.require(run.rejected == 0, || format!("{} warm-up requests refused", run.rejected));
        let matches = self.replay_matches(&arrivals, &run)?;
        checks.require(matches, || "the warm-up run's replay diverged from the live run".into());
        Ok(())
    }

    fn run(
        &mut self,
        seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Res<Measured> {
        let arrivals = schedule(seed, seconds, SERVE_POOL);
        let span = tracer.enter("serve_open run", Layer::Bench, None);
        let mut run = self.serve(&arrivals, tracer.enabled())?;
        tracer.exit(span);
        Self::check_settlement(&run, checks);

        let mut latencies_ms = Vec::with_capacity(run.completions.len());
        let (mut small_ms, mut large_ms) = (Vec::new(), Vec::new());
        let (mut ok, mut correct, mut gflops, mut read, mut ssim) = (0u64, 0.0, 0.0, 0.0, 0.0);
        for (received, completion) in &run.completions {
            let Some(&index) = run.accepted.get(completion.ticket.0 as usize) else { continue };
            // From the time the request was due, so a late generator or a
            // stalled queue counts against the requests behind it.
            let due = run.epoch + Duration::from_secs_f64(arrivals[index].due_ms / 1e3);
            let latency_ms = received.saturating_duration_since(due).as_secs_f64() * 1e3;
            tracer.record(
                "SloServer::submit -> completion",
                Layer::Core,
                Some(completion.ticket.0),
                due,
                *received,
            );
            if let SloOutcome::Completed(done) = &completion.outcome {
                latencies_ms.push(latency_ms);
                if arrivals[index].burst <= SMALL_BURST {
                    small_ms.push(latency_ms);
                } else if arrivals[index].burst >= LARGE_BURST {
                    large_ms.push(latency_ms);
                }
                if completion.deadline_met && latency_ms <= DEADLINE_SLACK_MS {
                    ok += 1;
                    correct += f64::from(u8::from(done.record.correct));
                    gflops += done.record.total_gflops();
                    read += done.record.read_fraction();
                    ssim += done.record.quality;
                }
            }
        }
        let attempted = arrivals.len() as u64;
        let failed = attempted - ok;
        checks.require(failed == 0, || {
            format!(
                "{failed} of {attempted} requests were refused, shed, expired, failed or late \
                 ({} refused at the gate)",
                run.rejected
            )
        });
        let served = ok.max(1) as f64;
        let measured = Measured {
            attempted,
            failed,
            wall_s: run.wall_s,
            rate_ops_s: attempted as f64 / run.wall_s,
            latencies_ms,
            small_ms,
            large_ms,
            quality: Quality {
                read_fraction_mean: read / served,
                mean_gflops_per_image: gflops / served,
                accuracy: correct / served,
                delivered_ssim_mean: ssim / served,
            },
        };
        if tracer.enabled() {
            let matches = self.replay_matches(&arrivals, &run)?;
            checks.require(matches, || "the traced run's replay diverged from the live run".into());
            run.replay_matches = Some(matches);
        }
        self.last = Some(run);
        Ok(measured)
    }

    fn probes(
        &mut self,
        _traced: &Measured,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        _checks: &mut Checks,
    ) -> Res<Value> {
        let run = self.last.take().ok_or("probes follow a traced run")?;
        let total = run.late_ms.len().max(1) as f64;
        let slo = &run.report.slo;
        let late = stats::sorted(&run.late_ms);
        metrics.insert("core.submit_us_p50".into(), stats::median(&run.submit_us));
        metrics.insert("core.gen_late_ms_p90".into(), stats::percentile(&late, 0.9));
        metrics.insert("core.gen_late_ms_max".into(), stats::percentile(&late, 1.0));
        metrics.insert("core.degraded_share".into(), slo.degraded as f64 / total);
        metrics.insert("core.shed_share".into(), slo.shed as f64 / total);
        metrics.insert("core.expired_share".into(), slo.expired as f64 / total);
        metrics.insert("core.rejected_share".into(), run.rejected as f64 / total);
        metrics.insert(
            "core.deadline_miss_share".into(),
            run.report.wall_deadline_violations as f64 / total,
        );
        metrics.insert("core.drain_ms".into(), run.report.drain_seconds * 1e3);
        let replayed = run.replay_matches == Some(true);
        metrics.insert("core.replay_matches".into(), f64::from(u8::from(replayed)));

        // One request at a time on an idle server: service without queueing.
        let solo: Vec<Arrival> = (0..24)
            .map(|i| Arrival { due_ms: i as f64 * 40.0, sample: i % SERVE_POOL, burst: 1 })
            .collect();
        let span = tracer.enter("solo requests", Layer::Bench, None);
        let idle = self.serve(&solo, false)?;
        tracer.exit(span);
        let solo_ms: Vec<f64> = idle.completions.iter().map(|(_, c)| c.wall_latency_ms).collect();
        let solo_p50 = stats::median(&solo_ms);
        metrics.insert("core.solo_latency_ms_p50".into(), solo_p50);
        metrics.insert("core.estimate_over_wall".into(), self.top_estimate_ms / solo_p50);
        let waits: Vec<f64> = run
            .completions
            .iter()
            .filter(|(_, c)| matches!(c.outcome, SloOutcome::Completed(_)))
            .map(|(_, c)| (c.wall_latency_ms - solo_p50).max(0.0))
            .collect();
        let waits = stats::sorted(&waits);
        metrics.insert("core.queue_wait_ms_p50".into(), stats::percentile(&waits, 0.5));
        metrics.insert("core.queue_wait_ms_p90".into(), stats::percentile(&waits, 0.9));

        layer_probes(&self.dep, tracer, metrics)?;
        Ok(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed_and_offer_the_same_load_for_every_seed() {
        let a = schedule(11, 15.0, SERVE_POOL);
        assert_eq!(a, schedule(11, 15.0, SERVE_POOL));
        let b = schedule(12, 15.0, SERVE_POOL);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        // 8 decks of burst sizes 1..=8, i.e. 288 requests: eight pool passes.
        assert_eq!(a.len(), 8 * 36);
        assert_eq!(a.iter().filter(|x| x.burst <= SMALL_BURST).count(), 8 * 3);
        assert_eq!(a.iter().filter(|x| x.burst >= LARGE_BURST).count(), 8 * 15);
        let per_sample = |arrivals: &[Arrival]| {
            let mut counts = vec![0usize; SERVE_POOL];
            arrivals.iter().for_each(|x| counts[x.sample] += 1);
            counts
        };
        assert_eq!(per_sample(&a), vec![8; SERVE_POOL]);
        assert_eq!(per_sample(&b), vec![8; SERVE_POOL]);
        // … and whole passes at any other length too.
        assert_eq!(per_sample(&schedule(12, 20.0, SERVE_POOL)), vec![11; SERVE_POOL]);
        // Same span for every seed (the gap multiset is fixed), near `seconds`.
        let (end_a, end_b) = (a.last().unwrap().due_ms, b.last().unwrap().due_ms);
        assert!((end_a - end_b).abs() < 1e-6, "{end_a} vs {end_b}");
        assert!((13_000.0..16_000.0).contains(&end_a), "{end_a}");
        assert!(a.windows(2).all(|w| w[0].due_ms <= w[1].due_ms));
    }
}
