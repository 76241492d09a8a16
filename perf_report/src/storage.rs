//! `storage_read`: offline drains of stored natural-size images through the
//! batch scheduler. `projpeg` incremental decode, `imaging` resize / SSIM and
//! `data` render do nearly all the work and `tensor` none; its set-up is the
//! write side of the same layers.

use std::time::Instant;

use rescnn_core::{BatchOptions, BatchScheduler, ServeReport};
use rescnn_models::ModelKind;

use crate::config::{self, DRAIN, STORAGE_CROP, STORAGE_POOL, STORAGE_RUNGS};
use crate::deploy::{deploy, layer_probes, Deployment};
use crate::json::Value;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workload::{typical_rate, Checks, Measured, Metrics, Quality, Res, Workload};

pub struct StorageRead {
    dep: Deployment,
    /// Mean SSIM of what the backbone sees, over the checked drain's samples.
    delivered_ssim_mean: f64,
    /// Planning seconds, wall seconds and bucket counts of the last run's drains.
    planning_s: f64,
    drained_s: f64,
    buckets: Vec<f64>,
}

impl StorageRead {
    /// One drain: a fresh scheduler fed `members` with their stored streams.
    fn drain(
        &self,
        members: &[usize],
        threads: usize,
        id: u64,
        tracer: &mut Tracer,
    ) -> (Res<ServeReport>, f64) {
        let dep = &self.dep;
        let options = BatchOptions::default().with_threads(threads);
        let (report, ms) = tracer.timed("BatchScheduler::run", Layer::Core, Some(id), || {
            let mut scheduler = BatchScheduler::new(&dep.pipeline, options);
            for &i in members {
                scheduler.submit_with_storage(&dep.pool[i], dep.streams[i].clone());
            }
            scheduler.run()
        });
        (report.map_err(Into::into), ms)
    }
}

impl Workload for StorageRead {
    const NAME: &'static str = "storage_read";

    fn threads() -> usize {
        config::pool_threads()
    }

    fn setup(_seed: u64) -> Res<Self> {
        let dep = deploy(
            ModelKind::ResNet50,
            &STORAGE_RUNGS,
            STORAGE_CROP,
            STORAGE_POOL,
            0,
            Self::threads(),
        )?;
        Ok(StorageRead {
            dep,
            delivered_ssim_mean: 0.0,
            planning_s: 0.0,
            drained_s: 0.0,
            buckets: Vec::new(),
        })
    }

    fn check(&mut self, checks: &mut Checks) -> Res<()> {
        // The first drain serves the head of the pool in order, so the
        // sequential path can be run over exactly the same samples.
        let members: Vec<usize> = (0..DRAIN).collect();
        let (report, _) = self.drain(&members, Self::threads(), 0, &mut Tracer::new(false));
        let report = report?;
        checks.require(report.errors.is_empty(), || {
            format!("the checked drain isolated {} request errors", report.errors.len())
        });
        let sequential = self.dep.pipeline.evaluate(&self.dep.pool.take(DRAIN))?;
        checks.require(report.report == sequential, || {
            format!("drain report {:?} differs from evaluate {:?}", report.report, sequential)
        });
        let mut ssim = Vec::with_capacity(DRAIN);
        for &i in &members {
            let plan = self
                .dep
                .pipeline
                .plan_with_storage(&self.dep.pool[i], self.dep.streams[i].clone())?;
            ssim.push(plan.quality());
        }
        self.delivered_ssim_mean = stats::mean(&ssim);
        Ok(())
    }

    fn run(
        &mut self,
        seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Res<Measured> {
        let mut order = Rng::for_stream(seed, 1);
        let mut latencies_ms = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut correct, mut gflops, mut read) = (0.0, 0.0, 0.0);
        self.planning_s = 0.0;
        self.buckets.clear();
        let start = Instant::now();
        // Whole passes over the pool only: the served set — and with it every
        // quality metric — is then the same for every seed and every speed.
        loop {
            for members in order.permutation(STORAGE_POOL).chunks(DRAIN) {
                let id = latencies_ms.len() as u64;
                let (report, ms) = self.drain(members, Self::threads(), id, tracer);
                let report = report?;
                latencies_ms.push(ms);
                attempted += members.len() as u64;
                failed += report.errors.len() as u64;
                let served = report.report.num_samples as f64;
                correct += report.report.accuracy * served;
                gflops += report.report.mean_gflops * served;
                read += report.report.mean_read_fraction * served;
                self.planning_s += report.planning_seconds;
                self.buckets.push(report.buckets.len() as f64);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.drained_s = latencies_ms.iter().sum::<f64>() / 1e3;
        checks.require(failed == 0, || format!("{failed} stored requests failed in the drains"));
        let served = (attempted - failed).max(1) as f64;
        Ok(Measured {
            attempted,
            failed,
            wall_s,
            rate_ops_s: typical_rate(&[&latencies_ms], DRAIN),
            small_ms: latencies_ms.clone(),
            large_ms: latencies_ms.clone(),
            latencies_ms,
            quality: Quality {
                read_fraction_mean: read / served,
                mean_gflops_per_image: gflops / served,
                accuracy: correct / served,
                delivered_ssim_mean: self.delivered_ssim_mean,
            },
        })
    }

    fn probes(
        &mut self,
        _traced: &Measured,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        _checks: &mut Checks,
    ) -> Res<Value> {
        metrics.insert("core.drain_plan_share".into(), self.planning_s / self.drained_s);
        metrics.insert("core.buckets_per_drain".into(), stats::mean(&self.buckets));

        let probe = layer_probes(&self.dep, tracer, metrics)?;

        // The probed requests drained on one thread and on all of them.
        let members: Vec<usize> = (0..DRAIN).collect();
        let threads = Self::threads();
        let (report, narrow_ms) = self.drain(&members, 1, 1_000, tracer);
        report?;
        let (report, wide_ms) = self.drain(&members, threads, 2_000, tracer);
        report?;
        metrics.insert("core.plan_parallel_eff".into(), narrow_ms / (threads as f64 * wide_ms));
        metrics.insert(
            "core.sched_overhead_ms_per_req".into(),
            narrow_ms / DRAIN as f64 - probe.sequential_ms(),
        );
        Ok(Value::Null)
    }
}
