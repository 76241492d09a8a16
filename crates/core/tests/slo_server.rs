//! Integration tests for the async real-clock serving front-end: lifecycle
//! probes, graceful drain (including via `Drop`), wall-clock deadline
//! enforcement, and the record/replay determinism contract.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use rescnn_core::{
    BatchOptions, DynamicResolutionPipeline, PipelineConfig, Rejected, ResolutionLatencyModel,
    ScaleModelConfig, ScaleModelTrainer, ServerConfig, ServerRequest, ServerState, ServingTrace,
    SloOptions, SloOutcome, SloRequest, SloScheduler, SloServer, TraceStep,
};
use rescnn_data::{Dataset, DatasetKind, DatasetSpec};
use rescnn_imaging::CropRatio;
use rescnn_models::ModelKind;
use rescnn_oracle::AccuracyOracle;

const LADDER: [usize; 2] = [112, 224];

/// Server tests exercise real threads, the shared engine pool, and pool
/// drains; serialize them so one test's shutdown never supersedes another's.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pipeline() -> Arc<DynamicResolutionPipeline> {
    Arc::clone(pipeline_ref())
}

fn pipeline_ref() -> &'static Arc<DynamicResolutionPipeline> {
    static PIPELINE: OnceLock<Arc<DynamicResolutionPipeline>> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let resolutions = LADDER.to_vec();
        let config =
            ScaleModelConfig { resolutions: resolutions.clone(), epochs: 30, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
        let scale_model = trainer.train(&train, 3).unwrap();
        let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(CropRatio::new(0.56).unwrap())
            .with_resolutions(resolutions);
        Arc::new(
            DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(77))
                .unwrap(),
        )
    })
}

fn data() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| DatasetSpec::cars_like().with_len(12).with_max_dimension(72).build(9))
}

fn fixed_latency() -> ResolutionLatencyModel {
    ResolutionLatencyModel::from_estimates([(112, 10.0), (224, 50.0)])
}

fn options() -> SloOptions {
    SloOptions::default().with_latency_model(fixed_latency()).with_ssim_floor(0.30)
}

#[test]
fn lifecycle_probes_and_graceful_join() {
    let _guard = test_lock();
    let server =
        SloServer::start(pipeline(), ServerConfig::default().with_options(options())).unwrap();
    // Starting → Ready happens on the worker; wait briefly for readiness.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_ready() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(server.is_ready(), "event loop never became ready");
    assert!(server.is_healthy());
    assert_eq!(server.state(), ServerState::Ready);

    let sample = Arc::new(data()[0].clone());
    let ticket = server.submit(ServerRequest::new(sample, 60_000.0)).unwrap();
    assert_eq!(ticket.0, 0);

    assert!(server.drain(), "first drain call must initiate the drain");
    assert!(!server.drain(), "second drain call must be a no-op");
    let report = server.join().unwrap();
    assert_eq!(report.submitted, 1);
    assert!(report.drained_gracefully, "one in-flight request must drain gracefully");
    assert_eq!(report.hard_cancelled, 0);
    assert!(
        matches!(report.slo.outcomes[0], SloOutcome::Completed(_)),
        "the accepted request must complete, got {:?}",
        report.slo.outcomes[0]
    );
}

#[test]
fn drop_drains_gracefully_and_abandons_no_pool_jobs() {
    let _guard = test_lock();
    let requests = 4usize;
    let mut server =
        SloServer::start(pipeline(), ServerConfig::default().with_options(options())).unwrap();
    let stream = server.completions().expect("stream is available once");
    for i in 0..requests {
        let sample = Arc::new(data()[i % data().len()].clone());
        server.submit(ServerRequest::new(sample, 60_000.0)).unwrap();
    }
    // Drop with work in flight: the contract is a graceful drain bounded by
    // the drain deadline, not an abort.
    drop(server);
    let completions: Vec<_> = stream.collect();
    assert_eq!(completions.len(), requests, "every accepted ticket yields one completion");
    for completion in &completions {
        assert!(
            matches!(completion.outcome, SloOutcome::Completed(_)),
            "in-flight work must complete on drop, got {:?}",
            completion.outcome
        );
    }
    // The engine pool saw the whole drain: nothing was abandoned mid-job.
    let drain = rescnn_tensor::shutdown_pool();
    assert_eq!(drain.abandoned, 0, "graceful server drain must abandon no pool jobs: {drain:?}");
}

#[test]
fn wall_clock_deadline_expires_stalled_requests() {
    let _guard = test_lock();
    // Completion capacity 1 and an unconsumed stream wedge the event loop on
    // delivery, so the third request sits in the inbox until its wall
    // deadline has passed; its virtual admission (arrival < deadline, empty
    // virtual server) would have served it.
    let config = ServerConfig::default()
        .with_options(options())
        .with_completion_capacity(1)
        .with_idle_tick_ms(1.0)
        .with_drain_deadline_ms(20_000.0);
    let mut server = SloServer::start(pipeline(), config).unwrap();
    let stream = server.completions().unwrap();
    let sample = || Arc::new(data()[0].clone());
    // Two immediately-expiring requests: the first's completion fills the
    // queue, the second's delivery blocks the loop.
    server.submit(ServerRequest::new(sample(), 0.0)).unwrap();
    server.submit(ServerRequest::new(sample(), 0.0)).unwrap();
    let wedged_by = Instant::now() + Duration::from_secs(10);
    while server.in_flight() != 1 && Instant::now() < wedged_by {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.in_flight(), 1, "event loop never wedged on the full completion queue");
    // Submitted while wedged, with a slack that will have elapsed by the time
    // the loop resumes.
    let stalled = server.submit(ServerRequest::new(sample(), 5.0)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let first = stream.recv().expect("first completion");
    assert!(matches!(first.outcome, SloOutcome::Rejected(Rejected::DeadlineExceeded)));
    let mut outcomes = vec![first];
    server.drain();
    let report = server.join().unwrap();
    outcomes.extend(stream);
    assert_eq!(outcomes.len(), 3);
    let stalled_outcome =
        outcomes.iter().find(|c| c.ticket == stalled).expect("stalled ticket settled");
    assert!(
        matches!(stalled_outcome.outcome, SloOutcome::Rejected(Rejected::DeadlineExceeded)),
        "a request whose wall deadline passed in the inbox must expire, got {:?}",
        stalled_outcome.outcome
    );
    assert!(!stalled_outcome.deadline_met);
    assert_eq!(report.slo.expired, 3);
}

#[test]
fn recorded_trace_replays_bitwise_through_the_batch_scheduler() {
    let _guard = test_lock();
    let config = ServerConfig::default()
        .with_options(options())
        .with_record(true)
        .with_drain_deadline_ms(60_000.0);
    let mut server = SloServer::start(pipeline(), config).unwrap();
    let stream = server.completions().unwrap();
    let consumer = std::thread::spawn(move || stream.count());
    // A mix of generous, tight, and hopeless slacks so the live run serves,
    // degrades, and rejects.
    let slacks = [60_000.0, 60.0, 15.0, 0.0, 60_000.0, 25.0, 60.0, 0.0];
    let mut accepted: Vec<usize> = Vec::new();
    for (i, slack) in slacks.iter().enumerate() {
        let index = i % data().len();
        let sample = Arc::new(data()[index].clone());
        if server.submit(ServerRequest::new(sample, *slack)).is_ok() {
            accepted.push(index);
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    server.drain();
    let report = server.join().unwrap();
    assert_eq!(consumer.join().unwrap(), accepted.len());
    let trace = report.trace.as_ref().expect("recording run carries its trace");
    assert!(report.drained_gracefully);
    assert!(trace.replayable(), "a graceful drain must be replayable");
    assert_eq!(trace.requests.len(), accepted.len());
    assert_eq!(trace.decisions.len(), accepted.len());

    // Round-trip through the on-disk format, then replay through the
    // virtual-clock scheduler: admission decisions must match bitwise.
    let persisted = trace.to_text();
    let reloaded = rescnn_core::ServingTrace::from_text(&persisted).unwrap();
    assert_eq!(&reloaded, trace);

    let mut scheduler = SloScheduler::new(pipeline_ref(), options());
    let samples: Vec<_> = accepted.iter().map(|&index| data()[index].clone()).collect();
    for sample in &samples {
        scheduler.submit(SloRequest::new(sample, 0.0, 1.0));
    }
    let (replayed_report, replayed_trace) = scheduler.replay(&reloaded).unwrap();
    assert_eq!(
        replayed_trace.decisions, trace.decisions,
        "replayed admission decisions must match the live run bitwise"
    );
    assert_eq!(replayed_report.completed, report.slo.completed);
    assert_eq!(replayed_report.degraded, report.slo.degraded);
    assert_eq!(replayed_report.shed, report.slo.shed);
    assert_eq!(replayed_report.expired, report.slo.expired);
}

#[test]
fn a_burst_settles_wave_by_wave_and_replays_at_any_thread_budget() {
    let _guard = test_lock();
    const BURST: usize = 8;
    for threads in [1usize, 2] {
        // The live server's budget is pinned, so its waves are at most `threads`
        // wide whatever RESCNN_THREADS says; the replays below are not pinned.
        let pinned = options().with_batch(BatchOptions::default().with_threads(threads));
        // Completion capacity 1 and a stream nobody reads yet wedge the event
        // loop on its second delivery, so the burst queues up behind it.
        let config = ServerConfig::default()
            .with_options(pinned)
            .with_record(true)
            .with_completion_capacity(1)
            .with_idle_tick_ms(1.0)
            .with_drain_deadline_ms(60_000.0);
        let mut server = SloServer::start(pipeline(), config).unwrap();
        let stream = server.completions().unwrap();
        let sample = |i: usize| Arc::new(data()[i % data().len()].clone());
        server.submit(ServerRequest::new(sample(0), 0.0)).unwrap();
        server.submit(ServerRequest::new(sample(0), 0.0)).unwrap();
        let wedged_by = Instant::now() + Duration::from_secs(10);
        while server.in_flight() != 1 && Instant::now() < wedged_by {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.in_flight(), 1, "event loop never wedged on the full completion queue");
        for i in 0..BURST {
            server.submit(ServerRequest::new(sample(i), 60_000.0)).unwrap();
        }
        server.drain();
        let completions: Vec<_> = stream.collect();
        let report = server.join().unwrap();
        assert!(report.drained_gracefully);
        assert_eq!(completions.len(), 2 + BURST);
        assert!(completions[2..].iter().all(|c| matches!(c.outcome, SloOutcome::Completed(_))));

        // No step admitted more than the thread budget, so on one thread the
        // burst of eight took eight steps of one.
        let trace = report.trace.as_ref().expect("recording run carries its trace");
        assert!(trace.replayable());
        let sizes: Vec<usize> =
            trace.steps.iter().map(|step| step.size.expect("live steps record a size")).collect();
        assert!(sizes.iter().all(|&size| (1..=threads).contains(&size)), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 2 + BURST, "one attempt per request: {sizes:?}");
        if threads == 1 {
            assert_eq!(sizes, vec![1; 2 + BURST]);
        }

        // Outcomes leave in ticket order, each step's under one settle stamp
        // that is strictly later than the step before's.
        let tickets: Vec<u64> = completions.iter().map(|c| c.ticket.0).collect();
        assert_eq!(tickets, (0..(2 + BURST) as u64).collect::<Vec<_>>());
        let mut delivered = completions.iter();
        let mut previous = f64::NEG_INFINITY;
        for &size in &sizes {
            let stamps: Vec<f64> =
                delivered.by_ref().take(size).map(|c| c.wall_settled_ms).collect();
            assert!(
                stamps.iter().all(|&stamp| stamp == stamps[0] && stamp > previous),
                "{stamps:?}"
            );
            previous = stamps[0];
        }

        // The sizes survive the text format, and drive replay: decisions and
        // steps come out equal under the ambient budget (the CI matrix runs this
        // at RESCNN_THREADS 1, 2 and 4) and under each explicit one.
        let reloaded = ServingTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(&reloaded, trace);
        let samples: Vec<_> = [0, 0].into_iter().chain(0..BURST).map(sample).collect();
        for budget in [None, Some(1), Some(2), Some(4)] {
            let replay_options = match budget {
                Some(n) => options().with_batch(BatchOptions::default().with_threads(n)),
                None => options(),
            };
            let mut scheduler = SloScheduler::new(pipeline_ref(), replay_options);
            for sample in &samples {
                scheduler.submit(SloRequest::new(sample, 0.0, 1.0));
            }
            let (_, replayed) = scheduler.replay(&reloaded).unwrap();
            assert_eq!(replayed.decisions, trace.decisions, "budget {budget:?}");
            assert_eq!(replayed.steps, trace.steps, "budget {budget:?}");
        }
    }
}

#[test]
fn sizeless_steps_replay_as_whole_rounds_and_sized_ones_as_waves() {
    let _guard = test_lock();
    let submit_all = |scheduler: &mut SloScheduler<'static>| {
        for (i, sample) in data().iter().enumerate() {
            let arrival = (i / 4) as f64 * 5.0;
            let deadline = arrival + 40.0 + 30.0 * (i % 3) as f64;
            scheduler.submit(SloRequest::new(sample, arrival, deadline));
        }
    };
    let replay = |trace: &ServingTrace| {
        let mut scheduler = SloScheduler::new(pipeline_ref(), options());
        submit_all(&mut scheduler);
        scheduler.replay(trace).unwrap()
    };
    // A recorded batch drain steps whole rounds, and says how large they were.
    let mut scheduler = SloScheduler::new(pipeline_ref(), options());
    submit_all(&mut scheduler);
    let (report, trace) = scheduler.run_recorded().unwrap();
    let total = data().len();
    assert_eq!(trace.steps.len(), 1, "without retries a batch drain is one round");
    assert_eq!(trace.steps[0].size, Some(total));
    assert!(report.completed > 0 && report.completed < report.total, "a mix of outcomes");

    // Stripping the sizes from its text gives what a build from before sizes
    // existed wrote; it loads, and each step replays as the whole round.
    let legacy_text: String = trace
        .to_text()
        .lines()
        .map(|line| match line.strip_prefix("step ") {
            Some(rest) => format!("step {}\n", rest.split(' ').next().unwrap()),
            None => format!("{line}\n"),
        })
        .collect();
    let legacy = ServingTrace::from_text(&legacy_text).unwrap();
    assert!(legacy.steps.iter().all(|step| step.size.is_none()));
    let (replayed_report, replayed) = replay(&legacy);
    assert_eq!(replayed.decisions, trace.decisions);
    assert_eq!(replayed.steps, trace.steps, "the sizeless step replayed as the whole round");
    assert_eq!(replayed_report.outcomes, report.outcomes);

    // The same drain cut into waves of any width: each step takes the earliest
    // arrivals still pending, so the virtual server sees the requests in the
    // same order and every outcome is unchanged.
    for width in [1usize, 2, 5, total] {
        let mut waves = trace.clone();
        waves.steps =
            vec![TraceStep { size: Some(width), ..trace.steps[0] }; total.div_ceil(width)];
        let (wave_report, replayed) = replay(&waves);
        let sizes: Vec<usize> = replayed.steps.iter().filter_map(|step| step.size).collect();
        assert_eq!(sizes.iter().sum::<usize>(), total, "width {width}: {sizes:?}");
        assert!(sizes[..sizes.len() - 1].iter().all(|&size| size == width), "{sizes:?}");
        assert_eq!(wave_report.outcomes, report.outcomes, "width {width}");
    }
}
