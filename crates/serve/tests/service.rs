//! End-to-end service semantics: byte-identical cache replay, warm-up
//! checkpoint forking, cooperative cancellation, and single-flight dedup.

use std::sync::mpsc::{channel, Receiver};

use noc_scenario::{parse_pattern, BackendKind, Json, ScenarioSpec};
use noc_serve::{frame_kind, RunRequest, ScenarioService, ServeConfig};
use noc_traffic::PhaseConfig;

fn spec(seed: u64, measure: u64) -> ScenarioSpec {
    ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        parse_pattern("UR", Vec::new()).unwrap(),
        0.05,
        PhaseConfig::pure_cycles(400, measure, 500),
        seed,
    )
}

fn submit(svc: &ScenarioService, id: &str, spec: ScenarioSpec) -> Receiver<String> {
    let (tx, rx) = channel();
    svc.submit(
        RunRequest {
            id: id.to_string(),
            spec,
            priority: 0,
            stream: None,
        },
        tx,
    );
    rx
}

/// Run the service workers for the duration of `body`.
fn with_workers<R>(svc: &ScenarioService, n: usize, body: impl FnOnce() -> R) -> R {
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| svc.worker_loop());
        }
        let r = body();
        svc.drain();
        svc.shutdown();
        r
    })
}

fn envelope_of(frame: &str) -> String {
    let j = Json::parse(frame).expect("frame parses");
    assert_eq!(
        j.get("kind").and_then(Json::as_str),
        Some("result"),
        "expected a result frame, got {frame}"
    );
    // Round-tripping through the parser would destroy byte-identity
    // evidence, so slice the raw envelope bytes out of the frame.
    let at = frame.find("\"envelope\":").expect("envelope field") + "\"envelope\":".len();
    frame[at..frame.len() - 1].to_string()
}

fn cache_label(frame: &str) -> String {
    Json::parse(frame)
        .ok()
        .and_then(|j| j.get("cache").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Satellite: a result-cache hit replays the exact bytes of the original
/// envelope without simulating a single tick.
#[test]
fn cache_hit_is_byte_identical_with_zero_simulated_ticks() {
    let svc = ScenarioService::new(ServeConfig::default());
    let (first, second) = with_workers(&svc, 1, || {
        let first = submit(&svc, "a", spec(7, 600)).recv().unwrap();
        // Same spec again: answered straight from the result cache.
        let second = submit(&svc, "b", spec(7, 600)).recv().unwrap();
        (first, second)
    });
    assert_eq!(cache_label(&first), "miss");
    assert_eq!(cache_label(&second), "hit");
    assert_eq!(
        envelope_of(&first),
        envelope_of(&second),
        "cached envelope must be byte-identical"
    );
    let st = svc.stats();
    assert_eq!(st.sim_runs, 1, "the hit simulated nothing");
    assert_eq!((st.cache_hits, st.cache_misses), (1, 1));
}

/// Tentpole: sweep points differing only in measurement parameters share
/// one warm-up checkpoint, and the forked run is byte-identical to the
/// same spec run continuously (no service, no checkpoint).
#[test]
fn warm_cache_fork_matches_continuous_run() {
    let svc = ScenarioService::new(ServeConfig::default());
    let (a, b) = with_workers(&svc, 1, || {
        // Same warm-up prefix, different measurement windows: the first
        // captures the blob, the second restores it.
        let a = submit(&svc, "a", spec(7, 600)).recv().unwrap();
        let b = submit(&svc, "b", spec(7, 900)).recv().unwrap();
        (a, b)
    });
    let st = svc.stats();
    assert_eq!((st.warm_misses, st.warm_hits), (1, 1));
    let warm_of = |frame: &str| {
        Json::parse(frame)
            .ok()
            .and_then(|j| j.get("warm").and_then(Json::as_str).map(str::to_string))
            .unwrap()
    };
    assert_eq!(
        (warm_of(&a).as_str(), warm_of(&b).as_str()),
        ("miss", "hit")
    );

    // The restored run must equal a continuous run of the same spec.
    for (frame, measure) in [(&a, 600), (&b, 900)] {
        let s = spec(7, measure);
        let (point, _) = noc_bench::run_synthetic_spec(&s, None).expect("direct run");
        let direct = serde_json::to_string(&noc_scenario::result_envelope(
            &s,
            &noc_bench::SpecOutcome::Synth(point),
        ))
        .unwrap();
        assert_eq!(
            envelope_of(frame),
            direct,
            "service envelope (measure={measure}) must equal the continuous run"
        );
    }
}

/// Satellite: cancelling a running job stops it at tick granularity and
/// frees the worker for the next job.
#[test]
fn cancellation_stops_the_run_and_frees_the_worker() {
    let svc = ScenarioService::new(ServeConfig::default());
    let after = with_workers(&svc, 1, || {
        // A long run the test cancels mid-flight.
        let rx = submit(&svc, "long", spec(3, 5_000_000));
        // Let the worker actually claim and start it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (ctx, _crx) = channel();
        svc.cancel("long", &ctx);
        let frame = rx.recv().unwrap();
        let j = Json::parse(&frame).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("cancelled"));
        // The worker is free again: a small job completes normally.
        submit(&svc, "next", spec(9, 300)).recv().unwrap()
    });
    assert_eq!(cache_label(&after), "miss");
    let st = svc.stats();
    assert_eq!((st.cancelled, st.completed), (1, 1));
}

/// Satellite: two identical requests in one batch run the simulation
/// once — the second attaches to the in-flight job (single-flight dedup)
/// and receives the same envelope bytes.
#[test]
fn identical_in_batch_requests_are_deduplicated() {
    let svc = ScenarioService::new(ServeConfig::default());
    let (a, b) = with_workers(&svc, 1, || {
        // The run is long enough that the second submission lands while
        // the first is still queued or in flight.
        let ra = submit(&svc, "a", spec(5, 300_000));
        let rb = submit(&svc, "b", spec(5, 300_000));
        (ra.recv().unwrap(), rb.recv().unwrap())
    });
    let st = svc.stats();
    assert_eq!(st.dedup_hits, 1, "second request attached to the first");
    assert_eq!(st.sim_runs, 1, "one simulation served both");
    let labels = [cache_label(&a), cache_label(&b)];
    assert!(
        labels.contains(&"miss".to_string()) && labels.contains(&"dedup".to_string()),
        "one creator + one dedup subscriber, got {labels:?}"
    );
    assert_eq!(envelope_of(&a), envelope_of(&b));
}

/// Streaming: a subscribed request receives telemetry window frames
/// during measurement, and streaming never perturbs the results.
#[test]
fn streaming_windows_arrive_and_do_not_perturb_results() {
    let svc = ScenarioService::new(ServeConfig::default());
    let frames = with_workers(&svc, 1, || {
        let (tx, rx) = channel();
        svc.submit(
            RunRequest {
                id: "s".to_string(),
                spec: spec(11, 1_000),
                priority: 0,
                stream: Some(200),
            },
            tx,
        );
        let mut frames = Vec::new();
        while let Ok(f) = rx.recv() {
            let done = frame_kind(&f).as_deref() == Some("result");
            frames.push(f);
            if done {
                break;
            }
        }
        frames
    });
    let windows = frames
        .iter()
        .filter(|f| frame_kind(f).as_deref() == Some("window"))
        .count();
    assert!(
        windows >= 3,
        "a 1000-cycle measurement with 200-cycle windows yields several window frames, got {windows}"
    );
    let result = frames.last().unwrap();

    // The same spec unstreamed produces the identical envelope.
    let svc2 = ScenarioService::new(ServeConfig::default());
    let plain = with_workers(&svc2, 1, || {
        submit(&svc2, "p", spec(11, 1_000)).recv().unwrap()
    });
    assert_eq!(envelope_of(result), envelope_of(&plain));
}

/// Satellite: single-worker inline mode (`--workers 1` runs jobs on the
/// submitting thread via `run_queued`, no pool) keeps every service
/// semantic — byte-identical envelopes, warm-up sharing, result caching.
#[test]
fn inline_mode_matches_the_pooled_worker_byte_for_byte() {
    let pooled_svc = ScenarioService::new(ServeConfig::default());
    let pooled = with_workers(&pooled_svc, 1, || {
        (
            submit(&pooled_svc, "a", spec(7, 600)).recv().unwrap(),
            submit(&pooled_svc, "b", spec(7, 900)).recv().unwrap(),
        )
    });

    let svc = ScenarioService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let ra = submit(&svc, "a", spec(7, 600));
    let rb = submit(&svc, "b", spec(7, 900));
    svc.run_queued();
    let inline = (ra.recv().unwrap(), rb.recv().unwrap());

    assert_eq!(envelope_of(&pooled.0), envelope_of(&inline.0));
    assert_eq!(envelope_of(&pooled.1), envelope_of(&inline.1));
    let st = svc.stats();
    assert_eq!(st.sim_runs, 2);
    assert_eq!(
        (st.warm_misses, st.warm_hits),
        (1, 1),
        "inline path keeps the warm-up cache discipline"
    );
    assert!(!svc.try_run_one(), "queue is drained");
}

/// Trace-replay specs route through the same tick-controlled runner as
/// synthetic ones: warm-up checkpoints are shared across the replay
/// sweep and identical requests hit the result cache.
#[test]
fn trace_replay_runs_through_the_service_with_both_cache_levels() {
    use noc_bench::capture_ticks;
    use noc_sim::Mesh;
    use noc_traffic::SyntheticSource;
    use std::sync::Arc;

    let mesh = Mesh::square(4);
    let mut src = SyntheticSource::new(mesh, parse_pattern("UR", Vec::new()).unwrap(), 0.1, 5, 3);
    let trace = Arc::new(capture_ticks(&mut src, mesh.len() as u32, 2_000));
    let tspec = |measure| {
        ScenarioSpec::trace(
            BackendKind::HybridTdmVc4,
            4,
            Arc::clone(&trace),
            PhaseConfig::pure_cycles(400, measure, 500),
            3,
        )
    };
    let svc = ScenarioService::new(ServeConfig::default());
    let (a, c) = with_workers(&svc, 1, || {
        let a = submit(&svc, "a", tspec(600)).recv().unwrap();
        submit(&svc, "b", tspec(900)).recv().unwrap();
        let c = submit(&svc, "c", tspec(600)).recv().unwrap();
        (a, c)
    });
    let st = svc.stats();
    assert_eq!(
        (st.warm_misses, st.warm_hits),
        (1, 1),
        "the replay sweep shares one warm-up checkpoint"
    );
    assert_eq!(st.cache_hits, 1, "the repeat request is a result-cache hit");
    assert_eq!(envelope_of(&a), envelope_of(&c));
    assert!(
        a.contains("\"mode\":\"trace\""),
        "envelope echoes the trace workload: {a}"
    );
}

/// The on-disk store answers across service restarts (a fresh process
/// with the same cache dir hits without simulating).
#[test]
fn disk_cache_survives_service_restart() {
    let dir = std::env::temp_dir().join(format!("noc-serve-disk-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let svc = ScenarioService::new(cfg.clone());
    let first = with_workers(&svc, 1, || submit(&svc, "a", spec(2, 500)).recv().unwrap());

    let svc2 = ScenarioService::new(cfg);
    let second = with_workers(&svc2, 1, || {
        submit(&svc2, "b", spec(2, 500)).recv().unwrap()
    });
    assert_eq!(cache_label(&second), "disk");
    assert_eq!(envelope_of(&first), envelope_of(&second));
    assert_eq!(svc2.stats().sim_runs, 0, "restart answered from disk");
    let _ = std::fs::remove_dir_all(&dir);
}
