//! `noc-serve` — batched scenario service.
//!
//! Modes (first match wins):
//!
//! * `noc-serve --listen <socket> [--workers N] [--cache-dir D] [--cache-max N] [--warm-max N]`
//!   — long-running server: JSON-lines requests over a unix socket,
//!   frames back on the same connection.
//! * `noc-serve --connect <socket>` — client: pipe request lines from
//!   stdin to a running server, print every response frame, exit once
//!   all submitted requests have settled.
//! * `noc-serve --bench [--quick]` — in-process A/B measurement of the
//!   cache layers (numbers for `results/network_step_speedup.txt`).
//! * `noc-serve` — one-shot: read request lines (or bare scenario specs)
//!   from stdin, run the batch, print frames to stdout.
//!
//! A flag outside [`FLAGS`] or a bad value exits 2 with the flag list;
//! `--help` prints the list and exits 0.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use noc_scenario::cli::{arg_value, check_cli_args, usage_error};
use noc_scenario::{parse_pattern, quick_flag, BackendKind, Json, ScenarioSpec};
use noc_serve::{
    bye_frame, error_frame, frame_kind, parse_request, Request, ScenarioService, ServeConfig,
};
use noc_traffic::PhaseConfig;

/// Every `noc-serve` flag, in the format of `noc_scenario::cli::FLAGS`.
const FLAGS: &str = "\
--listen <socket>    serve JSON-lines requests on a unix socket
--connect <socket>   send stdin's request lines to a server, print its frames
--workers <n>        worker threads (default: one per core, at most 4)
--cache-dir <dir>    keep the result and warm-up caches in <dir>
--cache-max <n>      result-cache entries (default 256)
--warm-max <n>       warm-up checkpoints kept (default 16)
--bench              in-process A/B measurement of the cache layers
--quick              smaller --bench batch (also -q)
--help               print this list (also -h)
";

fn usize_flag(flag: &str, default: usize) -> usize {
    arg_value(flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(FLAGS, &format!("{flag} needs an integer, got {v:?}")))
    })
}

fn config_from_cli() -> ServeConfig {
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(4);
    ServeConfig {
        workers: usize_flag("--workers", default_workers).max(1),
        cache_max: usize_flag("--cache-max", 256),
        warm_max: usize_flag("--warm-max", 16),
        cache_dir: arg_value("--cache-dir").map(Into::into),
    }
}

fn main() {
    check_cli_args(FLAGS);
    if std::env::args().any(|a| a == "--bench") {
        bench(quick_flag());
        return;
    }
    if let Some(path) = arg_value("--connect") {
        if let Err(e) = client(&path) {
            eprintln!("noc-serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let svc = ScenarioService::new(config_from_cli());
    if let Some(path) = arg_value("--listen") {
        if let Err(e) = serve_socket(&svc, &path) {
            eprintln!("noc-serve: {e}");
            std::process::exit(1);
        }
    } else {
        serve_stdin(&svc);
    }
}

/// Dispatch one parsed request line from a connection or stdin.
fn dispatch(svc: &ScenarioService, line: &str, fallback_id: &str, tx: &Sender<String>) -> bool {
    match parse_request(line, fallback_id) {
        Ok(Request::Run(req)) => svc.submit(req, tx.clone()),
        Ok(Request::Cancel { id }) => svc.cancel(&id, tx),
        Ok(Request::Stats) => {
            let _ = tx.send(svc.stats_frame());
        }
        Ok(Request::Shutdown) => {
            let _ = tx.send(bye_frame());
            return true;
        }
        Err(e) => {
            let _ = tx.send(error_frame(None, &e));
        }
    }
    false
}

/// One-shot mode: run the whole stdin batch, stream frames to stdout.
///
/// With `--workers 1` no worker pool is spawned at all: jobs run inline
/// on this thread between request lines (the single-flight/cache path is
/// identical, only the threading differs).
fn serve_stdin(svc: &ScenarioService) {
    let inline = svc.config().workers <= 1;
    std::thread::scope(|scope| {
        if !inline {
            for _ in 0..svc.config().workers {
                scope.spawn(|| svc.worker_loop());
            }
        }
        let (tx, rx) = channel::<String>();
        let printer = scope.spawn(move || {
            let mut out = BufWriter::new(std::io::stdout().lock());
            for frame in rx {
                let _ = writeln!(out, "{frame}");
                let _ = out.flush();
            }
        });
        let stdin = std::io::stdin();
        let mut n = 0u64;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            n += 1;
            if dispatch(svc, line, &format!("req-{n}"), &tx) {
                break;
            }
            if inline {
                svc.run_queued();
            }
        }
        if inline {
            svc.run_queued();
        }
        svc.drain();
        svc.shutdown();
        drop(tx);
        let _ = printer.join();
    });
}

/// Server mode: accept unix-socket connections until a client sends
/// `{"op":"shutdown"}`.
fn serve_socket(svc: &ScenarioService, path: &str) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    eprintln!(
        "noc-serve: listening on {path} ({} workers)",
        svc.config().workers
    );
    // With `--workers 1` the accept thread doubles as the worker: no
    // pool is spawned, and queued jobs run between accept polls.
    let inline = svc.config().workers <= 1;
    std::thread::scope(|scope| {
        if !inline {
            for _ in 0..svc.config().workers {
                scope.spawn(|| svc.worker_loop());
            }
        }
        let mut conn_id = 0u64;
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    conn_id += 1;
                    let conn = conn_id;
                    let stop = &stop;
                    scope.spawn(move || handle_conn(svc, stream, conn, stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !(inline && svc.try_run_one()) {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
                Err(e) => {
                    eprintln!("noc-serve: accept failed: {e}");
                    break;
                }
            }
        }
        if inline {
            // Settle anything still queued so connection writers (which
            // drain until every job-held sender drops) can exit.
            svc.run_queued();
        }
        svc.shutdown();
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn handle_conn(svc: &ScenarioService, stream: UnixStream, conn: u64, stop: &AtomicBool) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    // The writer owns only channel + socket halves, so a plain (detached
    // by join below) thread works; it drains until every job-held sender
    // is dropped, keeping frames flowing after the reader quits.
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for frame in rx {
            if writeln!(out, "{frame}").and_then(|_| out.flush()).is_err() {
                break;
            }
        }
    });
    // Short read timeout so the reader notices a server-wide shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(&stream);
    let mut buf = String::new();
    let mut n = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {
                let line = buf.trim();
                if !line.is_empty() {
                    n += 1;
                    if dispatch(svc, line, &format!("c{conn}-{n}"), &tx) {
                        stop.store(true, Ordering::Relaxed);
                        svc.shutdown();
                        buf.clear();
                        break;
                    }
                }
                buf.clear();
            }
            // Timeout mid-line: partial bytes stay in `buf`, keep reading.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Client mode: forward stdin request lines, print frames until every
/// submitted request has settled.
fn client(path: &str) -> std::io::Result<()> {
    let stream = UnixStream::connect(path)?;
    let mut expected = 0u64;
    {
        let mut w = BufWriter::new(stream.try_clone()?);
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            // How many terminal frames this line produces: every op except
            // `cancel` settles with exactly one (a cancelled run's own
            // `cancelled` frame settles the run line, not the cancel line).
            let op = Json::parse(line)
                .ok()
                .and_then(|j| j.get("op").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_else(|| "run".to_string());
            if op != "cancel" {
                expected += 1;
            }
            writeln!(w, "{line}")?;
        }
        w.flush()?;
    }
    let mut seen = 0u64;
    let reader = BufReader::new(stream);
    for frame in reader.lines() {
        let frame = frame?;
        println!("{frame}");
        if matches!(
            frame_kind(&frame).as_deref(),
            Some("result" | "cancelled" | "error" | "stats" | "bye")
        ) {
            seen += 1;
            if seen >= expected {
                break;
            }
        }
    }
    Ok(())
}

// --- A/B bench -----------------------------------------------------------

/// A sweep batch sharing one warm-up prefix: same backend, mesh, traffic
/// and seed; only the measurement window varies.
fn sweep_batch(quick: bool, points: usize) -> Vec<ScenarioSpec> {
    let (mesh, warmup, measure0) = if quick {
        (8, 2_000, 500)
    } else {
        (16, 20_000, 1_000)
    };
    let pattern = parse_pattern("UR", Vec::new()).expect("UR parses");
    (0..points)
        .map(|i| {
            let phases = PhaseConfig::pure_cycles(warmup, measure0 + 250 * i as u64, 2_000);
            ScenarioSpec::synthetic(
                BackendKind::HybridTdmVc4,
                mesh,
                pattern.clone(),
                0.05,
                phases,
                42,
            )
        })
        .collect()
}

/// Run a batch through a fresh or reused service, returning wall time
/// and the envelopes in submission order.
fn run_batch(svc: &ScenarioService, specs: &[ScenarioSpec], workers: usize) -> (f64, Vec<String>) {
    use noc_serve::RunRequest;
    let start = Instant::now();
    let mut frames: Vec<(String, String)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| svc.worker_loop()))
            .collect();
        let (tx, rx) = channel::<String>();
        for (i, spec) in specs.iter().enumerate() {
            svc.submit(
                RunRequest {
                    id: format!("p{i}"),
                    spec: spec.clone(),
                    priority: 0,
                    stream: None,
                },
                tx.clone(),
            );
        }
        svc.drain();
        svc.shutdown();
        drop(tx);
        for frame in rx {
            let id = Json::parse(&frame)
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            frames.push((id, frame));
        }
        for h in handles {
            let _ = h.join();
        }
    });
    frames.sort();
    (
        start.elapsed().as_secs_f64(),
        frames.into_iter().map(|(_, f)| f).collect(),
    )
}

fn bench(quick: bool) {
    let points = 8;
    let specs = sweep_batch(quick, points);
    let trials = if quick { 2 } else { 3 };
    println!(
        "noc-serve cache A/B: {points}-point sweep, mesh {}x{}, warm-up {} cycles, {trials} interleaved trials",
        specs[0].mesh, specs[0].mesh, specs[0].phases.warmup_cycles
    );

    let mut t_indep = f64::MAX;
    let mut t_shared = f64::MAX;
    let mut t_replay = f64::MAX;
    let mut replay_identical = true;
    for _ in 0..trials {
        // A: independent runs — every point pays the full warm-up.
        let start = Instant::now();
        for spec in &specs {
            noc_bench::run_synthetic_spec(spec, None).expect("independent run");
        }
        t_indep = t_indep.min(start.elapsed().as_secs_f64());

        // B: one service, one worker — the batch shares one warm-up blob.
        let svc = ScenarioService::new(ServeConfig::default());
        let (t, first) = run_batch(&svc, &specs, 1);
        t_shared = t_shared.min(t);
        let st = svc.stats();
        assert_eq!(st.warm_misses, 1, "first point captures the warm-up");
        assert_eq!(st.warm_hits as usize, points - 1, "the rest restore it");

        // Replay: identical batch against the warm service — pure result-
        // cache hits, byte-identical envelopes, zero new simulations.
        let sim_runs_before = st.sim_runs;
        let (t, second) = run_batch(&svc, &specs, 1);
        t_replay = t_replay.min(t);
        // Frame labels legitimately differ (miss vs hit) — the byte-
        // identity contract is on the envelope payloads.
        let env = |frame: &String| {
            let at = frame.find("\"envelope\":").expect("result frame") + "\"envelope\":".len();
            frame[at..frame.len() - 1].to_string()
        };
        replay_identical &=
            first.len() == second.len() && first.iter().map(env).eq(second.iter().map(env));
        assert_eq!(
            svc.stats().sim_runs,
            sim_runs_before,
            "replay simulates nothing"
        );
    }
    println!("  independent runs      {t_indep:>8.3} s");
    println!(
        "  shared warm-up        {t_shared:>8.3} s  ({:.2}x)",
        t_indep / t_shared
    );
    println!(
        "  result-cache replay   {t_replay:>8.3} s  ({:.0}x, byte-identical: {replay_identical})",
        t_indep / t_replay
    );

    // Worker-pool scaling on independent-seed points (no shared warm-up).
    let scale_specs: Vec<ScenarioSpec> = (0..points)
        .map(|i| {
            let mut s = sweep_batch(quick, 1).remove(0);
            s.seed = 100 + i as u64;
            s
        })
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n = ServeConfig::default().workers;
    let mut t1 = f64::MAX;
    let mut tn = f64::MAX;
    for _ in 0..trials {
        let svc = ScenarioService::new(ServeConfig::default());
        let (t, _) = run_batch(&svc, &scale_specs, 1);
        t1 = t1.min(t);
        let svc = ScenarioService::new(ServeConfig::default());
        let (t, _) = run_batch(&svc, &scale_specs, n);
        tn = tn.min(t);
    }
    println!(
        "  worker pool           {t1:>8.3} s (1 worker) vs {tn:.3} s ({n} workers, {cores}-core host): {:.2}x",
        t1 / tn
    );
}
