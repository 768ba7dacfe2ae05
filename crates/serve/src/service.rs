//! The scenario service proper: a priority scheduler, a scoped-thread
//! worker pool, and the glue between requests and the two-level cache.
//!
//! Concurrency layout — three independent locks, never held together:
//!
//! * `sched` (+ `work`/`idle` condvars) — the job queue, the in-flight
//!   single-flight index, and per-job subscriber lists.
//! * `caches` — the result/warm-up LRUs ([`crate::cache`]).
//! * `stats` — plain counters.
//!
//! A *job* is one simulation keyed by [`result_key`]; a *subscriber* is
//! one request attached to it. Requests arriving for a key already in
//! flight attach to the existing job instead of spawning a second
//! identical simulation (single-flight dedup), and every subscriber gets
//! the same cached envelope bytes when it finishes.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use noc_bench::{run_spec, run_synthetic_spec_ctl, ServeRun, SpecOutcome, WarmStart};
use noc_scenario::{result_envelope, result_key, warmup_key, CacheKey, ScenarioSpec, TrafficSpec};
use noc_sim::telemetry::metrics::window_frame;
use noc_sim::{Fabric, TelemetryConfig};
use noc_traffic::RunControl;
use serde::Value;

use crate::cache::{HitSource, ResultCache, WarmCache};
use crate::proto::{cancelled_frame, error_frame, result_frame, window_line, RunRequest};

/// Server-side knobs (one-to-one with the CLI flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads simulating concurrently.
    pub workers: usize,
    /// In-memory result-cache entries.
    pub cache_max: usize,
    /// In-memory warm-up checkpoint entries (blobs are large, so this
    /// budget is separate and smaller).
    pub warm_max: usize,
    /// On-disk store surviving restarts (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            cache_max: 256,
            warm_max: 16,
            cache_dir: None,
        }
    }
}

/// Service counters, snapshotted into `stats` frames.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    pub requests: u64,
    /// Result-cache hits answered without simulating (memory + disk).
    pub cache_hits: u64,
    /// The subset of `cache_hits` served from the on-disk store.
    pub disk_hits: u64,
    pub cache_misses: u64,
    /// Requests attached to an already-in-flight identical job.
    pub dedup_hits: u64,
    /// Warm-up phases skipped by restoring a cached checkpoint.
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub errors: u64,
    /// Simulations actually executed — stays flat across cache hits.
    pub sim_runs: u64,
}

/// One request attached to a job.
struct Sub {
    id: String,
    out: Sender<String>,
    /// Cache provenance reported in this subscriber's result frame
    /// (`"miss"` for the job creator, `"dedup"` for attached requests).
    label: &'static str,
    /// Live telemetry window length, when subscribed to streaming.
    stream: Option<u64>,
}

/// One simulation in flight (or queued), shared by its subscribers.
struct Job {
    key: CacheKey,
    spec: ScenarioSpec,
    subs: Vec<Sub>,
    /// Subscribers that cancelled while others kept the job alive; they
    /// get a `cancelled` frame when the job settles.
    cancel_subs: Vec<Sub>,
    cancel: Arc<AtomicBool>,
    running: bool,
}

/// Queue rank: higher priority first, FIFO among equals.
#[derive(PartialEq, Eq)]
struct Rank {
    priority: i64,
    seq: u64,
    job: u64,
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct Sched {
    queue: BinaryHeap<Rank>,
    jobs: HashMap<u64, Job>,
    /// Single-flight index: result key → live job id.
    inflight: HashMap<CacheKey, u64>,
    next_job: u64,
    next_seq: u64,
    shutdown: bool,
}

struct Caches {
    results: ResultCache,
    warm: WarmCache,
}

/// The shared service state. Workers, connection handlers and the
/// one-shot driver all hold `&ScenarioService` (scoped threads).
pub struct ScenarioService {
    sched: Mutex<Sched>,
    /// Signalled when the queue gains work or shutdown is requested.
    work: Condvar,
    /// Signalled when a job settles (for [`ScenarioService::drain`]).
    idle: Condvar,
    caches: Mutex<Caches>,
    stats: Mutex<ServeStats>,
    code_version: String,
    config: ServeConfig,
}

impl ScenarioService {
    pub fn new(config: ServeConfig) -> Self {
        ScenarioService {
            sched: Mutex::new(Sched::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            caches: Mutex::new(Caches {
                results: ResultCache::new(config.cache_max, config.cache_dir.clone()),
                warm: WarmCache::new(config.warm_max, config.cache_dir.clone()),
            }),
            stats: Mutex::new(ServeStats::default()),
            code_version: noc_scenario::code_version(),
            config,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn stats(&self) -> ServeStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Submit one run request; every response frame goes to `out`.
    pub fn submit(&self, req: RunRequest, out: Sender<String>) {
        self.stats.lock().expect("stats lock").requests += 1;
        let key = result_key(&req.spec, &self.code_version);

        // Level 1: a finished envelope answers without simulating.
        let hit = self.caches.lock().expect("caches lock").results.get(&key);
        if let Some((env, src)) = hit {
            let mut st = self.stats.lock().expect("stats lock");
            st.cache_hits += 1;
            let label = match src {
                HitSource::Memory => "hit",
                HitSource::Disk => {
                    st.disk_hits += 1;
                    "disk"
                }
            };
            drop(st);
            let _ = out.send(result_frame(&req.id, label, "none", &env));
            return;
        }

        let mut s = self.sched.lock().expect("sched lock");
        if s.shutdown {
            let _ = out.send(error_frame(Some(&req.id), "server is shutting down"));
            return;
        }
        let sub = Sub {
            id: req.id,
            out,
            label: "miss",
            stream: req.stream,
        };
        // Single-flight: attach to an identical in-flight job.
        if let Some(&job_id) = s.inflight.get(&key) {
            if let Some(job) = s.jobs.get_mut(&job_id) {
                job.subs.push(Sub {
                    label: "dedup",
                    ..sub
                });
                self.stats.lock().expect("stats lock").dedup_hits += 1;
                return;
            }
        }
        let job_id = s.next_job;
        s.next_job += 1;
        let seq = s.next_seq;
        s.next_seq += 1;
        s.inflight.insert(key, job_id);
        s.jobs.insert(
            job_id,
            Job {
                key,
                spec: req.spec,
                subs: vec![sub],
                cancel_subs: Vec::new(),
                cancel: Arc::new(AtomicBool::new(false)),
                running: false,
            },
        );
        s.queue.push(Rank {
            priority: req.priority,
            seq,
            job: job_id,
        });
        self.stats.lock().expect("stats lock").cache_misses += 1;
        self.work.notify_one();
    }

    /// Cancel the request with this id. Cancelling the last subscriber
    /// cancels the underlying job: immediately if still queued, at the
    /// next simulated tick if running.
    pub fn cancel(&self, id: &str, out: &Sender<String>) {
        let mut s = self.sched.lock().expect("sched lock");
        let Some((&job_id, _)) = s
            .jobs
            .iter()
            .find(|(_, j)| j.subs.iter().any(|sub| sub.id == id))
        else {
            let _ = out.send(error_frame(Some(id), "unknown or already finished request"));
            return;
        };
        let job = s.jobs.get_mut(&job_id).expect("job id just found");
        let at = job.subs.iter().position(|sub| sub.id == id).expect("sub");
        let sub = job.subs.remove(at);
        job.cancel_subs.push(sub);
        if !job.subs.is_empty() {
            return; // Other subscribers keep the job alive.
        }
        job.cancel.store(true, AtomicOrdering::Relaxed);
        if !job.running {
            // Never started: settle it right here.
            let job = s.jobs.remove(&job_id).expect("job still present");
            if s.inflight.get(&job.key) == Some(&job_id) {
                s.inflight.remove(&job.key);
            }
            drop(s);
            self.stats.lock().expect("stats lock").cancelled += 1;
            for sub in job.cancel_subs {
                let _ = sub.out.send(cancelled_frame(&sub.id));
            }
            self.idle.notify_all();
        }
    }

    /// Ask workers to exit once the queue is empty.
    pub fn shutdown(&self) {
        self.sched.lock().expect("sched lock").shutdown = true;
        self.work.notify_all();
    }

    /// Block until no job is queued or running.
    pub fn drain(&self) {
        let mut s = self.sched.lock().expect("sched lock");
        while !s.jobs.is_empty() {
            s = self.idle.wait(s).expect("sched lock");
        }
    }

    /// Worker thread body: claim the highest-priority queued job, run it,
    /// publish the envelope, repeat until shutdown.
    pub fn worker_loop(&self) {
        while let Some(claimed) = self.claim(true) {
            self.run_claimed(claimed);
        }
    }

    /// Pop and execute the highest-priority queued job on the calling
    /// thread, without blocking. Returns `false` when nothing is queued.
    ///
    /// This is the single-worker inline mode: with `--workers 1` the
    /// entry points skip the scoped worker pool entirely and interleave
    /// simulation with request handling on the accept thread, so a
    /// one-shot batch costs no thread spawns and no condvar traffic.
    pub fn try_run_one(&self) -> bool {
        match self.claim(false) {
            Some(claimed) => {
                self.run_claimed(claimed);
                true
            }
            None => false,
        }
    }

    /// Run every currently queued job on the calling thread.
    pub fn run_queued(&self) {
        while self.try_run_one() {}
    }

    /// Claim the next queued job, marking it running. `block` selects
    /// between the pooled-worker discipline (wait on the `work` condvar
    /// until shutdown) and the inline one (return `None` immediately).
    fn claim(&self, block: bool) -> Option<Claimed> {
        let mut s = self.sched.lock().expect("sched lock");
        loop {
            match s.queue.pop() {
                Some(rank) => {
                    // Entries for jobs cancelled while queued are left
                    // stale in the heap; skip them.
                    let Some(job) = s.jobs.get_mut(&rank.job) else {
                        continue;
                    };
                    job.running = true;
                    let streams: Vec<(String, u64, Sender<String>)> = job
                        .subs
                        .iter()
                        .filter_map(|sub| sub.stream.map(|w| (sub.id.clone(), w, sub.out.clone())))
                        .collect();
                    return Some(Claimed {
                        job_id: rank.job,
                        spec: job.spec.clone(),
                        cancel: Arc::clone(&job.cancel),
                        streams,
                    });
                }
                None if !block || s.shutdown => return None,
                None => s = self.work.wait(s).expect("sched lock"),
            }
        }
    }

    fn run_claimed(&self, claimed: Claimed) {
        self.stats.lock().expect("stats lock").sim_runs += 1;
        self.execute(
            claimed.job_id,
            claimed.spec,
            claimed.cancel,
            claimed.streams,
        );
    }

    fn execute(
        &self,
        job_id: u64,
        spec: ScenarioSpec,
        cancel: Arc<AtomicBool>,
        streams: Vec<(String, u64, Sender<String>)>,
    ) {
        let settled = match &spec.traffic {
            // Trace replays share the synthetic tick-controlled runner
            // (same cancel/stream seam, same warm-up cache discipline).
            TrafficSpec::Synthetic { .. } | TrafficSpec::Trace { .. } => {
                self.run_controlled(&spec, &cancel, &streams)
            }
            // Hetero runs have no tick-granularity control seam; honour a
            // cancel that lands before the run starts, else run to done.
            TrafficSpec::Hetero { .. } => {
                if cancel.load(AtomicOrdering::Relaxed) {
                    Settled::Cancelled
                } else {
                    match run_spec(&spec) {
                        Ok(outcome) => Settled::Done {
                            outcome,
                            warm: "none",
                        },
                        Err(e) => Settled::Error(e.to_string()),
                    }
                }
            }
        };

        // Publish before unregistering the job so late-attaching dedup
        // subscribers can never miss both the cache and the job.
        let published = match &settled {
            Settled::Done { outcome, warm } => {
                let envelope = Arc::new(
                    serde_json::to_string(&result_envelope(&spec, outcome))
                        .expect("envelopes serialise"),
                );
                let key = result_key(&spec, &self.code_version);
                self.caches
                    .lock()
                    .expect("caches lock")
                    .results
                    .put(key, Arc::clone(&envelope));
                Some((envelope, *warm))
            }
            _ => None,
        };

        let job = {
            let mut s = self.sched.lock().expect("sched lock");
            let job = s.jobs.remove(&job_id).expect("running job is registered");
            if s.inflight.get(&job.key) == Some(&job_id) {
                s.inflight.remove(&job.key);
            }
            job
        };

        let mut st = self.stats.lock().expect("stats lock");
        match &settled {
            Settled::Done { .. } => st.completed += 1,
            Settled::Cancelled => st.cancelled += 1,
            Settled::Error(_) => st.errors += 1,
        }
        drop(st);

        for sub in &job.subs {
            let frame = match (&settled, &published) {
                (Settled::Done { .. }, Some((env, warm))) => {
                    result_frame(&sub.id, sub.label, warm, env)
                }
                (Settled::Cancelled, _) => cancelled_frame(&sub.id),
                (Settled::Error(e), _) => error_frame(Some(&sub.id), e),
                (Settled::Done { .. }, None) => unreachable!("done runs are published"),
            };
            let _ = sub.out.send(frame);
        }
        for sub in &job.cancel_subs {
            let _ = sub.out.send(cancelled_frame(&sub.id));
        }
        self.idle.notify_all();
    }

    fn run_controlled(
        &self,
        spec: &ScenarioSpec,
        cancel: &Arc<AtomicBool>,
        streams: &[(String, u64, Sender<String>)],
    ) -> Settled {
        // Level 2: share the warm-up prefix across the sweep batch.
        let wk = warmup_key(spec, &self.code_version);
        let cached_warm = wk
            .as_ref()
            .and_then(|k| self.caches.lock().expect("caches lock").warm.get(k));
        let warm_label = match (&wk, &cached_warm) {
            (None, _) => "none",
            (Some(_), Some(_)) => "hit",
            (Some(_), None) => "miss",
        };
        if wk.is_some() {
            let mut st = self.stats.lock().expect("stats lock");
            match cached_warm {
                Some(_) => st.warm_hits += 1,
                None => st.warm_misses += 1,
            }
        }
        let warm_start = match &cached_warm {
            Some(ck) => WarmStart::Restore(ck),
            None => WarmStart::Fresh {
                capture: wk.is_some(),
            },
        };
        // Streaming telemetry: windowed metrics only (no ring events), at
        // the finest window any subscriber asked for.
        let stream_cfg = streams
            .iter()
            .map(|(_, w, _)| *w)
            .min()
            .map(|window| TelemetryConfig {
                mask: 0,
                capacity: 64,
                sample: 1,
                window,
            });
        let mut ctl = ServeControl {
            cancel,
            streams,
            names: None,
            seen: 0,
        };
        match run_synthetic_spec_ctl(spec, warm_start, stream_cfg.as_ref(), &mut ctl) {
            Ok(ServeRun::Done { point, warm }) => {
                if let (Some(k), Some(ck)) = (wk, warm) {
                    self.caches
                        .lock()
                        .expect("caches lock")
                        .warm
                        .put(k, Arc::new(ck));
                }
                Settled::Done {
                    outcome: SpecOutcome::Synth(point),
                    warm: warm_label,
                }
            }
            Ok(ServeRun::Cancelled) => Settled::Cancelled,
            Err(e) => Settled::Error(e.to_string()),
        }
    }

    /// Snapshot counters + cache occupancy as a `stats` frame line.
    pub fn stats_frame(&self) -> String {
        let st = self.stats();
        let (results_len, warm_len) = {
            let c = self.caches.lock().expect("caches lock");
            (c.results.len(), c.warm.len())
        };
        let counters = [
            ("requests", st.requests),
            ("cache_hits", st.cache_hits),
            ("disk_hits", st.disk_hits),
            ("cache_misses", st.cache_misses),
            ("dedup_hits", st.dedup_hits),
            ("warm_hits", st.warm_hits),
            ("warm_misses", st.warm_misses),
            ("completed", st.completed),
            ("cancelled", st.cancelled),
            ("errors", st.errors),
            ("sim_runs", st.sim_runs),
            ("workers", self.config.workers as u64),
            ("result_cache_len", results_len as u64),
            ("warm_cache_len", warm_len as u64),
        ];
        let data = Value::Object(
            counters
                .iter()
                .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
                .collect(),
        );
        format!(
            "{{\"kind\":\"stats\",\"data\":{}}}",
            serde_json::to_string(&data).expect("stats serialise")
        )
    }
}

/// A queued job claimed for execution (pooled worker or inline).
struct Claimed {
    job_id: u64,
    spec: ScenarioSpec,
    cancel: Arc<AtomicBool>,
    streams: Vec<(String, u64, Sender<String>)>,
}

/// How one job ended. One short-lived value per run, so the size skew
/// of the `Done` payload doesn't justify boxing.
#[allow(clippy::large_enum_variant)]
enum Settled {
    Done {
        outcome: SpecOutcome,
        /// Warm-up cache provenance: `"hit"` / `"miss"` / `"none"`.
        warm: &'static str,
    },
    Cancelled,
    Error(String),
}

/// The per-run [`RunControl`] hook: polls the shared cancel flag every
/// simulated tick and forwards newly closed telemetry windows to the
/// job's streaming subscribers.
struct ServeControl<'a> {
    cancel: &'a AtomicBool,
    streams: &'a [(String, u64, Sender<String>)],
    names: Option<Vec<String>>,
    seen: usize,
}

impl RunControl for ServeControl<'_> {
    fn on_cycle(&mut self, fabric: &mut dyn Fabric) -> bool {
        if self.cancel.load(AtomicOrdering::Relaxed) {
            return false;
        }
        if !self.streams.is_empty() {
            let count = fabric.telemetry_window_count();
            if count > self.seen {
                let names = self
                    .names
                    .get_or_insert_with(|| fabric.telemetry_metric_names());
                for w in fabric.telemetry_windows_from(self.seen) {
                    let body =
                        serde_json::to_string(&window_frame(names, &w)).expect("window serialise");
                    for (id, _, out) in self.streams {
                        let _ = out.send(window_line(id, &body));
                    }
                }
                self.seen = count;
            }
        }
        true
    }
}
