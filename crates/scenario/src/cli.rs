//! Shared command-line conventions for the experiment binaries:
//! `--quick`, `--json <path>`, `--scenario <file>`, `--sweep-threads`,
//! and the `--trace-out`/`--trace-events`/`--trace-sample`/
//! `--metrics-window` telemetry flags.
//!
//! Each flag is looked up on its own by the accessors below, so
//! [`check_cli_args`] runs first and rejects anything outside [`FLAGS`]:
//! a misspelt flag would otherwise be ignored and start the full sweep.
//! A binary with flags of its own (`noc-serve`) passes its own table.

use crate::{ScenarioError, ScenarioSpec};
use noc_sim::TelemetryConfig;

/// Every flag the experiment binaries share, one per line: the flag, its
/// value placeholder if it takes one, and its help text. `--help` prints
/// this list, indented. Other flag tables use the same format.
pub const FLAGS: &str = "\
--quick                    coarse sweep, seconds instead of minutes (also -q)
--json <path>              write the raw points as a result envelope
--scenario <file>          run the JSON spec(s) in <file>, not the built-in figure
--sweep-threads <n>        sweep worker threads (0 = one per core, the default)
--checkpoint-out <path>    write the warm-up as a checkpoint (one-spec --scenario)
--checkpoint-from <path>   restore every spec's warm-up from a checkpoint
--trace-in <path>          replay a NOCTRACE1 packet trace as every spec's traffic
--trace-export <path>      record the injected packets (one-spec --scenario)
--profile-circuits <n>     pre-establish pinned circuits for the top <n> flows
--trace-out <path>         arm tracing: a Chrome trace JSON and a link heatmap
--trace-events <list>      traced kinds: all,flit,circuit,steal,share,gating,sleep
--trace-sample <n>         keep 1 in <n> flit-lifecycle events
--metrics-window <cycles>  metrics snapshot period (0 = one whole-run window)
--help                     print this list (also -h)
";

/// What [`check_args`] found on a command line.
#[derive(Debug, PartialEq, Eq)]
enum ArgCheck {
    Run,
    Help,
}

/// Check `args` (program name excluded) against `flags`, a table in the
/// format of [`FLAGS`]: a flag that takes a value consumes the next
/// argument whatever it looks like, and `--help`/`-h` stops the scan.
fn check_args(args: &[String], flags: &str) -> Result<ArgCheck, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(ArgCheck::Help),
            "-q" => continue,
            _ => {}
        }
        // `Some(placeholder)` for a known flag: the placeholder, if any,
        // is the word after it.
        let flag = flags.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(a.as_str())).then(|| words.next().filter(|w| w.starts_with('<')))
        });
        match flag {
            Some(None) => {}
            Some(Some(value)) => {
                if it.next().is_none() {
                    return Err(format!("{a} needs a value {value}"));
                }
            }
            None if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            None => return Err(format!("unexpected argument {a:?}")),
        }
    }
    Ok(ArgCheck::Run)
}

/// The `--help` text: `flags` under a heading.
fn flag_list(flags: &str) -> String {
    let mut s = String::from("flags:\n");
    for line in flags.lines() {
        s.push_str(&format!("  {line}\n"));
    }
    s
}

/// Print `error: {msg}` and the list of `flags` to stderr, and exit 2.
pub fn usage_error(flags: &str, msg: &str) -> ! {
    eprint!("error: {msg}\n{}", flag_list(flags));
    std::process::exit(2);
}

/// Validate the process arguments against `flags` before anything runs:
/// `--help` or `-h` prints the flag list and exits 0; an unknown flag, a
/// stray argument or a flag missing its value prints `error: …` and the
/// list to stderr and exits 2. Every figure, table and ablation binary
/// calls this first with [`FLAGS`] (through
/// `noc_bench::scenario_mode_ran`), and `noc-serve` with its own table;
/// `network_step` has its own parser.
pub fn check_cli_args(flags: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match check_args(&args, flags) {
        Ok(ArgCheck::Run) => {}
        Ok(ArgCheck::Help) => {
            print!("{}", flag_list(flags));
            std::process::exit(0);
        }
        Err(e) => usage_error(flags, &e),
    }
}

/// `--quick` flag for every experiment binary.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Optional `--json <path>` flag: experiment binaries that support it dump
/// their raw measurement points alongside the printed tables.
pub fn json_flag() -> Option<String> {
    arg_value("--json")
}

/// Optional `--scenario <file>` flag: run the scenario spec(s) from a JSON
/// file instead of the binary's built-in paper configuration.
pub fn scenario_flag() -> Option<String> {
    arg_value("--scenario")
}

/// Optional `--sweep-threads <n>` flag: fan a sweep over `n` worker
/// threads (default `0` = one per available core; `1` = serial). Each
/// sweep point is an independent simulation with its own spec-fixed seed,
/// so the merged results are byte-identical for any thread count. A
/// missing or unparsable value is fatal (exit code 2).
pub fn sweep_threads_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_sweep_threads(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The `--sweep-threads` value in `args`: `0` when the flag is absent.
fn parse_sweep_threads(args: &[String]) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--sweep-threads") else {
        return Ok(0);
    };
    match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--sweep-threads: not a thread count: {v:?}")),
        None => Err("--sweep-threads needs a thread count (0 = one per core)".into()),
    }
}

/// Optional `--checkpoint-out <path>` flag: after the scenario's warm-up
/// phase, write a checkpoint blob to `path` and continue measuring as
/// usual. Needs a single-spec `--scenario`; incompatible with
/// `--trace-out` (telemetry ring state sits outside the snapshot seam).
pub fn checkpoint_out_flag() -> Option<String> {
    arg_value("--checkpoint-out")
}

/// Optional `--checkpoint-from <path>` flag: skip every spec's warm-up by
/// restoring fabric + source state from the blob at `path` — the warm-up
/// fork. Applied to all specs of a sweep, so one warm-up (paid once with
/// `--checkpoint-out`) fans out into many measurement points.
pub fn checkpoint_from_flag() -> Option<String> {
    arg_value("--checkpoint-from")
}

/// Optional `--trace-in <path>` flag: replace every spec's traffic with a
/// replay of the `NOCTRACE1` packet trace at `path` (binary or JSON-lines
/// twin). The trace is content-hashed, so cache keys and envelope echoes
/// follow the trace bytes, never this path.
pub fn trace_in_flag() -> Option<String> {
    arg_value("--trace-in")
}

/// Optional `--trace-export <path>` flag: record every spec's
/// injection-side packet stream (post-policy) and write it to `path`
/// after the run — binary `NOCTRACE1`, or the JSON-lines twin when the
/// path ends in `.jsonl`. Needs a single-spec scenario.
pub fn trace_export_flag() -> Option<String> {
    arg_value("--trace-export")
}

/// Optional `--profile-circuits <n>` flag: profile each spec's workload,
/// plan circuits for its `n` highest-volume eligible flows and
/// pre-establish them pinned before the run (profiled hybrid switching,
/// vs. the default reactive setup).
pub fn profile_circuits_flag() -> Option<String> {
    arg_value("--profile-circuits")
}

/// Optional `--trace-out <path>` flag: arm flit-lifecycle tracing and
/// write a Chrome trace-event (Perfetto-loadable) JSON to `path`. The
/// companion link-utilization heatmap CSV lands next to it.
pub fn trace_out_flag() -> Option<String> {
    arg_value("--trace-out")
}

/// Optional `--trace-events <categories>` flag: comma-separated event
/// categories (`all`, `flit`, `circuit`, `steal`, `share`, `gating`,
/// `sleep`). Default `all`.
pub fn trace_events_flag() -> Option<String> {
    arg_value("--trace-events")
}

/// Optional `--trace-sample <n>` flag: keep 1-in-`n` flit-lifecycle
/// events (protocol events are never sampled). Default 1 = keep all.
pub fn trace_sample_flag() -> Option<String> {
    arg_value("--trace-sample")
}

/// Optional `--metrics-window <cycles>` flag: snapshot the metrics
/// registry every `cycles` simulated cycles (0 = one whole-run window).
pub fn metrics_window_flag() -> Option<String> {
    arg_value("--metrics-window")
}

/// Build a [`TelemetryConfig`] from the telemetry flags. `Ok(None)`
/// means `--trace-out` is absent and the run is untraced; the other
/// three flags only shape the config when tracing is armed. Returns the
/// trace output path alongside the config.
pub fn telemetry_from_cli() -> Result<Option<(String, TelemetryConfig)>, ScenarioError> {
    let Some(path) = trace_out_flag() else {
        return Ok(None);
    };
    let mut cfg = TelemetryConfig::default();
    if let Some(spec) = trace_events_flag() {
        cfg.mask = noc_sim::telemetry::parse_event_mask(&spec).map_err(ScenarioError::Parse)?;
    }
    if let Some(s) = trace_sample_flag() {
        cfg.sample = s
            .parse()
            .map_err(|_| ScenarioError::Parse(format!("--trace-sample: not a number: {s:?}")))?;
    }
    if let Some(s) = metrics_window_flag() {
        cfg.window = s
            .parse()
            .map_err(|_| ScenarioError::Parse(format!("--metrics-window: not a number: {s:?}")))?;
    }
    Ok(Some((path, cfg)))
}

/// The argument after `flag`, if `flag` is on the command line.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Load the `--scenario` file when given: `Ok(None)` means the flag is
/// absent and the binary should run its built-in configuration. The
/// `--checkpoint-out` / `--checkpoint-from` flags are folded into the
/// loaded specs here, so every binary that runs scenarios gets them.
pub fn scenario_specs_from_cli() -> Result<Option<Vec<ScenarioSpec>>, ScenarioError> {
    let Some(path) = scenario_flag() else {
        return Ok(None);
    };
    let mut specs = ScenarioSpec::load(&path)?;
    if let Some(out) = checkpoint_out_flag() {
        if specs.len() != 1 {
            return Err(ScenarioError::Checkpoint(
                "--checkpoint-out needs a single-spec scenario (one warm-up, \
                 one blob)"
                    .into(),
            ));
        }
        if checkpoint_from_flag().is_some() {
            return Err(ScenarioError::Checkpoint(
                "give --checkpoint-out or --checkpoint-from, not both".into(),
            ));
        }
        specs[0].checkpoint_out = Some(out);
    }
    if let Some(from) = checkpoint_from_flag() {
        for s in &mut specs {
            s.checkpoint_from = Some(from.clone());
        }
    }
    if let Some(path) = trace_in_flag() {
        let bytes = std::fs::read(&path)
            .map_err(|e| ScenarioError::Parse(format!("--trace-in {path:?}: {e}")))?;
        let trace = noc_workload::PacketTrace::decode(&bytes)
            .map_err(|e| ScenarioError::Parse(format!("--trace-in {path:?}: {e}")))?;
        let trace = std::sync::Arc::new(trace);
        for s in &mut specs {
            if matches!(s.traffic, crate::TrafficSpec::Hetero { .. }) {
                return Err(ScenarioError::Parse(
                    "--trace-in cannot replace hetero traffic (its runner owns \
                     the workload model)"
                        .into(),
                ));
            }
            let routers = s.topo().len();
            if trace.nodes as usize != routers {
                return Err(ScenarioError::Parse(format!(
                    "--trace-in: trace was captured on {} nodes but the \
                     scenario topology has {routers}",
                    trace.nodes
                )));
            }
            s.traffic = crate::TrafficSpec::trace(std::sync::Arc::clone(&trace));
        }
    }
    if let Some(path) = trace_export_flag() {
        if specs.len() != 1 {
            return Err(ScenarioError::Parse(
                "--trace-export needs a single-spec scenario (one run, one \
                 trace)"
                    .into(),
            ));
        }
        if specs[0].checkpoint_from.is_some() {
            return Err(ScenarioError::Parse(
                "--trace-export cannot restore from a checkpoint: the warm-up \
                 injections it must record are skipped"
                    .into(),
            ));
        }
        specs[0].trace_export = Some(path);
    }
    if let Some(s) = profile_circuits_flag() {
        let n: u32 = s.parse().map_err(|_| {
            ScenarioError::Parse(format!("--profile-circuits: not a number: {s:?}"))
        })?;
        for spec in &mut specs {
            spec.profile_circuits = Some(n);
        }
    }
    Ok(Some(specs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_and_their_values_pass() {
        let a = args(&[
            "--quick",
            "--json",
            "out.json",
            "--sweep-threads",
            "2",
            "-q",
            "--trace-out",
            "t.json",
            "--trace-events",
            "flit,circuit",
        ]);
        assert_eq!(check_args(&a, FLAGS), Ok(ArgCheck::Run));
        assert_eq!(check_args(&[], FLAGS), Ok(ArgCheck::Run));
    }

    #[test]
    fn a_value_may_start_with_dashes() {
        // The value is taken as given, not read as a flag.
        let a = args(&["--json", "--out.json", "--quick"]);
        assert_eq!(check_args(&a, FLAGS), Ok(ArgCheck::Run));
        let a = args(&["--scenario", "--qiuck"]);
        assert_eq!(check_args(&a, FLAGS), Ok(ArgCheck::Run));
    }

    #[test]
    fn unknown_flags_stray_arguments_and_missing_values_are_rejected() {
        let err = check_args(&args(&["--qiuck"]), FLAGS).unwrap_err();
        assert!(
            err.contains("unknown flag") && err.contains("--qiuck"),
            "{err}"
        );
        let err = check_args(&args(&["--quick", "extra"]), FLAGS).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let err = check_args(&args(&["--quick", "--json"]), FLAGS).unwrap_err();
        assert!(err.contains("--json needs a value"), "{err}");
        assert!(check_args(&args(&["-x"]), FLAGS).is_err());
    }

    #[test]
    fn help_stops_the_scan() {
        assert_eq!(check_args(&args(&["--help"]), FLAGS), Ok(ArgCheck::Help));
        assert_eq!(
            check_args(&args(&["--quick", "-h", "--bogus"]), FLAGS),
            Ok(ArgCheck::Help)
        );
        // A value that reads `--help` is still a value.
        assert_eq!(
            check_args(&args(&["--json", "--help"]), FLAGS),
            Ok(ArgCheck::Run)
        );
        // An error before the help flag wins.
        assert!(check_args(&args(&["--bogus", "--help"]), FLAGS).is_err());
    }

    #[test]
    fn a_binary_checks_against_its_own_table() {
        let table =
            "--listen <socket>  serve\n--bench            measure\n--help             help\n";
        let a = args(&["--listen", "/tmp/s", "--bench"]);
        assert_eq!(check_args(&a, table), Ok(ArgCheck::Run));
        let err = check_args(&args(&["--lisen", "/tmp/s"]), table).unwrap_err();
        assert!(err.contains("unknown flag \"--lisen\""), "{err}");
        // A shared flag is unknown to a table that does not list it.
        assert!(check_args(&args(&["--json", "x"]), table).is_err());
        let err = check_args(&args(&["--listen"]), table).unwrap_err();
        assert!(err.contains("--listen needs a value <socket>"), "{err}");
    }

    #[test]
    fn every_accessor_flag_is_listed() {
        for flag in [
            "--quick",
            "--json",
            "--scenario",
            "--sweep-threads",
            "--checkpoint-out",
            "--checkpoint-from",
            "--trace-in",
            "--trace-export",
            "--profile-circuits",
            "--trace-out",
            "--trace-events",
            "--trace-sample",
            "--metrics-window",
        ] {
            assert!(
                FLAGS
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(flag)),
                "{flag} missing from FLAGS"
            );
        }
    }

    #[test]
    fn sweep_threads_defaults_to_one_per_core() {
        assert_eq!(parse_sweep_threads(&args(&["fig4", "--quick"])).unwrap(), 0);
    }

    #[test]
    fn sweep_threads_parses_a_count() {
        let a = args(&["fig4", "--sweep-threads", "3", "--quick"]);
        assert_eq!(parse_sweep_threads(&a).unwrap(), 3);
        assert_eq!(
            parse_sweep_threads(&args(&["x", "--sweep-threads", "1"])).unwrap(),
            1
        );
    }

    #[test]
    fn sweep_threads_rejects_missing_or_bad_values() {
        for bad in [
            &["fig4", "--sweep-threads"][..],
            &["fig4", "--sweep-threads", "two"],
            &["fig4", "--sweep-threads", "-1"],
            &["fig4", "--sweep-threads", ""],
        ] {
            assert!(parse_sweep_threads(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
