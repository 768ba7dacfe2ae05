//! The JSON-lines wire protocol: one request object per line in, one
//! frame object per line out, every frame tagged with the request id it
//! answers so concurrent requests can share a connection.
//!
//! Requests (`"op"` defaults to `"run"`):
//!
//! ```json
//! {"op":"run","id":"r1","spec":{...},"priority":5,"stream":true,"window":500}
//! {"op":"cancel","id":"r1"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! A bare [`ScenarioSpec`] object (recognised by its `"backend"` field)
//! is accepted as shorthand for a run request, so existing scenario files
//! can be piped straight into the one-shot stdin mode.
//!
//! Response frames (`"kind"`): `result` (with `cache`/`warm` provenance
//! and the full result `envelope`), `window` (a live telemetry metrics
//! window), `cancelled` (the id and kind only), `error`, `stats`, `bye`.
//! Result envelopes are spliced into the frame as the exact cached bytes
//! — a cache hit is byte-identical to the frame the original run
//! produced.

use noc_scenario::{Json, ScenarioSpec};
use serde::Value;

/// One parsed request line. One transient value per line, so the spec
/// payload of `Run` stays unboxed despite the variant size skew.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Request {
    Run(RunRequest),
    Cancel { id: String },
    Stats,
    Shutdown,
}

/// A `run` request.
#[derive(Debug)]
pub struct RunRequest {
    pub id: String,
    pub spec: ScenarioSpec,
    /// Higher runs first; FIFO among equals. Default 0.
    pub priority: i64,
    /// `Some(window_cycles)` subscribes the request to live telemetry
    /// window frames during its measurement phase.
    pub stream: Option<u64>,
}

/// Metrics-window length when `"stream": true` names no `"window"`.
pub const DEFAULT_STREAM_WINDOW: u64 = 1_000;

/// Parse one request line. `fallback_id` names bare-spec shorthand
/// requests (the callers count submissions, so every request needs an
/// id). Errors are human-readable strings, reported as `error` frames.
pub fn parse_request(line: &str, fallback_id: &str) -> Result<Request, String> {
    let j = Json::parse(line).map_err(|e| e.to_string())?;
    let op = match j.get("op") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| "\"op\" must be a string".to_string())?,
        // Bare scenario-spec shorthand.
        None if j.get("backend").is_some() && j.get("spec").is_none() => {
            let spec = ScenarioSpec::from_json(&j).map_err(|e| e.to_string())?;
            return Ok(Request::Run(RunRequest {
                id: fallback_id.to_string(),
                spec: sanitize(spec),
                priority: 0,
                stream: None,
            }));
        }
        None => "run",
    };
    match op {
        "run" => {
            let id = j
                .get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| fallback_id.to_string());
            let spec_node = j
                .get("spec")
                .ok_or_else(|| "run request needs a \"spec\" object".to_string())?;
            let spec = ScenarioSpec::from_json(spec_node).map_err(|e| e.to_string())?;
            let priority = j
                .get("priority")
                .map(|p| {
                    p.as_f64()
                        .filter(|x| x.fract() == 0.0)
                        .map(|x| x as i64)
                        .ok_or_else(|| "\"priority\" must be an integer".to_string())
                })
                .transpose()?
                .unwrap_or(0);
            let stream = match j.get("stream") {
                Some(Json::Bool(true)) => Some(
                    j.get("window")
                        .map(|w| {
                            w.as_u64()
                                .filter(|&w| w > 0)
                                .ok_or_else(|| "\"window\" must be a positive integer".to_string())
                        })
                        .transpose()?
                        .unwrap_or(DEFAULT_STREAM_WINDOW),
                ),
                Some(Json::Bool(false)) | None => None,
                Some(_) => return Err("\"stream\" must be a boolean".to_string()),
            };
            Ok(Request::Run(RunRequest {
                id,
                spec: sanitize(spec),
                priority,
                stream,
            }))
        }
        "cancel" => {
            let id = j
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel request needs a string \"id\"".to_string())?;
            Ok(Request::Cancel { id: id.to_string() })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Strip host-local runtime plumbing from a submitted spec: the service
/// manages warm-up blobs through its own content-addressed cache, so
/// file-based checkpoint paths are ignored rather than honoured on the
/// server's filesystem.
fn sanitize(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.checkpoint_out = None;
    spec.checkpoint_from = None;
    spec
}

/// JSON string literal (quoted + escaped) for splicing ids into frames.
fn quote(s: &str) -> String {
    serde_json::to_string(&Value::Str(s.to_string())).expect("string serialisation is infallible")
}

/// `envelope` is spliced verbatim: for cache hits these are the exact
/// bytes the original run produced, making hit frames byte-identical.
pub fn result_frame(id: &str, cache: &str, warm: &str, envelope: &str) -> String {
    format!(
        "{{\"id\":{},\"kind\":\"result\",\"cache\":\"{cache}\",\"warm\":\"{warm}\",\"envelope\":{envelope}}}",
        quote(id)
    )
}

/// `body` is a serialised [`noc_sim::telemetry::metrics::window_frame`].
pub fn window_line(id: &str, body: &str) -> String {
    format!(
        "{{\"id\":{},\"kind\":\"window\",\"data\":{body}}}",
        quote(id)
    )
}

pub fn cancelled_frame(id: &str) -> String {
    format!("{{\"id\":{},\"kind\":\"cancelled\"}}", quote(id))
}

pub fn error_frame(id: Option<&str>, msg: &str) -> String {
    format!(
        "{{\"id\":{},\"kind\":\"error\",\"error\":{}}}",
        quote(id.unwrap_or("")),
        quote(msg)
    )
}

pub fn bye_frame() -> String {
    "{\"kind\":\"bye\"}".to_string()
}

/// The `"kind"` of a frame line (cheap client-side classification).
pub fn frame_kind(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("kind")
        .and_then(Json::as_str)
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"backend": "PacketVc4", "mesh": 4,
        "traffic": {"mode": "synthetic", "pattern": "UR", "rate": 0.05},
        "phases": {"warmup_cycles": 100, "measure_cycles": 500}, "seed": 1}"#;

    #[test]
    fn parses_run_cancel_stats_shutdown() {
        let line = format!(
            "{{\"op\":\"run\",\"id\":\"a\",\"priority\":3,\"stream\":true,\"spec\":{SPEC}}}"
        );
        match parse_request(&line, "fallback").unwrap() {
            Request::Run(r) => {
                assert_eq!(r.id, "a");
                assert_eq!(r.priority, 3);
                assert_eq!(r.stream, Some(DEFAULT_STREAM_WINDOW));
                assert_eq!(r.spec.mesh, 4);
            }
            other => panic!("expected run, got {other:?}"),
        }
        assert!(matches!(
            parse_request("{\"op\":\"cancel\",\"id\":\"a\"}", "f").unwrap(),
            Request::Cancel { .. }
        ));
        assert!(matches!(
            parse_request("{\"op\":\"stats\"}", "f").unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request("{\"op\":\"shutdown\"}", "f").unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn bare_spec_shorthand_gets_the_fallback_id() {
        match parse_request(SPEC, "req-7").unwrap() {
            Request::Run(r) => {
                assert_eq!(r.id, "req-7");
                assert_eq!(r.priority, 0);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_paths_are_stripped_from_submitted_specs() {
        let line = format!(
            "{{\"id\":\"a\",\"spec\":{}}}",
            SPEC.trim_end_matches('}').to_string() + ", \"checkpoint_out\": \"/tmp/evil\"}"
        );
        match parse_request(&line, "f").unwrap() {
            Request::Run(r) => assert_eq!(r.spec.checkpoint_out, None),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn frames_are_parseable_json_lines() {
        for line in [
            result_frame("a\"b", "hit", "none", "{\"schema_version\":2}"),
            window_line("x", "{\"start\":0,\"end\":10,\"metrics\":{}}"),
            cancelled_frame("x"),
            error_frame(Some("x"), "boom \"quoted\""),
            error_frame(None, "parse error"),
            bye_frame(),
        ] {
            assert!(
                Json::parse(&line).is_ok(),
                "frame must be valid JSON: {line}"
            );
            assert!(frame_kind(&line).is_some());
        }
        assert_eq!(
            frame_kind(&cancelled_frame("x")).as_deref(),
            Some("cancelled")
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"run\"}", "\"spec\""),
            ("{\"op\":\"cancel\"}", "\"id\""),
            ("not json", "expected"),
        ] {
            let e = parse_request(line, "f").unwrap_err();
            assert!(e.contains(needle), "{e:?} should mention {needle:?}");
        }
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let e = parse_request(&"[".repeat(50_000), "f").unwrap_err();
        assert!(e.contains("nesting"), "{e:?}");
    }
}
