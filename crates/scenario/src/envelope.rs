//! Self-describing result files: every experiment binary's `--json`
//! output is wrapped in one envelope carrying a schema version and an
//! echo of the scenario that produced the data.

use serde::{Serialize, Value};

/// Version of the result-file schema. Bump when the envelope shape or the
/// meaning of existing fields changes.
///
/// * **1** — initial envelope: `{schema_version, scenario, data}` where
///   `scenario` echoes the driving [`ScenarioSpec`](crate::ScenarioSpec)
///   (or a binary-specific sweep description) and `data` holds the
///   measurement points the binary previously wrote at top level.
/// * **2** — adds an *optional* trailing `telemetry` field holding trace
///   aggregates and metric-window snapshots when a run was traced
///   (`--trace-out`). The first three fields are byte-compatible with
///   version 1, so v1 readers that index by name keep working.
/// * **3** — `NetStats` (the `stats` of every point) drops its
///   per-class latency split (`class_latency`) and its
///   configuration-packet count. The data split copied the headline
///   latency fields, and the configuration split and count read 0 on
///   every backend.
pub const SCHEMA_VERSION: u32 = 3;

/// Wrap measurement data in the shared result envelope.
pub fn result_envelope<S: Serialize + ?Sized, T: Serialize + ?Sized>(
    scenario: &S,
    data: &T,
) -> Value {
    result_envelope_with_telemetry(scenario, data, None)
}

/// [`result_envelope`] with an optional `telemetry` block (schema v2).
/// `None` produces exactly the v1 field set.
pub fn result_envelope_with_telemetry<S: Serialize + ?Sized, T: Serialize + ?Sized>(
    scenario: &S,
    data: &T,
    telemetry: Option<Value>,
) -> Value {
    let mut fields = vec![
        (
            "schema_version".to_string(),
            Value::UInt(SCHEMA_VERSION as u64),
        ),
        ("scenario".to_string(), scenario.to_value()),
        ("data".to_string(), data.to_value()),
    ];
    if let Some(t) = telemetry {
        fields.push(("telemetry".to_string(), t));
    }
    Value::Object(fields)
}

/// Serialize any measurement structure to pretty JSON on disk.
pub fn write_json<T: Serialize + ?Sized>(path: &str, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_version_scenario_and_data() {
        let v = result_envelope("echo", &[1u64, 2, 3][..]);
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(
            fields[0],
            (
                "schema_version".to_string(),
                Value::UInt(SCHEMA_VERSION as u64)
            )
        );
        assert_eq!(
            fields[1],
            ("scenario".to_string(), Value::Str("echo".into()))
        );
        assert_eq!(
            fields[2],
            (
                "data".to_string(),
                Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)])
            )
        );
        // The envelope itself serializes (Value is identity-serializable).
        assert!(serde_json::to_string_pretty(&v)
            .unwrap()
            .contains("schema_version"));
    }

    /// Version-1 compatibility: a v1 reader sees the same first three
    /// fields in the same order, and an untraced run adds no fourth
    /// field at all.
    #[test]
    fn v2_envelope_is_v1_compatible_when_untraced() {
        let v = result_envelope("echo", &7u64);
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), 3, "no telemetry key without a trace");
        assert_eq!(fields[0].0, "schema_version");
        assert_eq!(fields[1].0, "scenario");
        assert_eq!(fields[2].0, "data");

        let traced =
            result_envelope_with_telemetry("echo", &7u64, Some(Value::Str("trace".into())));
        let Value::Object(fields) = &traced else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), 4);
        // The v1 prefix is untouched by the telemetry block.
        assert_eq!(
            fields[3],
            ("telemetry".to_string(), Value::Str("trace".into()))
        );
    }
}
