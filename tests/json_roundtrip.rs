//! JSON round-trip coverage for the serialization subsystem: `Metrics`,
//! `Config` and a report's float must survive serialize → parse →
//! re-serialize byte-identically (compact and pretty), including float
//! formatting corners and empty/`Default` values.

use proptest::prelude::*;
use receipt::report::ConvertReport;
use receipt::{Config, Metrics};
use std::time::Duration;

/// serialize → parse → re-serialize is byte-identical, and the decoded
/// struct equals the original. Returns the compact text for extra checks.
fn assert_round_trip<T>(value: &T) -> String
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(value).unwrap();
    let decoded: T = serde_json::from_str(&compact).unwrap();
    assert_eq!(&decoded, value, "decode(compact) != original");
    let tree = serde_json::from_str_value(&compact).unwrap();
    assert_eq!(
        serde_json::to_string(&tree).unwrap(),
        compact,
        "compact re-serialization drifted"
    );

    let pretty = serde_json::to_string_pretty(value).unwrap();
    let decoded: T = serde_json::from_str(&pretty).unwrap();
    assert_eq!(&decoded, value, "decode(pretty) != original");
    let tree = serde_json::from_str_value(&pretty).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        pretty,
        "pretty re-serialization drifted"
    );
    compact
}

#[test]
fn default_metrics_round_trips() {
    let text = assert_round_trip(&Metrics::default());
    // The empty struct serializes every field explicitly (no omissions),
    // so decoding never hits a missing-field error.
    for field in [
        "wedges_count",
        "wedges_cd",
        "wedges_fd",
        "sync_rounds",
        "recounts",
        "compactions",
        "partitions_used",
        "time_count",
        "time_cd",
        "time_fd",
    ] {
        assert!(text.contains(&format!("\"{field}\"")), "{text}");
    }
}

#[test]
fn populated_metrics_round_trip() {
    let m = Metrics {
        wedges_count: u64::MAX,
        wedges_cd: 123_456_789_012,
        wedges_fd: 1,
        sync_rounds: 42,
        recounts: 7,
        compactions: 3,
        partitions_used: 151,
        time_count: Duration::new(3, 141_592_653),
        time_cd: Duration::from_nanos(1),
        time_fd: Duration::from_secs(86_400),
    };
    let text = assert_round_trip(&m);
    // u64::MAX must survive exactly (not via f64).
    assert!(text.contains("18446744073709551615"), "{text}");
}

#[test]
fn default_config_round_trips() {
    let text = assert_round_trip(&Config::default());
    for field in ["partitions", "threads", "huc", "dgm", "heap_arity"] {
        assert!(text.contains(&format!("\"{field}\"")), "{text}");
    }
}

/// A `convert` report timed at `secs`.
fn convert_report(secs: f64) -> ConvertReport {
    ConvertReport {
        schema_version: receipt::report::SCHEMA_VERSION,
        kind: "convert".to_string(),
        input: "g.tsv".to_string(),
        output: "g.bgr".to_string(),
        from: "text".to_string(),
        to: "binary".to_string(),
        num_u: 3,
        num_v: 2,
        num_edges: 4,
        bytes_in: 40,
        bytes_out: 96,
        time_convert_secs: secs,
    }
}

/// `Config` has no float field, so the float corners ride on a report's.
#[test]
fn config_float_formatting_corners() {
    // Integral float: 1.0 prints as `1`, re-parses as an integer, and the
    // f64 field accepts it — that asymmetry is what keeps the bytes stable.
    let text = assert_round_trip(&convert_report(1.0));
    assert!(text.contains("\"time_convert_secs\":1}"), "{text}");
    for secs in [0.75, 0.1, 2.5, 1e-7, 123.0, 1.0 / 3.0, f64::MIN_POSITIVE] {
        let text = assert_round_trip(&convert_report(secs));
        let decoded: ConvertReport = serde_json::from_str(&text).unwrap();
        assert_eq!(decoded.time_convert_secs.to_bits(), secs.to_bits());
    }
}

#[test]
fn missing_field_is_an_error() {
    let e = serde_json::from_str::<Config>(r#"{"partitions": 4}"#).unwrap_err();
    assert!(e.to_string().contains("missing field"), "{e}");
}

#[test]
fn unknown_fields_are_ignored() {
    let mut text = serde_json::to_string(&Config::default()).unwrap();
    text.insert_str(1, "\"added_in_schema_v3\": [1, 2, 3],");
    let decoded: Config = serde_json::from_str(&text).unwrap();
    assert_eq!(decoded, Config::default());
}

#[test]
fn type_mismatch_is_an_error() {
    let text = serde_json::to_string(&Config::default())
        .unwrap()
        .replace("\"partitions\":150", "\"partitions\":\"150\"");
    let e = serde_json::from_str::<Config>(&text).unwrap_err();
    assert!(e.to_string().contains("expected number"), "{e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_metrics_round_trip(
        wedges in (0u64..u64::MAX, 0u64..1 << 40, 0u64..1 << 40),
        rounds in (0u64..10_000, 0u64..100, 0u64..100),
        partitions in 0usize..1000,
        times in (0u64..4_000, 0u32..1_000_000_000, 0u64..4_000, 0u32..1_000_000_000),
    ) {
        let m = Metrics {
            wedges_count: wedges.0,
            wedges_cd: wedges.1,
            wedges_fd: wedges.2,
            sync_rounds: rounds.0,
            recounts: rounds.1,
            compactions: rounds.2,
            partitions_used: partitions,
            time_count: std::time::Duration::new(times.0, times.1),
            time_cd: std::time::Duration::new(times.2, times.3),
            time_fd: std::time::Duration::ZERO,
        };
        let compact = serde_json::to_string(&m).unwrap();
        let decoded: Metrics = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&decoded, &m);
        let tree = serde_json::from_str_value(&compact).unwrap();
        prop_assert_eq!(serde_json::to_string(&tree).unwrap(), compact);
    }
}
