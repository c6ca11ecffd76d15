//! Decoder parity: what the JSON reader accepts and rejects.
//!
//! Each case is a payload, the type it is read as, and the outcome — the
//! decoded value's `Debug` form, or the kind of error. The outcomes were
//! recorded from the tree-building reader the codec started with; any
//! reader must reproduce every one of them.

use lv_lotka::CompetitionKind;
use lv_server::proto::RunOutcome;
use lv_server::wire::{read_message, write_frame, WireError, MAX_FRAME_BYTES};
use lv_server::{EstimateRequest, Hello, ModelSpec, Request, ScenarioSpec};
use lv_sim::Seed;
use std::fmt::Debug;

/// A coarse error class: messages may differ between readers, classes may
/// not.
fn kind(error: &serde::Error) -> &'static str {
    let message = error.to_string();
    if message.contains("nested too deeply") {
        "depth"
    } else if message.contains("trailing characters") {
        "trailing"
    } else if message.contains("missing field") || message.contains("missing tuple element") {
        "missing"
    } else if message.contains("unknown variant") {
        "variant"
    } else if message.contains("invalid type") {
        "type"
    } else if message.contains("out of range") {
        "range"
    } else if message.contains("expected a sequence of length") {
        "length"
    } else {
        "syntax"
    }
}

fn outcome<T: Debug + for<'de> serde::Deserialize<'de>>(text: &str) -> String {
    match serde::json::from_str::<T>(text) {
        Ok(value) => format!("ok {value:?}"),
        Err(e) => format!("err {}", kind(&e)),
    }
}

fn decode(ty: &str, text: &str) -> String {
    match ty {
        "u64" => outcome::<u64>(text),
        "u32" => outcome::<u32>(text),
        "i64" => outcome::<i64>(text),
        "f64" => outcome::<f64>(text),
        "bool" => outcome::<bool>(text),
        "String" => outcome::<String>(text),
        "Option<u64>" => outcome::<Option<u64>>(text),
        "Vec<u64>" => outcome::<Vec<u64>>(text),
        "[u64; 2]" => outcome::<[u64; 2]>(text),
        "(u64, f64)" => outcome::<(u64, f64)>(text),
        "Seed" => outcome::<Seed>(text),
        "CompetitionKind" => outcome::<CompetitionKind>(text),
        "Hello" => outcome::<Hello>(text),
        "RunOutcome" => outcome::<RunOutcome>(text),
        "ModelSpec" => outcome::<ModelSpec>(text),
        "ScenarioSpec" => outcome::<ScenarioSpec>(text),
        "EstimateRequest" => outcome::<EstimateRequest>(text),
        "Request" => outcome::<Request>(text),
        other => panic!("no decoder for {other}"),
    }
}

const MODEL: &str = r#"{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5],"gamma":[0.0,0.0]}}}"#;

/// `(type, payload, outcome)`; `$M` in a payload stands for [`MODEL`].
const CASES: &[(&str, &str, &str)] = &[
    // Numbers.
    ("u64", "0", "ok 0"),
    ("u64", "18446744073709551615", "ok 18446744073709551615"),
    ("u64", "18446744073709551616", "err type"),
    ("u64", "3.0", "err type"),
    ("u64", "-1", "err type"),
    ("u64", "-0", "ok 0"),
    ("u64", "1e2", "err type"),
    ("u64", "007", "ok 7"),
    ("u64", "NaN", "err type"),
    ("u64", "\"1\"", "err type"),
    ("u64", "null", "err type"),
    ("u32", "4294967295", "ok 4294967295"),
    ("u32", "4294967296", "err range"),
    ("i64", "-9223372036854775808", "ok -9223372036854775808"),
    ("i64", "9223372036854775807", "ok 9223372036854775807"),
    ("i64", "9223372036854775808", "err type"),
    ("i64", "-9223372036854775809", "err type"),
    ("i64", "-0", "ok 0"),
    ("f64", "1", "ok 1.0"),
    ("f64", "-0", "ok 0.0"),
    ("f64", "-0.0", "ok -0.0"),
    ("f64", "18446744073709551617", "ok 1.8446744073709552e19"),
    ("f64", "-9223372036854775809", "ok -9.223372036854776e18"),
    ("f64", "0.1", "ok 0.1"),
    ("f64", "1.", "ok 1.0"),
    ("f64", "1e400", "ok inf"),
    ("f64", "5e-324", "ok 5e-324"),
    ("f64", "NaN", "ok NaN"),
    ("f64", "Infinity", "ok inf"),
    ("f64", "-Infinity", "ok -inf"),
    ("f64", "-NaN", "err syntax"),
    ("f64", "+1", "err syntax"),
    ("f64", "--1", "err syntax"),
    ("f64", "1e", "err syntax"),
    ("f64", "1+2", "err syntax"),
    ("f64", "- 1", "err syntax"),
    ("f64", "true", "err type"),
    // Literals, strings and whitespace.
    ("bool", "true", "ok true"),
    ("bool", " false\n", "ok false"),
    ("bool", "1", "err type"),
    ("bool", "tru", "err syntax"),
    ("bool", "truex", "err trailing"),
    ("String", r#""a\"b\\c\/d\b\f\n\r\t""#, "ok \"a\\\"b\\\\c/d\\u{8}\\u{c}\\n\\r\\t\""),
    ("String", r#""Aé😀""#, "ok \"Aé😀\""),
    ("String", r#""\ud83d""#, "err syntax"),
    ("String", r#""\ud83dA""#, "err syntax"),
    ("String", r#""\q""#, "err syntax"),
    ("String", r#""\u00g1""#, "err syntax"),
    ("String", r#""abc"#, "err syntax"),
    ("String", "\"tab\there\"", "ok \"tab\\there\""),
    ("String", "5", "err type"),
    ("Option<u64>", "null", "ok None"),
    ("Option<u64>", "7", "ok Some(7)"),
    ("Option<u64>", "nul", "err syntax"),
    ("Option<u64>", "\"x\"", "err type"),
    // Sequences and tuples.
    ("Vec<u64>", "[]", "ok []"),
    ("Vec<u64>", " [ 1 , 2 ,3 ] ", "ok [1, 2, 3]"),
    ("Vec<u64>", "[1,]", "err syntax"),
    ("Vec<u64>", "[1 2]", "err syntax"),
    ("Vec<u64>", "[1,2]]", "err trailing"),
    ("Vec<u64>", "[1,-2]", "err type"),
    ("Vec<u64>", "{}", "err type"),
    ("Vec<u64>", "null", "err type"),
    ("[u64; 2]", "[1,2]", "ok [1, 2]"),
    ("[u64; 2]", "[1,2,3]", "err length"),
    ("[u64; 2]", "[1]", "err length"),
    ("(u64, f64)", "[1,2]", "ok (1, 2.0)"),
    ("(u64, f64)", "[1]", "err length"),
    ("(u64, f64)", "[1,2,3]", "err length"),
    ("(u64, f64)", "[1.5,2]", "err type"),
    ("Seed", "[5]", "ok Seed(5)"),
    ("Seed", "[5,6]", "ok Seed(5)"),
    ("Seed", "[5,\"x\"]", "ok Seed(5)"),
    ("Seed", "[]", "err missing"),
    ("Seed", "5", "err type"),
    ("Seed", "[-5]", "err type"),
    // Unit enums.
    ("CompetitionKind", "\"SelfDestructive\"", "ok SelfDestructive"),
    ("CompetitionKind", "\"NonSelfDestructive\"", "ok NonSelfDestructive"),
    ("CompetitionKind", "\"selfDestructive\"", "err variant"),
    ("CompetitionKind", "0", "err type"),
    ("CompetitionKind", "{\"SelfDestructive\":null}", "err type"),
    // Named structs.
    ("Hello", r#"{"schema_version":1}"#, "ok Hello { schema_version: 1 }"),
    ("Hello", " {\n\t\"schema_version\" :\r 1 } ", "ok Hello { schema_version: 1 }"),
    ("Hello", r#"{"schema_version":1} x"#, "err trailing"),
    ("Hello", r#"{"schema_version":1}{}"#, "err trailing"),
    ("Hello", r#"{"schema_version":1,}"#, "err syntax"),
    ("Hello", r#"{"schema_version" 1}"#, "err syntax"),
    ("Hello", r#"{"schema_version":}"#, "err syntax"),
    ("Hello", r#"{schema_version:1}"#, "err syntax"),
    ("Hello", r#"{"schema_version":1"#, "err syntax"),
    ("Hello", "", "err syntax"),
    ("Hello", "   ", "err syntax"),
    ("Hello", "{}", "err missing"),
    ("Hello", "[1]", "err missing"),
    ("Hello", "null", "err missing"),
    ("Hello", r#"{"schema_version":1,"schema_version":2}"#, "ok Hello { schema_version: 1 }"),
    ("Hello", r#"{"schema_version":1,"schema_version":"x"}"#, "ok Hello { schema_version: 1 }"),
    ("Hello", r#"{"schema_version":"x","schema_version":1}"#, "err type"),
    ("Hello", r#"{"other":[1,{"a":[]}],"schema_version":3,"more":null}"#, "ok Hello { schema_version: 3 }"),
    ("Hello", r#"{"other":[1,{"a":]}],"schema_version":3}"#, "err syntax"),
    ("Hello", r#"{"other":"\q","schema_version":3}"#, "err syntax"),
    ("Hello", r#"{"schema_version":4}"#, "ok Hello { schema_version: 4 }"),
    ("Hello", r#"{"schema_version":4294967296}"#, "err range"),
    ("RunOutcome", r#"{"lo":3,"bits":"10","error":null}"#, "ok RunOutcome { lo: 3, bits: \"10\", error: None }"),
    ("RunOutcome", r#"{"lo":3,"bits":"10"}"#, "ok RunOutcome { lo: 3, bits: \"10\", error: None }"),
    ("RunOutcome", r#"{"bits":"10","error":"boom","lo":3}"#, "ok RunOutcome { lo: 3, bits: \"10\", error: Some(\"boom\") }"),
    ("RunOutcome", r#"{"lo":3,"error":null}"#, "err missing"),
    ("RunOutcome", r#"{"lo":3,"bits":null}"#, "err type"),
    // Tagged maps: the model envelope and the request envelope.
    ("ModelSpec", "$M", "ok Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } })"),
    ("ModelSpec", r#"{"model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5],"gamma":[0.0,0.0]}},"kind":"two"}"#, "ok Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } })"),
    ("ModelSpec", r#"{"kind":"two"}"#, "err missing"),
    ("ModelSpec", r#"{"model":null,"kind":"two"}"#, "err missing"),
    ("ModelSpec", r#"{"kind":"three","model":{}}"#, "err variant"),
    ("ModelSpec", r#"{"kind":2,"model":{}}"#, "err type"),
    ("ModelSpec", r#"{"model":{}}"#, "err missing"),
    ("ModelSpec", r#"{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1,"delta":1,"alpha":[0.5,0.5],"gamma":[0,0]}},"kind":"multi"}"#, "ok Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } })"),
    ("ModelSpec", r#"{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5,0.5],"gamma":[0.0,0.0]}}}"#, "err length"),
    ("ScenarioSpec", r#"{"model":$M,"backend":"jump-chain","events_per_individual":207}"#, "ok ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 207 }"),
    ("ScenarioSpec", r#"{"events_per_individual":207,"backend":"jump","model":$M,"extra":{"deep":[[[]]]}}"#, "ok ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump\", events_per_individual: 207 }"),
    ("ScenarioSpec", r#"{"model":$M,"backend":"jump-chain","events_per_individual":2.0}"#, "err type"),
    ("ScenarioSpec", r#"{"model":$M,"backend":"jump-chain"}"#, "err missing"),
    ("EstimateRequest", r#"{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n":512,"gap":2,"target_ci":1,"max_trials":0}"#, "ok EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: 1.0, max_trials: 0 }"),
    ("EstimateRequest", r#"{"max_trials":0,"target_ci":NaN,"gap":2,"n":512,"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0}}"#, "ok EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: NaN, max_trials: 0 }"),
    ("EstimateRequest", r#"{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n":512,"gap":-2,"target_ci":0.05,"max_trials":0}"#, "err type"),
    ("Request", r#"{"type":"estimate","body":{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n":512,"gap":2,"target_ci":0.05,"max_trials":0}}"#, "ok Estimate(EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: 0.05, max_trials: 0 })"),
    ("Request", r#"{"body":{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n":512,"gap":2,"target_ci":0.05,"max_trials":0},"type":"estimate"}"#, "ok Estimate(EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: 0.05, max_trials: 0 })"),
    ("Request", r#" { "body" : { "n" : 512 , "gap" : 2 , "target_ci" : 0.05 , "max_trials" : 0 , "spec" : { "model" : $M , "backend" : "jump-chain" , "events_per_individual" : 0 } } , "type" : "estimate" } "#, "ok Estimate(EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: 0.05, max_trials: 0 })"),
    ("Request", r#"{"type":"estimate","type":"status","body":{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n":512,"gap":2,"target_ci":0.05,"max_trials":0}}"#, "ok Estimate(EstimateRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n: 512, gap: 2, target_ci: 0.05, max_trials: 0 })"),
    ("Request", r#"{"type":"status","body":null}"#, "ok Status"),
    ("Request", r#"{"type":"status"}"#, "ok Status"),
    ("Request", r#"{"type":"status","body":[1,{"x":2}]}"#, "ok Status"),
    ("Request", r#"{"body":"anything","type":"cache_stats"}"#, "ok CacheStats"),
    ("Request", r#"{"type":"shutdown","body":null,"body":{"x":1}}"#, "ok Shutdown"),
    ("Request", r#"{"type":"status","body":[1,}"#, "err syntax"),
    ("Request", r#"{"type":"estimate","body":null}"#, "err missing"),
    ("Request", r#"{"type":"estimate"}"#, "err missing"),
    ("Request", r#"{"type":"frobnicate","body":null}"#, "err variant"),
    ("Request", r#"{"body":null}"#, "err missing"),
    ("Request", r#"{"type":null,"body":null}"#, "err type"),
    ("Request", r#"{"type":"status","body":null,"type":"shutdown"}"#, "ok Status"),
    ("Request", r#""status""#, "err missing"),
    ("Request", r#"{"type":"sweep_surface","body":{"spec":{"model":$M,"backend":"jump-chain","events_per_individual":0},"n_lattice":[60],"gap_lattice":[],"target_ci":0.1}}"#, "ok SweepSurface(SweepRequest { spec: ScenarioSpec { model: Two(LvModel { kind: SelfDestructive, rates: LvRates { beta: 1.0, delta: 1.0, alpha: [0.5, 0.5], gamma: [0.0, 0.0] } }), backend: \"jump-chain\", events_per_individual: 0 }, n_lattice: [60], gap_lattice: [], target_ci: 0.1 })"),
];

#[test]
fn the_reader_keeps_its_accept_and_reject_table() {
    let mut failures = Vec::new();
    for &(ty, payload, want) in CASES {
        let text = payload.replace("$M", MODEL);
        let got = decode(ty, &text);
        if got != want {
            failures.push(format!("    (\"{ty}\", {payload:?}, {got:?}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "changed outcomes:\n{}",
        failures.join("\n")
    );
}

/// `depth` arrays nested as the value of an unknown `Hello` key, around
/// `inner`.
fn nested(depth: usize, inner: &str) -> String {
    format!(
        "{{\"pad\":{}{}{},\"schema_version\":1}}",
        "[".repeat(depth),
        inner,
        "]".repeat(depth)
    )
}

#[test]
fn the_depth_limit_stays_at_128_values() {
    // The object is value 1 and the outermost array value 2, so 127 empty
    // arrays reach depth 128; one more array, or a scalar inside the 127,
    // goes past it.
    assert_eq!(
        decode("Hello", &nested(127, "")),
        "ok Hello { schema_version: 1 }"
    );
    assert_eq!(decode("Hello", &nested(128, "")), "err depth");
    assert_eq!(
        decode("Hello", &nested(126, "1")),
        "ok Hello { schema_version: 1 }"
    );
    assert_eq!(decode("Hello", &nested(127, "1")), "err depth");
    assert_eq!(decode("Vec<u64>", &"[".repeat(4096)), "err depth");
    let text = "[".repeat(4096) + &"]".repeat(4096);
    assert_eq!(decode("Vec<u64>", &text), "err depth");
}

fn frame(payload: &[u8]) -> Result<Hello, WireError> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload).unwrap();
    read_message(&mut bytes.as_slice(), MAX_FRAME_BYTES)
}

#[test]
fn non_utf8_payloads_stay_codec_errors() {
    assert!(frame(br#"{"schema_version":1}"#).is_ok());
    for payload in [
        &b"\xff\xfe{}"[..],
        b"{\"schema_version\":1,\"pad\":\"\xc3\"}",
        b"{\"schema_version\":1} \xff",
        b"{\"schema_version\":1,\"p\xffad\":0}",
    ] {
        assert!(
            matches!(frame(payload), Err(WireError::Codec(_))),
            "{payload:?}"
        );
    }
}
