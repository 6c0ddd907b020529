//! Committed bench baselines and the perf-regression gate.
//!
//! The CI `bench-gate` job runs the timing-sensitive benches
//! ([`GATED_BENCHES`], printed by `bench_gate --list`), captures their
//! output and compares the measured means against the baselines committed in
//! `BENCH_checker.json` (its top-level `"gate"` object), failing the build on
//! a regression beyond the tolerance.  The comparison logic lives here so it
//! can be unit-tested; the `bench_gate` binary is a thin driver.
//!
//! The workspace vendors its dependencies as minimal shims and has no JSON
//! crate, so this module includes a small recursive-descent JSON parser —
//! enough for the baseline file, not a general-purpose implementation.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let escape = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match escape {
                    b'"' | b'\\' | b'/' => out.push(escape),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        // Baseline names are ASCII; decode BMP escapes only.
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("invalid \\u escape")?;
                        *pos += 4;
                        let ch = char::from_u32(hex).ok_or("invalid \\u code point")?;
                        out.extend_from_slice(ch.to_string().as_bytes());
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos - 1)),
                }
            }
            _ => out.push(b),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Bench-output parsing and the gate comparison
// ---------------------------------------------------------------------------

/// The bench targets whose output the gate needs: together they produce
/// every entry of the baseline file's `"gate"` object.  CI and the README's
/// gate recipe iterate over this list (`bench_gate --list` prints it, one
/// target per line) instead of spelling the names out themselves.
pub const GATED_BENCHES: [&str; 5] = [
    "checker_scaling",
    "monitor_throughput",
    "exploration_scaling",
    "service_saturation",
    "service_recovery",
];

/// One measured benchmark: its line name and mean time in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Bench line name, e.g. `checker/fi_linearizability/100000`.
    pub name: String,
    /// Mean per-iteration time in microseconds.
    pub mean_us: f64,
}

/// Extracts the measurements from the output of the offline criterion shim
/// (`bench <name>  <mean> <unit>/iter over N iters`); unrelated lines are
/// ignored.
pub fn parse_bench_output(text: &str) -> Vec<Measurement> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("bench ") else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let Some(name) = fields.next() else { continue };
        let Some(time) = fields.next() else { continue };
        let Some(unit) = fields.next() else { continue };
        let Ok(value) = time.parse::<f64>() else {
            continue;
        };
        let mean_us = match unit.trim_end_matches("/iter") {
            "ns" => value / 1e3,
            "µs" | "us" => value,
            "ms" => value * 1e3,
            "s" => value * 1e6,
            _ => continue,
        };
        out.push(Measurement {
            name: name.to_string(),
            mean_us,
        });
    }
    out
}

/// One committed gate baseline: a bench line name, its reference mean, and
/// an optional entry-specific tolerance overriding the gate's global one.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Bench line name, e.g. `explore/faults/k0/3`.
    pub name: String,
    /// Baseline mean per-iteration time in microseconds.
    pub mean_us: f64,
    /// Per-entry symmetric relative tolerance (e.g. `0.05` = ±5%); `None`
    /// falls back to the tolerance passed to [`compare`].
    pub tolerance: Option<f64>,
}

/// Reads the `"gate"` object of `BENCH_checker.json`: a flat map from bench
/// line name to either a baseline mean in microseconds, or an object
/// `{"mean_us": <number>, "tolerance": <ratio>}` for entries gated tighter
/// (or looser) than the global tolerance.
///
/// # Errors
///
/// Returns a message if the object is missing or malformed.
pub fn gate_baselines(baseline: &Json) -> Result<Vec<Baseline>, String> {
    let Some(Json::Obj(members)) = baseline.get("gate") else {
        return Err("baseline file has no top-level \"gate\" object".to_string());
    };
    let mut out = Vec::new();
    for (name, value) in members {
        let entry = match value {
            Json::Num(mean_us) => Baseline {
                name: name.clone(),
                mean_us: *mean_us,
                tolerance: None,
            },
            Json::Obj(_) => {
                let mean_us = value.get("mean_us").and_then(Json::as_f64).ok_or_else(|| {
                    format!("gate entry `{name}` has no numeric \"mean_us\" member")
                })?;
                let tolerance = match value.get("tolerance") {
                    None => None,
                    Some(t) => Some(t.as_f64().ok_or_else(|| {
                        format!("gate entry `{name}` has a non-numeric \"tolerance\"")
                    })?),
                };
                Baseline {
                    name: name.clone(),
                    mean_us,
                    tolerance,
                }
            }
            _ => return Err(format!("gate entry `{name}` is not a number or object")),
        };
        if entry.mean_us <= 0.0 {
            return Err(format!("gate entry `{name}` has a non-positive mean"));
        }
        if entry.tolerance.is_some_and(|t| t <= 0.0) {
            return Err(format!("gate entry `{name}` has a non-positive tolerance"));
        }
        out.push(entry);
    }
    Ok(out)
}

/// The gate's verdict on one baseline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Faster than the baseline by more than the tolerance — not a failure,
    /// but the committed baseline is stale.
    Improved,
    /// Slower than the baseline by more than the tolerance.
    Regressed,
    /// The bench run produced no measurement with this name.
    Missing,
}

impl fmt::Display for GateStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateStatus::Ok => "ok",
            GateStatus::Improved => "improved",
            GateStatus::Regressed => "REGRESSED",
            GateStatus::Missing => "MISSING",
        };
        f.write_str(s)
    }
}

/// One row of the gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Bench line name.
    pub name: String,
    /// Committed baseline mean (µs).
    pub baseline_us: f64,
    /// Measured mean (µs), if the bench ran.
    pub measured_us: Option<f64>,
    /// The tolerance this entry was judged against (per-entry override or
    /// the gate's global one).
    pub tolerance: f64,
    /// The verdict.
    pub status: GateStatus,
}

impl GateResult {
    /// `measured / baseline`, when measured.
    pub fn ratio(&self) -> Option<f64> {
        self.measured_us.map(|m| m / self.baseline_us)
    }
}

/// Compares measurements against baselines with a symmetric relative
/// `tolerance` (0.30 = ±30%); a [`Baseline::tolerance`] overrides it for
/// that entry.  Only [`GateStatus::Regressed`] and [`GateStatus::Missing`]
/// should fail a build.
pub fn compare(
    baselines: &[Baseline],
    measured: &[Measurement],
    tolerance: f64,
) -> Vec<GateResult> {
    baselines
        .iter()
        .map(|baseline| {
            let entry_tolerance = baseline.tolerance.unwrap_or(tolerance);
            let found = measured.iter().find(|m| m.name == baseline.name);
            let status = match found {
                None => GateStatus::Missing,
                Some(m) if m.mean_us > baseline.mean_us * (1.0 + entry_tolerance) => {
                    GateStatus::Regressed
                }
                Some(m) if m.mean_us < baseline.mean_us / (1.0 + entry_tolerance) => {
                    GateStatus::Improved
                }
                Some(_) => GateStatus::Ok,
            };
            GateResult {
                name: baseline.name.clone(),
                baseline_us: baseline.mean_us,
                measured_us: found.map(|m| m.mean_us),
                tolerance: entry_tolerance,
                status,
            }
        })
        .collect()
}

/// Whether any result should fail the build.
pub fn gate_fails(results: &[GateResult]) -> bool {
    results
        .iter()
        .any(|r| matches!(r.status, GateStatus::Regressed | GateStatus::Missing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_baseline_file() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_checker.json"
        ))
        .expect("baseline file exists");
        let json = parse(&text).expect("baseline file parses");
        let baselines = gate_baselines(&json).expect("gate section present");
        assert!(!baselines.is_empty());
        assert!(baselines.iter().all(|b| b.mean_us > 0.0));
        // The k=0 fault-enumeration entry carries the tightened per-entry
        // tolerance that holds its overhead to ≤5%.
        let k0 = baselines
            .iter()
            .find(|b| b.name == "explore/faults/k0/3")
            .expect("fault k0 gate entry");
        assert_eq!(k0.tolerance, Some(0.05));
    }

    #[test]
    fn gated_benches_are_bench_targets_of_this_package() {
        let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
            .expect("package manifest exists");
        for bench in GATED_BENCHES {
            assert!(
                manifest.contains(&format!("name = \"{bench}\"")),
                "gated bench `{bench}` is not a [[bench]] target"
            );
        }
    }

    #[test]
    fn parser_handles_the_usual_shapes() {
        let json = parse(r#"{"a": [1, 2.5e1, -3], "b": {"c": null, "d": "x\n"}, "e": true}"#)
            .expect("valid json");
        assert_eq!(
            json.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(25.0),
                Json::Num(-3.0),
            ]))
        );
        assert_eq!(json.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(
            json.get("b").unwrap().get("d"),
            Some(&Json::Str("x\n".to_string()))
        );
        assert_eq!(json.get("e"), Some(&Json::Bool(true)));
        assert!(parse("{\"unterminated\": ").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn bench_output_lines_are_extracted_with_unit_conversion() {
        let text = "\
   Compiling evlin-bench v0.1.0
bench checker/fi_linearizability/1000                          195.18 µs/iter over 1537 iters  (5123456 elem/s)
bench checker/fi_linearizability/10000                          1.725 ms/iter over 174 iters
bench monitor/ingest/100000                                   250.0 ns/iter over 9 iters
some unrelated line
";
        let measured = parse_bench_output(text);
        assert_eq!(measured.len(), 3);
        assert_eq!(measured[0].name, "checker/fi_linearizability/1000");
        assert!((measured[0].mean_us - 195.18).abs() < 1e-9);
        assert!((measured[1].mean_us - 1725.0).abs() < 1e-9);
        assert!((measured[2].mean_us - 0.25).abs() < 1e-9);
    }

    #[test]
    fn gate_statuses_cover_all_outcomes() {
        let entry = |name: &str| Baseline {
            name: name.into(),
            mean_us: 100.0,
            tolerance: None,
        };
        let baselines = vec![entry("a"), entry("b"), entry("c"), entry("d")];
        let measured = vec![
            Measurement {
                name: "a".into(),
                mean_us: 120.0, // within ±30%
            },
            Measurement {
                name: "b".into(),
                mean_us: 131.0, // regression
            },
            Measurement {
                name: "c".into(),
                mean_us: 50.0, // improvement
            },
        ];
        let results = compare(&baselines, &measured, 0.30);
        assert_eq!(results[0].status, GateStatus::Ok);
        assert_eq!(results[1].status, GateStatus::Regressed);
        assert_eq!(results[2].status, GateStatus::Improved);
        assert_eq!(results[3].status, GateStatus::Missing);
        assert!(results.iter().all(|r| (r.tolerance - 0.30).abs() < 1e-12));
        assert!(gate_fails(&results));
        assert!(!gate_fails(&results[..1]));
        assert!(!gate_fails(&results[2..3]));
    }

    #[test]
    fn per_entry_tolerance_overrides_the_global_one() {
        let json = parse(
            r#"{"gate": {
                "plain": 100.0,
                "tight": {"mean_us": 100.0, "tolerance": 0.05},
                "detailed": {"mean_us": 200.0}
            }}"#,
        )
        .expect("valid json");
        let baselines = gate_baselines(&json).expect("gate parses");
        assert_eq!(baselines[0].tolerance, None);
        assert_eq!(baselines[1].tolerance, Some(0.05));
        assert_eq!(
            baselines[2],
            Baseline {
                name: "detailed".into(),
                mean_us: 200.0,
                tolerance: None,
            }
        );

        // 110 µs: inside the global ±30%, outside the tight entry's ±5%.
        let measured = vec![
            Measurement {
                name: "plain".into(),
                mean_us: 110.0,
            },
            Measurement {
                name: "tight".into(),
                mean_us: 110.0,
            },
            Measurement {
                name: "detailed".into(),
                mean_us: 200.0,
            },
        ];
        let results = compare(&baselines, &measured, 0.30);
        assert_eq!(results[0].status, GateStatus::Ok);
        assert_eq!(results[1].status, GateStatus::Regressed);
        assert!((results[1].tolerance - 0.05).abs() < 1e-12);
        assert_eq!(results[2].status, GateStatus::Ok);
        assert!(gate_fails(&results));

        // Malformed per-entry objects are rejected, not defaulted.
        assert!(gate_baselines(&parse(r#"{"gate": {"x": {"tolerance": 0.1}}}"#).unwrap()).is_err());
        assert!(gate_baselines(
            &parse(r#"{"gate": {"x": {"mean_us": 1.0, "tolerance": "huge"}}}"#).unwrap()
        )
        .is_err());
        assert!(gate_baselines(&parse(r#"{"gate": {"x": true}}"#).unwrap()).is_err());
        assert!(gate_baselines(
            &parse(r#"{"gate": {"x": {"mean_us": 1.0, "tolerance": 0}}}"#).unwrap()
        )
        .is_err());
    }
}
