//! The CI perf-regression gate.
//!
//! Usage:
//!
//! ```text
//! bench_gate [--baseline BENCH_checker.json] [--tolerance 0.30]
//!            [--report bench_gate_report.json] BENCH_OUTPUT.txt...
//! bench_gate --list
//! ```
//!
//! `--list` prints the gated bench targets, one per line, so a caller can
//! run exactly the benches whose output the gate needs:
//!
//! ```text
//! for b in $(bench_gate --list); do cargo bench -p evlin-bench --bench "$b"; done
//! ```
//!
//! Reads one or more captured bench outputs (the offline criterion shim's
//! `bench <name> <mean>/iter ...` lines), compares every entry of the
//! baseline file's `"gate"` object against the measured means, prints a
//! verdict table (and optionally a machine-readable report for the CI
//! artifact), and exits non-zero when any entry regressed beyond the
//! tolerance or was missing from the run.

use evlin_bench::baseline::{self, Measurement};
use std::process::ExitCode;

struct Args {
    baseline_path: String,
    tolerance: f64,
    report_path: Option<String>,
    outputs: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_path: "BENCH_checker.json".to_string(),
        tolerance: 0.30,
        report_path: None,
        outputs: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline_path = iter.next().ok_or("--baseline needs a path")?;
            }
            "--tolerance" => {
                args.tolerance = iter
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid tolerance: {e}"))?;
            }
            "--report" => {
                args.report_path = Some(iter.next().ok_or("--report needs a path")?);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => args.outputs.push(other.to_string()),
        }
    }
    if args.outputs.is_empty() {
        return Err("no bench output files given".to_string());
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_report(
    path: &str,
    results: &[baseline::GateResult],
    tolerance: f64,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tolerance\": {tolerance},\n"));
    out.push_str(&format!(
        "  \"failed\": {},\n  \"results\": [\n",
        baseline::gate_fails(results)
    ));
    for (i, r) in results.iter().enumerate() {
        let measured = r
            .measured_us
            .map(|m| format!("{m}"))
            .unwrap_or_else(|| "null".to_string());
        let ratio = r
            .ratio()
            .map(|x| format!("{x:.4}"))
            .unwrap_or_else(|| "null".to_string());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_us\": {}, \"measured_us\": {}, \
             \"ratio\": {}, \"tolerance\": {}, \"status\": \"{}\"}}{}\n",
            json_escape(&r.name),
            r.baseline_us,
            measured,
            ratio,
            r.tolerance,
            r.status,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline_text = std::fs::read_to_string(&args.baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", args.baseline_path))?;
    let baseline_json = baseline::parse(&baseline_text)
        .map_err(|e| format!("{} is not valid JSON: {e}", args.baseline_path))?;
    let baselines = baseline::gate_baselines(&baseline_json)?;

    let mut measured: Vec<Measurement> = Vec::new();
    for path in &args.outputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        measured.extend(baseline::parse_bench_output(&text));
    }
    println!(
        "bench_gate: {} baseline entries, {} measurements, tolerance ±{:.0}%",
        baselines.len(),
        measured.len(),
        args.tolerance * 100.0
    );

    let results = baseline::compare(&baselines, &measured, args.tolerance);
    for r in &results {
        let measured = r
            .measured_us
            .map(|m| format!("{m:>12.2} µs"))
            .unwrap_or_else(|| "           — ".to_string());
        let ratio = r
            .ratio()
            .map(|x| format!("{x:>5.2}x"))
            .unwrap_or_else(|| "    — ".to_string());
        println!(
            "  {:<55} baseline {:>12.2} µs   measured {measured}   {ratio}   ±{:.0}%   {}",
            r.name,
            r.baseline_us,
            r.tolerance * 100.0,
            r.status
        );
    }
    if let Some(path) = &args.report_path {
        write_report(path, &results, args.tolerance)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench_gate: report written to {path}");
    }
    let failed = baseline::gate_fails(&results);
    if failed {
        println!("bench_gate: FAILED — at least one benchmark regressed or was missing");
    } else {
        println!("bench_gate: ok");
    }
    Ok(failed)
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|arg| arg == "--list") {
        for bench in baseline::GATED_BENCHES {
            println!("{bench}");
        }
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_gate: {message}");
            eprintln!(
                "usage: bench_gate [--baseline BENCH_checker.json] [--tolerance 0.30] \
                 [--report OUT.json] BENCH_OUTPUT.txt...\n       bench_gate --list"
            );
            ExitCode::from(2)
        }
    }
}
