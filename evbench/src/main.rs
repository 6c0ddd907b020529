//! The evlin benchmark: one command runs one workload for one seed, checks
//! its outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path evbench/Cargo.toml -- \
//!     --workload fai-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` is a separate run that prints the per-layer metrics from
//! spans the benchmark records around its own calls into each layer.  The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.  A
//! failed output check prints `correct: false` and exits with code 1.
//! See `evbench/METRICS.md` for the workloads, metrics and layers.

mod env;
mod explore;
mod gen;
mod replay;
mod service;
mod stats;
mod trace;

use service::CallTimes;
use stats::{iqm, median, LogHist};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: name and unit.  Every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("checked_ops_per_s", "ops/s"),
    ("record_us_p50", "us"),
    ("record_us_p99", "us"),
    ("verdict_lag_ms", "ms"),
    ("analysis_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit.  A layer a workload never reaches
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.record.ns_per_event", "ns"),
    ("runtime.merge.ns_per_event", "ns"),
    ("runtime.merge.frames", "count"),
    ("service.wire.encode_ns_per_event", "ns"),
    ("service.wire.decode_ns_per_event", "ns"),
    ("service.wire.bytes_per_event", "B"),
    ("service.route.ns_per_event", "ns"),
    ("service.verdict_rounds", "count"),
    ("service.verdicts_dropped", "count"),
    ("service.journal.append_us_per_frame", "us"),
    ("service.journal.bytes_per_frame", "B"),
    ("service.client.ship_us_p50", "us"),
    ("service.client.ship_us_p99", "us"),
    ("service.client.ship_wait_share", "ratio"),
    ("service.session.acks_per_frame", "ratio"),
    ("service.session.retransmitted_frames", "count"),
    ("service.session.overloaded_rejections", "count"),
    ("checker.monitor.ingest_ns_per_event", "ns"),
    ("checker.monitor.check_us_per_segment", "us"),
    ("checker.monitor.segments", "count"),
    ("checker.monitor.fast_path_share", "ratio"),
    ("checker.monitor.peak_window_events", "count"),
    ("checker.kernel.nodes_per_segment", "count"),
    ("checker.kernel.memo_hit_share", "ratio"),
    ("checker.tlin.min_stab_us_p50", "us"),
    ("checker.tlin.min_stab_us_p99", "us"),
    ("checker.kernel.nodes_per_history", "count"),
    ("sim.engine.explore_s", "s"),
    ("sim.engine.states_per_s", "1/s"),
    ("sim.engine.pruned_share", "ratio"),
    ("sim.engine.collect_s", "s"),
    ("sim.engine.terminal_histories", "count"),
    ("sim.store.bytes", "B"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("env.fsync_us_p50", "us"),
];

/// `fai-stream`: fetch&incs per round.
const FAI_ROUND_OPS: usize = 200_000;
/// `reg-durable`: register ops per generator thread per round, on average.
const REG_ROUND_OPS: usize = 1_000;
/// `explore-noisy`: the walk's depth bound.
const EXPLORE_DEPTH: usize = 15;
/// Measured rounds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed per round where one set-up is too short to time alone.
const SETUP_REPEATS: usize = 101;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FaiStream,
    RegDurable,
    ExploreNoisy,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fai-stream" => Some(Workload::FaiStream),
            "reg-durable" => Some(Workload::RegDurable),
            "explore-noisy" => Some(Workload::ExploreNoisy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FaiStream => "fai-stream",
            Workload::RegDurable => "reg-durable",
            Workload::ExploreNoisy => "explore-noisy",
        }
    }
}

const USAGE: &str = "usage: evbench --workload fai-stream|reg-durable|explore-noisy \
--seed N --seconds S --trace 0|1 [--plant-stale-response]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test only: one `fai-stream` response repeats a value.
    plant_stale: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut plant_stale = false;
        while let Some(flag) = args.next() {
            if flag == "--plant-stale-response" {
                plant_stale = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("duration"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("duration"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if plant_stale && workload != Workload::FaiStream {
            return Err("--plant-stale-response applies to fai-stream only".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            plant_stale,
        })
    }
}

/// A run's result: checks, op accounting and metric values by name.
#[derive(Default)]
struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn absorb_failures(&mut self, what: &str, round: u64, failures: &[String]) {
        for f in failures {
            self.failures.push(format!("{what} round {round}: {f}"));
        }
    }
}

/// A directory of the run's own inside the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let path = Path::new(".evbench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".evbench_work");
    }
}

/// Runs `round(r)` for rounds `0, 1, ..`: round 0 warms up and is returned
/// apart; measured rounds follow until the next one would end after
/// `seconds` (at least [`MIN_ROUNDS`] of them).  `round_s` reads a round's
/// duration.
fn timed_rounds<R>(
    seconds: f64,
    mut round: impl FnMut(u64) -> R,
    round_s: impl Fn(&R) -> f64,
) -> (R, Vec<R>) {
    let start = Instant::now();
    let warm = round(0);
    let mut measured: Vec<R> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let typical =
            median(&measured.iter().map(&round_s).collect::<Vec<_>>()).max(round_s(&warm));
        if measured.len() >= MIN_ROUNDS && elapsed + typical > seconds {
            break;
        }
        measured.push(round(measured.len() as u64 + 1));
    }
    (warm, measured)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let environment = match env::probe(&work.0) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("environment probe failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "evbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env nproc={} fs={} fsync_us_p50={:.1}",
        environment.nproc, environment.filesystem, environment.fsync_us_p50
    );
    let wall = Instant::now();
    let ticks = env::cpu_ticks();
    let mut outcome = match (args.workload, args.trace) {
        (Workload::ExploreNoisy, false) => explore_e2e(&args),
        (Workload::ExploreNoisy, true) => explore_traced(&args),
        (w, false) => service_e2e(&args, w, &work.0),
        (w, true) => service_traced(&args, w, &work.0),
    };
    outcome.set("env.fsync_us_p50", environment.fsync_us_p50);
    println!("wall_s {:.3}", wall.elapsed().as_secs_f64());
    if let Some(share) = env::steal_share_since(&ticks) {
        println!("env steal_share={share:.3} (CPU time the hypervisor gave to other guests)");
    }
    emit(&args, outcome)
}

/// Prints the metric lines and the final JSON line; the exit code says
/// whether every output check passed.
fn emit(args: &Args, mut outcome: Outcome) -> ExitCode {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                outcome
                    .failures
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.failures.push(format!("metric {name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ops_share {share} ratio ({} of {} ops)",
        outcome.failed, outcome.attempted
    );
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty() && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------------------
// Service workloads
// ---------------------------------------------------------------------------

/// One round; call timings go to `times`, one entry per generator thread.
fn service_round(
    args: &Args,
    workload: Workload,
    dir: &Path,
    round: u64,
    traced: bool,
    times: &mut [CallTimes],
) -> service::Round {
    match workload {
        Workload::FaiStream => service::fai_round(
            args.seed,
            round,
            FAI_ROUND_OPS,
            traced,
            args.plant_stale,
            times,
        ),
        _ => {
            let journal = dir.join(format!("journal-{round}"));
            let ops = gen::jittered(args.seed, round, REG_ROUND_OPS);
            let r = service::reg_round(args.seed, round, ops, traced, &journal, times);
            let _ = std::fs::remove_dir_all(&journal);
            r
        }
    }
}

/// Fresh call-timing accumulators, one per generator thread.
fn call_times(workload: Workload) -> Vec<CallTimes> {
    let threads = match workload {
        Workload::RegDurable => service::REG_THREADS,
        _ => 1,
    };
    (0..threads).map(|_| CallTimes::default()).collect()
}

/// Every thread's histogram `pick`, merged.
fn merged(times: &[CallTimes], pick: impl Fn(&CallTimes) -> &LogHist) -> LogHist {
    let mut all = LogHist::default();
    for t in times {
        all.merge(pick(t));
    }
    all
}

fn account(outcome: &mut Outcome, what: &str, round: u64, r: &service::Round) {
    outcome.attempted += r.ops;
    outcome.failed += r.ops.saturating_sub(r.checked_ops);
    outcome.absorb_failures(what, round, &r.failures);
}

fn service_e2e(args: &Args, workload: Workload, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut warm_times, mut times) = (call_times(workload), call_times(workload));
    let (warm, rounds) = timed_rounds(
        args.seconds,
        |r| {
            let times = if r == 0 { &mut warm_times } else { &mut times };
            service_round(args, workload, dir, r, false, times)
        },
        |r| r.setup_s + r.check_s,
    );
    account(&mut outcome, "warm-up", 0, &warm);
    let pairs = merged(&times, |t| &t.pair);
    for (i, r) in rounds.iter().enumerate() {
        account(&mut outcome, "measured", i as u64 + 1, r);
        println!(
            "round {} setup_ms {:.3} check_s {:.4} lag_ms {:.2}",
            i + 1,
            r.setup_s * 1e3,
            r.check_s,
            r.lag_s * 1e3
        );
    }
    let (p999, beyond) = pairs.quantile(0.999);
    println!(
        "rounds {}, {} ops; record samples {}; record_us_p999 {} us ({} beyond)",
        rounds.len(),
        rounds.iter().map(|r| r.ops).sum::<u64>(),
        pairs.count(),
        p999 / 1e3,
        beyond
    );
    let per_round = |f: &dyn Fn(&service::Round) -> f64| -> f64 {
        iqm(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    outcome.set(
        "checked_ops_per_s",
        per_round(&|r| r.checked_ops as f64 / r.check_s),
    );
    outcome.set("record_us_p50", pairs.quantile(0.5).0 / 1e3);
    outcome.set("record_us_p99", pairs.quantile(0.99).0 / 1e3);
    outcome.set("verdict_lag_ms", per_round(&|r| r.lag_s) * 1e3);
    outcome.set("analysis_s", per_round(&|r| r.check_s));
    outcome.set(
        "setup_s",
        median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    outcome.set("peak_rss_mb", env::peak_rss_mb());
    outcome
}

fn service_traced(args: &Args, workload: Workload, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    // Untraced baseline first, then as many traced rounds over the same
    // scripts, then one traced round's streams replayed layer by layer.
    let mut untraced_times = call_times(workload);
    let (warm, baseline) = timed_rounds(
        args.seconds * 0.4,
        |r| service_round(args, workload, dir, r, false, &mut untraced_times),
        |r| r.setup_s + r.check_s,
    );
    account(&mut outcome, "warm-up", 0, &warm);
    for (i, r) in baseline.iter().enumerate() {
        account(&mut outcome, "baseline", i as u64 + 1, r);
    }
    let mut tracer = Tracer::new();
    let mut traced_times = call_times(workload);
    let mut traced = Vec::with_capacity(baseline.len());
    for i in 0..baseline.len() {
        let round = i as u64 + 1;
        let r = tracer.span("live", |t| {
            let r = service_round(args, workload, dir, round, true, &mut traced_times);
            let threads = r.gens.len().max(1) as u64;
            let record: u64 = r.gens.iter().map(|g| g.record_ns).sum();
            let seal: u64 = r.gens.iter().map(|g| g.seal_ns).sum();
            let calls: u64 = r.gens.iter().map(|g| g.calls).sum();
            let seals: u64 = r.gens.iter().map(|g| g.seals).sum();
            let loop_ns: f64 = r.gens.iter().map(|g| g.loop_s).sum::<f64>() * 1e9;
            // Generator threads run side by side: charge the average thread.
            let (record, seal) = (record / threads, seal / threads);
            t.charge("service.setup", (r.setup_s * 1e9) as u64, 1);
            t.charge("service.client.record", record, calls);
            t.charge("service.client.ship", seal, seals);
            let program = (loop_ns / threads as f64) as u64;
            t.charge("generator", program.saturating_sub(record + seal), 0);
            t.charge("service.drain", (r.lag_s * 1e9) as u64, 1);
            r
        });
        account(&mut outcome, "traced", round, &r);
        traced.push(r);
    }
    // The replay uses the live run's frame sizes: ring frames inside the
    // replicas, and the client's wire frames.
    let (universe, ring_frame_capacity, wire_frame_capacity) = match workload {
        Workload::FaiStream => {
            let frames = service::fai_config(false).frame_capacity;
            (service::fai_universe(), frames, frames)
        }
        _ => (
            service::reg_universe(),
            service::reg_service_config(false).frame_capacity,
            service::reg_client_config(args.seed, 0).frame_capacity,
        ),
    };
    let journal_dir = dir.join("replay");
    let setup = replay::ReplaySetup {
        universe: &universe,
        monitor: service::monitor_config(),
        ring_frame_capacity,
        wire_frame_capacity,
        journal_dir: (workload == Workload::RegDurable).then_some(journal_dir.as_path()),
    };
    if let Some(dir) = setup.journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            outcome.failures.push(format!("replay journal dir: {e}"));
        }
    }
    let streams = traced.first().and_then(|r| r.streams.as_ref());
    let counts = match streams {
        Some(streams) => tracer
            .span("replay", |t| replay::replay(&setup, streams, t))
            .unwrap_or_else(|e| {
                outcome.failures.push(format!("replay: {e}"));
                replay::ReplayCounts::default()
            }),
        None => {
            outcome
                .failures
                .push("the traced round captured no streams".into());
            replay::ReplayCounts::default()
        }
    };
    let wall_ns = tracer.finish();
    print_layers(&tracer, wall_ns);

    let per_event = |layer: &str| tracer.self_s(layer) * 1e9 / counts.events.max(1) as f64;
    outcome.set("runtime.record.ns_per_event", per_event("runtime.record"));
    outcome.set("runtime.merge.ns_per_event", per_event("runtime.merge"));
    outcome.set("runtime.merge.frames", counts.merge_frames as f64);
    outcome.set(
        "service.wire.encode_ns_per_event",
        per_event("service.wire.encode"),
    );
    outcome.set(
        "service.wire.decode_ns_per_event",
        per_event("service.wire.decode"),
    );
    outcome.set(
        "service.wire.bytes_per_event",
        counts.wire_bytes as f64 / counts.events.max(1) as f64,
    );
    outcome.set("service.route.ns_per_event", per_event("service.route"));
    outcome.set(
        "checker.monitor.ingest_ns_per_event",
        per_event("checker.monitor.ingest"),
    );
    outcome.set(
        "checker.monitor.check_us_per_segment",
        tracer.self_s("checker.monitor.check") * 1e6 / counts.segments.max(1) as f64,
    );
    if counts.journal_frames > 0 {
        outcome.set(
            "service.journal.append_us_per_frame",
            tracer.self_s("service.journal.append") * 1e6 / counts.journal_frames as f64,
        );
        outcome.set(
            "service.journal.bytes_per_frame",
            counts.journal_bytes as f64 / counts.journal_frames as f64,
        );
    }

    let per_round = |f: &dyn Fn(&service::Round) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    outcome.set(
        "service.verdict_rounds",
        per_round(&|r| r.verdict_rounds as f64),
    );
    outcome.set(
        "service.verdicts_dropped",
        per_round(&|r| r.verdicts_dropped as f64),
    );
    outcome.set(
        "service.session.retransmitted_frames",
        per_round(&|r| r.retransmitted_frames as f64),
    );
    outcome.set(
        "service.session.overloaded_rejections",
        per_round(&|r| r.overloaded_rejections as f64),
    );
    let sum = |f: &dyn Fn(&service::Round) -> f64| -> f64 { traced.iter().map(f).sum() };
    let client_frames = sum(&|r| r.client_frames as f64);
    outcome.set(
        "service.session.acks_per_frame",
        sum(&|r| r.acks as f64) / client_frames.max(1.0),
    );
    let seal = merged(&traced_times, |t| &t.seal);
    outcome.set("service.client.ship_us_p50", seal.quantile(0.5).0 / 1e3);
    outcome.set("service.client.ship_us_p99", seal.quantile(0.99).0 / 1e3);
    let loop_ns = sum(&|r| r.gens.iter().map(|g| g.loop_s).sum::<f64>()) * 1e9;
    outcome.set(
        "service.client.ship_wait_share",
        seal.sum_ns() as f64 / loop_ns.max(1.0),
    );
    println!(
        "per frame: sealing record call {:.1} us (mean of {}), journal append {:.1} us (mean of {})",
        seal.sum_ns() as f64 / seal.count().max(1) as f64 / 1e3,
        seal.count(),
        tracer.self_s("service.journal.append") * 1e6 / counts.journal_frames.max(1) as f64,
        counts.journal_frames
    );

    let segments = sum(&|r| r.monitor.segments as f64);
    let nodes = sum(&|r| r.monitor.search.nodes as f64);
    outcome.set(
        "checker.monitor.segments",
        per_round(&|r| r.monitor.segments as f64),
    );
    outcome.set(
        "checker.monitor.fast_path_share",
        sum(&|r| r.monitor.fast_path_segments as f64) / segments.max(1.0),
    );
    outcome.set(
        "checker.monitor.peak_window_events",
        traced
            .iter()
            .map(|r| r.monitor.peak_window_events)
            .max()
            .unwrap_or(0) as f64,
    );
    outcome.set(
        "checker.kernel.nodes_per_segment",
        nodes / segments.max(1.0),
    );
    outcome.set(
        "checker.kernel.memo_hit_share",
        sum(&|r| r.monitor.search.memo_hits as f64) / nodes.max(1.0),
    );

    // Overhead: the same live work per op, traced over untraced.
    let per_op = |rounds: &[service::Round]| {
        median(
            &rounds
                .iter()
                .map(|r| r.check_s / r.ops as f64)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_wall: f64 = baseline.iter().map(|r| r.check_s).sum();
    let traced_wall: f64 = traced.iter().map(|r| r.check_s).sum();
    trace_summary(
        &mut outcome,
        &tracer,
        wall_ns,
        per_op(&traced) / per_op(&baseline),
        traced_wall,
        untraced_wall,
    );
    write_spans(&tracer, args);
    outcome
}

// ---------------------------------------------------------------------------
// explore-noisy
// ---------------------------------------------------------------------------

fn explore_e2e(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let (warm, rounds) = timed_rounds(
        args.seconds,
        |r| {
            setups.push(explore_setup_s());
            explore::round(
                &explore::setup(EXPLORE_DEPTH),
                args.seed,
                r,
                &mut Tracer::off(),
            )
        },
        |r| r.analysis_s,
    );
    account_explore(&mut outcome, 0, &warm);
    // Every round indexes the same histories in the same order: time each
    // history by its fastest round, which leaves out what other tenants of
    // the machine added to single calls.
    let mut fastest: Vec<u64> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        account_explore(&mut outcome, i as u64 + 1, r);
        println!(
            "round {} analysis_s {:.4} lag_ms {:.1}",
            i + 1,
            r.analysis_s,
            r.lag_s * 1e3
        );
        if fastest.is_empty() {
            fastest = r.times.clone();
        } else if fastest.len() == r.times.len() {
            for (f, t) in fastest.iter_mut().zip(&r.times) {
                *f = (*f).min(*t);
            }
        } else {
            outcome
                .failures
                .push(format!("round {} walked a different tree", i + 1));
        }
    }
    let per_round = |f: &dyn Fn(&explore::Round) -> f64| -> f64 {
        iqm(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    println!(
        "rounds {} of {} histories (max t {}); per-history samples {}; record_us_p999 {} us ({} beyond)",
        rounds.len(),
        rounds.first().map_or(0, |r| r.histories),
        rounds.first().map_or(0, |r| r.max_t),
        fastest.len(),
        stats::quantile(&fastest, 0.999) / 1e3,
        fastest.len() / 1000
    );
    outcome.set(
        "checked_ops_per_s",
        per_round(&|r| r.ops as f64 / r.analysis_s),
    );
    outcome.set("record_us_p50", stats::quantile(&fastest, 0.5) / 1e3);
    outcome.set("record_us_p99", stats::quantile(&fastest, 0.99) / 1e3);
    outcome.set("verdict_lag_ms", per_round(&|r| r.lag_s) * 1e3);
    outcome.set("analysis_s", per_round(&|r| r.analysis_s));
    outcome.set("setup_s", median(&setups[1..]));
    outcome.set("peak_rss_mb", env::peak_rss_mb());
    outcome
}

/// Median time to build the implementation, workload, universe and engine
/// options, over [`SETUP_REPEATS`] builds.
fn explore_setup_s() -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(explore::setup(EXPLORE_DEPTH));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn account_explore(outcome: &mut Outcome, round: u64, r: &explore::Round) {
    outcome.attempted += r.histories;
    outcome.failed += r.unindexed + r.limit_hits;
    outcome.absorb_failures("explore", round, &r.failures);
}

fn explore_traced(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let subject = explore::setup(EXPLORE_DEPTH);
    let (warm, baseline) = timed_rounds(
        args.seconds * 0.4,
        |r| explore::round(&subject, args.seed, r, &mut Tracer::off()),
        |r| r.analysis_s,
    );
    account_explore(&mut outcome, 0, &warm);
    for (i, r) in baseline.iter().enumerate() {
        account_explore(&mut outcome, i as u64 + 1, r);
    }
    let mut tracer = Tracer::new();
    let mut traced = Vec::with_capacity(baseline.len());
    let mut comparable = Vec::with_capacity(baseline.len());
    for i in 0..baseline.len() {
        let before = tracer.self_s("checker.kernel.stats");
        let r = explore::round(&subject, args.seed, i as u64 + 1, &mut tracer);
        // The per-history kernel counters are extra work, not tracing cost.
        comparable.push(r.analysis_s - (tracer.self_s("checker.kernel.stats") - before));
        account_explore(&mut outcome, i as u64 + 1, &r);
        traced.push(r);
    }
    let wall_ns = tracer.finish();
    print_layers(&tracer, wall_ns);

    let per_round = |f: &dyn Fn(&explore::Round) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let walk = |r: &explore::Round| r.explore.map_or(0.0, |(s, _)| s);
    let stats = |r: &explore::Round| r.explore.map(|(_, s)| s).unwrap_or_default();
    outcome.set("sim.engine.explore_s", per_round(&walk));
    outcome.set(
        "sim.engine.states_per_s",
        per_round(&|r| stats(r).visited as f64 / walk(r).max(1e-9)),
    );
    outcome.set(
        "sim.engine.pruned_share",
        per_round(&|r| {
            let s = stats(r);
            s.pruned as f64 / (s.visited + s.pruned).max(1) as f64
        }),
    );
    outcome.set(
        "sim.engine.collect_s",
        per_round(&|r| r.collect_s - walk(r)),
    );
    outcome.set(
        "sim.engine.terminal_histories",
        per_round(&|r| r.histories as f64),
    );
    outcome.set(
        "sim.store.bytes",
        per_round(&|r| stats(r).bytes_allocated as f64),
    );
    let times: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.times.iter().copied())
        .collect();
    outcome.set(
        "checker.tlin.min_stab_us_p50",
        stats::quantile(&times, 0.5) / 1e3,
    );
    outcome.set(
        "checker.tlin.min_stab_us_p99",
        stats::quantile(&times, 0.99) / 1e3,
    );
    let histories: u64 = traced.iter().map(|r| r.histories).sum();
    let nodes: u64 = traced.iter().map(|r| r.kernel_nodes).sum();
    let memo: u64 = traced.iter().map(|r| r.memo_hits).sum();
    outcome.set(
        "checker.kernel.nodes_per_history",
        nodes as f64 / histories.max(1) as f64,
    );
    outcome.set(
        "checker.kernel.memo_hit_share",
        memo as f64 / nodes.max(1) as f64,
    );

    let untraced_wall: f64 = baseline.iter().map(|r| r.analysis_s).sum();
    trace_summary(
        &mut outcome,
        &tracer,
        wall_ns,
        median(&comparable) / median(&baseline.iter().map(|r| r.analysis_s).collect::<Vec<_>>()),
        comparable.iter().sum(),
        untraced_wall,
    );
    write_spans(&tracer, args);
    outcome
}

// ---------------------------------------------------------------------------
// Trace reporting
// ---------------------------------------------------------------------------

fn print_layers(tracer: &Tracer, wall_ns: u64) {
    println!(
        "layer self times over {:.3} s of traced wall time:",
        wall_ns as f64 / 1e9
    );
    for (name, total) in tracer.layers() {
        let shown = if *name == trace::ROOT {
            "(unattributed)"
        } else {
            name
        };
        println!(
            "layer {shown:<34} self_s {:>9.4} share {:>6.3} calls {}",
            total.self_ns as f64 / 1e9,
            total.self_ns as f64 / wall_ns.max(1) as f64,
            total.calls
        );
    }
}

fn trace_summary(
    outcome: &mut Outcome,
    tracer: &Tracer,
    wall_ns: u64,
    traced_over_untraced: f64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    outcome.set(
        "trace.unattributed_share",
        tracer.self_s(trace::ROOT) * 1e9 / wall_ns.max(1) as f64,
    );
    outcome.set("trace.overhead_share", traced_over_untraced - 1.0);
    outcome.set("trace.traced_wall_s", traced_wall_s);
    outcome.set("trace.untraced_wall_s", untraced_wall_s);
    println!(
        "tracing overhead: traced {traced_wall_s:.3} s, untraced {untraced_wall_s:.3} s, \
         per unit of work traced/untraced = {traced_over_untraced:.4}"
    );
}

fn write_spans(tracer: &Tracer, args: &Args) {
    let path = Path::new(".evbench_traces").join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
