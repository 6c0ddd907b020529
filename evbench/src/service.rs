//! The two service workloads, `fai-stream` and `reg-durable`: closed-loop
//! generators recording into the monitoring service, one fixed-size round
//! at a time (set up, stream, wind down, check the outputs).

use crate::gen::{self, RegOp};
use crate::stats::LogHist;
use evlin_checker::monitor::{MonitorCondition, MonitorConfig, MonitorStats};
use evlin_history::{Event, ObjectId, ObjectUniverse, ProcessId};
use evlin_service::{
    ClientRecoveryConfig, MonitorService, RecoverableClient, RecoverableService, RecoveryConfig,
    ServiceClient, ServiceConfig, VerdictSummary,
};
use evlin_spec::{FetchIncrement, Invocation, Register, Value};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `fai-stream`: fetch&inc objects.
pub const FAI_OBJECTS: usize = 1024;
/// `reg-durable`: registers.
pub const REG_OBJECTS: usize = 64;
/// `reg-durable`: one read in this many ops on average (20% reads).
pub const REG_READ_ONE_IN: u64 = 5;
/// `reg-durable`: generator threads, one TCP session each.
pub const REG_THREADS: usize = 2;
/// Replica shards of both services.
pub const SHARDS: usize = 2;

/// The monitor configuration of both services.
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::for_condition(MonitorCondition::Linearizability)
}

/// `fai-stream`'s service configuration.  Its frame capacity is also the
/// client's wire frame size.  At 128 events, frame seals are 1.6% of op
/// pairs, so the stall's p99 reads the cost of shipping a frame, and its
/// p99.9 lies among the back-pressured seals.  At the default 512, the p99
/// reads plain record calls and the p99.9 sits on the edge between unblocked
/// and back-pressured seals, where it jumps tenfold from run to run.
pub fn fai_config(capture_streams: bool) -> ServiceConfig {
    ServiceConfig {
        frame_capacity: 128,
        ..reg_service_config(capture_streams)
    }
}

/// `reg-durable`'s service configuration: the defaults (512-event ring
/// frames inside the replicas) but for shards and condition.  Streams are
/// captured for the traced run's replay.
pub fn reg_service_config(capture_streams: bool) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        monitor: monitor_config(),
        capture_streams,
        ..ServiceConfig::default()
    }
}

/// `reg-durable`'s client `c` configuration: the standard one, whose
/// 64-event `frame_capacity` is the wire (and journal) frame size.
pub fn reg_client_config(seed: u64, c: usize) -> ClientRecoveryConfig {
    ClientRecoveryConfig::standard(seed ^ c as u64)
}

/// The universe of `fai-stream`.
pub fn fai_universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    for _ in 0..FAI_OBJECTS {
        u.add_object(FetchIncrement::new());
    }
    u
}

/// The universe of `reg-durable` (registers start at 0).
pub fn reg_universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    for _ in 0..REG_OBJECTS {
        u.add_object(Register::default());
    }
    u
}

/// A recording client of either service.
trait Client {
    fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation);
    fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value);
}

impl Client for ServiceClient {
    fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        ServiceClient::invoke(self, process, object, invocation);
    }
    fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        ServiceClient::respond(self, process, object, value);
    }
}

impl Client for RecoverableClient {
    fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        RecoverableClient::invoke(self, process, object, invocation);
    }
    fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        RecoverableClient::respond(self, process, object, value);
    }
}

/// One generator thread's call timings, accumulated over a run's rounds.
#[derive(Default)]
pub struct CallTimes {
    /// Untraced: how long each invoke+respond pair blocked the generator.
    pub pair: LogHist,
    /// Traced: record calls that sealed (and shipped) a frame.
    pub seal: LogHist,
}

/// What one generator thread did in one round.
#[derive(Default, Clone, Copy)]
pub struct GenOut {
    /// Wall time of the generator loop, in seconds.
    pub loop_s: f64,
    /// Traced: time in record calls that did not seal a frame, and calls.
    pub record_ns: u64,
    pub calls: u64,
    /// Traced: time in record calls that sealed a frame, and calls.
    pub seal_ns: u64,
    pub seals: u64,
}

/// How the generator times its calls.
enum Timing {
    /// Untraced: each invoke+respond pair.
    Pairs,
    /// Traced: each record call on its own, classed by whether it sealed a
    /// wire frame of this many events.
    Calls(usize),
}

fn timing(traced: bool, frame_capacity: usize) -> Timing {
    if traced {
        Timing::Calls(frame_capacity)
    } else {
        Timing::Pairs
    }
}

/// The generator loop: `ops` operations on `process`; `op(i)` names the
/// object and invocation of op `i` and `apply(i)` performs it on the
/// backing atomics, returning the response.  The client ships a frame on
/// every `frame_capacity`-th event, which is how traced calls are classed.
/// Timings go to `times`.
fn drive<C: Client>(
    client: &mut C,
    process: ProcessId,
    ops: usize,
    timing: Timing,
    times: &mut CallTimes,
    mut op: impl FnMut(usize) -> (ObjectId, Invocation),
    mut apply: impl FnMut(usize) -> Value,
) -> (GenOut, Instant, Instant) {
    let mut out = GenOut::default();
    let first = Instant::now();
    match timing {
        Timing::Pairs => {
            for i in 0..ops {
                let (object, invocation) = op(i);
                let t0 = Instant::now();
                client.invoke(process, object, invocation);
                let value = apply(i);
                client.respond(process, object, value);
                times.pair.record(t0.elapsed().as_nanos() as u64);
            }
        }
        Timing::Calls(capacity) => {
            let mut events = 0usize;
            let mut timed = |out: &mut GenOut, t: Instant| {
                events += 1;
                let ns = t.elapsed().as_nanos() as u64;
                if events.is_multiple_of(capacity) {
                    times.seal.record(ns);
                    out.seal_ns += ns;
                    out.seals += 1;
                } else {
                    out.record_ns += ns;
                    out.calls += 1;
                }
            };
            for i in 0..ops {
                let (object, invocation) = op(i);
                let t0 = Instant::now();
                client.invoke(process, object, invocation);
                timed(&mut out, t0);
                let value = apply(i);
                let t2 = Instant::now();
                client.respond(process, object, value);
                timed(&mut out, t2);
            }
        }
    }
    let last = Instant::now();
    out.loop_s = (last - first).as_secs_f64();
    (out, first, last)
}

/// One service round's outputs.
#[derive(Default)]
pub struct Round {
    /// Set-up time: universe, service, journal directory, connections.
    pub setup_s: f64,
    /// Ops recorded.
    pub ops: u64,
    /// Ops the service decided.
    pub checked_ops: u64,
    /// First record to every final verdict in hand.
    pub check_s: f64,
    /// Last record to every final verdict in hand.
    pub lag_s: f64,
    /// Per-thread generator measurements.
    pub gens: Vec<GenOut>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Each shard's accepted stream, when captured.
    pub streams: Option<Vec<Vec<Event>>>,
    /// Segment and search counters summed over shards (peak window: the
    /// maximum).
    pub monitor: MonitorStats,
    /// Verdict rounds the shards emitted.
    pub verdict_rounds: u64,
    /// Mid-run verdict rounds dropped on saturated links.
    pub verdicts_dropped: u64,
    /// Client wire frames, durability acks, retransmitted frames.
    pub client_frames: u64,
    pub acks: u64,
    pub retransmitted_frames: u64,
    /// Frames the service shed with `OVERLOADED`.
    pub overloaded_rejections: u64,
}

impl Round {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn absorb_shards<'a>(&mut self, shards: impl Iterator<Item = &'a evlin_service::ShardReport>) {
        for s in shards {
            let m = &s.report.stats;
            self.checked_ops += m.checked_ops as u64;
            self.monitor.segments += m.segments;
            self.monitor.fast_path_segments += m.fast_path_segments;
            self.monitor.peak_window_events =
                self.monitor.peak_window_events.max(m.peak_window_events);
            self.monitor.search.absorb(m.search);
            self.verdict_rounds += s.rounds;
        }
    }

    /// Every client must hold every shard's final summary, each `Ok`.
    fn check_finals(&mut self, client: usize, finals: &[&VerdictSummary], shards: usize) {
        self.check(finals.len() == shards, || {
            format!(
                "client {client} got {} of {shards} final summaries",
                finals.len()
            )
        });
        for f in finals {
            self.check(f.verdict.is_ok(), || {
                format!(
                    "client {client}: shard {} final verdict {:?}",
                    f.shard, f.verdict
                )
            });
        }
    }
}

/// One `fai-stream` round of `ops` fetch&incs.  Untraced rounds time each
/// op pair; traced rounds time each call and capture the streams.
/// `plant_stale` makes one response repeat the object's previous value — a
/// planted violation the output checks must catch.
pub fn fai_round(
    seed: u64,
    round: u64,
    ops: usize,
    traced: bool,
    plant_stale: bool,
    times: &mut [CallTimes],
) -> Round {
    let script = gen::fai_script(seed, round, FAI_OBJECTS, ops);
    let fetch_inc = FetchIncrement::fetch_inc();
    let t_setup = Instant::now();
    let universe = fai_universe();
    let config = fai_config(traced);
    let (mut clients, service) = MonitorService::in_process(&universe, 1, config);
    let counters: Vec<AtomicI64> = (0..FAI_OBJECTS).map(|_| AtomicI64::new(0)).collect();
    let mut out = Round {
        setup_s: t_setup.elapsed().as_secs_f64(),
        ops: ops as u64,
        ..Round::default()
    };
    let mut client = clients.pop().expect("one client was asked for");
    let mut planted = !plant_stale;
    let (gen, first, last) = drive(
        &mut client,
        ProcessId(0),
        ops,
        timing(traced, config.frame_capacity),
        &mut times[0],
        |i| (ObjectId(script[i] as usize), fetch_inc.clone()),
        |i| {
            let v = counters[script[i] as usize].fetch_add(1, Ordering::SeqCst);
            if !planted && v > 0 {
                planted = true;
                return Value::Int(v - 1);
            }
            Value::Int(v)
        },
    );
    let closed = client.finish();
    let report = service.finish();
    let client_report = closed.collect_verdicts();
    let done = Instant::now();
    out.check_s = (done - first).as_secs_f64();
    out.lag_s = (done - last).as_secs_f64();
    out.gens.push(gen);
    out.absorb_shards(report.shards.iter());
    out.verdicts_dropped = report.verdicts_dropped;
    out.client_frames = client_report.stats.frames;
    out.check(report.verdict.is_ok(), || {
        format!("service verdict {:?}", report.verdict)
    });
    let (checked, ops, events) = (out.checked_ops, out.ops, report.events());
    out.check(checked == ops, || {
        format!("service checked {checked} of {ops} ops")
    });
    out.check(events == 2 * ops, || {
        format!("service checked {events} of {} events", 2 * ops)
    });
    let shards = report.shards.len();
    out.check_finals(0, &client_report.final_summaries(), shards);
    for (c, conn) in report.connections.iter().enumerate() {
        out.check(conn.shutdown_mismatches == 0, || {
            format!(
                "connection {c}: {} shutdown-audit mismatches",
                conn.shutdown_mismatches
            )
        });
    }
    out.streams = report.accepted_streams;
    out
}

/// One `reg-durable` round: `ops_per_thread` register ops on each of the
/// generator threads (timed as in [`fai_round`], into one `times` entry per
/// thread), journaled under `journal_dir` (created fresh, left for the
/// caller to remove).
pub fn reg_round(
    seed: u64,
    round: u64,
    ops_per_thread: usize,
    traced: bool,
    journal_dir: &Path,
    times: &mut [CallTimes],
) -> Round {
    let scripts: Vec<Vec<RegOp>> = (0..REG_THREADS)
        .map(|t| {
            gen::reg_script(
                seed,
                round,
                t,
                REG_THREADS,
                REG_OBJECTS,
                REG_READ_ONE_IN,
                ops_per_thread,
            )
        })
        .collect();
    let read = Register::read();
    let t_setup = Instant::now();
    let universe = reg_universe();
    let mut config = RecoveryConfig::new(journal_dir.to_path_buf(), REG_THREADS);
    config.service = reg_service_config(traced);
    let mut out = Round {
        ops: (REG_THREADS * ops_per_thread) as u64,
        ..Round::default()
    };
    let (addr, service) = match RecoverableService::bind(&universe, config) {
        Ok(bound) => bound,
        Err(e) => {
            out.failures.push(format!("bind: {e:?}"));
            return out;
        }
    };
    let seq = Arc::new(AtomicU64::new(0));
    let frame_capacity = reg_client_config(seed, 0).frame_capacity;
    let mut clients = Vec::with_capacity(REG_THREADS);
    for c in 0..REG_THREADS {
        let cfg = reg_client_config(seed, c);
        match RecoverableClient::connect_tcp(addr, c as u32, 1 + c as u64, Arc::clone(&seq), cfg) {
            Ok(client) => clients.push(client),
            Err(e) => out.failures.push(format!("client {c} connect: {e:?}")),
        }
    }
    let registers: Vec<AtomicI64> = (0..REG_OBJECTS).map(|_| AtomicI64::new(0)).collect();
    out.setup_s = t_setup.elapsed().as_secs_f64();
    if clients.len() < REG_THREADS {
        drop(clients);
        service.finish();
        return out;
    }

    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&scripts)
            .zip(times.iter_mut())
            .enumerate()
            .map(|(c, ((mut client, script), times))| {
                let (registers, read) = (&registers, &read);
                scope.spawn(move || {
                    let (gen, first, last) = drive(
                        &mut client,
                        ProcessId(c),
                        script.len(),
                        timing(traced, frame_capacity),
                        times,
                        |i| match script[i] {
                            RegOp::Read { object } => (ObjectId(object as usize), read.clone()),
                            RegOp::Write { object, value } => (
                                ObjectId(object as usize),
                                Register::write(Value::Int(value)),
                            ),
                        },
                        |i| match script[i] {
                            RegOp::Read { object } => {
                                Value::Int(registers[object as usize].load(Ordering::SeqCst))
                            }
                            RegOp::Write { object, value } => {
                                registers[object as usize].store(value, Ordering::SeqCst);
                                Value::Unit
                            }
                        },
                    );
                    (gen, first, last, client.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let first = per_thread.iter().map(|p| p.1).min().expect("two threads");
    let last = per_thread.iter().map(|p| p.2).max().expect("two threads");
    let mut closed = Vec::with_capacity(REG_THREADS);
    for (c, (gen, _, _, finished)) in per_thread.into_iter().enumerate() {
        out.gens.push(gen);
        match finished {
            Ok(client) => closed.push(client),
            Err(e) => out.failures.push(format!("client {c}: {e:?}")),
        }
    }
    let report = service.finish();
    let client_reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();
    let done = Instant::now();
    out.check_s = (done - first).as_secs_f64();
    out.lag_s = (done - last).as_secs_f64();
    out.absorb_shards(report.shards.iter());
    out.verdicts_dropped = report.verdicts_dropped;
    out.check(report.verdict.is_ok(), || {
        format!("service verdict {:?}", report.verdict)
    });
    let (checked, ops, events) = (out.checked_ops, out.ops, report.events());
    out.check(checked == ops, || {
        format!("service checked {checked} of {ops} ops")
    });
    out.check(events == 2 * ops, || {
        format!("service checked {events} of {} events", 2 * ops)
    });
    out.check(report.replay_chain_mismatches == 0, || {
        format!("{} replay chain mismatches", report.replay_chain_mismatches)
    });
    let shards = report.shards.len();
    for (c, r) in client_reports.iter().enumerate() {
        out.check_finals(c, &r.final_summaries(), shards);
        out.client_frames += r.stats.frames;
        out.acks += r.stats.acks;
        out.retransmitted_frames += r.stats.retransmitted_frames;
    }
    for (c, s) in report.sessions.iter().enumerate() {
        out.check(s.shutdown_mismatches == 0, || {
            format!(
                "session {c}: {} shutdown-audit mismatches",
                s.shutdown_mismatches
            )
        });
        out.overloaded_rejections += s.overloaded_rejections;
    }
    out.streams = report.accepted_streams;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_smoke_round_passes_its_checks() {
        let r = fai_round(11, 0, 2_000, false, false, &mut [CallTimes::default()]);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.checked_ops, 2_000);
    }

    #[test]
    fn a_planted_stale_response_fails_the_round() {
        let r = fai_round(11, 0, 2_000, false, true, &mut [CallTimes::default()]);
        assert!(
            r.failures.iter().any(|f| f.contains("Violation")),
            "planted stale fetch&inc went unnoticed: {:?}",
            r.failures
        );
    }

    #[test]
    fn a_durable_smoke_round_passes_its_checks() {
        let dir =
            std::path::Path::new(".evbench_work").join(format!("test-reg-{}", std::process::id()));
        let mut times: Vec<CallTimes> = (0..REG_THREADS).map(|_| CallTimes::default()).collect();
        let r = reg_round(5, 0, 500, true, &dir, &mut times);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".evbench_work");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.checked_ops, 1_000);
        let seals: u64 = times.iter().map(|t| t.seal.count()).sum();
        assert_eq!(
            seals,
            2 * (1_000 / 64),
            "one sealing call per 64-event frame"
        );
        assert!(r.monitor.search.nodes > 0, "reads must reach kernel search");
        let streams = r.streams.expect("captured");
        assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), 2_000);
    }
}
