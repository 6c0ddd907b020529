//! Driving a configuration under a scheduler.

use crate::config::{Config, StepOutcome};
use crate::program::Implementation;
use crate::scheduler::Scheduler;
use crate::workload::Workload;
use evlin_checker::monitor::Monitor;
use evlin_history::{Event, History};

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The recorded high-level history.
    pub history: History,
    /// The final configuration.
    pub config: Config,
    /// Number of steps taken.
    pub steps: usize,
    /// Whether every workload operation completed.
    pub completed_all: bool,
}

/// Runs `implementation` on `workload` under `scheduler`, for at most
/// `max_steps` atomic steps.
///
/// The run stops when the scheduler returns `None`, when the configuration is
/// quiescent, or when the step budget is exhausted — whichever happens first.
pub fn run(
    implementation: &dyn Implementation,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> RunOutcome {
    let config = Config::initial(implementation, workload);
    run_from(config, workload, scheduler, max_steps)
}

/// Like [`run`], but continues from an existing configuration (used by the
/// Proposition 18 experiments, which resume from a frozen configuration).
pub fn run_from(
    config: Config,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> RunOutcome {
    run_from_observed(config, workload, scheduler, max_steps, &mut |_| {})
}

/// Like [`run`], additionally invoking `observer` on every high-level event
/// as soon as the simulated step appends it — the simulator-side analogue of
/// the runtime's recorder shards.  The online monitor hooks in here
/// ([`run_monitored`]); tracing and statistics collectors can too.
pub fn run_observed(
    implementation: &dyn Implementation,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
    observer: &mut dyn FnMut(&Event),
) -> RunOutcome {
    let config = Config::initial(implementation, workload);
    run_from_observed(config, workload, scheduler, max_steps, observer)
}

/// [`run_from`] with an event observer (see [`run_observed`]).
pub fn run_from_observed(
    mut config: Config,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
    observer: &mut dyn FnMut(&Event),
) -> RunOutcome {
    let mut steps = 0usize;
    let mut seen = config.history().len();
    while steps < max_steps && !config.is_quiescent() {
        let Some(p) = scheduler.next(&config) else {
            break;
        };
        match config.step(p) {
            StepOutcome::Idle => {
                // The scheduler picked a process with nothing to do; if no
                // process is enabled we are done, otherwise just continue.
                if config.is_quiescent() {
                    break;
                }
            }
            StepOutcome::Progressed | StepOutcome::Completed(_) => {}
        }
        // Feed any events the step appended to the observer, in order.
        let history = config.history();
        while seen < history.len() {
            observer(&history.events()[seen]);
            seen += 1;
        }
        steps += 1;
    }
    let completed_all = config.total_completed() == workload.total_operations();
    RunOutcome {
        history: config.history().clone(),
        steps,
        completed_all,
        config,
    }
}

/// Runs `implementation` under `scheduler` while feeding every event into an
/// online [`Monitor`] as it happens.  The monitor's segments are checked and
/// garbage-collected during the run (exploration over long schedules no
/// longer needs the whole history buffered before the first check); call
/// `monitor.finish()` afterwards for the final report.
pub fn run_monitored(
    implementation: &dyn Implementation,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
    monitor: &mut Monitor,
) -> RunOutcome {
    run_observed(implementation, workload, scheduler, max_steps, &mut |e| {
        // The simulator only produces well-formed histories.
        let _ = monitor.ingest(e.clone());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LocalSpecImplementation;
    use crate::scheduler::{RandomScheduler, RoundRobinScheduler};
    use evlin_spec::FetchIncrement;
    use std::sync::Arc;

    #[test]
    fn run_completes_workload_and_records_history() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 4);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 10_000);
        assert!(out.completed_all);
        assert_eq!(out.history.complete_operations().len(), 12);
        assert!(out.history.is_well_formed());
        assert_eq!(out.steps, 12); // local-copy implementation: one step per op
        assert!(out.config.is_quiescent());
    }

    #[test]
    fn step_budget_truncates_the_run() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 10);
        let mut s = RandomScheduler::seeded(1);
        let out = run(&imp, &w, &mut s, 5);
        assert!(!out.completed_all);
        assert_eq!(out.steps, 5);
        assert_eq!(out.history.complete_operations().len(), 5);
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 4);
        let mut s = RandomScheduler::seeded(7);
        let mut seen: Vec<Event> = Vec::new();
        let out = run_observed(&imp, &w, &mut s, 10_000, &mut |e| seen.push(e.clone()));
        assert!(out.completed_all);
        assert_eq!(seen, out.history.events());
    }

    #[test]
    fn run_monitored_checks_the_run_live() {
        use evlin_checker::monitor::{Monitor, MonitorConfig};
        use evlin_history::ObjectUniverse;
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 5);
        let mut s = RandomScheduler::seeded(11);
        let mut universe = ObjectUniverse::new();
        universe.add_object(FetchIncrement::new());
        let mut monitor = Monitor::new(universe, MonitorConfig::default());
        let out = run_monitored(&imp, &w, &mut s, 10_000, &mut monitor);
        let report = monitor.finish();
        assert_eq!(report.stats.events, out.history.len());
        // The local-copy implementation is *not* linearizable under real
        // concurrency (that is experiment E4's point) — what matters here is
        // that the online verdict equals the offline one on this schedule.
        assert_eq!(
            report.verdict.is_ok(),
            evlin_checker::is_linearizable(&out.history, monitorless_universe())
        );

        // A single-process workload is sequential, hence linearizable, and
        // the monitor verifies it live.
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 1);
        let w = Workload::uniform(1, FetchIncrement::fetch_inc(), 5);
        let mut s = RandomScheduler::seeded(3);
        let mut universe = ObjectUniverse::new();
        universe.add_object(FetchIncrement::new());
        let mut monitor = Monitor::new(universe, MonitorConfig::default());
        run_monitored(&imp, &w, &mut s, 10_000, &mut monitor);
        assert!(monitor.finish().verdict.is_ok());
    }

    fn monitorless_universe() -> &'static evlin_history::ObjectUniverse {
        use std::sync::OnceLock;
        static U: OnceLock<evlin_history::ObjectUniverse> = OnceLock::new();
        U.get_or_init(|| {
            let mut u = evlin_history::ObjectUniverse::new();
            u.add_object(FetchIncrement::new());
            u
        })
    }

    #[test]
    fn empty_workload_is_a_no_op() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::new(vec![Vec::new(), Vec::new()]);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 100);
        assert!(out.completed_all);
        assert!(out.history.is_empty());
        assert_eq!(out.steps, 0);
    }
}
