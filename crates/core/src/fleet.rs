//! Campaign fleet: run many configs across a scoped worker pool.
//!
//! Every bench in the reproduction is shaped the same way — a list of
//! [`FuzzerConfig`]s (configs × repetitions) whose campaigns are fully
//! independent of each other: each owns its simulated machine, RNG
//! streams are seeded per config, and the shared artifact caches
//! ([`crate::artifacts`]) are keyed purely on inputs. [`FleetRunner`]
//! exploits that independence with a fixed pool of scoped worker
//! threads pulling jobs off a shared queue, while keeping the *results*
//! in submission order so `jobs=1` and `jobs=N` output byte-identical
//! reports.
//!
//! A panicking campaign is contained to its job: the worker catches the
//! unwind and records a [`FleetError`] in that job's slot; the other
//! jobs — and the process — carry on.
//!
//! The pool is the one place campaigns go onto threads: the bench bins
//! fan batches through [`FleetRunner::run`], and the fabric coordinator
//! runs each round's slices through [`FleetRunner::map`]. Workers claim
//! items from one shared queue under a mutex held only for the claim,
//! never across a job.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

use crate::campaign::{run_campaign, CampaignResult};
use crate::config::FuzzerConfig;

/// A job that did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for FleetError {}

/// Result of one fleet job.
pub type FleetResult<R> = Result<R, FleetError>;

/// A worker pool for running batches of independent campaigns.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunner {
    jobs: usize,
}

impl Default for FleetRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl FleetRunner {
    /// A runner with exactly `jobs` workers (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        FleetRunner { jobs: jobs.max(1) }
    }

    /// Worker count from the environment: `EOF_JOBS` if set to a
    /// positive integer, otherwise the host's available parallelism.
    pub fn from_env() -> Self {
        let jobs = std::env::var("EOF_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        FleetRunner::new(jobs)
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` over every item, at most [`jobs`](Self::jobs) at a time,
    /// returning results in submission order. `f` receives the item's
    /// batch index alongside the item. A panic inside `f` becomes a
    /// `FleetError` for that slot only.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<FleetResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        let queue = Mutex::new(items.into_iter().enumerate());
        // The guard is a temporary of this closure's body, so it is
        // released as soon as the claim returns — before the job runs.
        let claim = || queue.lock().next();
        let (claim, f) = (&claim, &f);
        let mut done: Vec<(usize, FleetResult<R>)> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move |_| {
                        let mut buf = Vec::new();
                        while let Some((i, item)) = claim() {
                            let out =
                                catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| {
                                    FleetError {
                                        job: i,
                                        message: panic_message(payload),
                                    }
                                });
                            buf.push((i, out));
                        }
                        buf
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .expect("fleet workers contain panics via catch_unwind")
                })
                .collect()
        })
        .expect("the scope closure does not panic");
        // Scheduling decides which worker ran which item, never where
        // its result lands.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Run a batch of campaigns, results in submission order.
    pub fn run(&self, configs: Vec<FuzzerConfig>) -> Vec<FleetResult<CampaignResult>> {
        self.map(configs, |_, config| run_campaign(config))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;

    fn short(os: OsKind, seed: u64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = 0.02;
        c.snapshot_hours = 0.005;
        c
    }

    #[test]
    fn results_keep_submission_order() {
        let runner = FleetRunner::new(4);
        let out = runner.map((0..32).collect::<Vec<_>>(), |i, x| {
            assert_eq!(i, x);
            x * 10
        });
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let runner = FleetRunner::new(3);
        let out = runner.map(vec![1usize, 2, 3, 4], |_, x| {
            if x == 3 {
                panic!("job three exploded");
            }
            x
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        let err = out[2].as_ref().unwrap_err();
        assert_eq!(err.job, 2);
        assert!(err.message.contains("job three exploded"), "{err}");
        assert_eq!(out[3], Ok(4));
    }

    #[test]
    fn jobs_env_and_clamping() {
        assert_eq!(FleetRunner::new(0).jobs(), 1);
        assert_eq!(FleetRunner::new(7).jobs(), 7);
        assert!(FleetRunner::from_env().jobs() >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<FleetResult<u8>> = FleetRunner::new(2).map(Vec::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn the_pool_runs_jobs_items_at_once() {
        // Holding the queue lock across a job would serialise the pool:
        // the peak would stay at 1 and this assertion fails (no job
        // waits on another, so it cannot hang).
        use std::sync::atomic::{AtomicUsize, Ordering};
        let jobs = 4;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = FleetRunner::new(jobs).map((0..4 * jobs).collect::<Vec<_>>(), |_, x| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(peak.load(Ordering::SeqCst), jobs);
    }

    #[test]
    fn recorded_fleet_merges_identically_serial_and_parallel() {
        use crate::campaign::run_campaign_recorded;
        // The telemetry half of the fleet determinism contract: merging
        // per-campaign registries in submission order must yield the same
        // summary whether the jobs ran on 1 worker or 4.
        let configs: Vec<FuzzerConfig> = vec![
            short(OsKind::Zephyr, 21),
            short(OsKind::FreeRtos, 22),
            short(OsKind::RtThread, 23),
        ];
        let merged_summary = |results: Vec<FleetResult<CampaignResult>>| {
            let parts: Vec<eof_telemetry::Registry> = results
                .into_iter()
                .map(|r| r.expect("campaign runs").telemetry.expect("recorded"))
                .collect();
            eof_telemetry::Merged::from_parts(parts).summary().to_json()
        };
        let serial = FleetRunner::new(1).map(configs.clone(), |_, c| run_campaign_recorded(c));
        let parallel = FleetRunner::new(4).map(configs, |_, c| run_campaign_recorded(c));
        assert_eq!(merged_summary(serial), merged_summary(parallel));
    }

    #[test]
    fn serial_and_parallel_campaigns_are_identical() {
        let configs: Vec<FuzzerConfig> = vec![
            short(OsKind::Zephyr, 11),
            short(OsKind::Zephyr, 12),
            short(OsKind::FreeRtos, 11),
            short(OsKind::FreeRtos, 11),
        ];
        let serial = FleetRunner::new(1).run(configs.clone());
        let parallel = FleetRunner::new(4).run(configs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            let s = s.as_ref().expect("serial campaign runs");
            let p = p.as_ref().expect("parallel campaign runs");
            assert_eq!(s.branches, p.branches);
            assert_eq!(s.bugs, p.bugs);
            assert_eq!(format!("{:?}", s.stats), format!("{:?}", p.stats));
            assert_eq!(
                format!("{:?}", s.crashes),
                format!("{:?}", p.crashes),
                "parallel scheduling must not leak into results"
            );
        }
    }
}
