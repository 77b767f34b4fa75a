//! The three workloads: which campaign cells each runs, and one untraced
//! pass over them with host timers around set-up and the fuzz phase.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use eof_core::artifacts::clear_caches;
use eof_core::{
    build_fuzzer, diff_against_serial, fabric_grid, run_fabric, FabricChaosPlan, FabricConfig,
    FabricReport, FuzzerConfig, SerialMerge,
};
use eof_coverage::CoverageKind;
use eof_hal::FaultPlan;
use eof_rtos::bugs::BugId;
use eof_rtos::OsKind;

/// Worker slots of the fabric workload (the host has two cores).
pub const FABRIC_WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `FuzzerConfig::eof` on all five OSs, ring coverage, vectored.
    ApiFuzz,
    /// `FuzzerConfig::eof_cmplog` with trace coverage on FreeRTOS and
    /// NuttX, each under vectored and scalar wire.
    DriverCmplog,
    /// Fault-free two-worker fabrics over FreeRTOS and NuttX, one per
    /// replicate seed.
    CheckpointFabric,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ApiFuzz,
        Workload::DriverCmplog,
        Workload::CheckpointFabric,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ApiFuzz => "api_fuzz",
            Workload::DriverCmplog => "driver_cmplog",
            Workload::CheckpointFabric => "checkpoint_fabric",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated-hour budget of each cell: the workload's scale.
    pub fn cell_hours(self) -> f64 {
        match self {
            Workload::ApiFuzz => 0.5,
            Workload::DriverCmplog => 0.25,
            Workload::CheckpointFabric => 1.0,
        }
    }

    /// Independent campaign seeds per OS (and wire mode): the other
    /// half of the workload's scale.
    pub fn replicates(self) -> u64 {
        match self {
            Workload::ApiFuzz => 12,
            Workload::DriverCmplog => 14,
            Workload::CheckpointFabric => 2,
        }
    }

    /// The fabric grids of a fabric workload's cells: one per replicate,
    /// each the two cells of one seed. Empty for the other workloads.
    pub fn grids(self, cells: &[FuzzerConfig]) -> Vec<&[FuzzerConfig]> {
        match self {
            Workload::CheckpointFabric => cells.chunks(FABRIC_OSES.len()).collect(),
            _ => Vec::new(),
        }
    }

    /// The campaign cells for workload seed `seed`. Every field the
    /// measurement depends on is set here, so no environment knob can
    /// change what is measured.
    pub fn cells(self, seed: u64) -> Vec<FuzzerConfig> {
        let hours = self.cell_hours();
        let mut cells = Vec::new();
        for r in 0..self.replicates() {
            match self {
                Workload::ApiFuzz => {
                    for (i, os) in OsKind::ALL.into_iter().enumerate() {
                        let c = FuzzerConfig::eof(os, cell_seed(seed, r, i as u64));
                        cells.push(pin(c, hours, true, CoverageKind::Ring));
                    }
                }
                Workload::DriverCmplog => {
                    for (i, os) in [OsKind::FreeRtos, OsKind::NuttX].into_iter().enumerate() {
                        for vectored in [true, false] {
                            let c = FuzzerConfig::eof_cmplog(os, cell_seed(seed, r, i as u64));
                            cells.push(pin(c, hours, vectored, CoverageKind::Trace));
                        }
                    }
                }
                Workload::CheckpointFabric => {
                    let grid = fabric_grid(&FABRIC_OSES, &[cell_seed(seed, r, 0)], hours, false);
                    cells.extend(
                        grid.into_iter()
                            .map(|c| pin(c, hours, true, CoverageKind::Ring)),
                    );
                }
            }
        }
        cells
    }
}

/// The fabric workload's OSs.
const FABRIC_OSES: [OsKind; 2] = [OsKind::FreeRtos, OsKind::NuttX];

/// Derive the campaign seed of replicate `r`, OS slot `i` from the
/// workload seed (SplitMix64 finaliser).
fn cell_seed(seed: u64, r: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add((r * 16 + i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x6a09_e667_f3bc_c908);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set every knob that has an environment default, plus the budget.
/// `cmplog` and `mmio` keep the preset's value (`eof` has both off,
/// `eof_cmplog` both on) but are written out so the environment cannot
/// reach them.
fn pin(mut c: FuzzerConfig, hours: f64, vectored: bool, cov: CoverageKind) -> FuzzerConfig {
    let cmplog = cov == CoverageKind::Trace;
    c.budget_hours = hours;
    c.snapshot_hours = hours / 4.0;
    c.vectored = vectored;
    c.snapshot = true;
    c.cmplog = cmplog;
    c.mmio = cmplog;
    c.coverage_backend = cov;
    c.persist = None;
    c
}

/// What one cell's campaign produced, in the simulated domain only:
/// reruns of the same cell must reproduce it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSim {
    /// Test cases executed.
    pub execs: u64,
    /// Distinct edges.
    pub branches: usize,
    /// Table-2 bugs found.
    pub bugs: BTreeSet<BugId>,
    /// Simulated cycles of the fuzz phase (`None` where the program
    /// does not report them: fabric cells).
    pub fuzz_cycles: Option<u64>,
    /// Restorations performed (`None` on fabric cells).
    pub restorations: Option<u64>,
    /// Failed syncs plus exhausted link retries.
    pub failed_ops: u64,
}

/// The simulated outcome of a whole pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSim {
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellSim>,
    /// Distinct edges of the workload: the per-cell sum, or on the
    /// fabric the sum of each grid's merged union.
    pub branches: usize,
    /// Fabric failures: failed cells plus the summed failed syncs and
    /// exhausted link retries of completed cells (0 elsewhere).
    pub fabric_failed: u64,
}

impl PassSim {
    /// Total execs.
    pub fn execs(&self) -> u64 {
        self.cells.iter().map(|c| c.execs).sum()
    }

    /// Distinct bugs across cells.
    pub fn bugs(&self) -> BTreeSet<BugId> {
        self.cells
            .iter()
            .flat_map(|c| c.bugs.iter().copied())
            .collect()
    }

    /// Total restorations (0 on the fabric, which does not report them).
    pub fn restorations(&self) -> u64 {
        self.cells.iter().filter_map(|c| c.restorations).sum()
    }

    /// Failed operations: syncs, exhausted link retries, fabric cells.
    pub fn failed_ops(&self) -> u64 {
        self.cells.iter().map(|c| c.failed_ops).sum::<u64>() + self.fabric_failed
    }
}

/// Host seconds of one timed unit of a pass: one cell, or on the
/// fabric one grid's `run_fabric` call with the set-up before it.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTime {
    /// From the unit's first set-up call to its result.
    pub wall_s: f64,
    /// `build_fuzzer` time.
    pub setup_s: f64,
    /// Fuzz-phase time (`run_to_budget`, or `run_fabric`).
    pub fuzz_s: f64,
}

/// One untraced pass: host timings plus the simulated outcome.
#[derive(Debug)]
pub struct Pass {
    /// Timed units, in cell order.
    pub units: Vec<UnitTime>,
    /// Simulated outcome.
    pub sim: PassSim,
    /// Each grid's fabric report, in grid order (fabric workload only).
    pub fabric: Vec<FabricReport>,
}

impl Pass {
    /// Sum of the units' times.
    pub fn total(&self) -> UnitTime {
        self.units
            .iter()
            .fold(UnitTime::default(), |a, u| UnitTime {
                wall_s: a.wall_s + u.wall_s,
                setup_s: a.setup_s + u.setup_s,
                fuzz_s: a.fuzz_s + u.fuzz_s,
            })
    }
}

/// Run one untraced pass of `workload` over `cells`, artifact cache cold
/// at its start. `work` is a scratch directory the fabric may use for
/// its checkpoint stores.
pub fn run_pass(workload: Workload, cells: &[FuzzerConfig], work: &Path) -> Pass {
    clear_caches();
    let grids = workload.grids(cells);
    if !grids.is_empty() {
        let mut units = Vec::new();
        let mut reports = Vec::new();
        for grid in grids {
            let start = Instant::now();
            for cell in grid {
                drop(build_fuzzer(cell.clone(), FaultPlan::none()));
            }
            let setup_s = start.elapsed().as_secs_f64();
            let root = work.join("fabric");
            let _ = std::fs::remove_dir_all(&root);
            let config = FabricConfig::new(grid.to_vec(), FABRIC_WORKERS, &root);
            let t = Instant::now();
            reports.push(run_fabric(&config, &FabricChaosPlan::none()));
            let fuzz_s = t.elapsed().as_secs_f64();
            units.push(UnitTime {
                wall_s: start.elapsed().as_secs_f64(),
                setup_s,
                fuzz_s,
            });
            let _ = std::fs::remove_dir_all(&root);
        }
        return Pass {
            units,
            sim: fabric_sim(&reports),
            fabric: reports,
        };
    }
    let mut units = Vec::new();
    let mut sims = Vec::new();
    let mut branches = 0;
    for cell in cells {
        let start = Instant::now();
        let (mut fuzzer, _, _) = build_fuzzer(cell.clone(), FaultPlan::none());
        let setup_s = start.elapsed().as_secs_f64();
        let c0 = fuzzer.executor().now();
        let t = Instant::now();
        fuzzer.run_to_budget();
        let fuzz_s = t.elapsed().as_secs_f64();
        let resilience = fuzzer.executor().resilience();
        let sim = CellSim {
            execs: fuzzer.stats().execs,
            branches: fuzzer.executor().coverage().branches(),
            bugs: fuzzer.crashes().bugs_found().into_iter().collect(),
            fuzz_cycles: Some(fuzzer.executor().now() - c0),
            restorations: Some(fuzzer.stats().restorations),
            failed_ops: fuzzer.stats().failed_syncs + resilience.link.exhausted,
        };
        branches += sim.branches;
        sims.push(sim);
        units.push(UnitTime {
            wall_s: start.elapsed().as_secs_f64(),
            setup_s,
            fuzz_s,
        });
    }
    Pass {
        units,
        sim: PassSim {
            cells: sims,
            branches,
            fabric_failed: 0,
        },
        fabric: Vec::new(),
    }
}

/// The simulated outcome of fabric runs, one per grid.
fn fabric_sim(reports: &[FabricReport]) -> PassSim {
    let cells = reports
        .iter()
        .flat_map(|r| &r.outcomes)
        .map(|(_, o)| CellSim {
            execs: o.execs,
            branches: o.branches,
            bugs: o.bugs.clone(),
            fuzz_cycles: None,
            restorations: None,
            failed_ops: 0,
        })
        .collect();
    PassSim {
        cells,
        branches: reports.iter().map(|r| r.merged_edges.len()).sum(),
        fabric_failed: reports
            .iter()
            .map(|r| {
                r.failures.len() as u64 + r.resilience.failed_syncs + r.resilience.link.exhausted
            })
            .sum(),
    }
}

/// Everything a fault-free fabric run must not report, and every way it
/// differs from the serial reference over the same cells.
pub fn fabric_faults(report: &FabricReport, serial: &SerialMerge) -> Vec<String> {
    let mut faults: Vec<String> = report.violations.clone();
    for (cell, reason, attempts) in &report.failures {
        faults.push(format!(
            "cell {cell} failed after {attempts} attempts: {reason}"
        ));
    }
    if !report.reassignments.is_empty() {
        faults.push(format!(
            "{} reassignments in a fault-free run",
            report.reassignments.len()
        ));
    }
    faults.extend(diff_against_serial(report, serial));
    faults
}
