//! The `simulate` workload: the deployed run, one thread.
//!
//! One operation runs one protected image to completion on the default
//! (predecoded) engine and checks its exit code and output against the
//! kernel's Rust reference. Every image is built in set-up, so the
//! simulator and the secure monitor do all the work and the verifier does
//! none. Each run builds a fresh machine: the simulated caches start cold.

use std::time::Instant;

use flexprot_core::{optimize, protect, Cfg, Granularity, Profile, Protected, ProtectionConfig};
use flexprot_sim::{Outcome, SimConfig, Stats};
use flexprot_workloads::Workload;

use crate::keys::{is_minic, Keys};
use crate::report::Report;
use crate::stats::{geomean, median};
use crate::{closed_loop, secs};

/// The protection cells every kernel runs under.
pub const CELLS: [&str; 5] = ["base", "enc", "guards", "protected", "plan"];
const BASE: usize = 0;
const GUARDS: usize = 2;
const PROTECTED: usize = 3;
const PLAN: usize = 4;
/// The optimizer budget of the `plan` cell.
pub const PLAN_BUDGET: f64 = 0.10;

/// The simulator's own characterization of every kernel's unprotected run
/// (workload, text words, data bytes, instructions, cycles, ...). The
/// `base` cell must reproduce its instruction and cycle counts exactly.
const T1_CSV: &str = include_str!("../../results/t1.csv");

/// What one simulated run produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The simulator's counters.
    pub stats: Stats,
    /// Guard checks the monitor passed.
    pub guard_checks: u64,
}

/// The set-up state: every kernel's five protected images.
pub struct SimulateBench {
    programs: Vec<Workload>,
    expected: Vec<String>,
    images: Vec<[Protected; 5]>,
}

impl SimulateBench {
    /// Builds all images: profiles each kernel for its plan, then protects
    /// it under each cell.
    ///
    /// # Errors
    ///
    /// Fails when a baseline run is wrong or a cell fails to protect.
    pub fn setup(keys: &Keys) -> Result<SimulateBench, String> {
        let programs = flexprot_workloads::all();
        let mut expected = Vec::new();
        let mut images = Vec::new();
        for w in &programs {
            let image = w.image_cached();
            let (profile, run) = Profile::collect(&image, &SimConfig::default());
            let reference = w.expected_output();
            if run.outcome != Outcome::Exit(0) || run.output != reference {
                return Err(format!(
                    "{}: baseline run is wrong: {:?}",
                    w.name, run.outcome
                ));
            }
            let cfg = Cfg::recover(&image).map_err(|e| e.to_string())?;
            let plan = optimize(&image, &cfg, &profile, &keys.optimizer(PLAN_BUDGET));
            let configs = [
                (ProtectionConfig::new(), None),
                (
                    ProtectionConfig::new().with_encryption(keys.encryption(Granularity::Program)),
                    None,
                ),
                (ProtectionConfig::new().with_guards(keys.guards(1.0)), None),
                (keys.guarded_encrypted(1.0, Granularity::Program), None),
                (keys.from_plan(&plan), Some(&profile)),
            ];
            let built: Vec<Protected> = configs
                .iter()
                .map(|(config, profile)| protect(&image, config, *profile))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{}: {e}", w.name))?;
            images.push(built.try_into().expect("five cells"));
            expected.push(reference);
        }
        Ok(SimulateBench {
            programs,
            expected,
            images,
        })
    }

    /// One operation: arm a fresh machine, run to completion, check the
    /// result against the reference output.
    fn run(&self, program: usize, cell: usize) -> Result<RunRecord, String> {
        let mut machine = self.images[program][cell].machine(SimConfig::default());
        let result = machine.run();
        if result.outcome != Outcome::Exit(0) || result.output != self.expected[program] {
            return Err(format!(
                "{} {}: {:?} with output {:?}",
                self.programs[program].name, CELLS[cell], result.outcome, result.output
            ));
        }
        Ok(RunRecord {
            stats: result.stats,
            guard_checks: machine.monitor().checks_passed(),
        })
    }

    /// One kernel's five cells: host seconds per run and the records
    /// (`None` where the run failed, counted in `report`).
    fn slice(
        &self,
        program: usize,
        report: &mut Report,
        seconds: &mut [Vec<f64>; 5],
    ) -> [Option<RunRecord>; 5] {
        std::array::from_fn(|c| {
            let t = Instant::now();
            let run = self.run(program, c);
            seconds[c].push(secs(t));
            report.op("simulate", run)
        })
    }

    /// One round over every (kernel, cell).
    fn round(
        &self,
        report: &mut Report,
        seconds: &mut [[Vec<f64>; 5]],
    ) -> Vec<[Option<RunRecord>; 5]> {
        (0..self.programs.len())
            .map(|p| self.slice(p, report, &mut seconds[p]))
            .collect()
    }

    /// Runs the next kernel's five cells into `samples`, the kernels in
    /// turn, so that each kernel's samples spread over the whole run. The
    /// first round over all kernels is the reference every later slice
    /// must repeat exactly.
    pub fn sample(&self, samples: &mut SimulateSamples, report: &mut Report) {
        let n = self.programs.len();
        if samples.times.is_empty() {
            samples.times = vec![<[Vec<f64>; 5]>::default(); n];
        }
        let p = samples.slices % n;
        let records = self.slice(p, report, &mut samples.times[p]);
        if samples.first.len() < n {
            samples.first.push(records);
        } else {
            let round = samples.slices / n;
            report.check(records == samples.first[p], || {
                format!(
                    "simulate: {} counters of round {round} differ from round 0",
                    self.programs[p].name
                )
            });
        }
        samples.slices += 1;
    }

    /// Checks the `base` cell against `results/t1.csv` and reports the
    /// end-to-end metrics of the sampled rounds.
    pub fn finish(&self, samples: &SimulateSamples, report: &mut Report) {
        self.check_t1(&samples.first, report);
        let Some(records) = complete(&samples.first) else {
            return;
        };
        let times = &samples.times;
        let minst = |p: usize, c: usize| {
            records[p][c].stats.instructions as f64 / median(&times[p][c]) / 1e6
        };
        let all: Vec<usize> = (0..self.programs.len()).collect();
        let over = |c: usize| geomean(&all.iter().map(|&p| minst(p, c)).collect::<Vec<_>>());
        report.put("sim_minst_per_s.base", over(BASE), "Minst/s");
        report.put("sim_minst_per_s.protected", over(PROTECTED), "Minst/s");
        let ratios: Vec<f64> = records
            .iter()
            .map(|r| r[PROTECTED].stats.cycles as f64 / r[BASE].stats.cycles as f64)
            .collect();
        report.put(
            "sim_cycle_overhead_pct",
            (geomean(&ratios) - 1.0) * 100.0,
            "%",
        );
        let misses = records
            .iter()
            .filter(|r| plan_overhead(r) > PLAN_BUDGET)
            .count();
        report.put(
            "budget_miss_frac",
            misses as f64 / records.len() as f64,
            "ratio",
        );
        report.note(format!(
            "simulate: {} slices of one kernel's {} cells, kernels in turn; plan images over their {}% budget: {misses}/{}",
            samples.slices,
            CELLS.len(),
            PLAN_BUDGET * 100.0,
            records.len()
        ));
    }

    /// Compares the `base` cell's instructions and cycles with
    /// `results/t1.csv` row by row.
    fn check_t1(&self, first: &[[Option<RunRecord>; 5]], report: &mut Report) {
        for (p, w) in self.programs.iter().enumerate() {
            let row = T1_CSV
                .lines()
                .map(|l| l.split(',').collect::<Vec<_>>())
                .find(|f| f[0] == w.name);
            let Some(row) = row else {
                report.error(format!("{}: no row in results/t1.csv", w.name));
                continue;
            };
            if let Some(r) = &first.get(p).and_then(|cells| cells[BASE].as_ref()) {
                let got = (r.stats.instructions.to_string(), r.stats.cycles.to_string());
                report.check(got.0 == row[3] && got.1 == row[4], || {
                    format!(
                        "{}: base run has {} instructions / {} cycles, results/t1.csv has {} / {}",
                        w.name, got.0, got.1, row[3], row[4]
                    )
                });
            }
        }
    }

    /// The traced pass for at least `seconds`: untraced and traced rounds
    /// alternate, so the overhead compares the same work under the same
    /// host conditions; the traced rounds time arming and running apart
    /// and must repeat the untraced counters.
    pub fn trace(&self, seconds: f64, report: &mut Report) {
        let n = self.programs.len();
        let mut reference = Vec::new();
        let mut arm: Vec<f64> = Vec::new();
        let mut run_secs = vec![<[Vec<f64>; 5]>::default(); n];
        let (mut untraced, mut traced_time) = (0.0, 0.0);
        let rounds = closed_loop(seconds, |round| {
            let t = Instant::now();
            let records = self.round(report, &mut vec![<[Vec<f64>; 5]>::default(); n]);
            untraced += secs(t);
            if round == 0 {
                reference = records;
            }
            let t = Instant::now();
            for p in 0..n {
                for c in 0..CELLS.len() {
                    let ta = Instant::now();
                    let mut machine = self.images[p][c].machine(SimConfig::default());
                    if c == PROTECTED {
                        arm.push(secs(ta));
                    }
                    let tr = Instant::now();
                    let result = machine.run();
                    run_secs[p][c].push(secs(tr));
                    let ok =
                        result.outcome == Outcome::Exit(0) && result.output == self.expected[p];
                    let record = RunRecord {
                        stats: result.stats,
                        guard_checks: machine.monitor().checks_passed(),
                    };
                    let same = reference[p][c].as_ref() == Some(&record);
                    let outcome = if ok && same {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} {}: traced run differs",
                            self.programs[p].name, CELLS[c]
                        ))
                    };
                    report.op("traced simulate", outcome);
                }
            }
            traced_time += secs(t);
        });
        report.put(
            "trace.overhead_frac.simulate",
            traced_time / untraced - 1.0,
            "ratio",
        );
        let Some(records) = complete(&reference) else {
            return;
        };
        let minst = |p: usize, c: usize| {
            records[p][c].stats.instructions as f64 / median(&run_secs[p][c]) / 1e6
        };
        let gm =
            |ps: &[usize], c: usize| geomean(&ps.iter().map(|&p| minst(p, c)).collect::<Vec<_>>());
        let all: Vec<usize> = (0..n).collect();
        for (c, cell) in CELLS.iter().enumerate() {
            report.put(format!("sim.{cell}.minst_per_s"), gm(&all, c), "Minst/s");
            let sum =
                |f: fn(&Stats) -> u64| records.iter().map(|r| f(&r[c].stats)).sum::<u64>() as f64;
            report.put(
                format!("sim.{cell}.instructions"),
                sum(|s| s.instructions),
                "count",
            );
            report.put(format!("sim.{cell}.cycles"), sum(|s| s.cycles), "count");
            report.put(
                format!("sim.{cell}.icache_misses"),
                sum(|s| s.icache_misses),
                "count",
            );
            report.put(
                format!("sim.{cell}.dcache_accesses"),
                sum(|s| s.dcache_accesses),
                "count",
            );
        }
        for (p, w) in self.programs.iter().enumerate() {
            report.put(
                format!("sim.{}.base.minst_per_s", w.name),
                minst(p, BASE),
                "Minst/s",
            );
            report.put(
                format!("sim.{}.protected.minst_per_s", w.name),
                minst(p, PROTECTED),
                "Minst/s",
            );
        }
        let (minic, asm): (Vec<usize>, Vec<usize>) =
            all.iter().partition(|&&p| is_minic(self.programs[p].name));
        report.put("sim.minic.base.minst_per_s", gm(&minic, BASE), "Minst/s");
        report.put("sim.asm.base.minst_per_s", gm(&asm, BASE), "Minst/s");
        report.put("sim.arm_us", median(&arm) * 1e6, "us");

        let ns_per_inst = |c: usize| {
            let t: f64 = (0..n).map(|p| median(&run_secs[p][c])).sum();
            let i: u64 = records.iter().map(|r| r[c].stats.instructions).sum();
            t * 1e9 / i as f64
        };
        report.put(
            "secmon.ns_per_inst",
            ns_per_inst(GUARDS) - ns_per_inst(BASE),
            "ns",
        );
        report.put(
            "secmon.guard_checks",
            records.iter().map(|r| r[GUARDS].guard_checks).sum::<u64>() as f64,
            "count",
        );
        report.put(
            "secmon.decrypt_stall_cycles",
            records
                .iter()
                .map(|r| r[PROTECTED].stats.monitor_fill_cycles)
                .sum::<u64>() as f64,
            "count",
        );
        report.note(format!(
            "simulate trace: {rounds} untraced rounds {untraced:.3} s, {rounds} traced rounds {traced_time:.3} s"
        ));
    }
}

/// The untraced samples of a run's `simulate` rounds.
#[derive(Debug, Default)]
pub struct SimulateSamples {
    times: Vec<[Vec<f64>; 5]>,
    first: Vec<[Option<RunRecord>; 5]>,
    slices: usize,
}

impl SimulateSamples {
    /// Whether every kernel has run at least once.
    pub fn has_round(&self) -> bool {
        self.slices > 0 && self.slices >= self.times.len()
    }
}

/// The plan image's simulated overhead over the base image, as a fraction.
fn plan_overhead(r: &[RunRecord; 5]) -> f64 {
    r[PLAN].stats.cycles as f64 / r[BASE].stats.cycles as f64 - 1.0
}

/// The records of a round in which every run succeeded.
fn complete(round: &[[Option<RunRecord>; 5]]) -> Option<Vec<[RunRecord; 5]>> {
    round
        .iter()
        .map(|cells| {
            let v: Option<Vec<RunRecord>> = cells.iter().cloned().collect();
            v.map(|v| v.try_into().expect("five cells"))
        })
        .collect()
}
