//! The `tamper` workload: the attack campaign.
//!
//! Four kernels under guards (d=1.0) plus whole-text encryption, attacked
//! by all seven `Attack` families with seeded trials, run through
//! `flexprot_exec::Engine::run_jobs` and `JobCtx::attack_cell` as the
//! `experiments` binary does. Each trial is a short, re-armed, traced and
//! often halted run plus one full verify of the mutated image, so per-run
//! set-up costs show here and not in `simulate`.
//!
//! The timed campaign runs one cell at a time on a one-worker engine: with
//! two workers on a shared two-core host, the campaign's throughput spread
//! half again as wide from run to run. exec's straggler imbalance is
//! measured in the traced run, on two workers.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use flexprot_attack::harness::{static_detects, DetectionCause, TrialOutcome};
use flexprot_attack::{Attack, AttackSummary, StaticOracle};
use flexprot_core::{Granularity, Protected};
use flexprot_exec::{AttackSpec, Engine, Job};
use flexprot_isa::Rng64;
use flexprot_secmon::SecMon;
use flexprot_sim::{Fault, Machine, Outcome, RunResult, SimConfig};
use flexprot_trace::{Recorder, TraceEvent};

use crate::keys::Keys;
use crate::report::Report;
use crate::secs;
use crate::stats::median;

/// The attacked kernels.
pub const PROGRAMS: [&str; 4] = ["rle", "dijkstra", "callgrid", "sieve"];
/// Seeded trials per (kernel, attack) cell.
pub const TRIALS: u32 = 40;

/// One campaign round's results, in job order.
type Round = Vec<(Result<AttackSummary, String>, f64)>;

/// The set-up state: the job list and a warmed one-worker engine.
pub struct TamperBench {
    jobs: Vec<Job>,
    engine: Engine,
}

/// The worker count of the traced parallel campaign: two, or one on a
/// single core.
fn parallel_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl TamperBench {
    /// Builds the job list and warms a one-worker engine's artifact cache
    /// with every baseline and protected binary the campaign needs.
    ///
    /// # Errors
    ///
    /// Fails when a kernel cannot be protected.
    pub fn setup(keys: &Keys) -> Result<TamperBench, String> {
        let config = keys.guarded_encrypted(1.0, Granularity::Program);
        let mut jobs = Vec::new();
        for (p, name) in PROGRAMS.iter().enumerate() {
            let w = flexprot_workloads::by_name(name).ok_or(format!("no kernel {name}"))?;
            for (a, attack) in Attack::all().into_iter().enumerate() {
                jobs.push(Job::new(w, config.clone()).with_attack(AttackSpec {
                    attack,
                    trials: TRIALS,
                    seed: keys.attack_cell_seed(p, a),
                }));
            }
        }
        let engine = warmed(&jobs, 1)?;
        Ok(TamperBench { jobs, engine })
    }

    /// Runs the next cell into `samples`, the cells in turn, so that each
    /// cell's samples spread over the whole run. The first round over all
    /// cells is the reference every later run of a cell must reproduce
    /// exactly.
    pub fn sample(&self, samples: &mut TamperSamples, report: &mut Report) {
        let n = self.jobs.len();
        if samples.times.is_empty() {
            samples.times = vec![Vec::new(); n];
        }
        let c = samples.runs % n;
        let (mut cells, _) = timed_round(&self.engine, &self.jobs[c..=c]);
        let (result, seconds) = cells.pop().expect("one cell");
        samples.times[c].push(seconds);
        let summary = report.op(&cell_label(&self.jobs[c]), result);
        if samples.first.len() < n {
            samples.first.push(summary);
        } else {
            let round = samples.runs / n;
            report.check(summary == samples.first[c], || {
                format!(
                    "{}: round {round} summary differs from round 0",
                    cell_label(&self.jobs[c])
                )
            });
        }
        samples.runs += 1;
    }

    /// Reports the end-to-end metrics of the sampled cells: applied trials
    /// of a round over the sum of each cell's median host time.
    pub fn finish(&self, samples: &TamperSamples, report: &mut Report) {
        let mut campaign = AttackSummary::default();
        for summary in samples.first.iter().flatten() {
            campaign.merge(summary);
        }
        let round_secs: f64 = samples.times.iter().map(|t| median(t)).sum();
        report.put(
            "tamper_trials_per_s",
            f64::from(campaign.applied) / round_secs,
            "1/s",
        );
        report.put("detection_rate", campaign.detection_rate(), "ratio");
        report.note(format!(
            "tamper: {} cell runs of {} cells on 1 worker; {} applied trials per round, {} detected, {} faulted",
            samples.runs,
            self.jobs.len(),
            campaign.applied,
            campaign.detected,
            campaign.faulted
        ));
    }

    /// One campaign round on `engine`, each cell timed and guarded against
    /// panics: the summaries (`None` where a cell failed, counted in
    /// `report`) and the round's wall time.
    fn round(&self, engine: &Engine, report: &mut Report) -> (Vec<Option<AttackSummary>>, f64) {
        let (cells, wall) = timed_round(engine, &self.jobs);
        let summaries = cells
            .into_iter()
            .zip(&self.jobs)
            .map(|((result, _), job)| report.op(&cell_label(job), result))
            .collect();
        (summaries, wall)
    }

    /// The traced pass: a round on a warmed engine with
    /// [`parallel_workers`] workers timing every cell, the same round on
    /// the one-worker engine, which must agree exactly, then a serial
    /// replay of every cell through the public pieces `evaluate` is made
    /// of, timing each and checking it reproduces the cell's
    /// `AttackSummary` exactly.
    pub fn trace(&self, report: &mut Report) {
        let workers = parallel_workers();
        let engine = match warmed(&self.jobs, workers) {
            Ok(engine) => engine,
            Err(e) => {
                report.error(format!("tamper: {workers}-worker engine: {e}"));
                return;
            }
        };
        let before = engine.cache().stats();
        let (cells, wall) = timed_round(&engine, &self.jobs);
        let after = engine.cache().stats();
        let busy: f64 = cells.iter().map(|(_, t)| t).sum();
        report.put("exec.busy_frac", busy / (workers as f64 * wall), "ratio");
        report.put(
            "exec.cache_hits",
            (after.hits - before.hits) as f64,
            "count",
        );
        report.put(
            "exec.cache_misses",
            (after.misses - before.misses) as f64,
            "count",
        );
        for name in PROGRAMS {
            let t: f64 = cells
                .iter()
                .zip(&self.jobs)
                .filter(|(_, job)| job.workload.name == name)
                .map(|((_, t), _)| t)
                .sum();
            report.put(format!("tamper.cell.{name}_s"), t, "s");
        }
        let parallel: Vec<Option<AttackSummary>> = cells
            .into_iter()
            .zip(&self.jobs)
            .map(|((result, _), job)| report.op(&cell_label(job), result))
            .collect();

        // The one-worker campaign must agree exactly; it is also the
        // untraced reference of the serial replay.
        let (serial, serial_wall) = self.round(&self.engine, report);
        report.check(serial == parallel, || {
            format!("tamper: 1-worker and {workers}-worker campaigns disagree")
        });

        let mut layers = ReplayLayers::default();
        let t = Instant::now();
        for (job, expected) in self.jobs.iter().zip(&parallel) {
            let replayed = replay(&self.engine, job, &mut layers);
            report.check(expected.as_ref() == Some(&replayed), || {
                format!("{}: replay differs from attack_cell", cell_label(job))
            });
        }
        let replay_wall = secs(t);
        let trials = f64::from(layers.applied.max(1));
        report.put("tamper.static_ms", layers.static_secs * 1e3 / trials, "ms");
        report.put("tamper.oracle_ms", layers.oracle_secs * 1e3 / trials, "ms");
        report.put("tamper.rearm_us", layers.rearm_secs * 1e6 / trials, "us");
        report.put("tamper.run_ms", layers.run_secs * 1e3 / trials, "ms");
        report.put(
            "tamper.insts_per_trial",
            layers.instructions as f64 / trials,
            "count",
        );
        report.put(
            "tamper.timeout_frac",
            f64::from(layers.timeouts) / trials,
            "ratio",
        );
        report.put(
            "trace.overhead_frac.tamper",
            replay_wall / serial_wall - 1.0,
            "ratio",
        );
        report.note(format!(
            "tamper trace: {workers}-worker round {wall:.3} s; 1-worker round {serial_wall:.3} s; serial replay {replay_wall:.3} s"
        ));
    }
}

/// The untraced samples of a run's `tamper` cells.
#[derive(Debug, Default)]
pub struct TamperSamples {
    times: Vec<Vec<f64>>,
    first: Vec<Option<AttackSummary>>,
    runs: usize,
}

impl TamperSamples {
    /// Whether every cell has run at least once.
    pub fn has_round(&self) -> bool {
        self.runs > 0 && self.runs >= self.times.len()
    }
}

/// An engine with `workers` workers whose cache already holds every
/// baseline and protected binary of `jobs`.
fn warmed(jobs: &[Job], workers: usize) -> Result<Engine, String> {
    let engine = Engine::new(workers);
    for job in jobs {
        engine.cache().baseline(&job.workload, &job.sim);
        engine
            .cache()
            .protected(&job.workload, &job.config, None)
            .map_err(|e| format!("{}: {e}", job.workload.name))?;
    }
    Ok(engine)
}

/// Runs every job's `attack_cell` on `engine`, timing each cell and
/// catching its panic; returns the cells in job order and the wall time.
fn timed_round(engine: &Engine, jobs: &[Job]) -> (Round, f64) {
    let t = Instant::now();
    let cells = engine.run_jobs(jobs, |ctx, job| {
        let t = Instant::now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| ctx.attack_cell(job)))
            .map_err(|payload| panic_message(payload.as_ref()));
        (result, secs(t))
    });
    (cells, secs(t))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

fn cell_label(job: &Job) -> String {
    let attack = job.attack.as_ref().map_or("none", |a| a.attack.name());
    format!("tamper {} {attack}", job.workload.name)
}

/// Host time per replayed piece, summed over trials, plus work counts.
#[derive(Debug, Default)]
struct ReplayLayers {
    static_secs: f64,
    oracle_secs: f64,
    rearm_secs: f64,
    run_secs: f64,
    applied: u32,
    instructions: u64,
    timeouts: u32,
}

/// Replays one attack cell trial by trial through the public pieces
/// `flexprot_attack::evaluate` is made of, with the fuel limit
/// `attack_cell` derives, timing each piece.
fn replay(engine: &Engine, job: &Job, layers: &mut ReplayLayers) -> AttackSummary {
    let spec = job.attack.as_ref().expect("attack job");
    let baseline = engine.cache().baseline(&job.workload, &job.sim);
    let Ok(protected) = engine.cache().protected(&job.workload, &job.config, None) else {
        return AttackSummary::default();
    };
    let sim = SimConfig {
        max_instructions: baseline.run.stats.instructions * 4 + 10_000,
        ..job.sim.clone()
    };
    let expected = job.workload.expected_output();
    let mut rng = Rng64::new(spec.seed);
    let mut summary = AttackSummary::default();
    let mut machine: Option<Machine<SecMon>> = None;
    let t = Instant::now();
    let oracle = StaticOracle::new(&protected.image, &protected.secmon);
    layers.oracle_secs += secs(t);
    for _ in 0..spec.trials {
        let mut mutated: Protected = (*protected).clone();
        if !spec.attack.apply(&mut mutated.image, &mut rng) {
            continue;
        }
        let t = Instant::now();
        let flagged = static_detects(&mutated.image, &mutated.secmon);
        layers.static_secs += secs(t);
        let t = Instant::now();
        let predicted = oracle.predicts(&protected.image, &mutated.image);
        layers.oracle_secs += secs(t);
        let t = Instant::now();
        match machine.as_mut() {
            Some(m) => mutated.rearm(m),
            None => machine = Some(mutated.machine(sim.clone())),
        }
        layers.rearm_secs += secs(t);
        let m = machine.as_mut().expect("machine built on the first trial");
        let t = Instant::now();
        let (sink, recorder) = Recorder::new().shared();
        m.monitor_mut().attach_sink(sink.clone());
        m.attach_sink(sink);
        let result = m.run();
        layers.run_secs += secs(t);
        let first_failure = recorder.borrow().first_failure();
        let (outcome, cause) = classify(&result, first_failure, &expected);
        layers.applied += 1;
        layers.instructions += result.stats.instructions;
        layers.timeouts += u32::from(outcome == TrialOutcome::Timeout);
        record(&mut summary, outcome, cause, flagged, predicted);
    }
    summary
}

/// Classifies an attacked run the way the harness does.
fn classify(
    result: &RunResult,
    first_failure: Option<TraceEvent>,
    expected: &str,
) -> (TrialOutcome, Option<DetectionCause>) {
    let outcome = match result.outcome {
        Outcome::TamperDetected(_) => TrialOutcome::Detected {
            latency_instrs: result.stats.instructions,
        },
        Outcome::Fault(_) => TrialOutcome::Faulted,
        Outcome::OutOfFuel => TrialOutcome::Timeout,
        Outcome::Exit(0) if result.output == expected => TrialOutcome::Benign,
        Outcome::Exit(_) => TrialOutcome::WrongOutput,
    };
    let cause = match &result.outcome {
        Outcome::TamperDetected(_) => Some(match first_failure {
            Some(TraceEvent::SpacingExceeded { .. }) => DetectionCause::SpacingBound,
            _ => DetectionCause::GuardFail,
        }),
        Outcome::Fault(Fault::IllegalInstruction { .. }) => Some(DetectionCause::DecryptGarble),
        Outcome::Fault(Fault::WildPc { .. }) => Some(DetectionCause::WildControlFlow),
        Outcome::Fault(_) => Some(DetectionCause::OtherFault),
        Outcome::Exit(_) | Outcome::OutOfFuel => None,
    };
    (outcome, cause)
}

/// Tallies one applied trial into `summary` the way the harness does.
fn record(
    summary: &mut AttackSummary,
    outcome: TrialOutcome,
    cause: Option<DetectionCause>,
    flagged: bool,
    predicted: bool,
) {
    summary.applied += 1;
    summary.static_detected += u32::from(flagged);
    if let Some(cause) = cause {
        *summary.causes.entry(cause).or_insert(0) += 1;
    }
    let caught = match outcome {
        TrialOutcome::Detected { latency_instrs } => {
            summary.detected += 1;
            summary.latency_sum += latency_instrs;
            summary.latencies.push(latency_instrs);
            true
        }
        TrialOutcome::Faulted => {
            summary.faulted += 1;
            true
        }
        TrialOutcome::WrongOutput => {
            summary.wrong_output += 1;
            false
        }
        TrialOutcome::Timeout => {
            summary.timeout += 1;
            false
        }
        TrialOutcome::Benign | TrialOutcome::Inapplicable => {
            summary.benign += u32::from(outcome == TrialOutcome::Benign);
            return;
        }
    };
    match (predicted, caught) {
        (true, true) => summary.oracle_true_pos += 1,
        (true, false) => summary.oracle_false_pos += 1,
        (false, true) => summary.oracle_false_neg += 1,
        (false, false) => summary.oracle_true_neg += 1,
    }
}
