//! The flexprot benchmark.
//!
//! Three single-process, closed-loop workloads — the vendor's build
//! ([`protect`]), the deployed run ([`simulate`]) and the attack campaign
//! ([`tamper`]) — measured from outside through each crate's public
//! functions. See `README.md` beside this crate for what each workload
//! exercises and which metric each layer should move.

pub mod keys;
pub mod protect;
pub mod reference;
pub mod report;
pub mod simulate;
pub mod stats;
pub mod tamper;

use std::time::Instant;

use keys::Keys;
use protect::ProtectBench;
use report::Report;
use simulate::SimulateBench;
use tamper::TamperBench;

/// The workloads `--workload` can name.
pub const WORKLOADS: [&str; 3] = ["protect", "simulate", "tamper"];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("protect_p50_ms", "ms"),
    ("protect_p99_ms", "ms"),
    ("text_growth_pct", "%"),
    ("sim_minst_per_s.base", "Minst/s"),
    ("sim_minst_per_s.protected", "Minst/s"),
    ("sim_cycle_overhead_pct", "%"),
    ("budget_miss_frac", "ratio"),
    ("tamper_trials_per_s", "1/s"),
    ("detection_rate", "ratio"),
];

/// How often an untraced run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The share of an untraced run's host time the named workload gets; the
/// other two split the rest, so that every run reports every end-to-end
/// metric.
pub const NAMED_SHARE: f64 = 0.4;

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `round` (given its index) until at least `seconds` have passed,
/// at least once; only whole rounds run, so every round does the same
/// work. Returns the number of rounds.
pub fn closed_loop(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || secs(start) < seconds {
        round(rounds);
        rounds += 1;
    }
    rounds
}

/// A sample-count note: the count and the highest percentile that has at
/// least ten samples beyond it.
pub fn backed(samples: &[f64]) -> String {
    match stats::highest_backed_percentile(samples.len()) {
        Some(p) => format!(
            "{} samples, p{p} = {:.4}",
            samples.len(),
            stats::quantile(samples, p / 100.0)
        ),
        None => format!("{} samples, too few for any percentile", samples.len()),
    }
}

/// Every workload's set-up state.
pub struct Benches {
    /// The `protect` workload.
    pub protect: ProtectBench,
    /// The `simulate` workload.
    pub simulate: SimulateBench,
    /// The `tamper` workload.
    pub tamper: TamperBench,
}

impl Benches {
    /// Sets up all three workloads.
    ///
    /// # Errors
    ///
    /// Propagates the first set-up failure.
    pub fn setup(keys: &Keys) -> Result<Benches, String> {
        Ok(Benches {
            protect: ProtectBench::setup(keys)?,
            simulate: SimulateBench::setup(keys)?,
            tamper: TamperBench::setup(keys)?,
        })
    }
}

/// The per-layer metrics a traced run reports, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| names.push((name, unit));
    for n in ["front.asm_ms", "front.cc_ms"] {
        add(n.into(), "ms");
    }
    for n in ["optimize", "guards", "watermark", "encrypt", "selfcheck"] {
        add(format!("core.{n}_ms"), "ms");
    }
    add("protect.postcondition_share".into(), "ratio");
    add("core.guards_inserted".into(), "count");
    add("core.text_words_out".into(), "count");
    for n in [
        "flow", "cfg", "domtree", "liveness", "coverage", "memdom", "absint", "guardnet", "taint",
        "equiv",
    ] {
        add(format!("verify.{n}_ms"), "ms");
    }
    add("verify.us_per_text_word".into(), "us");
    add("verify.windows_proven".into(), "count");
    add("verify.windows_refused".into(), "count");
    add("verify.proven_frac".into(), "ratio");
    for cell in simulate::CELLS {
        add(format!("sim.{cell}.minst_per_s"), "Minst/s");
    }
    for w in flexprot_workloads::all() {
        for cell in ["base", "protected"] {
            add(format!("sim.{}.{cell}.minst_per_s", w.name), "Minst/s");
        }
    }
    add("sim.minic.base.minst_per_s".into(), "Minst/s");
    add("sim.asm.base.minst_per_s".into(), "Minst/s");
    add("sim.arm_us".into(), "us");
    for cell in simulate::CELLS {
        for counter in ["instructions", "cycles", "icache_misses", "dcache_accesses"] {
            add(format!("sim.{cell}.{counter}"), "count");
        }
    }
    add("secmon.ns_per_inst".into(), "ns");
    add("secmon.guard_checks".into(), "count");
    add("secmon.decrypt_stall_cycles".into(), "count");
    for (n, unit) in [
        ("static_ms", "ms"),
        ("oracle_ms", "ms"),
        ("rearm_us", "us"),
        ("run_ms", "ms"),
        ("insts_per_trial", "count"),
        ("timeout_frac", "ratio"),
    ] {
        add(format!("tamper.{n}"), unit);
    }
    for p in tamper::PROGRAMS {
        add(format!("tamper.cell.{p}_s"), "s");
    }
    for n in ["cache_hits", "cache_misses"] {
        add(format!("exec.{n}"), "count");
    }
    add("exec.busy_frac".into(), "ratio");
    for w in WORKLOADS {
        add(format!("trace.overhead_frac.{w}"), "ratio");
    }
    names
}

/// The process's peak resident set size in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics taken in host time, with the power of host
/// seconds in their unit: each is scaled to the host's nominal speed by
/// the [`reference`] pass.
pub const HOST_TIME: [(&str, i32); 6] = [
    ("setup_s", 1),
    ("protect_p50_ms", 1),
    ("protect_p99_ms", 1),
    ("sim_minst_per_s.base", -1),
    ("sim_minst_per_s.protected", -1),
    ("tamper_trials_per_s", -1),
];

/// Sets every workload up once, adding the host seconds it took to
/// `times`.
fn timed_setup(keys: &Keys, times: &mut Vec<f64>) -> Result<Benches, String> {
    let t = Instant::now();
    let benches = Benches::setup(keys).map_err(|e| format!("set-up: {e}"))?;
    times.push(secs(t));
    Ok(benches)
}

/// One benchmark run.
///
/// Set-up builds every workload's inputs. An untraced run then measures
/// for `seconds`, interleaving small steps of the three workloads so that
/// each one's samples spread over the whole run: the step to run next is
/// always the one of the workload furthest below its share of the time
/// spent, where `workload` has [`NAMED_SHARE`]; past `seconds` only the
/// workloads that have not yet finished a round go on. It repeats the set-up
/// [`SETUP_REPEATS`]` - 1` more times at even steps of the measured time
/// (outside it), so that `setup_s` sees the host over the whole run too.
/// A [`reference::pass`] follows every step, and the [`HOST_TIME`]
/// metrics are scaled to the host's nominal speed by the median pass. A
/// traced run instead runs the traced pass of all three workloads and
/// reports every per-layer metric, unscaled.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    let keys = Keys::from_seed(seed);
    let mut report = Report::default();
    let mut setup_secs = Vec::new();
    let b = match timed_setup(&keys, &mut setup_secs) {
        Ok(b) => b,
        Err(e) => {
            report.error(e);
            return report;
        }
    };
    if trace {
        b.protect.trace(seconds / 3.0, &mut report);
        b.simulate.trace(seconds / 3.0, &mut report);
        b.tamper.trace(&mut report);
        return report;
    }
    let shares = WORKLOADS.map(|w| {
        if w == workload {
            NAMED_SHARE
        } else {
            (1.0 - NAMED_SHARE) / 2.0
        }
    });
    let mut passes = Vec::new();
    let mut spent = [0.0f64; 3];
    let mut samples = (
        protect::ProtectSamples::default(),
        simulate::SimulateSamples::default(),
        tamper::TamperSamples::default(),
    );
    loop {
        let measured: f64 = spent.iter().sum();
        let setup_due = seconds * setup_secs.len() as f64 / SETUP_REPEATS as f64;
        let unfinished = [
            spent[0] == 0.0,
            !samples.1.has_round(),
            !samples.2.has_round(),
        ];
        let measuring = measured < seconds || unfinished.contains(&true);
        if setup_secs.len() < SETUP_REPEATS && (measured >= setup_due || !measuring) {
            if let Err(e) = timed_setup(&keys, &mut setup_secs) {
                report.error(e);
                return report;
            }
            continue;
        }
        if !measuring {
            break;
        }
        // Past `seconds`, only the workloads yet to finish a round run.
        let next = (0..3)
            .filter(|&w| measured < seconds || unfinished[w])
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("a workload to run");
        let t = Instant::now();
        match next {
            0 => b.protect.sample(&mut samples.0, &mut report),
            1 => b.simulate.sample(&mut samples.1, &mut report),
            _ => b.tamper.sample(&mut samples.2, &mut report),
        }
        spent[next] += secs(t);
        passes.push(reference::pass());
    }
    report.put("setup_s", stats::median(&setup_secs), "s");
    report.note(format!(
        "setup: {SETUP_REPEATS} repeats, seconds {setup_secs:.3?}"
    ));
    b.protect.finish(&samples.0, &mut report);
    b.simulate.finish(&samples.1, &mut report);
    b.tamper.finish(&samples.2, &mut report);
    report.note(format!(
        "host seconds per workload {WORKLOADS:?}: {spent:.3?}"
    ));
    let pass = stats::median(&passes);
    let mut unscaled = Vec::new();
    let speed = reference::NOMINAL_SECS / pass;
    for (name, power) in HOST_TIME {
        if let Some(v) = report.scale(name, speed.powi(power)) {
            unscaled.push(format!("{name} {v:.4}"));
        }
    }
    report.note(format!(
        "reference: {} passes, median {:.3} ms against {:.3} ms nominal; unscaled: {}",
        passes.len(),
        pass * 1e3,
        reference::NOMINAL_SECS * 1e3,
        unscaled.join(", ")
    ));
    match peak_rss_mb() {
        Some(mb) => report.put("peak_rss_mb", mb, "MB"),
        None => report.error("peak RSS unavailable: no /proc/self/status"),
    }
    report
}
