//! The `protect` workload: the vendor's build, one thread.
//!
//! One operation ships one image: compile the kernel from source, run the
//! optimizer for plan cells, then `protect()` with every post-condition on
//! (the mandatory N-version self-check, translation validation and the
//! key-flow check). The core passes and the verifier do nearly all the
//! work; the simulator does none.

use std::sync::Arc;
use std::time::Instant;

use flexprot_core::{
    encrypt_text, insert_guards, optimize, protect, Cfg, Granularity, Profile, ProtectReport,
    Protected, ProtectionConfig,
};
use flexprot_isa::Image;
use flexprot_secmon::SecMonConfig;
use flexprot_sim::{Outcome, SimConfig};
use flexprot_verify::{self as verify, EquivVerdict, LintPolicy, Severity, Verdict};
use flexprot_workloads::Workload;

use crate::keys::{is_minic, Keys};
use crate::report::Report;
use crate::stats::{geomean, median, quantile};
use crate::{backed, closed_loop, secs};

/// Guard densities of the grid cells.
pub const DENSITIES: [f64; 2] = [0.25, 1.0];
/// Encryption granularities of the grid cells.
pub const GRANULARITIES: [Granularity; 3] = [
    Granularity::Program,
    Granularity::Function,
    Granularity::Block,
];
/// Optimizer budgets of the plan cells (fractions of baseline cycles).
pub const BUDGETS: [f64; 4] = [0.01, 0.05, 0.10, 0.20];

/// How one cell chooses its protection.
#[derive(Debug, Clone, Copy)]
pub enum CellKind {
    /// Uniform guards at a density plus whole-text encryption.
    Grid(f64, Granularity),
    /// The optimizer's plan at a budget, from the set-up profile.
    Plan(f64),
}

/// One shipped image of the cell list.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into the program list.
    pub program: usize,
    /// Protection choice.
    pub kind: CellKind,
    /// Watermark bytes this cell embeds: as many as its guards carry, at
    /// most the payload length.
    pub watermark_len: usize,
}

/// The set-up state: programs, profiles and the cell list.
pub struct ProtectBench {
    keys: Keys,
    programs: Vec<Workload>,
    profiles: Vec<Profile>,
    cells: Vec<Cell>,
}

/// The layers a traced build times, as indices into [`Layers`].
const CC: usize = 0;
const ASM: usize = 1;
const OPTIMIZE: usize = 2;
const GUARDS: usize = 3;
const WATERMARK: usize = 4;
const ENCRYPT: usize = 5;
const SELFCHECK: usize = 6;
const KEYFLOW: usize = 7;
const TRANSLATION: usize = 8;

/// Host seconds and call counts per layer.
#[derive(Debug, Default)]
struct Layers {
    secs: [f64; 9],
    calls: [usize; 9],
}

impl Layers {
    fn time<T>(&mut self, layer: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.secs[layer] += secs(t);
        self.calls[layer] += 1;
        value
    }

    /// Mean host milliseconds per call of `layer`.
    fn ms_per_call(&self, layer: usize) -> f64 {
        self.secs[layer] * 1e3 / self.calls[layer].max(1) as f64
    }
}

impl ProtectBench {
    /// Profiles every kernel (the optimizer's input) and sizes each cell's
    /// watermark from the guard capacity of its configuration.
    ///
    /// # Errors
    ///
    /// Fails when a kernel does not run cleanly with its reference output
    /// or a cell's configuration cannot be built.
    pub fn setup(keys: &Keys) -> Result<ProtectBench, String> {
        let programs = flexprot_workloads::all();
        let mut profiles = Vec::with_capacity(programs.len());
        for w in &programs {
            let (profile, run) = Profile::collect(&w.image_cached(), &SimConfig::default());
            if run.outcome != Outcome::Exit(0) || run.output != w.expected_output() {
                return Err(format!(
                    "{}: baseline run is wrong: {:?}",
                    w.name, run.outcome
                ));
            }
            profiles.push(profile);
        }
        let mut bench = ProtectBench {
            keys: keys.clone(),
            programs,
            profiles,
            cells: Vec::new(),
        };
        let mut kinds: Vec<CellKind> = Vec::new();
        for density in DENSITIES {
            for granularity in GRANULARITIES {
                kinds.push(CellKind::Grid(density, granularity));
            }
        }
        kinds.extend(BUDGETS.map(CellKind::Plan));
        for program in 0..bench.programs.len() {
            let image = bench.programs[program].image_cached();
            for &kind in &kinds {
                let config = bench.config(program, kind, &image, 0)?;
                let capacity_bytes = match &config.guards {
                    Some(guards) => {
                        let outcome =
                            insert_guards(&image, guards, bench.profile_for(program, kind))
                                .map_err(|e| e.to_string())?;
                        flexprot_core::watermark::capacity_bits(&outcome.secmon_config()) as usize
                            / 8
                    }
                    None => 0,
                };
                bench.cells.push(Cell {
                    program,
                    kind,
                    watermark_len: capacity_bytes.min(keys.watermark.len()),
                });
            }
        }
        Ok(bench)
    }

    /// A short label naming the cell's program and protection.
    fn label(&self, cell: &Cell) -> String {
        let name = self.programs[cell.program].name;
        match cell.kind {
            CellKind::Grid(d, g) => format!("{name} d={d} enc={g:?}"),
            CellKind::Plan(b) => format!("{name} plan@{}%", b * 100.0),
        }
    }

    fn profile_for(&self, program: usize, kind: CellKind) -> Option<&Profile> {
        matches!(kind, CellKind::Plan(_)).then(|| &self.profiles[program])
    }

    /// The full configuration of a cell, optimizer included for plan cells.
    fn config(
        &self,
        program: usize,
        kind: CellKind,
        image: &Image,
        watermark_len: usize,
    ) -> Result<ProtectionConfig, String> {
        let mut config = match kind {
            CellKind::Grid(density, granularity) => {
                self.keys.guarded_encrypted(density, granularity)
            }
            CellKind::Plan(budget) => {
                let cfg = Cfg::recover(image).map_err(|e| e.to_string())?;
                let plan = optimize(
                    image,
                    &cfg,
                    &self.profiles[program],
                    &self.keys.optimizer(budget),
                );
                self.keys.from_plan(&plan)
            }
        };
        if watermark_len > 0 {
            config = config.with_watermark(&self.keys.watermark[..watermark_len]);
        }
        Ok(config.with_translation_validation().with_key_flow_check())
    }

    /// One untraced operation: compile from source, then protect.
    ///
    /// # Errors
    ///
    /// Returns the front-end or pipeline error.
    pub fn build(&self, cell: &Cell) -> Result<Protected, String> {
        let w = &self.programs[cell.program];
        let image = flexprot_asm::assemble(&w.source()).map_err(|e| e.to_string())?;
        let config = self.config(cell.program, cell.kind, &image, cell.watermark_len)?;
        protect(&image, &config, self.profile_for(cell.program, cell.kind))
            .map_err(|e| e.to_string())
    }

    /// One traced operation: the same build with each layer timed from
    /// outside, re-composing `protect()` from the public passes in its
    /// order. The caller checks the result equals [`ProtectBench::build`]'s.
    fn build_traced(&self, cell: &Cell, layers: &mut Layers) -> Result<Protected, String> {
        let w = &self.programs[cell.program];
        let image = if is_minic(w.name) {
            let source = layers.time(CC, || w.source());
            layers.time(ASM, || flexprot_asm::assemble(&source))
        } else {
            layers.time(ASM, || flexprot_asm::assemble(&w.source()))
        }
        .map_err(|e| e.to_string())?;
        let config = match cell.kind {
            CellKind::Plan(_) => layers.time(OPTIMIZE, || {
                self.config(cell.program, cell.kind, &image, cell.watermark_len)
            }),
            CellKind::Grid(..) => self.config(cell.program, cell.kind, &image, cell.watermark_len),
        }?;
        let profile = self.profile_for(cell.program, cell.kind);

        let mut secmon = SecMonConfig::transparent();
        secmon.halt_on_tamper = config.halt_on_tamper;
        let mut current = image.clone();
        let mut guards_inserted = 0;
        if let Some(guards) = &config.guards {
            let outcome = layers
                .time(GUARDS, || insert_guards(&current, guards, profile))
                .map_err(|e| e.to_string())?;
            guards_inserted = outcome.guards_inserted;
            secmon.guard_key = outcome.key;
            secmon.sites = outcome.sites;
            secmon.window_starts = outcome.window_starts;
            secmon.protected = outcome.protected;
            secmon.reset_points = outcome.reset_points;
            secmon.spacing_bound = outcome.spacing_bound;
            current = outcome.image;
        }
        if let Some(payload) = &config.watermark {
            layers
                .time(WATERMARK, || {
                    flexprot_core::watermark::embed(&mut current, &secmon, payload)
                })
                .map_err(|e| e.to_string())?;
        }
        let mut encrypted_regions = 0;
        if let Some(enc) = &config.encryption {
            let outcome = layers
                .time(ENCRYPT, || encrypt_text(&current, enc))
                .map_err(|e| e.to_string())?;
            encrypted_regions = outcome.regions.regions().len();
            secmon.regions = outcome.regions;
            secmon.decrypt = outcome.model;
            current = outcome.image;
        }
        let report = ProtectReport {
            guards_inserted,
            text_words_before: image.text.len(),
            text_words_after: current.text.len(),
            encrypted_regions,
            spacing_bound: secmon.spacing_bound,
        };
        let shipped = Protected {
            image: current,
            secmon,
            report,
        };

        let clean = layers.time(SELFCHECK, || {
            verify::verify(&shipped.image, &shipped.secmon).is_clean()
        });
        if !clean {
            return Err("self-check failed".to_owned());
        }
        let v = layers.time(KEYFLOW, || {
            verify::analyze_with_options(
                &shipped.image,
                &shipped.secmon,
                &LintPolicy::default(),
                true,
            )
        });
        if v.report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Error && (f.id == "FP901" || f.id == "FP902"))
        {
            return Err("key-flow leak".to_owned());
        }
        let equiv = layers.time(TRANSLATION, || {
            verify::equiv::validate(&image, &shipped.image, &shipped.secmon)
        });
        if equiv.verdict != EquivVerdict::Proven {
            return Err(format!("translation validation: {}", equiv.verdict.label()));
        }
        Ok(shipped)
    }

    /// One round over the cell list, each build timed: latencies in ms and
    /// the shipped images (`None` where the build failed, counted in
    /// `report`).
    fn round(&self, report: &mut Report, latencies: &mut Vec<f64>) -> Vec<Option<Protected>> {
        self.cells
            .iter()
            .map(|cell| {
                let t = Instant::now();
                let built = self.build(cell);
                latencies.push(secs(t) * 1e3);
                report.op(&format!("protect {}", self.label(cell)), built)
            })
            .collect()
    }

    /// Runs one untraced round into `samples`. Every round must ship
    /// exactly the first round's images.
    pub fn sample(&self, samples: &mut ProtectSamples, report: &mut Report) {
        let shipped = self.round(report, &mut samples.latencies);
        if samples.rounds == 0 {
            samples.first = shipped;
        } else {
            let round = samples.rounds;
            report.check(shipped == samples.first, || {
                format!("protect: round {round} shipped different images than round 0")
            });
        }
        samples.rounds += 1;
    }

    /// Reports the end-to-end metrics of the sampled rounds.
    pub fn finish(&self, samples: &ProtectSamples, report: &mut Report) {
        let latencies = &samples.latencies;
        let growth: Vec<f64> = samples
            .first
            .iter()
            .flatten()
            .map(|p| p.report.text_words_after as f64 / p.report.text_words_before as f64)
            .collect();
        report.put("protect_p50_ms", median(latencies), "ms");
        report.put("protect_p99_ms", quantile(latencies, 0.99), "ms");
        if !growth.is_empty() {
            report.put("text_growth_pct", (geomean(&growth) - 1.0) * 100.0, "%");
        }
        report.note(format!(
            "protect: {} rounds x {} cells = {} shipped images; {}",
            samples.rounds,
            self.cells.len(),
            latencies.len(),
            backed(latencies)
        ));
    }

    /// The traced pass for at least `seconds`: untraced and traced rounds
    /// alternate, so the overhead compares the same work under the same
    /// host conditions; the traced rounds time every layer and must ship
    /// the untraced images. Then the verifier analyses are timed
    /// standalone on each shipped image.
    pub fn trace(&self, seconds: f64, report: &mut Report) {
        let mut layers = Layers::default();
        let mut reference: Vec<Option<Protected>> = Vec::new();
        let mut guards_inserted = 0usize;
        let mut words_out = 0usize;
        let (mut untraced, mut traced) = (0.0, 0.0);
        let rounds = closed_loop(seconds, |round| {
            let t = Instant::now();
            let shipped = self.round(report, &mut Vec::new());
            untraced += secs(t);
            if round == 0 {
                reference = shipped;
            }
            let t = Instant::now();
            for (cell, expected) in self.cells.iter().zip(&reference) {
                let built = self.build_traced(cell, &mut layers);
                let what = format!("traced protect {}", self.label(cell));
                let Some(shipped) = report.op(&what, built) else {
                    continue;
                };
                report.check(expected.as_ref() == Some(&shipped), || {
                    format!("{what}: the re-composed pipeline differs from protect()")
                });
                guards_inserted += shipped.report.guards_inserted;
                words_out += shipped.report.text_words_after;
            }
            traced += secs(t);
        });
        report.put("front.asm_ms", layers.ms_per_call(ASM), "ms");
        report.put("front.cc_ms", layers.ms_per_call(CC), "ms");
        report.put("core.optimize_ms", layers.ms_per_call(OPTIMIZE), "ms");
        report.put("core.guards_ms", layers.ms_per_call(GUARDS), "ms");
        report.put("core.watermark_ms", layers.ms_per_call(WATERMARK), "ms");
        report.put("core.encrypt_ms", layers.ms_per_call(ENCRYPT), "ms");
        report.put("core.selfcheck_ms", layers.ms_per_call(SELFCHECK), "ms");
        let post = layers.secs[SELFCHECK] + layers.secs[KEYFLOW] + layers.secs[TRANSLATION];
        let passes = layers.secs[GUARDS] + layers.secs[WATERMARK] + layers.secs[ENCRYPT];
        report.put(
            "protect.postcondition_share",
            post / (post + passes),
            "ratio",
        );
        report.put(
            "core.guards_inserted",
            (guards_inserted / rounds) as f64,
            "count",
        );
        report.put("core.text_words_out", (words_out / rounds) as f64, "count");
        report.put(
            "trace.overhead_frac.protect",
            traced / untraced - 1.0,
            "ratio",
        );
        report.note(format!(
            "protect trace: {rounds} untraced rounds {untraced:.3} s, {rounds} traced rounds {traced:.3} s"
        ));
        let plain = layers.secs[SELFCHECK] + passes;
        report.note(format!(
            "protect trace: the self-check is {:.0}% of protect() without the optional \
             post-conditions; translation validation and the key-flow check make it {:.2}x as long",
            layers.secs[SELFCHECK] / plain * 100.0,
            (post + passes) / plain
        ));

        let shipped: Vec<(Arc<Image>, &Protected)> = self
            .cells
            .iter()
            .zip(&reference)
            .filter_map(|(cell, p)| Some((self.programs[cell.program].image_cached(), p.as_ref()?)))
            .collect();
        verify_layers(&shipped, report);
    }
}

/// The untraced samples of a run's `protect` rounds.
#[derive(Debug, Default)]
pub struct ProtectSamples {
    latencies: Vec<f64>,
    first: Vec<Option<Protected>>,
    rounds: usize,
}

/// Times each verifier analysis standalone on every shipped image, in the
/// order `verify::analyze` runs them, and counts the checksum proofs.
fn verify_layers(shipped: &[(Arc<Image>, &Protected)], report: &mut Report) {
    const NAMES: [&str; 10] = [
        "flow", "cfg", "domtree", "liveness", "coverage", "memdom", "absint", "guardnet", "taint",
        "equiv",
    ];
    let mut layer_secs = [0.0f64; 10];
    let mut verify_secs = 0.0;
    let mut words = 0usize;
    let mut proven = 0usize;
    let mut refused = 0usize;
    let mut windows = 0usize;
    for (base, p) in shipped {
        let (image, secmon) = (&p.image, &p.secmon);
        let t = Instant::now();
        let full = verify::analyze(image, secmon, &LintPolicy::default());
        verify_secs += secs(t);
        words += image.text.len();
        let mut time = |k: usize, t: Instant| layer_secs[k] += secs(t);

        let t = Instant::now();
        let text = verify::decrypt_text(image, secmon);
        let flow = verify::Flow::recover(image, &text);
        time(0, t);
        let t = Instant::now();
        let cfg = verify::Cfg::build(image, &flow);
        time(1, t);
        let t = Instant::now();
        let doms = cfg
            .entry
            .map(|entry| verify::domtree::dominators(entry, &cfg.succs));
        time(2, t);
        let t = Instant::now();
        let live = verify::liveness::analyze(&flow);
        time(3, t);
        let t = Instant::now();
        let cov =
            verify::coverage::analyze(&flow, &cfg, doms.as_ref(), full.coverage.windows.clone());
        time(4, t);
        let t = Instant::now();
        let mem = verify::memdom::analyze_memory(image, &flow);
        time(5, t);
        let t = Instant::now();
        let proofs = verify::absint::prove_guards(image, secmon, &text, &flow, &mem, &cov.windows);
        time(6, t);
        let t = Instant::now();
        let net = verify::guardnet::build(&cov.windows);
        time(7, t);
        let t = Instant::now();
        let taint = verify::taint::analyze_taint(image, secmon, &flow, &mem);
        time(8, t);
        let t = Instant::now();
        let equiv = verify::equiv::validate(base, image, secmon);
        time(9, t);

        std::hint::black_box((&live, &net, &taint));
        report.check(proofs == full.proofs, || {
            "standalone absint proofs differ from verify::analyze".to_owned()
        });
        report.check(equiv.verdict == EquivVerdict::Proven, || {
            format!("translation validation verdict {}", equiv.verdict.label())
        });
        windows += proofs.len();
        for proof in &proofs {
            match proof.verdict {
                Verdict::Proven { .. } => proven += 1,
                Verdict::Unproven { .. } => refused += 1,
                Verdict::Mismatch { .. } => {}
            }
        }
    }
    let images = shipped.len().max(1) as f64;
    for (name, t) in NAMES.iter().zip(layer_secs) {
        report.put(format!("verify.{name}_ms"), t * 1e3 / images, "ms");
    }
    report.put(
        "verify.us_per_text_word",
        verify_secs * 1e6 / words.max(1) as f64,
        "us",
    );
    report.put("verify.windows_proven", proven as f64, "count");
    report.put("verify.windows_refused", refused as f64, "count");
    report.put(
        "verify.proven_frac",
        proven as f64 / windows.max(1) as f64,
        "ratio",
    );
}
