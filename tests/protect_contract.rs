//! The contract of `protect()`'s post-conditions.
//!
//! `protect()` answers its self-check, key-flow check and translation
//! validation from one shared fact base. These tests pin what that must
//! not change: the `ProtectError` variant and contents, their precedence
//! (self-check, then key flow, then translation validation) and the
//! shipped image, all against a reference that runs the three checks
//! one after another through the public verifier entry points.

use flexprot::core::{
    encrypt_text, insert_guards, protect, watermark, EncryptConfig, ProtectError, ProtectReport,
    Protected, ProtectionConfig,
};
use flexprot::isa::Image;
use flexprot::secmon::SecMonConfig;
use flexprot::verify::{self, EquivVerdict, Finding, LintPolicy, Severity};

mod common;
use common::{grid, programs};

/// The protection passes of `protect()`, without any post-condition.
fn build_unchecked(base: &Image, config: &ProtectionConfig) -> Protected {
    let mut secmon = SecMonConfig::transparent();
    let mut image = base.clone();
    let mut guards_inserted = 0;
    if let Some(guards) = &config.guards {
        let outcome = insert_guards(&image, guards, None).expect("guards");
        guards_inserted = outcome.guards_inserted;
        secmon = outcome.secmon_config();
        image = outcome.image;
    }
    secmon.halt_on_tamper = config.halt_on_tamper;
    if let Some(payload) = &config.watermark {
        watermark::embed(&mut image, &secmon, payload).expect("watermark");
    }
    let mut encrypted_regions = 0;
    if let Some(enc) = &config.encryption {
        let outcome = encrypt_text(&image, enc).expect("encryption");
        encrypted_regions = outcome.regions.regions().len();
        secmon.regions = outcome.regions;
        secmon.decrypt = outcome.model;
        image = outcome.image;
    }
    let report = ProtectReport {
        guards_inserted,
        text_words_before: base.text.len(),
        text_words_after: image.text.len(),
        encrypted_regions,
        spacing_bound: secmon.spacing_bound,
    };
    Protected {
        image,
        secmon,
        report,
    }
}

fn first_error(findings: &[Finding]) -> Option<&Finding> {
    findings.iter().find(|f| f.severity == Severity::Error)
}

/// `protect()` as three sequential checks, each with its own analysis:
/// `verify`, then `analyze_with_options(.., true)`, then `equiv::validate`.
fn sequential(base: &Image, config: &ProtectionConfig) -> Result<Protected, ProtectError> {
    let shipped = build_unchecked(base, config);
    let report = verify::verify(&shipped.image, &shipped.secmon);
    if let Some(first) = first_error(&report.findings) {
        return Err(ProtectError::VerificationFailed {
            errors: report.count(Severity::Error),
            first: first.to_string(),
        });
    }
    if config.key_flow_check {
        let v = verify::analyze_with_options(
            &shipped.image,
            &shipped.secmon,
            &LintPolicy::default(),
            true,
        );
        let leaks: Vec<&Finding> = v
            .report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error && (f.id == "FP901" || f.id == "FP902"))
            .collect();
        if let Some(first) = leaks.first() {
            return Err(ProtectError::KeyFlowLeak {
                errors: leaks.len(),
                witness: first.addr,
                first: first.to_string(),
            });
        }
    }
    if config.validate_translation {
        let equiv = verify::equiv::validate(base, &shipped.image, &shipped.secmon);
        match equiv.verdict {
            EquivVerdict::Proven => {}
            EquivVerdict::Inequivalent { witness_addr } => {
                return Err(ProtectError::TranslationUnproven {
                    verdict: "inequivalent",
                    witness: Some(witness_addr),
                    first: first_error(&equiv.findings)
                        .map(|f| f.to_string())
                        .unwrap_or_default(),
                });
            }
            EquivVerdict::Refused { reason } => {
                return Err(ProtectError::TranslationUnproven {
                    verdict: "refused",
                    witness: None,
                    first: reason.to_string(),
                });
            }
        }
    }
    Ok(shipped)
}

fn encrypted_config() -> ProtectionConfig {
    ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0x5EED))
}

fn with_both_checks(config: &ProtectionConfig) -> ProtectionConfig {
    config
        .clone()
        .with_key_flow_check()
        .with_translation_validation()
}

#[test]
fn failed_self_check_outranks_a_key_flow_leak() {
    // Publishes a word of its own ciphertext (an FP901 leak) from `main`,
    // but its entry point lies past the end of the text (an FP003 error).
    // The encryption pass itself refuses undecodable text, so a bad entry
    // is the self-check failure that survives the protection passes.
    let mut base = flexprot::asm::assemble_or_panic(
        "main: lui $t0, 0x40\n lw $t1, 0($t0)\n lui $t2, 0x1001\n sw $t1, 0($t2)\n \
         li $v0, 10\n syscall\n",
    );
    base.entry = base.addr_of_index(base.text.len());
    let config = encrypted_config().with_key_flow_check();
    let shipped = build_unchecked(&base, &config);
    let leaks = verify::analyze_with_options(
        &shipped.image,
        &shipped.secmon,
        &LintPolicy::default(),
        true,
    );
    assert!(
        leaks.report.findings.iter().any(|f| f.id == "FP901"),
        "fixture must also leak: {:?}",
        leaks.report.findings
    );
    let expected = verify::verify(&shipped.image, &shipped.secmon).count(Severity::Error);
    assert!(expected > 0);

    let err = protect(&base, &config, None).expect_err("self-check must fail");
    match &err {
        ProtectError::VerificationFailed { errors, first } => {
            assert_eq!(
                *errors, expected,
                "FP9xx findings are not self-check errors"
            );
            assert!(first.contains("FP003"), "first error: {first}");
        }
        other => panic!("expected VerificationFailed, got {other:?}"),
    }
    assert_eq!(Err(err), sequential(&base, &config));
}

#[test]
fn key_flow_warnings_alone_still_ship() {
    // Branches on a word of its own ciphertext (FP903) and loads through
    // an unknown pointer (FP904); neither value reaches a sink.
    let base = flexprot::asm::assemble_or_panic(
        "main: lui $t0, 0x40\n lw $t1, 0($t0)\n beq $t1, $zero, done\n lw $t2, 0($a0)\n \
         done: li $v0, 10\n syscall\n",
    );
    let config = with_both_checks(&encrypted_config());
    let shipped = build_unchecked(&base, &config);
    let findings = verify::analyze_with_options(
        &shipped.image,
        &shipped.secmon,
        &LintPolicy::default(),
        true,
    )
    .report
    .findings;
    for id in ["FP903", "FP904"] {
        assert!(
            findings
                .iter()
                .any(|f| f.id == id && f.severity == Severity::Warning),
            "fixture must raise an {id} warning: {findings:?}"
        );
    }
    assert!(first_error(&findings).is_none(), "{findings:?}");

    let protected = protect(&base, &config, None).expect("warnings do not block shipping");
    assert_eq!(protected, shipped);
    assert_eq!(Ok(protected), sequential(&base, &config));
}

#[test]
fn protect_ships_what_the_sequential_checks_ship_across_the_matrix() {
    for (name, image) in &programs() {
        for (cell, config) in &grid() {
            let config = with_both_checks(config);
            let expected = sequential(image, &config);
            assert!(expected.is_ok(), "{name}/{cell}: {expected:?}");
            assert_eq!(
                protect(image, &config, None),
                expected,
                "{name}/{cell}: protect() and the sequential checks disagree"
            );
        }
    }
}
