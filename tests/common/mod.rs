//! The protection matrix shared by the matrix-wide integration tests.

use flexprot::core::{EncryptConfig, Granularity, GuardConfig, ProtectionConfig};
use flexprot::isa::Image;

pub const GUARD_KEY: u64 = 0x0BAD_C0DE_CAFE_F00D;
pub const ENC_KEY: u64 = 0x5EED_5EED_5EED_5EED;

/// The same 6-program roster as `fpsurface`/`fpnetmap`/`fpequiv`.
pub fn programs() -> Vec<(String, Image)> {
    let mut programs: Vec<(String, Image)> = Vec::new();
    for (name, source) in flexprot::cc::kernels::all() {
        let image = flexprot::cc::compile_to_image(source)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        programs.push((name.to_owned(), image));
    }
    for name in ["rle", "bitcount", "fir"] {
        let workload = flexprot::workloads::by_name(name).expect("workload");
        programs.push((name.to_owned(), workload.image()));
    }
    programs
}

/// The 7-cell protection grid of `tests/protection_matrix.rs`.
pub fn grid() -> Vec<(&'static str, ProtectionConfig)> {
    let guards = |density: f64| GuardConfig {
        key: GUARD_KEY,
        ..GuardConfig::with_density(density)
    };
    let enc = |granularity: Granularity| EncryptConfig {
        granularity,
        ..EncryptConfig::whole_program(ENC_KEY)
    };
    vec![
        ("none", ProtectionConfig::new()),
        (
            "guards d=0.25",
            ProtectionConfig::new().with_guards(guards(0.25)),
        ),
        (
            "guards d=1.0",
            ProtectionConfig::new().with_guards(guards(1.0)),
        ),
        (
            "enc program",
            ProtectionConfig::new().with_encryption(enc(Granularity::Program)),
        ),
        (
            "enc function",
            ProtectionConfig::new().with_encryption(enc(Granularity::Function)),
        ),
        (
            "enc block",
            ProtectionConfig::new().with_encryption(enc(Granularity::Block)),
        ),
        (
            "guards+enc",
            ProtectionConfig::new()
                .with_guards(guards(1.0))
                .with_encryption(enc(Granularity::Function)),
        ),
    ]
}
