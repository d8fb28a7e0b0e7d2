//! Everything the workload seed decides, and the protection configurations
//! built from it.
//!
//! The seed drives the guard key, the placement and salt seed, the
//! encryption key, the watermark payload and the attack RNG seeds. The
//! programs themselves are fixed: the 14 kernels of `flexprot-workloads`,
//! each with its Rust reference output.

use flexprot_core::{
    EncryptConfig, Granularity, GuardConfig, OptimizerConfig, Placement, ProtectionConfig,
    Selection,
};
use flexprot_isa::Rng64;

/// Seed-derived secrets and seeds for one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keys {
    /// Guard window-hash key.
    pub guard_key: u64,
    /// Guard placement and salt seed (also the optimizer's selection seed).
    pub place_seed: u64,
    /// Encryption master key.
    pub enc_key: u64,
    /// Watermark payload; a cell embeds as many bytes as its guards carry.
    pub watermark: [u8; 4],
    /// Root of the per-cell attack RNG seeds.
    pub attack_seed: u64,
}

impl Keys {
    /// Derives every secret from the workload seed.
    pub fn from_seed(seed: u64) -> Keys {
        let mut rng = Rng64::new(seed ^ 0xF1E8_B0C5_0000_0000);
        let guard_key = rng.next_u64();
        let place_seed = rng.next_u64();
        let enc_key = rng.next_u64();
        let watermark = rng.next_u32().to_le_bytes();
        let attack_seed = rng.next_u64();
        Keys {
            guard_key,
            place_seed,
            enc_key,
            watermark,
            attack_seed,
        }
    }

    /// Guard layer at a uniform density, with spacing enforcement.
    pub fn guards(&self, density: f64) -> GuardConfig {
        GuardConfig {
            key: self.guard_key,
            seed: self.place_seed,
            placement: Placement::Uniform,
            selection: Selection::Density(density),
            enforce_spacing: true,
        }
    }

    /// Encryption layer over the whole text at `granularity`.
    pub fn encryption(&self, granularity: Granularity) -> EncryptConfig {
        EncryptConfig {
            granularity,
            ..EncryptConfig::whole_program(self.enc_key)
        }
    }

    /// Guards at `density` plus whole-text encryption at `granularity`.
    pub fn guarded_encrypted(&self, density: f64, granularity: Granularity) -> ProtectionConfig {
        ProtectionConfig::new()
            .with_guards(self.guards(density))
            .with_encryption(self.encryption(granularity))
    }

    /// The optimizer's parameters at `budget` (a fraction of baseline
    /// cycles); the selection seed matches the one the plan is applied with.
    pub fn optimizer(&self, budget: f64) -> OptimizerConfig {
        OptimizerConfig {
            budget_fraction: budget,
            seed: self.place_seed,
            ..OptimizerConfig::default()
        }
    }

    /// The protection configuration an optimizer plan turns into, as the
    /// F4 experiment applies it: coldest-first guards without spacing
    /// extras (the optimizer cannot see them), whole-text encryption scoped
    /// to the plan's functions.
    pub fn from_plan(&self, plan: &flexprot_core::Plan) -> ProtectionConfig {
        ProtectionConfig::from_plan(
            plan,
            GuardConfig {
                placement: Placement::ColdestFirst,
                enforce_spacing: false,
                ..self.guards(0.0)
            },
            self.encryption(Granularity::Program),
        )
    }

    /// The attack RNG seed of cell (`program`, `attack`).
    pub fn attack_cell_seed(&self, program: usize, attack: usize) -> u64 {
        let mut rng = Rng64::new(self.attack_seed ^ ((program as u64) << 32) ^ attack as u64);
        rng.next_u64()
    }
}

/// Whether `name` is one of the kernels authored in MiniC: their
/// `Workload::source` runs `flexprot_cc::compile` on the embedded MiniC
/// text, so compiling them from source exercises the MiniC front end.
pub fn is_minic(name: &str) -> bool {
    matches!(name, "queens" | "sieve" | "collatz")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_a_function_of_the_seed() {
        assert_eq!(Keys::from_seed(7), Keys::from_seed(7));
        assert_ne!(Keys::from_seed(7), Keys::from_seed(8));
        let keys = Keys::from_seed(7);
        assert_ne!(keys.attack_cell_seed(0, 1), keys.attack_cell_seed(1, 0));
    }
}
