//! The compiled action table against the schedule it was compiled from.
//!
//! Random configurations mix guard sites, window starts and reset points
//! inside and outside text (some unaligned), and protected ranges that
//! overlap, are inverted or reach far past text. For every text word the
//! table's flags must answer exactly what the configuration's sets, map and
//! range scan answer, and the table must stay sized by the text.

use std::collections::{BTreeMap, BTreeSet};

use flexprot_isa::Rng64;
use flexprot_secmon::schedule::ProtectedRange;
use flexprot_secmon::{ActionTable, GuardSite, SecMon, SecMonConfig};
use flexprot_sim::FetchMonitor;

/// An address near the text segment, anywhere in the address space, or at
/// its very top; unaligned about one time in four.
fn address(rng: &mut Rng64, base: u32, end: u32) -> u32 {
    let addr = match rng.below(8) {
        0 => rng.next_u32(),
        1 => u32::MAX - rng.below(16) as u32,
        2 => base.saturating_sub(rng.below(64) as u32),
        3 => end.saturating_add(rng.below(64) as u32),
        _ => base.wrapping_add(rng.below(u64::from(end - base) + 1) as u32),
    };
    if rng.below(4) == 0 {
        addr
    } else {
        addr & !3
    }
}

fn random_config(rng: &mut Rng64, base: u32, end: u32) -> SecMonConfig {
    let n = |rng: &mut Rng64| rng.below(40) as usize;
    let mut sites = BTreeMap::new();
    for _ in 0..n(rng) {
        let site = GuardSite {
            symbols: 1 + rng.below(6) as u32,
            tail: rng.below(3) as u32,
        };
        sites.insert(address(rng, base, end), site);
    }
    let window_starts: BTreeSet<u32> = (0..n(rng)).map(|_| address(rng, base, end)).collect();
    let reset_points: BTreeSet<u32> = (0..n(rng)).map(|_| address(rng, base, end)).collect();
    let protected = (0..rng.below(6))
        .map(|_| match rng.below(4) {
            0 => ProtectedRange {
                start: 0,
                end: u32::MAX,
            },
            _ => ProtectedRange {
                start: address(rng, base, end),
                end: address(rng, base, end),
            },
        })
        .collect();
    SecMonConfig {
        guard_key: rng.next_u64(),
        sites,
        window_starts,
        protected,
        spacing_bound: Some(64),
        reset_points,
        ..SecMonConfig::transparent()
    }
}

/// Checks every word-aligned text address (and the words just outside
/// text) against the configuration's own predicates.
fn assert_table_matches(table: &ActionTable, config: &SecMonConfig, base: u32, end: u32) {
    let aligned_base = base.next_multiple_of(4);
    let words = (end.saturating_sub(aligned_base)).div_ceil(4) as usize;
    assert_eq!(table.words(), words, "one entry per text word");
    assert!(
        table.heap_bytes() <= words * (1 + std::mem::size_of::<(u32, GuardSite)>()),
        "table memory {} bytes for {words} text words",
        table.heap_bytes()
    );
    for i in 0..words as u32 {
        let pc = aligned_base + 4 * i;
        let actions = table.get(pc);
        assert_eq!(
            actions.window_start(),
            config.window_starts.contains(&pc),
            "{pc:#x}"
        );
        assert_eq!(
            actions.reset_point(),
            config.reset_points.contains(&pc),
            "{pc:#x}"
        );
        assert_eq!(actions.site(), config.sites.contains_key(&pc), "{pc:#x}");
        assert_eq!(table.site(pc), config.sites.get(&pc).copied(), "{pc:#x}");
        assert_eq!(actions.protected(), config.in_protected(pc), "{pc:#x}");
    }
    for pc in [
        aligned_base.wrapping_sub(4),
        aligned_base.wrapping_add(4 * words as u32),
    ] {
        assert_eq!(table.get(pc), Default::default(), "{pc:#x} is outside text");
    }
}

#[test]
fn compiled_flags_equal_the_schedule_on_every_text_word() {
    for seed in 0..200u64 {
        let mut rng = Rng64::new(0xAC71_0000 + seed);
        let base = match seed % 4 {
            0 => 0x0040_0000,
            1 => 0x0040_0000 + rng.below(4) as u32, // possibly unaligned
            2 => u32::MAX - 4 * rng.below(32) as u32 - 3, // text at the top
            _ => rng.next_u32() & !3,
        };
        let len = 4 * rng.below(300) as u32;
        let end = base.saturating_add(len);
        let config = random_config(&mut rng, base, end);
        let table = ActionTable::compile(&config, base..end);
        assert_table_matches(&table, &config, base, end);
    }
}

#[test]
fn arming_compiles_the_table_and_rearming_replaces_it() {
    let mut rng = Rng64::new(0x5EC0_A12E);
    let (base, end) = (0x0040_0000, 0x0040_0400);
    let config = random_config(&mut rng, base, end);
    let mut mon = SecMon::new(config.clone());
    assert_eq!(mon.actions().words(), 0, "nothing compiled before arming");
    mon.arm(base..end);
    assert_table_matches(mon.actions(), &config, base, end);
    // A shorter text re-sizes the table rather than keeping stale entries.
    mon.arm(base..base + 0x40);
    assert_table_matches(mon.actions(), &config, base, base + 0x40);
}

#[test]
fn full_address_space_ranges_cost_only_the_text() {
    // An attacker-supplied schedule naming every address must not make
    // arming allocate or walk more than the text segment.
    let config = SecMonConfig {
        protected: vec![
            ProtectedRange {
                start: 0,
                end: u32::MAX,
            };
            10_000
        ],
        window_starts: (0..10_000u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect(),
        ..SecMonConfig::transparent()
    };
    let table = ActionTable::compile(&config, 0x0040_0000..0x0040_0010);
    assert_eq!(table.words(), 4);
    assert!(table.heap_bytes() <= 4 * (1 + std::mem::size_of::<(u32, GuardSite)>()));
    assert!((0..4).all(|i| table.get(0x0040_0000 + 4 * i).protected()));
}
