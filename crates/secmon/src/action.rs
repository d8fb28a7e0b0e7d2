//! [`ActionTable`] — the monitor's schedule compiled to one entry per text
//! word.
//!
//! [`SecMonConfig`] keeps the guard schedule as sets and maps keyed by
//! address, which is what the toolchain and the static analyses want. The
//! hardware instead looks the committed pc up in a small dense table:
//! when the monitor is armed with the text segment, the schedule is
//! compiled into one flag byte per text word (window start, reset point,
//! guard site, spacing-protected), so each committed instruction costs one
//! indexed load.
//!
//! The table is sized by the text segment, never by the addresses the
//! configuration names: a provisioned configuration may list ranges up to
//! `0xFFFF_FFFF`, but a pc outside text faults before the monitor sees it,
//! so entries outside text would never be read.

use std::ops::Range;

use crate::schedule::{GuardSite, SecMonConfig};

/// The schedule entries that apply at one text word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Actions(u8);

impl Actions {
    const WINDOW_START: u8 = 1;
    const RESET_POINT: u8 = 2;
    const SITE: u8 = 4;
    const PROTECTED: u8 = 8;

    /// A registered window start: the rolling hash resets here.
    pub fn window_start(self) -> bool {
        self.0 & Actions::WINDOW_START != 0
    }

    /// A reset point: a pc discontinuity landing here clears the spacing
    /// counter.
    pub fn reset_point(self) -> bool {
        self.0 & Actions::RESET_POINT != 0
    }

    /// A guard site: the first guard instruction of a signature.
    pub fn site(self) -> bool {
        self.0 & Actions::SITE != 0
    }

    /// Inside a protected range: counts toward the spacing bound.
    pub fn protected(self) -> bool {
        self.0 & Actions::PROTECTED != 0
    }
}

/// A [`SecMonConfig`] compiled against one text segment.
///
/// # Example
///
/// ```
/// use flexprot_secmon::{ActionTable, GuardSite, SecMonConfig};
///
/// let mut config = SecMonConfig::transparent();
/// config.window_starts.insert(0x0040_0000);
/// config.sites.insert(0x0040_0008, GuardSite::default());
/// let table = ActionTable::compile(&config, 0x0040_0000..0x0040_0010);
/// assert!(table.get(0x0040_0000).window_start());
/// assert_eq!(table.site(0x0040_0008), Some(GuardSite::default()));
/// assert_eq!(table.get(0x0040_0004), Default::default());
/// assert_eq!(table.words(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActionTable {
    /// First word-aligned address of the text segment.
    base: u32,
    /// One entry per word-aligned text address, from `base`.
    flags: Vec<Actions>,
    /// Guard sites inside the table, sorted by address.
    sites: Vec<(u32, GuardSite)>,
}

impl ActionTable {
    /// Compiles `config` for the text segment spanning the byte range
    /// `text`. Entries cover exactly the word-aligned addresses in `text`;
    /// schedule addresses outside it, or not word-aligned, are dropped,
    /// since no committed pc can match them.
    pub fn compile(config: &SecMonConfig, text: Range<u32>) -> ActionTable {
        let base = u64::from(text.start).next_multiple_of(4);
        let end = u64::from(text.end);
        let words = end.saturating_sub(base).div_ceil(4) as usize;
        // Index of the first entry at or after `addr`, clamped to the table.
        let index_at =
            |addr: u32| (u64::from(addr).saturating_sub(base).div_ceil(4) as usize).min(words);
        let slot = |addr: u32| {
            let addr = u64::from(addr);
            (addr >= base && addr % 4 == 0 && addr < end).then(|| ((addr - base) / 4) as usize)
        };

        let mut flags = vec![Actions::default(); words];
        for (addrs, bit) in [
            (&config.window_starts, Actions::WINDOW_START),
            (&config.reset_points, Actions::RESET_POINT),
        ] {
            for i in addrs.iter().filter_map(|&addr| slot(addr)) {
                flags[i].0 |= bit;
            }
        }
        let mut sites = Vec::new();
        for (&addr, &site) in &config.sites {
            if let Some(i) = slot(addr) {
                flags[i].0 |= Actions::SITE;
                sites.push((addr, site));
            }
        }
        sites.shrink_to_fit();

        // Protected ranges may overlap, be inverted or reach far past text:
        // clamp each to the table, then merge so every word is marked once.
        let mut spans: Vec<(usize, usize)> = config
            .protected
            .iter()
            .map(|r| (index_at(r.start), index_at(r.end)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        spans.sort_unstable();
        let mut marked = 0;
        for (lo, hi) in spans {
            for entry in &mut flags[lo.max(marked)..hi.max(marked)] {
                entry.0 |= Actions::PROTECTED;
            }
            marked = marked.max(hi);
        }

        ActionTable {
            base: base.min(u64::from(u32::MAX)) as u32,
            flags,
            sites,
        }
    }

    /// The actions at `pc`; empty for a pc outside the compiled text or
    /// not word-aligned.
    #[inline]
    pub fn get(&self, pc: u32) -> Actions {
        let offset = pc.wrapping_sub(self.base);
        if !offset.is_multiple_of(4) {
            return Actions::default();
        }
        self.flags
            .get((offset / 4) as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The guard site at `pc`, if the table holds one there.
    pub fn site(&self, pc: u32) -> Option<GuardSite> {
        self.sites
            .binary_search_by_key(&pc, |&(addr, _)| addr)
            .ok()
            .map(|i| self.sites[i].1)
    }

    /// Number of text words the table covers.
    pub fn words(&self) -> usize {
        self.flags.len()
    }

    /// Bytes of table storage (flag entries plus guard-site descriptors).
    pub fn heap_bytes(&self) -> usize {
        self.flags.capacity() * std::mem::size_of::<Actions>()
            + self.sites.capacity() * std::mem::size_of::<(u32, GuardSite)>()
    }
}
