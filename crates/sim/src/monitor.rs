//! The fetch-path monitor interface — where the secure hardware plugs in.
//!
//! The FPGA of the codesign architecture sits between the processor and
//! instruction memory and additionally snoops the committed instruction
//! stream (a trace-port connection). [`FetchMonitor`] captures exactly those
//! two observation points:
//!
//! * [`FetchMonitor::transform_fetch`] — the functional view: every
//!   instruction word passes through the monitor on its way from memory to
//!   the pipeline, giving the hardware the chance to decrypt it;
//! * [`FetchMonitor::fill_penalty`] — the timing view: decryption hardware
//!   latency is charged when the I-cache fills a line;
//! * [`FetchMonitor::observe_commit`] — the verification view: the monitor
//!   sees each retired instruction (post-decrypt) and may raise a tamper
//!   event.
//!
//! A fourth hook, [`FetchMonitor::arm`], tells the monitor which text
//! segment the machine is about to run, so per-word state can be compiled
//! once per run instead of looked up per commit.

use std::fmt;
use std::ops::Range;

/// Raised by a monitor when it detects tampering; aborts simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperEvent {
    /// Program counter of the instruction that triggered detection.
    pub pc: u32,
    /// Human-readable reason (signature mismatch, spacing overflow, …).
    pub reason: String,
}

impl fmt::Display for TamperEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tamper detected at {:#010x}: {}", self.pc, self.reason)
    }
}

/// Hardware model attached to the instruction fetch path.
///
/// Implementations must be deterministic: the simulator may be re-run for
/// profiling and expects identical behaviour.
///
/// [`FetchMonitor::transform_fetch`] must additionally be a *pure function
/// of `(addr, word)`*: the predecoded engine decrypts whole lines at
/// I-cache fill time (via [`FetchMonitor::transform_fill`]) and caches the
/// result, so a transform may be invoked once per line fill instead of once
/// per fetch, for words the pipeline never executes, and again when an
/// invalidated line is functionally refilled. Per-call side effects in the
/// transform would diverge between the reference and predecoded engines.
/// Stateful accounting belongs in [`FetchMonitor::fill_penalty`] (timing)
/// and [`FetchMonitor::observe_commit`] (verification), which keep their
/// exact reference-path call discipline.
///
/// # The arm contract
///
/// [`Machine`](crate::Machine) calls [`FetchMonitor::arm`] with the text
/// segment's byte range `[text_base, text_end)` when it is built and on
/// every reset or rearm, before the first fetch of a run. From then until
/// the next `arm`, every `pc` passed to
/// [`FetchMonitor::observe_commit`] is word-aligned and inside that range:
/// any other pc faults with [`Fault::WildPc`](crate::Fault::WildPc) before
/// it is fetched or observed. A monitor may therefore compile per-text-word
/// state in `arm` and index it by `(pc - text_base) / 4` on the commit
/// path. A monitor driven by hand, outside a machine, must be armed the
/// same way.
pub trait FetchMonitor {
    /// Prepares for a run over the text segment `text` (byte addresses,
    /// half-open). Called at construction and on every reset or rearm;
    /// see the arm contract above. The default does nothing.
    fn arm(&mut self, text: Range<u32>) {
        let _ = text;
    }

    /// Transforms a fetched instruction word (e.g. decrypts it).
    ///
    /// Called functionally with the word as stored in memory — on every
    /// fetch by the reference engine, per filled word by the default
    /// [`FetchMonitor::transform_fill`]. The default is the identity.
    fn transform_fetch(&mut self, addr: u32, word: u32) -> u32 {
        let _ = addr;
        word
    }

    /// Transforms a whole line of fetched words in place at I-cache fill.
    ///
    /// `words[i]` holds the memory contents of `line_addr + 4 * i`. The
    /// default applies [`FetchMonitor::transform_fetch`] word by word;
    /// line-granularity hardware (a burst decryption unit) can override it
    /// to process the line in one pass. Overrides must stay functionally
    /// identical to the per-word default.
    fn transform_fill(&mut self, line_addr: u32, words: &mut [u32]) {
        for (i, word) in words.iter_mut().enumerate() {
            *word = self.transform_fetch(line_addr + 4 * i as u32, *word);
        }
    }

    /// Extra cycles charged when the I-cache fills the line at `line_addr`.
    ///
    /// This is where decryption-unit latency appears. The default is free.
    fn fill_penalty(&mut self, line_addr: u32, line_words: u32) -> u64 {
        let _ = (line_addr, line_words);
        0
    }

    /// Observes one committed instruction.
    ///
    /// `word` is the post-transform (plaintext) instruction word.
    /// `sequential` is true when `pc` directly followed the previously
    /// committed instruction (no taken control transfer in between).
    ///
    /// Returning `Some` aborts execution with
    /// [`Outcome::TamperDetected`](crate::Outcome::TamperDetected).
    fn observe_commit(&mut self, pc: u32, word: u32, sequential: bool) -> Option<TamperEvent> {
        let _ = (pc, word, sequential);
        None
    }
}

/// A monitor that does nothing — the unprotected baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMonitor;

impl FetchMonitor for NullMonitor {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_monitor_is_transparent() {
        let mut m = NullMonitor;
        m.arm(0x400000..0x400010);
        assert_eq!(m.transform_fetch(0x400000, 0xABCD), 0xABCD);
        assert_eq!(m.fill_penalty(0x400000, 8), 0);
        assert_eq!(m.observe_commit(0x400000, 0, true), None);
    }

    #[test]
    fn tamper_event_display() {
        let e = TamperEvent {
            pc: 0x0040_0010,
            reason: "signature mismatch".to_owned(),
        };
        assert_eq!(
            e.to_string(),
            "tamper detected at 0x00400010: signature mismatch"
        );
    }
}
