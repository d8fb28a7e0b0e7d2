//! The secure hardware component of the codesign architecture.
//!
//! In the DATE-2004 design an FPGA sits between the processor and
//! instruction memory and (a) decrypts the instruction stream as cache lines
//! are fetched, and (b) verifies *register guards* — keyed signatures that
//! the protection compiler embedded in the register-operand fields of
//! semantically neutral instructions. This crate is the functional and
//! timing model of that hardware:
//!
//! * [`cipher`] — the per-address keystream cipher used for text-segment
//!   encryption, and the encrypted-region table;
//! * [`decrypt`] — the decryption unit's latency model (serial or
//!   pipelined), charged on the I-cache miss path;
//! * [`guard`] — the keyed rolling window hash and the encoding of
//!   signature symbols into guard instructions;
//! * [`schedule`] — [`SecMonConfig`], the configuration the protection
//!   toolchain provisions into the hardware (keys, guard sites, encrypted
//!   regions, spacing bound);
//! * [`action`] — [`ActionTable`], the schedule compiled to one flag
//!   byte per text word when the monitor is armed;
//! * [`monitor`] — [`SecMon`], the runtime model implementing
//!   [`flexprot_sim::FetchMonitor`].
//!
//! The crate deliberately contains **no placement or rewriting logic** —
//! that is the software half of the codesign and lives in `flexprot-core`.
//! Keeping the split mirrors the hardware/software boundary of the paper.

pub mod action;
pub mod cipher;
pub mod decrypt;
pub mod guard;
pub mod monitor;
pub mod schedule;
pub mod serialize;

pub use action::{ActionTable, Actions};
pub use cipher::{derive_subkey, keystream, EncRegion, RegionTable};
pub use decrypt::DecryptModel;
pub use guard::{decode_guard_symbol, encode_guard_inst, WindowHasher, SIG_SYMBOLS};
pub use monitor::SecMon;
pub use schedule::{GuardSite, SecMonConfig};
pub use serialize::ConfigFormatError;
