//! Analysis layer for the HOOP reproduction: the runtime **persistency
//! sanitizer**.
//!
//! The sanitizer ([`PersistencySanitizer`]) attaches to a
//! `System` through the [`simcore::sanitize::SanitizerHandle`] plumbing and
//! checks the paper's crash-consistency ordering invariants (§III-G) against
//! a shadow per-cacheline state machine while a workload runs — commit
//! records may not persist before their payload, GC may not migrate
//! uncommitted versions, mapping entries may not dangle into reclaimed OOP
//! blocks, recovery may replay only the committed prefix.
//!
//! The static side of the same invariants (nondeterministic APIs, the
//! persist-ordering discipline) is the `lintpass` crate, run via
//! `cargo run -p xtask -- lint`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod sanitizer;
pub mod shadow;

pub use sanitizer::{
    PersistencySanitizer, SanitizerSummary, Violation, ViolationKind, MAX_STORED_VIOLATIONS,
};
pub use shadow::{LineState, ShadowLine};
