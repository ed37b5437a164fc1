//! Host-time benchmark of the HOOP simulator.
//!
//! Three workloads ([`bench::Workload`]) drive the simulator from one host
//! thread. An untraced run reports end-to-end metrics; a traced run wraps
//! every engine in a timing decorator ([`timed::Timed`]) and reports the
//! per-layer split. `README.md` beside this crate explains the choices.

#![forbid(unsafe_code)]

pub mod bench;
pub mod gauge;
pub mod host;
pub mod report;
pub mod tally;
pub mod timed;
