//! Event capture for trace recording.
//!
//! [`System::start_recording`](crate::system::System::start_recording)
//! captures the exact transactional event stream a workload issues —
//! begins, stores (with data), loads, ends, crashes, recoveries — as
//! [`TraceEvent`]s. The `hoop-trace` crate turns a capture into its binary
//! trace format and replays it against any persistence engine.

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Untimed setup write (`System::write_initial`): seeds both the
    /// volatile view and the durable home image before measurement.
    Init {
        /// Target address.
        addr: u64,
        /// Initial bytes.
        data: Vec<u8>,
    },
    /// `Tx_begin` on a core.
    TxBegin {
        /// Issuing core.
        core: u8,
    },
    /// A store of `data` at `addr`.
    Store {
        /// Issuing core.
        core: u8,
        /// Target address.
        addr: u64,
        /// Stored bytes.
        data: Vec<u8>,
    },
    /// A load of `len` bytes at `addr`.
    Load {
        /// Issuing core.
        core: u8,
        /// Source address.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// `Tx_end` on a core.
    TxEnd {
        /// Issuing core.
        core: u8,
    },
    /// Power loss.
    Crash,
    /// Crash recovery with `threads` threads.
    Recover {
        /// Recovery threads.
        threads: u8,
    },
}
