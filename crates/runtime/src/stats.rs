//! Per-rank communication/computation accounting.
//!
//! The paper reports *communication time* and *overall execution time*
//! separately (Figs. 5–9). The runtime reproduces that split by timing
//! every communication primitive into [`CommStats::comm_seconds`] and
//! letting algorithms wrap local compute in `Comm::time_compute`, which
//! accumulates into [`CommStats::comp_seconds`].

/// Accumulated counters for one rank. All communicators derived from the
/// same rank thread share one instance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Wall-clock seconds spent inside communication primitives.
    pub comm_seconds: f64,
    /// Wall-clock seconds spent inside `time_compute` closures.
    pub comp_seconds: f64,
    /// Point-to-point messages sent (collectives count their constituent
    /// messages — the runtime's collectives are built from point-to-point).
    pub msgs_sent: u64,
    /// Payload bytes sent: each message's `WirePayload::payload_bytes`,
    /// accounted at the send site. Control messages count 0.
    pub bytes_sent: u64,
    /// Point-to-point messages received. Across a whole run the world
    /// totals must balance: `Σ msgs_sent == Σ msgs_recv`.
    pub msgs_recv: u64,
    /// Payload bytes received (mirrors [`Self::bytes_sent`] at the
    /// receive site, so byte ledgers can be cross-checked too).
    pub bytes_recv: u64,
    /// Payload buffers materialized (allocated + copied) by collectives on
    /// this rank. Broadcast relays forward `Arc`-shared payloads, so only
    /// the rank that *originates* data should count here — a relay with a
    /// nonzero count is deep-copying on the hot path.
    pub payload_clones: u64,
    /// Bytes those materializations copied (see [`Self::payload_clones`]).
    pub payload_clone_bytes: u64,
    /// Blocking waits on this rank that gave up because the job deadline
    /// passed.
    pub timeouts: u64,
    /// Blocking waits on this rank that gave up because the job was
    /// cancelled (watchdog or caller-held cancel token).
    pub cancelled: u64,
    /// Faults a `FaultPlan` injected at this rank's send path (drops,
    /// delays, duplicates and kills). Dropped and duplicated messages do
    /// NOT perturb `msgs_sent`/`bytes_sent`, so the world send/recv
    /// ledgers still balance under fault injection.
    pub faults_injected: u64,
}

impl CommStats {
    /// Communication plus computation time.
    pub fn total_seconds(&self) -> f64 {
        self.comm_seconds + self.comp_seconds
    }

    /// Element-wise sum, for aggregating across ranks.
    pub fn merge(&self, other: &CommStats) -> CommStats {
        CommStats {
            comm_seconds: self.comm_seconds + other.comm_seconds,
            comp_seconds: self.comp_seconds + other.comp_seconds,
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            payload_clones: self.payload_clones + other.payload_clones,
            payload_clone_bytes: self.payload_clone_bytes + other.payload_clone_bytes,
            timeouts: self.timeouts + other.timeouts,
            cancelled: self.cancelled + other.cancelled,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }

    /// In-place form of [`CommStats::merge`].
    pub fn merge_in_place(&mut self, other: &CommStats) {
        *self = self.merge(other);
    }

    /// Element-wise maximum of the time fields, counter sum — the usual
    /// "slowest rank defines the phase time" reduction for BSP phases.
    pub fn max_times(&self, other: &CommStats) -> CommStats {
        CommStats {
            comm_seconds: self.comm_seconds.max(other.comm_seconds),
            comp_seconds: self.comp_seconds.max(other.comp_seconds),
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            payload_clones: self.payload_clones + other.payload_clones,
            payload_clone_bytes: self.payload_clone_bytes + other.payload_clone_bytes,
            timeouts: self.timeouts + other.timeouts,
            cancelled: self.cancelled + other.cancelled,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: f64, p: f64, m: u64, b: u64) -> CommStats {
        CommStats {
            comm_seconds: c,
            comp_seconds: p,
            msgs_sent: m,
            bytes_sent: b,
            msgs_recv: m,
            bytes_recv: b,
            payload_clones: m,
            payload_clone_bytes: b,
            timeouts: m,
            cancelled: m,
            faults_injected: m,
        }
    }

    #[test]
    fn total_is_comm_plus_comp() {
        assert_eq!(sample(1.5, 2.5, 0, 0).total_seconds(), 4.0);
    }

    #[test]
    fn merge_sums_everything() {
        let m = sample(1.0, 2.0, 3, 4).merge(&sample(10.0, 20.0, 30, 40));
        assert_eq!(m, sample(11.0, 22.0, 33, 44));
    }

    #[test]
    fn max_times_takes_slowest_rank() {
        let m = sample(1.0, 20.0, 3, 4).max_times(&sample(10.0, 2.0, 30, 40));
        assert_eq!(m.comm_seconds, 10.0);
        assert_eq!(m.comp_seconds, 20.0);
        assert_eq!(m.msgs_sent, 33);
    }
}
