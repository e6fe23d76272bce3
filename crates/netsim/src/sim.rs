//! Per-rank virtual clocks advanced message-by-message.
//!
//! [`SimNet`] is a lightweight discrete-event engine specialized for the
//! deterministic, data-independent communication schedules of dense linear
//! algebra: every rank has a virtual clock; sending occupies the sender
//! for the full Hockney transfer time (`α + m·β`, store-and-forward) and
//! the receiver waits until arrival. Because each operation only ever
//! moves clocks forward, simulating a schedule is a single pass over its
//! messages — no event queue is needed, which is what makes 16384-rank
//! simulations cheap.

use crate::model::Hockney;
use crate::topology::{FullyConnected, Topology};
use hsumma_trace::{EventKind, Trace, TraceSink, Tracer};

/// A message in flight: produced by [`SimNet::isend`], consumed by
/// [`SimNet::deliver`]. Splitting send and delivery lets schedules express
/// "send, then block receiving" rounds (ring allgather) faithfully.
#[derive(Clone, Copy, Debug)]
#[must_use = "an undelivered message leaves the receiver's clock behind"]
pub struct PendingMsg {
    src: usize,
    bytes: u64,
    arrival: f64,
}

impl PendingMsg {
    /// Sending world rank (crate-internal: the replay mailboxes match
    /// receives on it).
    pub(crate) fn src(&self) -> usize {
        self.src
    }

    /// Payload size of the in-flight message (crate-internal: the SPMD
    /// mailboxes report it to phantom receivers).
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.bytes
    }

    /// Virtual arrival time (crate-internal: the SPMD mailboxes compare
    /// it against the job deadline).
    pub(crate) fn arrival(&self) -> f64 {
        self.arrival
    }

    /// Postpones arrival by `seconds` — the simulator's half of the
    /// `FaultAction::Delay` injection.
    pub(crate) fn delay(&mut self, seconds: f64) {
        self.arrival += seconds;
    }
}

/// Aggregated outcome of a simulated schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Virtual makespan: the largest rank clock.
    pub total_time: f64,
    /// Largest per-rank accumulated communication time.
    pub comm_time: f64,
    /// Largest per-rank accumulated computation time.
    pub comp_time: f64,
    /// Total messages sent.
    pub msgs: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

/// One rank's clock and time accounts, kept together so that an
/// operation on the rank touches one cache line.
#[derive(Clone, Copy, Default)]
struct RankTime {
    clock: f64,
    comm: f64,
    comp: f64,
    /// Messages sent so far (keys the noise stream).
    sent: u64,
}

/// The simulated network: per-rank clocks plus accounting.
pub struct SimNet {
    ranks: Vec<RankTime>,
    msgs: u64,
    bytes: u64,
    net: Hockney,
    topo: Box<dyn Topology>,
    /// Shared event model (`hsumma-trace`), stamped with virtual clocks:
    /// the tracer handle plus one claimed sink per rank.
    tracer: Option<(Tracer, Vec<TraceSink>)>,
    noise: Option<NoiseModel>,
}

/// Deterministic multiplicative transfer-time jitter: every transfer's
/// busy time is scaled by a factor drawn uniformly from
/// `[1, 1 + amplitude]` using a seeded SplitMix64 stream — OS and
/// network noise, reproducibly. (The paper's Grid5000 measurements
/// average 30 noisy runs; this models the phenomenon they average over.)
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    seed: u64,
    amplitude: f64,
}

impl NoiseModel {
    /// Creates a jitter stream. `amplitude` is the maximum relative
    /// slowdown (e.g. `0.2` = up to 20 % slower per transfer).
    pub fn new(seed: u64, amplitude: f64) -> Self {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        NoiseModel { seed, amplitude }
    }

    /// Multiplicative factor in `[1, 1 + amplitude]` for the `seq`-th
    /// message sent by `src`. Keyed per-sender rather than drawn from one
    /// sequential stream so the factor depends only on a rank's own
    /// message order — the SPMD driver runs ranks concurrently and a
    /// global draw order would not be reproducible.
    fn factor_for(&self, src: usize, seq: u64) -> f64 {
        // SplitMix64 finalizer over (seed, src, seq): deterministic,
        // seedable, no dependency.
        let mut z = self
            .seed
            .wrapping_add((src as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.amplitude * unit
    }
}

impl SimNet {
    /// A flat (fully connected, contention-free) network of `p` ranks —
    /// the paper's model assumptions.
    pub fn new(p: usize, net: Hockney) -> Self {
        Self::with_topology(p, net, Box::new(FullyConnected { ranks: p }))
    }

    /// A network with a topology refining per-message latency.
    ///
    /// # Panics
    /// Panics if the topology does not span exactly `p` ranks.
    pub fn with_topology(p: usize, net: Hockney, topo: Box<dyn Topology>) -> Self {
        assert!(p > 0, "need at least one rank");
        assert_eq!(topo.size(), p, "topology size must match rank count");
        SimNet {
            ranks: vec![RankTime::default(); p],
            msgs: 0,
            bytes: 0,
            net,
            topo,
            tracer: None,
            noise: None,
        }
    }

    /// Attaches deterministic transfer-time jitter (see [`NoiseModel`]).
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise = Some(noise);
    }

    /// Starts recording events into a fresh internal tracer using the
    /// shared `hsumma-trace` event model, stamped with this simulation's
    /// virtual clocks (replaces any previous trace). Intended for
    /// debugging and schedule analysis; large simulations should leave
    /// it off.
    pub fn enable_trace(&mut self) {
        let tracer = Tracer::new(self.size());
        self.attach_tracer(&tracer);
    }

    /// Records events into a caller-owned tracer — this is how a
    /// simulated run and a real (`hsumma-runtime`) run of the same
    /// algorithm produce structurally comparable traces.
    ///
    /// # Panics
    /// Panics if the tracer is disabled or sized for fewer ranks than
    /// the simulation has.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        assert!(tracer.enabled(), "attach_tracer needs an enabled tracer");
        assert!(
            tracer.ranks() >= self.size(),
            "tracer sized for {} ranks, simulation has {}",
            tracer.ranks(),
            self.size()
        );
        self.tracer = None; // drop previous sinks so rings can be reclaimed
        let sinks = (0..self.size()).map(|r| tracer.sink(r)).collect();
        self.tracer = Some((tracer.clone(), sinks));
    }

    /// Whether a tracer is attached (crate-internal: replay skips the
    /// pivot-step span bookkeeping when nothing would record it).
    pub(crate) fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<Trace> {
        self.tracer.as_ref().map(|(t, _)| t.collect())
    }

    /// Serializes the recorded trace into Chrome tracing format (load it
    /// at `chrome://tracing` or <https://ui.perfetto.dev>): one track per
    /// rank, nested spans, flow arrows for messages, microsecond
    /// timestamps.
    ///
    /// Returns `None` if tracing was never enabled.
    pub fn trace_to_chrome_json(&self) -> Option<String> {
        self.trace().map(|t| t.to_chrome_json())
    }

    #[inline]
    fn record(&self, rank: usize, kind: EventKind, t0: f64, t1: f64) {
        if let Some((_, sinks)) = &self.tracer {
            sinks[rank].record(kind, t0, t1);
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> f64 {
        self.ranks[rank].clock
    }

    /// Starts a transfer of `bytes` from `src` to `dst`: the sender is
    /// busy for `α + m·β`; the message arrives after the additional
    /// topology latency of the route.
    pub fn isend(&mut self, src: usize, dst: usize, bytes: u64) -> PendingMsg {
        let mut busy = self.net.time(bytes);
        let me = &mut self.ranks[src];
        if let Some(noise) = &self.noise {
            busy *= noise.factor_for(src, me.sent);
        }
        me.sent += 1;
        let departure = me.clock;
        me.clock += busy;
        me.comm += busy;
        self.msgs += 1;
        self.bytes += bytes;
        let arrival = departure + busy + self.topo.extra_latency(src, dst);
        self.record(
            src,
            EventKind::Send {
                dst,
                tag: 0,
                channel: 0,
                bytes,
            },
            departure,
            departure + busy,
        );
        PendingMsg {
            src,
            bytes,
            arrival,
        }
    }

    /// Blocks `dst` until `msg` has arrived; waiting time is accounted as
    /// communication.
    pub fn deliver(&mut self, dst: usize, msg: PendingMsg) {
        let me = &mut self.ranks[dst];
        let wait_from = me.clock;
        if msg.arrival > me.clock {
            me.comm += msg.arrival - me.clock;
            me.clock = msg.arrival;
        }
        let now = me.clock;
        self.record(
            dst,
            EventKind::Recv {
                src: msg.src,
                tag: 0,
                channel: 0,
                bytes: msg.bytes,
            },
            wait_from,
            now,
        );
    }

    /// Send and immediately deliver: for schedules where the receiver is
    /// known to be blocked in its receive (every tree broadcast).
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64) {
        let msg = self.isend(src, dst, bytes);
        self.deliver(dst, msg);
    }

    /// Advances `rank`'s clock by `seconds` of local computation.
    pub fn compute(&mut self, rank: usize, seconds: f64) {
        self.compute_flops(rank, seconds, 0);
    }

    /// Like [`SimNet::compute`], stamping the trace event with the flop
    /// count the time was derived from.
    pub fn compute_flops(&mut self, rank: usize, seconds: f64, flops: u64) {
        assert!(seconds >= 0.0, "computation time must be non-negative");
        let me = &mut self.ranks[rank];
        let t0 = me.clock;
        me.clock += seconds;
        me.comp += seconds;
        self.record(rank, EventKind::Compute { flops }, t0, t0 + seconds);
    }

    /// Records a pivot-step span `[t0, t1]` on `rank`'s track (schedule
    /// drivers call this around each step; no-op when tracing is off).
    pub fn record_step(&self, rank: usize, k: usize, outer: usize, inner: usize, t0: f64, t1: f64) {
        self.record(rank, EventKind::PivotStep { k, outer, inner }, t0, t1);
    }

    /// Advances every rank to the latest clock (a global barrier). The
    /// wait is accounted as communication, like an `MPI_Barrier` would be.
    pub fn barrier_all(&mut self) {
        let t = self.elapsed();
        for me in &mut self.ranks {
            me.comm += t - me.clock;
            me.clock = t;
        }
    }

    /// Advances every rank in `ranks` to the group's latest clock (a
    /// subgroup barrier); the wait is accounted as communication.
    pub fn barrier_group(&mut self, ranks: &[usize]) {
        let t = ranks
            .iter()
            .map(|&r| self.ranks[r].clock)
            .fold(0.0_f64, f64::max);
        for &r in ranks {
            let me = &mut self.ranks[r];
            me.comm += t - me.clock;
            me.clock = t;
        }
    }

    /// Removes the accounting of a message that a fault plan dropped at
    /// the send path: the sender stays busy (it did the work) but the
    /// world's send ledger must not count a message no receiver can see,
    /// mirroring the threaded runtime's drop semantics.
    pub(crate) fn uncount_send(&mut self, bytes: u64) {
        self.msgs -= 1;
        self.bytes -= bytes;
    }

    /// Advances `rank`'s clock to `t` (no-op if already past), charging
    /// the wait as communication — used when a blocked rank gives up at
    /// the virtual deadline.
    pub(crate) fn wait_until(&mut self, rank: usize, t: f64) {
        let me = &mut self.ranks[rank];
        if t > me.clock {
            me.comm += t - me.clock;
            me.clock = t;
        }
    }

    /// Virtual makespan so far.
    pub fn elapsed(&self) -> f64 {
        self.ranks.iter().map(|me| me.clock).fold(0.0, f64::max)
    }

    /// Snapshot of the aggregate accounting.
    pub fn report(&self) -> SimReport {
        SimReport {
            total_time: self.elapsed(),
            comm_time: self.ranks.iter().map(|me| me.comm).fold(0.0, f64::max),
            comp_time: self.ranks.iter().map(|me| me.comp).fold(0.0, f64::max),
            msgs: self.msgs,
            bytes: self.bytes,
        }
    }

    /// Per-rank communication time (test/diagnostic hook).
    pub fn comm_of(&self, rank: usize) -> f64 {
        self.ranks[rank].comm
    }

    /// Per-rank computation time (test/diagnostic hook).
    pub fn comp_of(&self, rank: usize) -> f64 {
        self.ranks[rank].comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus3D;

    fn net2() -> SimNet {
        SimNet::new(2, Hockney::new(1e-3, 1e-6))
    }

    #[test]
    fn single_send_costs_alpha_plus_m_beta() {
        let mut net = net2();
        net.send(0, 1, 1000);
        let want = 1e-3 + 1000.0 * 1e-6;
        assert!((net.now(0) - want).abs() < 1e-15);
        assert!((net.now(1) - want).abs() < 1e-15);
        assert_eq!(net.report().msgs, 1);
        assert_eq!(net.report().bytes, 1000);
    }

    #[test]
    fn receiver_already_late_does_not_wait() {
        let mut net = net2();
        net.compute(1, 10.0);
        net.send(0, 1, 1000);
        // Rank 1 was at t=10, message arrived around t=0.002: no wait.
        assert_eq!(net.now(1), 10.0);
        assert_eq!(net.comm_of(1), 0.0);
    }

    #[test]
    fn sender_serializes_consecutive_sends() {
        let mut net = SimNet::new(3, Hockney::new(1.0, 0.0));
        net.send(0, 1, 0);
        net.send(0, 2, 0);
        assert!((net.now(0) - 2.0).abs() < 1e-15);
        assert!((net.now(1) - 1.0).abs() < 1e-15);
        assert!((net.now(2) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn isend_deliver_overlaps_send_with_wait() {
        // Both ranks send to each other first, then wait: total time is
        // one transfer, not two (the exchange overlaps).
        let mut net = net2();
        let m01 = net.isend(0, 1, 1000);
        let m10 = net.isend(1, 0, 1000);
        net.deliver(1, m01);
        net.deliver(0, m10);
        let one = 1e-3 + 1000.0 * 1e-6;
        assert!((net.elapsed() - one).abs() < 1e-12);
    }

    #[test]
    fn compute_accrues_to_comp_not_comm() {
        let mut net = net2();
        net.compute(0, 2.5);
        assert_eq!(net.comp_of(0), 2.5);
        assert_eq!(net.comm_of(0), 0.0);
        assert_eq!(net.report().comp_time, 2.5);
    }

    #[test]
    fn barrier_aligns_clocks_and_charges_wait_as_comm() {
        let mut net = net2();
        net.compute(0, 3.0);
        net.barrier_all();
        assert_eq!(net.now(1), 3.0);
        assert_eq!(net.comm_of(1), 3.0);
        assert_eq!(net.comm_of(0), 0.0);
    }

    #[test]
    fn torus_topology_adds_hop_latency() {
        let topo = Torus3D::new([4, 1, 1], 0.5);
        let mut net = SimNet::with_topology(4, Hockney::new(1.0, 0.0), Box::new(topo));
        net.send(0, 2, 0); // 2 hops on the ring
        assert!((net.now(2) - (1.0 + 2.0 * 0.5)).abs() < 1e-15);
        // Sender is only busy for the injection, not the hops.
        assert!((net.now(0) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "topology size")]
    fn topology_size_mismatch_rejected() {
        let topo = Torus3D::new([2, 2, 2], 0.0);
        let _ = SimNet::with_topology(4, Hockney::new(0.0, 0.0), Box::new(topo));
    }

    #[test]
    fn trace_records_transfers_with_virtual_timestamps() {
        use hsumma_trace::EventKind;
        let mut net = SimNet::new(3, Hockney::new(1.0, 0.0));
        net.enable_trace();
        net.send(0, 1, 10);
        net.send(1, 2, 20);
        let trace = net.trace().expect("tracing enabled");
        // Two sends, two matching recvs.
        assert_eq!(trace.payload_send_multiset(), vec![(0, 1, 10), (1, 2, 20)]);
        assert_eq!(trace.count(|e| matches!(e.kind, EventKind::Recv { .. })), 2);
        // The relay's send departs only after its receive completed.
        let relay_send = trace
            .events_of(1)
            .find(|e| matches!(e.kind, EventKind::Send { .. }))
            .expect("rank 1 sent");
        let relay_recv = trace
            .events_of(1)
            .find(|e| matches!(e.kind, EventKind::Recv { .. }))
            .expect("rank 1 received");
        assert!(relay_send.t0 >= relay_recv.t1 - 1e-12);
        for e in &trace.events {
            assert!(e.t1 >= e.t0, "causality");
        }
    }

    #[test]
    fn attached_tracer_sees_events_and_critical_path() {
        let tracer = hsumma_trace::Tracer::new(2);
        let mut net = SimNet::new(2, Hockney::new(1e-3, 1e-6));
        net.attach_tracer(&tracer);
        net.send(0, 1, 500);
        let cp = tracer.collect().critical_path();
        assert_eq!(cp.message_edges.len(), 1);
        assert!((cp.makespan - (1e-3 + 500.0 * 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn noise_slows_transfers_reproducibly_within_bounds() {
        let run = |seed: u64| {
            let mut net = SimNet::new(2, Hockney::new(1e-3, 1e-9));
            net.set_noise(NoiseModel::new(seed, 0.5));
            for _ in 0..100 {
                net.send(0, 1, 1000);
            }
            net.now(1)
        };
        let clean = {
            let mut net = SimNet::new(2, Hockney::new(1e-3, 1e-9));
            for _ in 0..100 {
                net.send(0, 1, 1000);
            }
            net.now(1)
        };
        let noisy = run(7);
        assert!(noisy > clean, "noise must slow transfers");
        assert!(noisy <= clean * 1.5 + 1e-12, "bounded by the amplitude");
        assert_eq!(run(7), noisy, "same seed, same result");
        assert_ne!(run(8), noisy, "different seed, different jitter");
    }

    #[test]
    fn zero_amplitude_noise_is_identity() {
        let mut net = SimNet::new(2, Hockney::new(1e-3, 0.0));
        net.set_noise(NoiseModel::new(1, 0.0));
        net.send(0, 1, 0);
        assert!((net.now(1) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn chrome_export_is_valid_json_and_complete() {
        let mut net = SimNet::new(2, Hockney::new(1e-3, 0.0));
        net.enable_trace();
        net.send(0, 1, 42);
        net.send(1, 0, 7);
        let json = net.trace_to_chrome_json().expect("trace enabled");
        hsumma_trace::validate_json(&json).expect("exported trace is valid JSON");
        assert!(json.trim_start().starts_with('['));
        // 2 sends + 2 recvs as spans.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("send 42B to r1"));
        assert!(net.trace_to_chrome_json().is_some(), "export is repeatable");
    }

    #[test]
    fn trace_absent_unless_enabled() {
        let mut net = net2();
        net.send(0, 1, 1);
        assert!(net.trace().is_none());
    }

    #[test]
    fn report_tracks_makespan_across_ranks() {
        let mut net = SimNet::new(4, Hockney::new(0.1, 0.0));
        net.compute(3, 7.0);
        net.send(0, 1, 0);
        let r = net.report();
        assert_eq!(r.total_time, 7.0);
        assert!((r.comm_time - 0.1).abs() < 1e-15);
    }
}
