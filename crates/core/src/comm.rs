//! The substrate-agnostic communicator: one schedule, two substrates.
//!
//! Every distributed algorithm in this crate (SUMMA, HSUMMA, Cannon, Fox,
//! block LU, TSQR, 2.5D, …) is written once, generically, against the
//! [`Communicator`] trait. Two implementations exist:
//!
//! * the threaded runtime's [`Comm`] — moves real [`Matrix`] payloads
//!   between rank threads and measures wall-clock time;
//! * one phantom body for the simulator's [`SimComm`] and the recorder's
//!   [`RecordComm`] — moves [`PhantomMat`] payloads (shapes only). The
//!   simulator advances [`hsumma_netsim::SimNet`] virtual clocks per the
//!   Hockney model `α + m·β` and charges local compute analytically at
//!   `γ` seconds per multiply-add pair; the recorder writes the same
//!   operations into a replayable program.
//!
//! Because the *same* per-rank program runs on both substrates, the
//! simulator cannot drift from the executable code: the message schedule
//! is defined exactly once. That holds inside the collectives too: the
//! phantom broadcast and reduce below, like `hsumma_runtime::collectives`,
//! take every tree edge, segment and chunk from the schedule in
//! `hsumma_trace`, which is what `tests/sim_golden_parity.rs` and
//! `tests/sim_model_consistency.rs` pin down.
//!
//! Payload shapes are globally known in all these algorithms (each panel's
//! dimensions follow from the step index), which is why `recv_mat` takes
//! the expected shape instead of reading it off the wire — exactly MPI's
//! contract, and what lets the phantom substrate work at all.

use hsumma_matrix::factor::{lu_nopiv_inplace, qr_thin, trsm_left_lower_unit, trsm_right_upper};
use hsumma_matrix::{gemm, gemm_scaled, GemmKernel, Matrix};
use hsumma_netsim::{RecordComm, SimComm};
use hsumma_runtime::collectives;
use hsumma_runtime::{BcastAlgorithm, Comm, CommError, WirePayload};
use hsumma_trace::{allgather_rounds, bcast_edges, bcast_range, bcast_segments, reduce_edges};
use std::sync::Arc;

/// Matrix operations the generic algorithms need. Implemented by the real
/// [`Matrix`] (actual arithmetic) and by [`PhantomMat`] (shape bookkeeping
/// only — every operation checks conformability and computes nothing).
pub trait MatLike: Clone + Send + 'static {
    /// An all-zero `rows × cols` matrix.
    fn zeros(rows: usize, cols: usize) -> Self;
    /// The `n × n` identity.
    fn identity(n: usize) -> Self;
    /// Row count.
    fn rows(&self) -> usize;
    /// Column count.
    fn cols(&self) -> usize;
    /// Element count (`rows · cols`).
    fn elems(&self) -> usize {
        self.rows() * self.cols()
    }
    /// A freshly allocated copy of the `h × w` block at `(r0, c0)`.
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self;
    /// Overwrites the block at `(r0, c0)` with `src`.
    fn set_block(&mut self, r0: usize, c0: usize, src: &Self);
    /// Element-wise `self += other`; shapes must agree.
    fn add_assign(&mut self, other: &Self);
    /// `C += A·B`.
    fn gemm(kernel: GemmKernel, a: &Self, b: &Self, c: &mut Self);
    /// `C += α·A·B`.
    fn gemm_scaled(kernel: GemmKernel, alpha: f64, a: &Self, b: &Self, c: &mut Self);
    /// In-place unpivoted LU of a square matrix.
    fn lu_nopiv_inplace(&mut self);
    /// `B ← B·U⁻¹` for upper-triangular `U`.
    fn trsm_right_upper(u: &Self, b: &mut Self);
    /// `B ← L⁻¹·B` for unit-lower-triangular `L`.
    fn trsm_left_lower_unit(l: &Self, b: &mut Self);
    /// Thin QR of a tall matrix: `(Q, R)` with `Q` the caller's shape's
    /// `m × n` orthonormal factor and `R` upper-triangular `n × n`.
    fn qr_thin(&self) -> (Self, Self);
}

impl MatLike for Matrix {
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }
    fn identity(n: usize) -> Self {
        Matrix::identity(n)
    }
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        Matrix::block(self, r0, c0, h, w)
    }
    fn set_block(&mut self, r0: usize, c0: usize, src: &Self) {
        Matrix::set_block(self, r0, c0, src)
    }
    fn add_assign(&mut self, other: &Self) {
        Matrix::add_assign(self, other)
    }
    fn gemm(kernel: GemmKernel, a: &Self, b: &Self, c: &mut Self) {
        gemm(kernel, a, b, c)
    }
    fn gemm_scaled(kernel: GemmKernel, alpha: f64, a: &Self, b: &Self, c: &mut Self) {
        gemm_scaled(kernel, alpha, a, b, c)
    }
    fn lu_nopiv_inplace(&mut self) {
        lu_nopiv_inplace(self)
    }
    fn trsm_right_upper(u: &Self, b: &mut Self) {
        trsm_right_upper(u, b)
    }
    fn trsm_left_lower_unit(l: &Self, b: &mut Self) {
        trsm_left_lower_unit(l, b)
    }
    fn qr_thin(&self) -> (Self, Self) {
        qr_thin(self)
    }
}

/// A matrix that exists only as a shape: the payload the simulated
/// substrate moves. All [`MatLike`] operations validate dimensions with
/// the same panics the dense implementations raise, so a generic
/// algorithm that misindexes fails identically on either substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhantomMat {
    /// Row count of the matrix this stands in for.
    pub rows: usize,
    /// Column count of the matrix this stands in for.
    pub cols: usize,
}

/// A phantom stand-in ships exactly the bytes the dense matrix it
/// models would — the sim substrate's half of the shared accounting.
impl WirePayload for PhantomMat {
    fn payload_bytes(&self) -> u64 {
        (self.rows * self.cols * 8) as u64
    }
}

impl MatLike for PhantomMat {
    fn zeros(rows: usize, cols: usize) -> Self {
        PhantomMat { rows, cols }
    }
    fn identity(n: usize) -> Self {
        PhantomMat { rows: n, cols: n }
    }
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        PhantomMat { rows: h, cols: w }
    }
    fn set_block(&mut self, r0: usize, c0: usize, src: &Self) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of bounds"
        );
    }
    fn add_assign(&mut self, other: &Self) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in add_assign"
        );
    }
    fn gemm(_kernel: GemmKernel, a: &Self, b: &Self, c: &mut Self) {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert_eq!((c.rows, c.cols), (a.rows, b.cols), "output shape mismatch");
    }
    fn gemm_scaled(kernel: GemmKernel, _alpha: f64, a: &Self, b: &Self, c: &mut Self) {
        Self::gemm(kernel, a, b, c);
    }
    fn lu_nopiv_inplace(&mut self) {
        assert_eq!(self.rows, self.cols, "LU needs a square matrix");
    }
    fn trsm_right_upper(u: &Self, b: &mut Self) {
        assert_eq!(u.rows, u.cols, "triangular factor must be square");
        assert_eq!(b.cols, u.rows, "dimension mismatch");
    }
    fn trsm_left_lower_unit(l: &Self, b: &mut Self) {
        assert_eq!(l.rows, l.cols, "triangular factor must be square");
        assert_eq!(b.rows, l.cols, "dimension mismatch");
    }
    fn qr_thin(&self) -> (Self, Self) {
        assert!(self.rows >= self.cols, "QR needs a tall matrix");
        (
            PhantomMat {
                rows: self.rows,
                cols: self.cols,
            },
            PhantomMat {
                rows: self.cols,
                cols: self.cols,
            },
        )
    }
}

/// Wire-tag band for in-flight panel broadcasts: a caller's ibcast tag
/// is offset into the collective region (`≥ COLLECTIVE_TAG_FLOOR`,
/// `1 << 62`) so fault rules written against `TagClass::Collective`
/// match ibcast traffic exactly like blocking-collective traffic, on
/// both substrates. The `1 << 48` offset keeps the band disjoint from
/// the simulator's fixed collective tags (`SIM_TAG_*`, small offsets
/// above `1 << 62`) and below the runtime's internal protocol tags
/// (`1 << 63`).
pub const IBCAST_TAG_BASE: u64 = (1 << 62) + (1 << 48);

/// Width of the ibcast tag band; caller-supplied ibcast tags must be
/// smaller than this.
pub const IBCAST_TAG_SPAN: u64 = 1 << 48;

/// Handle to one nonblocking panel broadcast: the in-flight half of an
/// `ibcast`-style `start`/`test`/`wait` protocol. Generic over
/// the substrate's [`Communicator::Shared`] payload, so the same handle
/// type serves both the threaded runtime (`Arc<Matrix>`) and the
/// simulator ([`PhantomMat`]).
///
/// Handles are started by [`Communicator::ibcast_shared`], polled with
/// [`Communicator::ibcast_test`] and completed with
/// [`Communicator::ibcast_wait`]. They compose with the fallible
/// communication machinery: a start sends through the normal (deadline-,
/// cancellation- and fault-checked) send path, and a wait receives
/// through the normal receive path, so a dropped or delayed in-flight
/// broadcast surfaces as a [`CommError`] naming the stalled edge rather
/// than a hang or a torn buffer.
#[derive(Debug)]
pub struct PanelBcast<S> {
    /// Root rank (communicator-local) the payload originates from.
    root: usize,
    /// Wire tag the broadcast's messages travel under.
    tag: u64,
    rows: usize,
    cols: usize,
    /// The panel, once locally available: immediately at the root, after
    /// a successful `test`/`wait` everywhere else.
    got: Option<S>,
}

impl<S> PanelBcast<S> {
    fn started(root: usize, tag: u64, rows: usize, cols: usize, got: Option<S>) -> Self {
        PanelBcast {
            root,
            tag,
            rows,
            cols,
            got,
        }
    }

    /// Records the received panel (used by the substrates' `test`/`wait`).
    fn fulfill(&mut self, panel: S) {
        debug_assert!(self.got.is_none(), "broadcast fulfilled twice");
        self.got = Some(panel);
    }

    fn take(self) -> (usize, u64, usize, usize, Option<S>) {
        (self.root, self.tag, self.rows, self.cols, self.got)
    }
}

/// The communicator the algorithms are generic over: MPI-style rank
/// algebra, matrix-payload point-to-point, rooted collectives with a
/// selectable broadcast algorithm, and the local-compute hook through
/// which the substrate charges (real) or models (simulated) flops.
///
/// Ranks and roots are always communicator-local. Payload shapes must be
/// supplied on the receive side (they are globally known in every
/// algorithm here).
///
/// Every communication operation is fallible: it returns
/// `Result<_, CommError>` so deadlines, cancellation and injected faults
/// propagate out of the schedules (the algorithms use `?` throughout)
/// instead of hanging a rank. Both substrates produce the same error
/// vocabulary — [`CommError`] names the stalled edge either way.
pub trait Communicator: Sized {
    /// The matrix payload this substrate moves.
    type Mat: MatLike;
    /// A cheaply clonable handle to a `Mat` (`Arc<Matrix>` on the real
    /// substrate), for one-to-many pushes without deep copies.
    type Shared: Clone + Send + 'static;

    /// Rank within this communicator.
    fn rank(&self) -> usize;
    /// Number of ranks in this communicator.
    fn size(&self) -> usize;
    /// `MPI_Comm_split` from a function every member shares: `f` maps
    /// each parent rank to its `(color, key)`; the child groups by color
    /// and orders by `(key, parent rank)`. Each rank computes its own
    /// group, so no substrate sends a message or waits. Members call it
    /// in the same program order; a rank that makes no later split of
    /// this communicator may skip it.
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self;

    /// Sends `mat` to `dst`.
    fn send_mat(&self, dst: usize, tag: u64, mat: Self::Mat) -> Result<(), CommError>;
    /// Receives a `rows × cols` matrix from `src`.
    fn recv_mat(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Self::Mat, CommError>;

    /// Views the matrix behind a shared handle.
    fn shared_ref(shared: &Self::Shared) -> &Self::Mat;
    /// Sends a shared handle to `dst` (payload counted once, not copied).
    fn send_shared(&self, dst: usize, tag: u64, shared: &Self::Shared) -> Result<(), CommError>;
    /// Receives a shared `rows × cols` matrix from `src`.
    fn recv_shared(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Self::Shared, CommError>;

    /// Starts a nonblocking flat broadcast of a shared `rows × cols`
    /// panel from `root`: the `start` of the `ibcast` protocol. The root
    /// passes `Some(panel)` — its fan-out sends complete eagerly
    /// (buffered on the threaded runtime, priced at the virtual send
    /// path on the simulator), so the root's handle is complete on
    /// return. Every other rank passes `None` and gets a pending handle
    /// to poll ([`Communicator::ibcast_test`]) or block on
    /// ([`Communicator::ibcast_wait`]).
    ///
    /// The fan-out is flat by design: the pipelined algorithms must
    /// never make a non-root rank relay (a relay is a blocking receive
    /// inside the "nonblocking" start, which would put the broadcast
    /// right back on the critical path). Deadline, cancellation and
    /// fault injection compose unchanged — the start goes through the
    /// fallible send path, completion through the fallible receive path,
    /// so a dropped in-flight broadcast surfaces at the wait as
    /// [`CommError::Timeout`] naming the stalled edge.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    fn ibcast_shared(
        &self,
        root: usize,
        tag: u64,
        rows: usize,
        cols: usize,
        panel: Option<Self::Shared>,
    ) -> Result<PanelBcast<Self::Shared>, CommError> {
        // An ibcast is a collective: its wire traffic must live in the
        // collective tag band so fault rules written against
        // `TagClass::Collective` target it on either substrate, and so
        // a stalled-edge diagnostic identifies the tag as a broadcast.
        debug_assert!(tag < IBCAST_TAG_SPAN, "ibcast user tag out of band");
        let tag = IBCAST_TAG_BASE + tag;
        if self.rank() == root {
            let panel = panel.expect("the broadcast root must supply the panel");
            for dst in 0..self.size() {
                if dst != root {
                    self.send_shared(dst, tag, &panel)?;
                }
            }
            Ok(PanelBcast::started(root, tag, rows, cols, Some(panel)))
        } else {
            assert!(panel.is_none(), "only the broadcast root supplies a panel");
            Ok(PanelBcast::started(root, tag, rows, cols, None))
        }
    }

    /// Polls an in-flight broadcast: `Ok(true)` once the panel is
    /// locally available (after which `wait` returns without blocking).
    /// Never blocks and never advances the simulator's virtual clock —
    /// a poll is free; only consuming the message costs time.
    fn ibcast_test(&self, handle: &mut PanelBcast<Self::Shared>) -> Result<bool, CommError>;

    /// Completes an in-flight broadcast, blocking until the panel
    /// arrives. On the threaded runtime a not-yet-arrived panel parks
    /// the rank in its mailbox (condvar-backed — no busy-wait); on the
    /// simulator it advances the rank's virtual clock to the message's
    /// arrival time, which is how a wait deferred behind `compute`
    /// models overlap.
    fn ibcast_wait(&self, handle: PanelBcast<Self::Shared>) -> Result<Self::Shared, CommError> {
        let (root, tag, rows, cols, got) = handle.take();
        match got {
            Some(panel) => Ok(panel),
            None => self.recv_shared(root, tag, rows, cols),
        }
    }

    /// Cuts the `rows × cols` block at `(r0, c0)` of `src` into a fresh
    /// shared panel: the one copy a broadcast root makes. The real
    /// substrate counts it as a payload materialization in the rank's
    /// `CommStats`; the phantom substrates only check bounds.
    fn cut(&self, src: &Self::Mat, r0: usize, c0: usize, rows: usize, cols: usize) -> Self::Shared;

    /// Broadcasts a shared `rows × cols` panel from `root` with the
    /// selected algorithm and returns it on every rank. The root passes
    /// `Some(panel)`, everyone else `None`. On the real substrate the
    /// tree algorithms move the root's `Arc` hop by hop, so every rank
    /// returns the root's allocation and no rank copies; the segmenting
    /// algorithms move slices of one buffer and hand each receiver a
    /// fresh one. The simulated substrates walk the same trees, message
    /// for message, with phantom payloads.
    ///
    /// # Panics
    /// Panics if `root` is out of range or the root passes `None`.
    fn bcast_shared(
        &self,
        algo: BcastAlgorithm,
        root: usize,
        rows: usize,
        cols: usize,
        panel: Option<Self::Shared>,
    ) -> Result<Self::Shared, CommError>;

    /// Broadcasts `mat` from `root` in place with the selected algorithm:
    /// [`Communicator::bcast_shared`] around one cut at the root and one
    /// copy-out at each receiver.
    fn bcast_mat(
        &self,
        algo: BcastAlgorithm,
        root: usize,
        mat: &mut Self::Mat,
    ) -> Result<(), CommError> {
        assert!(root < self.size(), "root out of range");
        if self.size() == 1 {
            return Ok(());
        }
        let (rows, cols) = (mat.rows(), mat.cols());
        let panel = (self.rank() == root).then(|| self.cut(mat, 0, 0, rows, cols));
        let got = self.bcast_shared(algo, root, rows, cols, panel)?;
        if self.rank() != root {
            mat.set_block(0, 0, Self::shared_ref(&got));
        }
        Ok(())
    }
    /// Element-wise sum reduction to `root` (binomial tree). Non-root
    /// buffers are left in an unspecified partial state.
    fn reduce_sum_mat(&self, root: usize, mat: &mut Self::Mat) -> Result<(), CommError>;
    /// Synchronizes all ranks of this communicator.
    fn barrier(&self) -> Result<(), CommError>;
    /// A step-boundary synchronization hook: a no-op on the real runtime
    /// (threads synchronize through the messages themselves) and a
    /// world-wide clock alignment on the simulator when it was configured
    /// with per-step-synchronized (blocking-collective) semantics.
    fn maybe_step_sync(&self) -> Result<(), CommError>;

    /// Runs local compute `f`. The real substrate times the call (tagging
    /// it with `flops` when nonzero); the simulator skips `f`'s arithmetic
    /// cost-wise and instead charges `γ · pairs` seconds (`pairs` is the
    /// multiply-add pair count — fractional for non-GEMM kernels such as
    /// LU's `bs³/3`).
    fn compute<R>(&self, pairs: f64, flops: u64, f: impl FnOnce() -> R) -> R;
    /// Records a pivot-step span around `f` for the tracer.
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R;
}

/// Wire size of a dense `rows × cols` tile, asked of the payload's
/// [`WirePayload`] hook (`PhantomMat` models the same bytes a real
/// `Matrix` of that shape ships, so both substrates account through one
/// code path).
fn mat_bytes(rows: usize, cols: usize) -> u64 {
    PhantomMat { rows, cols }.payload_bytes()
}

// ---------------------------------------------------------------------------
// Real substrate: the threaded runtime.
// ---------------------------------------------------------------------------

impl Communicator for Comm {
    type Mat = Matrix;
    type Shared = Arc<Matrix>;

    fn rank(&self) -> usize {
        Comm::rank(self)
    }
    fn size(&self) -> usize {
        Comm::size(self)
    }
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self {
        Comm::split(self, f)
    }

    fn send_mat(&self, dst: usize, tag: u64, mat: Matrix) -> Result<(), CommError> {
        self.send(dst, tag, mat)
    }
    fn recv_mat(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Matrix, CommError> {
        let mat = self.recv::<Matrix>(src, tag)?;
        debug_assert_eq!(
            (mat.rows(), mat.cols()),
            (rows, cols),
            "tile shape mismatch"
        );
        Ok(mat)
    }

    fn shared_ref(shared: &Arc<Matrix>) -> &Matrix {
        shared
    }
    fn send_shared(&self, dst: usize, tag: u64, shared: &Arc<Matrix>) -> Result<(), CommError> {
        self.send(dst, tag, Arc::clone(shared))
    }
    fn recv_shared(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Arc<Matrix>, CommError> {
        let mat = self.recv::<Arc<Matrix>>(src, tag)?;
        debug_assert_eq!(
            (mat.rows(), mat.cols()),
            (rows, cols),
            "tile shape mismatch"
        );
        Ok(mat)
    }

    fn ibcast_test(&self, handle: &mut PanelBcast<Arc<Matrix>>) -> Result<bool, CommError> {
        if handle.got.is_some() {
            return Ok(true);
        }
        match self.try_recv::<Arc<Matrix>>(handle.root, handle.tag)? {
            Some(panel) => {
                handle.fulfill(panel);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn cut(&self, src: &Matrix, r0: usize, c0: usize, rows: usize, cols: usize) -> Arc<Matrix> {
        self.count_payload_clone(mat_bytes(rows, cols));
        Arc::new(src.block(r0, c0, rows, cols))
    }
    fn bcast_shared(
        &self,
        algo: BcastAlgorithm,
        root: usize,
        rows: usize,
        cols: usize,
        panel: Option<Arc<Matrix>>,
    ) -> Result<Arc<Matrix>, CommError> {
        assert!(root < self.size(), "root out of range");
        assert!(
            panel.is_some() || self.rank() != root,
            "root must supply the value"
        );
        if self.size() == 1 {
            return Ok(panel.expect("root supplied the value"));
        }
        if !algo.needs_segmentation() {
            return collectives::bcast(self, algo, root, panel);
        }
        // Segments are slices of one mutable buffer: the root's panel,
        // copied only if another rank still holds it.
        let mut mat = match panel {
            Some(p) => Arc::try_unwrap(p).unwrap_or_else(|p| {
                self.count_payload_clone(mat_bytes(rows, cols));
                Matrix::clone(&p)
            }),
            None => Matrix::zeros(rows, cols),
        };
        collectives::bcast_f64(self, algo, root, mat.as_mut_slice())?;
        Ok(Arc::new(mat))
    }
    fn reduce_sum_mat(&self, root: usize, mat: &mut Matrix) -> Result<(), CommError> {
        collectives::reduce_sum_f64(self, root, mat.as_mut_slice())
    }
    fn barrier(&self) -> Result<(), CommError> {
        collectives::barrier(self)
    }
    fn maybe_step_sync(&self) -> Result<(), CommError> {
        Ok(())
    }

    fn compute<R>(&self, _pairs: f64, flops: u64, f: impl FnOnce() -> R) -> R {
        if flops == 0 {
            self.time_compute(f)
        } else {
            self.time_compute_flops(flops, f)
        }
    }
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        Comm::trace_step(self, k, outer, inner, f)
    }
}

// ---------------------------------------------------------------------------
// Phantom substrates: shapes over simulated clocks or into a recording.
// ---------------------------------------------------------------------------

// Collective wire tags, far above any tag the algorithms use (the largest
// algorithm tag is overlap's `2·slices + 2³²`).
const SIM_TAG_BCAST: u64 = 1 << 62;
const SIM_TAG_ALLGATHER: u64 = (1 << 62) + 3;
const SIM_TAG_REDUCE: u64 = (1 << 62) + 4;

/// Rank algebra, raw byte point-to-point and the simulator hooks: all a
/// phantom substrate must supply for the one [`Communicator`] body below.
/// Implemented by the clock-advancing [`SimComm`] and the
/// schedule-recording [`RecordComm`], so the recorded tree edges are
/// definitionally the ones the threaded simulator walks.
trait ByteComm: Sized {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self;
    fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError>;
    /// A collective's receive. The shapes are globally known, so the
    /// byte count is not inspected.
    fn recv_bytes(&self, src: usize, tag: u64) -> Result<u64, CommError>;
    /// A tile's receive, whose byte count must be `bytes`: checked when
    /// the message arrives, or by the replay engine for a recording.
    fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError>;
    /// Receives from `src` only if the message has already arrived.
    fn try_recv_bytes(&self, src: usize, tag: u64) -> Result<Option<u64>, CommError>;
    fn barrier(&self) -> Result<(), CommError>;
    fn maybe_step_sync(&self) -> Result<(), CommError>;
    fn compute(&self, pairs: f64, flops: u64);
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R;
}

impl ByteComm for SimComm<'_> {
    fn rank(&self) -> usize {
        SimComm::rank(self)
    }
    fn size(&self) -> usize {
        SimComm::size(self)
    }
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self {
        SimComm::split(self, f)
    }
    fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        SimComm::send_bytes(self, dst, tag, bytes)
    }
    fn recv_bytes(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        SimComm::recv_bytes(self, src, tag)
    }
    fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        let got = SimComm::recv_bytes(self, src, tag)?;
        assert_eq!(got, bytes, "phantom payload size mismatch");
        Ok(())
    }
    fn try_recv_bytes(&self, src: usize, tag: u64) -> Result<Option<u64>, CommError> {
        SimComm::try_recv_bytes(self, src, tag)
    }
    fn barrier(&self) -> Result<(), CommError> {
        SimComm::barrier(self)
    }
    fn maybe_step_sync(&self) -> Result<(), CommError> {
        SimComm::maybe_step_sync(self)
    }
    fn compute(&self, pairs: f64, flops: u64) {
        SimComm::compute(self, pairs, flops)
    }
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        SimComm::trace_step(self, k, outer, inner, f)
    }
}

impl ByteComm for RecordComm<'_> {
    fn rank(&self) -> usize {
        RecordComm::rank(self)
    }
    fn size(&self) -> usize {
        RecordComm::size(self)
    }
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self {
        RecordComm::split(self, f)
    }
    fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        RecordComm::send_bytes(self, dst, tag, bytes)
    }
    fn recv_bytes(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        self.recv_bytes_unchecked(src, tag)
    }
    fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        RecordComm::recv_bytes_expect(self, src, tag, bytes)
    }
    fn try_recv_bytes(&self, _src: usize, _tag: u64) -> Result<Option<u64>, CommError> {
        // "Has the message arrived *yet*?" is a question about the
        // virtual clock that a sequential recording pass cannot answer.
        // Schedules that poll (hsumma_overlap's adaptive handoff) are
        // data-dependent on timing and therefore not schedule-as-data;
        // run them on the threaded sim engine. The default
        // `ibcast_shared`/`ibcast_wait` pair (summa_overlap) records
        // fine: its message schedule is timing-independent.
        unimplemented!(
            "ibcast_test polls the virtual clock, which a sequential recording pass \
             cannot observe; timing-adaptive schedules are not recordable"
        )
    }
    fn barrier(&self) -> Result<(), CommError> {
        RecordComm::barrier(self)
    }
    fn maybe_step_sync(&self) -> Result<(), CommError> {
        RecordComm::maybe_step_sync(self)
    }
    fn compute(&self, pairs: f64, flops: u64) {
        RecordComm::compute(self, pairs, flops)
    }
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        RecordComm::trace_step(self, k, outer, inner, f)
    }
}

impl<B: ByteComm> Communicator for B {
    type Mat = PhantomMat;
    type Shared = PhantomMat;

    fn rank(&self) -> usize {
        ByteComm::rank(self)
    }
    fn size(&self) -> usize {
        ByteComm::size(self)
    }
    fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> Self {
        ByteComm::split(self, f)
    }

    fn send_mat(&self, dst: usize, tag: u64, mat: PhantomMat) -> Result<(), CommError> {
        self.send_bytes(dst, tag, mat.payload_bytes())
    }
    fn recv_mat(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<PhantomMat, CommError> {
        self.recv_bytes_expect(src, tag, mat_bytes(rows, cols))?;
        Ok(PhantomMat { rows, cols })
    }

    fn shared_ref(shared: &PhantomMat) -> &PhantomMat {
        shared
    }
    fn send_shared(&self, dst: usize, tag: u64, shared: &PhantomMat) -> Result<(), CommError> {
        self.send_bytes(dst, tag, shared.payload_bytes())
    }
    fn recv_shared(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<PhantomMat, CommError> {
        Communicator::recv_mat(self, src, tag, rows, cols)
    }

    fn ibcast_test(&self, handle: &mut PanelBcast<PhantomMat>) -> Result<bool, CommError> {
        if handle.got.is_some() {
            return Ok(true);
        }
        let (rows, cols) = (handle.rows, handle.cols);
        match self.try_recv_bytes(handle.root, handle.tag)? {
            Some(bytes) => {
                assert_eq!(
                    bytes,
                    mat_bytes(rows, cols),
                    "phantom payload size mismatch"
                );
                handle.fulfill(PhantomMat { rows, cols });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn cut(&self, src: &PhantomMat, r0: usize, c0: usize, rows: usize, cols: usize) -> PhantomMat {
        src.block(r0, c0, rows, cols)
    }
    fn bcast_shared(
        &self,
        algo: BcastAlgorithm,
        root: usize,
        rows: usize,
        cols: usize,
        panel: Option<PhantomMat>,
    ) -> Result<PhantomMat, CommError> {
        assert!(root < Communicator::size(self), "root out of range");
        assert!(
            panel.is_some() || Communicator::rank(self) != root,
            "root must supply the value"
        );
        sim_bcast(self, algo, root, rows * cols)?;
        Ok(PhantomMat { rows, cols })
    }
    fn reduce_sum_mat(&self, root: usize, mat: &mut PhantomMat) -> Result<(), CommError> {
        assert!(root < Communicator::size(self), "root out of range");
        sim_reduce(self, root, mat.elems())
    }
    fn barrier(&self) -> Result<(), CommError> {
        ByteComm::barrier(self)
    }
    fn maybe_step_sync(&self) -> Result<(), CommError> {
        ByteComm::maybe_step_sync(self)
    }

    fn compute<R>(&self, pairs: f64, flops: u64, f: impl FnOnce() -> R) -> R {
        ByteComm::compute(self, pairs, flops);
        f()
    }
    fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        ByteComm::trace_step(self, k, outer, inner, f)
    }
}

/// Phantom-payload broadcast of `elems` `f64`s: the runtime's
/// `bcast_f64` walk, with byte counts in place of buffers. Each message
/// carries the current segment's part of the receiving subtree's range.
fn sim_bcast<C: ByteComm>(
    comm: &C,
    algo: BcastAlgorithm,
    root: usize,
    elems: usize,
) -> Result<(), CommError> {
    let (p, me) = (comm.size(), comm.rank());
    let (parent, children) = bcast_edges(algo, p, root, me);
    for (slo, shi) in bcast_segments(algo, elems) {
        if let Some(src) = parent {
            comm.recv_bytes(src, SIM_TAG_BCAST)?;
        }
        for dst in children.clone() {
            let (lo, hi) = bcast_range(algo, p, root, dst, elems);
            comm.send_bytes(dst, SIM_TAG_BCAST, mat_bytes(1, hi.min(shi) - lo.max(slo)))?;
        }
    }
    for (next, (lo, hi), prev, _) in allgather_rounds(algo, p, root, me, elems) {
        comm.send_bytes(next, SIM_TAG_ALLGATHER, mat_bytes(1, hi - lo))?;
        comm.recv_bytes(prev, SIM_TAG_ALLGATHER)?;
    }
    Ok(())
}

/// Phantom binomial-tree sum reduction: the runtime's `reduce_sum_f64`
/// walk (its element-wise adds are uncharged there and so charge nothing
/// here).
fn sim_reduce<C: ByteComm>(comm: &C, root: usize, elems: usize) -> Result<(), CommError> {
    let (children, parent) = reduce_edges(comm.size(), root, comm.rank());
    for src in children {
        comm.recv_bytes(src, SIM_TAG_REDUCE)?;
    }
    if let Some(dst) = parent {
        comm.send_bytes(dst, SIM_TAG_REDUCE, mat_bytes(1, elems))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_netsim::spmd::SimWorld;
    use hsumma_netsim::{Hockney, SimNet, SimReport};

    const ALPHA: f64 = 1e-3;
    const BETA: f64 = 1e-6;

    fn t(bytes: u64) -> f64 {
        ALPHA + bytes as f64 * BETA
    }

    fn run_bcast(p: usize, algo: BcastAlgorithm, root: usize, elems: usize) -> SimReport {
        let net = SimNet::new(p, Hockney::new(ALPHA, BETA));
        let (net, _) = SimWorld::run(net, 0.0, false, |comm| {
            let mut m = PhantomMat {
                rows: 1,
                cols: elems,
            };
            Communicator::bcast_mat(comm, algo, root, &mut m).unwrap();
        });
        net.report()
    }

    #[test]
    fn binomial_matches_closed_form_on_powers_of_two() {
        for p in [2usize, 4, 8, 16, 64] {
            let r = run_bcast(p, BcastAlgorithm::Binomial, 0, 512);
            let want = (p as f64).log2() * t(4096);
            assert!(
                (r.total_time - want).abs() < 1e-12,
                "p={p}: got {}, want {want}",
                r.total_time
            );
        }
    }

    #[test]
    fn flat_costs_p_minus_1_serial_transfers() {
        let r = run_bcast(6, BcastAlgorithm::Flat, 0, 100);
        assert!((r.total_time - 5.0 * t(800)).abs() < 1e-12);
        assert_eq!(r.msgs, 5);
    }

    #[test]
    fn ring_costs_a_chain_of_full_transfers() {
        let r = run_bcast(7, BcastAlgorithm::Ring, 0, 100);
        assert!((r.total_time - 6.0 * t(800)).abs() < 1e-12);
    }

    #[test]
    fn pipelined_matches_pipeline_formula() {
        // (p − 1 + s − 1) stages of (α + m/s·β) when s divides the payload.
        let (p, s, elems) = (4usize, 8usize, 1000usize);
        let r = run_bcast(p, BcastAlgorithm::Pipelined { segments: s }, 0, elems);
        let want = (p - 1 + s - 1) as f64 * t((elems / s * 8) as u64);
        assert!(
            (r.total_time - want).abs() < 1e-12,
            "got {}, want {want}",
            r.total_time
        );
    }

    #[test]
    fn scatter_allgather_matches_van_de_geijn_cost() {
        for p in [2usize, 4, 8, 16] {
            let elems = 2048; // divisible by every p tested
            let r = run_bcast(p, BcastAlgorithm::ScatterAllgather, 0, elems);
            let m = (elems * 8) as f64;
            let pf = p as f64;
            let want = (pf.log2() + pf - 1.0) * ALPHA + 2.0 * (pf - 1.0) / pf * m * BETA;
            assert!(
                (r.total_time - want).abs() < 1e-9,
                "p={p}: got {}, want {want}",
                r.total_time
            );
        }
    }

    #[test]
    fn tree_broadcasts_move_exactly_p_minus_1_payloads() {
        for algo in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
        ] {
            for root in [0usize, 3] {
                let r = run_bcast(5, algo, root, 77);
                assert_eq!(r.bytes, 4 * 77 * 8, "{algo:?} root={root}");
            }
        }
    }

    #[test]
    fn singleton_broadcast_is_free() {
        let r = run_bcast(1, BcastAlgorithm::Binomial, 0, 1 << 16);
        assert_eq!((r.msgs, r.bytes), (0, 0));
        assert_eq!(r.total_time, 0.0);
    }

    #[test]
    fn all_algorithms_deliver_from_any_root() {
        for algo in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
            BcastAlgorithm::Pipelined { segments: 3 },
            BcastAlgorithm::ScatterAllgather,
        ] {
            for p in [2usize, 3, 5, 8] {
                for root in [0, p / 2, p - 1] {
                    // Completion (no deadlock, no leftover messages) is the
                    // assertion; SimWorld::run panics otherwise.
                    let r = run_bcast(p, algo, root, 96);
                    assert!(r.msgs > 0, "{algo:?} p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_moves_p_minus_1_payloads_to_root() {
        let net = SimNet::new(6, Hockney::new(ALPHA, BETA));
        let (net, _) = SimWorld::run(net, 0.0, false, |comm| {
            let mut m = PhantomMat { rows: 4, cols: 8 };
            Communicator::reduce_sum_mat(comm, 2, &mut m).unwrap();
        });
        assert_eq!(net.report().bytes, 5 * 32 * 8);
    }

    #[test]
    fn phantom_ops_enforce_shapes() {
        let a = PhantomMat { rows: 4, cols: 6 };
        let b = PhantomMat { rows: 6, cols: 3 };
        let mut c = PhantomMat { rows: 4, cols: 3 };
        PhantomMat::gemm(GemmKernel::Naive, &a, &b, &mut c);
        let (q, r) = PhantomMat { rows: 9, cols: 4 }.qr_thin();
        assert_eq!((q.rows, q.cols, r.rows, r.cols), (9, 4, 4, 4));
        let blk = a.block(1, 2, 3, 4);
        assert_eq!((blk.rows, blk.cols), (3, 4));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn phantom_gemm_rejects_mismatched_shapes() {
        let a = PhantomMat { rows: 4, cols: 6 };
        let b = PhantomMat { rows: 5, cols: 3 };
        let mut c = PhantomMat { rows: 4, cols: 3 };
        PhantomMat::gemm(GemmKernel::Naive, &a, &b, &mut c);
    }

    #[test]
    fn recorded_collectives_replay_bit_identical_to_threaded() {
        use hsumma_netsim::{record, EventLoopSim, SimRunOptions};
        for algo in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
            BcastAlgorithm::Pipelined { segments: 3 },
            BcastAlgorithm::ScatterAllgather,
        ] {
            for (p, root) in [(3usize, 1usize), (5, 2), (8, 0)] {
                let threaded = run_bcast(p, algo, root, 96);
                let prog = record(p, false, |comm| {
                    let mut m = PhantomMat { rows: 1, cols: 96 };
                    Communicator::bcast_mat(comm, algo, root, &mut m)
                });
                let net = SimNet::new(p, Hockney::new(ALPHA, BETA));
                let out = EventLoopSim::new(net, 0.0).run(&prog, &SimRunOptions::unbounded());
                let (_, report) = out.expect_clean();
                assert_eq!(report, threaded, "{algo:?} p={p} root={root}");
            }
        }
    }

    #[test]
    fn recorded_reduce_replays_bit_identical_to_threaded() {
        use hsumma_netsim::{record, EventLoopSim, SimRunOptions};
        let net = SimNet::new(6, Hockney::new(ALPHA, BETA));
        let (net, _) = SimWorld::run(net, 0.0, false, |comm| {
            let mut m = PhantomMat { rows: 4, cols: 8 };
            Communicator::reduce_sum_mat(comm, 2, &mut m).unwrap();
        });
        let prog = record(6, false, |comm| {
            let mut m = PhantomMat { rows: 4, cols: 8 };
            Communicator::reduce_sum_mat(comm, 2, &mut m)
        });
        let rnet = SimNet::new(6, Hockney::new(ALPHA, BETA));
        let out = EventLoopSim::new(rnet, 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, net.report());
    }

    #[test]
    fn real_and_simulated_splits_agree_on_ordering() {
        // Same (color, key) function on both substrates must produce the
        // same communicator membership — the algorithms depend on it.
        use hsumma_runtime::Runtime;
        let program = |rank: usize| -> (u64, i64) { ((rank % 2) as u64, -(rank as i64)) };
        let real = Runtime::run(4, |comm| {
            let sub = Communicator::split(comm, program);
            (Communicator::rank(&sub), Communicator::size(&sub))
        });
        let net = SimNet::new(4, Hockney::new(ALPHA, BETA));
        let (_, sim) = SimWorld::run(net, 0.0, false, |comm| {
            let sub = Communicator::split(comm, program);
            (Communicator::rank(&sub), Communicator::size(&sub))
        });
        assert_eq!(real, sim);
    }
}
