//! The sparse payload contract over both substrates.
//!
//! [`SparseComm`] extends the dense [`Communicator`] with a sparse panel
//! type and the local kernels the 2-D sparse schedules need. Exactly as
//! with dense payloads, the same generic algorithm runs on:
//!
//! * the threaded runtime's [`Comm`] — `Sp = Arc<CsrMatrix>`: real CSR
//!   buffers, relays share the `Arc` without deep copies, and the
//!   [`WirePayload`] hook prices every send at its true (nnz-dependent)
//!   serialized size;
//! * the simulator's [`SimComm`] — `Sp =` [`PhantomSparse`]: byte counts
//!   on the wire, with `nnz` recovered exactly from the invertible CSR
//!   wire format, so the Hockney charge `α + β·bytes` sees the same
//!   non-uniform message sizes the real substrate ships.
//!
//! [`bcast_sp`] is the one sparse collective: the binomial tree the
//! dense collectives use, walked once over
//! `send_sp`/`recv_sp`, so per-rank `(src, dst, bytes)` multisets agree
//! across substrates by construction. Its messages travel under
//! *user-level* tags (the step index), which keeps them fault-eligible:
//! a `FaultPlan` can drop an in-flight sparse panel broadcast on either
//! substrate and hit the same message.

use crate::phantom::PhantomSparse;
use hsumma_core::Communicator;
use hsumma_matrix::sparse::{CsrMatrix, SpGemmAcc};
use hsumma_matrix::Matrix;
use hsumma_netsim::spmd::SimComm;
use hsumma_runtime::{Comm, CommError};
use hsumma_trace::{bcast_edges, BcastAlgorithm, WirePayload};
use std::sync::Arc;

/// The sparse-panel payload: enough structure to slice pivot panels out
/// of a local tile and to account wire bytes.
pub trait SparseLike: Clone + Send + WirePayload + 'static {
    /// Builds the substrate's tile payload from a real CSR tile.
    fn from_csr(csr: &CsrMatrix) -> Self;
    /// Row count.
    fn rows(&self) -> usize;
    /// Column count.
    fn cols(&self) -> usize;
    /// Stored-entry count.
    fn nnz(&self) -> usize;
    /// The `h × w` panel at `(r0, c0)` (pivot owners slicing their own
    /// tile — always locally held).
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self;
}

impl SparseLike for Arc<CsrMatrix> {
    fn from_csr(csr: &CsrMatrix) -> Self {
        Arc::new(csr.clone())
    }
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        Arc::new(CsrMatrix::block(self, r0, c0, h, w))
    }
}

impl SparseLike for PhantomSparse {
    fn from_csr(csr: &CsrMatrix) -> Self {
        PhantomSparse::from_csr(csr)
    }
    fn rows(&self) -> usize {
        PhantomSparse::rows(self)
    }
    fn cols(&self) -> usize {
        PhantomSparse::cols(self)
    }
    fn nnz(&self) -> usize {
        PhantomSparse::nnz(self)
    }
    fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        PhantomSparse::block(self, r0, c0, h, w)
    }
}

/// A communicator that can move sparse panels and run (or model) the
/// local sparse kernels. The accumulator associated types let the real
/// substrate carry numerics across pivot steps while the simulator
/// carries only structural estimates.
pub trait SparseComm: Communicator {
    /// The sparse panel payload this substrate moves.
    type Sp: SparseLike;
    /// Cross-step accumulator for `C += A_panel · B_panel`.
    type SpGemmAcc;
    /// Cross-step accumulator for the sampled dense dot products.
    type SddmmAcc;

    /// Sends a sparse panel to `dst` (cheap on the real substrate:
    /// relays share the buffer).
    fn send_sp(&self, dst: usize, tag: u64, sp: &Self::Sp) -> Result<(), CommError>;
    /// Receives a `rows × cols` sparse panel from `src`. The shape is
    /// globally known from the schedule; the nonzero count is the
    /// payload's own business (read from the buffer on the real
    /// substrate, inverted from the wire bytes on the simulator).
    fn recv_sp(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Self::Sp, CommError>;

    /// A zeroed `rows × cols` SpGEMM accumulator.
    fn spgemm_acc(rows: usize, cols: usize) -> Self::SpGemmAcc;
    /// Multiply-add pairs of `a · b` — exact where the patterns are
    /// known, an expected-value estimate where a panel arrived over the
    /// simulated wire without one (a documented modeling choice that
    /// never touches the wire, so byte parity is unaffected).
    fn spgemm_pairs(a: &Self::Sp, b: &Self::Sp) -> f64;
    /// `acc += a · b`.
    fn spgemm_step(acc: &mut Self::SpGemmAcc, a: &Self::Sp, b: &Self::Sp);
    /// The accumulated product as this substrate's sparse payload.
    fn spgemm_finalize(acc: Self::SpGemmAcc) -> Self::Sp;

    /// A zeroed SDDMM accumulator for the pattern of `s`.
    fn sddmm_acc(s: &Self::Sp) -> Self::SddmmAcc;
    /// Accumulates the sampled dot products of this pivot step:
    /// `acc[(i,j) ∈ pattern(s)] += Σ_k a_panel[i,k] · b_panel[k,j]`.
    fn sddmm_step(acc: &mut Self::SddmmAcc, s: &Self::Sp, a_panel: &Self::Mat, b_panel: &Self::Mat);
    /// `C = S ⊙ acc`: scales the accumulated dots by `S`'s values,
    /// keeping `S`'s pattern verbatim.
    fn sddmm_finalize(s: &Self::Sp, acc: Self::SddmmAcc) -> Self::Sp;
}

// ---------------------------------------------------------------------------
// Real substrate: CSR buffers between rank threads.
// ---------------------------------------------------------------------------

impl SparseComm for Comm {
    type Sp = Arc<CsrMatrix>;
    type SpGemmAcc = SpGemmAcc;
    type SddmmAcc = Vec<f64>;

    fn send_sp(&self, dst: usize, tag: u64, sp: &Arc<CsrMatrix>) -> Result<(), CommError> {
        // The WirePayload hook on CsrMatrix (through the Arc blanket
        // impl) prices this send at its serialized nnz-dependent size.
        self.send(dst, tag, Arc::clone(sp))
    }
    fn recv_sp(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Arc<CsrMatrix>, CommError> {
        let sp = self.recv::<Arc<CsrMatrix>>(src, tag)?;
        debug_assert_eq!((sp.rows(), sp.cols()), (rows, cols), "panel shape mismatch");
        Ok(sp)
    }

    fn spgemm_acc(rows: usize, cols: usize) -> SpGemmAcc {
        SpGemmAcc::new(rows, cols)
    }
    fn spgemm_pairs(a: &Arc<CsrMatrix>, b: &Arc<CsrMatrix>) -> f64 {
        hsumma_matrix::sparse::spgemm_pairs(a, b) as f64
    }
    fn spgemm_step(acc: &mut SpGemmAcc, a: &Arc<CsrMatrix>, b: &Arc<CsrMatrix>) {
        acc.accumulate(a, b);
    }
    fn spgemm_finalize(acc: SpGemmAcc) -> Arc<CsrMatrix> {
        Arc::new(acc.finalize())
    }

    fn sddmm_acc(s: &Arc<CsrMatrix>) -> Vec<f64> {
        vec![0.0; s.nnz()]
    }
    fn sddmm_step(acc: &mut Vec<f64>, s: &Arc<CsrMatrix>, a_panel: &Matrix, b_panel: &Matrix) {
        let d = a_panel.cols();
        assert_eq!(d, b_panel.rows(), "inner dimensions must agree");
        let row_ptr = s.row_ptr();
        for i in 0..s.rows() {
            let (cols_i, _) = s.row(i);
            for (t, &j) in cols_i.iter().enumerate() {
                let mut dot = 0.0;
                for k in 0..d {
                    dot += a_panel.get(i, k) * b_panel.get(k, j as usize);
                }
                acc[row_ptr[i] + t] += dot;
            }
        }
    }
    fn sddmm_finalize(s: &Arc<CsrMatrix>, acc: Vec<f64>) -> Arc<CsrMatrix> {
        let values = s
            .values()
            .iter()
            .zip(&acc)
            .map(|(sv, dot)| sv * dot)
            .collect();
        Arc::new(s.with_values(values))
    }
}

// ---------------------------------------------------------------------------
// Simulated substrate: byte counts over virtual clocks.
// ---------------------------------------------------------------------------

/// The simulator's SpGEMM accumulator: a structural estimate of the
/// output tile. `est_nnz` accumulates the step pair counts capped at the
/// dense tile size — an upper-bound fill model, adequate for trace
/// inspection (the estimate never travels, so it cannot perturb the
/// byte-multiset parity with the real substrate).
#[derive(Clone, Copy, Debug)]
pub struct PhantomSpGemmAcc {
    rows: usize,
    cols: usize,
    est_nnz: f64,
}

impl SparseComm for SimComm<'_> {
    type Sp = PhantomSparse;
    type SpGemmAcc = PhantomSpGemmAcc;
    type SddmmAcc = ();

    fn send_sp(&self, dst: usize, tag: u64, sp: &PhantomSparse) -> Result<(), CommError> {
        self.send_bytes(dst, tag, sp.payload_bytes())
    }
    fn recv_sp(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<PhantomSparse, CommError> {
        let bytes = self.recv_bytes(src, tag)?;
        Ok(PhantomSparse::from_wire(rows, cols, bytes))
    }

    fn spgemm_acc(rows: usize, cols: usize) -> PhantomSpGemmAcc {
        PhantomSpGemmAcc {
            rows,
            cols,
            est_nnz: 0.0,
        }
    }
    fn spgemm_pairs(a: &PhantomSparse, b: &PhantomSparse) -> f64 {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        match (a.pattern(), b.pattern()) {
            // Both patterns locally known (e.g. a 1×1 grid, or a rank
            // that owns both pivots this step): count exactly.
            (Some(pa), Some(pb)) => (0..a.rows())
                .flat_map(|i| pa.row(i))
                .map(|&k| pb.row_nnz(k as usize) as f64)
                .sum(),
            // A panel that arrived over the byte-only wire has no
            // pattern: charge the expected pairs of uniformly-scattered
            // nonzeros, nnz(A)·nnz(B)/rows(B).
            _ => a.nnz() as f64 * b.nnz() as f64 / b.rows().max(1) as f64,
        }
    }
    fn spgemm_step(acc: &mut PhantomSpGemmAcc, a: &PhantomSparse, b: &PhantomSparse) {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        assert_eq!(
            (a.rows(), b.cols()),
            (acc.rows, acc.cols),
            "output shape mismatch"
        );
        let dense = (acc.rows * acc.cols) as f64;
        acc.est_nnz = (acc.est_nnz + Self::spgemm_pairs(a, b)).min(dense);
    }
    fn spgemm_finalize(acc: PhantomSpGemmAcc) -> PhantomSparse {
        PhantomSparse::with_nnz(acc.rows, acc.cols, acc.est_nnz.round() as usize)
    }

    fn sddmm_acc(_s: &PhantomSparse) {}
    fn sddmm_step(_acc: &mut (), s: &PhantomSparse, a_panel: &Self::Mat, b_panel: &Self::Mat) {
        assert_eq!(a_panel.rows, s.rows(), "A panel row count must match S");
        assert_eq!(b_panel.cols, s.cols(), "B panel column count must match S");
        assert_eq!(a_panel.cols, b_panel.rows, "inner dimensions must agree");
    }
    fn sddmm_finalize(s: &PhantomSparse, _acc: ()) -> PhantomSparse {
        // SDDMM's output pattern is S's pattern — exact on this
        // substrate, since S never travels.
        s.clone()
    }
}

/// Broadcasts a sparse panel of globally-known shape from `root` down
/// the binomial tree of [`BcastAlgorithm::Binomial`] (the same tree the
/// dense collectives walk), written once over
/// [`SparseComm::send_sp`]/[`SparseComm::recv_sp`] — the per-rank message
/// multiset is substrate-identical by construction.
///
/// The root passes `Some(panel)`, everyone else `None` and receives.
/// Relays forward the payload they received: the real substrate shares
/// the `Arc`, the simulator re-sends the exact byte count (the wire
/// format is invertible, so no information is lost at a hop).
///
/// `tag` must be a user-level tag (the schedules pass the step index),
/// keeping sparse panel traffic in the fault-eligible `App` tag class.
pub fn bcast_sp<C: SparseComm>(
    comm: &C,
    root: usize,
    tag: u64,
    rows: usize,
    cols: usize,
    panel: Option<C::Sp>,
) -> Result<C::Sp, CommError> {
    let (parent, children) = bcast_edges(BcastAlgorithm::Binomial, comm.size(), root, comm.rank());
    let panel = match parent {
        None => panel.expect("the broadcast root must supply the panel"),
        Some(parent) => {
            assert!(panel.is_none(), "only the broadcast root supplies a panel");
            comm.recv_sp(parent, tag, rows, cols)?
        }
    };
    for child in children {
        comm.send_sp(child, tag, &panel)?;
    }
    Ok(panel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_matrix::sparse::seeded_sparse;
    use hsumma_netsim::spmd::SimWorld;
    use hsumma_netsim::{Platform, SimNet};
    use hsumma_runtime::Runtime;

    #[test]
    fn sparse_bcast_delivers_the_panel_to_every_rank() {
        let csr = seeded_sparse(8, 8, 0.3, 41);
        let root_panel = Arc::new(csr.clone());
        for root in [0usize, 2] {
            let got = Runtime::run(5, |comm| {
                let mine = (Comm::rank(comm) == root).then(|| Arc::clone(&root_panel));
                bcast_sp(comm, root, 7, 8, 8, mine).unwrap()
            });
            for (r, panel) in got.iter().enumerate() {
                assert_eq!(**panel, csr, "rank {r} (root {root})");
            }
        }
    }

    #[test]
    fn sim_bcast_moves_nnz_dependent_bytes_down_the_same_tree() {
        // p − 1 receivers, each paying exactly the panel's wire bytes —
        // and a denser panel of the same shape costs strictly more.
        let plat = Platform::grid5000();
        let mut totals = Vec::new();
        for density in [0.1, 0.6] {
            let csr = seeded_sparse(8, 8, density, 42);
            let panel = PhantomSparse::from_csr(&csr);
            let want = panel.payload_bytes();
            let (net, _) = SimWorld::run(SimNet::new(8, plat.net), plat.gamma, false, |comm| {
                let mine = (comm.rank() == 0).then(|| panel.clone());
                bcast_sp(comm, 0, 3, 8, 8, mine).unwrap()
            });
            let report = net.report();
            assert_eq!(report.msgs, 7);
            assert_eq!(report.bytes, 7 * want);
            totals.push(report.bytes);
        }
        assert!(
            totals[1] > totals[0],
            "equal shapes, different nnz must ship different wire bytes"
        );
    }

    #[test]
    fn relayed_phantom_panels_preserve_exact_nnz() {
        // Rank 3 in an 8-rank binomial tree receives via a relay (0 → 2
        // → 3 in virtual ranks): nnz must survive both hops exactly.
        let plat = Platform::grid5000();
        let csr = seeded_sparse(6, 6, 0.4, 43);
        let panel = PhantomSparse::from_csr(&csr);
        let want = csr.nnz();
        let (_, got) = SimWorld::run(SimNet::new(8, plat.net), plat.gamma, false, |comm| {
            let mine = (comm.rank() == 0).then(|| panel.clone());
            bcast_sp(comm, 0, 1, 6, 6, mine).unwrap().nnz()
        });
        assert!(got.iter().all(|&n| n == want), "nnz drifted: {got:?}");
    }

    #[test]
    fn pattern_pairs_agree_with_real_count_when_known() {
        let a = seeded_sparse(6, 8, 0.4, 44);
        let b = seeded_sparse(8, 5, 0.3, 45);
        let exact = hsumma_matrix::sparse::spgemm_pairs(&a, &b) as f64;
        let pa = PhantomSparse::from_csr(&a);
        let pb = PhantomSparse::from_csr(&b);
        assert_eq!(<SimComm<'_> as SparseComm>::spgemm_pairs(&pa, &pb), exact);
    }
}
