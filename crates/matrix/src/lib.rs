//! Dense matrices, 2-D block distributions and local GEMM kernels.
//!
//! This crate is the numerical substrate of the HSUMMA reproduction. It
//! provides:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with block (panel)
//!   extraction and accumulation, the unit of data the distributed
//!   algorithms move around;
//! * [`mod@gemm`] — local matrix-multiply kernels (`C += A·B`): a naive
//!   reference, cache-blocked and thread-parallel baselines, and the
//!   default BLIS-style packed kernel (`MC/KC/NC` cache blocking over a
//!   register-blocked `MR×NR` microkernel) that stands in for the vendor
//!   DGEMM (ESSL / MKL) used in the paper;
//! * [`distribute`] — the two-dimensional block-checkerboard distribution
//!   used by SUMMA/HSUMMA, plus a block-cyclic distribution (the paper's
//!   future-work extension), with scatter/gather between a global matrix
//!   and per-rank local tiles;
//! * [`mod@sparse`] — [`sparse::CsrMatrix`] with serial SpGEMM/SDDMM
//!   reference kernels and the invertible CSR wire format the
//!   distributed sparse subsystem (`hsumma-sparse`) prices messages
//!   with (see `docs/sparse.md`).
//!
//! The crate has no knowledge of processes or networks; it is pure local
//! computation and layout.

pub mod dense;
pub mod distribute;
pub mod factor;
pub mod gemm;
pub mod generate;
pub mod ops;
pub mod sparse;
pub mod view;

pub use dense::Matrix;
pub use distribute::{BlockCyclicDist, BlockDist, BlockRange, GridShape};
pub use gemm::{gemm, gemm_scaled, GemmKernel};
pub use generate::{deterministic, random_uniform, seeded_uniform};
pub use sparse::{
    csr_nnz_from_wire, csr_wire_bytes, sddmm, seeded_sparse, spgemm, spgemm_pairs, CsrMatrix,
    SpGemmAcc,
};
pub use view::{gemm_view, MatrixView};
