//! Distributed sparse subsystem: CSR payloads on both substrates and
//! 2-D SpGEMM/SDDMM written once over the [`Communicator`] trait.
//!
//! The dense stack's organizing identity — *one schedule, two
//! substrates* — extends to sparse workloads here:
//!
//! * [`SparseComm`] adds a sparse panel payload to a communicator. On
//!   the threaded runtime the payload is `Arc<CsrMatrix>` (real
//!   buffers, relays share the `Arc`); on the simulator it is
//!   [`PhantomSparse`] — shape + exact `nnz`, reconstructed from the
//!   wire byte count via the invertible CSR wire format. Either way the
//!   `WirePayload` hook prices every message at its true nnz-dependent
//!   serialized size, so the Hockney model finally sees *non-uniform*
//!   per-message sizes.
//! * [`spgemm_2d`] and [`sddmm_2d`] are SUMMA-shaped schedules generic
//!   over [`SparseComm`]: identical split colors, pivot arithmetic and
//!   step structure as the dense `summa()`, so per-rank
//!   `(src, dst, bytes)` send multisets agree between substrates, and
//!   fault injection / deadlines / tracing work on sparse jobs
//!   unchanged.
//! * [`scatter_csr`]/[`gather_csr`] deal CSR operands over the grid and
//!   reassemble the product, at any extents.
//!
//! [`Communicator`]: hsumma_core::Communicator

pub mod algo;
pub mod comm;
pub mod distribute;
pub mod phantom;

pub use algo::{sddmm_2d, spgemm_2d, SparseConfig};
pub use comm::{bcast_sp, PhantomSpGemmAcc, SparseComm, SparseLike};
pub use distribute::{gather_csr, scatter_csr};
pub use phantom::{PhantomSparse, SparsePattern};
