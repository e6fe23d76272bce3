//! The pivot engine: the one loop every member of the SUMMA family runs.
//!
//! SUMMA, HSUMMA, their rectangular forms, block-cyclic SUMMA, the
//! per-layer partial products of 2.5D and the double-buffered pipelines
//! all walk the shared dimension `L` in pivot panels, broadcast each
//! panel of `A` along grid rows and of `B` along grid columns, and
//! accumulate `C += A_panel · B_panel`. They differ in four decisions,
//! which a [`Spec`] names once:
//!
//! * **hierarchy** — `groups: None` is SUMMA: one broadcast level over
//!   the row/column communicators. `Some(I × J)` is HSUMMA (§III): each
//!   outer panel of width `B` first crosses the groups, then is
//!   re-broadcast inside them in slices of width `b ≤ B`. The paper's
//!   theorem that HSUMMA *is* SUMMA at `G = 1` and `G = p` is the
//!   statement that one of the two levels then runs on singleton
//!   communicators and sends nothing;
//! * **extents** — general `(M, L, N)` ([`MatMulDims`]), as Algorithm 1
//!   is stated;
//! * **layout** — which grid row/column owns pivot step `k`
//!   ([`Layout`]);
//! * **when ranks block** — [`blocking`] completes each broadcast
//!   before the multiply; [`pipelined`] keeps a two-slot buffer per
//!   level and defers every wait to the moment the kernel needs the
//!   panel. Both accumulate in the same order, so their products are
//!   bit-identical.

use crate::comm::{Communicator, MatLike, PanelBcast};
use crate::grid::HierGrid;
use crate::hsumma::HsummaConfig;
use crate::partition::{pivot_offset, pivot_owner, MatMulDims};
use crate::summa::SummaConfig;
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// How operand tiles map to the global matrices, i.e. who owns pivot
/// step `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Block-checkerboard: the owner is the tile containing global index
    /// `k·B`, so it changes every `extent / B` steps.
    Block,
    /// Block-cyclic with dealing block `B` (the ScaLAPACK convention):
    /// panel `k` lives on grid line `k mod parts`, local block
    /// `k div parts` — the broadcast roots rotate every step.
    Cyclic,
}

/// Everything that distinguishes one SUMMA-family schedule from another.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spec {
    pub grid: GridShape,
    pub dims: MatMulDims,
    /// `None`: one broadcast level (SUMMA). `Some(I × J)`: two (HSUMMA).
    pub groups: Option<GridShape>,
    /// Outer panel width `B` (equal to `inner_block` without a hierarchy).
    pub outer_block: usize,
    /// Inner panel width `b`, the width of every local multiply.
    pub inner_block: usize,
    pub outer_bcast: BcastAlgorithm,
    pub inner_bcast: BcastAlgorithm,
    pub kernel: GemmKernel,
    pub layout: Layout,
}

/// Local tile shapes `(rows, cols)` of `A` and of `B`; `C`'s tile takes
/// `A`'s rows and `B`'s columns.
pub(crate) type Tiles = ((usize, usize), (usize, usize));

impl Spec {
    /// SUMMA: no hierarchy, one block size, one broadcast algorithm.
    pub fn summa(grid: GridShape, dims: MatMulDims, cfg: &SummaConfig, layout: Layout) -> Self {
        Spec {
            grid,
            dims,
            groups: None,
            outer_block: cfg.block,
            inner_block: cfg.block,
            outer_bcast: cfg.bcast,
            inner_bcast: cfg.bcast,
            kernel: cfg.kernel,
            layout,
        }
    }

    /// HSUMMA over the block-checkerboard layout. `groups = 1×1` still
    /// takes the two-level path, whose outer level is then singleton
    /// communicators that send nothing.
    pub fn hsumma(grid: GridShape, dims: MatMulDims, cfg: &HsummaConfig) -> Self {
        Spec {
            grid,
            dims,
            groups: Some(cfg.groups),
            outer_block: cfg.outer_block,
            inner_block: cfg.inner_block,
            outer_bcast: cfg.outer_bcast,
            inner_bcast: cfg.inner_bcast,
            kernel: cfg.kernel,
            layout: Layout::Block,
        }
    }

    /// Checks the configuration against the grid and extents and returns
    /// the local tile shapes. The engine panics with the returned
    /// message; callers holding outside input (the CLI) call this first.
    pub fn validate(&self) -> Result<Tiles, String> {
        let MatMulDims { m, l, n } = self.dims;
        let (s, t) = (self.grid.rows, self.grid.cols);
        let (bb, bs) = (self.outer_block, self.inner_block);
        if bb == 0 || bs == 0 {
            return Err("block sizes must be positive".into());
        }
        // A cyclic layout deals whole blocks, so blocks (not elements)
        // must spread evenly over the grid.
        let (unit, per) = match self.layout {
            Layout::Block => (1, ""),
            Layout::Cyclic => (bb, " in whole blocks"),
        };
        for (name, extent, parts, line) in [
            ("M", m, s, "rows"),
            ("L", l, t, "cols"),
            ("L", l, s, "rows"),
            ("N", n, t, "cols"),
        ] {
            if extent % (unit * parts) != 0 {
                return Err(format!("{name} must be divisible by grid {line}{per}"));
            }
        }
        if let Some(g) = self.groups {
            if s % g.rows != 0 || t % g.cols != 0 {
                return Err(format!(
                    "groups {}x{} must divide the {s}x{t} grid",
                    g.rows, g.cols
                ));
            }
        }
        if bb % bs != 0 {
            return Err("inner block must divide outer block".into());
        }
        let (aw, bh) = (l / t, l / s);
        let which = if self.groups.is_some() {
            "outer block"
        } else {
            "block"
        };
        if !aw.is_multiple_of(bb) {
            return Err(format!(
                "{which} must divide A's tile width (L/t = {aw}), got {bb}"
            ));
        }
        if !bh.is_multiple_of(bb) {
            return Err(format!(
                "{which} must divide B's tile height (L/s = {bh}), got {bb}"
            ));
        }
        Ok(((m / s, aw), (bh, n / t)))
    }
}

/// One rank's view of a validated [`Spec`]: tile shapes, coordinates and
/// the communicators of Algorithm 1.
struct Geometry<C> {
    a_tile: (usize, usize),
    b_tile: (usize, usize),
    /// Grid coordinates of this rank.
    gi: usize,
    gj: usize,
    /// Coordinates inside its group (the grid's without a hierarchy).
    i: usize,
    j: usize,
    /// The grid inside one group (the whole grid without a hierarchy).
    inner: GridShape,
    /// `P(x,·)(i,j)` and `P(·,y)(i,j)`: the inter-group communicators.
    outer: Option<(C, C)>,
    /// `P(x,y)(i,·)`: A's (inner) broadcasts run here.
    row: C,
    /// `P(x,y)(·,j)`: B's (inner) broadcasts run here.
    col: C,
}

/// Where one outer pivot panel lives along a grid dimension.
#[derive(Clone, Copy)]
struct PivotAt {
    /// Grid row/column owning the panel.
    owner: usize,
    /// Offset of the panel within the owner's tile.
    offset: usize,
    /// The owner's group index: root of the inter-group broadcast.
    group: usize,
    /// The owner's index inside its group: root of the inner broadcasts,
    /// and the inner line that takes part in the outer phase.
    inner: usize,
}

impl<C: Communicator> Geometry<C> {
    /// Validates `spec` against the communicator and the tiles, then
    /// builds the 2 (SUMMA) or 4 (HSUMMA) communicators.
    ///
    /// # Panics
    /// Panics with [`Spec::validate`]'s message, or if the communicator
    /// or a tile does not match the spec.
    fn new(comm: &C, spec: &Spec, a: &C::Mat, b: &C::Mat) -> Self {
        let (a_tile, b_tile) = spec.validate().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            comm.size(),
            spec.grid.size(),
            "communicator must span the whole grid"
        );
        assert_eq!((a.rows(), a.cols()), a_tile, "A tile has wrong shape");
        assert_eq!((b.rows(), b.cols()), b_tile, "B tile has wrong shape");

        let hg = HierGrid::new(spec.grid, spec.groups.unwrap_or(GridShape::new(1, 1)));
        let (gi, gj) = spec.grid.coords(comm.rank());
        let (i, j) = hg.inner_of(gi, gj);
        let outer = spec.groups.map(|_| hg.outer_comms(comm));
        let (row, col) = hg.inner_comms(comm);
        Geometry {
            a_tile,
            b_tile,
            gi,
            gj,
            i,
            j,
            inner: hg.inner(),
            outer,
            row,
            col,
        }
    }

    /// Outer step `kg`'s panel of `A`, located along the grid columns.
    fn a_at(&self, spec: &Spec, kg: usize) -> PivotAt {
        locate(spec, kg, self.a_tile.1, spec.grid.cols, self.inner.cols)
    }

    /// Outer step `kg`'s panel of `B`, located along the grid rows.
    fn b_at(&self, spec: &Spec, kg: usize) -> PivotAt {
        locate(spec, kg, self.b_tile.0, spec.grid.rows, self.inner.rows)
    }

    /// Locates outer step `kg` and runs its inter-group broadcasts: the
    /// owner cuts its panel once, and the pivot inner column (`A`) /
    /// inner row (`B`) of every group receives that allocation.
    fn outer_step(
        &self,
        spec: &Spec,
        kg: usize,
        a: &C::Mat,
        b: &C::Mat,
    ) -> Result<Step<C::Shared>, CommError> {
        let (at, bt) = (self.a_at(spec, kg), self.b_at(spec, kg));
        let (ah, bw, bb) = (self.a_tile.0, self.b_tile.1, spec.outer_block);
        let mut step = Step {
            at,
            bt,
            outer_a: None,
            outer_b: None,
        };
        if let Some((group_row, group_col)) = &self.outer {
            if self.j == at.inner {
                let panel = (self.gj == at.owner).then(|| group_row.cut(a, 0, at.offset, ah, bb));
                let got = group_row.bcast_shared(spec.outer_bcast, at.group, ah, bb, panel)?;
                step.outer_a = Some(got);
            }
            if self.i == bt.inner {
                let panel = (self.gi == bt.owner).then(|| group_col.cut(b, bt.offset, 0, bb, bw));
                let got = group_col.bcast_shared(spec.outer_bcast, bt.group, bb, bw, panel)?;
                step.outer_b = Some(got);
            }
        }
        Ok(step)
    }

    /// Broadcasts slice `ki` of `step` along the inner row (`A`) and
    /// column (`B`). Each inner root forwards its outer panel whole when
    /// `B == b`, and otherwise cuts the slice from it — or, without a
    /// hierarchy, from its own tile.
    fn slices(
        &self,
        spec: &Spec,
        step: &Step<C::Shared>,
        ki: usize,
        a: &C::Mat,
        b: &C::Mat,
    ) -> Result<(C::Shared, C::Shared), CommError> {
        let (ah, bw, bs) = (self.a_tile.0, self.b_tile.1, spec.inner_block);
        let whole = spec.outer_block == bs;
        let (at, bt) = (step.at, step.bt);
        let a_panel = (self.j == at.inner).then(|| match &step.outer_a {
            Some(p) if whole => p.clone(),
            Some(p) => self.row.cut(C::shared_ref(p), 0, ki * bs, ah, bs),
            None => self.row.cut(a, 0, at.offset + ki * bs, ah, bs),
        });
        let a_in = self
            .row
            .bcast_shared(spec.inner_bcast, at.inner, ah, bs, a_panel)?;
        let b_panel = (self.i == bt.inner).then(|| match &step.outer_b {
            Some(p) if whole => p.clone(),
            Some(p) => self.col.cut(C::shared_ref(p), ki * bs, 0, bs, bw),
            None => self.col.cut(b, bt.offset + ki * bs, 0, bs, bw),
        });
        let b_in = self
            .col
            .bcast_shared(spec.inner_bcast, bt.inner, bs, bw, b_panel)?;
        Ok((a_in, b_in))
    }
}

/// One outer pivot step as a rank sees it: where the step's panels
/// live, and the outer panels the rank holds after the inter-group
/// broadcasts (on the pivot inner column for `A` and inner row for `B`;
/// `None` elsewhere, and always without a hierarchy).
struct Step<S> {
    at: PivotAt,
    bt: PivotAt,
    outer_a: Option<S>,
    outer_b: Option<S>,
}

fn locate(spec: &Spec, kg: usize, extent: usize, parts: usize, inner_parts: usize) -> PivotAt {
    let bb = spec.outer_block;
    let (owner, offset) = match spec.layout {
        Layout::Block => (pivot_owner(kg, bb, extent), pivot_offset(kg, bb, extent)),
        Layout::Cyclic => (kg % parts, kg / parts * bb),
    };
    PivotAt {
        owner,
        offset,
        group: owner / inner_parts,
        inner: owner % inner_parts,
    }
}

/// The blocking pivot loop over the outer steps selected by `take`
/// (2.5D gives each layer a subset; everyone else takes all). SPMD over
/// `comm`; returns the local tile of `C`.
///
/// Every panel moves once: its owner cuts it into a fresh shared matrix
/// and the broadcasts hand that allocation on, so on the threaded
/// runtime every rank multiplies straight from the owner's copy. With
/// `B == b` the inner roots forward the outer panel they received
/// without a second cut.
///
/// # Panics
/// As [`Geometry::new`].
pub(crate) fn blocking<C: Communicator>(
    comm: &C,
    spec: &Spec,
    a: &C::Mat,
    b: &C::Mat,
    take: impl Fn(usize) -> bool,
) -> Result<C::Mat, CommError> {
    let g = Geometry::new(comm, spec, a, b);
    let ((ah, _), (_, bw)) = (g.a_tile, g.b_tile);
    let (bb, bs) = (spec.outer_block, spec.inner_block);

    let mut c = C::Mat::zeros(ah, bw);
    let pairs = ah * bw * bs;
    for kg in (0..spec.dims.l / bb).filter(|&kg| take(kg)) {
        comm.trace_step(kg, bb, bs, || -> Result<(), CommError> {
            let step = g.outer_step(spec, kg, a, b)?;
            for ki in 0..bb / bs {
                let (a_in, b_in) = g.slices(spec, &step, ki, a, b)?;
                comm.compute(pairs as f64, 2 * pairs as u64, || {
                    C::Mat::gemm(
                        spec.kernel,
                        C::shared_ref(&a_in),
                        C::shared_ref(&b_in),
                        &mut c,
                    )
                });
                if g.outer.is_some() {
                    comm.maybe_step_sync()?;
                }
            }
            Ok(())
        })?;
        // SUMMA aligns clocks after its step span closes, HSUMMA after
        // every inner step inside it; recorded programs pin both orders.
        if g.outer.is_none() {
            comm.maybe_step_sync()?;
        }
    }
    Ok(c)
}

/// A slice's pair of in-flight broadcasts (A panel, B panel) filling one
/// pipeline slot.
type BcastPair<C> = (
    PanelBcast<<C as Communicator>::Shared>,
    PanelBcast<<C as Communicator>::Shared>,
);

/// An outer step's in-flight inter-group broadcasts; `None` on ranks
/// outside the pivot inner column/row, which receive slices instead.
type OuterPair<C> = (
    Option<PanelBcast<<C as Communicator>::Shared>>,
    Option<PanelBcast<<C as Communicator>::Shared>>,
);

/// A landed outer step's shared panels.
type LandedPair<C> = (
    Option<<C as Communicator>::Shared>,
    Option<<C as Communicator>::Shared>,
);

/// The two-slot pipelined pivot loop (§VI's "overlapping the
/// communications on the virtual hierarchies"). Same operands, layout
/// and result — bit for bit — as [`blocking`]; the spec's broadcast
/// algorithms are ignored, because every broadcast is a flat nonblocking
/// push ([`Communicator::ibcast_shared`]): a relay would have to block
/// inside the "nonblocking" start.
///
/// Inner slices run one slice ahead; outer (inter-group) panels one
/// outer step ahead, and the inner pipeline crosses outer-step
/// boundaries: during the last slice of step `kg`, outer step `kg+1` is
/// landed and its first slice started, so the multiply never waits on a
/// transfer that could have been overlapped. Without a hierarchy there is
/// no outer phase: every slice is cut from the local tile, nothing is
/// ever polled, and the schedule is timing-independent (recordable).
///
/// # Panics
/// As [`Geometry::new`].
pub(crate) fn pipelined<C: Communicator>(
    comm: &C,
    spec: &Spec,
    a: &C::Mat,
    b: &C::Mat,
) -> Result<C::Mat, CommError> {
    let g = Geometry::new(comm, spec, a, b);
    let ((ah, _), (_, bw)) = (g.a_tile, g.b_tile);
    let (bb, bs) = (spec.outer_block, spec.inner_block);
    let outer_steps = spec.dims.l / bb;
    let inner_steps = bb / bs;

    // Starts outer step kg's inter-group broadcasts on the pivot inner
    // column (A) / inner row (B).
    let start_outer = |kg: usize| -> Result<OuterPair<C>, CommError> {
        let Some((group_row, group_col)) = &g.outer else {
            return Ok((None, None));
        };
        let at = g.a_at(spec, kg);
        let a_h = if g.j == at.inner {
            let panel = (g.gj == at.owner).then(|| group_row.cut(a, 0, at.offset, ah, bb));
            Some(group_row.ibcast_shared(at.group, 2 * kg as u64, ah, bb, panel)?)
        } else {
            None
        };
        let bt = g.b_at(spec, kg);
        let b_h = if g.i == bt.inner {
            let panel = (g.gi == bt.owner).then(|| group_col.cut(b, bt.offset, 0, bb, bw));
            Some(group_col.ibcast_shared(bt.group, 2 * kg as u64 + 1, bb, bw, panel)?)
        } else {
            None
        };
        Ok((a_h, b_h))
    };

    // Polls a started outer step: free — no clock advance, no park.
    let has_landed = |pair: &mut OuterPair<C>| -> Result<bool, CommError> {
        let Some((group_row, group_col)) = &g.outer else {
            return Ok(true);
        };
        let a_done = match pair.0.as_mut() {
            Some(h) => group_row.ibcast_test(h)?,
            None => true,
        };
        let b_done = match pair.1.as_mut() {
            Some(h) => group_col.ibcast_test(h)?,
            None => true,
        };
        Ok(a_done && b_done)
    };

    // Completes a started outer step, blocking until its panels arrive.
    let land = |(a_h, b_h): OuterPair<C>| -> Result<LandedPair<C>, CommError> {
        let Some((group_row, group_col)) = &g.outer else {
            return Ok((None, None));
        };
        Ok((
            a_h.map(|h| group_row.ibcast_wait(h)).transpose()?,
            b_h.map(|h| group_col.ibcast_wait(h)).transpose()?,
        ))
    };

    // Starts the broadcasts of slice ki of outer step kg: the holder of
    // the outer panel (exactly the inner root) slices it and fans the
    // slice out. Inner tags sit 2³² above the outer steps' `2k`, `2k+1`.
    let start_inner = |kg: usize,
                       ki: usize,
                       (outer_a, outer_b): &LandedPair<C>|
     -> Result<BcastPair<C>, CommError> {
        let two_level = g.outer.is_some();
        let tag = 2 * (kg * inner_steps + ki) as u64 + if two_level { 1 << 32 } else { 0 };
        let at = g.a_at(spec, kg);
        let a_slice = if two_level {
            outer_a
                .as_ref()
                .map(|p| g.row.cut(C::shared_ref(p), 0, ki * bs, ah, bs))
        } else {
            (g.gj == at.owner).then(|| g.row.cut(a, 0, at.offset + ki * bs, ah, bs))
        };
        let a_h = g.row.ibcast_shared(at.inner, tag, ah, bs, a_slice)?;
        let bt = g.b_at(spec, kg);
        let b_slice = if two_level {
            outer_b
                .as_ref()
                .map(|p| g.col.cut(C::shared_ref(p), ki * bs, 0, bs, bw))
        } else {
            (g.gi == bt.owner).then(|| g.col.cut(b, bt.offset + ki * bs, 0, bs, bw))
        };
        let b_h = g.col.ibcast_shared(bt.inner, tag + 1, bs, bw, b_slice)?;
        Ok((a_h, b_h))
    };

    let mut c = C::Mat::zeros(ah, bw);
    let pairs = ah * bw * bs;
    if outer_steps == 0 {
        return Ok(c);
    }

    // Two-slot buffers at both levels. `outer_p[s]` holds the *landed*
    // panels of the outer step occupying slot s (shared handles, so
    // consecutive pivot ownership reuses the storage safely: a fresh
    // panel always lands in the *other* slot while this one is still
    // being sliced). `inner_h[idx % 2]` holds the in-flight broadcasts of
    // global slice index idx = kg·inner_steps + ki.
    let mut outer_h: [Option<OuterPair<C>>; 2] = [None, None];
    let mut outer_p: [LandedPair<C>; 2] = [(None, None), (None, None)];
    let mut inner_h: [Option<BcastPair<C>>; 2] = [None, None];

    // Prime the pipeline. Ordering rule (it is THE rule of this
    // schedule): a root posts its fan-out *before* it blocks on anything
    // — sender time is a serial resource, so a send issued after a wait
    // arrives a whole wait later at every destination. Hence outer step
    // 1 is started before outer step 0 is landed.
    outer_h[0] = Some(start_outer(0)?);
    if outer_steps > 1 {
        outer_h[1] = Some(start_outer(1)?);
    }
    outer_p[0] = land(outer_h[0].take().expect("outer 0 started"))?;
    inner_h[0] = Some(start_inner(0, 0, &outer_p[0])?);

    for kg in 0..outer_steps {
        let next = (kg + 1) % 2;
        for ki in 0..inner_steps {
            let idx = kg * inner_steps + ki;
            let boundary = ki + 1 == inner_steps && kg + 1 < outer_steps;
            // Keep the inner pipeline one slice ahead.
            if ki + 1 < inner_steps {
                inner_h[(idx + 1) % 2] = Some(start_inner(kg, ki + 1, &outer_p[kg % 2])?);
            } else if boundary {
                // Slot kg%2 is free (its handles were consumed when kg
                // landed); refill it with outer kg+2's fan-out NOW, before
                // any wait below can delay the sends.
                if kg + 2 < outer_steps {
                    outer_h[kg % 2] = Some(start_outer(kg + 2)?);
                }
                // Adaptive handoff: only if outer kg+1 has already landed
                // does its first slice start here, streaming during the
                // gemm below. A still-in-flight outer panel must NOT be
                // waited for in front of the multiply — that would put
                // the inter-group transfer right back on the critical
                // path — so it lands after the gemm instead, when the
                // wait is hidden behind the compute just done.
                if has_landed(outer_h[next].as_mut().expect("outer kg+1 started"))? {
                    outer_p[next] = land(outer_h[next].take().expect("outer kg+1 started"))?;
                    inner_h[(idx + 1) % 2] = Some(start_inner(kg + 1, 0, &outer_p[next])?);
                }
            }
            let (a_h, b_h) = inner_h[idx % 2].take().expect("inner slice started");
            let a_in = g.row.ibcast_wait(a_h)?;
            let b_in = g.col.ibcast_wait(b_h)?;
            comm.compute(pairs as f64, 2 * pairs as u64, || {
                C::Mat::gemm(
                    spec.kernel,
                    C::shared_ref(&a_in),
                    C::shared_ref(&b_in),
                    &mut c,
                )
            });
            if boundary && inner_h[(idx + 1) % 2].is_none() {
                // Outer kg+1 was still in flight before the gemm: land it
                // now, with the multiply's worth of transfer time already
                // credited, and start its first slice.
                outer_p[next] = land(outer_h[next].take().expect("outer kg+1 started"))?;
                inner_h[(idx + 1) % 2] = Some(start_inner(kg + 1, 0, &outer_p[next])?);
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::{seeded_uniform, BlockDist, Matrix};
    use hsumma_runtime::{Comm, Runtime};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The blocking loop over every pivot step.
    fn run(comm: &Comm, spec: Spec, a: &Matrix, b: &Matrix) -> Matrix {
        blocking(comm, &spec, a, b, |_| true).unwrap()
    }

    /// Scatter rectangular operands, run `algo`, gather C, compare.
    fn run_rect(
        grid: GridShape,
        dims: MatMulDims,
        algo: impl Fn(&Comm, Matrix, Matrix) -> Matrix + Send + Sync,
    ) {
        let a = seeded_uniform(dims.m, dims.l, 70);
        let b = seeded_uniform(dims.l, dims.n, 71);
        let want = reference_product(&a, &b);
        let a_dist = BlockDist::new(grid, dims.m, dims.l);
        let b_dist = BlockDist::new(grid, dims.l, dims.n);
        let c_dist = BlockDist::new(grid, dims.m, dims.n);
        let at = a_dist.scatter(&a);
        let bt = b_dist.scatter(&b);
        let ct = Runtime::run(grid.size(), |comm| {
            algo(comm, at[comm.rank()].clone(), bt[comm.rank()].clone())
        });
        let got = c_dist.gather(&ct);
        assert!(
            got.approx_eq(&want, 1e-9),
            "grid {grid:?} dims {dims:?}: err {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn rect_summa_tall_times_wide() {
        let grid = GridShape::new(2, 2);
        let dims = MatMulDims { m: 12, l: 8, n: 16 };
        let cfg = SummaConfig {
            block: 2,
            kernel: GemmKernel::Blocked,
            ..Default::default()
        };
        run_rect(grid, dims, move |comm, a, b| {
            run(comm, Spec::summa(grid, dims, &cfg, Layout::Block), &a, &b)
        });
    }

    #[test]
    fn rect_summa_wide_times_tall() {
        let grid = GridShape::new(2, 4);
        let dims = MatMulDims { m: 4, l: 16, n: 8 };
        let cfg = SummaConfig {
            block: 2,
            kernel: GemmKernel::Blocked,
            ..Default::default()
        };
        run_rect(grid, dims, move |comm, a, b| {
            run(comm, Spec::summa(grid, dims, &cfg, Layout::Block), &a, &b)
        });
    }

    #[test]
    fn rect_summa_square_case_matches_square_entry_point() {
        use crate::summa::summa;
        let grid = GridShape::new(2, 2);
        let n = 16;
        let dims = MatMulDims::square(n);
        let a = seeded_uniform(n, n, 5);
        let b = seeded_uniform(n, n, 6);
        let dist = BlockDist::new(grid, n, n);
        let at = dist.scatter(&a);
        let bt = dist.scatter(&b);
        let cfg = SummaConfig {
            block: 4,
            kernel: GemmKernel::Blocked,
            ..Default::default()
        };
        let by_rect = Runtime::run(grid.size(), |comm| {
            run(
                comm,
                Spec::summa(grid, dims, &cfg, Layout::Block),
                &at[comm.rank()].clone(),
                &bt[comm.rank()].clone(),
            )
        });
        let by_square = Runtime::run(grid.size(), |comm| {
            summa(
                comm,
                grid,
                n,
                &at[comm.rank()].clone(),
                &bt[comm.rank()].clone(),
                &cfg,
            )
            .unwrap()
        });
        assert_eq!(by_rect, by_square, "square case must be identical");
    }

    #[test]
    fn rect_hsumma_matches_serial() {
        let grid = GridShape::new(4, 4);
        let dims = MatMulDims { m: 8, l: 16, n: 24 };
        let cfg = HsummaConfig {
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 2)
        };
        run_rect(grid, dims, move |comm, a, b| {
            run(comm, Spec::hsumma(grid, dims, &cfg), &a, &b)
        });
    }

    #[test]
    fn rect_hsumma_distinct_blocks_and_groups() {
        let grid = GridShape::new(2, 4);
        let dims = MatMulDims { m: 8, l: 32, n: 16 };
        let cfg = HsummaConfig {
            outer_block: 4,
            inner_block: 2,
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
        };
        run_rect(grid, dims, move |comm, a, b| {
            run(comm, Spec::hsumma(grid, dims, &cfg), &a, &b)
        });
    }

    #[test]
    #[should_panic(expected = "L must be divisible by grid rows")]
    fn rect_rejects_inconsistent_shared_dimension() {
        // Call the algorithm directly (the scatter helper would reject the
        // distribution first); tile shapes are plausible but L % s != 0.
        let grid = GridShape::new(4, 2);
        let dims = MatMulDims { m: 8, l: 6, n: 8 };
        let cfg = SummaConfig {
            block: 1,
            ..Default::default()
        };
        let _ = Runtime::run(grid.size(), |comm| {
            let a = Matrix::zeros(2, 3);
            let b = Matrix::zeros(1, 4);
            run(comm, Spec::summa(grid, dims, &cfg, Layout::Block), &a, &b)
        });
    }

    #[test]
    fn consecutive_pivot_owner_reuses_slots_safely() {
        // The buffer-reuse hazard: outer_block < tile width means the
        // same group column owns the pivot panel two outer steps in a
        // row (kg·bb/tw identical for consecutive kg), so both outer
        // slots hold panels from the *same* owner simultaneously. The
        // two-slot protocol must keep them apart.
        let grid = GridShape::new(4, 4);
        let (n, dims) = (32, MatMulDims::square(32)); // tiles 8×8, bb = 4 => outer owner repeats: 0,0,1,1,...
        let a = seeded_uniform(n, n, 85);
        let b = seeded_uniform(n, n, 86);
        let hcfg = HsummaConfig {
            outer_block: 4,
            inner_block: 2,
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
        };
        let owner = |kg: usize| (kg * hcfg.outer_block) / 8;
        assert_eq!(
            owner(0),
            owner(1),
            "precondition: steps 0 and 1 share a pivot owner"
        );
        let plain = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            run(comm, Spec::hsumma(grid, dims, &hcfg), &at, &bt)
        });
        let pipelined = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            pipelined(comm, &Spec::hsumma(grid, dims, &hcfg), &at, &bt).unwrap()
        });
        assert_eq!(plain, pipelined);
    }

    /// The gemm-comm benchmark shape: p = 16 (4×4), G = 2×2, n = 256,
    /// b = 8, binomial broadcasts; `bb` is the outer block `B`.
    fn gemm_comm_spec(bb: usize) -> Spec {
        let cfg = HsummaConfig {
            outer_block: bb,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 8)
        };
        Spec::hsumma(GridShape::new(4, 4), MatMulDims::square(256), &cfg)
    }

    /// Each rank's C tile and its payload copies over one blocking run.
    fn cut_ledger(spec: Spec) -> Vec<(Matrix, u64, u64)> {
        let n = spec.dims.l;
        let dist = BlockDist::new(spec.grid, n, n);
        let at = dist.scatter(&seeded_uniform(n, n, 31));
        let bt = dist.scatter(&seeded_uniform(n, n, 32));
        Runtime::run(spec.grid.size(), |comm| {
            comm.reset_stats();
            let c = run(comm, spec, &at[comm.rank()], &bt[comm.rank()]);
            let s = comm.stats();
            (c, s.payload_clones, s.payload_clone_bytes)
        })
    }

    #[test]
    fn every_panel_is_cut_once_at_the_gemm_comm_shape() {
        // B == b: only the 4 owners of each outer panel copy it (64×8
        // doubles, 4 KiB); the inner roots forward what they received.
        // 32 steps × (4 A + 4 B) owners = 256 cuts.
        let whole = cut_ledger(gemm_comm_spec(8));
        let clones: u64 = whole.iter().map(|r| r.1).sum();
        let bytes: u64 = whole.iter().map(|r| r.2).sum();
        assert_eq!((clones, bytes), (256, 1_048_576));

        // B = 2b: the same owners cut 64×16 outer panels, and each of the
        // 8 inner roots per operand cuts its two slices out of the outer
        // panel it received.
        let steps = 256 / 16;
        let outer = steps * 2 * 4 * (64 * 16 * 8);
        let inner = steps * 2 * 8 * 2 * (64 * 8 * 8);
        let halves = cut_ledger(gemm_comm_spec(16));
        let bytes: u64 = halves.iter().map(|r| r.2).sum();
        assert_eq!(bytes, (outer + inner) as u64);

        // Same slices multiplied in the same order: bit-identical C.
        for (rank, (w, h)) in whole.iter().zip(&halves).enumerate() {
            assert_eq!(w.0, h.0, "rank {rank}");
        }
    }

    /// Outer step 0 at the gemm-comm shape: per rank, its grid
    /// coordinates, the outer panels it holds and the panels it
    /// multiplies in each slice. The handles are returned, not their
    /// addresses, so every allocation is still alive when compared.
    #[allow(clippy::type_complexity)]
    fn step_zero_panels(
        bb: usize,
    ) -> Vec<(
        (usize, usize),
        Option<Arc<Matrix>>,
        Vec<(Arc<Matrix>, Arc<Matrix>)>,
    )> {
        let spec = gemm_comm_spec(bb);
        let n = spec.dims.l;
        let dist = BlockDist::new(spec.grid, n, n);
        let at = dist.scatter(&seeded_uniform(n, n, 33));
        let bt = dist.scatter(&seeded_uniform(n, n, 34));
        Runtime::run(spec.grid.size(), |comm| {
            let (a, b) = (&at[comm.rank()], &bt[comm.rank()]);
            let g = Geometry::new(&*comm, &spec, a, b);
            let step = g.outer_step(&spec, 0, a, b).unwrap();
            let slices = (0..bb / 8)
                .map(|ki| g.slices(&spec, &step, ki, a, b).unwrap())
                .collect();
            ((g.gi, g.gj), step.outer_a, slices)
        })
    }

    #[test]
    fn receivers_multiply_from_the_roots_allocation() {
        // B == b: the A panel of step 0 is cut once per grid row, by its
        // owner, and every rank of that row multiplies from that very
        // allocation — across the group boundary and through the inner
        // roots, which forward the outer panel they received.
        let ranks = step_zero_panels(8);
        for (coords, outer_a, slices) in &ranks {
            let row_root = &ranks.iter().find(|r| r.0 == (coords.0, 0)).unwrap().2[0].0;
            assert!(Arc::ptr_eq(&slices[0].0, row_root), "A at {coords:?}");
            let col_root = &ranks.iter().find(|r| r.0 == (0, coords.1)).unwrap().2[0].1;
            assert!(Arc::ptr_eq(&slices[0].1, col_root), "B at {coords:?}");
            if let Some(outer_a) = outer_a {
                assert!(
                    Arc::ptr_eq(outer_a, &slices[0].0),
                    "forwarded at {coords:?}"
                );
            }
        }

        // B = 2b: the outer panel is still the owner's allocation on both
        // inner roots of the row, each of which cuts its own slices; the
        // ranks of one group's row multiply from their inner root's cut.
        let ranks = step_zero_panels(16);
        for (coords, outer_a, slices) in &ranks {
            // Group columns are 2 wide; the inner root is its first column.
            let root_col = coords.1 / 2 * 2;
            let root = ranks.iter().find(|r| r.0 == (coords.0, root_col)).unwrap();
            let owner_outer = ranks
                .iter()
                .find(|r| r.0 == (coords.0, 0))
                .unwrap()
                .1
                .as_ref()
                .unwrap();
            assert!(Arc::ptr_eq(root.1.as_ref().unwrap(), owner_outer));
            assert_eq!(slices.len(), 2);
            for (ki, (mine, roots)) in slices.iter().zip(&root.2).enumerate() {
                assert!(Arc::ptr_eq(&mine.0, &roots.0), "{coords:?} {ki}");
                assert!(!Arc::ptr_eq(&mine.0, owner_outer), "slices are cut");
            }
            assert_eq!(outer_a.is_some(), coords.1 == root_col);
        }
        // The two groups of a row multiply from different cuts.
        let a_of = |c: (usize, usize)| &ranks.iter().find(|r| r.0 == c).unwrap().2[0].0;
        assert!(!Arc::ptr_eq(a_of((0, 0)), a_of((0, 2))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn rect_summa_random_dims(
            s in 1usize..3, t in 1usize..4,
            mf in 1usize..3, lf in 1usize..3, nf in 1usize..3,
            seed in 0u64..200,
        ) {
            let grid = GridShape::new(s, t);
            let lcm = s * t; // l must divide by both s and t
            let dims = MatMulDims { m: s * mf * 2, l: lcm * lf * 2, n: t * nf * 2 };
            let a = seeded_uniform(dims.m, dims.l, seed);
            let b = seeded_uniform(dims.l, dims.n, seed.wrapping_add(1));
            let want = reference_product(&a, &b);
            let a_dist = BlockDist::new(grid, dims.m, dims.l);
            let b_dist = BlockDist::new(grid, dims.l, dims.n);
            let c_dist = BlockDist::new(grid, dims.m, dims.n);
            let at = a_dist.scatter(&a);
            let bt = b_dist.scatter(&b);
            let cfg = SummaConfig { block: 1, kernel: GemmKernel::Blocked, ..Default::default() };
            let ct = Runtime::run(grid.size(), |comm| {
                run(comm, Spec::summa(grid, dims, &cfg, Layout::Block), &at[comm.rank()].clone(), &bt[comm.rank()].clone())
            });
            prop_assert!(c_dist.gather(&ct).approx_eq(&want, 1e-9));
        }
    }
}
