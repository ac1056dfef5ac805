//! The mesh-spectral skeleton: one double-buffered stencil loop for the
//! 2-D apps of §3. [`run_stencil`] owns the two swapped [`DistGrid2`]
//! buffers, the ghost exchange, the globally interior range, the
//! [`Ctx::trace_phase`] records and the gather; an app ([`Stencil`])
//! supplies a row update over slices of the rows around the one it writes
//! (never an `at`/`set` per cell), its flop charge, and the optional
//! stages of its step, each run when its hook returns `Some`. A step is
//! [`Stencil::open`] (GridOp, Reduction), the exchange (Communication),
//! [`Stencil::row_op`] (RowOp), the grid op (GridOp) and
//! [`Stencil::close`] (Reduction): every rank's track is a sentence of
//! the mesh grammar, and each app keeps its order of charges and messages.

use std::ops::Range;

use archetype_core::PhaseKind;
use archetype_mp::{Ctx, FixedSize, ProcessGrid2};

use crate::block::Block2;
use crate::globals::GlobalVar;
use crate::grid2::DistGrid2;

/// Independent accumulators a row update folds a running `max` into (one
/// would be a dependency chain through every cell; `max` is exact).
pub const LANES: usize = 8;

/// The collective that closes a step.
#[derive(Clone, Copy, Debug)]
pub enum Collective {
    /// The `f64::max` of every rank's value.
    Max(f64),
    /// Rank 0's value, installed on every rank.
    FromRoot(f64),
}

/// A mesh-spectral app as [`run_stencil`] runs it.
pub trait Stencil {
    /// The state of one grid cell.
    type Cell: FixedSize + Default;
    /// Ghost width: the rows and columns a row update reads on each side.
    const GHOST: usize;
    /// Global rows and columns at each edge that the grid op leaves at
    /// their initial values (`[0, 0]`: it writes every cell).
    const FIXED: [usize; 2];
    /// Modeled flops per local cell of the grid op.
    const FLOPS: f64;

    /// Whether another step runs, a stop predicate on the last
    /// reduction; always, by default.
    fn proceed(&self) -> bool {
        true
    }

    /// This rank's value over the current grid for a `max` reduction
    /// before the exchange, and its flops per local cell.
    fn open(&self, _grid: &Block2<Self::Cell>) -> Option<(f64, f64)> {
        None
    }

    /// The global result of [`Stencil::open`].
    fn opened(&mut self, _global: f64) {}

    /// A row op over the exchanged grid, returning its flops.
    fn row_op(&mut self, _grid: &Block2<Self::Cell>) -> Option<f64> {
        None
    }

    /// Write `out`, row `rows.i` of the next grid over the interior
    /// columns, folding into `lanes` (each sweep starts them at −∞).
    fn update_row(
        &self,
        rows: Rows<'_, Self::Cell>,
        out: &mut [Self::Cell],
        lanes: &mut [f64; LANES],
    );

    /// The collective that closes a step, from this rank's `lanes`.
    fn close(&self, _lanes: [f64; LANES]) -> Option<Collective> {
        None
    }

    /// The global result of [`Stencil::close`].
    fn closed(&mut self, _global: f64) {}
}

/// The current grid's rows around the one a row update writes, cut to
/// the columns it writes.
#[derive(Clone, Copy)]
pub struct Rows<'a, T> {
    grid: &'a Block2<T>,
    /// Storage columns of the written cells.
    cols: (usize, usize),
    /// Local index of the written row.
    pub i: usize,
    /// Global index of the written row.
    pub gi: usize,
    /// Global index of the first written column.
    pub gj: usize,
}

impl<'a, T: Copy> Rows<'a, T> {
    /// Row `i + d` over the written columns, widened by `w` cells on each
    /// side (`|d|`, `w` ≤ the ghost width).
    #[inline]
    pub fn at(&self, d: isize, w: usize) -> &'a [T] {
        self.of(self.grid, d, w)
    }

    /// The same cut of another block laid out like this grid.
    #[inline]
    pub fn of<'b, U: Copy>(&self, block: &'b Block2<U>, d: isize, w: usize) -> &'b [U] {
        &block.row(self.i as isize + d)[self.cols.0 - w..self.cols.1 + w]
    }
}

/// The local indices of a block of `len` cells starting at global index
/// `start` that lie at least `fixed` cells inside a `global`-cell axis.
fn interior_range(start: usize, len: usize, global: usize, fixed: usize) -> Range<usize> {
    let hi = (start + len)
        .min(global.saturating_sub(fixed))
        .saturating_sub(start);
    fixed.saturating_sub(start).min(hi)..hi
}

/// Run at most `steps` steps of `app` on a `global[0] × global[1]` grid
/// block-distributed over `pgrid` from `init(i, j)`, returning the
/// gathered grid on rank 0 (`None` elsewhere) and the steps run. Every
/// rank of `pgrid` must call it.
pub fn run_stencil<S: Stencil>(
    ctx: &mut Ctx,
    app: &mut S,
    pgrid: ProcessGrid2,
    global: [usize; 2],
    steps: usize,
    init: impl Fn(usize, usize) -> S::Cell,
) -> (Option<Vec<S::Cell>>, usize) {
    assert_eq!(
        pgrid.len(),
        ctx.nprocs(),
        "process grid must match run size"
    );
    ctx.trace_phase(PhaseKind::Io, "block-distribute the grid");
    let [gnx, gny] = global;
    let fill = S::Cell::default();
    let mut cur = DistGrid2::from_global(ctx.rank(), pgrid, gnx, gny, S::GHOST, fill, init);
    // The grid op writes only the interior range, so a second buffer that
    // starts as a copy keeps the fixed cells for good and the two swap
    // roles every step (the exchange refreshes stale ghosts before use).
    let mut next = cur.clone();
    let (nx, ny) = (cur.nx(), cur.ny());
    let rows = interior_range(cur.x0, nx, gnx, S::FIXED[0]);
    let cols = interior_range(cur.y0, ny, gny, S::FIXED[1]);
    let (x0, gj) = (cur.x0, cur.y0 + cols.start);
    let store = (cols.start + S::GHOST, cols.end + S::GHOST);
    let mut value = GlobalVar::new(0.0);

    let mut step = 0;
    while step < steps && app.proceed() {
        if let Some((local, flops)) = app.open(&cur.block) {
            ctx.trace_phase(PhaseKind::GridOp, "local value to reduce");
            ctx.charge_items(nx * ny, flops);
            ctx.trace_phase(PhaseKind::Reduction, "global max");
            app.opened(*value.reduce_from(ctx, local, f64::max));
        }
        ctx.trace_phase(PhaseKind::Communication, "ghost boundary exchange");
        cur.exchange_ghosts(ctx);
        if let Some(flops) = app.row_op(&cur.block) {
            ctx.trace_phase(PhaseKind::RowOp, "row op");
            ctx.charge_flops(flops);
        }
        ctx.trace_phase(PhaseKind::GridOp, "stencil sweep");
        let mut lanes = [f64::NEG_INFINITY; LANES];
        for i in rows.clone() {
            let (grid, gi) = (&cur.block, x0 + i);
            let rows = Rows {
                grid,
                cols: store,
                i,
                gi,
                gj,
            };
            app.update_row(
                rows,
                &mut next.block.row_mut(i as isize)[store.0..store.1],
                &mut lanes,
            );
        }
        ctx.charge_items(nx * ny, S::FLOPS);
        std::mem::swap(&mut cur, &mut next);
        if let Some(collective) = app.close(lanes) {
            ctx.trace_phase(PhaseKind::Reduction, "global value of the step");
            let global = match collective {
                Collective::Max(local) => value.reduce_from(ctx, local, f64::max),
                Collective::FromRoot(v) => {
                    let root = (ctx.rank() == 0).then_some(v);
                    value.broadcast_from(ctx, 0, root)
                }
            };
            app.closed(*global);
        }
        step += 1;
    }

    ctx.trace_phase(PhaseKind::Io, "gather the grid to rank 0");
    (cur.gather_global(ctx), step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_range_drops_the_fixed_edge_cells() {
        // Poisson's width-1 edges: a block touching neither, one, both.
        assert_eq!(interior_range(3, 4, 10, 1), 0..4);
        assert_eq!(interior_range(0, 4, 10, 1), 1..4);
        assert_eq!(interior_range(6, 4, 10, 1), 0..3);
        assert_eq!(interior_range(0, 10, 10, 1), 1..9);
        // Spectral flow's width-2 edges and a block of boundary rows only.
        assert_eq!(interior_range(0, 3, 10, 2), 2..3);
        assert_eq!(interior_range(8, 2, 10, 2), 0..0);
        assert_eq!(interior_range(0, 2, 10, 2), 2..2);
        // No fixed edge, an empty block, a grid with no interior.
        assert_eq!(interior_range(0, 10, 10, 0), 0..10);
        assert_eq!(interior_range(0, 0, 10, 1), 0..0);
        assert_eq!(interior_range(0, 1, 1, 1), 0..0);
    }
}
