//! Row/column distributions and grid redistribution.
//!
//! Row operations require data distributed by rows, column operations by
//! columns; composing them forces a **redistribution** (paper §3.3,
//! Figure 6's "redistribution rows to columns") — the mesh-spectral
//! archetype's analogue of a matrix transpose across processes,
//! implemented with an all-to-all exchange of sub-blocks.

use archetype_mp::topology::block_range;
use archetype_mp::{Ctx, FixedSize};

/// A matrix distributed by contiguous **rows**: this process owns rows
/// `row0 .. row0 + local_rows`, each of full width `ncols`, stored
/// row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct RowDist<T> {
    /// Global number of rows.
    pub nrows: usize,
    /// Global number of columns (all local).
    pub ncols: usize,
    /// First global row owned.
    pub row0: usize,
    /// Number of rows owned.
    pub local_rows: usize,
    /// Row-major `local_rows × ncols` storage.
    pub data: Vec<T>,
}

impl<T: FixedSize + Default> RowDist<T> {
    /// The row block owned by `rank` of `nprocs`, filled from a function of
    /// global `(row, col)`.
    pub fn from_global(
        rank: usize,
        nprocs: usize,
        nrows: usize,
        ncols: usize,
        f: impl Fn(usize, usize) -> T,
    ) -> Self {
        let (row0, local_rows) = block_range(nrows, nprocs, rank);
        let mut data = Vec::with_capacity(local_rows * ncols);
        for r in 0..local_rows {
            for c in 0..ncols {
                data.push(f(row0 + r, c));
            }
        }
        RowDist {
            nrows,
            ncols,
            row0,
            local_rows,
            data,
        }
    }

    /// Immutable view of local row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        let s = r * self.ncols;
        &self.data[s..s + self.ncols]
    }

    /// Apply `f(global_row_index, row)` to every local row — the
    /// archetype's *row operation* (rows are independent by contract).
    pub fn for_each_row_mut(&mut self, mut f: impl FnMut(usize, &mut [T])) {
        let row0 = self.row0;
        let ncols = self.ncols;
        for r in 0..self.local_rows {
            let s = r * ncols;
            f(row0 + r, &mut self.data[s..s + ncols]);
        }
    }
}

/// A matrix distributed by contiguous **columns**: this process owns
/// columns `col0 .. col0 + local_cols`, each of full height `nrows`,
/// stored column-major (each local column contiguous).
#[derive(Clone, Debug, PartialEq)]
pub struct ColDist<T> {
    /// Global number of rows (all local).
    pub nrows: usize,
    /// Global number of columns.
    pub ncols: usize,
    /// First global column owned.
    pub col0: usize,
    /// Number of columns owned.
    pub local_cols: usize,
    /// Column-major `nrows × local_cols` storage.
    pub data: Vec<T>,
}

impl<T: FixedSize + Default> ColDist<T> {
    /// Immutable view of local column `c` (0-based local index).
    pub fn col(&self, c: usize) -> &[T] {
        let s = c * self.nrows;
        &self.data[s..s + self.nrows]
    }

    /// Apply `f(global_col_index, column)` to every local column — the
    /// archetype's *column operation*.
    pub fn for_each_col_mut(&mut self, mut f: impl FnMut(usize, &mut [T])) {
        let col0 = self.col0;
        let nrows = self.nrows;
        for c in 0..self.local_cols {
            let s = c * nrows;
            f(col0 + c, &mut self.data[s..s + nrows]);
        }
    }
}

/// Redistribute a row-distributed matrix into a column-distributed one
/// (paper Figure 6). All ranks must call this; the sub-block destined for
/// each peer is packed, exchanged all-to-all, and reassembled.
pub fn rows_to_cols<T: FixedSize + Default>(ctx: &mut Ctx, rd: &RowDist<T>) -> ColDist<T> {
    let p = ctx.nprocs();
    let me = ctx.rank();
    // Piece for rank d: my rows × d's columns, packed row-major.
    let pieces: Vec<Vec<T>> = (0..p)
        .map(|d| {
            let (c0, cn) = block_range(rd.ncols, p, d);
            let mut buf = Vec::with_capacity(rd.local_rows * cn);
            for r in 0..rd.local_rows {
                let row = rd.row(r);
                buf.extend_from_slice(&row[c0..c0 + cn]);
            }
            buf
        })
        .collect();
    let received = ctx.all_to_all(pieces);

    let (col0, local_cols) = block_range(rd.ncols, p, me);
    let mut out = ColDist {
        nrows: rd.nrows,
        ncols: rd.ncols,
        col0,
        local_cols,
        data: vec![T::default(); rd.nrows * local_cols],
    };
    for (src, piece) in received.into_iter().enumerate() {
        let (r0, rn) = block_range(rd.nrows, p, src);
        debug_assert_eq!(piece.len(), rn * local_cols);
        for (idx, v) in piece.into_iter().enumerate() {
            let r = r0 + idx / local_cols;
            let c = idx % local_cols;
            out.data[c * rd.nrows + r] = v;
        }
    }
    out
}

/// Redistribute a column-distributed matrix back into a row-distributed
/// one — the inverse of [`rows_to_cols`].
pub fn cols_to_rows<T: FixedSize + Default>(ctx: &mut Ctx, cd: &ColDist<T>) -> RowDist<T> {
    let p = ctx.nprocs();
    let me = ctx.rank();
    // Piece for rank d: d's rows × my columns, packed column-major.
    let pieces: Vec<Vec<T>> = (0..p)
        .map(|d| {
            let (r0, rn) = block_range(cd.nrows, p, d);
            let mut buf = Vec::with_capacity(rn * cd.local_cols);
            for c in 0..cd.local_cols {
                let col = cd.col(c);
                buf.extend_from_slice(&col[r0..r0 + rn]);
            }
            buf
        })
        .collect();
    let received = ctx.all_to_all(pieces);

    let (row0, local_rows) = block_range(cd.nrows, p, me);
    let mut out = RowDist {
        nrows: cd.nrows,
        ncols: cd.ncols,
        row0,
        local_rows,
        data: vec![T::default(); local_rows * cd.ncols],
    };
    for (src, piece) in received.into_iter().enumerate() {
        let (c0, cn) = block_range(cd.ncols, p, src);
        debug_assert_eq!(piece.len(), local_rows * cn);
        for (idx, v) in piece.into_iter().enumerate() {
            let c = c0 + idx / local_rows;
            let r = idx % local_rows;
            out.data[r * cd.ncols + c] = v;
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    /// Gather a row-distributed matrix to rank 0 as a full row-major
    /// matrix.
    pub(crate) fn gather_rows<T: FixedSize + Default>(
        ctx: &mut Ctx,
        rd: &RowDist<T>,
    ) -> Option<Vec<T>> {
        ctx.gather(0, rd.data.clone()).map(|parts| parts.concat())
    }

    fn val(r: usize, c: usize) -> f64 {
        (r * 1000 + c) as f64
    }

    #[test]
    fn row_views_are_consistent() {
        let rd = RowDist::from_global(0, 1, 3, 4, val);
        assert_eq!(rd.row(1), &[val(1, 0), val(1, 1), val(1, 2), val(1, 3)]);
        let mut rd = rd;
        rd.for_each_row_mut(|r, row| {
            if r == 2 {
                row[3] = -1.0;
            }
        });
        assert_eq!(rd.row(2)[3], -1.0);
    }

    #[test]
    fn for_each_row_reports_global_indices() {
        let rd = RowDist::from_global(1, 2, 6, 2, val);
        let mut seen = Vec::new();
        let mut rd = rd;
        rd.for_each_row_mut(|g, _row| seen.push(g));
        assert_eq!(seen, vec![3, 4, 5]);
    }

    #[test]
    fn rows_to_cols_transposes_ownership() {
        for p in [1usize, 2, 3, 5] {
            for (nr, nc) in [(8usize, 8usize), (7, 9), (5, 12)] {
                let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                    let rd = RowDist::from_global(ctx.rank(), ctx.nprocs(), nr, nc, val);
                    let cd = rows_to_cols(ctx, &rd);
                    // Every local column must hold the full global column.
                    for c in 0..cd.local_cols {
                        let gcol = cd.col0 + c;
                        for r in 0..cd.nrows {
                            assert_eq!(cd.col(c)[r], val(r, gcol), "p={p} {nr}x{nc}");
                        }
                    }
                    cd.local_cols
                });
                let total: usize = out.results.iter().sum();
                assert_eq!(total, nc, "columns partitioned exactly");
            }
        }
    }

    #[test]
    fn round_trip_restores_row_distribution() {
        for p in [1usize, 2, 4, 6] {
            run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                let rd = RowDist::from_global(ctx.rank(), ctx.nprocs(), 10, 6, val);
                let cd = rows_to_cols(ctx, &rd);
                let back = cols_to_rows(ctx, &cd);
                assert_eq!(back, rd, "p={p}");
            });
        }
    }

    #[test]
    fn gather_rows_orders_by_rank() {
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let rd = RowDist::from_global(ctx.rank(), 3, 7, 2, val);
            gather_rows(ctx, &rd)
        });
        let full = out.results[0].as_ref().expect("root");
        let expected: Vec<f64> = (0..7)
            .flat_map(|r| (0..2).map(move |c| val(r, c)))
            .collect();
        assert_eq!(full, &expected);
    }

    #[test]
    fn col_mutation_via_for_each_col() {
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            let rd = RowDist::from_global(ctx.rank(), 2, 4, 4, val);
            let mut cd = rows_to_cols(ctx, &rd);
            cd.for_each_col_mut(|g, col| {
                for v in col.iter_mut() {
                    *v += g as f64 * 1e6;
                }
            });
            // Spot-check: column `col0` cell row 2.
            let g = cd.col0;
            assert_eq!(cd.col(0)[2], val(2, g) + g as f64 * 1e6);
        });
    }
}
