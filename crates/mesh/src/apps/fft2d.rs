//! Two-dimensional FFT (paper §3.5, Figures 10–12).
//!
//! "Perform a one-dimensional FFT on each row … and then a one-dimensional
//! FFT on each column of the resulting array." The row operation requires
//! row distribution, the column operation column distribution, so the SPMD
//! version inserts a redistribution between them (and a second one after,
//! "for the sake of tidiness", restoring the original distribution) —
//! exactly the pseudocode of Figure 11.
//!
//! Two versions, per the archetype method:
//! - [`fft2d_shared`] — version 1, a `forall` over rows then columns, run
//!   as plain loops;
//! - [`fft2d_spmd`] — version 2, an SPMD process over [`RowDist`] blocks
//!   with all-to-all redistribution, costed on the virtual clock.

use archetype_mp::Ctx;
use archetype_numerics::{fft_flops, fft_in_place, Complex, Direction};

use crate::redist::{cols_to_rows, rows_to_cols, RowDist};

/// Version 1: in-place 2-D FFT of a row-major `nx × ny` matrix.
/// Both dimensions must be powers of two.
pub fn fft2d_shared(data: &mut [Complex], nx: usize, ny: usize) {
    assert_eq!(data.len(), nx * ny);
    // Row FFTs: rows are contiguous, operate on disjoint chunks.
    {
        // Split into rows without aliasing: forall over row indices with
        // raw chunk access via chunks_mut is the natural expression.
        archetype_core::parfor_chunks(data, ny, |_r, row| {
            fft_in_place(row, Direction::Forward);
        });
    }
    // Column FFTs: gather each column into a scratch vector.
    // (Columns are strided; the shared-memory version pays a transpose-free
    // copy per column, mirroring `colfft` on a column slice.)
    let cols: Vec<Vec<Complex>> = {
        let data = &*data;
        archetype_core::parfor_map(ny, |c| {
            let mut col: Vec<Complex> = (0..nx).map(|r| data[r * ny + c]).collect();
            fft_in_place(&mut col, Direction::Forward);
            col
        })
    };
    for (c, col) in cols.into_iter().enumerate() {
        for (r, v) in col.into_iter().enumerate() {
            data[r * ny + c] = v;
        }
    }
}

/// Version 2: SPMD 2-D FFT over row blocks. `init(r, c)` supplies the
/// global matrix; `reps` repeats the whole transform (the paper's Figure 12
/// benchmark repeats the FFT to lengthen the run). Returns this rank's
/// final row block, in the original row distribution.
pub fn fft2d_spmd(
    ctx: &mut Ctx,
    nx: usize,
    ny: usize,
    reps: usize,
    init: impl Fn(usize, usize) -> Complex,
) -> RowDist<Complex> {
    let mut rd = RowDist::from_global(ctx.rank(), ctx.nprocs(), nx, ny, init);
    for _ in 0..reps {
        // Row FFTs (precondition: distributed by rows).
        ctx.charge_flops(rd.local_rows as f64 * fft_flops(ny));
        rd.for_each_row_mut(|_r, row| fft_in_place(row, Direction::Forward));
        // Redistribute rows -> columns.
        let mut cd = rows_to_cols(ctx, &rd);
        // Column FFTs (precondition: distributed by columns).
        ctx.charge_flops(cd.local_cols as f64 * fft_flops(nx));
        cd.for_each_col_mut(|_c, col| fft_in_place(col, Direction::Forward));
        // Redistribute back to restore the original distribution.
        rd = cols_to_rows(ctx, &cd);
    }
    rd
}

/// Modeled sequential cost of `reps` 2-D FFTs on an `nx × ny` grid.
pub fn fft2d_seq_flops(nx: usize, ny: usize, reps: usize) -> f64 {
    reps as f64 * (nx as f64 * fft_flops(ny) + ny as f64 * fft_flops(nx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redist::tests::gather_rows;
    use archetype_mp::{run_spmd, MachineModel};
    use archetype_numerics::dft_naive;

    fn test_matrix(nx: usize, ny: usize) -> Vec<Complex> {
        (0..nx * ny)
            .map(|k| {
                let t = k as f64;
                Complex::new((0.13 * t).sin(), (0.29 * t).cos() * 0.5)
            })
            .collect()
    }

    /// Reference 2-D DFT via the naive 1-D oracle.
    fn dft2d_naive(data: &[Complex], nx: usize, ny: usize) -> Vec<Complex> {
        let mut out = data.to_vec();
        for r in 0..nx {
            let row: Vec<Complex> = out[r * ny..(r + 1) * ny].to_vec();
            out[r * ny..(r + 1) * ny].copy_from_slice(&dft_naive(&row, Direction::Forward));
        }
        let mut final_ = out.clone();
        for c in 0..ny {
            let col: Vec<Complex> = (0..nx).map(|r| out[r * ny + c]).collect();
            let f = dft_naive(&col, Direction::Forward);
            for r in 0..nx {
                final_[r * ny + c] = f[r];
            }
        }
        final_
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn shared_matches_naive_dft2d() {
        let (nx, ny) = (16, 8);
        let input = test_matrix(nx, ny);
        let expected = dft2d_naive(&input, nx, ny);
        let mut data = input;
        fft2d_shared(&mut data, nx, ny);
        assert!(max_err(&data, &expected) < 1e-9);
    }

    #[test]
    fn spmd_matches_shared_for_many_process_counts() {
        let (nx, ny) = (16, 32);
        let input = test_matrix(nx, ny);
        let mut expected = input.clone();
        fft2d_shared(&mut expected, nx, ny);
        for p in [1usize, 2, 4, 5, 8] {
            let input = input.clone();
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                let rd = fft2d_spmd(ctx, nx, ny, 1, |r, c| input[r * ny + c]);
                gather_rows(ctx, &rd)
            });
            let got = out.results[0].as_ref().expect("rank 0 gathers");
            assert_eq!(got, &expected, "p={p}: SPMD must equal version 1 exactly");
        }
    }

    #[test]
    fn repeated_transforms_compose() {
        // reps=2 must equal applying the transform twice.
        let (nx, ny) = (8, 8);
        let input = test_matrix(nx, ny);
        let mut twice = input.clone();
        fft2d_shared(&mut twice, nx, ny);
        fft2d_shared(&mut twice, nx, ny);
        let input2 = input.clone();
        let out = run_spmd(2, MachineModel::ibm_sp(), move |ctx| {
            let rd = fft2d_spmd(ctx, nx, ny, 2, |r, c| input2[r * ny + c]);
            gather_rows(ctx, &rd)
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &twice);
    }

    #[test]
    fn fft2d_has_low_compute_to_comm_ratio() {
        // The paper's Figure 12 finding: "disappointing performance is a
        // result of too small a ratio of computation to communication."
        // At P=16 on an SP-like machine the comm fraction should dominate.
        let (nx, ny) = (64, 64);
        let out = run_spmd(16, MachineModel::ibm_sp(), move |ctx| {
            fft2d_spmd(ctx, nx, ny, 1, |r, c| {
                Complex::new((r * ny + c) as f64, 0.0)
            });
        });
        assert!(
            out.stats.comm_fraction() > 0.5,
            "comm fraction {} should exceed 0.5",
            out.stats.comm_fraction()
        );
    }

    #[test]
    fn seq_flops_model_counts_both_passes() {
        let f = fft2d_seq_flops(64, 64, 1);
        assert!((f - 2.0 * 64.0 * fft_flops(64)).abs() < 1e-9);
        assert_eq!(fft2d_seq_flops(64, 64, 3), 3.0 * f);
    }
}
