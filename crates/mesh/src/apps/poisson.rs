//! Poisson solver by Jacobi iteration (paper §3.6, Figures 13–15).
//!
//! Solve `∇²u = f` on the unit square with Dirichlet boundary `u = g`,
//! discretized on an `NX × NY` grid, iterating
//! `u'ᵢⱼ = ¼ (h²·fᵢⱼ + u_W + u_E + u_S + u_N)` until the global maximum
//! change `diffmax` falls below a tolerance — `diffmax` being the paper's
//! worked example of a **global variable** computed by reduction and used
//! in control flow.
//!
//! - [`poisson_shared`] is version 1 (Figure 13): `forall` grid ops plus a
//!   max-reduction, runnable sequentially or with rayon;
//! - [`poisson_spmd`] is version 2 (Figure 14): block-distributed grids
//!   with ghost exchange before each grid op and a recursive-doubling
//!   max-reduction maintaining `diffmax`'s copy consistency.
//!
//! Because every update reads the same operands in the same order and the
//! max-reduction is exact, the two versions agree **bitwise** and iterate
//! the same number of times — the semantics-preservation property.

use archetype_core::{parfor_map, parfor_reduce, ExecutionMode, PhaseKind, PhaseTrace};
use archetype_mp::{Ctx, ProcessGrid2};
use archetype_numerics::stencil::jacobi_update;

use crate::globals::GlobalVar;
use crate::grid2::DistGrid2;

/// Problem specification: `∇²u = f` on `[0,1]²`, `u = g` on the boundary.
#[derive(Clone, Copy)]
pub struct PoissonSpec {
    /// Grid extent along x (including boundary points).
    pub nx: usize,
    /// Grid extent along y (including boundary points).
    pub ny: usize,
    /// Convergence tolerance on the max update.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Right-hand side `f(x, y)`.
    pub f: fn(f64, f64) -> f64,
    /// Boundary values `g(x, y)`.
    pub g: fn(f64, f64) -> f64,
}

impl PoissonSpec {
    /// Grid spacing (taken from the x extent; use square-ish grids).
    pub fn h(&self) -> f64 {
        1.0 / (self.nx.max(2) - 1) as f64
    }

    /// Coordinates of grid point `(i, j)`.
    pub fn xy(&self, i: usize, j: usize) -> (f64, f64) {
        (i as f64 * self.h(), j as f64 * self.h())
    }

    /// Initial value at `(i, j)`: `g` on the boundary, zero inside.
    pub fn initial(&self, i: usize, j: usize) -> f64 {
        if i == 0 || j == 0 || i == self.nx - 1 || j == self.ny - 1 {
            let (x, y) = self.xy(i, j);
            (self.g)(x, y)
        } else {
            0.0
        }
    }
}

/// Result of a Poisson solve.
#[derive(Clone, Debug)]
pub struct PoissonResult {
    /// The solution grid (row-major `nx × ny`); `None` on non-root SPMD ranks.
    pub grid: Option<Vec<f64>>,
    /// Iterations executed.
    pub iters: usize,
    /// Final `diffmax`.
    pub diffmax: f64,
}

/// Version 1: shared-memory Jacobi iteration (Figure 13).
pub fn poisson_shared(spec: &PoissonSpec, mode: ExecutionMode) -> PoissonResult {
    let (nx, ny) = (spec.nx, spec.ny);
    let h2 = spec.h() * spec.h();
    let mut uk: Vec<f64> = (0..nx * ny).map(|k| spec.initial(k / ny, k % ny)).collect();
    let fgrid: Vec<f64> = (0..nx * ny)
        .map(|k| {
            let (x, y) = spec.xy(k / ny, k % ny);
            (spec.f)(x, y)
        })
        .collect();

    let mut iters = 0;
    let mut diffmax = spec.tolerance + 1.0;
    while diffmax > spec.tolerance && iters < spec.max_iters {
        // Grid op: compute new interior values (disjoint from inputs).
        let ukp: Vec<f64> = {
            let uk = &uk;
            let fgrid = &fgrid;
            parfor_map(mode, nx * ny, |k| {
                let (i, j) = (k / ny, k % ny);
                if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                    uk[k]
                } else {
                    jacobi_update(h2 * fgrid[k], uk[k - ny], uk[k + ny], uk[k - 1], uk[k + 1])
                }
            })
        };
        // Reduction: diffmax = max |ukp - uk| (exact associative max).
        diffmax = {
            let uk = &uk;
            let ukp = &ukp;
            parfor_reduce(
                mode,
                nx * ny,
                f64::NEG_INFINITY,
                |k| (ukp[k] - uk[k]).abs(),
                f64::max,
            )
        };
        uk = ukp;
        iters += 1;
    }
    PoissonResult {
        grid: Some(uk),
        iters,
        diffmax,
    }
}

/// Version 2: SPMD Jacobi iteration over an `NPX × NPY` block distribution
/// (Figure 14). Returns the gathered solution on rank 0.
pub fn poisson_spmd(ctx: &mut Ctx, spec: &PoissonSpec, pgrid: ProcessGrid2) -> PoissonResult {
    poisson_spmd_traced(ctx, spec, pgrid, None)
}

/// [`poisson_spmd`] with phase tracing: rank 0 records the mesh-spectral
/// phase sequence — distribute (Io), then per iteration the
/// archetype-inserted ghost exchange (Communication), the Jacobi sweep
/// (GridOp), and the `diffmax` reduction, then the gather (Io) — so
/// tests can grammar-check the archetype's pattern.
pub fn poisson_spmd_traced(
    ctx: &mut Ctx,
    spec: &PoissonSpec,
    pgrid: ProcessGrid2,
    trace: Option<&PhaseTrace>,
) -> PoissonResult {
    assert_eq!(
        pgrid.len(),
        ctx.nprocs(),
        "process grid must match run size"
    );
    let h2 = spec.h() * spec.h();
    let rank = ctx.rank();
    let record = |ctx: &mut Ctx, kind: PhaseKind, label: &str| {
        // Every rank stamps the phase into the substrate trace; the
        // legacy PhaseTrace summary stays rank-0-only.
        ctx.trace_phase(kind.name(), label);
        if ctx.rank() == 0 {
            if let Some(t) = trace {
                t.record(kind, label);
            }
        }
    };

    record(ctx, PhaseKind::Io, "block-distribute rhs and initial grid");
    let mut uk = DistGrid2::from_global(rank, pgrid, spec.nx, spec.ny, 1, 0.0, |i, j| {
        spec.initial(i, j)
    });
    // The sweep writes only globally interior points, so a second buffer
    // that starts as a copy keeps the boundary values for good and the
    // two can swap roles every iteration (its stale ghosts are refreshed
    // by the exchange before they are next read).
    let mut ukp = uk.clone();
    // h²·f never changes: multiply once, not once per point per sweep.
    let h2f = DistGrid2::from_global(rank, pgrid, spec.nx, spec.ny, 1, 0.0, |i, j| {
        let (x, y) = spec.xy(i, j);
        h2 * (spec.f)(x, y)
    });

    let (nx, ny) = (uk.nx(), uk.ny());
    // The intersection of the local section and the global interior, in
    // local coordinates: drop the first/last row or column where this
    // block touches the global boundary.
    let rows = interior_range(uk.x0, nx, spec.nx);
    let cols = interior_range(uk.y0, ny, spec.ny);
    // Storage column = local column + the ghost width of 1.
    let (lo, hi) = (cols.start + 1, cols.end + 1);
    let mut diffmax = GlobalVar::new(spec.tolerance + 1.0);
    let mut iters = 0;

    while *diffmax.get() > spec.tolerance && iters < spec.max_iters {
        // Satisfy the grid-op precondition: refresh the ghost boundary.
        record(ctx, PhaseKind::Communication, "ghost boundary exchange");
        uk.exchange_ghosts(ctx);
        record(ctx, PhaseKind::GridOp, "Jacobi sweep");
        // Grid op, a row at a time; 6 flops per point in the model.
        let mut lanes = [f64::NEG_INFINITY; LANES];
        for i in rows.clone() {
            let i = i as isize;
            jacobi_row(
                &h2f.block.row(i)[lo..hi],
                &uk.block.row(i - 1)[lo..hi],
                &uk.block.row(i + 1)[lo..hi],
                &uk.block.row(i)[lo - 1..hi + 1],
                &mut ukp.block.row_mut(i)[lo..hi],
                &mut lanes,
            );
        }
        ctx.charge_items(nx * ny, 8.0);
        let mut local_diffmax = lanes.into_iter().fold(f64::NEG_INFINITY, f64::max);
        // Also fold in unchanged points for exact agreement with version 1
        // (boundary points contribute |uk - uk| = 0, a no-op unless the
        // grid has no interior).
        if local_diffmax == f64::NEG_INFINITY {
            local_diffmax = 0.0;
        }
        // Reduction re-establishes copy consistency of diffmax.
        record(ctx, PhaseKind::Reduction, "global max of local diffmax");
        diffmax.reduce_from(ctx, local_diffmax, f64::max);
        std::mem::swap(&mut uk, &mut ukp);
        iters += 1;
    }

    record(ctx, PhaseKind::Io, "gather solution to rank 0");
    let grid = uk.gather_global(ctx);
    PoissonResult {
        grid,
        iters,
        diffmax: *diffmax.get(),
    }
}

/// Independent accumulators of the sweep's running `max |new − old|`.
/// One accumulator is a loop-carried dependency through every point;
/// `max` is exact, so folding in lanes and combining them at the end
/// cannot change a bit of the result.
const LANES: usize = 8;

/// The local indices of a block of `len` cells starting at global index
/// `start` that are not on the boundary of a `global`-cell axis.
fn interior_range(start: usize, len: usize, global: usize) -> std::ops::Range<usize> {
    let lo = usize::from(start == 0);
    let hi = len - usize::from(len > 0 && start + len == global);
    lo.min(hi)..hi
}

/// One row of the Jacobi grid op: `out[c] = ¼(north[c] + south[c] +
/// row[c] + row[c + 2] − h2f[c])`, where `row` carries one extra cell on
/// each side (the west and east neighbours), folding `|out[c] − row[c +
/// 1]|` into `lanes`.
#[inline]
fn jacobi_row(
    h2f: &[f64],
    north: &[f64],
    south: &[f64],
    row: &[f64],
    out: &mut [f64],
    lanes: &mut [f64; LANES],
) {
    let n = out.len();
    let (west, mid, east) = (&row[..n], &row[1..n + 1], &row[2..n + 2]);
    // Whole chunks go through fixed-size arrays: one bounds check per
    // operand per chunk, and a body the compiler turns into vector ops.
    let chunk = |cells: &[f64], base: usize| -> [f64; LANES] {
        cells[base..base + LANES].try_into().expect("LANES cells")
    };
    let whole = n - n % LANES;
    for base in (0..whole).step_by(LANES) {
        let (f, nn, ss) = (chunk(h2f, base), chunk(north, base), chunk(south, base));
        let (w, m, e) = (chunk(west, base), chunk(mid, base), chunk(east, base));
        let o = &mut out[base..base + LANES];
        for l in 0..LANES {
            let new = jacobi_update(f[l], nn[l], ss[l], w[l], e[l]);
            lanes[l] = lanes[l].max((new - m[l]).abs());
            o[l] = new;
        }
    }
    for (lane, c) in lanes.iter_mut().zip(whole..n) {
        let new = jacobi_update(h2f[c], north[c], south[c], west[c], east[c]);
        *lane = lane.max((new - mid[c]).abs());
        out[c] = new;
    }
}

/// Modeled flop cost of one sequential Jacobi sweep.
pub fn poisson_sweep_flops(nx: usize, ny: usize) -> f64 {
    8.0 * (nx * ny) as f64
}

/// Machine-independent estimate of the total work of solving `spec`:
/// one sweep's flops times the iteration budget. An upper bound when the
/// tolerance converges early; exact when `max_iters` is the binding
/// limit (the usual case for the fixed-budget solves used in composed
/// plans, where a composition allocator prices this branch against its
/// siblings).
///
/// ```
/// use archetype_mesh::apps::poisson::{poisson_estimate_flops, sine_problem};
/// let spec = sine_problem(16, 1e-12, 100);
/// assert_eq!(poisson_estimate_flops(&spec), 100.0 * 8.0 * 256.0);
/// ```
pub fn poisson_estimate_flops(spec: &PoissonSpec) -> f64 {
    spec.max_iters as f64 * poisson_sweep_flops(spec.nx, spec.ny)
}

/// A standard test problem with a known smooth solution:
/// `u(x,y) = sin(πx)·sin(πy)`, so `f = −2π²·sin(πx)·sin(πy)` — note the
/// discrete operator converges to the PDE solution as `h → 0`.
pub fn sine_problem(n: usize, tolerance: f64, max_iters: usize) -> PoissonSpec {
    fn f(x: f64, y: f64) -> f64 {
        -2.0 * std::f64::consts::PI
            * std::f64::consts::PI
            * (std::f64::consts::PI * x).sin()
            * (std::f64::consts::PI * y).sin()
    }
    fn g(_x: f64, _y: f64) -> f64 {
        0.0
    }
    PoissonSpec {
        nx: n,
        ny: n,
        tolerance,
        max_iters,
        f,
        g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn converges_to_analytic_solution() {
        let spec = sine_problem(33, 1e-9, 20_000);
        let res = poisson_shared(&spec, ExecutionMode::Sequential);
        let grid = res.grid.unwrap();
        let mut max_err = 0.0f64;
        for i in 0..33 {
            for j in 0..33 {
                let (x, y) = spec.xy(i, j);
                // ∇²(sin πx · sin πy) = −2π² sin πx · sin πy = f, so the
                // exact solution is u = sin πx · sin πy.
                let exact = (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
                max_err = max_err.max((grid[i * 33 + j] - exact).abs());
            }
        }
        assert!(max_err < 5e-3, "discretization error bound: {max_err}");
        assert!(res.iters < 20_000, "must converge before the cap");
    }

    #[test]
    fn version1_modes_agree_bitwise() {
        let spec = sine_problem(17, 1e-6, 2_000);
        let a = poisson_shared(&spec, ExecutionMode::Sequential);
        let b = poisson_shared(&spec, ExecutionMode::Parallel);
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.grid, b.grid, "grid ops are deterministic");
    }

    #[test]
    fn version2_agrees_bitwise_with_version1() {
        let spec = sine_problem(20, 1e-5, 3_000);
        let reference = poisson_shared(&spec, ExecutionMode::Sequential);
        for (px, py) in [(1, 1), (2, 2), (1, 3), (3, 2)] {
            let pg = ProcessGrid2::new(px, py);
            let out = run_spmd(pg.len(), MachineModel::ibm_sp(), move |ctx| {
                poisson_spmd(ctx, &spec, pg)
            });
            let root = &out.results[0];
            assert_eq!(
                root.iters, reference.iters,
                "{px}x{py}: same iteration count"
            );
            assert_eq!(
                root.grid.as_ref().unwrap(),
                reference.grid.as_ref().unwrap(),
                "{px}x{py}: bitwise-equal solution"
            );
            // Every rank agrees on the final diffmax (copy consistency).
            for r in &out.results {
                assert_eq!(r.diffmax, reference.diffmax);
            }
        }
    }

    #[test]
    fn residual_shrinks_monotonically_at_the_tail() {
        // Jacobi on the model problem contracts; diffmax after more
        // iterations must not be larger.
        let mut spec = sine_problem(17, 0.0, 50);
        let r50 = poisson_shared(&spec, ExecutionMode::Sequential);
        spec.max_iters = 200;
        let r200 = poisson_shared(&spec, ExecutionMode::Sequential);
        assert!(r200.diffmax <= r50.diffmax);
    }

    #[test]
    fn boundary_values_are_held_fixed() {
        fn g(x: f64, y: f64) -> f64 {
            1.0 + x + 2.0 * y
        }
        fn f(_: f64, _: f64) -> f64 {
            0.0
        }
        let spec = PoissonSpec {
            nx: 9,
            ny: 9,
            tolerance: 1e-12,
            max_iters: 5_000,
            f,
            g,
        };
        let res = poisson_shared(&spec, ExecutionMode::Sequential);
        let grid = res.grid.unwrap();
        for k in 0..9 {
            let (x, y) = spec.xy(0, k);
            assert_eq!(grid[k], g(x, y));
            let (x, y) = spec.xy(8, k);
            assert_eq!(grid[8 * 9 + k], g(x, y));
        }
        // Harmonic with linear boundary data: u = g everywhere.
        let (x, y) = spec.xy(4, 4);
        assert!((grid[4 * 9 + 4] - g(x, y)).abs() < 1e-6);
    }

    #[test]
    fn spmd_iteration_count_is_rank_independent() {
        let spec = sine_problem(16, 1e-4, 1_000);
        let pg = ProcessGrid2::new(2, 2);
        let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
            poisson_spmd(ctx, &spec, pg).iters
        });
        assert!(out.results.iter().all(|&i| i == out.results[0]));
    }
}
