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
//!   max-reduction, run as plain loops;
//! - [`poisson_spmd`] is version 2 (Figure 14): block-distributed grids
//!   with ghost exchange before each grid op and a recursive-doubling
//!   max-reduction maintaining `diffmax`'s copy consistency.
//!
//! Because every update reads the same operands in the same order and the
//! max-reduction is exact, the two versions agree **bitwise** and iterate
//! the same number of times — the semantics-preservation property.

use archetype_core::{parfor_map, parfor_reduce, ExecutionMode};
use archetype_mp::{Ctx, ProcessGrid2};
use archetype_numerics::stencil::jacobi_update;

use crate::grid2::DistGrid2;
use crate::skeleton::{run_stencil, Collective, Rows, Stencil, LANES};

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
///
/// `_mode` has one value and changes nothing; the parameter stays only
/// because the frozen `benchmark/` package calls this function with it.
pub fn poisson_shared(spec: &PoissonSpec, _mode: ExecutionMode) -> PoissonResult {
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
            parfor_map(nx * ny, |k| {
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
/// (Figure 14) on the [`run_stencil`] skeleton: ghost exchange, Jacobi
/// sweep, and the `diffmax` max-reduction that decides whether another
/// sweep runs. Returns the gathered solution on rank 0.
pub fn poisson_spmd(ctx: &mut Ctx, spec: &PoissonSpec, pgrid: ProcessGrid2) -> PoissonResult {
    let h2 = spec.h() * spec.h();
    // h²·f never changes: multiply once, not once per point per sweep.
    let h2f = DistGrid2::from_global(ctx.rank(), pgrid, spec.nx, spec.ny, 1, 0.0, |i, j| {
        let (x, y) = spec.xy(i, j);
        h2 * (spec.f)(x, y)
    });
    let mut jacobi = Jacobi {
        spec,
        h2f,
        diffmax: spec.tolerance + 1.0,
    };
    let global = [spec.nx, spec.ny];
    let init = |i, j| spec.initial(i, j);
    let (grid, iters) = run_stencil(ctx, &mut jacobi, pgrid, global, spec.max_iters, init);
    PoissonResult {
        grid,
        iters,
        diffmax: jacobi.diffmax,
    }
}

/// Poisson's Jacobi iteration as a [`Stencil`].
struct Jacobi<'a> {
    spec: &'a PoissonSpec,
    /// `h²·f` on this rank's block.
    h2f: DistGrid2<f64>,
    /// The copy-consistent global maximum change of the last sweep.
    diffmax: f64,
}

impl Stencil for Jacobi<'_> {
    type Cell = f64;
    const GHOST: usize = 1;
    const FIXED: [usize; 2] = [1, 1];
    const FLOPS: f64 = 8.0;

    fn proceed(&self) -> bool {
        self.diffmax > self.spec.tolerance
    }

    fn update_row(&self, rows: Rows<'_, f64>, out: &mut [f64], lanes: &mut [f64; LANES]) {
        jacobi_row(
            rows.of(&self.h2f.block, 0, 0),
            rows.at(-1, 0),
            rows.at(1, 0),
            rows.at(0, 1),
            out,
            lanes,
        );
    }

    fn close(&self, lanes: [f64; LANES]) -> Option<Collective> {
        // Unchanged points fold in |uk − uk| = 0, as in version 1: a
        // no-op unless the block has no interior point.
        Some(Collective::Max(lanes.into_iter().fold(0.0, f64::max)))
    }

    fn closed(&mut self, global: f64) {
        self.diffmax = global;
    }
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
