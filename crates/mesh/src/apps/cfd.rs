//! Compressible-flow CFD kernel (paper §3.7.1, Figures 16, 19, 20).
//!
//! The paper's two production codes "simulate high Mach number
//! compressible flow … based on the two-dimensional mesh archetype". This
//! kernel reproduces their archetype structure — grid ops with ghost
//! exchange, a global wave-speed reduction per step for the CFL time step,
//! and field snapshots for output — on a reduced but genuine physics
//! problem: the 2-D compressible Euler equations advanced with the
//! Lax–Friedrichs scheme, initialized with a Mach-2 shock running into a
//! sinusoidally perturbed density field (the setup drawn in Figure 19).
//!
//! Conserved state per cell: `[ρ, ρu, ρv, E]`, ideal gas with γ = 1.4.

use archetype_core::{parfor_map, parfor_reduce};
use archetype_mp::{Ctx, ProcessGrid2};

use crate::block::Block2;
use crate::skeleton::{run_stencil, Collective, Rows, Stencil, LANES};

/// Conserved variables `[ρ, ρu, ρv, E]`.
pub type Cell = [f64; 4];

/// Ratio of specific heats.
pub const GAMMA: f64 = 1.4;

/// Pressure from the conserved state.
#[inline]
fn pressure(u: &Cell) -> f64 {
    (GAMMA - 1.0) * (u[3] - 0.5 * (u[1] * u[1] + u[2] * u[2]) / u[0])
}

/// Acoustic + advective wave speed `|v| + c`.
#[inline]
fn wave_speed(u: &Cell) -> f64 {
    let speed = (u[1] * u[1] + u[2] * u[2]).sqrt() / u[0];
    let c = (GAMMA * pressure(u) / u[0]).max(0.0).sqrt();
    speed + c
}

/// x-direction flux.
#[inline]
fn flux_x(u: &Cell) -> Cell {
    let p = pressure(u);
    let vx = u[1] / u[0];
    [u[1], u[1] * vx + p, u[2] * vx, (u[3] + p) * vx]
}

/// y-direction flux.
#[inline]
fn flux_y(u: &Cell) -> Cell {
    let p = pressure(u);
    let vy = u[2] / u[0];
    [u[2], u[1] * vy, u[2] * vy + p, (u[3] + p) * vy]
}

/// One 2-D Lax–Friedrichs update from the four neighbours.
#[inline]
fn lxf_update(w: &Cell, e: &Cell, s: &Cell, n: &Cell, lx: f64, ly: f64) -> Cell {
    let fw = flux_x(w);
    let fe = flux_x(e);
    let gs = flux_y(s);
    let gn = flux_y(n);
    let mut out = [0.0; 4];
    for c in 0..4 {
        out[c] = 0.25 * (w[c] + e[c] + s[c] + n[c])
            - 0.5 * lx * (fe[c] - fw[c])
            - 0.5 * ly * (gn[c] - gs[c]);
    }
    out
}

/// Problem specification.
#[derive(Clone, Copy)]
pub struct CfdSpec {
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// CFL number (≤ 1 for Lax–Friedrichs stability).
    pub cfl: f64,
    /// Number of time steps.
    pub steps: usize,
}

impl CfdSpec {
    /// Cell sizes.
    pub fn dx(&self) -> (f64, f64) {
        (self.lx / self.nx as f64, self.ly / self.ny as f64)
    }
}

/// Initial condition for the Figure 19 setup: a Mach-2 shock at
/// `x = 0.2·lx` moving right into gas at rest whose density carries a
/// sinusoidal perturbation along y.
pub fn shock_sine_init(spec: &CfdSpec, i: usize, j: usize) -> Cell {
    let (dx, dy) = spec.dx();
    let x = (i as f64 + 0.5) * dx;
    let y = (j as f64 + 0.5) * dy;
    if x < 0.2 * spec.lx {
        // Post-shock state of a Mach-2 shock into (ρ=1, p=1, u=0), γ=1.4.
        let rho = 2.666_666_666_666_667;
        let p = 4.5;
        let u = 1.479_019_945_774_904; // shock-frame algebra, γ=1.4
        prim_to_cons(rho, u, 0.0, p)
    } else {
        let rho = 1.0 + 0.3 * (8.0 * std::f64::consts::PI * y / spec.ly).sin();
        prim_to_cons(rho, 0.0, 0.0, 1.0)
    }
}

/// Conserved state from primitive variables `(ρ, u, v, p)`.
fn prim_to_cons(rho: f64, u: f64, v: f64, p: f64) -> Cell {
    [
        rho,
        rho * u,
        rho * v,
        p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v),
    ]
}

/// Result of a CFD run.
#[derive(Clone, Debug)]
pub struct CfdResult {
    /// Final conserved-state grid (row-major), `None` on non-root ranks.
    pub grid: Option<Vec<Cell>>,
    /// Physical time reached.
    pub time: f64,
}

/// Version 1: shared-memory solver (grid ops + wave-speed reduction).
pub fn cfd_shared(spec: &CfdSpec, init: impl Fn(usize, usize) -> Cell) -> CfdResult {
    let (nx, ny) = (spec.nx, spec.ny);
    let (dx, dy) = spec.dx();
    let mut u: Vec<Cell> = (0..nx * ny).map(|k| init(k / ny, k % ny)).collect();
    let mut time = 0.0;

    for _ in 0..spec.steps {
        // Reduction: global maximum wave speed (exact max => deterministic).
        let smax = parfor_reduce(nx * ny, 0.0f64, |k| wave_speed(&u[k]), f64::max);
        let dt = spec.cfl * dx.min(dy) / smax;
        let (lx, ly) = (dt / dx, dt / dy);
        // Grid op: Lax–Friedrichs update of the interior.
        u = parfor_map(nx * ny, |k| {
            let (i, j) = (k / ny, k % ny);
            if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                u[k] // fixed boundary state
            } else {
                lxf_update(&u[k - ny], &u[k + ny], &u[k - 1], &u[k + 1], lx, ly)
            }
        });
        time += dt;
    }
    CfdResult {
        grid: Some(u),
        time,
    }
}

/// Version 2: SPMD solver over a block distribution on the
/// [`run_stencil`] skeleton: the wave-speed max-reduction for the CFL
/// time step (before the exchange), the Lax–Friedrichs grid op, and a
/// broadcast of the new `time` from rank 0 that keeps it copy-consistent
/// the archetype way. Bitwise-agrees with version 1; returns the gathered
/// grid on rank 0.
pub fn cfd_spmd(
    ctx: &mut Ctx,
    spec: &CfdSpec,
    pgrid: ProcessGrid2,
    init: impl Fn(usize, usize) -> Cell,
) -> CfdResult {
    let mut lxf = LaxFriedrichs {
        spec,
        dt: 0.0,
        time: 0.0,
    };
    let (grid, _) = run_stencil(ctx, &mut lxf, pgrid, [spec.nx, spec.ny], spec.steps, init);
    CfdResult {
        grid,
        time: lxf.time,
    }
}

/// The Lax–Friedrichs scheme as a [`Stencil`].
struct LaxFriedrichs<'a> {
    spec: &'a CfdSpec,
    /// This step's time step, from the global wave speed.
    dt: f64,
    /// The copy-consistent physical time.
    time: f64,
}

impl Stencil for LaxFriedrichs<'_> {
    type Cell = Cell;
    const GHOST: usize = 1;
    const FIXED: [usize; 2] = [1, 1];
    const FLOPS: f64 = 60.0;

    fn open(&self, grid: &Block2<Cell>) -> Option<(f64, f64)> {
        let smax = grid.fold_interior(0.0f64, |a, c| a.max(wave_speed(&c)));
        Some((smax, 12.0))
    }

    fn opened(&mut self, smax: f64) {
        let (dx, dy) = self.spec.dx();
        self.dt = self.spec.cfl * dx.min(dy) / smax;
    }

    fn update_row(&self, rows: Rows<'_, Cell>, out: &mut [Cell], _: &mut [f64; LANES]) {
        let (dx, dy) = self.spec.dx();
        let (lx, ly) = (self.dt / dx, self.dt / dy);
        // Along i (`w`/`e`) the rows above and below; along j the row.
        let (west, east, row) = (rows.at(-1, 0), rows.at(1, 0), rows.at(0, 1));
        for (c, o) in out.iter_mut().enumerate() {
            *o = lxf_update(&west[c], &east[c], &row[c], &row[c + 2], lx, ly);
        }
    }

    fn close(&self, _: [f64; LANES]) -> Option<Collective> {
        Some(Collective::FromRoot(self.time + self.dt))
    }

    fn closed(&mut self, time: f64) {
        self.time = time;
    }
}

/// Density field extracted from a conserved-state grid.
pub fn density_field(grid: &[Cell]) -> Vec<f64> {
    grid.iter().map(|c| c[0]).collect()
}

/// Vorticity `ω = ∂v/∂x − ∂u/∂y` by central differences on the gathered
/// grid (one-sided at the boundary omitted: boundary cells report 0).
pub fn vorticity_field(grid: &[Cell], nx: usize, ny: usize, dx: f64, dy: f64) -> Vec<f64> {
    let vel = |k: usize| (grid[k][1] / grid[k][0], grid[k][2] / grid[k][0]);
    let mut out = vec![0.0; nx * ny];
    for i in 1..nx - 1 {
        for j in 1..ny - 1 {
            let k = i * ny + j;
            let (_, v_e) = vel(k + ny);
            let (_, v_w) = vel(k - ny);
            let (u_n, _) = vel(k + 1);
            let (u_s, _) = vel(k - 1);
            out[k] = (v_e - v_w) / (2.0 * dx) - (u_n - u_s) / (2.0 * dy);
        }
    }
    out
}

/// Modeled sequential flop cost per step (reduction sweep + update sweep).
pub fn cfd_step_flops(nx: usize, ny: usize) -> f64 {
    (12.0 + 60.0) * (nx * ny) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    fn small_spec(steps: usize) -> CfdSpec {
        CfdSpec {
            nx: 24,
            ny: 12,
            lx: 1.0,
            ly: 0.5,
            cfl: 0.4,
            steps,
        }
    }

    #[test]
    fn primitive_conversion_round_trips() {
        let c = prim_to_cons(1.4, 0.3, -0.2, 2.0);
        assert!((c[0] - 1.4).abs() < 1e-12);
        assert!((pressure(&c) - 2.0).abs() < 1e-12);
        assert!((c[1] / c[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn uniform_state_is_a_fixed_point() {
        let spec = small_spec(5);
        let res = cfd_shared(&spec, |_, _| prim_to_cons(1.0, 0.1, 0.0, 1.0));
        let grid = res.grid.unwrap();
        let reference = prim_to_cons(1.0, 0.1, 0.0, 1.0);
        for c in &grid {
            for k in 0..4 {
                assert!((c[k] - reference[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shock_advances_rightward() {
        let spec = CfdSpec {
            nx: 100,
            ny: 8,
            lx: 1.0,
            ly: 0.1,
            cfl: 0.4,
            steps: 60,
        };
        let res = cfd_shared(&spec, |i, j| shock_sine_init(&spec, i, j));
        let grid = res.grid.unwrap();
        // Density at 26% of the domain should have risen well above the
        // pre-shock value: the (Lax-Friedrichs-smeared) shock has passed.
        let k = (26 * spec.ny) + spec.ny / 2;
        assert!(
            grid[k][0] > 1.4,
            "density {} at x=0.26 should show the shock",
            grid[k][0]
        );
        assert!(res.time > 0.0);
    }

    #[test]
    fn version2_agrees_bitwise_with_version1() {
        let spec = small_spec(8);
        let reference = cfd_shared(&spec, |i, j| shock_sine_init(&spec, i, j));
        for (px, py) in [(1, 1), (2, 2), (3, 1), (2, 3)] {
            let pg = ProcessGrid2::new(px, py);
            let out = run_spmd(pg.len(), MachineModel::ibm_sp(), move |ctx| {
                cfd_spmd(ctx, &spec, pg, |i, j| shock_sine_init(&spec, i, j))
            });
            let root = &out.results[0];
            assert_eq!(
                root.grid.as_ref().unwrap(),
                reference.grid.as_ref().unwrap(),
                "{px}x{py}"
            );
            assert_eq!(root.time, reference.time);
        }
    }

    #[test]
    fn pressure_and_density_stay_positive() {
        let spec = small_spec(40);
        let res = cfd_shared(&spec, |i, j| shock_sine_init(&spec, i, j));
        for c in res.grid.unwrap().iter() {
            assert!(c[0] > 0.0, "density must stay positive");
            assert!(pressure(c) > 0.0, "pressure must stay positive");
        }
    }

    #[test]
    fn vorticity_of_uniform_flow_is_zero() {
        let grid: Vec<Cell> = (0..10 * 10)
            .map(|_| prim_to_cons(1.0, 0.5, 0.2, 1.0))
            .collect();
        let w = vorticity_field(&grid, 10, 10, 0.1, 0.1);
        assert!(w.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn shock_interface_interaction_creates_vorticity() {
        // The physics of Figures 19/20: a shock crossing a density gradient
        // deposits vorticity (baroclinic generation).
        let spec = CfdSpec {
            nx: 80,
            ny: 40,
            lx: 1.0,
            ly: 0.5,
            cfl: 0.4,
            steps: 50,
        };
        let res = cfd_shared(&spec, |i, j| shock_sine_init(&spec, i, j));
        let grid = res.grid.unwrap();
        let (dx, dy) = spec.dx();
        let w = vorticity_field(&grid, spec.nx, spec.ny, dx, dy);
        let max_w = w.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!(max_w > 1e-3, "vorticity {max_w} should be generated");
    }
}
