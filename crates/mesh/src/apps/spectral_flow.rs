//! Axisymmetric swirling-flow spectral kernel (paper §3.7.3, Figures 18
//! and 21).
//!
//! The paper's code solves the incompressible Euler equations with
//! axisymmetry using "a Fourier spectral method in the periodic direction
//! and a fourth-order finite difference method in the radial direction",
//! on the two-dimensional spectral archetype. This kernel keeps exactly
//! that numerical structure on a reduced model problem: a passive swirl
//! perturbation `u(r, θ)` transported by a radius-dependent angular
//! velocity `Ω(r)` and diffused radially,
//!
//! ```text
//! ∂u/∂t = −Ω(r) ∂u/∂θ  +  ν ∂²u/∂r²
//! ```
//!
//! with the θ-derivative computed **spectrally** (FFT per radial line) and
//! the r-derivative with a **fourth-order five-point stencil** (hence a
//! ghost width of two). The radial lines are distributed in blocks over
//! the processes; the θ direction is kept local — the spectral archetype's
//! row distribution — so each step needs only a radial ghost exchange.
//!
//! Figure 18's *superlinear* small-P speedups came from paging at the base
//! configuration; the bench reproduces this with the machine memory model
//! via [`working_set_bytes`].

use archetype_core::parfor_map;
use archetype_mp::{Ctx, ProcessGrid2};
use archetype_numerics::{fft_flops, fft_in_place, Complex, Direction};

use crate::block::Block2;
use crate::skeleton::{run_stencil, Rows, Stencil, LANES};

/// Simulation parameters.
#[derive(Clone, Copy)]
pub struct SwirlSpec {
    /// Radial grid lines.
    pub nr: usize,
    /// Azimuthal points per line (power of two).
    pub ntheta: usize,
    /// Outer radius (domain is `r ∈ [0, rmax]`, θ ∈ `[0, 2π)`).
    pub rmax: f64,
    /// Kinematic viscosity.
    pub nu: f64,
    /// Time step.
    pub dt: f64,
    /// Number of steps.
    pub steps: usize,
}

impl SwirlSpec {
    /// Radial grid spacing.
    pub fn dr(&self) -> f64 {
        self.rmax / (self.nr - 1) as f64
    }

    /// Radius of line `i`.
    pub fn r(&self, i: usize) -> f64 {
        i as f64 * self.dr()
    }

    /// The swirl profile `Ω(r)`: solid-body rotation decaying outward.
    pub fn omega(&self, r: f64) -> f64 {
        let s = r / self.rmax;
        1.0 - s * s
    }
}

/// Initial perturbation: a smooth azimuthal wave localized mid-radius.
fn swirl_init(spec: &SwirlSpec, i: usize, j: usize) -> f64 {
    let r = spec.r(i);
    let theta = 2.0 * std::f64::consts::PI * j as f64 / spec.ntheta as f64;
    let band = (-(((r / spec.rmax) - 0.5) / 0.15).powi(2)).exp();
    band * (3.0 * theta).sin()
}

/// Spectral ∂/∂θ of one periodic line (length a power of two) into
/// `out`, transforming through the scratch line `buf`.
fn dtheta_spectral(row: &[f64], buf: &mut Vec<Complex>, out: &mut [f64]) {
    let n = row.len();
    buf.clear();
    buf.extend(row.iter().map(|&v| Complex::from_re(v)));
    fft_in_place(buf, Direction::Forward);
    for (k, z) in buf.iter_mut().enumerate() {
        // Wavenumber with negative frequencies in the upper half; the
        // Nyquist bin's derivative is zero for real signals.
        let kk = if k < n / 2 {
            k as f64
        } else if k == n / 2 {
            0.0
        } else {
            k as f64 - n as f64
        };
        *z *= Complex::new(0.0, kk);
    }
    fft_in_place(buf, Direction::Inverse);
    for (o, z) in out.iter_mut().zip(buf.iter()) {
        *o = z.re;
    }
}

/// Fourth-order second derivative stencil `(−f₋₂ + 16f₋₁ − 30f₀ + 16f₊₁ − f₊₂)/(12h²)`.
#[inline]
fn d2_4th(fm2: f64, fm1: f64, f0: f64, fp1: f64, fp2: f64, h: f64) -> f64 {
    (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
}

/// Version 1: full-grid stepping (row-major `nr × ntheta`).
pub fn swirl_shared(spec: &SwirlSpec) -> Vec<f64> {
    let (nr, nt) = (spec.nr, spec.ntheta);
    let dr = spec.dr();
    let mut u: Vec<f64> = (0..nr * nt)
        .map(|k| swirl_init(spec, k / nt, k % nt))
        .collect();
    let mut buf = Vec::with_capacity(nt);

    for _ in 0..spec.steps {
        // Row op: spectral θ-derivative per radial line.
        let mut dudth = vec![0.0; nr * nt];
        for (line, out) in u.chunks(nt).zip(dudth.chunks_mut(nt)) {
            dtheta_spectral(line, &mut buf, out);
        }
        // Grid op: advance the interior (radial lines 2..nr−2 use the full
        // five-point stencil; lines 0, 1, nr−2, nr−1 are held fixed, the
        // outer two acting as boundary conditions).
        u = parfor_map(nr * nt, |k| {
            let i = k / nt;
            if i < 2 || i >= nr - 2 {
                u[k]
            } else {
                let om = spec.omega(spec.r(i));
                let diff = d2_4th(u[k - 2 * nt], u[k - nt], u[k], u[k + nt], u[k + 2 * nt], dr);
                u[k] + spec.dt * (-om * dudth[k] + spec.nu * diff)
            }
        });
    }
    u
}

/// Per-process working set in bytes for `nr/p` radial lines: the field,
/// its next-step copy, and FFT scratch.
pub fn working_set_bytes(spec: &SwirlSpec, p: usize) -> f64 {
    let local_rows = spec.nr.div_ceil(p);
    // u + un + complex scratch (16 bytes/point) ≈ 4 doubles/point.
    4.0 * 8.0 * (local_rows * spec.ntheta) as f64
}

/// Version 2: SPMD stepping over radial blocks (process grid `p × 1`) on
/// the [`run_stencil`] skeleton: a radial ghost exchange of width 2, the
/// spectral θ-derivative of every local line (a row op), and the radial
/// grid op. Returns the gathered field on rank 0. Declares its working
/// set so machine models with finite memory reproduce Figure 18's paging
/// regime.
pub fn swirl_spmd(ctx: &mut Ctx, spec: &SwirlSpec) -> Option<Vec<f64>> {
    let p = ctx.nprocs();
    ctx.set_working_set(working_set_bytes(spec, p));
    let mut swirl = Swirl {
        spec,
        dudth: Vec::new(),
        buf: Vec::with_capacity(spec.ntheta),
    };
    let (pgrid, global) = (ProcessGrid2::new(p, 1), [spec.nr, spec.ntheta]);
    let init = |i, j| swirl_init(spec, i, j);
    run_stencil(ctx, &mut swirl, pgrid, global, spec.steps, init).0
}

/// The swirl kernel as a [`Stencil`].
struct Swirl<'a> {
    spec: &'a SwirlSpec,
    /// ∂u/∂θ of every local line, row-major.
    dudth: Vec<f64>,
    /// FFT scratch line.
    buf: Vec<Complex>,
}

impl Stencil for Swirl<'_> {
    type Cell = f64;
    const GHOST: usize = 2;
    const FIXED: [usize; 2] = [2, 0];
    const FLOPS: f64 = 12.0;

    fn row_op(&mut self, grid: &Block2<f64>) -> Option<f64> {
        let nt = self.spec.ntheta;
        self.dudth.resize(grid.nx * nt, 0.0);
        for (i, out) in self.dudth.chunks_mut(nt).enumerate() {
            let line = &grid.row(i as isize)[grid.g..grid.g + nt];
            dtheta_spectral(line, &mut self.buf, out);
        }
        Some(grid.nx as f64 * 2.0 * fft_flops(nt))
    }

    fn update_row(&self, rows: Rows<'_, f64>, out: &mut [f64], _: &mut [f64; LANES]) {
        let (s, nt) = (self.spec, self.spec.ntheta);
        let (dr, om) = (s.dr(), s.omega(s.r(rows.gi)));
        let dudth = &self.dudth[rows.i * nt..][..nt];
        let (m2, m1, mid) = (rows.at(-2, 0), rows.at(-1, 0), rows.at(0, 0));
        let (p1, p2) = (rows.at(1, 0), rows.at(2, 0));
        for (j, o) in out.iter_mut().enumerate() {
            let diff = d2_4th(m2[j], m1[j], mid[j], p1[j], p2[j], dr);
            *o = mid[j] + s.dt * (-om * dudth[j] + s.nu * diff);
        }
    }
}

/// The total azimuthal velocity field `u_θ(r, θ) = Ω(r)·r + u'` rendered
/// for Figure 21 from the evolved perturbation.
pub fn azimuthal_velocity(spec: &SwirlSpec, u: &[f64]) -> Vec<f64> {
    let nt = spec.ntheta;
    u.iter()
        .enumerate()
        .map(|(k, v)| {
            let r = spec.r(k / nt);
            spec.omega(r) * r + v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    fn small_spec(steps: usize) -> SwirlSpec {
        SwirlSpec {
            nr: 24,
            ntheta: 32,
            rmax: 1.0,
            nu: 1e-3,
            dt: 5e-4,
            steps,
        }
    }

    #[test]
    fn spectral_derivative_of_sine_is_cosine() {
        let n = 64;
        let row: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64).sin())
            .collect();
        let mut d = vec![0.0; n];
        dtheta_spectral(&row, &mut Vec::new(), &mut d);
        #[allow(clippy::needless_range_loop)] // j is also the angle index
        for j in 0..n {
            let theta = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
            let exact = 3.0 * (3.0 * theta).cos();
            assert!((d[j] - exact).abs() < 1e-9, "j={j}: {} vs {exact}", d[j]);
        }
    }

    #[test]
    fn spectral_derivative_of_constant_is_zero() {
        let mut d = [1.0; 16];
        dtheta_spectral(&[2.5; 16], &mut Vec::new(), &mut d);
        assert!(d.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn pure_advection_preserves_amplitude() {
        // With ν = 0 the perturbation is only rotated, so its max stays put
        // (up to time discretization error).
        let mut spec = small_spec(50);
        spec.nu = 0.0;
        let u = swirl_shared(&spec);
        let mx = u.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!((mx - 1.0).abs() < 0.05, "max {mx} should stay near 1");
    }

    #[test]
    fn diffusion_damps_the_field() {
        let mut spec = small_spec(100);
        spec.nu = 5e-2;
        let u0: Vec<f64> = (0..spec.nr * spec.ntheta)
            .map(|k| swirl_init(&spec, k / spec.ntheta, k % spec.ntheta))
            .collect();
        let e0: f64 = u0.iter().map(|v| v * v).sum();
        let u = swirl_shared(&spec);
        let e1: f64 = u.iter().map(|v| v * v).sum();
        assert!(e1 < e0, "viscosity must dissipate energy: {e1} !< {e0}");
    }

    #[test]
    fn spmd_matches_shared_bitwise() {
        let spec = small_spec(10);
        let reference = swirl_shared(&spec);
        for p in [1usize, 2, 3, 4] {
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| swirl_spmd(ctx, &spec));
            let got = out.results[0].as_ref().expect("rank 0 gathers");
            assert_eq!(got, &reference, "p={p}");
        }
    }

    #[test]
    fn azimuthal_velocity_adds_base_swirl() {
        let spec = small_spec(0);
        let u = vec![0.0; spec.nr * spec.ntheta];
        let v = azimuthal_velocity(&spec, &u);
        // At r = rmax/2 the base swirl is Ω(r)·r = (1−0.25)·0.5 = 0.375.
        let i = (spec.nr - 1) / 2;
        let r = spec.r(i);
        let expected = spec.omega(r) * r;
        assert!((v[i * spec.ntheta] - expected).abs() < 1e-12);
    }

    #[test]
    fn working_set_shrinks_with_process_count() {
        let spec = small_spec(1);
        assert!(working_set_bytes(&spec, 1) > working_set_bytes(&spec, 4));
        assert!(working_set_bytes(&spec, 4) >= working_set_bytes(&spec, 8));
    }

    #[test]
    fn memory_pressure_produces_superlinear_speedup() {
        // Figure 18's effect: if one process's working set exceeds memory,
        // P processes can be more than P times faster.
        let spec = SwirlSpec {
            nr: 64,
            ntheta: 64,
            rmax: 1.0,
            nu: 1e-3,
            dt: 1e-4,
            steps: 3,
        };
        let capacity = working_set_bytes(&spec, 4) * 1.2; // 4 procs fit, 1 doesn't
        let model = MachineModel::ibm_sp_with_memory(capacity, 4.0);
        let t1 = run_spmd(1, model, move |ctx| {
            swirl_spmd(ctx, &spec);
        })
        .elapsed_virtual;
        let t4 = run_spmd(4, model, move |ctx| {
            swirl_spmd(ctx, &spec);
        })
        .elapsed_virtual;
        let speedup = t1 / t4;
        assert!(
            speedup > 4.0,
            "speedup {speedup} should be superlinear under paging"
        );
    }
}
