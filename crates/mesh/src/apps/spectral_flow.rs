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

use archetype_mp::{Ctx, ProcessGrid2};
use archetype_numerics::{fft_flops, fft_in_place, Complex, Direction};

use crate::grid2::DistGrid2;

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
pub fn swirl_init(spec: &SwirlSpec, i: usize, j: usize) -> f64 {
    let r = spec.r(i);
    let theta = 2.0 * std::f64::consts::PI * j as f64 / spec.ntheta as f64;
    let band = (-(((r / spec.rmax) - 0.5) / 0.15).powi(2)).exp();
    band * (3.0 * theta).sin()
}

/// Spectral ∂/∂θ of one periodic line (length must be a power of two).
/// Returns the derivative with the same length.
pub fn dtheta_spectral(row: &[f64]) -> Vec<f64> {
    let n = row.len();
    let mut buf: Vec<Complex> = row.iter().map(|&v| Complex::from_re(v)).collect();
    fft_in_place(&mut buf, Direction::Forward);
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
    fft_in_place(&mut buf, Direction::Inverse);
    buf.into_iter().map(|z| z.re).collect()
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

    for _ in 0..spec.steps {
        let mut un = u.clone();
        // Row op: spectral θ-derivative per radial line.
        let dudth: Vec<Vec<f64>> = (0..nr)
            .map(|i| dtheta_spectral(&u[i * nt..(i + 1) * nt]))
            .collect();
        // Grid op: advance the interior (radial lines 2..nr−2 use the full
        // five-point stencil; lines 0, 1, nr−2, nr−1 are held fixed, the
        // outer two acting as boundary conditions).
        #[allow(clippy::needless_range_loop)] // i/j index multiple grids
        for i in 2..nr - 2 {
            let r = spec.r(i);
            let om = spec.omega(r);
            for j in 0..nt {
                let k = i * nt + j;
                let diff = d2_4th(u[k - 2 * nt], u[k - nt], u[k], u[k + nt], u[k + 2 * nt], dr);
                un[k] = u[k] + spec.dt * (-om * dudth[i][j] + spec.nu * diff);
            }
        }
        u = un;
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

/// Version 2: SPMD stepping over radial blocks (process grid `p × 1`)
/// with ghost width 2 and a radial ghost exchange per step. Returns the
/// gathered field on rank 0. Declares its working set so machine models
/// with finite memory reproduce Figure 18's paging regime.
pub fn swirl_spmd(ctx: &mut Ctx, spec: &SwirlSpec) -> Option<Vec<f64>> {
    let p = ctx.nprocs();
    let pgrid = ProcessGrid2::new(p, 1);
    let (nr, nt) = (spec.nr, spec.ntheta);
    let dr = spec.dr();
    ctx.set_working_set(working_set_bytes(spec, p));

    let mut u = DistGrid2::from_global(ctx.rank(), pgrid, nr, nt, 2, 0.0, |i, j| {
        swirl_init(spec, i, j)
    });
    let local_rows = u.nx();

    for _ in 0..spec.steps {
        u.exchange_ghosts(ctx);
        let mut un = u.clone();
        // Row op: spectral derivative of each local radial line.
        let mut dudth: Vec<Vec<f64>> = Vec::with_capacity(local_rows);
        for li in 0..local_rows {
            let row: Vec<f64> = (0..nt)
                .map(|j| u.block.at(li as isize, j as isize))
                .collect();
            dudth.push(dtheta_spectral(&row));
        }
        ctx.charge_flops(local_rows as f64 * 2.0 * fft_flops(nt));
        // Grid op: advance global-interior lines.
        #[allow(clippy::needless_range_loop)] // li indexes grid and dudth
        for li in 0..local_rows {
            let gi = u.x0 + li;
            if gi < 2 || gi >= nr - 2 {
                continue;
            }
            let r = spec.r(gi);
            let om = spec.omega(r);
            let i = li as isize;
            for j in 0..nt as isize {
                let diff = d2_4th(
                    u.block.at(i - 2, j),
                    u.block.at(i - 1, j),
                    u.block.at(i, j),
                    u.block.at(i + 1, j),
                    u.block.at(i + 2, j),
                    dr,
                );
                let jn = j as usize;
                un.block.set(
                    i,
                    j,
                    u.block.at(i, j) + spec.dt * (-om * dudth[li][jn] + spec.nu * diff),
                );
            }
        }
        ctx.charge_items(local_rows * nt, 12.0);
        u = un;
    }
    u.gather_global(ctx)
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
        let d = dtheta_spectral(&row);
        #[allow(clippy::needless_range_loop)] // j is also the angle index
        for j in 0..n {
            let theta = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
            let exact = 3.0 * (3.0 * theta).cos();
            assert!((d[j] - exact).abs() < 1e-9, "j={j}: {} vs {exact}", d[j]);
        }
    }

    #[test]
    fn spectral_derivative_of_constant_is_zero() {
        let d = dtheta_spectral(&[2.5; 16]);
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
