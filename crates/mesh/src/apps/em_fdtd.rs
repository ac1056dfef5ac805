//! Electromagnetic scattering by 3-D FDTD (paper §3.7.2, Figure 17).
//!
//! The paper's code "performs numerical simulation of electromagnetic
//! scattering … using a finite difference time domain technique … based on
//! the three-dimensional mesh archetype". This kernel implements the Yee
//! FDTD scheme in normalized units (`c = 1`, `dx = 1`) on a cubic grid
//! with PEC-like boundaries (tangential E held at zero), a sinusoidal
//! point source, and the archetype's operations: interleaved ghost
//! exchanges of the E and H fields and an energy reduction.
//!
//! Figure 17's finding — performance *decreases* beyond ~16 processors
//! because the computation-to-communication ratio drops — is reproduced by
//! the virtual-time sweep in `archetype-bench`.

use archetype_mp::{Ctx, ProcessGrid3};

use crate::grid3::DistGrid3;

/// Simulation parameters.
#[derive(Clone, Copy)]
pub struct EmSpec {
    /// Grid extent per axis (cubic `n × n × n`).
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// Time step (stability requires `dt ≤ 1/√3` in normalized units).
    pub dt: f64,
    /// Source angular frequency.
    pub omega: f64,
    /// Monitor the field energy with a global reduction every step, as
    /// scattering codes do for observables. This is the archetype's
    /// reduction operation; its O(log P) critical path is part of what
    /// makes Figure 17's efficiency drop at high processor counts.
    pub monitor: bool,
}

impl EmSpec {
    /// A stable default: `dt = 0.5`, source period 20 steps, monitoring on.
    pub fn new(n: usize, steps: usize) -> Self {
        EmSpec {
            n,
            steps,
            dt: 0.5,
            omega: 2.0 * std::f64::consts::PI / 10.0,
            monitor: true,
        }
    }
}

/// The six Yee field components on the full (undistributed) grid —
/// version 1's state.
#[derive(Clone, Debug, PartialEq)]
pub struct YeeFields {
    /// Grid extent per axis.
    pub n: usize,
    /// Electric field components, row-major `n³`.
    pub ex: Vec<f64>,
    /// See [`YeeFields::ex`].
    pub ey: Vec<f64>,
    /// See [`YeeFields::ex`].
    pub ez: Vec<f64>,
    /// Magnetic field components, row-major `n³`.
    pub hx: Vec<f64>,
    /// See [`YeeFields::hx`].
    pub hy: Vec<f64>,
    /// See [`YeeFields::hx`].
    pub hz: Vec<f64>,
}

impl YeeFields {
    fn zeros(n: usize) -> Self {
        let z = vec![0.0; n * n * n];
        YeeFields {
            n,
            ex: z.clone(),
            ey: z.clone(),
            ez: z.clone(),
            hx: z.clone(),
            hy: z.clone(),
            hz: z,
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    /// Total field energy `Σ (E² + H²)`.
    pub fn energy(&self) -> f64 {
        let sq = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        sq(&self.ex) + sq(&self.ey) + sq(&self.ez) + sq(&self.hx) + sq(&self.hy) + sq(&self.hz)
    }
}

/// Version 1: full-grid Yee stepping. The loops are written identically
/// to the SPMD version so the two agree bitwise.
pub fn em_shared(spec: &EmSpec) -> YeeFields {
    let n = spec.n;
    let mut f = YeeFields::zeros(n);
    let dt = spec.dt;
    let src = (n / 2, n / 2, n / 2);

    let at = |v: &[f64], n: usize, i: isize, j: isize, k: isize| -> f64 {
        if i < 0 || j < 0 || k < 0 || i >= n as isize || j >= n as isize || k >= n as isize {
            0.0 // fields vanish outside (PEC box)
        } else {
            v[((i as usize) * n + j as usize) * n + k as usize]
        }
    };

    for step in 0..spec.steps {
        // H update (needs E at +1 offsets).
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    let id = f.idx(i, j, k);
                    f.hx[id] += dt
                        * ((at(&f.ey, n, ii, jj, kk + 1) - f.ey[id])
                            - (at(&f.ez, n, ii, jj + 1, kk) - f.ez[id]));
                    f.hy[id] += dt
                        * ((at(&f.ez, n, ii + 1, jj, kk) - f.ez[id])
                            - (at(&f.ex, n, ii, jj, kk + 1) - f.ex[id]));
                    f.hz[id] += dt
                        * ((at(&f.ex, n, ii, jj + 1, kk) - f.ex[id])
                            - (at(&f.ey, n, ii + 1, jj, kk) - f.ey[id]));
                }
            }
        }
        // E update (needs H at −1 offsets); tangential E on the global
        // boundary is held at zero (PEC).
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    let id = f.idx(i, j, k);
                    f.ex[id] += dt
                        * ((f.hz[id] - at(&f.hz, n, ii, jj - 1, kk))
                            - (f.hy[id] - at(&f.hy, n, ii, jj, kk - 1)));
                    f.ey[id] += dt
                        * ((f.hx[id] - at(&f.hx, n, ii, jj, kk - 1))
                            - (f.hz[id] - at(&f.hz, n, ii - 1, jj, kk)));
                    f.ez[id] += dt
                        * ((f.hy[id] - at(&f.hy, n, ii - 1, jj, kk))
                            - (f.hx[id] - at(&f.hx, n, ii, jj - 1, kk)));
                }
            }
        }
        // Soft source.
        let sid = f.idx(src.0, src.1, src.2);
        f.ez[sid] += (spec.omega * (step as f64 + 1.0) * dt).sin();
    }
    f
}

/// Version 2 result: the gathered fields on rank 0 (interior energies are
/// reduced on all ranks during the run).
#[derive(Clone, Debug)]
pub struct EmResult {
    /// Gathered `ez` field (row-major `n³`); `None` off-root.
    pub ez: Option<Vec<f64>>,
    /// Final total energy (consistent on every rank).
    pub energy: f64,
}

/// Version 2: SPMD Yee stepping over a 3-D block distribution.
///
/// Per step: exchange E ghosts, update H; exchange H ghosts, update E;
/// inject the source on the owning rank. Fields agree bitwise with
/// [`em_shared`].
pub fn em_spmd(ctx: &mut Ctx, spec: &EmSpec, pgrid: ProcessGrid3) -> EmResult {
    assert_eq!(pgrid.len(), ctx.nprocs());
    let n = spec.n;
    let dt = spec.dt;
    let rank = ctx.rank();
    let mk = || DistGrid3::from_global(rank, pgrid, n, n, n, 1, 0.0f64, |_, _, _| 0.0);
    let (mut ex, mut ey, mut ez) = (mk(), mk(), mk());
    let (mut hx, mut hy, mut hz) = (mk(), mk(), mk());
    let (nx, ny, nz) = ex.dims();
    let src = (n / 2, n / 2, n / 2);

    for step in 0..spec.steps {
        // E ghosts for the +1 reads of the H update.
        ex.exchange_ghosts(ctx);
        ey.exchange_ghosts(ctx);
        ez.exchange_ghosts(ctx);
        for i in 0..nx as isize {
            for j in 0..ny as isize {
                for k in 0..nz as isize {
                    let hx_v = hx.block.at(i, j, k)
                        + dt * ((ey.block.at(i, j, k + 1) - ey.block.at(i, j, k))
                            - (ez.block.at(i, j + 1, k) - ez.block.at(i, j, k)));
                    let hy_v = hy.block.at(i, j, k)
                        + dt * ((ez.block.at(i + 1, j, k) - ez.block.at(i, j, k))
                            - (ex.block.at(i, j, k + 1) - ex.block.at(i, j, k)));
                    let hz_v = hz.block.at(i, j, k)
                        + dt * ((ex.block.at(i, j + 1, k) - ex.block.at(i, j, k))
                            - (ey.block.at(i + 1, j, k) - ey.block.at(i, j, k)));
                    hx.block.set(i, j, k, hx_v);
                    hy.block.set(i, j, k, hy_v);
                    hz.block.set(i, j, k, hz_v);
                }
            }
        }
        ctx.charge_items(nx * ny * nz, 18.0);

        // H ghosts for the −1 reads of the E update.
        hx.exchange_ghosts(ctx);
        hy.exchange_ghosts(ctx);
        hz.exchange_ghosts(ctx);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    // Skip the global boundary (PEC).
                    let (gi, gj, gk) = (ex.x0 + i, ex.y0 + j, ex.z0 + k);
                    if gi == 0 || gj == 0 || gk == 0 || gi == n - 1 || gj == n - 1 || gk == n - 1 {
                        continue;
                    }
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    let ex_v = ex.block.at(ii, jj, kk)
                        + dt * ((hz.block.at(ii, jj, kk) - hz.block.at(ii, jj - 1, kk))
                            - (hy.block.at(ii, jj, kk) - hy.block.at(ii, jj, kk - 1)));
                    let ey_v = ey.block.at(ii, jj, kk)
                        + dt * ((hx.block.at(ii, jj, kk) - hx.block.at(ii, jj, kk - 1))
                            - (hz.block.at(ii, jj, kk) - hz.block.at(ii - 1, jj, kk)));
                    let ez_v = ez.block.at(ii, jj, kk)
                        + dt * ((hy.block.at(ii, jj, kk) - hy.block.at(ii - 1, jj, kk))
                            - (hx.block.at(ii, jj, kk) - hx.block.at(ii, jj - 1, kk)));
                    ex.block.set(ii, jj, kk, ex_v);
                    ey.block.set(ii, jj, kk, ey_v);
                    ez.block.set(ii, jj, kk, ez_v);
                }
            }
        }
        ctx.charge_items(nx * ny * nz, 18.0);

        // Observable monitoring: a per-step energy reduction.
        if spec.monitor {
            let sum_sq = |g: &DistGrid3<f64>| g.block.fold_interior(0.0, |a, v| a + v * v);
            let local =
                sum_sq(&ex) + sum_sq(&ey) + sum_sq(&ez) + sum_sq(&hx) + sum_sq(&hy) + sum_sq(&hz);
            ctx.charge_items(nx * ny * nz, 12.0);
            let _ = ctx.all_reduce(local, |a, b| a + b);
        }

        // Source term on the owning rank.
        if src.0 >= ez.x0
            && src.0 < ez.x0 + nx
            && src.1 >= ez.y0
            && src.1 < ez.y0 + ny
            && src.2 >= ez.z0
            && src.2 < ez.z0 + nz
        {
            let (li, lj, lk) = (
                (src.0 - ez.x0) as isize,
                (src.1 - ez.y0) as isize,
                (src.2 - ez.z0) as isize,
            );
            let v = ez.block.at(li, lj, lk) + (spec.omega * (step as f64 + 1.0) * dt).sin();
            ez.block.set(li, lj, lk, v);
        }
    }

    // Energy reduction (all ranks hold the result).
    let sum_sq = |g: &DistGrid3<f64>| g.block.fold_interior(0.0, |a, v| a + v * v);
    let local = sum_sq(&ex) + sum_sq(&ey) + sum_sq(&ez) + sum_sq(&hx) + sum_sq(&hy) + sum_sq(&hz);
    let energy = ctx.all_reduce(local, |a, b| a + b);

    // Gather ez for field comparison/output.
    let gathered = ez.gather_global(ctx);
    EmResult {
        ez: gathered,
        energy,
    }
}

/// Modeled sequential flop cost per FDTD step (field updates plus, when
/// `monitor` is set, the energy-observable sweep).
pub fn em_step_flops(n: usize, monitor: bool) -> f64 {
    let per_cell = if monitor { 48.0 } else { 36.0 };
    per_cell * (n * n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn fields_stay_zero_without_source_energy() {
        // With no initial fields, all energy comes from the source.
        let spec = EmSpec {
            n: 8,
            steps: 0,
            dt: 0.5,
            omega: 1.0,
            monitor: false,
        };
        let f = em_shared(&spec);
        assert_eq!(f.energy(), 0.0);
    }

    #[test]
    fn source_radiates_energy_outward() {
        let spec = EmSpec::new(12, 20);
        let f = em_shared(&spec);
        assert!(f.energy() > 0.0);
        // A cell away from the source should have been reached.
        let c = 12 / 2;
        let probe = f.ez[f.idx(c + 3, c, c)];
        assert!(
            probe.abs() > 0.0,
            "wave should reach 3 cells away in 20 steps"
        );
    }

    #[test]
    fn simulation_is_stable_at_cfl_half() {
        let spec = EmSpec::new(10, 200);
        let f = em_shared(&spec);
        assert!(
            f.energy().is_finite() && f.energy() < 1e6,
            "energy {} must stay bounded",
            f.energy()
        );
    }

    #[test]
    fn spmd_matches_shared_bitwise() {
        let spec = EmSpec::new(8, 6);
        let reference = em_shared(&spec);
        for pg in [
            ProcessGrid3::new(1, 1, 1),
            ProcessGrid3::new(2, 1, 1),
            ProcessGrid3::new(2, 2, 1),
            ProcessGrid3::new(2, 2, 2),
        ] {
            let out = run_spmd(pg.len(), MachineModel::ibm_sp(), move |ctx| {
                em_spmd(ctx, &spec, pg)
            });
            let ez = out.results[0].ez.as_ref().expect("root gathers ez");
            assert_eq!(ez, &reference.ez, "pgrid {pg:?}");
            // Energy agrees to rounding (summation order differs).
            let e = out.results[0].energy;
            assert!((e - reference.energy()).abs() <= 1e-9 * reference.energy().max(1.0));
        }
    }

    #[test]
    fn energy_is_consistent_across_ranks() {
        let spec = EmSpec::new(8, 4);
        let pg = ProcessGrid3::new(2, 2, 1);
        let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
            em_spmd(ctx, &spec, pg).energy
        });
        assert!(out.results.iter().all(|&e| e == out.results[0]));
    }

    #[test]
    fn gather_global_reassembles_3d_grid() {
        let pg = ProcessGrid3::new(2, 1, 2);
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let g =
                crate::grid3::DistGrid3::from_global(ctx.rank(), pg, 4, 3, 4, 1, 0.0, |i, j, k| {
                    (i * 100 + j * 10 + k) as f64
                });
            g.gather_global(ctx)
        });
        let full = out.results[0].as_ref().unwrap();
        for i in 0..4 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(full[(i * 3 + j) * 4 + k], (i * 100 + j * 10 + k) as f64);
                }
            }
        }
    }
}
