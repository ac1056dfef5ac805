//! Airshed photochemical smog model (paper §3.7.4).
//!
//! The paper's CIT airshed code "models smog in the Los Angeles basin" and
//! is "conceptually based on the mesh-spectral archetype". This kernel
//! keeps the archetype-relevant structure of such a model: a 2-D grid of
//! species concentrations transported by a wind field (upwind advection +
//! diffusion, a ghost-exchange grid op), stiff-ish local photochemistry
//! integrated cell-by-cell (a pure grid op), point emissions, and
//! reductions (peak ozone) feeding global diagnostics.
//!
//! Chemistry: the classic NO/NO₂/O₃ photo-stationary cycle
//!
//! ```text
//! NO₂ + hν → NO + O₃        (rate j)
//! NO + O₃ → NO₂             (rate k)
//! ```

use archetype_core::{parfor_map, parfor_reduce};
use archetype_mp::{Ctx, ProcessGrid2};

use crate::skeleton::{run_stencil, Collective, Rows, Stencil, LANES};

/// Species concentrations per cell: `[NO, NO₂, O₃]`.
pub type Conc = [f64; 3];

/// Model parameters.
#[derive(Clone, Copy)]
pub struct AirshedSpec {
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Wind velocity (cells/time, constant; `|u|·dt ≤ 1` for stability).
    pub wind: (f64, f64),
    /// Diffusion coefficient (cell units).
    pub diffusion: f64,
    /// Photolysis rate `j` (NO₂ → NO + O₃).
    pub j_rate: f64,
    /// Titration rate `k` (NO + O₃ → NO₂).
    pub k_rate: f64,
    /// Time step.
    pub dt: f64,
    /// Number of steps.
    pub steps: usize,
    /// Emission source: cell and NO emission rate.
    pub source: (usize, usize, f64),
}

/// One forward-Euler chemistry update of a single cell.
#[inline]
fn chemistry_step(c: Conc, j: f64, k: f64, dt: f64) -> Conc {
    let photolysis = j * c[1];
    let titration = k * c[0] * c[2];
    [
        c[0] + dt * (photolysis - titration),
        c[1] + dt * (titration - photolysis),
        c[2] + dt * (photolysis - titration),
    ]
}

/// First-order upwind advection + diffusion update of one cell from its
/// four neighbours (`w`/`e` along x, `s`/`n` along y).
#[inline]
fn transport_update(c: Conc, [w, e, s, n]: [Conc; 4], spec: &AirshedSpec) -> Conc {
    let (wind, d, dt) = (spec.wind, spec.diffusion, spec.dt);
    let mut out = [0.0; 3];
    for sp in 0..3 {
        let adv_x = if wind.0 >= 0.0 {
            wind.0 * (c[sp] - w[sp])
        } else {
            wind.0 * (e[sp] - c[sp])
        };
        let adv_y = if wind.1 >= 0.0 {
            wind.1 * (c[sp] - s[sp])
        } else {
            wind.1 * (n[sp] - c[sp])
        };
        let diff = d * (w[sp] + e[sp] + s[sp] + n[sp] - 4.0 * c[sp]);
        out[sp] = c[sp] + dt * (-adv_x - adv_y + diff);
    }
    out
}

/// Background initial condition: clean air with a little NO₂ and O₃.
fn background() -> Conc {
    [0.01, 0.05, 0.03]
}

/// Result of an airshed run.
#[derive(Clone, Debug)]
pub struct AirshedResult {
    /// Final concentration grid (row-major), `None` off-root in SPMD runs.
    pub grid: Option<Vec<Conc>>,
    /// Peak O₃ concentration over the run (sampled each step).
    pub peak_o3: f64,
}

/// Version 1: shared-memory stepping.
pub fn airshed_shared(spec: &AirshedSpec) -> AirshedResult {
    let (nx, ny) = (spec.nx, spec.ny);
    let mut c: Vec<Conc> = vec![background(); nx * ny];
    let mut peak = 0.0f64;

    for _ in 0..spec.steps {
        // Grid op: transport (boundary cells held fixed — clean inflow).
        let cn: Vec<Conc> = {
            let c = &c;
            parfor_map(nx * ny, |k| {
                let (i, j) = (k / ny, k % ny);
                if i == 0 || j == 0 || i == nx - 1 || j == ny - 1 {
                    c[k]
                } else {
                    transport_update(c[k], [c[k - ny], c[k + ny], c[k - 1], c[k + 1]], spec)
                }
            })
        };
        // Grid op: chemistry + emissions (pointwise).
        let src_k = spec.source.0 * ny + spec.source.1;
        let mut cn: Vec<Conc> = {
            let cn = &cn;
            parfor_map(nx * ny, |k| {
                chemistry_step(cn[k], spec.j_rate, spec.k_rate, spec.dt)
            })
        };
        cn[src_k][0] += spec.dt * spec.source.2;
        c = cn;
        // Reduction: peak ozone.
        let o3max = {
            let c = &c;
            parfor_reduce(nx * ny, 0.0f64, |k| c[k][2], f64::max)
        };
        peak = peak.max(o3max);
    }
    AirshedResult {
        grid: Some(c),
        peak_o3: peak,
    }
}

/// Version 2: SPMD stepping over a block distribution on the
/// [`run_stencil`] skeleton; bitwise-agrees with version 1. Its grid op
/// (transport, chemistry, emission) writes every cell: the chemistry also
/// advances the global boundary, which only the transport holds fixed.
/// Returns the gathered grid on rank 0; `peak_o3` is consistent on every
/// rank.
pub fn airshed_spmd(ctx: &mut Ctx, spec: &AirshedSpec, pgrid: ProcessGrid2) -> AirshedResult {
    let mut smog = Smog { spec, peak: 0.0 };
    let global = [spec.nx, spec.ny];
    let (grid, _) = run_stencil(ctx, &mut smog, pgrid, global, spec.steps, |_, _| {
        background()
    });
    AirshedResult {
        grid,
        peak_o3: smog.peak,
    }
}

/// The airshed model as a [`Stencil`].
struct Smog<'a> {
    spec: &'a AirshedSpec,
    /// The copy-consistent peak O₃ over the steps so far.
    peak: f64,
}

impl Stencil for Smog<'_> {
    type Cell = Conc;
    const GHOST: usize = 1;
    const FIXED: [usize; 2] = [0, 0];
    const FLOPS: f64 = 30.0;

    fn update_row(&self, rows: Rows<'_, Conc>, out: &mut [Conc], lanes: &mut [f64; LANES]) {
        let s = self.spec;
        let (west, east, row) = (rows.at(-1, 0), rows.at(1, 0), rows.at(0, 1));
        let edge_row = rows.gi == 0 || rows.gi == s.nx - 1;
        for (c, o) in out.iter_mut().enumerate() {
            let gj = rows.gj + c;
            // Transport holds the global boundary fixed (clean inflow).
            let moved = if edge_row || gj == 0 || gj == s.ny - 1 {
                row[c + 1]
            } else {
                transport_update(row[c + 1], [west[c], east[c], row[c], row[c + 2]], s)
            };
            let mut v = chemistry_step(moved, s.j_rate, s.k_rate, s.dt);
            if (rows.gi, gj) == (s.source.0, s.source.1) {
                v[0] += s.dt * s.source.2;
            }
            lanes[0] = lanes[0].max(v[2]);
            *o = v;
        }
    }

    fn close(&self, lanes: [f64; LANES]) -> Option<Collective> {
        Some(Collective::Max(lanes.into_iter().fold(0.0, f64::max)))
    }

    fn closed(&mut self, o3max: f64) {
        self.peak = self.peak.max(o3max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    fn small_spec(steps: usize) -> AirshedSpec {
        AirshedSpec {
            nx: 20,
            ny: 16,
            wind: (0.4, 0.1),
            diffusion: 0.05,
            j_rate: 0.3,
            k_rate: 2.0,
            dt: 0.2,
            steps,
            source: (5, 8, 0.5),
        }
    }

    #[test]
    fn chemistry_conserves_nox_and_approaches_photostationary_state() {
        // NOx = NO + NO2 is invariant; the O3/NO/NO2 ratio approaches
        // j/k = [NO][O3]/[NO2].
        let (j, k, dt) = (0.3, 2.0, 0.05);
        let mut c = [0.2, 0.3, 0.1];
        let nox0 = c[0] + c[1];
        for _ in 0..10_000 {
            c = chemistry_step(c, j, k, dt);
        }
        assert!((c[0] + c[1] - nox0).abs() < 1e-9, "NOx conserved");
        let ratio = c[0] * c[2] / c[1];
        assert!(
            (ratio - j / k).abs() < 1e-6,
            "photostationary ratio {ratio} vs {}",
            j / k
        );
    }

    #[test]
    fn chemistry_keeps_concentrations_non_negative() {
        let mut c = [0.0, 0.5, 0.0];
        for _ in 0..1000 {
            c = chemistry_step(c, 0.3, 2.0, 0.1);
            assert!(c.iter().all(|&v| v >= 0.0), "{c:?}");
        }
    }

    #[test]
    fn transport_preserves_uniform_fields() {
        let u = background();
        let spec = AirshedSpec {
            wind: (0.5, -0.3),
            diffusion: 0.1,
            dt: 0.2,
            ..small_spec(1)
        };
        let next = transport_update(u, [u; 4], &spec);
        for sp in 0..3 {
            assert!((next[sp] - u[sp]).abs() < 1e-15);
        }
    }

    #[test]
    fn plume_advects_downwind() {
        let spec = small_spec(60);
        let res = airshed_shared(&spec);
        let grid = res.grid.unwrap();
        let (si, sj, _) = spec.source;
        // NO concentration downwind (larger i and j) of the source should
        // exceed the upwind side.
        let down = grid[(si + 5) * spec.ny + sj + 1][0];
        let up = grid[(si - 4) * spec.ny + sj - 2][0];
        assert!(down > up, "downwind NO {down} should exceed upwind {up}");
    }

    #[test]
    fn emissions_raise_peak_ozone() {
        let mut quiet = small_spec(80);
        quiet.source.2 = 0.0;
        let base = airshed_shared(&quiet);
        let polluted = airshed_shared(&small_spec(80));
        assert!(
            polluted.peak_o3 >= base.peak_o3,
            "{} should be at least the clean-run peak {}",
            polluted.peak_o3,
            base.peak_o3
        );
    }

    #[test]
    fn version2_agrees_bitwise_with_version1() {
        let spec = small_spec(12);
        let reference = airshed_shared(&spec);
        for (px, py) in [(1, 1), (2, 2), (4, 1), (2, 3)] {
            let pg = ProcessGrid2::new(px, py);
            let out = run_spmd(pg.len(), MachineModel::ibm_sp(), move |ctx| {
                airshed_spmd(ctx, &spec, pg)
            });
            let root = &out.results[0];
            assert_eq!(
                root.grid.as_ref().unwrap(),
                reference.grid.as_ref().unwrap(),
                "{px}x{py}"
            );
            for r in &out.results {
                assert_eq!(r.peak_o3, reference.peak_o3, "peak O3 consistent");
            }
        }
    }
}
