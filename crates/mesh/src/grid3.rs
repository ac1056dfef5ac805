//! Distributed 3-D grids with ghost-boundary exchange — the substrate of
//! the electromagnetic scattering (FDTD) application, which the paper
//! bases on "the three-dimensional mesh archetype" (§3.7.2).

use archetype_mp::topology::block_range;
use archetype_mp::{Ctx, FixedSize, ProcessGrid3};

use crate::block::Block3;

/// One process's block of a distributed 3-D grid.
#[derive(Clone, Debug)]
pub struct DistGrid3<T> {
    /// Global extent along `i`.
    pub global_nx: usize,
    /// Global extent along `j`.
    pub global_ny: usize,
    /// Global extent along `k`.
    pub global_nz: usize,
    /// The process grid.
    pub pgrid: ProcessGrid3,
    /// This process's rank.
    pub rank: usize,
    /// Global index of local `(0,0,0)` along `i`.
    pub x0: usize,
    /// Global index of local `(0,0,0)` along `j`.
    pub y0: usize,
    /// Global index of local `(0,0,0)` along `k`.
    pub z0: usize,
    /// The local section (interior + ghosts).
    pub block: Block3<T>,
}

impl<T: FixedSize> DistGrid3<T> {
    /// The local block for `rank`, with `g` ghost layers filled with
    /// `fill` and the interior filled from a function of global
    /// coordinates.
    #[allow(clippy::too_many_arguments)]
    pub fn from_global(
        rank: usize,
        pgrid: ProcessGrid3,
        global_nx: usize,
        global_ny: usize,
        global_nz: usize,
        g: usize,
        fill: T,
        f: impl Fn(usize, usize, usize) -> T,
    ) -> Self {
        let (pi, pj, pk) = pgrid.coords_of(rank);
        let (x0, nx) = block_range(global_nx, pgrid.px, pi);
        let (y0, ny) = block_range(global_ny, pgrid.py, pj);
        let (z0, nz) = block_range(global_nz, pgrid.pz, pk);
        let mut block = Block3::new(nx, ny, nz, g, fill);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let v = f(x0 + i, y0 + j, z0 + k);
                    block.set(i as isize, j as isize, k as isize, v);
                }
            }
        }
        DistGrid3 {
            global_nx,
            global_ny,
            global_nz,
            pgrid,
            rank,
            x0,
            y0,
            z0,
            block,
        }
    }

    /// Local interior extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.block.nx, self.block.ny, self.block.nz)
    }

    /// Exchange one ghost layer on all six faces with the face neighbours.
    ///
    /// Only `g = 1` exchanges are implemented (sufficient for the Yee
    /// stencil); must be called by every rank.
    pub fn exchange_ghosts(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.block.g, 1, "3-D exchange supports ghost width 1");
        let tag = ctx.phase_tag();
        let dims = [
            self.block.nx as isize,
            self.block.ny as isize,
            self.block.nz as isize,
        ];

        // Send the boundary plane toward each existing neighbour.
        #[allow(clippy::needless_range_loop)] // axis indexes dims
        for axis in 0..3usize {
            for dir_idx in [-1isize, 1] {
                if let Some(nb) = self.pgrid.neighbor(self.rank, axis, dir_idx) {
                    let plane = if dir_idx < 0 { 0 } else { dims[axis] - 1 };
                    let face = self.block.pack_face(axis, plane);
                    let code = (axis as u64) * 2 + u64::from(dir_idx > 0);
                    ctx.send(nb, tag | code, face);
                }
            }
        }
        // Receive each neighbour's opposite face into our ghost plane.
        #[allow(clippy::needless_range_loop)] // axis indexes dims
        for axis in 0..3usize {
            for dir_idx in [-1isize, 1] {
                if let Some(nb) = self.pgrid.neighbor(self.rank, axis, dir_idx) {
                    // Our -1 neighbour sent its +1 face (code axis*2+1).
                    let code = (axis as u64) * 2 + u64::from(dir_idx < 0);
                    let face: Vec<T> = ctx.recv(nb, tag | code);
                    let ghost_plane = if dir_idx < 0 { -1 } else { dims[axis] };
                    self.block.unpack_face(axis, ghost_plane, &face);
                }
            }
        }
    }
}

impl<T: FixedSize> DistGrid3<T> {
    /// Gather the global interior to rank 0, row-major
    /// `global_nx × global_ny × global_nz`. Rank 0 returns `Some`, others
    /// `None`.
    pub fn gather_global(&self, ctx: &mut Ctx) -> Option<Vec<T>>
    where
        T: Default,
    {
        let mut interior = Vec::with_capacity(self.block.nx * self.block.ny * self.block.nz);
        for i in 0..self.block.nx {
            for j in 0..self.block.ny {
                for k in 0..self.block.nz {
                    interior.push(self.block.at(i as isize, j as isize, k as isize));
                }
            }
        }
        let contributions = ctx.gather(0, interior);
        contributions.map(|parts| {
            let (gnx, gny, gnz) = (self.global_nx, self.global_ny, self.global_nz);
            let mut out = vec![T::default(); gnx * gny * gnz];
            for (r, part) in parts.into_iter().enumerate() {
                let (pi, pj, pk) = self.pgrid.coords_of(r);
                let (x0, nx) = block_range(gnx, self.pgrid.px, pi);
                let (y0, ny) = block_range(gny, self.pgrid.py, pj);
                let (z0, nz) = block_range(gnz, self.pgrid.pz, pk);
                debug_assert_eq!(part.len(), nx * ny * nz);
                let mut it = part.into_iter();
                for i in 0..nx {
                    for j in 0..ny {
                        for k in 0..nz {
                            out[((x0 + i) * gny + (y0 + j)) * gnz + (z0 + k)] =
                                it.next().expect("length checked");
                        }
                    }
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn blocks_partition_the_global_volume() {
        let pg = ProcessGrid3::new(2, 2, 2);
        let mut covered = vec![0u32; 6 * 6 * 6];
        for r in 0..8 {
            let g = DistGrid3::from_global(r, pg, 6, 6, 6, 1, 0.0f64, |_, _, _| 0.0);
            let (nx, ny, nz) = g.dims();
            for i in 0..nx {
                for j in 0..ny {
                    for k in 0..nz {
                        covered[((g.x0 + i) * 6 + (g.y0 + j)) * 6 + (g.z0 + k)] += 1;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn ghost_exchange_all_axes() {
        let pg = ProcessGrid3::new(2, 2, 2);
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let mut g = DistGrid3::from_global(ctx.rank(), pg, 4, 4, 4, 1, -1.0, |i, j, k| {
                (i * 100 + j * 10 + k) as f64
            });
            g.exchange_ghosts(ctx);
            g
        });
        // Rank 0 owns the (0,0,0) octant (local 2x2x2). Its +i ghost plane
        // must be rank 4's i=2 plane (global i=2).
        let g0 = &out.results[0];
        for j in 0..2isize {
            for k in 0..2isize {
                assert_eq!(g0.block.at(2, j, k), (200 + j * 10 + k) as f64);
                assert_eq!(g0.block.at(j, 2, k), (j * 100 + 20 + k) as f64);
                assert_eq!(g0.block.at(j, k, 2), (j * 100 + k * 10 + 2) as f64);
            }
        }
        // Domain-boundary ghosts untouched.
        assert_eq!(g0.block.at(-1, 0, 0), -1.0);
    }

    #[test]
    fn uneven_extents_are_blocked_correctly() {
        let pg = ProcessGrid3::new(3, 1, 1);
        let sizes: Vec<usize> = (0..3)
            .map(|r| {
                DistGrid3::from_global(r, pg, 7, 2, 2, 1, 0u8, |_, _, _| 0)
                    .dims()
                    .0
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }
}
