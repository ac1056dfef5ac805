//! Distributed 2-D grids with ghost-boundary exchange.
//!
//! A [`DistGrid2`] is one process's view of a global `NX × NY` grid
//! distributed in contiguous blocks over an `NPX × NPY` process grid
//! (paper §3.6.3). It pairs a [`Block2`] local section with the global
//! metadata needed to map local to global coordinates, exchange ghost
//! boundaries with the four neighbours (Figure 7), reduce over the whole
//! grid, and gather the global grid to one process for output.

use archetype_mp::topology::block_range;
use archetype_mp::{Ctx, FixedSize, ProcessGrid2};

use crate::block::Block2;

/// One process's block of a distributed 2-D grid.
#[derive(Clone, Debug)]
pub struct DistGrid2<T> {
    /// Global grid extent along `i`.
    pub global_nx: usize,
    /// Global grid extent along `j`.
    pub global_ny: usize,
    /// The process grid the data is distributed over.
    pub pgrid: ProcessGrid2,
    /// This process's rank.
    pub rank: usize,
    /// Global index of local interior cell `(0, 0)` along `i`.
    pub x0: usize,
    /// Global index of local interior cell `(0, 0)` along `j`.
    pub y0: usize,
    /// The local section (interior + ghosts).
    pub block: Block2<T>,
}

impl<T: FixedSize> DistGrid2<T> {
    /// Create the local block for `rank` of a `global_nx × global_ny` grid
    /// distributed over `pgrid`, with `g` ghost layers, filled with `fill`.
    pub fn new(
        rank: usize,
        pgrid: ProcessGrid2,
        global_nx: usize,
        global_ny: usize,
        g: usize,
        fill: T,
    ) -> Self {
        let (pi, pj) = pgrid.coords_of(rank);
        let (x0, nx) = block_range(global_nx, pgrid.px, pi);
        let (y0, ny) = block_range(global_ny, pgrid.py, pj);
        DistGrid2 {
            global_nx,
            global_ny,
            pgrid,
            rank,
            x0,
            y0,
            block: Block2::new(nx, ny, g, fill),
        }
    }

    /// Create and fill the interior from a function of *global* coordinates.
    pub fn from_global(
        rank: usize,
        pgrid: ProcessGrid2,
        global_nx: usize,
        global_ny: usize,
        g: usize,
        fill: T,
        f: impl Fn(usize, usize) -> T,
    ) -> Self {
        let mut grid = Self::new(rank, pgrid, global_nx, global_ny, g, fill);
        let (x0, y0) = (grid.x0, grid.y0);
        grid.block.fill_interior(|i, j| f(x0 + i, y0 + j));
        grid
    }

    /// Local interior extent along `i`.
    pub fn nx(&self) -> usize {
        self.block.nx
    }

    /// Local interior extent along `j`.
    pub fn ny(&self) -> usize {
        self.block.ny
    }

    /// True if local cell `(i, j)` lies on the *global* grid boundary.
    pub fn on_global_boundary(&self, i: usize, j: usize) -> bool {
        let gi = self.x0 + i;
        let gj = self.y0 + j;
        gi == 0 || gj == 0 || gi == self.global_nx - 1 || gj == self.global_ny - 1
    }

    /// Exchange ghost boundaries with the four neighbours (paper Figure 7).
    ///
    /// Sends the `g` interior layers adjacent to each side and receives the
    /// neighbour's into the ghost layers. Ghost cells on the global domain
    /// boundary are left untouched (applications impose their own boundary
    /// conditions there). Must be called by every rank of the process grid.
    pub fn exchange_ghosts(&mut self, ctx: &mut Ctx) {
        let tag = ctx.phase_tag();
        let g = self.block.g as isize;
        let (nx, ny) = (self.nx() as isize, self.ny() as isize);
        let north = self.pgrid.north(self.rank);
        let south = self.pgrid.south(self.rank);
        let west = self.pgrid.west(self.rank);
        let east = self.pgrid.east(self.rank);

        // Pack and send all four sides first (sends are buffered), then
        // receive — the standard deadlock-free exchange. North/south rows
        // hit `pack_into`'s contiguous memcpy path; west/east columns its
        // strided path.
        if let Some(nb) = north {
            let mut buf = Vec::with_capacity((g * ny) as usize);
            for l in 0..g {
                self.block.pack_into(l, 0, 0, 1, ny as usize, &mut buf);
            }
            ctx.send(nb, tag, buf);
        }
        if let Some(nb) = south {
            let mut buf = Vec::with_capacity((g * ny) as usize);
            for l in 0..g {
                self.block
                    .pack_into(nx - g + l, 0, 0, 1, ny as usize, &mut buf);
            }
            ctx.send(nb, tag | 1, buf);
        }
        if let Some(nb) = west {
            let mut buf = Vec::with_capacity((g * nx) as usize);
            for l in 0..g {
                self.block.pack_into(0, l, 1, 0, nx as usize, &mut buf);
            }
            ctx.send(nb, tag | 2, buf);
        }
        if let Some(nb) = east {
            let mut buf = Vec::with_capacity((g * nx) as usize);
            for l in 0..g {
                self.block
                    .pack_into(0, ny - g + l, 1, 0, nx as usize, &mut buf);
            }
            ctx.send(nb, tag | 3, buf);
        }

        // Receive: the neighbour's southern layers fill our northern ghosts
        // (their tag 1 arrives at us), and so on.
        if let Some(nb) = north {
            let buf: Vec<T> = ctx.recv(nb, tag | 1);
            for l in 0..g {
                let start = (l * ny) as usize;
                self.block
                    .unpack(-g + l, 0, 0, 1, &buf[start..start + ny as usize]);
            }
        }
        if let Some(nb) = south {
            let buf: Vec<T> = ctx.recv(nb, tag);
            for l in 0..g {
                let start = (l * ny) as usize;
                self.block
                    .unpack(nx + l, 0, 0, 1, &buf[start..start + ny as usize]);
            }
        }
        if let Some(nb) = west {
            let buf: Vec<T> = ctx.recv(nb, tag | 3);
            for l in 0..g {
                let start = (l * nx) as usize;
                self.block
                    .unpack(0, -g + l, 1, 0, &buf[start..start + nx as usize]);
            }
        }
        if let Some(nb) = east {
            let buf: Vec<T> = ctx.recv(nb, tag | 2);
            for l in 0..g {
                let start = (l * nx) as usize;
                self.block
                    .unpack(0, ny + l, 1, 0, &buf[start..start + nx as usize]);
            }
        }
    }

    /// Gather the global interior to rank 0, row-major `global_nx × global_ny`.
    /// Rank 0 returns `Some(grid)`, others `None`. Supports the archetype's
    /// sequential-in-one-process file I/O pattern.
    pub fn gather_global(&self, ctx: &mut Ctx) -> Option<Vec<T>>
    where
        T: Default,
    {
        let contributions = ctx.gather(0, self.block.interior());
        contributions.map(|parts| {
            let mut out = vec![T::default(); self.global_nx * self.global_ny];
            for (r, part) in parts.into_iter().enumerate() {
                let (pi, pj) = self.pgrid.coords_of(r);
                let (x0, nx) = block_range(self.global_nx, self.pgrid.px, pi);
                let (y0, ny) = block_range(self.global_ny, self.pgrid.py, pj);
                debug_assert_eq!(part.len(), nx * ny);
                for i in 0..nx {
                    let start = (x0 + i) * self.global_ny + y0;
                    out[start..start + ny].copy_from_slice(&part[i * ny..(i + 1) * ny]);
                }
            }
            out
        })
    }
}

impl DistGrid2<f64> {
    /// Reduce `map(cell)` over the whole grid's interior with the
    /// associative `op`, returning the result on every rank (implemented
    /// with recursive doubling; the paper's reduction postcondition: "all
    /// processes have access to its result").
    pub fn all_reduce_interior(
        &self,
        ctx: &mut Ctx,
        map: impl Fn(f64) -> f64,
        op: impl Fn(f64, f64) -> f64,
        identity: f64,
    ) -> f64 {
        let local = self.block.fold_interior(identity, |acc, v| op(acc, map(v)));
        ctx.all_reduce(local, &op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn block_layout_covers_global_grid_exactly() {
        let pg = ProcessGrid2::new(2, 3);
        let mut covered = vec![0u32; 7 * 11];
        for r in 0..pg.len() {
            let g = DistGrid2::new(r, pg, 7, 11, 1, 0.0f64);
            for i in 0..g.nx() {
                for j in 0..g.ny() {
                    covered[(g.x0 + i) * 11 + (g.y0 + j)] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "exact partition");
    }

    #[test]
    fn from_global_fills_with_global_coordinates() {
        let pg = ProcessGrid2::new(2, 2);
        let g = DistGrid2::from_global(3, pg, 8, 8, 1, 0.0, |i, j| (i * 100 + j) as f64);
        // Rank 3 is the (1,1) block: global offset (4,4).
        assert_eq!(g.x0, 4);
        assert_eq!(g.y0, 4);
        assert_eq!(g.block.at(0, 0), 404.0);
        assert_eq!(g.block.at(3, 3), 707.0);
    }

    #[test]
    fn ghost_exchange_delivers_neighbor_interiors() {
        let pg = ProcessGrid2::new(2, 2);
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let mut g =
                DistGrid2::from_global(ctx.rank(), pg, 8, 8, 1, -1.0, |i, j| (i * 10 + j) as f64);
            g.exchange_ghosts(ctx);
            g
        });
        // Rank 0 is block (0,0): its southern ghost row (i=4 in local
        // coords nx=4) must hold rank 2's first interior row (global i=4).
        let g0 = &out.results[0];
        for j in 0..4 {
            assert_eq!(g0.block.at(4, j as isize), (4 * 10 + j) as f64);
        }
        // Its eastern ghost column holds rank 1's first interior column.
        for i in 0..4 {
            assert_eq!(g0.block.at(i as isize, 4), (i * 10 + 4) as f64);
        }
        // Global-boundary ghosts are untouched.
        assert_eq!(g0.block.at(-1, 0), -1.0);
        assert_eq!(g0.block.at(0, -1), -1.0);
    }

    #[test]
    fn ghost_exchange_with_width_two() {
        let pg = ProcessGrid2::new(2, 1);
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            let mut g = DistGrid2::from_global(ctx.rank(), pg, 8, 4, 2, f64::NAN, |i, j| {
                (i * 100 + j) as f64
            });
            g.exchange_ghosts(ctx);
            g
        });
        let g0 = &out.results[0];
        // Rank 0's two southern ghost rows are rank 1's first two interior rows.
        for j in 0..4isize {
            assert_eq!(g0.block.at(4, j), (400 + j) as f64);
            assert_eq!(g0.block.at(5, j), (500 + j) as f64);
        }
        let g1 = &out.results[1];
        for j in 0..4isize {
            assert_eq!(g1.block.at(-2, j), (200 + j) as f64);
            assert_eq!(g1.block.at(-1, j), (300 + j) as f64);
        }
    }

    #[test]
    fn gather_global_reassembles_grid() {
        for (px, py) in [(1, 1), (2, 2), (3, 2)] {
            let pg = ProcessGrid2::new(px, py);
            let out = run_spmd(pg.len(), MachineModel::ibm_sp(), |ctx| {
                let g =
                    DistGrid2::from_global(ctx.rank(), pg, 9, 7, 1, 0.0, |i, j| (i * 7 + j) as f64);
                g.gather_global(ctx)
            });
            let global = out.results[0].as_ref().expect("rank 0 has the grid");
            let expected: Vec<f64> = (0..9 * 7).map(|k| k as f64).collect();
            assert_eq!(global, &expected, "{px}x{py}");
            for r in 1..pg.len() {
                assert!(out.results[r].is_none());
            }
        }
    }

    #[test]
    fn all_reduce_interior_computes_global_max() {
        let pg = ProcessGrid2::new(2, 2);
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let g = DistGrid2::from_global(ctx.rank(), pg, 6, 6, 1, 0.0, |i, j| (i * 6 + j) as f64);
            g.all_reduce_interior(ctx, |v| v, f64::max, f64::NEG_INFINITY)
        });
        for v in &out.results {
            assert_eq!(*v, 35.0);
        }
    }

    #[test]
    fn on_global_boundary_detection() {
        let pg = ProcessGrid2::new(2, 2);
        let g = DistGrid2::new(3, pg, 8, 8, 1, 0.0f64); // block (1,1)
        assert!(!g.on_global_boundary(0, 0)); // global (4,4)
        assert!(g.on_global_boundary(3, 0)); // global (7,4)
        assert!(g.on_global_boundary(0, 3)); // global (4,7)
    }
}
