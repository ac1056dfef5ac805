//! # archetype-mesh — the mesh-spectral archetype
//!
//! Implementation of §3 of Massingill & Chandy, "Parallel Program
//! Archetypes" (IPPS 1999): computations over N-dimensional grids built
//! from grid operations, row/column operations, reductions, and file I/O,
//! with the communication operations the archetype's dataflow requires —
//! boundary (ghost) exchange, grid redistribution, broadcast of globals,
//! and reductions.
//!
//! Substrate modules:
//! - [`block`]: local grid sections with ghost layers;
//! - [`grid2`] / [`grid3`]: block-distributed grids with ghost exchange
//!   and a gather to rank 0;
//! - [`skeleton`]: the one stencil loop every 2-D app runs on — two
//!   swapped buffers, ghost exchange, grid op, optional reduction, gather;
//! - [`redist`]: row/column distributions and the rows↔columns
//!   redistribution (Figure 6 of the paper);
//! - [`globals`]: replicated global variables with enforced copy
//!   consistency (only reductions and broadcasts may write);
//! - [`io`]: grid file output (PGM field snapshots).
//!
//! Applications, each in "version 1" shared-memory and "version 2" SPMD
//! form with equivalence tests: [`apps::fft2d`] (§3.5, Figures 10–12, on
//! [`redist`]); on [`skeleton`], [`apps::poisson`] (§3.6, Figures 13–15),
//! [`apps::cfd`] (§3.7.1, Figures 16, 19, 20), [`apps::spectral_flow`]
//! (§3.7.3, Figures 18, 21) and [`apps::airshed`] (§3.7.4); and the 3-D
//! [`apps::em_fdtd`] (§3.7.2, Figure 17, on [`grid3`]).

pub mod apps;
pub mod block;
pub mod globals;
pub mod grid2;
pub mod grid3;
pub mod io;
pub mod perfmodel;
pub mod redist;
pub mod skeleton;

pub use block::{Block2, Block3};
pub use globals::GlobalVar;
pub use grid2::DistGrid2;
pub use grid3::DistGrid3;
pub use redist::{cols_to_rows, rows_to_cols, ColDist, RowDist};
