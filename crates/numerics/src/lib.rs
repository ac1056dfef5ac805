//! # archetype-numerics — numerical kernels for the archetype applications
//!
//! From-scratch numerical building blocks needed by the mesh-spectral
//! archetype applications of Massingill & Chandy (IPPS 1999):
//!
//! - [`complex`]: complex arithmetic (no external dependency),
//! - [`mod@fft`]: in-place iterative radix-2 Cooley–Tukey FFT with a naive-DFT
//!   oracle, used by the 2-D FFT and spectral-flow applications,
//! - [`stencil`]: the five-point Jacobi update of the Poisson
//!   application.

pub mod complex;
pub mod fft;
pub mod stencil;

pub use complex::Complex;
pub use fft::{dft_naive, fft, fft_flops, fft_in_place, ifft, Direction};
