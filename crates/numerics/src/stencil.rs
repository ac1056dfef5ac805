//! The finite-difference stencil of the grid applications.

/// Five-point Jacobi update for the Poisson problem `∇²u = f`
/// (paper §3.6): `u' = (u_W + u_E + u_S + u_N − h²·f) / 4`.
#[inline]
pub fn jacobi_update(h2f: f64, w: f64, e: f64, s: f64, n: f64) -> f64 {
    0.25 * (w + e + s + n - h2f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_fixed_point_of_harmonic_function() {
        // u(x,y) = x + y is harmonic: the Jacobi update with f = 0 leaves
        // interior values unchanged on a uniform grid.
        let h = 0.1;
        let u = |x: f64, y: f64| x + y;
        let (x, y) = (0.5, 0.3);
        let updated = jacobi_update(0.0, u(x - h, y), u(x + h, y), u(x, y - h), u(x, y + h));
        assert!((updated - u(x, y)).abs() < 1e-12);
    }
}
