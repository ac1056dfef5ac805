//! File input/output operations for grids (paper §3.1: "file input-output
//! operations which read or write values for a grid"; §3.2: "one
//! possibility is to operate on all data sequentially in a single
//! process").
//!
//! The output format is deliberately simple and dependency-free: binary
//! PGM (P5) images for field snapshots — how this reproduction renders
//! the paper's Figures 19–21.

use std::io::Write as _;
use std::path::Path;

/// Normalize a scalar field to 0..=255 and write it as a binary PGM image
/// (`nx` rows × `ny` columns, row-major).
pub fn write_pgm(path: &Path, data: &[f64], nx: usize, ny: usize) -> std::io::Result<()> {
    assert_eq!(data.len(), nx * ny, "field size must match dimensions");
    let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5")?;
    writeln!(f, "{ny} {nx}")?;
    writeln!(f, "255")?;
    let bytes: Vec<u8> = data
        .iter()
        .map(|v| (255.0 * (v - lo) / span).round().clamp(0.0, 255.0) as u8)
        .collect();
    f.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_has_correct_header_and_size() {
        let dir = std::env::temp_dir().join("archetype_mesh_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.pgm");
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        write_pgm(&p, &data, 3, 4).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let text = String::from_utf8_lossy(&bytes[..12]);
        assert!(text.starts_with("P5\n4 3\n255\n"));
        assert_eq!(bytes.len(), 11 + 12);
        // Lowest value maps to 0, highest to 255.
        assert_eq!(bytes[11], 0);
        assert_eq!(*bytes.last().unwrap(), 255);
    }

    #[test]
    fn pgm_constant_field_does_not_divide_by_zero() {
        let dir = std::env::temp_dir().join("archetype_mesh_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("c.pgm");
        write_pgm(&p, &[5.0; 6], 2, 3).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert!(bytes[11..].iter().all(|&b| b == 0));
    }
}
