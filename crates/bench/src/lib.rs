//! # archetype-bench — figure-reproduction harness
//!
//! One binary per figure of the paper's evaluation (see DESIGN.md §4 and
//! EXPERIMENTS.md at the workspace root):
//!
//! | Binary | Paper figure |
//! |---|---|
//! | `fig06_mergesort` | Fig. 6 — traditional vs one-deep mergesort speedup |
//! | `fig12_fft2d` | Fig. 12 — parallel 2-D FFT speedup |
//! | `fig15_poisson` | Fig. 15 — parallel Poisson solver speedup |
//! | `fig16_cfd` | Fig. 16 — 2-D CFD code speedup |
//! | `fig17_em` | Fig. 17 — 3-D electromagnetics code speedup |
//! | `fig18_spectral` | Fig. 18 — spectral code speedup (relative to 5 procs) |
//! | `fig19_cfd_fields` | Figs. 19–20 — density/vorticity snapshots |
//! | `fig21_swirl_field` | Fig. 21 — azimuthal velocity snapshot |
//! | `ablation_reduction` | recursive doubling vs gather+broadcast |
//! | `ablation_exchange` | ghost exchange vs full-grid broadcast |
//! | `ablation_distribution` | block vs strip distribution for Poisson |
//!
//! All speedups are measured in **virtual time** on the machine models of
//! `archetype-mp` (Intel-Delta-like, IBM-SP-like), which is what makes
//! sweeps to 100 simulated processors deterministic on a small host; the
//! computations themselves are real (data is genuinely sorted/transformed).
//!
//! This module holds the shared harness: row/table types, console
//! rendering, CSV output under `target/figures/`, and workload generators.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One point of a speedup curve.
#[derive(Clone, Copy, Debug)]
pub struct SpeedupPoint {
    /// Simulated processor count.
    pub p: usize,
    /// Modeled sequential time (seconds, virtual).
    pub t_seq: f64,
    /// Modeled parallel time (seconds, virtual).
    pub t_par: f64,
    /// `t_seq / t_par`.
    pub speedup: f64,
}

impl SpeedupPoint {
    /// Build a point from the two times.
    pub fn new(p: usize, t_seq: f64, t_par: f64) -> Self {
        SpeedupPoint {
            p,
            t_seq,
            t_par,
            speedup: t_seq / t_par,
        }
    }
}

/// A named speedup curve (one line of a figure).
#[derive(Clone, Debug)]
pub struct Curve {
    /// Legend label (e.g. "one-deep mergesort").
    pub label: String,
    /// The points, ordered by processor count.
    pub points: Vec<SpeedupPoint>,
}

/// Render a figure (title + curves) as an aligned console table, with the
/// "perfect speedup" column the paper plots alongside every curve.
pub fn print_figure(title: &str, curves: &[Curve]) {
    println!("\n=== {title} ===");
    print!("{:>6} {:>9}", "P", "perfect");
    for c in curves {
        print!(" {:>24}", c.label);
    }
    println!();
    let nrows = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for r in 0..nrows {
        let p = curves
            .iter()
            .find_map(|c| c.points.get(r).map(|pt| pt.p))
            .unwrap_or(0);
        print!("{p:>6} {p:>9}");
        for c in curves {
            match c.points.get(r) {
                Some(pt) => print!(" {:>24.2}", pt.speedup),
                None => print!(" {:>24}", "-"),
            }
        }
        println!();
    }
}

/// Directory figure CSVs are written to (`target/figures/`).
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Write curves as a CSV (`p,label,t_seq,t_par,speedup` rows).
pub fn write_figure_csv(name: &str, curves: &[Curve]) -> PathBuf {
    use std::io::Write as _;
    let path = figures_dir().join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create CSV"));
    writeln!(f, "p,label,t_seq,t_par,speedup").unwrap();
    for c in curves {
        for pt in &c.points {
            writeln!(
                f,
                "{},{},{},{},{}",
                pt.p, c.label, pt.t_seq, pt.t_par, pt.speedup
            )
            .unwrap();
        }
    }
    println!("wrote {}", path.display());
    path
}

/// `true` when `--full` was passed: run at paper-scale sizes (slower).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Cores this process may use; every wall-time snapshot records it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why a wall-*scaling* figure (a speed-up over fewer ranks) at `ranks`
/// ranks is refused on this host, or `None` when it has the cores: with
/// fewer cores than ranks the ranks time-share one another's core and the
/// figure measures the scheduler, not the program.
pub fn scaling_refusal(ranks: usize) -> Option<String> {
    let cores = host_cores();
    (ranks > cores).then(|| format!("{ranks} ranks on {cores} cores"))
}

/// Deterministic vector of pseudo-random `i64`s.
pub fn random_i64s(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-1_000_000_000..1_000_000_000))
        .collect()
}

/// Split a vector into `p` near-equal contiguous blocks.
pub fn split_blocks<T: Clone>(data: &[T], p: usize) -> Vec<Vec<T>> {
    (0..p)
        .map(|r| {
            let (start, len) = archetype_mp::topology::block_range(data.len(), p, r);
            data[start..start + len].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_point_divides() {
        let pt = SpeedupPoint::new(4, 8.0, 2.0);
        assert_eq!(pt.speedup, 4.0);
    }

    #[test]
    fn random_data_is_deterministic_per_seed() {
        assert_eq!(random_i64s(100, 7), random_i64s(100, 7));
        assert_ne!(random_i64s(100, 7), random_i64s(100, 8));
    }

    #[test]
    fn split_blocks_covers_input() {
        let data: Vec<i64> = (0..103).collect();
        let blocks = split_blocks(&data, 7);
        assert_eq!(blocks.len(), 7);
        let flat: Vec<i64> = blocks.into_iter().flatten().collect();
        assert_eq!(flat, data);
    }

    #[test]
    fn csv_written_to_figures_dir() {
        let curves = vec![Curve {
            label: "test".into(),
            points: vec![SpeedupPoint::new(1, 1.0, 1.0)],
        }];
        let path = write_figure_csv("unit_test_curve", &curves);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("p,label,"));
        assert!(text.contains("1,test,"));
    }
}
