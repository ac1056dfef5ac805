//! Mandelbrot tile farm: the canonical irregular workload.
//!
//! The image is cut into square pixel tiles, one task each. A tile deep
//! inside the set costs `max_iter` iterations per pixel; a tile far
//! outside costs a handful — several orders of magnitude of cost
//! variation that a static round-robin deal cannot balance, which is
//! exactly what the farm's work stealing is for.
//!
//! The output is an order-independent summary (iteration totals, inside
//! count, and a position-keyed checksum) so the reduction is commutative
//! and the result is bit-identical for every process count.

use crate::skeleton::{Farm, WorkScope};
use archetype_mp::impl_fixed_size;

/// Modeled flop-equivalents per escape-time iteration (one complex
/// multiply-add plus the escape test).
const FLOPS_PER_ITER: f64 = 10.0;

/// Pixels `MandelbrotFarm::escape_lanes` steps in lockstep: four AVX2
/// registers of four, enough chains in flight to cover a multiply's
/// latency.
const LANES: usize = 16;

/// One tile task: tile coordinates in units of [`MandelbrotFarm::tile`]
/// pixels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Tile column index.
    pub tx: u32,
    /// Tile row index.
    pub ty: u32,
}

impl_fixed_size!(Tile);

/// Aggregated escape-time results over a set of tiles.
///
/// `checksum` folds every pixel's `(x, y, iterations)` triple through a
/// position-keyed FNV-style hash combined with wrapping addition, so it
/// is independent of the order tiles were processed in (commutative
/// reduction) yet pins every individual pixel value — two runs agree on
/// `checksum` iff they computed the identical image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MandelOut {
    /// Tiles rendered.
    pub tiles: u64,
    /// Total escape-time iterations across all pixels.
    pub iters: u64,
    /// Pixels that never escaped (reached `max_iter`).
    pub inside: u64,
    /// Order-independent per-pixel checksum.
    pub checksum: u64,
}

impl_fixed_size!(MandelOut);

/// A Mandelbrot rendering job: region, resolution, tiling, and iteration
/// budget.
#[derive(Clone, Debug)]
pub struct MandelbrotFarm {
    /// Real axis minimum.
    pub re0: f64,
    /// Imaginary axis minimum.
    pub im0: f64,
    /// Real axis maximum.
    pub re1: f64,
    /// Imaginary axis maximum.
    pub im1: f64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Tile edge in pixels.
    pub tile: u32,
    /// Escape-time iteration budget per pixel.
    pub max_iter: u32,
}

impl MandelbrotFarm {
    /// The classic full-set view at the given resolution and tiling.
    ///
    /// # Panics
    ///
    /// If `tile` is zero or the image is empty.
    pub fn classic(width: u32, height: u32, tile: u32, max_iter: u32) -> Self {
        MandelbrotFarm {
            re0: -2.2,
            im0: -1.2,
            re1: 0.8,
            im1: 1.2,
            width,
            height,
            tile,
            max_iter,
        }
        .checked()
    }

    /// A seahorse-valley close-up: a region straddling the set boundary,
    /// where per-tile cost is maximally irregular.
    ///
    /// # Panics
    ///
    /// If `tile` is zero or the image is empty.
    pub fn seahorse(width: u32, height: u32, tile: u32, max_iter: u32) -> Self {
        MandelbrotFarm {
            re0: -0.78,
            im0: 0.09,
            re1: -0.72,
            im1: 0.15,
            width,
            height,
            tile,
            max_iter,
        }
        .checked()
    }

    fn checked(self) -> Self {
        assert!(self.tile > 0, "tile edge must be positive");
        assert!(
            self.width > 0 && self.height > 0,
            "image must have at least one pixel"
        );
        self
    }

    fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile)
    }

    fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile)
    }

    /// The point of the complex plane at pixel `(px, py)`'s centre.
    fn c(&self, px: u32, py: u32) -> (f64, f64) {
        let cr = self.re0 + (self.re1 - self.re0) * (px as f64 + 0.5) / self.width as f64;
        let ci = self.im0 + (self.im1 - self.im0) * (py as f64 + 0.5) / self.height as f64;
        (cr, ci)
    }

    /// Escape-time iteration count at pixel `(px, py)`: the one-pixel
    /// definition `escape_lanes` must agree with.
    #[cfg(test)]
    fn escape(&self, px: u32, py: u32) -> u32 {
        let (cr, ci) = self.c(px, py);
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        let mut n = 0;
        while n < self.max_iter && zr * zr + zi * zi <= 4.0 {
            let nzr = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = nzr;
            n += 1;
        }
        n
    }

    /// `escape` for `LANES` points at once. One pixel's iteration is a
    /// chain of dependent multiply-adds, so a single chain leaves the
    /// core waiting on latency; stepping independent pixels in lockstep
    /// fills it. A lane runs the scalar arithmetic expression for
    /// expression (no fused multiply-add, no reassociation), and once
    /// `|z|² > 4` it freezes `z` and stops counting, so every count
    /// equals `escape`'s; the loop ends when every lane has escaped.
    ///
    /// The freeze is a select written as a bit mask, because with `if`
    /// the compiler branches per lane; and the kernel stays out of line,
    /// because inlined into the tile loop the vectorizer pairs the lanes
    /// differently and shuffles every step. The x86-64 baseline has
    /// two-wide registers only, so the body is built twice: for AVX2
    /// (`avx2` alone, so no multiply-add can fuse), picked at run time
    /// where the CPU has it, and for the baseline. The benchmark's
    /// seahorse render on one rank (2-vCPU VM with AVX2, best of 30):
    /// 11.5 ms as written, 12.9 with eight AVX2 lanes, 17.3 with the
    /// sixteen baseline lanes and 17.5 with eight.
    fn escape_lanes(&self, cr: &[f64; LANES], ci: &[f64; LANES]) -> [u64; LANES] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2, checked just above.
            return unsafe { self.escape_lanes_avx2(cr, ci) };
        }
        self.escape_lanes_portable(cr, ci)
    }

    /// `escape_lanes` built for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn escape_lanes_avx2(&self, cr: &[f64; LANES], ci: &[f64; LANES]) -> [u64; LANES] {
        self.escape_lanes_body(cr, ci)
    }

    /// `escape_lanes` built for the target's baseline.
    #[inline(never)]
    fn escape_lanes_portable(&self, cr: &[f64; LANES], ci: &[f64; LANES]) -> [u64; LANES] {
        self.escape_lanes_body(cr, ci)
    }

    /// The body both builds of `escape_lanes` share.
    #[inline(always)]
    fn escape_lanes_body(&self, cr: &[f64; LANES], ci: &[f64; LANES]) -> [u64; LANES] {
        let (mut zr, mut zi) = ([0.0f64; LANES], [0.0f64; LANES]);
        let mut n = [0u64; LANES];
        let keep = |live: u64, new: f64, old: f64| {
            f64::from_bits(new.to_bits() & live | old.to_bits() & !live)
        };
        for _ in 0..self.max_iter {
            let mut running = 0;
            for l in 0..LANES {
                let (r, i) = (zr[l], zi[l]);
                // All ones while the lane is live, zero once it escaped.
                let live = u64::from(r * r + i * i <= 4.0).wrapping_neg();
                zr[l] = keep(live, r * r - i * i + cr[l], r);
                zi[l] = keep(live, 2.0 * r * i + ci[l], i);
                n[l] = n[l].wrapping_sub(live);
                running |= live;
            }
            if running == 0 {
                break;
            }
        }
        n
    }

    /// Call `f(px, py, escape count)` for every pixel of `tile`, in
    /// row-major order, counting with `lanes` (a build of
    /// `escape_lanes`). Lanes run over the tile's flattened pixels, so a
    /// tile row narrower than `LANES` leaves no scalar remainder; a short
    /// last group repeats its last pixel and drops the spare counts.
    fn for_each_escape(
        &self,
        tile: Tile,
        lanes: impl Fn(&Self, &[f64; LANES], &[f64; LANES]) -> [u64; LANES],
        mut f: impl FnMut(u32, u32, u32),
    ) {
        let x0 = tile.tx * self.tile;
        let y0 = tile.ty * self.tile;
        let tw = (x0 + self.tile).min(self.width) - x0;
        let area = tw * ((y0 + self.tile).min(self.height) - y0);
        let pixel = |k: u32| (x0 + k % tw, y0 + k / tw);
        for k0 in (0..area).step_by(LANES) {
            let live = (area - k0).min(LANES as u32);
            let (mut cr, mut ci) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                let (px, py) = pixel(k0 + (l as u32).min(live - 1));
                (cr[l], ci[l]) = self.c(px, py);
            }
            let counts = lanes(self, &cr, &ci);
            for (k, &n) in (k0..k0 + live).zip(&counts) {
                let (px, py) = pixel(k);
                f(px, py, n as u32);
            }
        }
    }
}

fn pixel_hash(px: u32, py: u32, n: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in [px as u64, py as u64, n as u64] {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Farm for MandelbrotFarm {
    type Task = Tile;
    type Out = MandelOut;
    type Hint = ();

    fn seed(&self) -> Vec<Tile> {
        let mut tiles = Vec::with_capacity((self.tiles_x() * self.tiles_y()) as usize);
        for ty in 0..self.tiles_y() {
            for tx in 0..self.tiles_x() {
                tiles.push(Tile { tx, ty });
            }
        }
        tiles
    }

    fn work(&self, tile: Tile, scope: &mut WorkScope<'_, Self>) {
        let mut out = MandelOut {
            tiles: 1,
            ..MandelOut::default()
        };
        self.for_each_escape(tile, Self::escape_lanes, |px, py, n| {
            out.iters += n as u64;
            out.inside += u64::from(n == self.max_iter);
            out.checksum = out.checksum.wrapping_add(pixel_hash(px, py, n));
        });
        // Charge the *actual* data-dependent cost — this irregularity is
        // what the farm's stealing and adaptive batching respond to.
        scope.charge_flops(out.iters as f64 * FLOPS_PER_ITER);
        scope.emit(out);
    }

    fn out_identity(&self) -> MandelOut {
        MandelOut::default()
    }

    fn reduce(&self, a: MandelOut, b: MandelOut) -> MandelOut {
        MandelOut {
            tiles: a.tiles + b.tiles,
            iters: a.iters + b.iters,
            inside: a.inside + b.inside,
            checksum: a.checksum.wrapping_add(b.checksum),
        }
    }

    fn task_flops(&self, _tile: &Tile) -> f64 {
        0.0 // fully data-dependent; `work` charges the measured count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_farm, FarmConfig};
    use archetype_mp::{run_spmd, MachineModel};

    fn sequential_out(farm: &MandelbrotFarm) -> MandelOut {
        let mut acc = farm.out_identity();
        for py in 0..farm.height {
            for px in 0..farm.width {
                let n = farm.escape(px, py);
                acc.iters += n as u64;
                acc.inside += u64::from(n == farm.max_iter);
                acc.checksum = acc.checksum.wrapping_add(pixel_hash(px, py, n));
            }
        }
        acc.tiles = (farm.tiles_x() * farm.tiles_y()) as u64;
        acc
    }

    #[test]
    fn farm_matches_sequential_render_for_many_process_counts() {
        let farm = MandelbrotFarm::classic(64, 48, 8, 200);
        let expected = sequential_out(&farm);
        for p in [1usize, 2, 5, 8] {
            let f = farm.clone();
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                run_farm(&f, ctx, FarmConfig::default()).0
            });
            assert!(
                out.results.iter().all(|o| *o == expected),
                "p={p}: {:?} != {expected:?}",
                out.results[0]
            );
        }
    }

    #[test]
    fn interior_region_pixels_never_escape() {
        // A region strictly inside the main cardioid.
        let farm = MandelbrotFarm {
            re0: -0.2,
            im0: -0.1,
            re1: 0.0,
            im1: 0.1,
            width: 16,
            height: 16,
            tile: 4,
            max_iter: 64,
        };
        let out = sequential_out(&farm);
        assert_eq!(out.inside, 16 * 16);
        assert_eq!(out.iters, 16 * 16 * 64);
    }

    #[test]
    fn ragged_tiling_covers_every_pixel_exactly_once() {
        // 30x22 image with 8-pixel tiles: ragged right and bottom edges.
        let farm = MandelbrotFarm::classic(30, 22, 8, 50);
        let expected = sequential_out(&farm);
        let f = farm.clone();
        let out = run_spmd(3, MachineModel::ibm_sp(), move |ctx| {
            run_farm(&f, ctx, FarmConfig::default()).0
        });
        assert_eq!(out.results[0], expected);
    }

    /// A `width × height` view of `[re0, re1] × [im0, im1]` in `tile`-px
    /// tiles (the constructors fix the region).
    fn view(
        (re0, re1): (f64, f64),
        (im0, im1): (f64, f64),
        width: u32,
        height: u32,
        tile: u32,
        max_iter: u32,
    ) -> MandelbrotFarm {
        MandelbrotFarm {
            re0,
            im0,
            re1,
            im1,
            width,
            height,
            tile,
            max_iter,
        }
    }

    /// One build of the lane kernel.
    type Lanes = fn(&MandelbrotFarm, &[f64; LANES], &[f64; LANES]) -> [u64; LANES];

    /// Both builds of `escape_lanes`, each called directly: a host with
    /// AVX2 never dispatches to the baseline one. The AVX2 one only
    /// where the CPU has AVX2.
    fn escape_twins() -> Vec<Lanes> {
        let mut twins: Vec<Lanes> = vec![MandelbrotFarm::escape_lanes_portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: pushed only where the CPU has AVX2.
            twins.push(|farm, cr, ci| unsafe { farm.escape_lanes_avx2(cr, ci) });
        }
        twins
    }

    /// Every pixel's count by `lanes` against `escape`'s, tile by tile;
    /// returns how many pixels escaped after one step and how many never
    /// did.
    fn lanes_match_escape(farm: &MandelbrotFarm, lanes: Lanes) -> (usize, usize) {
        let (mut first_step, mut interior) = (0, 0);
        for tile in farm.seed() {
            let mut got = Vec::new();
            farm.for_each_escape(tile, lanes, |px, py, n| got.push((px, py, n)));
            let x0 = tile.tx * farm.tile;
            let y0 = tile.ty * farm.tile;
            let want: Vec<_> = (y0..(y0 + farm.tile).min(farm.height))
                .flat_map(|py| (x0..(x0 + farm.tile).min(farm.width)).map(move |px| (px, py)))
                .map(|(px, py)| (px, py, farm.escape(px, py)))
                .collect();
            assert_eq!(got, want, "{farm:?}, {tile:?}");
            first_step += got.iter().filter(|p| p.2 == 1).count();
            interior += got.iter().filter(|p| p.2 == farm.max_iter).count();
        }
        (first_step, interior)
    }

    #[test]
    fn lanes_count_every_pixel_as_the_one_pixel_loop_does() {
        for lanes in escape_twins() {
            for max_iter in [1, 2, 1500] {
                // Mixed lanes, 13-px tiles: no tile area (169 = 10 × 16 + 9,
                // 78, 117, 54) is a whole number of lane groups.
                let ragged = MandelbrotFarm::classic(97, 61, 13, max_iter);
                const { assert!((13 * 13) % LANES != 0) };
                let (first_step, interior) = lanes_match_escape(&ragged, lanes);
                assert!(first_step > 0 && interior > 0);
                // Mixed lanes on the boundary: the benchmark's region.
                lanes_match_escape(&MandelbrotFarm::seahorse(40, 30, 20, max_iter), lanes);
                // Every lane escapes on the first step (|c| > 2 everywhere).
                let outside = view((2.1, 3.0), (2.1, 3.0), 12, 9, 5, max_iter);
                assert_eq!(lanes_match_escape(&outside, lanes).0, 12 * 9);
                // No lane ever escapes: inside the main cardioid.
                let inside = view((-0.2, 0.0), (-0.1, 0.1), 16, 16, 8, max_iter);
                assert_eq!(lanes_match_escape(&inside, lanes).1, 16 * 16);
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile edge must be positive")]
    fn a_zero_tile_edge_is_refused_up_front() {
        MandelbrotFarm::classic(64, 48, 0, 100);
    }

    #[test]
    #[should_panic(expected = "image must have at least one pixel")]
    fn an_empty_image_is_refused_up_front() {
        MandelbrotFarm::seahorse(0, 48, 8, 100);
    }
}
