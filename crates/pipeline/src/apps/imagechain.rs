//! Streaming image-filter chain: the canonical pipeline workload.
//!
//! A synthetic image is cut into tiles that stream through a chain of
//! per-tile filters — an iterated box blur (the heavy stage, so the
//! planner replicates it), a gradient-magnitude edge detector, and a
//! quantizer. Tiles are packed and unpacked with the mesh archetype's
//! [`Block2`] fast paths: the blur and gradient stencils read neighbour
//! pixels, so each stage unpacks its tile into a ghost-bordered block
//! (edge-replicated ghosts), applies the stencil a row slice at a time,
//! and writes the interior back into the wire format — exactly the
//! mesh-spectral ghost-cell discipline, reused at tile granularity.
//!
//! The emitted summary folds tiles *in stream order* with an
//! order-sensitive checksum, so any reordering anywhere in the pipeline
//! changes the result — the determinism tests lean on this.

use crate::skeleton::{Pipeline, Stage};
use archetype_mesh::Block2;
use archetype_mp::{impl_fixed_size, Payload};

/// Modeled flop-equivalents per pixel per blur pass (5-point stencil).
const BLUR_FLOPS_PER_PIXEL: f64 = 6.0;
/// Modeled flop-equivalents per pixel for the gradient magnitude.
const GRAD_FLOPS_PER_PIXEL: f64 = 6.0;
/// Modeled flop-equivalents per pixel for quantization.
const QUANT_FLOPS_PER_PIXEL: f64 = 2.0;

/// One image tile in wire format: row-major interior pixels plus its
/// position and extent in the source image.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageTile {
    /// Tile column index.
    pub tx: u32,
    /// Tile row index.
    pub ty: u32,
    /// Tile width in pixels (ragged at the right edge).
    pub w: u32,
    /// Tile height in pixels (ragged at the bottom edge).
    pub h: u32,
    /// Row-major pixel values.
    pub pixels: Vec<f64>,
}

impl Payload for ImageTile {
    fn size_bytes(&self) -> usize {
        16 + self.pixels.len() * 8
    }
}

/// Refresh a tile block's one-cell ghost border with edge-replicated
/// values (the stencils clamp at tile borders), corners included.
fn replicate_ghosts(b: &mut Block2<f64>) {
    let (h, w) = (b.nx as isize, b.ny);
    for i in 0..h {
        let row = b.row_mut(i);
        row[0] = row[1];
        row[w + 1] = row[w];
    }
    // The ghost rows copy whole edge rows, their side ghosts included.
    for (ghost, edge) in [(-1, 0), (h, h - 1)] {
        for j in 0..w + 2 {
            let v = b.row(edge)[j];
            b.row_mut(ghost)[j] = v;
        }
    }
}

/// The five-point neighbourhood of row `i`'s `w` interior cells as
/// `[west, centre, east, north, south]`, each exactly `w` long, so a
/// stencil loop over them has no bounds check left to make.
fn neighbours(b: &Block2<f64>, i: isize, w: usize) -> [&[f64]; 5] {
    let row = b.row(i);
    [
        &row[..w],
        &row[1..=w],
        &row[2..w + 2],
        &b.row(i - 1)[1..=w],
        &b.row(i + 1)[1..=w],
    ]
}

impl ImageTile {
    /// Unpack the tile into a ghost-bordered [`Block2`] (one ghost
    /// layer, edge-replicated), ready for a 5-point stencil.
    pub fn to_block(&self) -> Block2<f64> {
        let (w, h) = (self.w as usize, self.h as usize);
        let mut b = Block2::new(h, w, 1, 0.0);
        for i in 0..h {
            b.unpack(i as isize, 0, 0, 1, &self.pixels[i * w..(i + 1) * w]);
        }
        replicate_ghosts(&mut b);
        b
    }

    /// Pack a block's interior back into this tile's wire format.
    pub fn load_block(&mut self, b: &Block2<f64>) {
        self.pixels.clear();
        for i in 0..self.h as usize {
            b.pack_into(i as isize, 0, 0, 1, self.w as usize, &mut self.pixels);
        }
    }
}

/// Iterated 5-point box blur — the chain's heavy stage.
#[derive(Clone, Copy, Debug)]
pub struct BlurStage {
    /// Number of smoothing passes (the heaviness knob).
    pub passes: u32,
}

impl Stage<ImageTile> for BlurStage {
    fn transform(&self, _seq: u64, mut tile: ImageTile) -> ImageTile {
        let w = tile.w as usize;
        let mut src = tile.to_block();
        let mut dst = src.clone();
        for _ in 0..self.passes {
            for i in 0..tile.h as isize {
                let [west, mid, east, north, south] = neighbours(&src, i, w);
                let out = &mut dst.row_mut(i)[1..=w];
                for j in 0..w {
                    out[j] = 0.2 * (mid[j] + north[j] + south[j] + west[j] + east[j]);
                }
            }
            // Refresh the replicated ghosts for the next pass.
            replicate_ghosts(&mut dst);
            std::mem::swap(&mut src, &mut dst);
        }
        tile.load_block(&src);
        tile
    }

    fn flops(&self, tile: &ImageTile) -> f64 {
        f64::from(self.passes) * tile.pixels.len() as f64 * BLUR_FLOPS_PER_PIXEL
    }

    fn name(&self) -> &'static str {
        "blur"
    }
}

/// Central-difference gradient magnitude (`|∂x| + |∂y|`).
#[derive(Clone, Copy, Debug, Default)]
pub struct GradientStage;

impl Stage<ImageTile> for GradientStage {
    fn transform(&self, _seq: u64, mut tile: ImageTile) -> ImageTile {
        let w = tile.w as usize;
        let src = tile.to_block();
        for i in 0..tile.h as usize {
            let [west, _, east, north, south] = neighbours(&src, i as isize, w);
            let out = &mut tile.pixels[i * w..(i + 1) * w];
            for j in 0..w {
                let gx = east[j] - west[j];
                let gy = south[j] - north[j];
                out[j] = 0.5 * (gx.abs() + gy.abs());
            }
        }
        tile
    }

    fn flops(&self, tile: &ImageTile) -> f64 {
        tile.pixels.len() as f64 * GRAD_FLOPS_PER_PIXEL
    }

    fn name(&self) -> &'static str {
        "gradient"
    }
}

/// Clamp to `[0, 1]` and quantize to a fixed number of levels.
#[derive(Clone, Copy, Debug)]
pub struct QuantStage {
    /// Quantization levels.
    pub levels: u32,
}

impl Stage<ImageTile> for QuantStage {
    fn transform(&self, _seq: u64, mut tile: ImageTile) -> ImageTile {
        let q = f64::from(self.levels.max(1));
        for v in &mut tile.pixels {
            *v = (v.clamp(0.0, 1.0) * q).floor() / q;
        }
        tile
    }

    fn flops(&self, tile: &ImageTile) -> f64 {
        tile.pixels.len() as f64 * QUANT_FLOPS_PER_PIXEL
    }

    fn name(&self) -> &'static str {
        "quantize"
    }
}

/// Order-sensitive summary of the filtered stream: the fold chains a
/// position-and-value hash through every pixel of every tile in stream
/// order, so two runs agree on `checksum` iff they emitted the identical
/// tiles in the identical order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ImageSummary {
    /// Tiles folded.
    pub tiles: u64,
    /// Order-sensitive chained checksum.
    pub checksum: u64,
    /// Sum of all output pixels.
    pub sum: f64,
    /// Maximum output pixel.
    pub max: f64,
}

impl_fixed_size!(ImageSummary);

/// A streaming image-filter job: source image extent, tiling, and the
/// stage chain (blur × passes → gradient → quantize).
#[derive(Clone, Debug)]
pub struct ImageChain {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Tile edge in pixels.
    pub tile: u32,
    blur: BlurStage,
    grad: GradientStage,
    quant: QuantStage,
}

impl ImageChain {
    /// A chain over a `width × height` synthetic image in `tile`-pixel
    /// tiles, blurring `blur_passes` times.
    pub fn new(width: u32, height: u32, tile: u32, blur_passes: u32) -> Self {
        assert!(tile > 0, "tile edge must be positive");
        ImageChain {
            width,
            height,
            tile,
            blur: BlurStage {
                passes: blur_passes,
            },
            grad: GradientStage,
            quant: QuantStage { levels: 32 },
        }
    }

    fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile)
    }

    fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile)
    }

    /// The synthetic source image: a smooth interference pattern with a
    /// sharp diagonal ridge, so blurring and edge detection both have
    /// something to chew on.
    pub fn source_pixel(&self, px: u32, py: u32) -> f64 {
        shade(
            (0.07 * f64::from(px)).sin(),
            (0.05 * f64::from(py)).cos(),
            px,
            py,
        )
    }
}

/// [`ImageChain::source_pixel`] from its two separable factors,
/// `sin(0.07 x)` and `cos(0.05 y)`, so a tile computes each once per
/// column and once per row.
fn shade(sin_x: f64, cos_y: f64, px: u32, py: u32) -> f64 {
    let smooth = 0.5 + 0.25 * sin_x * cos_y;
    let ridge = if (px + py) % 97 < 3 { 0.4 } else { 0.0 };
    smooth + ridge
}

impl Pipeline for ImageChain {
    type Item = ImageTile;
    type Out = ImageSummary;

    fn ingest(&self, seq: u64) -> Option<ImageTile> {
        let total = u64::from(self.tiles_x()) * u64::from(self.tiles_y());
        if seq >= total {
            return None;
        }
        let tx = (seq % u64::from(self.tiles_x())) as u32;
        let ty = (seq / u64::from(self.tiles_x())) as u32;
        let x0 = tx * self.tile;
        let y0 = ty * self.tile;
        let w = self.tile.min(self.width - x0);
        let h = self.tile.min(self.height - y0);
        let sin_x: Vec<f64> = (x0..x0 + w)
            .map(|px| (0.07 * f64::from(px)).sin())
            .collect();
        let mut pixels = Vec::with_capacity((w * h) as usize);
        for py in y0..y0 + h {
            let cos_y = (0.05 * f64::from(py)).cos();
            pixels.extend(
                (x0..)
                    .zip(&sin_x)
                    .map(|(px, &sin_x)| shade(sin_x, cos_y, px, py)),
            );
        }
        Some(ImageTile {
            tx,
            ty,
            w,
            h,
            pixels,
        })
    }

    fn ingest_flops(&self, item: &ImageTile) -> f64 {
        item.pixels.len() as f64 * 2.0
    }

    fn stages(&self) -> Vec<&dyn Stage<ImageTile>> {
        vec![&self.blur, &self.grad, &self.quant]
    }

    fn out_identity(&self) -> ImageSummary {
        ImageSummary {
            tiles: 0,
            checksum: 0xcbf29ce484222325,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn emit(&self, mut acc: ImageSummary, seq: u64, item: ImageTile) -> ImageSummary {
        acc.tiles += 1;
        acc.checksum ^= seq.wrapping_add(0x9e3779b97f4a7c15);
        acc.checksum = acc.checksum.wrapping_mul(0x100000001b3);
        for &v in &item.pixels {
            acc.checksum ^= v.to_bits();
            acc.checksum = acc.checksum.wrapping_mul(0x100000001b3);
            acc.sum += v;
            acc.max = acc.max.max(v);
        }
        acc
    }

    fn emit_flops(&self, item: &ImageTile) -> f64 {
        item.pixels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_pipeline, run_sequential, PipelineConfig};
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn parallel_runs_match_the_sequential_oracle() {
        let chain = ImageChain::new(96, 64, 16, 4);
        let (expected, tiles) = run_sequential(&chain);
        assert_eq!(tiles, 6 * 4);
        for p in [1usize, 2, 3, 5, 8] {
            let c = chain.clone();
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                run_pipeline(&c, ctx, PipelineConfig::default()).0
            });
            assert!(
                out.results.iter().all(|s| *s == expected),
                "p={p}: {:?} != {expected:?}",
                out.results[0]
            );
        }
    }

    #[test]
    fn ragged_tiling_covers_every_pixel_exactly_once() {
        // 50x30 image with 16-pixel tiles: ragged right and bottom edges.
        let chain = ImageChain::new(50, 30, 16, 1);
        let (summary, tiles) = run_sequential(&chain);
        assert_eq!(tiles, 4 * 2);
        // Every pixel passed through the fold exactly once.
        let per_tile: u64 = summary.tiles;
        assert_eq!(per_tile, 8);
        let c = chain.clone();
        let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
            run_pipeline(&c, ctx, PipelineConfig::default())
        });
        assert_eq!(out.results[0].0, summary);
        // items × pixels accounted: stats.items equals the tile count.
        assert_eq!(out.results[0].1.items, tiles);
    }

    #[test]
    fn blur_smooths_and_gradient_finds_the_ridge() {
        let chain = ImageChain::new(32, 32, 32, 1);
        let tile = chain.ingest(0).unwrap();
        let blurred = chain.blur.transform(0, tile.clone());
        // Blur reduces total variation against the sharp ridge.
        let variation = |t: &ImageTile| -> f64 {
            let w = t.w as usize;
            t.pixels
                .windows(2)
                .enumerate()
                .filter(|(k, _)| (k + 1) % w != 0)
                .map(|(_, p)| (p[1] - p[0]).abs())
                .sum()
        };
        assert!(variation(&blurred) < variation(&tile));
        // The gradient of a constant tile is identically zero.
        let flat = ImageTile {
            tx: 0,
            ty: 0,
            w: 8,
            h: 8,
            pixels: vec![0.7; 64],
        };
        let g = GradientStage.transform(0, flat);
        assert!(g.pixels.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn block_round_trip_preserves_pixels() {
        let chain = ImageChain::new(20, 12, 8, 1);
        let tile = chain.ingest(3).unwrap();
        let mut copy = tile.clone();
        copy.load_block(&tile.to_block());
        assert_eq!(copy, tile);
    }

    /// Version 1 of the stencils — per cell through `Block2::at`/`set`,
    /// one clone per blur pass — kept as the labelled oracles the
    /// row-slice kernels must match bit for bit.
    mod per_cell {
        use super::*;

        fn replicate_ghosts(b: &mut Block2<f64>) {
            let (h, w) = (b.nx as isize, b.ny as isize);
            for j in 0..w {
                b.set(-1, j, b.at(0, j));
                b.set(h, j, b.at(h - 1, j));
            }
            for i in -1..=h {
                b.set(i, -1, b.at(i, 0));
                b.set(i, w, b.at(i, w - 1));
            }
        }

        fn to_block(tile: &ImageTile) -> Block2<f64> {
            let (w, h) = (tile.w as isize, tile.h as isize);
            let mut b = Block2::new(h as usize, w as usize, 1, 0.0);
            for i in 0..h {
                for j in 0..w {
                    b.set(i, j, tile.pixels[(i * w + j) as usize]);
                }
            }
            replicate_ghosts(&mut b);
            b
        }

        fn interior(tile: &mut ImageTile, b: &Block2<f64>) {
            let (w, h) = (tile.w as isize, tile.h as isize);
            tile.pixels = (0..h)
                .flat_map(|i| (0..w).map(move |j| b.at(i, j)))
                .collect();
        }

        pub fn blur(passes: u32, mut tile: ImageTile) -> ImageTile {
            let (w, h) = (tile.w as isize, tile.h as isize);
            let mut b = to_block(&tile);
            for _ in 0..passes {
                let src = b.clone();
                for i in 0..h {
                    for j in 0..w {
                        let v = 0.2
                            * (src.at(i, j)
                                + src.at(i - 1, j)
                                + src.at(i + 1, j)
                                + src.at(i, j - 1)
                                + src.at(i, j + 1));
                        b.set(i, j, v);
                    }
                }
                replicate_ghosts(&mut b);
            }
            interior(&mut tile, &b);
            tile
        }

        pub fn gradient(mut tile: ImageTile) -> ImageTile {
            let (w, h) = (tile.w as isize, tile.h as isize);
            let src = to_block(&tile);
            let mut b = src.clone();
            for i in 0..h {
                for j in 0..w {
                    let gx = src.at(i, j + 1) - src.at(i, j - 1);
                    let gy = src.at(i + 1, j) - src.at(i - 1, j);
                    b.set(i, j, 0.5 * (gx.abs() + gy.abs()));
                }
            }
            interior(&mut tile, &b);
            tile
        }
    }

    /// A `w × h` tile of irregular values in `[0, 1)`, so neither
    /// stencil sees a symmetry that could hide a swapped neighbour.
    fn scrambled_tile(w: u32, h: u32) -> ImageTile {
        let pixels = (0..u64::from(w * h))
            .map(|k| {
                let x = (k + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ (k << 29);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        ImageTile {
            tx: 0,
            ty: 0,
            w,
            h,
            pixels,
        }
    }

    fn bits(t: &ImageTile) -> Vec<u64> {
        t.pixels.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_stencils_match_the_per_cell_oracles_bit_for_bit() {
        for w in [1, 2, 3, 31, 32, 33] {
            for h in [1, 2, 3, 31, 32, 33] {
                let tile = scrambled_tile(w, h);
                for passes in [0, 1, 2, 24] {
                    let got = BlurStage { passes }.transform(0, tile.clone());
                    let want = per_cell::blur(passes, tile.clone());
                    assert_eq!(bits(&got), bits(&want), "blur {w}x{h}, {passes} passes");
                    assert_eq!((got.w, got.h), (w, h));
                    let got = GradientStage.transform(0, got);
                    let want = per_cell::gradient(want);
                    assert_eq!(bits(&got), bits(&want), "gradient {w}x{h}, {passes} passes");
                }
            }
        }
    }

    #[test]
    fn ingest_is_source_pixel_on_every_pixel() {
        let chain = ImageChain::new(100, 70, 13, 0);
        for seq in 0.. {
            let Some(tile) = chain.ingest(seq) else {
                break;
            };
            let (x0, y0) = (tile.tx * 13, tile.ty * 13);
            let want: Vec<u64> = (y0..y0 + tile.h)
                .flat_map(|py| (x0..x0 + tile.w).map(move |px| (px, py)))
                .map(|(px, py)| chain.source_pixel(px, py).to_bits())
                .collect();
            assert_eq!(bits(&tile), want, "tile {seq}");
        }
    }
}
