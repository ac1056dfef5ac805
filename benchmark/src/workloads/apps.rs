//! `apps_fixed_size`: the five archetype applications through their
//! public drivers, at a fixed problem size.
//!
//! A batch is one pass over the five on all ranks; an op is one
//! application run. Every output is compared with its sequential
//! reference, computed once at set-up. The seed draws the sort keys;
//! every other input is fixed, because the work in it is not a function
//! of size alone (the knapsack's search tree halves or doubles with the
//! order of its items).

use std::time::Instant;

use archetype_bnb::{knapsack_dp, solve_farm, Knapsack};
use archetype_core::ExecutionMode;
use archetype_dc::perfmodel::recursion_policy;
use archetype_dc::{run_spmd_recursive, sequential_mergesort, RecursiveMergesort};
use archetype_farm::apps::MandelbrotFarm;
use archetype_farm::{run_farm, FarmConfig};
use archetype_mesh::apps::poisson::{poisson_shared, poisson_spmd, sine_problem, PoissonSpec};
use archetype_mp::{run_spmd_with, ProcessGrid2, RunConfig};
use archetype_pipeline::apps::ImageChain;
use archetype_pipeline::{run_pipeline, run_sequential, PipelineConfig};

use super::{digest, model, Batch, RunSummary, Workload};
use crate::rng::Rng;
use crate::spans::Spans;

/// Keys the mergesort sorts.
const SORT_KEYS: usize = 1 << 20;
/// Poisson grid extent and fixed Jacobi iteration budget.
const POISSON_N: usize = 192;
const POISSON_ITERS: usize = 120;
/// Knapsack items (subset-sum-hard: pruning never fires).
const KNAPSACK_ITEMS: usize = 19;

/// The five applications, in pass order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Recursive divide-and-conquer mergesort.
    Mergesort,
    /// Mesh-spectral Jacobi solve of a Poisson problem.
    Poisson,
    /// Task-farm Mandelbrot render (seahorse valley).
    Mandelbrot,
    /// Pipeline image-filter chain.
    ImageChain,
    /// Branch-and-bound knapsack on the farm skeleton.
    Knapsack,
}

impl App {
    /// Every application, in pass order.
    pub const ALL: [App; 5] = [
        App::Mergesort,
        App::Poisson,
        App::Mandelbrot,
        App::ImageChain,
        App::Knapsack,
    ];

    /// Span name of the application's driver call.
    pub fn span(self) -> &'static str {
        match self {
            App::Mergesort => "dc.mergesort",
            App::Poisson => "mesh.poisson",
            App::Mandelbrot => "farm.mandelbrot",
            App::ImageChain => "pipeline.image_chain",
            App::Knapsack => "bnb.knapsack",
        }
    }
}

/// One application run: a digest of its output and the count its layer
/// reports (Jacobi iterations, tiles stolen, nodes expanded; else 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppOutput {
    /// Order-sensitive digest of the full output.
    pub digest: u64,
    /// The layer's own work count.
    pub count: u64,
}

/// Inputs and sequential references of the five applications.
pub struct AppsWorkload {
    ranks: usize,
    keys: Vec<i64>,
    poisson: PoissonSpec,
    mandelbrot: MandelbrotFarm,
    chain: ImageChain,
    items: Vec<(u64, u64)>,
    capacity: u64,
    /// Output digest of each application's sequential reference.
    reference: [u64; 5],
}

/// Digest of a sort's output: order is checked directly and content by
/// two reductions that vectorize, because an order-sensitive chain over
/// a million keys inside the rank-0 body would be a timed millisecond
/// of the benchmark's own.
fn sorted_digest(sorted: &[i64]) -> u64 {
    if !sorted.windows(2).all(|w| w[0] <= w[1]) {
        return u64::MAX;
    }
    let sum = sorted.iter().fold(0u64, |s, &k| s.wrapping_add(k as u64));
    let xor = sorted
        .iter()
        .fold(0u64, |x, &k| x ^ (k as u64).rotate_left(k as u32 & 31));
    digest([sorted.len() as u64, sum, xor])
}

fn grid_digest(grid: &[f64], iters: usize, diffmax: f64) -> u64 {
    digest(
        grid.iter()
            .map(|x| x.to_bits())
            .chain([iters as u64, diffmax.to_bits()]),
    )
}

impl AppsWorkload {
    /// Generate the inputs from `seed` and compute every reference.
    pub fn new(seed: u64, ranks: usize) -> AppsWorkload {
        let mut rng = Rng::new(seed, 0);
        let keys: Vec<i64> = (0..SORT_KEYS)
            .map(|_| rng.next_u64() as i64 >> 20)
            .collect();
        // Even weights, value = weight, odd capacity: no exact fill exists
        // and the fractional bound equals the capacity at every node, so
        // the search tree is large and its size does not hinge on luck.
        let items: Vec<(u64, u64)> = (0..KNAPSACK_ITEMS as u64)
            .map(|i| {
                let w = (i * 7 % 30 + 1) * 2;
                (w, w)
            })
            .collect();
        let capacity = (items.iter().map(|(w, _)| w).sum::<u64>() / 2) | 1;

        let mut w = AppsWorkload {
            ranks,
            keys,
            poisson: sine_problem(POISSON_N, 1e-14, POISSON_ITERS),
            mandelbrot: MandelbrotFarm::seahorse(160, 120, 20, 1500),
            chain: ImageChain::new(512, 384, 32, 24),
            items,
            capacity,
            reference: [0; 5],
        };
        let solved = poisson_shared(&w.poisson, ExecutionMode::Sequential);
        w.reference = [
            sorted_digest(&sequential_mergesort(w.keys.clone())),
            grid_digest(
                solved
                    .grid
                    .as_deref()
                    .expect("the shared solver returns the grid"),
                solved.iters,
                solved.diffmax,
            ),
            // The farm has no driver-free renderer; its one-rank run on
            // the virtual backend is the single-threaded reference.
            w.run(App::Mandelbrot, 1, RunConfig::virtual_time())
                .0
                .digest,
            image_digest(&run_sequential(&w.chain).0),
            knapsack_dp(&w.items, w.capacity),
        ];
        w
    }

    /// The sort keys (for the sequential-mergesort baseline).
    pub fn keys(&self) -> &[i64] {
        &self.keys
    }

    /// Run `app` on `ranks` ranks through its public driver.
    pub fn run(&self, app: App, ranks: usize, run: RunConfig) -> (AppOutput, RunSummary) {
        let model = model();
        let (outputs, summary) = match app {
            App::Mergesort => {
                let policy = recursion_policy(&model, 2, std::mem::size_of::<i64>());
                RunSummary::split(run_spmd_with(ranks, model, run, |ctx| {
                    let input = (ctx.rank() == 0).then(|| self.keys.clone());
                    let sorted = run_spmd_recursive(
                        &RecursiveMergesort::<i64>::new(),
                        ctx,
                        input,
                        &policy,
                        None,
                    );
                    sorted.map(|s| AppOutput {
                        digest: sorted_digest(&s),
                        count: 0,
                    })
                }))
            }
            App::Poisson => {
                let grid = ProcessGrid2::near_square(ranks);
                RunSummary::split(run_spmd_with(ranks, model, run, |ctx| {
                    let solved = poisson_spmd(ctx, &self.poisson, grid);
                    solved.grid.as_deref().map(|g| AppOutput {
                        digest: grid_digest(g, solved.iters, solved.diffmax),
                        count: solved.iters as u64,
                    })
                }))
            }
            App::Mandelbrot => RunSummary::split(run_spmd_with(ranks, model, run, |ctx| {
                let (image, stats) = run_farm(&self.mandelbrot, ctx, FarmConfig::default());
                Some(AppOutput {
                    digest: digest([image.tiles, image.iters, image.inside, image.checksum]),
                    count: stats.stolen,
                })
            })),
            App::ImageChain => RunSummary::split(run_spmd_with(ranks, model, run, |ctx| {
                let (summary, _) = run_pipeline(&self.chain, ctx, PipelineConfig::default());
                Some(AppOutput {
                    digest: image_digest(&summary),
                    count: 0,
                })
            })),
            App::Knapsack => RunSummary::split(run_spmd_with(ranks, model, run, |ctx| {
                let problem = Knapsack::new(&self.items, self.capacity);
                let (best, stats, _) = solve_farm(&problem, ctx, FarmConfig::default());
                Some(AppOutput {
                    digest: best as u64,
                    count: stats.expanded,
                })
            })),
        };
        let output = outputs[0].expect("rank 0 holds every application's output");
        (output, summary)
    }

    /// True when `output` equals `app`'s sequential reference.
    pub fn matches_reference(&self, app: App, output: AppOutput) -> bool {
        output.digest == self.reference[app as usize]
    }
}

fn image_digest(s: &archetype_pipeline::apps::ImageSummary) -> u64 {
    digest([s.tiles, s.checksum, s.sum.to_bits(), s.max.to_bits()])
}

impl Workload for AppsWorkload {
    type Report = Vec<AppOutput>;

    fn batch(&mut self, index: u64, run: RunConfig, spans: &mut Spans) -> Batch<Vec<AppOutput>> {
        let start = Instant::now();
        let batch_span = spans.begin("batch", index);
        let (outputs, runs): (Vec<AppOutput>, Vec<RunSummary>) = App::ALL
            .iter()
            .map(|&app| spans.within(app.span(), index, || self.run(app, self.ranks, run)))
            .unzip();
        spans.end(batch_span);
        let wall = start.elapsed();

        let failed = App::ALL
            .iter()
            .zip(&outputs)
            .filter(|(&app, &out)| !self.matches_reference(app, out))
            .count() as u64;
        Batch {
            ops: App::ALL.len() as u64,
            failed,
            wall,
            report: outputs,
            runs,
        }
    }

    fn as_apps(&mut self) -> Option<&mut AppsWorkload> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_matches_its_reference_on_both_backends_and_rank_counts() {
        let mut w = AppsWorkload::new(3, 2);
        let mut spans = Spans::new(true);
        let real = w.batch(0, RunConfig::real(), &mut spans);
        let virt = w.batch(0, RunConfig::virtual_time(), &mut spans);
        assert_eq!(real.failed, 0);
        assert_eq!(real.ops, 5);
        assert!(real.same_logical_run(&virt));
        for app in App::ALL {
            let (out, _) = w.run(app, 1, RunConfig::real());
            assert!(w.matches_reference(app, out), "{app:?} on one rank");
        }
        // One root span per batch, one child per application.
        assert_eq!(spans.all().iter().filter(|s| s.parent.is_none()).count(), 2);
        assert_eq!(spans.all().len(), 12);
    }
}
