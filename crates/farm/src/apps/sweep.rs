//! Hint-directed adaptive parameter sweep: embarrassingly irregular.
//!
//! The farm maximizes a multimodal objective over an interval by
//! recursive bisection: a task evaluates its interval's midpoint and —
//! down to a depth budget — spawns its two halves, each carrying an
//! admissible Lipschitz upper bound (`parent score + L·half-width`).
//! The steering hint is the best score found anywhere, so the skeleton's
//! `keep` test prunes subtrees whose bound can no longer win, exactly
//! like a branch-and-bound incumbent.
//!
//! Two kinds of irregularity stress the skeleton at once: the *cost* of
//! one evaluation varies by ~115× across the parameter (a geometric
//! series whose ratio depends on the parameter must be summed to
//! convergence), and the *shape* of the task tree depends on where the
//! maxima happen to be. Because the bound is admissible, the final best
//! score is identical for every process count, even though the set of
//! evaluated points is not.

use crate::skeleton::{Farm, WorkScope};
use archetype_mp::impl_fixed_size;

/// Lipschitz constant of [`SweepFarm::objective`] (safe overestimate of
/// `5 + 0.6·17 + 0.3·31 = 24.5`).
const LIPSCHITZ: f64 = 25.0;

/// Modeled flop-equivalents per series term of one evaluation.
const FLOPS_PER_TERM: f64 = 20.0;

/// Points one [`GridSweepFarm`] task evaluates, their series stepped in
/// lockstep by `SweepFarm::terms_lanes`: four AVX2 registers of four,
/// enough chains in flight to cover a multiply's latency.
const LANES: usize = 16;

/// One sweep task: an interval, its bisection depth, and an admissible
/// upper bound on the objective at any midpoint evaluated inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepTask {
    /// Interval lower end.
    pub lo: f64,
    /// Interval upper end.
    pub hi: f64,
    /// Bisection depth (0 for seed intervals).
    pub depth: u32,
    /// Admissible upper bound on the objective within the interval.
    pub bound: f64,
}

impl_fixed_size!(SweepTask);

/// The running maximum and work counters of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepOut {
    /// Best objective value found.
    pub best_score: f64,
    /// Parameter achieving `best_score` (smallest such, on ties).
    pub best_x: f64,
    /// Midpoint evaluations performed.
    pub evals: u64,
    /// Total series terms summed (the irregular cost).
    pub terms: u64,
}

impl_fixed_size!(SweepOut);

impl Default for SweepOut {
    fn default() -> Self {
        SweepOut {
            best_score: f64::NEG_INFINITY,
            best_x: f64::NAN,
            evals: 0,
            terms: 0,
        }
    }
}

/// An adaptive sweep job over `[lo, hi]` with `seeds` initial intervals
/// refined down to `max_depth` bisections.
#[derive(Clone, Debug)]
pub struct SweepFarm {
    /// Domain lower end.
    pub lo: f64,
    /// Domain upper end.
    pub hi: f64,
    /// Number of equal seed intervals.
    pub seeds: u32,
    /// Bisection depth budget below the seed intervals.
    pub max_depth: u32,
}

impl SweepFarm {
    /// The multimodal objective being maximized.
    pub fn objective(x: f64) -> f64 {
        (5.0 * x).sin() + 0.6 * (17.0 * x + 1.0).sin() + 0.3 * (31.0 * x).sin()
    }

    /// The series ratio `q(x) = 0.3 + 0.69·|sin(13x)|`.
    fn ratio(x: f64) -> f64 {
        0.3 + 0.69 * (13.0 * x).sin().abs()
    }

    /// Number of series terms an evaluation at `x` must sum: the ratio
    /// `q(x)` approaches 1 near the resonances, where convergence — and
    /// therefore the task — becomes ~115× more expensive than in the
    /// fast-converging regions (2 062 terms at `q = 0.99`, 18 at
    /// `q = 0.3`).
    pub fn eval_terms(x: f64) -> u64 {
        let q = Self::ratio(x);
        let mut term = 1.0f64;
        let mut k = 0u64;
        while term > 1e-9 {
            term *= q;
            k += 1;
        }
        k
    }

    /// The term counts of `LANES` series with ratios `q` (each in
    /// `[0, 1)`) at once. One series is a chain of dependent multiplies,
    /// so a single chain leaves the core waiting on latency; stepping
    /// independent series in lockstep fills it. A lane multiplies
    /// exactly as `eval_terms` does and counts a step only while its term
    /// is above 1e-9, so every count equals `eval_terms`'s.
    ///
    /// Only the multiply is on a lane's chain. A lane past the cut-off
    /// keeps multiplying, which cannot lift its term back over it, and
    /// every 16 steps a bit-mask select zeroes it: left alone, a lane
    /// with ratio 0.3 would reach the slow subnormal range ~570 steps
    /// after finishing, while the lane beside it may run 2 062. Freezing
    /// the term at every step instead put the compare and select on the
    /// chain too: the kernel over the 6 000-point grid took 0.86–1.2 ms
    /// that way against 0.44 with eight lanes (the one-point loop: 1.97;
    /// 2-vCPU VM). Once fewer than two lanes are live, the last one
    /// finishes alone rather than dragging the finished lanes through its
    /// tail. The kernel stays out of line, as `MandelbrotFarm`'s escape
    /// lanes do: inlined into its callers it took the 6 000-point cold
    /// price from 0.52 to 0.98 ms. Like them it is built twice, for AVX2
    /// (`avx2` alone), picked at run time where the CPU has it, and for
    /// the baseline. The 6 000-point cold price (`total_flops`, best of
    /// 120): 0.36 ms as written, 0.52 with eight AVX2 lanes, 0.76 with
    /// the sixteen baseline lanes and 0.63 with eight: a CPU without
    /// AVX2 pays for the wider block.
    fn terms_lanes(q: &[f64; LANES]) -> [u64; LANES] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2, checked just above.
            return unsafe { Self::terms_lanes_avx2(q) };
        }
        Self::terms_lanes_portable(q)
    }

    /// `terms_lanes` built for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn terms_lanes_avx2(q: &[f64; LANES]) -> [u64; LANES] {
        Self::terms_lanes_body(q)
    }

    /// `terms_lanes` built for the target's baseline.
    #[inline(never)]
    fn terms_lanes_portable(q: &[f64; LANES]) -> [u64; LANES] {
        Self::terms_lanes_body(q)
    }

    /// The body both builds of `terms_lanes` share.
    #[inline(always)]
    fn terms_lanes_body(q: &[f64; LANES]) -> [u64; LANES] {
        let mut term = [1.0f64; LANES];
        let mut k = [0u64; LANES];
        loop {
            for _ in 0..16 {
                for l in 0..LANES {
                    k[l] += u64::from(term[l] > 1e-9);
                    term[l] *= q[l];
                }
            }
            let mut running = 0;
            for t in &mut term {
                // All ones while the lane's term is above the cut-off.
                let live = u64::from(*t > 1e-9).wrapping_neg();
                *t = f64::from_bits(t.to_bits() & live);
                running += live & 1;
            }
            if running < 2 {
                break;
            }
        }
        for l in 0..LANES {
            while term[l] > 1e-9 {
                term[l] *= q[l];
                k[l] += 1;
            }
        }
        k
    }
}

impl Farm for SweepFarm {
    type Task = SweepTask;
    type Out = SweepOut;
    type Hint = f64; // best score found anywhere

    fn seed(&self) -> Vec<SweepTask> {
        let w = (self.hi - self.lo) / self.seeds as f64;
        (0..self.seeds)
            .map(|i| SweepTask {
                lo: self.lo + i as f64 * w,
                hi: self.lo + (i + 1) as f64 * w,
                depth: 0,
                bound: f64::INFINITY,
            })
            .collect()
    }

    fn work(&self, task: SweepTask, scope: &mut WorkScope<'_, Self>) {
        let mid = 0.5 * (task.lo + task.hi);
        let half = 0.5 * (task.hi - task.lo);
        let terms = Self::eval_terms(mid);
        scope.charge_flops(terms as f64 * FLOPS_PER_TERM);
        let score = Self::objective(mid);
        scope.emit(SweepOut {
            best_score: score,
            best_x: mid,
            evals: 1,
            terms,
        });
        if task.depth < self.max_depth {
            // Admissible bound for any midpoint inside either half:
            // |x - mid| <= half, so f(x) <= score + L*half.
            let child_bound = score + LIPSCHITZ * half;
            let incumbent = scope.hint().max(scope.acc().best_score);
            if child_bound > incumbent {
                for (lo, hi) in [(task.lo, mid), (mid, task.hi)] {
                    scope.spawn(SweepTask {
                        lo,
                        hi,
                        depth: task.depth + 1,
                        bound: child_bound,
                    });
                }
            }
        }
    }

    fn out_identity(&self) -> SweepOut {
        SweepOut::default()
    }

    fn reduce(&self, a: SweepOut, b: SweepOut) -> SweepOut {
        let (best_score, best_x) = if a.best_score > b.best_score
            || (a.best_score == b.best_score && a.best_x <= b.best_x)
        {
            (a.best_score, a.best_x)
        } else {
            (b.best_score, b.best_x)
        };
        SweepOut {
            best_score,
            best_x,
            evals: a.evals + b.evals,
            terms: a.terms + b.terms,
        }
    }

    fn priority(&self, task: &SweepTask) -> f64 {
        task.bound // most promising intervals first
    }

    fn task_flops(&self, _task: &SweepTask) -> f64 {
        0.0 // fully data-dependent; charged in `work`
    }

    fn local_hint(&self, acc: &SweepOut) -> f64 {
        acc.best_score
    }

    fn merge_hint(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn keep(&self, task: &SweepTask, hint: &f64) -> bool {
        task.bound > *hint
    }
}

/// A **fixed-grid** parameter sweep: evaluate [`SweepFarm::objective`] at
/// `points` equally spaced parameters and return *every* point's score,
/// indexed, in a single merged list.
///
/// Where [`SweepFarm`] prunes adaptively — so the set of evaluated points
/// depends on the steal/hint schedule — this farm's output is the full
/// score table, bit-identical for every process count, machine model, and
/// batching policy. That invariance is what downstream consumers need
/// when the sweep is one stage of a composed plan (`crates/compose`):
/// its output feeds a sort and a streaming digest whose results must not
/// depend on how the sweep was scheduled. The cost irregularity is the
/// same ~115× per-point spread as the adaptive sweep
/// ([`SweepFarm::eval_terms`]), so the farm still stresses batching and
/// stealing.
///
/// A task is a block of sixteen consecutive points whose series are
/// summed in lockstep; every score, term count and flop charge is the
/// one-point loop's. On one rank an `n`-point sweep therefore runs
/// `⌈n/16⌉` tasks, each emitting once — `⌈n/16⌉` `reduce` calls — and
/// allocates one block table per task plus the rank table's doublings:
/// at most 4× the allocations, plus a constant, for 4× the points
/// (`tests/complexity_gates.rs`).
#[derive(Clone, Debug)]
pub struct GridSweepFarm {
    /// Domain lower end.
    pub lo: f64,
    /// Domain upper end.
    pub hi: f64,
    /// Number of evaluation points.
    pub points: u32,
}

impl GridSweepFarm {
    /// The `i`-th evaluation parameter (midpoint rule over `points`
    /// equal cells).
    pub fn x(&self, i: u32) -> f64 {
        let w = (self.hi - self.lo) / self.points as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// The term counts of the block of points from `first`, counted by
    /// `lanes` (a build of `SweepFarm::terms_lanes`), lane `l` holding
    /// point `first + l`, and how many lanes are points. The spare lanes
    /// of a short last block get ratio 0, so they stop after one term and
    /// never hold the others up.
    fn block_terms(
        &self,
        first: u32,
        lanes: impl Fn(&[f64; LANES]) -> [u64; LANES],
    ) -> ([u64; LANES], usize) {
        let live = (self.points - first).min(LANES as u32) as usize;
        let q = std::array::from_fn(|l| {
            if l < live {
                SweepFarm::ratio(self.x(first + l as u32))
            } else {
                0.0
            }
        });
        (lanes(&q), live)
    }

    /// Modeled flop-equivalents of the whole sweep — the
    /// machine-independent work estimate a composition allocator prices
    /// branches with. Counted by the farm's own lane kernel and summed
    /// point by point in index order, so it is bit for bit the sum of
    /// `eval_terms` over the points.
    pub fn total_flops(&self) -> f64 {
        (0..self.points)
            .step_by(LANES)
            .flat_map(|first| {
                let (terms, live) = self.block_terms(first, SweepFarm::terms_lanes);
                terms.into_iter().take(live)
            })
            .map(|terms| terms as f64 * FLOPS_PER_TERM)
            .sum()
    }

    /// The score table a correct sweep must produce, computed directly.
    pub fn reference_scores(&self) -> Vec<f64> {
        (0..self.points)
            .map(|i| SweepFarm::objective(self.x(i)))
            .collect()
    }
}

impl Farm for GridSweepFarm {
    type Task = u32; // first point index of a block of `LANES`
    type Out = Vec<(u32, f64)>; // (index, score), sorted by index
    type Hint = ();

    fn seed(&self) -> Vec<u32> {
        (0..self.points).step_by(LANES).collect()
    }

    fn work(&self, first: u32, scope: &mut WorkScope<'_, Self>) {
        let (terms, live) = self.block_terms(first, SweepFarm::terms_lanes);
        // Whole numbers far below 2^53: the block's charge is exactly the
        // sum of its points' charges.
        let block: u64 = terms[..live].iter().sum();
        scope.charge_flops(block as f64 * FLOPS_PER_TERM);
        scope.emit(
            (first..first + live as u32)
                .map(|i| (i, SweepFarm::objective(self.x(i))))
                .collect(),
        );
    }

    fn out_identity(&self) -> Vec<(u32, f64)> {
        Vec::new()
    }

    /// Index-ordered merge of two disjoint sorted score lists —
    /// associative and commutative because point indices are unique, so
    /// the merged table is schedule-independent.
    ///
    /// [`WorkScope::emit`] calls this once per block with the rank's
    /// whole table as `a`, so it merges *into* `a`, from the back: the
    /// cost is `|b|` plus the entries of `a` above `b`'s first index.
    /// A rank draining its own deal emits ascending indices (nothing in
    /// `a` moves, its buffer grows by doubling), and a stolen
    /// out-of-order block displaces only the tail above it — where a
    /// merge into a fresh `Vec` made every emit O(|a|) and the sweep
    /// quadratic in its point count.
    fn reduce(&self, mut a: Vec<(u32, f64)>, b: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        if a.is_empty() {
            return b;
        }
        let (mut i, mut j) = (a.len(), b.len());
        a.resize(i + j, (0, 0.0));
        let mut k = i + j;
        // Fill `a[k..]` with the largest entries left; once `b` is
        // exhausted the rest of `a` is already in place.
        while j > 0 {
            k -= 1;
            if i > 0 && a[i - 1].0 > b[j - 1].0 {
                a[k] = a[i - 1];
                i -= 1;
            } else {
                a[k] = b[j - 1];
                j -= 1;
            }
        }
        a
    }

    fn task_flops(&self, _task: &u32) -> f64 {
        0.0 // fully data-dependent; charged in `work`
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_farm, FarmConfig, SEED_FLOPS_PER_TASK};
    use archetype_mp::{run_spmd, MachineModel};

    fn sweep() -> SweepFarm {
        SweepFarm {
            lo: 0.0,
            hi: 3.0,
            seeds: 24,
            max_depth: 6,
        }
    }

    /// Oracle: evaluate the *complete* bisection-midpoint set (no
    /// pruning). The admissible bound guarantees the farm finds this
    /// maximum no matter how many subtrees it prunes.
    fn exhaustive_best(farm: &SweepFarm) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut stack: Vec<(f64, f64, u32)> = farm
            .seed()
            .into_iter()
            .map(|t| (t.lo, t.hi, t.depth))
            .collect();
        while let Some((lo, hi, depth)) = stack.pop() {
            let mid = 0.5 * (lo + hi);
            best = best.max(SweepFarm::objective(mid));
            if depth < farm.max_depth {
                stack.push((lo, mid, depth + 1));
                stack.push((mid, hi, depth + 1));
            }
        }
        best
    }

    #[test]
    fn best_score_is_identical_for_every_process_count() {
        let farm = sweep();
        let expected = exhaustive_best(&farm);
        for p in [1usize, 2, 4, 8] {
            let f = farm.clone();
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                run_farm(&f, ctx, FarmConfig::default()).0
            });
            for o in &out.results {
                assert_eq!(o.best_score, expected, "p={p}");
            }
        }
    }

    #[test]
    fn pruning_skips_most_of_the_tree() {
        let farm = sweep();
        let full: u64 = farm.seeds as u64 * ((1 << (farm.max_depth + 1)) - 1);
        let f = farm.clone();
        let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
            run_farm(&f, ctx, FarmConfig::default()).0
        });
        let evals = out.results[0].evals;
        assert!(
            evals < full / 2,
            "hint pruning should skip most of the {full}-node tree, evaluated {evals}"
        );
    }

    #[test]
    fn evaluation_cost_is_genuinely_irregular() {
        let costs: Vec<u64> = (0..200)
            .map(|i| SweepFarm::eval_terms(3.0 * i as f64 / 200.0))
            .collect();
        let min = *costs.iter().min().unwrap();
        let max = *costs.iter().max().unwrap();
        assert!(
            max > 20 * min,
            "cost spread should exceed 20x (got {min}..{max})"
        );
    }

    #[test]
    fn repeated_runs_agree_exactly() {
        let run = || {
            let f = sweep();
            run_spmd(5, MachineModel::intel_delta(), move |ctx| {
                let (out, stats) = run_farm(&f, ctx, FarmConfig::default());
                (out.best_score, out.best_x, out.evals, stats)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.rank_times, b.rank_times);
    }

    /// The score table, bit for bit, and the charges are the one-point
    /// loop's: `reference_scores`, and every point's terms plus each
    /// rank's seed charge.
    #[test]
    fn grid_sweep_scores_are_process_count_and_model_invariant() {
        for points in [0, 1, 15, 16, 17, 33, 60, 6000] {
            let farm = GridSweepFarm {
                lo: 0.0,
                hi: 2.0,
                points,
            };
            let expected: Vec<(u32, u64)> = (0..points)
                .zip(farm.reference_scores())
                .map(|(i, s)| (i, s.to_bits()))
                .collect();
            let blocks = points.div_ceil(LANES as u32);
            let seed_flops = f64::from(blocks.max(1)) * SEED_FLOPS_PER_TASK;
            let term_flops = one_point_flops(&farm, 0..points);
            for model in [MachineModel::ibm_sp(), MachineModel::cray_t3d()] {
                for p in [1usize, 2, 3, 4, 5, 8] {
                    let out = run_spmd(p, model, |ctx| {
                        let (table, stats) = run_farm(&farm, ctx, FarmConfig::default());
                        (table, stats, ctx.stats().compute_time)
                    });
                    let at = format!("{points} points, p={p}, {}", model.name);
                    for (r, (table, stats, _)) in out.results.iter().enumerate() {
                        let got: Vec<(u32, u64)> =
                            table.iter().map(|&(i, s)| (i, s.to_bits())).collect();
                        assert_eq!(got, expected, "{at}, rank {r}");
                        assert_eq!(stats.executed, u64::from(blocks), "{at}");
                    }
                    let charged: f64 = out.results.iter().map(|r| r.2).sum();
                    let cost = model.compute_time(p as f64 * seed_flops + term_flops);
                    assert!(
                        (charged - cost).abs() <= 1e-12 * cost,
                        "{at}: charged {charged} s, the points cost {cost} s"
                    );
                }
            }
        }
    }

    /// The guard against the quadratic fold coming back: `emit` hands
    /// `reduce` the rank's whole table as `a` once per block, so `a`'s
    /// buffer must be reused, not copied into a fresh one.
    #[test]
    fn grid_sweep_reduce_merges_into_its_left_buffer() {
        let farm = GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points: 8,
        };
        let mut table = Vec::with_capacity(8);
        table.extend([(0, 0.0), (2, 2.0)]);
        let buffer = table.as_ptr();
        // In deal order, then a stolen point landing below the tail.
        let table = farm.reduce(table, vec![(5, 5.0)]);
        let table = farm.reduce(table, vec![(1, 1.0), (3, 3.0)]);
        assert_eq!(table, [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0), (5, 5.0)]);
        assert_eq!(table.as_ptr(), buffer, "the table was reallocated");

        let table = farm.reduce(table, Vec::new());
        assert_eq!(table.as_ptr(), buffer);
        let table = farm.reduce(farm.out_identity(), table);
        assert_eq!(table.as_ptr(), buffer, "an empty side costs nothing");
    }

    /// The one-point loop's charge for each of `points`.
    fn one_point_flops(farm: &GridSweepFarm, points: impl Iterator<Item = u32>) -> f64 {
        points
            .map(|i| SweepFarm::eval_terms(farm.x(i)) as f64 * FLOPS_PER_TERM)
            .sum()
    }

    #[test]
    fn grid_sweep_total_flops_prices_the_irregular_work() {
        for (lo, hi, points) in [
            (0.0, 2.0, 40),
            (0.0, 4.0, 6000),
            (-1.0, 2.0, 0),
            (-1.0, 2.0, 1),
            (0.3, 0.31, 7),
            (-3.0, 5.0, 1001),
        ] {
            let farm = GridSweepFarm { lo, hi, points };
            let total = farm.total_flops();
            assert_eq!(
                total.to_bits(),
                one_point_flops(&farm, 0..points).to_bits(),
                "[{lo}, {hi}] at {points} points"
            );
            assert_eq!(total > 0.0, points > 0);
            assert_eq!(farm.reference_scores().len(), points as usize);
        }
    }

    /// Parameters whose ratio is the floor, 0.3 (18 terms), and the
    /// ceiling, 0.99 (2 062 terms).
    const FAST: f64 = 0.0;
    const SLOW: f64 = std::f64::consts::PI / 26.0;

    /// One build of the lane kernel.
    type Lanes = fn(&[f64; LANES]) -> [u64; LANES];

    /// Both builds of `terms_lanes`, each called directly: a host with
    /// AVX2 never dispatches to the baseline one. The AVX2 one only
    /// where the CPU has AVX2.
    fn terms_twins() -> Vec<Lanes> {
        let mut twins: Vec<Lanes> = vec![SweepFarm::terms_lanes_portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: pushed only where the CPU has AVX2.
            twins.push(|q| unsafe { SweepFarm::terms_lanes_avx2(q) });
        }
        twins
    }

    /// `lanes` at the ratios of `xs`, checked against `eval_terms` at
    /// each.
    fn lanes_match_eval_terms(lanes: Lanes, xs: [f64; LANES]) -> [u64; LANES] {
        let got = lanes(&xs.map(SweepFarm::ratio));
        assert_eq!(got, xs.map(SweepFarm::eval_terms), "{xs:?}");
        got
    }

    #[test]
    fn lanes_count_every_series_as_the_one_point_loop_does() {
        assert_eq!(SweepFarm::eval_terms(FAST), 18);
        assert_eq!(SweepFarm::eval_terms(SLOW), 2062);
        for lanes in terms_twins() {
            // All lanes equal: both extremes, and one in between.
            for x in [FAST, SLOW, 0.37] {
                lanes_match_eval_terms(lanes, [x; LANES]);
            }
            // One long lane among short ones, in every position: once the
            // short ones are done it finishes alone.
            for slow in 0..LANES {
                let mut xs = [FAST; LANES];
                xs[slow] = SLOW;
                let got = lanes_match_eval_terms(lanes, xs);
                assert_eq!(got.iter().sum::<u64>(), 2062 + (LANES as u64 - 1) * 18);
            }
            // Two long lanes run in lockstep to the end; and the extremes
            // alternating.
            let mut xs = [FAST; LANES];
            (xs[1], xs[LANES - 2]) = (SLOW, SLOW);
            lanes_match_eval_terms(lanes, xs);
            lanes_match_eval_terms(lanes, std::array::from_fn(|l| [FAST, SLOW][l % 2]));
            // A spare lane (ratio 0) counts one term.
            let mut q = [0.0; LANES];
            q[1] = 0.3;
            let mut want = [1; LANES];
            want[1] = 18;
            assert_eq!(lanes(&q), want);
        }
    }

    #[test]
    fn blocks_count_every_point_on_every_remainder() {
        for lanes in terms_twins() {
            for remainder in 0..LANES as u32 {
                let farm = GridSweepFarm {
                    lo: -1.0,
                    hi: 2.0,
                    points: 3 * LANES as u32 + remainder,
                };
                let mut counted = 0;
                for first in farm.seed() {
                    let (terms, live) = farm.block_terms(first, lanes);
                    let points = first..(first + LANES as u32).min(farm.points);
                    let at = format!("block {first} of {}", farm.points);
                    assert_eq!(live, points.len(), "{at}");
                    let want: Vec<u64> = points.map(|i| SweepFarm::eval_terms(farm.x(i))).collect();
                    assert_eq!(terms[..live], want, "{at}");
                    counted += live;
                }
                assert_eq!(counted, farm.points as usize);
            }
        }
    }
}
