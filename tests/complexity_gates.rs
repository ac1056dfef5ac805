//! Complexity gates: exact, deterministic evidence for costs the virtual
//! clock never charges (ROADMAP item 1). This binary installs a counting
//! allocator — per-thread counters, so the harness and sibling tests
//! cannot pollute a measurement — and asserts allocation *counts*, next
//! to the bit-identity the rewritten grid op must keep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parallel_archetypes::compose::{
    run_plan_traced, ArchetypeJob, Plan, PlanService, PoissonJob, ServeConfig, Value,
};
use parallel_archetypes::core::archetype::ONE_DEEP_DC;
use parallel_archetypes::core::{ArchetypeInfo, ExecutionMode, PhaseTrace};
use parallel_archetypes::dc::recursive::{
    run_shared as run_recursive_shared, run_spmd_recursive, CutoffPolicy, Recursive,
};
use parallel_archetypes::dc::traditional::merge_two;
use parallel_archetypes::dc::RecursiveMergesort;
use parallel_archetypes::farm::apps::{GridSweepFarm, MandelbrotFarm};
use parallel_archetypes::farm::{run_farm, FarmConfig};
use parallel_archetypes::mesh::apps::poisson::{poisson_shared, poisson_spmd, PoissonSpec};
use parallel_archetypes::mp::topology::block_range;
use parallel_archetypes::mp::{run_spmd, Ctx, MachineModel, ProcessGrid2};
use parallel_archetypes::pipeline::apps::{BlurStage, GradientStage, ImageChain};
use parallel_archetypes::pipeline::{Pipeline, Stage};

/// Requests of at least this many bytes are data, not bookkeeping: a
/// message's box or a group's member list is far smaller.
const DATA_BYTES: usize = 4096;

thread_local! {
    /// `(allocations, bytes requested)` by this thread so far. Const
    /// initialised and without a destructor, so touching it from inside
    /// the allocator allocates nothing.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The same for this thread's requests of at least `DATA_BYTES`.
    static DATA_ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    let add = |c: &Cell<(u64, u64)>| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    };
    ALLOCATED.with(add);
    if bytes >= DATA_BYTES {
        DATA_ALLOCATED.with(add);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only a thread-local
// `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` the calling thread makes while running `f`.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// A problem with nothing symmetric about it: non-zero right-hand side,
/// a boundary that differs on every edge, `nx ≠ ny` allowed.
fn lopsided_problem(nx: usize, ny: usize, tolerance: f64, max_iters: usize) -> PoissonSpec {
    fn f(x: f64, y: f64) -> f64 {
        3.0 * (2.0 * x + 0.3).sin() - 5.0 * y * y
    }
    fn g(x: f64, y: f64) -> f64 {
        1.0 + x - 2.0 * y + (7.0 * x * y).cos()
    }
    PoissonSpec {
        nx,
        ny,
        tolerance,
        max_iters,
        f,
        g,
    }
}

#[test]
fn poisson_spmd_is_poisson_shared_bit_for_bit_on_every_block_shape() {
    let mut interior_columns_seen = BTreeSet::new();
    let mut boundary_only_rank_seen = false;
    for (px, py) in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)] {
        // Rows: 3 over px = 3 (or 2) leaves ranks holding nothing but
        // global-boundary rows. Columns: chosen so that some rank's block
        // has 1, 2, 7, 8, 9 and 17 globally interior columns on each
        // process grid — under, at and over the sweep's lane width.
        for nx in [3usize, 4, 9] {
            for ny in [3usize, 4, 6, 9, 10, 11, 16, 18, 19, 20, 27, 29, 36, 53] {
                let spec = lopsided_problem(nx, ny, 1e-6, 40);
                let reference = poisson_shared(&spec, ExecutionMode::Sequential);
                let pg = ProcessGrid2::new(px, py);
                let out = run_spmd(pg.len(), MachineModel::ibm_sp(), move |ctx| {
                    poisson_spmd(ctx, &spec, pg)
                });
                let at = format!("{nx}x{ny} grid on {px}x{py} ranks");
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(out.results[0].grid.as_ref().expect("rank 0 gathers")),
                    bits(reference.grid.as_ref().expect("shared returns the grid")),
                    "{at}: grid"
                );
                for r in &out.results {
                    assert_eq!(r.iters, reference.iters, "{at}: iters");
                    assert_eq!(
                        r.diffmax.to_bits(),
                        reference.diffmax.to_bits(),
                        "{at}: diffmax"
                    );
                }
                for pj in 0..py {
                    let (y0, len) = block_range(ny, py, pj);
                    let interior = (y0..y0 + len).filter(|&j| j != 0 && j != ny - 1).count();
                    interior_columns_seen.insert((px, py, interior));
                }
                for pi in 0..px {
                    let (x0, len) = block_range(nx, px, pi);
                    boundary_only_rank_seen |=
                        len > 0 && (x0..x0 + len).all(|i| i == 0 || i == nx - 1);
                }
            }
        }
        for wanted in [1, 2, 7, 8, 9, 17] {
            assert!(
                interior_columns_seen.contains(&(px, py, wanted)),
                "no rank of the {px}x{py} grid had {wanted} interior columns"
            );
        }
    }
    assert!(boundary_only_rank_seen);
}

#[test]
fn poisson_spmd_allocates_nothing_per_sweep_on_one_rank() {
    let allocations = |max_iters: usize| {
        // Tolerance 0 is never met, so exactly `max_iters` sweeps run.
        let spec = lopsided_problem(24, 24, 0.0, max_iters);
        let out = run_spmd(1, MachineModel::ibm_sp(), move |ctx| {
            // Counted on the rank's own thread, inside the body.
            let (solved, count, _) =
                allocations_of(|| poisson_spmd(ctx, &spec, ProcessGrid2::new(1, 1)));
            assert_eq!(solved.iters, max_iters);
            count
        });
        out.results[0]
    };
    let (short, long) = (allocations(10), allocations(100));
    assert!(short > 0, "the counter counts: set-up allocates the grids");
    assert_eq!(
        short, long,
        "ten times the sweeps must not allocate once more"
    );
}

/// Sorted `a` and `b` of `na` and `nb` interleaving keys, `a` with room
/// for `spare` more.
fn merge_runs(na: usize, nb: usize, spare: usize) -> (Vec<u64>, Vec<u64>) {
    let mut a = Vec::with_capacity(na + spare);
    a.extend((0..na as u64).map(|i| 3 * i));
    (a, (0..nb as u64).map(|i| 2 * i + 1).collect())
}

const MERGE_SHAPES: [(usize, usize); 6] = [
    (0, 0),
    (1, 0),
    (0, 5),
    (1000, 1),
    (4096, 5000),
    (5000, 4096),
];

#[test]
fn merge_two_into_a_run_with_room_allocates_nothing() {
    for (na, nb) in MERGE_SHAPES {
        let (a, b) = merge_runs(na, nb, nb);
        let (merged, count, _) = allocations_of(|| merge_two(a, b));
        assert_eq!(merged.len(), na + nb);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(count, 0, "{na}+{nb}: allocations");
    }
}

#[test]
fn merge_two_grows_a_run_without_room_once() {
    for (na, nb) in MERGE_SHAPES {
        let (a, b) = merge_runs(na, nb, 0);
        let (merged, count, bytes) = allocations_of(|| merge_two(a, b));
        assert_eq!(merged.len(), na + nb);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        // No growth at all when `b` is empty.
        assert_eq!(count, u64::from(nb > 0), "{na}+{nb}: allocations");
        assert_eq!(bytes, 8 * (na + nb) as u64 * count, "{na}+{nb}: bytes");
    }
}

thread_local! {
    /// `(tails, bytes)` the mergesort's divide split off on this thread.
    static SPLIT_OFF: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `RecursiveMergesort` with its divide's split-off tails counted.
struct TailCounting(RecursiveMergesort<u64>);

impl Recursive for TailCounting {
    type Problem = Vec<u64>;
    type Solution = Vec<u64>;

    fn size(&self, p: &Vec<u64>) -> usize {
        self.0.size(p)
    }
    fn divide(&self, p: Vec<u64>, k: usize) -> Vec<Vec<u64>> {
        let parts = self.0.divide(p, k);
        for tail in &parts[1..] {
            let (n, b) = SPLIT_OFF.with(Cell::get);
            SPLIT_OFF.with(|c| c.set((n + 1, b + 8 * tail.capacity() as u64)));
        }
        parts
    }
    fn solve(&self, p: Vec<u64>) -> Vec<u64> {
        self.0.solve(p)
    }
    fn combine(&self, parts: Vec<Vec<u64>>) -> Vec<u64> {
        self.0.combine(parts)
    }
    fn divide_cost(&self, p: &Vec<u64>) -> f64 {
        self.0.divide_cost(p)
    }
    fn solve_cost(&self, p: &Vec<u64>) -> f64 {
        self.0.solve_cost(p)
    }
    fn combine_cost(&self, parts: &[Vec<u64>]) -> f64 {
        self.0.combine_cost(parts)
    }
}

/// One rank's allocations in a mergesort: data-sized ones, the tails its
/// divides split off, and the bytes of everything smaller.
#[derive(Debug)]
struct SortAllocations {
    data: (u64, u64),
    tails: (u64, u64),
    bookkeeping_bytes: u64,
}

#[test]
fn a_mergesort_allocates_its_split_off_tails_and_no_merged_run() {
    // A binary mergesort of `n` keys recursing while a group has ranks
    // to spare. One rank runs the shared driver three levels deep, since
    // the SPMD driver does not divide on one rank.
    let run = |p: usize, n: u64| -> Vec<SortAllocations> {
        let keys: Vec<u64> = (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let alg = TailCounting(RecursiveMergesort::new());
        let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            let input = (ctx.rank() == 0).then(|| keys.clone());
            SPLIT_OFF.with(|c| c.set((0, 0)));
            let (d0, d1) = DATA_ALLOCATED.with(Cell::get);
            let (sorted, _, bytes) = allocations_of(|| {
                if p == 1 {
                    let policy = CutoffPolicy::exact_depth(3, 2);
                    input.map(|k| {
                        run_recursive_shared(&alg, k, &policy, ExecutionMode::Sequential, None)
                    })
                } else {
                    let policy = CutoffPolicy::exact_depth(p.ilog2() as usize, 2);
                    run_spmd_recursive(&alg, ctx, input, &policy, None)
                }
            });
            if let Some(sorted) = sorted {
                assert_eq!(sorted, expected, "p={p}, n={n}");
            }
            let (n1, b1) = DATA_ALLOCATED.with(Cell::get);
            SortAllocations {
                data: (n1 - d0, b1 - d1),
                tails: SPLIT_OFF.with(Cell::get),
                bookkeeping_bytes: bytes - (b1 - d1),
            }
        });
        out.results
    };
    let n = 10_001;
    for (p, divides) in [(1, 7), (2, 1), (4, 3)] {
        run(p, n); // warm the pool's rank threads and their arenas
        let (short, long) = (run(p, n), run(p, 4 * n));
        for (rank, (short, long)) in short.iter().zip(&long).enumerate() {
            let at = format!("p={p}, rank {rank}");
            // Every data-sized allocation is a tail the divide split off;
            // a combine that allocated its merged run would add one.
            assert_eq!(short.data, short.tails, "{at}, {n} keys");
            assert_eq!(long.data, long.tails, "{at}, {} keys", 4 * n);
            assert_eq!(short.data.0, long.data.0, "{at}: 4 times the keys");
            // The rest is messages and groups, whatever the key count.
            assert!(
                short.bookkeeping_bytes.max(long.bookkeeping_bytes) < DATA_BYTES as u64,
                "{at}: {short:?} {long:?}"
            );
        }
        let tails: u64 = short.iter().map(|r| r.tails.0).sum();
        assert_eq!(tails, divides, "p={p}: binary divides");
    }
}

/// A one-atom plan running exactly `max_iters` Jacobi sweeps.
fn poisson_plan(max_iters: usize) -> Plan {
    Plan::atom(PoissonJob {
        spec: lopsided_problem(14, 14, 0.0, max_iters),
    })
}

#[test]
fn an_untraced_plan_run_allocates_nothing_per_iteration() {
    let allocations = |max_iters: usize, traced: bool| {
        let plan = poisson_plan(max_iters);
        let trace = PhaseTrace::new();
        let out = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
            let trace = traced.then_some(&trace);
            allocations_of(|| run_plan_traced(ctx, &plan, Value::Unit, trace)).1
        });
        out.results[0]
    };
    assert!(allocations(10, false) > 0);
    assert_eq!(
        allocations(10, false),
        allocations(100, false),
        "nobody reads an untraced run's phases, so none may be built"
    );
    // A reader pays for what it reads: three labelled phases a sweep.
    assert!(allocations(100, true) >= allocations(10, true) + 3 * 90);
}

/// Publishes the serving rank's allocation count when it runs, so two of
/// them bracket whatever the rank thread did in between.
struct AllocationProbe(Arc<AtomicU64>);

impl ArchetypeJob for AllocationProbe {
    type In = ();
    type Out = ();

    fn name(&self) -> &'static str {
        "allocation-probe"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &ONE_DEEP_DC
    }

    fn estimate_flops(&self, _input: &()) -> f64 {
        1.0
    }

    fn run(&self, _ctx: &mut Ctx, _input: (), _trace: Option<&PhaseTrace>) {
        self.0.store(ALLOCATED.with(Cell::get).0, Ordering::Relaxed);
    }
}

#[test]
fn a_warm_plan_service_batch_allocates_nothing_per_iteration() {
    // One rank, so the batch is 66 one-plan waves on one thread: probe,
    // 64 Poisson plans, probe.
    let mut svc = PlanService::new(1, ServeConfig::default());
    let mut between_probes = |max_iters: usize| {
        let (before, after) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        svc.submit(0, Plan::atom(AllocationProbe(before.clone())), Value::Unit)
            .unwrap();
        for _ in 0..64 {
            svc.submit(0, poisson_plan(max_iters), Value::Unit).unwrap();
        }
        svc.submit(0, Plan::atom(AllocationProbe(after.clone())), Value::Unit)
            .unwrap();
        let out = svc.serve(MachineModel::ibm_sp());
        assert!(out.report.outcomes.iter().all(|o| o.is_ok()));
        after.load(Ordering::Relaxed) - before.load(Ordering::Relaxed)
    };
    between_probes(20); // warm the pool, the caches and the arena
    let (short, long) = (between_probes(20), between_probes(60));
    assert!(short > 0, "the probes bracket the rank's work");
    assert_eq!(
        short, long,
        "three times the sweeps in 64 plans must not allocate once more"
    );
}

/// Bytes of a tile's one-cell ghost-bordered block.
fn ghost_block_bytes(w: u32, h: u32) -> u64 {
    8 * u64::from((w + 2) * (h + 2))
}

#[test]
fn the_blur_allocates_two_ghost_blocks_whatever_the_pass_count() {
    // A ragged edge tile and a whole tile of the benchmark's chain.
    for (chain, seq) in [
        (ImageChain::new(100, 70, 13, 0), 47),
        (ImageChain::new(512, 384, 32, 0), 0),
    ] {
        let tile = chain.ingest(seq).expect("the tile exists");
        let ghost_block = ghost_block_bytes(tile.w, tile.h);
        for passes in [1, 24] {
            let input = tile.clone();
            let (_, count, bytes) = allocations_of(|| BlurStage { passes }.transform(seq, input));
            assert_eq!(
                (count, bytes),
                (2, 2 * ghost_block),
                "{passes} passes: the two swapped blocks, never one per pass"
            );
        }
    }
}

#[test]
fn the_gradient_allocates_its_ghost_block_and_nothing_else() {
    let chain = ImageChain::new(100, 70, 13, 0);
    for seq in [0, 7, 47] {
        let tile = chain.ingest(seq).expect("the tile exists");
        let ghost_block = ghost_block_bytes(tile.w, tile.h);
        let (_, count, bytes) = allocations_of(|| GradientStage.transform(seq, tile));
        assert_eq!((count, bytes), (1, ghost_block), "tile {seq}");
    }
}

#[test]
fn a_grid_sweep_at_four_times_the_points_folds_and_allocates_four_times() {
    // `(tasks, allocations)` of a one-rank sweep. On one rank the
    // skeleton calls `reduce` only from `emit`, and every emit hands it
    // a freshly allocated block table, so allocations within a few
    // doublings of the task count mean one emit — one `reduce` — per
    // task (a sweep that emitted per point would allocate 16× as often:
    // a task is a block of `LANES` = 16 points).
    let run = |points: u32| {
        let farm = GridSweepFarm {
            lo: 0.0,
            hi: 4.0,
            points,
        };
        let out = run_spmd(1, MachineModel::ibm_sp(), move |ctx| {
            let ((table, stats), count, _) =
                allocations_of(|| run_farm(&farm, ctx, FarmConfig::default()));
            assert_eq!(table.len(), points as usize);
            (stats.executed, count)
        });
        out.results[0]
    };
    let n = 1001;
    let (short, long) = (run(n), run(4 * n));
    for (points, (folds, allocations)) in [(n, short), (4 * n, long)] {
        assert_eq!(folds, u64::from(points.div_ceil(16)), "{points} points");
        assert!(
            (folds..folds + 32).contains(&allocations),
            "{points} points: {allocations} allocations for {folds} tasks"
        );
    }
    let (short, long) = (short.1, long.1);
    assert!(
        long <= 4 * short + 8,
        "4 times the points: {short} -> {long} allocations"
    );
}

#[test]
fn a_mandelbrot_render_allocates_nothing_per_iteration() {
    let allocations = |max_iter: u32| {
        let farm = MandelbrotFarm::seahorse(60, 40, 20, max_iter);
        let out = run_spmd(1, MachineModel::ibm_sp(), move |ctx| {
            allocations_of(|| run_farm(&farm, ctx, FarmConfig::default())).1
        });
        out.results[0]
    };
    let (short, long) = (allocations(100), allocations(1500));
    assert!(
        short > 0,
        "the counter counts: the farm allocates its queue"
    );
    assert_eq!(
        short, long,
        "15 times the iterations must not allocate once more"
    );
}
