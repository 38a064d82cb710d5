//! A [`Problem`] stores its rows by nonzero: memory follows the nonzero
//! count, not `rows × columns`, and growing the variable set touches no
//! row. Measured with a byte-counting allocator on a block-angular LP in
//! the fleet's shape — where a dense row store held 514 × 1 280 doubles
//! (5.3 MB) for 5 120 nonzeros, and every admitted flow re-allocated all
//! of it.

#![expect(
    unsafe_code,
    reason = "the byte-counting global allocator below must implement GlobalAlloc (an unsafe trait); it only adds to thread-locals and defers to System"
)]

use dmc_lp::{Constraint, Problem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Defers to [`System`], counting this thread's bytes. `realloc` is the
/// trait's default — an `alloc`, a copy and a `dealloc` — so it is
/// counted as both.
struct CountingAlloc;

thread_local! {
    /// Bytes ever allocated.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Bytes ever freed.
    static FREED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREED.try_with(|c| c.set(c.get() + layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` on the current thread (other test threads have their own
/// counters): the bytes it allocated, the bytes of those still live when
/// it returned, and its result — kept alive past the reading.
fn measure<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let (allocated, freed) = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    let out = f();
    let allocated = ALLOCATED.with(Cell::get) - allocated;
    let freed = FREED.with(Cell::get) - freed;
    (allocated, allocated - freed, out)
}

const WIDTH: usize = 5;
const COUPLINGS: usize = 2;
/// Per block: its segment of each coupling row, a floor row, `Σx = 1`.
const NNZ_PER_BLOCK: usize = (COUPLINGS + 2) * WIDTH;

/// Admits one flow the way the fleet's joint assembly does: a block of
/// columns, its segment of every shared capacity row, its own two rows.
fn admit(p: &mut Problem) {
    let cols = p.append_block(&[0.5; WIDTH]).unwrap();
    if p.num_constraints() == 0 {
        for _ in 0..COUPLINGS {
            p.add_le_sparse(&[], 100.0).unwrap();
        }
    }
    for k in 0..COUPLINGS {
        p.set_row_range(k, cols.start, &[0.3; WIDTH]).unwrap();
    }
    let floor: Vec<(usize, f64)> = cols.clone().map(|j| (j, 0.5)).collect();
    p.add_ge_sparse(&floor, 0.1).unwrap();
    let ones: Vec<(usize, f64)> = cols.map(|j| (j, 1.0)).collect();
    p.add_eq_sparse(&ones, 1.0).unwrap();
}

fn fleet(blocks: usize) -> Problem {
    let mut p = Problem::maximize(Vec::new());
    for _ in 0..blocks {
        admit(&mut p);
    }
    p
}

#[test]
fn appending_a_block_allocates_the_same_whatever_the_row_count() {
    let built = fleet(256);
    // Two clones, so both start from the same (exact) capacities.
    let mut full = built.clone();
    let mut bare = built.clone();
    bare.truncate_rows(COUPLINGS);
    assert_eq!((full.num_constraints(), bare.num_constraints()), (514, 2));
    let (with_rows, _, _) = measure(|| full.append_block(&[0.5; WIDTH]).unwrap());
    let (without, _, _) = measure(|| bare.append_block(&[0.5; WIDTH]).unwrap());
    assert_eq!(with_rows, without, "append_block must touch no row");
    // What it does allocate: the objective and the block boundaries, each
    // grown at most twofold.
    let grown = 2 * 8 * (full.num_vars() + full.block_starts().len());
    assert!(
        with_rows <= grown,
        "{with_rows} B allocated, {grown} B allowed"
    );
}

#[test]
fn a_row_costs_twelve_bytes_per_nonzero() {
    let (_, live, built) = measure(|| fleet(256));
    let (n, rows, blocks) = (built.num_vars(), built.num_constraints(), 256);
    let nnz: usize = built.constraints().iter().map(Constraint::nnz).sum();
    assert_eq!((n, rows, nnz), (1280, 514, blocks * NNZ_PER_BLOCK));
    // A clone holds exactly what it stores: the objective, the block
    // boundaries, one `Constraint` header per row and a (u32, f64) per
    // nonzero — nothing that scales with rows × columns.
    let exact = 8 * n + 8 * blocks + std::mem::size_of::<Constraint>() * rows + 12 * nnz;
    let (_, cloned, copy) = measure(|| built.clone());
    assert_eq!(cloned, exact);
    assert_eq!(copy, built);
    // The problem grown in place holds at most the slack amortized growth
    // leaves: twice that.
    assert!(live <= 2 * exact, "{live} B live, {exact} B stored");
}
