//! A [`Plan`] shares its model's scenario, combination table and timeout
//! schedule: [`ScenarioModel::plan_for`] copies none of them, so the heap
//! blocks it allocates do not grow with the combination count. Measured
//! with a block-counting allocator (the pattern of
//! `crates/lp/tests/row_storage.rs`) — where packaging used to cost one
//! block per combination for the schedule alone (`num_combos + 3`).

// dmc-lint: allow-file(unsafe-code) the block-counting global allocator below must implement GlobalAlloc (an unsafe trait); it only adds to a thread-local and defers to System

use dmc_core::{Objective, Planner, Scenario, ScenarioModel, ScenarioPath};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Defers to [`System`], counting this thread's allocations.
struct CountingAlloc;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The model of `paths` constant-delay paths with `m` transmissions.
fn model(paths: usize, m: usize) -> ScenarioModel {
    let path = |k: usize| {
        let delay = 0.050 + 0.040 * k as f64;
        ScenarioPath::constant(20e6, delay, 0.05).expect("valid path")
    };
    let scenario = Scenario::builder()
        .paths((0..paths).map(path))
        .data_rate(60e6)
        .lifetime(0.8)
        .transmissions(m)
        .build()
        .expect("valid scenario");
    Planner::new().model(&scenario)
}

/// Heap blocks one `plan_for` allocates on `model`; the assignment it
/// consumes is built outside the count.
fn blocks_of_plan_for(model: &ScenarioModel) -> usize {
    let n = model.num_combos();
    let x = vec![1.0 / n as f64; n];
    let before = BLOCKS.with(Cell::get);
    let plan = model.plan_for(Objective::MaxQuality, x);
    let blocks = BLOCKS.with(Cell::get) - before;
    // Shared, not equal copies: the plan reads the model's own schedule.
    assert!(std::ptr::eq(plan.schedule(), model.schedule()));
    assert!(std::ptr::eq(plan.scenario(), model.scenario()));
    blocks
}

#[test]
fn plan_for_allocates_the_same_whatever_the_combination_count() {
    let (small, large) = (model(2, 2), model(6, 3));
    assert_eq!((small.num_combos(), large.num_combos()), (9, 343));
    let (few, many) = (blocks_of_plan_for(&small), blocks_of_plan_for(&large));
    assert_eq!(few, many, "plan_for's allocations follow the combinations");
    // The strategy's send rates, and nothing per combination.
    assert!(few <= 2, "{few} heap blocks per plan_for");
}
