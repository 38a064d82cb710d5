//! Telemetry determinism and zero-cost pins for dmc-obs, end to end
//! through the public facade:
//!
//! * the merged chaos-workload snapshot (fleet replays through the
//!   Monte-Carlo engine plus a faulted protocol run) must be
//!   **bit-identical** — same FNV-1a hash, same JSONL bytes — at 1 and
//!   4 worker threads and across repeated replays of the same seed;
//! * a **disabled** registry (the default every library config ships
//!   with) must not allocate: instrumentation left compiled into the
//!   solver's hot loops may cost a branch, never a malloc.

#![expect(
    unsafe_code,
    reason = "the counting global allocator below must implement GlobalAlloc (an unsafe trait); it only increments a thread-local and defers to System"
)]

use deadline_multipath::experiments::chaos;
use deadline_multipath::experiments::montecarlo::MonteCarloConfig;
use deadline_multipath::obs::{Obs, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Defers every allocation to [`System`], counting this thread's calls.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on the current thread (other test threads
/// have their own counters, so this is parallel-test safe).
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn disabled_registry_performs_no_allocation() {
    let obs = Obs::disabled();
    // Warm nothing: handles are created inside the measured block, the
    // way instrumented library code uses them.
    let (allocs, ()) = allocations_during(|| {
        for i in 0..100u64 {
            obs.counter("lp.pivots").add(i);
            obs.gauge("fleet.shed_queue").add(1);
            obs.histogram("lp.eta_len").record(i);
            obs.advance(i);
            obs.advance_to(i);
            drop(obs.span("lp.solve"));
            let _ = obs.tick();
        }
        let _ = obs.fork();
    });
    assert_eq!(allocs, 0, "a disabled sink must be malloc-free");
    // And it observes nothing: the snapshot is empty.
    assert_eq!(obs.snapshot(), Snapshot::default());
}

/// The chaos workload of the `chaos` driver, recorded into a fresh
/// registry at the given worker-thread count.
fn chaos_snapshot(threads: usize) -> Snapshot {
    let obs = Obs::enabled();
    let mc = MonteCarloConfig {
        trials: 3,
        threads,
        base_seed: 0xDEAD_BEEF,
    };
    let outcomes = chaos::fleet_chaos_mc(&mc, chaos::CHAOS_FLOWS, &obs);
    assert!(
        outcomes.iter().all(|o| o.violations.is_empty()),
        "chaos invariants (incl. the telemetry cross-check) must hold"
    );
    chaos::proto_chaos_run(mc.base_seed, 1_500, &obs).expect("proto chaos run succeeds");
    obs.snapshot()
}

#[test]
fn chaos_telemetry_is_bitwise_identical_across_threads_and_replays() {
    let seq = chaos_snapshot(1);
    let par = chaos_snapshot(4);
    let again = chaos_snapshot(4);
    assert_eq!(
        seq.fnv_hash(),
        par.fnv_hash(),
        "snapshot hash must not depend on worker threads"
    );
    assert_eq!(
        par.fnv_hash(),
        again.fnv_hash(),
        "snapshot hash must reproduce across replays"
    );
    assert_eq!(
        seq.to_jsonl(),
        par.to_jsonl(),
        "bitwise, not just hash-equal"
    );
    // The workload actually exercised all four instrumented layers.
    for name in [
        "lp.solves",
        "fleet.sheds",
        "proto.tx.generated",
        "sim.events",
    ] {
        assert!(
            seq.counter(name).unwrap_or(0) > 0,
            "expected nonzero counter {name}"
        );
    }
}
