//! Heap allocations per trial, as a deterministic count.
//!
//! A cell lifecycle must not rebuild what never changes: cells created
//! from the same region list share one stage-2 table, every RTOS
//! (re)start copies one pristine kernel image, and restoring a trial
//! from the pristine-prefix snapshot copies table pointers, not
//! tables. Wall-clock time on a shared host cannot resolve that, so
//! this test counts instead: a counting global allocator measures the
//! allocations and bytes of fixed-seed trials of the three benchmark
//! workloads' scenarios, after warm-up trials have run the one-off
//! set-up (the process-wide testbed and images, the runner's prefix
//! snapshot). Each budget is the measured value plus 10 %.
//!
//! This file holds one test so no other test allocates concurrently.

use certify_core::campaign::{Scenario, TrialRunner};
use certify_core::{DumpPolicy, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting
// touches no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation counts as one allocation of its new size.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Trials run before counting starts.
const WARM_UP: u64 = 3;
/// Trials counted.
const MEASURED: u64 = 20;
/// The first warm-up trial's seed.
const BASE_SEED: u64 = 0xA110C;

/// Mean allocations and bytes of one trial.
#[derive(Debug, Clone, Copy)]
struct PerTrial {
    allocs: u64,
    bytes: u64,
}

/// Runs `WARM_UP` then `MEASURED` consecutive seeds through one runner
/// (traced with `trace` when set) and returns the measured trials'
/// mean allocations and bytes. The result and any dump are dropped
/// inside the measurement, like an engine that streams them out.
fn per_trial(runner: &TrialRunner, trace: Option<&TraceConfig>) -> PerTrial {
    for seed in BASE_SEED..BASE_SEED + WARM_UP {
        drop(runner.run_trial_traced(seed, trace));
    }
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    for seed in BASE_SEED + WARM_UP..BASE_SEED + WARM_UP + MEASURED {
        drop(runner.run_trial_traced(seed, trace));
    }
    PerTrial {
        allocs: (ALLOCS.load(Ordering::Relaxed) - allocs) / MEASURED,
        bytes: (BYTES.load(Ordering::Relaxed) - bytes) / MEASURED,
    }
}

#[test]
fn trials_stay_within_their_allocation_budgets() {
    // The benchmark's traced workload: a 512-event flight recorder
    // with anomaly dumps.
    let traced = TraceConfig::new()
        .with_capacity(512)
        .with_policy(DumpPolicy::anomalies());
    // (name, scenario, trace, budget: allocations, bytes per trial).
    // Measured: e2 2561 / 405 975, e3 99 / 31 196, e7 115 / 90 485.
    let budgets = [
        ("e2", Scenario::e2_nonroot_high(), None, (2_817, 446_573)),
        ("e3", Scenario::e3_fig3(), None, (109, 34_316)),
        ("e7", Scenario::e7_mixed(), Some(&traced), (127, 99_534)),
    ];
    let mut over = Vec::new();
    for (name, scenario, trace, (max_allocs, max_bytes)) in budgets {
        let measured = per_trial(&scenario.runner(), trace);
        println!(
            "{name}: {} allocations, {} bytes per trial",
            measured.allocs, measured.bytes
        );
        if measured.allocs > max_allocs || measured.bytes > max_bytes {
            over.push(format!(
                "{name}: {measured:?} per trial, budget {max_allocs} allocations / {max_bytes} bytes"
            ));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:#?}");
}
