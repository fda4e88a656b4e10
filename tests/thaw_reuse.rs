//! Thawing an engine reuses the operation cache a dropped engine left.
//!
//! A point query builds one `DiffProp::from_snapshot` per request. Its op
//! cache is the only large block that call needs, and a dropped engine
//! parks that block as the process-wide spare, so the next thaw of the
//! same circuit allocates nothing large. The reused cache is cleared by a
//! stamp bump, so an engine on it must report exactly what an engine on a
//! fresh allocation reports: every summary and every kernel counter.
//!
//! This binary holds one test, so no other test can take or fill the
//! spare between the steps, and a counting global allocator sees every
//! allocation the test makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use diffprop::bdd::ManagerStats;
use diffprop::core::{
    summary_line, DiffProp, EngineConfig, FaultAnalysis, FaultOutcome, FaultSummary, GoodSnapshot,
};
use diffprop::faults::{checkpoint_faults, Fault};
use diffprop::netlist::generators::c1908_surrogate;
use diffprop::netlist::Circuit;

/// Blocks of at least this many bytes count as large.
const LARGE: usize = 1 << 20;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and counts the large blocks it hands out.
struct CountingLarge;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingLarge = CountingLarge;

/// Thaws an engine and returns it with the number of large blocks the
/// thaw allocated.
fn thaw<'c>(circuit: &'c Circuit, snapshot: &GoodSnapshot) -> (DiffProp<'c>, usize) {
    let before = LARGE_ALLOCS.load(Relaxed);
    let dp = DiffProp::from_snapshot(circuit, snapshot, EngineConfig::default());
    (dp, LARGE_ALLOCS.load(Relaxed) - before)
}

fn summary(fault: Fault, analysis: &FaultAnalysis, bound: Option<f64>) -> FaultSummary {
    FaultSummary {
        fault,
        detectability: analysis.detectability,
        test_count: analysis.test_count,
        observable_outputs: analysis.observable_outputs.clone(),
        site_function_constant: analysis.site_function_constant,
        adherence: bound.and_then(|u| (u > 0.0).then(|| analysis.detectability / u)),
        outcome: if analysis.oscillation_density > 0.0 {
            FaultOutcome::Oscillating {
                density_bits: analysis.oscillation_density.to_bits(),
            }
        } else {
            FaultOutcome::Exact
        },
    }
}

/// A point query on `dp`: its summary line and the kernel counters after it.
fn point_query(dp: &mut DiffProp<'_>, index: usize, fault: &Fault) -> (String, ManagerStats) {
    let analysis = dp
        .try_analyze(fault)
        .expect("an unlimited budget never trips");
    let bound = dp.detectability_bound(fault);
    let line = summary_line(index, &summary(fault.clone(), &analysis, bound));
    (line, dp.good().manager().stats().clone())
}

#[test]
fn a_recycled_thaw_allocates_nothing_large_and_answers_as_a_fresh_one() {
    let circuit = c1908_surrogate();
    let snapshot =
        DiffProp::build_snapshot(&circuit, EngineConfig::default()).expect("c1908s builds");

    // The build's op cache grew with its arena, not to a thaw's size, so
    // freezing freed it instead of parking it: the first thaw allocates.
    let (first, large) = thaw(&circuit, &snapshot);
    assert!(large > 0, "the first thaw allocates its op cache");
    drop(first);
    let (second, large) = thaw(&circuit, &snapshot);
    assert_eq!(
        large, 0,
        "a second thaw reuses the dropped engine's op cache"
    );
    drop(second);

    let faults = checkpoint_faults(&circuit);
    let step = faults.len() / 8;
    for (index, fault) in faults.iter().step_by(step).take(8).enumerate() {
        let fault = Fault::from(*fault);
        // The spare holds the cache of the engine the last round dropped,
        // stamped with that engine's entries.
        let (mut recycled, large) = thaw(&circuit, &snapshot);
        assert_eq!(large, 0, "fault {index}: the thaw reuses the spare");
        let reused = point_query(&mut recycled, index, &fault);
        drop(recycled);

        // An engine kept alive holds the spare, so the next thaw allocates.
        let (holder, _) = thaw(&circuit, &snapshot);
        let (mut fresh, large) = thaw(&circuit, &snapshot);
        assert!(large > 0, "fault {index}: the thaw allocates a fresh cache");
        assert_eq!(
            point_query(&mut fresh, index, &fault),
            reused,
            "fault {index}"
        );
        drop(holder);
    }
}
