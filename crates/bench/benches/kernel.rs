//! `kernel` — raw BDD-kernel microbenchmarks for the open-addressing
//! unique table and the direct-mapped op cache.
//!
//! The sweep benches (`parallel_sweep`, `perfbench/`) measure the kernel
//! through four layers of engine machinery; this target isolates the two
//! data structures the PR-9 rewrite touched, so a table regression shows up
//! here first and unambiguously:
//!
//! * `mk_cold` — a deterministic layered script of ~100k `mk` calls into a
//!   fresh manager whose unique table starts at its default size and grows
//!   on the way (the rehash-storm case `reserve_nodes` exists to avoid);
//! * `mk_presized` — the same script after `reserve_nodes(script len)`, so
//!   the cold-vs-presized delta is exactly the cost of growth rehashes;
//! * `mk_hit` — the same script replayed against the already-built manager:
//!   every call is a unique-table hit, no allocation, the pure probe path;
//! * `ite_mix` — random `ite` triples over the built pool: op-cache hits
//!   and misses interleaved with unique-table traffic, the sweep kernel's
//!   actual instruction mix.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_bdd::{Manager, NodeId, Var};
use std::hint::black_box;

const NVARS: usize = 24;
const PER_LEVEL: usize = 4096;
const ITE_CALLS: usize = 50_000;
const SEED: u64 = 0x1990_0615;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic layered `mk` script: `PER_LEVEL` steps per variable,
/// built bottom level first so every operand (selected from everything
/// built so far, terminals included) is strictly deeper than the step's
/// variable — exactly the precondition `Manager::make_node` checks.
fn mk_script() -> Vec<(Var, u64, u64)> {
    let mut state = SEED;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut steps = Vec::with_capacity(NVARS * PER_LEVEL);
    for var in (0..NVARS as Var).rev() {
        for _ in 0..PER_LEVEL {
            steps.push((var, next(), next()));
        }
    }
    steps
}

/// Runs the script through a manager. Operand selectors index the pool of
/// everything built so far (modulo), one bit complements the lo edge, and
/// an equal pair complements hi instead of degenerating into the `lo == hi`
/// reduction — so every step reaches the unique table.
fn run_script(m: &mut Manager, steps: &[(Var, u64, u64)]) -> Vec<NodeId> {
    let t = m.constant(true);
    let mut pool: Vec<NodeId> = vec![t, t.complemented()];
    pool.reserve(steps.len());
    // Operands come from the pool as it stood when the level started, so
    // same-level siblings never become children of each other.
    let mut level = (u32::MAX, pool.len());
    for &(var, a, b) in steps {
        if level.0 != var {
            level = (var, pool.len());
        }
        let deeper = level.1;
        let mut lo = pool[(a >> 8) as usize % deeper];
        let hi = pool[(b >> 8) as usize % deeper];
        if a & 1 == 1 {
            lo = lo.complemented();
        }
        let lo = if lo == hi { lo.complemented() } else { lo };
        pool.push(m.make_node(var, lo, hi));
    }
    pool
}

fn ite_picks(pool: &[NodeId]) -> Vec<(NodeId, NodeId, NodeId)> {
    let mut state = SEED ^ 0xabcd_ef01;
    let mut next = || {
        state = splitmix64(state);
        state as usize % pool.len()
    };
    (0..ITE_CALLS)
        .map(|_| (pool[next()], pool[next()], pool[next()]))
        .collect()
}

fn bench_kernel(c: &mut Criterion) {
    let steps = mk_script();

    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    group.bench_function("mk_cold", |b| {
        b.iter(|| {
            let mut m = Manager::new(NVARS);
            black_box(run_script(&mut m, &steps))
        })
    });
    group.bench_function("mk_presized", |b| {
        b.iter(|| {
            let mut m = Manager::new(NVARS);
            m.reserve_nodes(steps.len() + 1);
            black_box(run_script(&mut m, &steps))
        })
    });
    // Hit path and ite mix run against one prebuilt manager; replaying the
    // script allocates nothing, so iterations are independent.
    let mut m = Manager::new(NVARS);
    let pool = run_script(&mut m, &steps);
    let picks = ite_picks(&pool);
    group.bench_function("mk_hit", |b| {
        b.iter(|| black_box(run_script(&mut m, &steps)))
    });
    group.bench_function("ite_mix", |b| {
        b.iter(|| {
            for &(f, g, h) in &picks {
                black_box(m.ite(f, g, h));
            }
        })
    });
    group.finish();

    // The memory half of the story, visible in the bench log: the table
    // holds one u32 arena index per slot.
    println!(
        "kernel: {} nodes, unique table {} slots = {} KiB (4 B/slot), op cache {} entries",
        m.num_nodes(),
        m.unique_table_capacity(),
        m.unique_table_capacity() * 4 / 1024,
        m.op_cache_capacity(),
    );
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
