//! Order-invariance property layer: summaries depend on the *function*,
//! never on the variable order.
//!
//! Every scalar a sweep emits (detectability, exact counts, observability
//! flags, adherence, site constancy) is derived from sat counts and
//! densities of canonical OBDDs, so re-running the golden universes under
//! any valid variable order — the structural heuristics, `auto` with its
//! one build sift, or an arbitrary random permutation — must reproduce the
//! committed golden TSV byte for byte, serial and sharded alike. The golden
//! file itself was captured under the identity order, which makes it the
//! cross-order baseline for free.

mod common;

use common::{assert_matches_golden, current_golden_lines};
use diffprop::core::{EngineConfig, OrderStrategy, Parallelism, SweepConfig};
use proptest::prelude::*;

fn lines_with(order: OrderStrategy, parallelism: Parallelism) -> Vec<String> {
    current_golden_lines(&SweepConfig {
        engine: EngineConfig {
            order,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random valid permutation orders (seeded Fisher–Yates inside the
    /// engine) on c17 / full_adder / c95: byte-identical golden lines from
    /// the serial sweep.
    #[test]
    fn random_orders_reproduce_golden_lines_serially(seed in any::<u64>()) {
        assert_matches_golden(&lines_with(
            OrderStrategy::Random(seed),
            Parallelism::Serial,
        ));
    }

    /// The same random orders under the work-stealing sweep at four
    /// workers: scheduling × ordering must still change nothing.
    #[test]
    fn random_orders_reproduce_golden_lines_at_four_threads(seed in any::<u64>()) {
        assert_matches_golden(&lines_with(
            OrderStrategy::Random(seed),
            Parallelism::Threads(4),
        ));
    }
}

#[test]
fn structural_orders_reproduce_golden_lines() {
    for order in [OrderStrategy::FaninDfs, OrderStrategy::Auto] {
        assert_matches_golden(&lines_with(order, Parallelism::Serial));
        assert_matches_golden(&lines_with(order, Parallelism::Threads(4)));
    }
}
