//! Shared helpers for the Criterion bench targets.
//!
//! One Criterion bench target exists per paper artifact (see `benches/`):
//!
//! * `table1` — the Table-1 difference equations vs the naive recomputation,
//! * `figures` — every figure driver (Figures 1–8 and the §4.1 observation),
//! * `dp_vs_exhaustive` — Difference Propagation vs exhaustive bit-parallel
//!   fault simulation (the paper's §1 motivation),
//! * `ablations` — selective trace, Table 1 at the engine level, variable
//!   order, and n-input gate decomposition,
//!
//! plus `atpg_baselines`, `parallel_sweep` and the BDD-kernel
//! microbenchmarks in `kernel`. These targets only time; the repeatable
//! end-to-end and per-layer measurements live in `perfbench/`.

use dp_faults::{checkpoint_faults, Fault};
use dp_netlist::Circuit;

/// A deterministic slice of a circuit's checkpoint faults, as engine inputs.
pub fn some_stuck_faults(circuit: &Circuit, count: usize) -> Vec<Fault> {
    checkpoint_faults(circuit)
        .into_iter()
        .take(count)
        .map(Fault::from)
        .collect()
}
