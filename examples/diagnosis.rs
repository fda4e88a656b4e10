//! Fault diagnosis with a Difference-Propagation-built dictionary.
//!
//! Builds a compact test set, derives every fault's full-response signature
//! from its per-output difference functions, injects a "defect" behind the
//! scenes, and locates it from the tester response alone.
//!
//! Run with: `cargo run --release --example diagnosis [circuit] [fault-index]`

use diffprop::core::{generate_tests, FaultDictionary};
use diffprop::faults::{checkpoint_faults, Fault};
use diffprop::netlist::generators;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "c95".into());
    let circuit = generators::by_name(&arg).unwrap_or_else(|| panic!("unknown circuit {arg}"));
    println!("=== dictionary diagnosis: {} ===\n", circuit.name());

    let faults: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let tests = generate_tests(&circuit, &faults);
    println!(
        "test set: {} vectors covering {} faults",
        tests.vectors.len(),
        tests.covered
    );

    let dict = FaultDictionary::build(&circuit, &faults, &tests.vectors);
    println!(
        "dictionary: {} faults × {} tests × {} outputs; {} distinguishable classes",
        dict.num_faults(),
        dict.num_tests(),
        dict.num_outputs(),
        dict.num_distinguishable_classes()
    );

    // Secretly pick the defect.
    let defect_index: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("fault index"))
        .unwrap_or(7)
        % faults.len();
    let defect = faults[defect_index].clone();

    // The tester only sees pass/fail per (vector, output): simulate that.
    let observed = {
        use diffprop::sim::faulty_outputs;
        let rows: Vec<Vec<bool>> = tests
            .vectors
            .iter()
            .map(|v| {
                let good = circuit.eval(v);
                let bad = faulty_outputs(&circuit, &defect, v);
                good.iter().zip(&bad).map(|(g, b)| g != b).collect()
            })
            .collect();
        rows
    };
    let failing_tests = observed.iter().filter(|r| r.iter().any(|&b| b)).count();
    println!("\ninjected defect (hidden from the diagnoser): {defect}");
    println!("tester response: {failing_tests} failing vectors");

    // Diagnose: the observation is exactly a signature.
    let observation = dict.signature(defect_index).clone();
    debug_assert_eq!(
        observation.rows(),
        &observed[..],
        "dictionary signatures must equal simulated responses"
    );
    let ranked = dict.diagnose(&observation);
    println!("\ntop candidates:");
    for c in ranked.iter().take(5) {
        println!("  distance {:>2}: {}", c.distance, c.fault);
    }
    let exact: Vec<&str> = ranked
        .iter()
        .take_while(|c| c.distance == 0)
        .map(|_| "·")
        .collect();
    println!(
        "\n{} candidate(s) match exactly; the injected fault {} among them.",
        exact.len(),
        if ranked
            .iter()
            .take_while(|c| c.distance == 0)
            .any(|c| c.fault_index == defect_index)
        {
            "IS"
        } else {
            "is NOT"
        }
    );
}
