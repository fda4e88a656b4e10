//! Bridging-fault study for one circuit: enumeration, layout-weighted
//! sampling, stuck-at equivalence, and AND-vs-OR comparison (paper §4.2).
//!
//! Run with: `cargo run --release --example bridging_analysis [circuit] [sample]`

use diffprop::analysis::{analyze_faults, Histogram};
use diffprop::faults::{
    enumerate_nfbfs, sample_nfbfs, tune_theta, BridgeKind, Fault, SampleConfig,
};
use diffprop::netlist::generators;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "alu74181".into());
    let sample: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("sample must be a number"))
        .unwrap_or(200);
    let circuit = generators::by_name(&arg).unwrap_or_else(|| panic!("unknown circuit {arg}"));
    println!(
        "=== bridging-fault analysis: {} ({} gates) ===\n",
        circuit.name(),
        circuit.num_gates()
    );

    for kind in [BridgeKind::And, BridgeKind::Or] {
        let all = enumerate_nfbfs(&circuit, kind);
        println!("{kind} NFBFs: {} potentially detectable pairs", all.len());

        let faults: Vec<Fault> = if all.len() > sample {
            let theta = tune_theta(&circuit, &all, sample);
            println!("  sampling {sample} with exponential distance weighting (θ = {theta:.3})");
            sample_nfbfs(
                &circuit,
                &all,
                SampleConfig {
                    count: sample,
                    theta,
                    seed: 1990,
                },
            )
            .into_iter()
            .map(Fault::from)
            .collect()
        } else {
            all.into_iter().map(Fault::from).collect()
        };

        let records = analyze_faults(&circuit, &faults);
        let detectable = records.iter().filter(|r| r.is_detectable()).count();
        let stuck_like = records.iter().filter(|r| r.site_function_constant).count();
        let mean: f64 = records
            .iter()
            .filter(|r| r.is_detectable())
            .map(|r| r.detectability)
            .sum::<f64>()
            / detectable.max(1) as f64;
        println!("  detectable: {detectable}/{}", records.len());
        println!(
            "  behave as stuck-at faults: {stuck_like}/{} ({:.1}%)",
            records.len(),
            100.0 * stuck_like as f64 / records.len().max(1) as f64
        );
        println!("  mean detectability of detectable faults: {mean:.4}");
        println!("  detection probability profile:");
        let h = Histogram::from_values(15, records.iter().map(|r| r.detectability));
        for line in h.to_string().lines() {
            println!("    {line}");
        }
        println!();
    }

    println!(
        "The paper's finding — AND and OR NFBFs behave almost identically \
         except for the stuck-at-equivalence proportions — can be read \
         directly off the two profiles above."
    );
}
