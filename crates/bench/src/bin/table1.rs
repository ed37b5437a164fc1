//! Table I: qualitative comparison of crash-consistency techniques,
//! generated from each engine's declared properties.

use hoop_bench::experiments::write_csv;
use hoop_bench::runner::{RunnerOptions, SCALE_FLAGS};
use simcore::config::SimConfig;
use workloads::driver::build_system;

fn main() {
    // No measured cell: only the scale flags parse (--quick changes
    // nothing here), every other flag exits 2.
    let _ = RunnerOptions::from_args(SCALE_FLAGS, &[]);
    let cfg = SimConfig::small_for_tests();
    println!(
        "{:<10}{:>14}{:>18}{:>22}{:>15}",
        "Approach", "Read Latency", "On Critical Path", "Require Flush&Fence", "Write Traffic"
    );
    let mut rows = Vec::new();
    for name in ["Opt-Undo", "Opt-Redo", "OSP", "LSM", "LAD", "HOOP"] {
        let sys = build_system(name, &cfg);
        let p = sys.engine().properties();
        println!(
            "{:<10}{:>14}{:>18}{:>22}{:>15}",
            name,
            p.read_latency.to_string(),
            if p.on_critical_path { "Yes" } else { "No" },
            if p.requires_flush_fence { "Yes" } else { "No" },
            p.write_traffic.to_string()
        );
        rows.push(format!(
            "{name},{},{},{},{}",
            p.read_latency, p.on_critical_path, p.requires_flush_fence, p.write_traffic
        ));
    }
    write_csv(
        "table1_properties",
        "approach,read_latency,on_critical_path,requires_flush_fence,write_traffic",
        &rows,
    );
    println!("\nPaper Table I rows for the implemented representatives:");
    println!("  ATOM (Opt-Undo):  Low, Yes, No, Medium");
    println!("  WrAP (Opt-Redo):  High, Yes, No, High");
    println!("  SSP (OSP):        Low, Yes, Yes, Low");
    println!("  LSNVMM (LSM):     High, No, No, Medium");
    println!("  HOOP:             Low, No, No, Low");
}
