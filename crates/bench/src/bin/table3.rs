//! Table III: the benchmarks used in the experiments, generated from the
//! workload specs.

use hoop_bench::experiments::write_csv;
use hoop_bench::runner::RunnerOptions;
use workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    // No flags of its own; rejects unknown ones (--quick is accepted and
    // changes nothing).
    let _ = RunnerOptions::from_args(&[]);
    println!(
        "{:<10}{:<42}{:>11}{:>13}",
        "Workload", "Description", "Stores/TX", "Write/Read"
    );
    let desc = |k: WorkloadKind| match k {
        WorkloadKind::Vector => "Insert/update entries (persistent vector)",
        WorkloadKind::Hashmap => "Insert/update entries (open addressing)",
        WorkloadKind::Queue => "Enqueue/dequeue entries (ring buffer)",
        WorkloadKind::RbTree => "Insert/update entries (red-black tree)",
        WorkloadKind::BTree => "Insert/update entries (B-tree, t=4)",
        WorkloadKind::Ycsb => "Cloud benchmark on N-store, Zipfian",
        WorkloadKind::Tpcc => "OLTP New-Order on N-store",
    };
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::small(kind);
        let (stores, mix) = spec.table_iii_row();
        println!(
            "{:<10}{:<42}{:>11}{:>13}",
            kind.to_string(),
            desc(kind),
            stores,
            mix
        );
        rows.push(format!("{kind},{},{stores},{mix}", desc(kind)));
    }
    write_csv(
        "table3_benchmarks",
        "workload,description,stores_per_tx,write_read",
        &rows,
    );
    println!("\nDatasets: 64 B and 1 KB items (synthetic); 512 B and 1 KB values (YCSB).");
}
