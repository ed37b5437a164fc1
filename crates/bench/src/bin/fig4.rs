//! Figure 4: transaction execution timelines of the different approaches.
//!
//! The paper's Fig. 4 is qualitative: undo logging serializes a log persist
//! before every data persist, redo logging pays one log flush at commit
//! plus asynchronous checkpointing, shadow paging persists eagerly during
//! execution, and HOOP streams packed slices with a single commit flush.
//! This harness runs one identical 8-store transaction on every engine and
//! prints the measured cycle timeline — begin, each store's completion, and
//! the commit wait — making the figure quantitative.

use hoop_bench::experiments::write_csv;
use hoop_bench::runner::RunnerOptions;
use simcore::config::SimConfig;
use simcore::CoreId;
use workloads::driver::{build_system, ENGINES};

fn main() {
    // No flags of its own; rejects unknown ones (--quick is accepted and
    // changes nothing).
    let _ = RunnerOptions::from_args(&[]);
    let cfg = SimConfig::default();
    println!("== Fig 4: one 8-store transaction, cycle timeline per engine ==\n");
    let mut rows = Vec::new();
    for engine in ENGINES {
        let mut sys = build_system(engine, &cfg);
        let base = sys.alloc(8 * 64);
        // Warm the lines so the timeline shows persistence costs, not
        // compulsory misses.
        for i in 0..8u64 {
            sys.write_initial(base.offset(i * 64), &0u64.to_le_bytes());
            let _ = sys.load_u64(CoreId(0), base.offset(i * 64));
        }
        let t0 = sys.clock(CoreId(0));
        let tx = sys.tx_begin(CoreId(0));
        let t_begin = sys.clock(CoreId(0));
        let mut store_marks = Vec::new();
        for i in 0..8u64 {
            sys.store_u64(CoreId(0), base.offset(i * 64), 0xAB + i);
            store_marks.push(sys.clock(CoreId(0)) - t0);
        }
        let t_before_end = sys.clock(CoreId(0));
        sys.tx_end(CoreId(0), tx);
        let t_end = sys.clock(CoreId(0));

        print!("{engine:<10} begin@{:<5}", t_begin - t0);
        print!(" stores@[");
        for (i, m) in store_marks.iter().enumerate() {
            if i > 0 {
                print!(" ");
            }
            print!("{m}");
        }
        println!(
            "] commit_wait={:<6} end@{}",
            t_end - t_before_end,
            t_end - t0
        );
        rows.push(format!(
            "{engine},{},{},{},{}",
            t_begin - t0,
            store_marks.last().expect("8 stores"),
            t_end - t_before_end,
            t_end - t0
        ));
    }
    write_csv(
        "fig4_timeline",
        "engine,begin,last_store,commit_wait,end",
        &rows,
    );
    println!("\nReading the shape (paper Fig. 4):");
    println!("  Opt-Undo  — ordered log+data persists dominate the commit wait");
    println!("  Opt-Redo  — one log flush at commit (checkpoint is off-path)");
    println!("  OSP       — eager in-execution persists + TLB shootdown at commit");
    println!("  HOOP      — stores stream into the OOP buffer; one slice flush ends the tx");
}
