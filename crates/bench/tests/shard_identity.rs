//! `--shards` must be a pure host knob at the results layer: the serialized
//! cell document — every simulated metric, counter, and byte count — must be
//! byte-identical for any shard count. CI additionally proves this for the
//! full quick grid (`--shards 4` rerun + `cmp` against the serial
//! artifacts); this test keeps the contract under plain `cargo test` with
//! one small cell per engine.

use hoop_bench::experiments::{Scale, MATRIX};
use hoop_bench::runner::{run_cell, Cell, RunnerOptions};
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

#[test]
fn cell_results_are_shard_invariant() {
    let wcfg = MATRIX[0]; // vector-64B: the fastest matrix column
    for engine in ENGINES {
        let cell = Cell::grid(engine, wcfg, Scale::Quick, &SimConfig::default());
        let mut docs = Vec::new();
        for shards in [1u8, 2, 4] {
            let opts = RunnerOptions {
                shards,
                ..RunnerOptions::live(Scale::Quick, 1)
            };
            docs.push(run_cell(&cell, &opts).to_json().pretty());
        }
        assert_eq!(
            docs[0], docs[1],
            "{engine}: results differ between 1 and 2 shards"
        );
        assert_eq!(
            docs[0], docs[2],
            "{engine}: results differ between 1 and 4 shards"
        );
    }
}
