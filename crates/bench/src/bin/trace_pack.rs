//! Regenerates the committed trace pack (the `xtask trace` backend).
//!
//! ```text
//! trace_pack [--quick|--full] [--dir DIR] [--jobs N] [--depth N]
//! ```
//!
//! Records one engine-blind trace per workload row of the experiment grid
//! (the Fig. 7/8/9 matrix plus the Table IV rows) into `--dir` (default:
//! the committed `traces/quick` pack). Recording is deterministic, so
//! regenerating an up-to-date pack is byte-identical — CI gates pack
//! currency with `git diff --exit-code -- traces/`.

use std::path::PathBuf;

use hoop_bench::experiments::Scale;
use hoop_bench::runner::{parse_positive, usage_error, RunnerOptions};
use hoop_bench::tracepack::{record_pack, QUICK_PACK_DIR};

fn main() {
    // Always records: `--dir` names the pack, `--depth` sizes its streams.
    let (opts, extra) =
        RunnerOptions::from_args(&["--quick", "--full", "--jobs"], &["--dir", "--depth"]);
    // Unlike the figure binaries, the pack defaults to quick scale: the
    // committed artifact must stay small and regenerate in CI time.
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let mut dir = PathBuf::from(QUICK_PACK_DIR);
    let mut depth = None;
    for (flag, value) in &extra {
        match flag.as_str() {
            "--dir" => dir = PathBuf::from(value),
            _ => depth = Some(parse_positive(flag, value).unwrap_or_else(|e| usage_error(&e))),
        }
    }
    eprintln!("recording {} pack into {}", scale.name(), dir.display());
    record_pack(&dir, scale, opts.jobs, depth);
    println!("trace pack written to {}", dir.display());
}
