//! Media-fault figure: effective lifetime and UE survival per engine.
//!
//! The companion of `ext_lifetime` with the deterministic media-fault model
//! armed: the paper's endurance argument (§I) says extra writes shorten NVM
//! lifetime, and this harness closes the loop by letting wear actually
//! *fault*. Every engine (plus the multi-controller HOOP variants) runs the
//! same fine-grained workload with a stress-scaled fault schedule — the
//! endurance cutoff sits within reach of the run, so hot lines wear out,
//! drift toward uncorrectable reads, get scrubbed, retired and remapped to
//! spares — and the harness reports:
//!
//! * **effective lifetime** — endurance cutoff over the hottest line's
//!   writes, normalized to HOOP (write amplification shortens it);
//! * **UE survival** — uncorrectable reads absorbed gracefully (ECC retry,
//!   patrol scrub, retire + remap) with zero declared data loss.
//!
//! Output: `results/media.json` (schema-versioned) and
//! `results/media.csv`. The document is shard-invariant — `--shards 1/2/4`
//! produce byte-identical JSON (CI proves it by `cmp`) because the fault
//! schedule is a pure `(seed, line, wear)` hash and all mutable media state
//! is confined to serial phases.
//!
//! ```text
//! media [--quick|--full] [--seed N] [--shards N]
//! ```

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::json::Json;
use hoop_bench::runner::{
    parse_value, usage_error, EnduranceSummary, RunnerOptions, RESULT_SCHEMA_VERSION,
};
use nvm::media::MediaSummary;
use simcore::config::{MediaConfig, SimConfig};
use workloads::driver::{build_system, Driver, ENGINES};

/// The stress fault schedule: `MediaConfig::enabled(seed)` with the
/// endurance horizon pulled within the run's reach, so wear-outs, ECC
/// corrections, scrubbing and retirement all actually fire at the chosen
/// scale (the shipped `mild` curve needs ~10M writes per line — geological
/// time at simulation scale).
fn stress_config(seed: u64, scale: Scale) -> MediaConfig {
    let mut m = MediaConfig::enabled(seed);
    m.endurance_cutoff = match scale {
        Scale::Quick => 24,
        Scale::Full => 300,
    };
    // Drift ramps over a line's whole life instead of its last millenium.
    m.wear_scale = (m.endurance_cutoff / 4).max(1);
    // Wear-capped hot lines are usually cache-resident, so the patrol
    // scrubber is the read path that finds them; widen its batch so a
    // single pass sweeps a quick run's whole touched-line set.
    m.scrub_batch = match scale {
        Scale::Quick => 4096,
        Scale::Full => 16384,
    };
    m
}

fn main() {
    let (opts, extra) = RunnerOptions::from_args(&["--seed"]);
    let seed = extra
        .last()
        .map_or(Ok(0), |(flag, v)| parse_value(flag, v))
        .unwrap_or_else(|e| usage_error(&e));
    let scale = opts.scale;
    let mut sim = SimConfig::default();
    opts.apply_to_sim(&mut sim);
    sim.media = stress_config(seed, scale);

    let wcfg = MATRIX[2]; // hashmap-64B: the paper's canonical fine-grained updater
    let spec = spec_for(wcfg, scale);
    // Sized so every engine's run spans several 1 ms patrol-scrub periods
    // (2.5M cycles each): wear-capped but cache-hot lines are only ever
    // *read* by the scrubber, so the retire/remap path needs it to fire.
    let txs = match scale {
        Scale::Quick => 45_000,
        Scale::Full => 150_000,
    };
    let engines: Vec<&str> = ENGINES
        .iter()
        .copied()
        .chain(["HOOP-MC2", "HOOP-MC4"])
        .collect();

    println!(
        "== Media faults: lifetime & UE survival ({} / {} txs, cutoff {}, seed {}) ==",
        wcfg.label, txs, sim.media.endurance_cutoff, seed
    );
    println!(
        "{:<10}{:>10}{:>12}{:>8}{:>8}{:>9}{:>9}{:>10}{:>12}",
        "engine", "hottest", "corrected", "UE", "retired", "spares", "scrubs", "lost", "lifetime"
    );

    let mut results: Vec<(&str, EnduranceSummary, MediaSummary, u64)> = Vec::new();
    for engine in &engines {
        // The media model is armed through `sim.media`; attaching it
        // auto-enables endurance tracking (the schedule is wear-coupled).
        let mut sys = build_system(engine, &sim);
        let mut driver = Driver::new(spec, &sim);
        driver.setup(&mut sys);
        let r = driver.run(&mut sys, 200, txs);
        // Demand reads always deliver the store's true bytes (UEs cost
        // latency and trigger retirement); data loss can only be *declared*
        // by a recovery path, so a live run must stay both correct and
        // loss-free — that is the UE-survival claim.
        assert_eq!(r.verify_errors, 0, "{engine}: corrupted data under faults");
        let media = sys.media().summary();
        assert_eq!(media.data_loss, 0, "{engine}: declared data loss mid-run");
        assert!(media.reads > 0, "{engine}: fault model saw no reads");
        let wear = EnduranceSummary::from_map(
            sys.engine()
                .device()
                .endurance()
                .expect("media faults imply endurance tracking"),
        );
        results.push((engine, wear, media, r.cycles));
    }

    let cutoff = sim.media.endurance_cutoff;
    let hoop_life = {
        let (_, wear, _, _) = results
            .iter()
            .find(|(n, _, _, _)| *n == "HOOP")
            .expect("HOOP ran");
        cutoff as f64 / wear.max_line_writes.max(1) as f64
    };
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (engine, wear, media, cycles) in &results {
        let lifetime = cutoff as f64 / wear.max_line_writes.max(1) as f64;
        let vs_hoop = lifetime / hoop_life;
        println!(
            "{:<10}{:>10}{:>12}{:>8}{:>8}{:>9}{:>9}{:>10}{:>12.2}",
            engine,
            wear.max_line_writes,
            media.corrected,
            media.uncorrectable,
            media.retired,
            media.spare_exhausted,
            media.scrub_rewrites,
            media.data_loss,
            vs_hoop,
        );
        rows.push(format!(
            "{engine},{},{},{},{},{},{},{},{},{:.4},{:.4}",
            wear.total_line_writes,
            wear.max_line_writes,
            media.corrected,
            media.uncorrectable,
            media.retired,
            media.spare_exhausted,
            media.scrub_rewrites,
            media.data_loss,
            lifetime,
            vs_hoop,
        ));
        cells.push(Json::obj([
            ("engine", Json::Str(engine.to_string())),
            ("cycles", Json::UInt(*cycles)),
            ("endurance", wear.to_json()),
            (
                "media",
                Json::obj([
                    ("reads", Json::UInt(media.reads)),
                    ("corrected", Json::UInt(media.corrected)),
                    ("uncorrectable", Json::UInt(media.uncorrectable)),
                    ("retries", Json::UInt(media.retries)),
                    ("scrub_rewrites", Json::UInt(media.scrub_rewrites)),
                    ("retired", Json::UInt(media.retired)),
                    ("spare_exhausted", Json::UInt(media.spare_exhausted)),
                    ("data_loss", Json::UInt(media.data_loss)),
                ]),
            ),
            ("effective_lifetime", Json::Num(lifetime)),
            ("lifetime_vs_hoop", Json::Num(vs_hoop)),
            ("ue_survived", Json::Bool(media.data_loss == 0)),
        ]));
    }

    write_csv(
        "media",
        "engine,total_line_writes,hottest_line,corrected,uncorrectable,retired,\
         spare_exhausted,scrub_rewrites,data_loss,effective_lifetime,lifetime_vs_hoop",
        &rows,
    );
    let doc = Json::obj([
        ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
        ("experiment", Json::Str("media".to_string())),
        (
            "scale",
            Json::Str(
                match scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }
                .to_string(),
            ),
        ),
        ("media_seed", Json::UInt(seed)),
        ("workload", Json::Str(wcfg.label.to_string())),
        (
            "fault_config",
            Json::obj([
                ("endurance_cutoff", Json::UInt(sim.media.endurance_cutoff)),
                ("wear_scale", Json::UInt(sim.media.wear_scale)),
                ("ecc_t", Json::UInt(u64::from(sim.media.ecc_t))),
                ("max_retries", Json::UInt(u64::from(sim.media.max_retries))),
                ("spare_lines", Json::UInt(sim.media.spare_lines)),
                ("scrub_period_ms", Json::UInt(sim.media.scrub_period_ms)),
            ]),
        ),
        ("cells", Json::Arr(cells)),
    ]);
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping JSON for media");
        return;
    }
    let path = dir.join("media.json");
    if std::fs::write(&path, doc.pretty()).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}
