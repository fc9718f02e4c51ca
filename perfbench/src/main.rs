//! The ELink benchmark: end-to-end host time and simulated cost of four
//! workloads, and a separate traced run that splits the cost per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|contended|chaos|growth|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed as `name value unit`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and the
//! `end_to_end` (`--trace 0`) or `per_layer` (`--trace 1`) metrics named in
//! `BENCHMARK.json`. A failed correctness check makes the exit code 1.
//! See `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod growth;
mod measure;
mod serving;

use measure::Sheet;
use serving::{Fleet, Serving};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Input sizes of every workload.
pub struct Sizes {
    /// Sensors in the serving fleet.
    pub nodes: usize,
    /// Queries of `serve` (updates are a fifth of this).
    pub serve_queries: usize,
    /// Standing subscribers of `serve`.
    pub subscribers: usize,
    /// Queries of `contended`.
    pub contended_queries: usize,
    /// Queries of `chaos`.
    pub chaos_queries: usize,
    /// Side of the `growth` grid.
    pub grid_side: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        nodes: 1024,
        serve_queries: 4000,
        subscribers: 8,
        contended_queries: 1500,
        chaos_queries: 2000,
        grid_side: 256,
    };
    /// Reduced sizes for the smoke test.
    #[cfg(test)]
    pub const SMOKE: Sizes = Sizes {
        nodes: 128,
        serve_queries: 150,
        subscribers: 4,
        contended_queries: 100,
        chaos_queries: 100,
        grid_side: 32,
    };
}

/// Sub-workloads per run. The seed decides how much work a workload
/// draws (template radii, the growth field window), so each run measures
/// several seeds derived from its own and averages over them.
pub const SUBS: usize = 16;

/// The workload seed of sub-workload `sub` of a run with seed `seed`.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    seed.wrapping_mul(SUBS as u64).wrapping_add(sub as u64)
}

/// The `end_to_end` metrics of `BENCHMARK.json`, printed with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "run_s",
    "ops_per_s",
    "peak_heap_mb",
    "sim_ticks",
    "msgs_per_op",
];

/// The `per_layer` metrics of `BENCHMARK.json`, printed with `--trace 1`.
/// The serving-only user metrics ride here because `growth` has no value
/// for them and every end-to-end metric must apply to every workload.
const PER_LAYER: [&str; 46] = [
    "topology.routing_build_s",
    "topology.routing_builds",
    "topology.routing_mb",
    "core.growth_s",
    "core.handler_s",
    "core.msgs_per_node",
    "core.peak_live_events",
    "query.index_build_s",
    "query.backbone_build_s",
    "workload.schedule_build_s",
    "workload.plan_build_s",
    "workload.setup_residual_s",
    "workload.handler_s",
    "workload.handler_calls",
    "workload.cache_hit_ratio",
    "workload.batch_riders",
    "workload.invalidations",
    "workload.sub_pushes",
    "workload.sub_repairs",
    "workload.partial",
    "workload.gaveup",
    "workload.failovers",
    "workload.coverage_ceiling_milli",
    "netsim.events",
    "netsim.engine_s",
    "netsim.ns_per_event",
    "netsim.peak_live_events",
    "netsim.flow_stale",
    "netsim.queued_ticks",
    "netsim.link_busy_peak_ticks",
    "netsim.link_peak_flows",
    "netsim.arq_retx",
    "netsim.arq_timeouts",
    "netsim.arq_useful_ratio",
    "netsim.drops_loss",
    "netsim.drops_node_down",
    "netsim.trace_sends",
    "netsim.trace_delivers",
    "netsim.trace_drops",
    "netsim.trace_timers",
    "netsim.trace_overhead_frac",
    "latency_p50_ticks",
    "latency_p99_ticks",
    "latency_samples",
    "coverage_mean_milli",
    "ops_failed_frac",
];

const WORKLOADS: [&str; 4] = ["serve", "contended", "chaos", "growth"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: --workload <serve|contended|chaos|growth|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("bad value for --seconds: {}", args.seconds));
    }
    Ok(args)
}

/// Measures one workload in one mode.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
    fleet: &mut Option<Fleet>,
) -> Sheet {
    let which = match workload {
        "serve" => Serving::Serve,
        "contended" => Serving::Contended,
        "chaos" => Serving::Chaos,
        _ if trace => return growth::per_layer(seed, seconds, sizes),
        _ => return growth::end_to_end(seed, seconds, sizes),
    };
    let fleet = fleet.get_or_insert_with(|| Fleet::terrain(sizes.nodes));
    if trace {
        serving::per_layer(which, fleet, seed, seconds, sizes)
    } else {
        serving::end_to_end(which, fleet, seed, seconds, sizes)
    }
}

/// The result line: every metric of `names`, with the op accounting.
/// A missing or non-finite metric is a problem of its own.
fn result_json(sheet: &mut Sheet, names: &[&str]) -> String {
    let mut metrics = Vec::new();
    for &name in names {
        match sheet.rows.iter().find(|r| r.0 == name) {
            Some(&(_, unit, value)) if value.is_finite() => {
                metrics.push(format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
            _ => sheet.fail(format!("metric {name} missing or not finite")),
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        sheet.problems.is_empty(),
        sheet.attempted.max(1),
        sheet.failed,
        metrics.join(",")
    )
}

/// Prints one workload's report; returns whether it was correct.
fn report(workload: &str, args: &Args, trace: bool, mut sheet: Sheet) -> bool {
    let mode = if trace {
        "traced, per layer"
    } else {
        "untraced, end to end"
    };
    println!(
        "== {workload} (seed {}, {} s, {mode})",
        args.seed, args.seconds
    );
    for note in &sheet.notes {
        println!("# {note}");
    }
    for &(name, unit, value) in &sheet.rows {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let json = result_json(&mut sheet, names);
    println!(
        "# correctness: {} problems, {} of {} ops failed",
        sheet.problems.len(),
        sheet.failed,
        sheet.attempted
    );
    for p in sheet.problems.iter().take(20) {
        println!("# PROBLEM {p}");
    }
    println!("{json}");
    sheet.problems.is_empty()
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let mut fleet = None;
    let mut correct = true;
    for (workload, trace) in runs {
        let sheet = measure(
            workload,
            args.seed,
            args.seconds,
            trace,
            &Sizes::FULL,
            &mut fleet,
        );
        correct &= report(workload, &args, trace, sheet);
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names (and units) of `BENCHMARK.json`'s `key` list.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let list = &text[start
            ..text[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list end")];
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let names = |k| declared(k).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    /// Every workload at reduced size, both modes: every printed metric is
    /// declared in `BENCHMARK.json` with the same unit, every declared
    /// metric of the mode is printed, and the correctness checks ran and
    /// passed.
    #[test]
    fn smoke_every_workload_and_mode() {
        let mut units = declared("end_to_end");
        units.extend(declared("per_layer"));
        let mut fleet = None;
        for workload in WORKLOADS {
            for trace in [false, true] {
                let mut sheet = measure(workload, 5, 0.0, trace, &Sizes::SMOKE, &mut fleet);
                for &(name, unit, _) in &sheet.rows {
                    let declared = units.iter().find(|(n, _)| n == name);
                    assert_eq!(
                        declared.map(|(_, u)| u.as_str()),
                        Some(unit),
                        "{workload}: metric {name} [{unit}] not declared"
                    );
                }
                let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
                let json = result_json(&mut sheet, names);
                assert!(sheet.attempted > 0, "{workload}: checks ran on no ops");
                assert!(
                    sheet.problems.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    sheet.problems
                );
                assert!(json.starts_with("{\"correct\":true,"), "{json}");
            }
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        let p = |s: &str| parse(s.split_whitespace().map(String::from));
        assert!(p("--workload serve --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(p("--workload nope").is_err());
        assert!(p("--seed 3").is_err());
        assert!(p("--workload serve --trace 2").is_err());
        assert!(p("--workload serve --seed").is_err());
        assert!(p("--workload serve --seconds nan").is_err());
    }
}
