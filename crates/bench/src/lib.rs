//! The machine-readable bench harness behind the `--check` gate of
//! `ci.sh`. (Host-time performance is measured by the standalone
//! `perfbench/` package, not here.)
//!
//! Every gate implements [`Gate`]: one seeded run, a stdout summary, the
//! acceptance clauses it breaks, and one deterministic JSON document that
//! is committed as `BENCH_<name>.json`. The `elink-bench` binary is the
//! one driver over all of them:
//!
//! ```text
//! elink-bench [--check] [GATE...]      # no GATE: every gate
//! ```
//!
//! * without `--check` — run each gate once, apply its acceptance clauses
//!   and write `BENCH_<name>.json` in the current directory;
//! * with `--check` — run each gate twice, apply its clauses, and require
//!   both documents to be byte-identical to each other and to the
//!   committed `BENCH_<name>.json`. Nothing is written.
//!
//! Exit codes: 0 when every gate held, 1 when one failed, 2 on a usage
//! error. The gates:
//!
//! * `elink` ([`report`]) — quick presets of the paper experiments;
//! * `workload` ([`workload`]) — the 1k-node serving SLO preset;
//! * `chaos` ([`chaos`]) — the seeded fault campaign;
//! * `contention` ([`contention`]) — the offered-load × capacity queueing
//!   knee, with the load-admission ladder off and on at capacity 64;
//! * `scale` ([`scale`]) — the 1k→64k growth sweep against the paper's
//!   O(N) message claim;
//! * `mc` ([`mc`]) — the exhaustive model-checking suite;
//! * `sub` ([`subbench`]) — standing-query push against re-query.
//!
//! `trace_summary` is a viewer, not a gate: it renders a
//! [`elink_netsim::JsonlTrace`] event log as per-node tables.
//!
//! This crate is deliberately outside simlint's protocol-crate set: it is
//! the one place in the workspace allowed to measure host wall-clock, and
//! wall time appears only in the printed summaries, never in a document.

#![warn(missing_docs)]

/// The seeded fault campaign behind `BENCH_chaos.json`.
pub mod chaos;
/// The offered-load × capacity × admission sweep behind `BENCH_contention.json`.
pub mod contention;
/// The exhaustive model-checking suite behind `BENCH_mc.json`.
pub mod mc;
/// Quick experiment presets behind `BENCH_elink.json`.
pub mod report;
/// The 1k→64k fleet-size scaling bench behind `BENCH_scale.json`.
pub mod scale;
/// The standing-query push-vs-requery bench behind `BENCH_sub.json`.
pub mod subbench;
/// The serving SLO preset behind `BENCH_workload.json`.
pub mod workload;

use std::path::Path;

/// One `--check` gate: a seeded run pinned by the committed document
/// `BENCH_<NAME>.json`.
pub trait Gate {
    /// What one run produces.
    type Report;
    /// The gate's name on the command line and in `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// One full seeded run.
    fn run(&self) -> Self::Report;
    /// The human-readable stdout summary — the only place a gate may
    /// print wall time.
    fn summary(&self, report: &Self::Report) -> String;
    /// The acceptance clauses the run broke (empty when the gate holds).
    fn violations(&self, _report: &Self::Report) -> Vec<String> {
        Vec::new()
    }
    /// The deterministic document: a function of the seeds alone, so two
    /// runs agree byte for byte.
    fn json(&self, report: &Self::Report) -> String;
}

/// What the driver keeps of one run.
struct Pass {
    summary: String,
    violations: Vec<String>,
    json: String,
}

/// A [`Gate`] with its report type erased, so one list holds every gate.
trait AnyGate {
    fn name(&self) -> &'static str;
    fn pass(&self) -> Pass;
}

impl<G: Gate> AnyGate for G {
    fn name(&self) -> &'static str {
        G::NAME
    }

    fn pass(&self) -> Pass {
        let report = self.run();
        Pass {
            summary: self.summary(&report),
            violations: self.violations(&report),
            json: self.json(&report),
        }
    }
}

/// Every gate, in the order a bare `elink-bench` runs them.
const GATES: [&dyn AnyGate; 7] = [
    &report::ElinkGate,
    &workload::WorkloadGate,
    &chaos::ChaosGate,
    &contention::ContentionGate,
    &scale::ScaleGate,
    &mc::McGate,
    &subbench::SubGate,
];

/// Runs `elink-bench [--check] [GATE...]` with the given arguments (the
/// program name excluded) in the current directory; returns the exit
/// code.
pub fn cli(args: &[String]) -> i32 {
    cli_in(args, &GATES, Path::new("."))
}

fn cli_in(args: &[String], gates: &[&dyn AnyGate], dir: &Path) -> i32 {
    let check = args.iter().any(|a| a == "--check");
    let mut chosen = Vec::new();
    for arg in args.iter().filter(|a| *a != "--check") {
        match gates.iter().find(|g| g.name() == arg) {
            Some(gate) => chosen.push(*gate),
            None => {
                let names: Vec<&str> = gates.iter().map(|g| g.name()).collect();
                eprintln!("unknown gate or option: {arg}");
                eprintln!("usage: elink-bench [--check] [GATE...]");
                eprintln!("gates: {}", names.join(" "));
                return 2;
            }
        }
    }
    if chosen.is_empty() {
        chosen = gates.to_vec();
    }
    let mut failed = false;
    for gate in chosen {
        match drive(gate, check, dir) {
            Ok(done) => eprintln!("{}: {done}", gate.name()),
            Err(failures) => {
                failed = true;
                for f in failures {
                    eprintln!("{f}");
                }
            }
        }
    }
    i32::from(failed)
}

/// Runs one gate in `dir`: once, writing `BENCH_<name>.json`; or, under
/// `check`, twice, comparing both documents with each other and with the
/// committed file. Returns what was done, or every failure.
fn drive(gate: &dyn AnyGate, check: bool, dir: &Path) -> Result<String, Vec<String>> {
    let name = gate.name();
    let file = format!("BENCH_{name}.json");
    let path = dir.join(&file);
    let first = gate.pass();
    println!("== {name}\n{}", first.summary);
    let mut failures: Vec<String> = first
        .violations
        .iter()
        .map(|v| format!("ACCEPTANCE FAILURE: {name}: {v}"))
        .collect();
    if first.json.matches('{').count() != first.json.matches('}').count() {
        failures.push(format!("MALFORMED REPORT: {name}: unbalanced braces"));
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    if !check {
        return match std::fs::write(&path, &first.json) {
            Ok(()) => Ok(format!("wrote {file}")),
            Err(e) => Err(vec![format!("could not write {}: {e}", path.display())]),
        };
    }
    let again = gate.pass();
    if let Some(diff) = first_difference(&first.json, &again.json, ["run 1", "run 2"]) {
        return Err(vec![format!(
            "DETERMINISM FAILURE: {name}: two same-seed runs differ at {diff}"
        )]);
    }
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| vec![format!("CONTRACT FAILURE: {name}: cannot read {file}: {e}")])?;
    match first_difference(&committed, &first.json, ["committed", "fresh"]) {
        Some(diff) => Err(vec![format!(
            "CONTRACT FAILURE: {name}: the fresh document differs from the committed {file} at {diff}\n\
             Explain every changed number and regenerate {file}, or fix the regression."
        )]),
        None => Ok(format!(
            "two runs byte-identical and equal to the committed {file}"
        )),
    }
}

/// Locates the first difference between two documents: its line and
/// column, with an excerpt of both versions around it. `None` when equal.
fn first_difference(a: &str, b: &str, labels: [&str; 2]) -> Option<String> {
    if a == b {
        return None;
    }
    let (mut la, mut lb) = (a.lines(), b.lines());
    for line in 1.. {
        match (la.next(), lb.next()) {
            (None, None) => return Some("the end: only line endings differ".into()),
            (x, y) if x == y => {}
            (x, y) => {
                let (x, y) = (x.unwrap_or(""), y.unwrap_or(""));
                let col = x.bytes().zip(y.bytes()).take_while(|(p, q)| p == q).count();
                return Some(format!(
                    "line {line}, column {}:\n  {:<9}: {}\n  {:<9}: {}",
                    col + 1,
                    labels[0],
                    window(x, col),
                    labels[1],
                    window(y, col)
                ));
            }
        }
    }
    unreachable!("`1..` never ends")
}

/// Up to 60 bytes either side of `col`, so a difference in a long
/// single-line document stays readable.
fn window(line: &str, col: usize) -> &str {
    let from = col.saturating_sub(60);
    let to = (col + 60).min(line.len());
    line.get(from..to).unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::PathBuf;

    /// A gate whose document is two lines, optionally changing from run to
    /// run, optionally breaking one acceptance clause.
    #[derive(Default)]
    struct Fake {
        drift: bool,
        violation: Option<&'static str>,
        runs: Cell<u32>,
    }

    impl Gate for Fake {
        type Report = u32;
        const NAME: &'static str = "fake";

        fn run(&self) -> u32 {
            self.runs.set(self.runs.get() + 1);
            self.runs.get()
        }

        fn summary(&self, run: &u32) -> String {
            format!("fake run {run}")
        }

        fn violations(&self, _run: &u32) -> Vec<String> {
            self.violation.map(String::from).into_iter().collect()
        }

        fn json(&self, run: &u32) -> String {
            let b = if self.drift { *run } else { 20 };
            format!("{{\"a\":1,\n\"b\":{b}}}\n")
        }
    }

    /// A fresh, empty directory private to one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elink-bench-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn write_then_check_round_trips() {
        let dir = scratch_dir("round-trip");
        let fake = Fake::default();
        assert_eq!(cli_in(&args(&[]), &[&fake], &dir), 0);
        let written = std::fs::read_to_string(dir.join("BENCH_fake.json")).unwrap();
        assert_eq!(written, "{\"a\":1,\n\"b\":20}\n");
        assert_eq!(cli_in(&args(&["--check", "fake"]), &[&fake], &dir), 0);
        assert_eq!(fake.runs.get(), 3, "one write run, two check runs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_names_the_line_of_a_one_digit_contract_change() {
        let dir = scratch_dir("one-digit");
        std::fs::write(dir.join("BENCH_fake.json"), "{\"a\":1,\n\"b\":21}\n").unwrap();
        let err = drive(&Fake::default(), true, &dir).unwrap_err().join("\n");
        assert!(err.starts_with("CONTRACT FAILURE: fake"), "{err}");
        assert!(err.contains("line 2, column 6"), "{err}");
        assert!(err.contains("committed: \"b\":21}") && err.contains("fresh    : \"b\":20}"));
        assert_eq!(cli_in(&args(&["--check"]), &[&Fake::default()], &dir), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_fails_when_two_runs_differ() {
        let dir = scratch_dir("drift");
        let fake = Fake {
            drift: true,
            ..Fake::default()
        };
        let err = drive(&fake, true, &dir).unwrap_err().join("\n");
        assert!(err.starts_with("DETERMINISM FAILURE: fake"), "{err}");
        assert!(err.contains("run 1    : \"b\":1}") && err.contains("run 2    : \"b\":2}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_violation_exits_1_and_writes_nothing() {
        let dir = scratch_dir("violation");
        let fake = Fake {
            violation: Some("floor missed"),
            ..Fake::default()
        };
        for mode in [&[][..], &["--check"][..]] {
            assert_eq!(cli_in(&args(mode), &[&fake], &dir), 1);
            assert!(!dir.join("BENCH_fake.json").exists());
        }
        let err = drive(&fake, false, &dir).unwrap_err();
        assert_eq!(err, ["ACCEPTANCE FAILURE: fake: floor missed"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unknown_gate_is_a_usage_error() {
        let dir = scratch_dir("unknown");
        let fake = Fake::default();
        assert_eq!(cli_in(&args(&["--check", "nope"]), &[&fake], &dir), 2);
        assert_eq!(cli_in(&args(&["--out", "x"]), &[&fake], &dir), 2);
        assert_eq!(fake.runs.get(), 0, "a usage error runs no gate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_line_ending_difference_is_reported() {
        let diff = first_difference("{}\n", "{}", ["a", "b"]).unwrap();
        assert!(diff.contains("line endings"), "{diff}");
    }

    #[test]
    fn every_gate_has_a_distinct_name() {
        let mut names: Vec<&str> = GATES.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GATES.len());
    }
}
