//! End-to-end and per-layer benchmark of the ChameleonEC reproduction.
//!
//! One process runs one named workload through the program's public
//! library API from a single-threaded loop: set-up, one untimed warm-up
//! repetition, then timed repetitions until the run's time is spent.
//! Every cell (one simulation, or one batch of codec calls) is timed on
//! its own and the reported figures are sums of per-cell medians, so a
//! burst of host noise costs one sample, not a whole repetition.
//!
//! Untraced runs report the end-to-end metrics; traced runs wrap the
//! program's driver, workload and code types in timing delegates
//! ([`timed`]) and report the per-layer metrics.

#![deny(unsafe_code)]

pub mod checks;
pub mod codec;
pub mod sim;
#[allow(unsafe_code)]
pub mod sys;
pub mod timed;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Additive raw quantities a traced cell reports, by key.
pub type Layers = BTreeMap<String, f64>;

/// One execution of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host nanoseconds of set-up.
    pub setup_ns: u64,
    /// Host nanoseconds of the timed phase.
    pub wall_ns: u64,
    /// Process CPU nanoseconds (all threads) of the timed phase.
    pub cpu_ns: u64,
    /// The deterministic digest of the cell's results.
    pub digest: String,
    /// Simulated results worth printing (empty for the codec).
    pub report: String,
    /// Raw per-layer quantities (traced runs only).
    pub layers: Layers,
}

/// A workload: a fixed list of cells, each runnable on its own.
pub trait Bench {
    /// Workload name.
    fn name(&self) -> &'static str;
    /// Cell labels.
    fn cells(&self) -> Vec<String>;
    /// Operations one execution of `cell` attempts.
    fn ops(&self, cell: usize) -> u64;
    /// Sets up, runs and checks one cell. `full_check` asks for the most
    /// thorough checks (the warm-up repetition).
    fn run_cell(&self, cell: usize, traced: bool, full_check: bool) -> Result<CellRun, String>;
}

/// A splitmix64 step over `(seed, stream)`: independent-looking seeds for
/// every purpose derived from the one workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add((stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timed repetitions every run makes, however short its time.
pub const MIN_REPS: usize = 3;
/// No repetition starts after this much time in one run.
const HARD_STOP: Duration = Duration::from_secs(120);
/// The least share of the traced wall time the timed call sites must
/// account for. The rest is the loop itself and the clock reads.
pub const MIN_COVERAGE: f64 = 0.9;

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed: an error, a panic or a failed check.
    pub failed: u64,
    /// Every failure message and consistency problem.
    pub errors: Vec<String>,
    /// Timed repetitions.
    pub reps: usize,
    /// Cell label, digest and report of each cell, from the warm-up.
    pub cells: Vec<(String, String, String)>,
    /// Per cell: median set-up, wall and CPU seconds of the timed
    /// repetitions (untraced runs).
    pub cell_medians: Vec<[f64; 3]>,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Summary {
    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs `bench` for about `seconds`: one warm-up repetition, then timed
/// repetitions while another fits, at least [`MIN_REPS`]. In traced mode
/// every repetition runs each cell untraced and traced, alternating which
/// goes first, so the tracing overhead is measured in one process.
pub fn run(bench: &dyn Bench, seconds: f64, traced: bool) -> Summary {
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let labels = bench.cells();
    let mut plain: Vec<Vec<CellRun>> = vec![Vec::new(); labels.len()];
    let mut with_trace: Vec<Vec<CellRun>> = vec![Vec::new(); labels.len()];
    let mut cells: Vec<(String, String, String)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut longest = Duration::ZERO;
    let mut reps = 0;
    for rep in 0.. {
        let elapsed = start.elapsed();
        if rep > 0 && reps >= MIN_REPS && (elapsed + longest > deadline || elapsed > HARD_STOP) {
            break;
        }
        let rep_start = Instant::now();
        for (cell, label) in labels.iter().enumerate() {
            let variants: &[bool] = match (traced, rep % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &variant in variants {
                attempted += bench.ops(cell);
                let result =
                    catch_unwind(AssertUnwindSafe(|| bench.run_cell(cell, variant, rep == 0)));
                let run = match result {
                    Ok(Ok(run)) => run,
                    Ok(Err(e)) => {
                        failed += bench.ops(cell);
                        errors.push(format!("{label}: {e}"));
                        continue;
                    }
                    Err(panic) => {
                        failed += bench.ops(cell);
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_default();
                        errors.push(format!("{label}: panic: {msg}"));
                        continue;
                    }
                };
                eprintln!(
                    "sample rep={rep} cell={label} traced={variant} setup_s={:.6} wall_s={:.6} cpu_s={:.6}",
                    run.setup_ns as f64 / 1e9,
                    run.wall_ns as f64 / 1e9,
                    run.cpu_ns as f64 / 1e9
                );
                match cells.iter().find(|(l, _, _)| l == label) {
                    None => cells.push((label.clone(), run.digest.clone(), run.report.clone())),
                    Some((_, digest, _)) if *digest != run.digest => errors.push(format!(
                        "{label}: digest changed between repetitions: `{digest}` then `{}`",
                        run.digest
                    )),
                    Some(_) => {}
                }
                if rep > 0 {
                    if variant {
                        with_trace[cell].push(run);
                    } else {
                        plain[cell].push(run);
                    }
                }
            }
        }
        if rep > 0 {
            reps += 1;
        }
        longest = longest.max(rep_start.elapsed());
    }

    let metrics = if traced {
        let metrics = per_layer(&plain, &with_trace);
        let coverage = metrics
            .iter()
            .find(|m| m.name == "trace.self_time_coverage")
            .map_or(0.0, |m| m.value);
        if !(MIN_COVERAGE..=1.0).contains(&coverage) {
            errors.push(format!(
                "layer self times cover {coverage:.4} of the traced wall time, outside [{MIN_COVERAGE}, 1]"
            ));
        }
        metrics
    } else {
        let sum = |f: fn(&CellRun) -> u64| -> f64 {
            plain
                .iter()
                .map(|runs| median(runs.iter().map(|r| f(r) as f64).collect()))
                .sum::<f64>()
                / 1e9
        };
        vec![
            Metric {
                name: "setup_s",
                value: sum(|r| r.setup_ns),
                unit: "s",
            },
            Metric {
                name: "wall_s",
                value: sum(|r| r.wall_ns),
                unit: "s",
            },
            Metric {
                name: "cpu_s",
                value: sum(|r| r.cpu_ns),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: sys::peak_rss_mb(),
                unit: "MB",
            },
        ]
    };
    let cell_medians = plain
        .iter()
        .map(|runs| {
            let m =
                |f: fn(&CellRun) -> u64| median(runs.iter().map(|r| f(r) as f64 / 1e9).collect());
            [m(|r| r.setup_ns), m(|r| r.wall_ns), m(|r| r.cpu_ns)]
        })
        .collect();
    Summary {
        attempted,
        failed,
        errors,
        reps,
        cells,
        cell_medians,
        metrics,
    }
}

/// The median of a sample (0 for an empty one).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Every per-layer metric, with the unit it is printed in. Workloads a
/// layer does not apply to report 0 for it.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("simnet.next_event_s", "s"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.events", "count"),
    ("simnet.rounds_per_solve", "count"),
    ("simnet.dirty_groups_per_solve", "count"),
    ("simnet.full_solves", "count"),
    ("simnet.heap_rebuilds", "count"),
    ("simnet.faults.on_event_s", "s"),
    ("core.driver.on_event_s", "s"),
    ("core.driver.start_s", "s"),
    ("core.driver.on_fault_s", "s"),
    ("core.plan.coefficients_s", "s"),
    ("core.coding.mb_s", "MB/s"),
    ("core.orchestrator.self_s", "s"),
    ("core.orchestrator.dispatch_yield", "ratio"),
    ("core.recovery.useful_byte_ratio", "ratio"),
    ("cluster.build_s", "s"),
    ("cluster.fg.on_event_s", "s"),
    ("traces.next_request_ns", "ns"),
    ("codes.encode_mb_s.64k", "MB/s"),
    ("codes.encode_mb_s.1m", "MB/s"),
    ("codes.decode_mb_s.64k", "MB/s"),
    ("codes.decode_mb_s.1m", "MB/s"),
    ("gf.mul_xor_mb_s.1m", "MB/s"),
    ("codes.encode_roofline", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.self_time_coverage", "ratio"),
];

/// The per-layer metrics: each raw quantity is the sum over cells of its
/// per-cell median across traced repetitions; rates and ratios are formed
/// from those sums.
fn per_layer(plain: &[Vec<CellRun>], traced: &[Vec<CellRun>]) -> Vec<Metric> {
    let mut raw = Layers::new();
    for runs in traced {
        let keys: BTreeSet<&String> = runs.iter().flat_map(|r| r.layers.keys()).collect();
        for key in keys {
            let m = median(
                runs.iter()
                    .filter_map(|r| r.layers.get(key).copied())
                    .collect(),
            );
            *raw.entry(key.clone()).or_insert(0.0) += m;
        }
    }
    let untraced_wall: f64 = plain
        .iter()
        .map(|runs| median(runs.iter().map(|r| r.wall_ns as f64 / 1e9).collect()))
        .sum();
    let get = |key: &str| raw.get(key).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mb_s = |kind: &str, size: &str| {
        ratio(
            get(&format!("codes.{kind}.{size}.bytes")),
            get(&format!("codes.{kind}.{size}.s")),
        ) / 1e6
    };
    let gf = ratio(get("gf.mul_xor.1m.bytes"), get("gf.mul_xor.1m.s")) / 1e6;
    let repaired = get("core.recovery.repaired_bytes");
    let value = |name: &str| -> f64 {
        match name {
            "simnet.ns_per_event" => ratio(get("simnet.next_event_s"), get("simnet.events")) * 1e9,
            "simnet.rounds_per_solve" => ratio(get("simnet.solver_rounds"), get("simnet.solves")),
            "simnet.dirty_groups_per_solve" => {
                ratio(get("simnet.dirty_groups"), get("simnet.solves"))
            }
            "core.coding.mb_s" => ratio(get("core.coding.bytes"), get("core.coding.s")) / 1e6,
            "core.orchestrator.dispatch_yield" => ratio(
                get("core.orchestrator.repaired"),
                get("core.orchestrator.dispatched"),
            ),
            "core.recovery.useful_byte_ratio" => {
                ratio(repaired, repaired + get("core.recovery.wasted_bytes"))
            }
            "traces.next_request_ns" => {
                ratio(
                    get("traces.next_request_s"),
                    get("traces.next_request_calls"),
                ) * 1e9
            }
            "codes.encode_mb_s.64k" => mb_s("encode", "64k"),
            "codes.encode_mb_s.1m" => mb_s("encode", "1m"),
            "codes.decode_mb_s.64k" => mb_s("decode", "64k"),
            "codes.decode_mb_s.1m" => mb_s("decode", "1m"),
            "gf.mul_xor_mb_s.1m" => gf,
            "codes.encode_roofline" => ratio(mb_s("encode", "1m"), gf / 4.0),
            "trace_overhead" => ratio(get("wall_s"), untraced_wall),
            "trace.self_time_coverage" => ratio(get("covered_s"), get("wall_s")),
            other => get(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(summary: &Summary) -> String {
    let metrics: Vec<String> = summary
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.correct(),
        summary.attempted,
        summary.failed,
        metrics.join(", ")
    )
}
