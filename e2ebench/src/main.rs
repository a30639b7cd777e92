//! `e2ebench --workload <testbed|fabric|campaign|codec> --seed <n>
//! --seconds <s> --trace <0|1> [--digest]`
//!
//! Prints informational lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--digest`
//! it runs every cell once and prints only the determinism digests.

use std::process::ExitCode;

use chameleon_e2ebench::codec::CodecBench;
use chameleon_e2ebench::sim::{SimBench, SimSize};
use chameleon_e2ebench::{result_json, run, Bench};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    digest: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            args.digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn bench(workload: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "testbed" => Box::new(SimBench::testbed(seed, SimSize::testbed())),
        "fabric" => Box::new(SimBench::fabric(seed, SimSize::fabric())),
        "campaign" => Box::new(SimBench::campaign(seed, SimSize::campaign())),
        "codec" => Box::new(CodecBench::new(seed)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (testbed|fabric|campaign|codec)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bench = match bench(&args.workload, args.seed) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.digest {
        let mut ok = true;
        for (cell, label) in bench.cells().iter().enumerate() {
            match bench.run_cell(cell, false, true) {
                Ok(run) => println!("digest {}/{label} {}", bench.name(), run.digest),
                Err(e) => {
                    ok = false;
                    println!("digest {}/{label} FAILED {e}", bench.name());
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let summary = run(bench.as_ref(), args.seconds, args.traced);
    for (label, digest, report) in &summary.cells {
        println!("digest {}/{label} {digest}", bench.name());
        if !report.is_empty() {
            println!("result {}/{label} {report}", bench.name());
        }
    }
    for (label, [setup, wall, cpu]) in bench.cells().iter().zip(&summary.cell_medians) {
        println!(
            "cell {}/{label} setup_s={setup:.6} wall_s={wall:.6} cpu_s={cpu:.6}",
            bench.name()
        );
    }
    for e in &summary.errors {
        println!("error {e}");
    }
    println!("reps {}", summary.reps);
    println!("{}", result_json(&summary));
    if summary.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
