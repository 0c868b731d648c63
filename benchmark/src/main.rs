//! miniraid's benchmark. `run.sh` builds and calls this; see README.md.
//!
//! ```text
//! miniraid-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! miniraid-benchmark manifest              # BENCHMARK.json on stdout
//! miniraid-benchmark compare FIRST SECOND  # the A/A gate of check.sh
//! ```
//!
//! A run prints one line per metric (`workload metric value unit`),
//! remarks as `#` lines, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod load;
mod metrics;
mod run;
mod span;
mod stats;
mod sut;
mod walk;
mod workload;

use std::process::ExitCode;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: miniraid-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      miniraid-benchmark manifest | compare FIRST SECOND\n\
         workloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// `workload metric value ...` lines of a results file.
fn read_results(path: &str) -> std::io::Result<Vec<(String, String, f64)>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, m, v) = (f.next()?, f.next()?, f.next()?.parse().ok()?);
            Some((w.to_string(), m.to_string(), v))
        })
        .collect())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") if argv.len() == 3 => {
            let (Ok(first), Ok(second)) = (read_results(&argv[1]), read_results(&argv[2])) else {
                eprintln!("cannot read {} and {}", argv[1], argv[2]);
                return ExitCode::from(2);
            };
            let worse = metrics::regressions(&first, &second);
            for line in &worse {
                println!("{line}");
            }
            println!(
                "{} end-to-end values compared, {} outside their bound",
                first.len(),
                worse.len()
            );
            return if worse.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        _ => {}
    }

    let mut args = run::Args {
        workload: &workload::WORKLOADS[0],
        seed: 1988,
        seconds: RUN_SECONDS,
        trace: false,
        out: "benchmark/target".into(),
    };
    let mut named = false;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match (flag.as_str(), value.as_str()) {
            ("--workload", name) => match workload::by_name(name) {
                Some(w) => (args.workload, named) = (w, true),
                None => return usage(),
            },
            ("--seed", v) => match v.parse() {
                Ok(seed) => args.seed = seed,
                Err(_) => return usage(),
            },
            ("--seconds", v) => match v.parse() {
                Ok(seconds) if seconds >= 1 => args.seconds = seconds,
                _ => return usage(),
            },
            ("--trace", "0") => args.trace = false,
            ("--trace", "1") => args.trace = true,
            ("--out", dir) => args.out = dir.into(),
            _ => return usage(),
        }
    }
    if !named {
        return usage();
    }

    let name = args.workload.name;
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {name}: {note}");
    }
    if let Err(why) = &outcome.correct {
        // Numbers of a run whose outputs are wrong mean nothing.
        eprintln!("{name}: correctness check failed: {why}");
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted, outcome.failed
        );
        return ExitCode::FAILURE;
    }
    let (table, values): (&[Metric], _) = if args.trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut json = Vec::new();
    for m in table {
        // A layer the workload does not use did no work: 0. Every
        // end-to-end metric must have been measured.
        let value = match values.get(m.name) {
            Some(v) if v.is_finite() => *v,
            None if args.trace => 0.0,
            other => {
                eprintln!("{name}: {} was not measured ({other:?})", m.name);
                return ExitCode::FAILURE;
            }
        };
        println!("{name} {} {value} {}", m.name, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
