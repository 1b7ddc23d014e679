//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits with 1 when any correctness check
//! failed and with 2 on bad arguments or a set-up failure.

use std::process::ExitCode;
use std::time::Duration;

use compadres_perfbench::{run, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(
        &args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in names {
        // A missing or non-finite metric is already a failed check; JSON
        // has no NaN, so it prints as 0.
        let v = report
            .metrics
            .get(*name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name:<32} {v:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
