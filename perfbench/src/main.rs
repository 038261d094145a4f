//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` the workload runs end to end for `--seconds` seconds
//! and the end-to-end metrics are printed; with `--trace 1` the traced
//! per-layer run replaces it. Either way the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when a run cannot complete and 2 on bad arguments.

use llm4fp_perfbench::{layers, workload};

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: workload::Workload::CampaignLlm4fp, seed: 42, seconds: 10, trace: false };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = workload::Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("invalid --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("invalid --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!(
            "perfbench: {msg}\nusage: perfbench --workload campaign-llm4fp|paper-table2|pool-rundir \
             [--seed N] [--seconds S] [--trace 0|1]"
        );
        std::process::exit(2);
    });
    let report = if args.trace {
        layers::measure(args.seed, workload::Workload::budget)
    } else {
        workload::measure(args.workload, args.seed, args.seconds, args.workload.budget())
    };
    match report {
        Ok(report) => print!("{}", report.render()),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
