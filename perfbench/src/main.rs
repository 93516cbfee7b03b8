//! `perfbench --workload W --seed N --seconds S --trace 0|1 --flint F
//! [--work DIR]`: runs one workload and prints a metric table, then
//! the result line as the last line of standard output.

use flint_perfbench::workloads::{self, Config, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload serve-magic|route-ranking|batch-magic \
                     --seed N --seconds S --trace 0|1 --flint PATH [--work DIR]";

fn parse(args: &[String]) -> Result<(Workload, Config), String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let flint = PathBuf::from(get("flint")?);
    if !flint.is_file() {
        return Err(format!("no flint binary at {}", flint.display()));
    }
    let work = flags
        .get("work")
        .map_or_else(|| PathBuf::from("perfbench/.work"), PathBuf::from);
    Ok((
        workload,
        Config {
            flint,
            work,
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    flint_perfbench::loadgen::precise_timers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(workload, &cfg) {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", workload.name(), cfg.seed);
            ExitCode::FAILURE
        }
    }
}
