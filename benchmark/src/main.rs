//! `bench --workload <name> [--seed S] [--seconds 25] [--trace 0|1] [--smoke] [--out DIR]`
//! runs one workload and prints the driver's result line last;
//! `bench compare <setA> <setB>` judges two sets of result files.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use utilcast_benchmark::metrics::RUN_SECONDS;
use utilcast_benchmark::report::{outcome, print_listing, Env};
use utilcast_benchmark::workload::{Workload, WORKLOADS};
use utilcast_benchmark::{compare, run};

const USAGE: &str = "usage: bench --workload <name> [--seed S] [--seconds 25] [--trace 0|1] \
                     [--smoke] [--out DIR]\n       bench compare <setA> <setB>";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut trace, mut smoke) = (1u64, false, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = number(value()?)?,
            // The driver passes its `run_seconds`. A run is a fixed number
            // of passes of fixed tick counts, so no other length exists.
            "--seconds" => {
                let seconds = number(value()?)?;
                if seconds != RUN_SECONDS {
                    return Err(format!(
                        "--seconds {seconds}: a run measures {RUN_SECONDS} s (fixed passes and ticks)"
                    ));
                }
            }
            "--trace" => trace = number(value()?)? != 0,
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trace,
        smoke,
        out,
    })
}

fn bench(args: Args) -> Result<bool, String> {
    let w = if args.smoke {
        args.workload.smoke()
    } else {
        args.workload
    };
    let output = run::run(&w, args.seed, args.trace)?;
    let env = Env {
        seed: args.seed,
        smoke: args.smoke,
    };
    let outcome = outcome(&w, &env, &output)?;
    print_listing(&w, &output, &outcome);
    let mode = if args.trace { "trace" } else { "run" };
    let path = args.out.join(format!("{mode}-{}.json", w.name));
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let text = serde_json::to_string(&outcome.file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!(
        "{}",
        serde_json::to_string(&outcome.last_line).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, [a, b])) if cmd == "compare" => compare::read_set(Path::new(a))
            .and_then(|a| Ok((a, compare::read_set(Path::new(b))?)))
            .and_then(|(a, b)| Ok(compare::compare(&a, &b)? == 0)),
        Some((cmd, _)) if cmd == "compare" => Err(USAGE.into()),
        _ => parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(bench),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
