//! Command line of the benchmark; see `README.md`.

use eventscale_bench::{noise, run_workload, RunArgs};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  eventscale-bench run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
  eventscale-bench check-noise

workloads: nio-small nio-pipelined nio-large nio-churn pool-small sim-figs
";

/// Where a traced run writes `<workload>.trace.jsonl`, from the repository
/// root (where `BENCHMARK.json`'s command runs).
const OUT_DIR: &str = "benchmark/out";

/// `--name value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    /// Remove `--name` and return its value, if given.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn number(&mut self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: '{v}' is not a whole number")),
        }
    }

    /// Remove the bare flag `name`; true if it was given.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    // `--trace` alone means 1; the harness always passes `--trace 0|1`.
    let trace = match args.0.iter().position(|a| a == "--trace") {
        None => false,
        Some(at) => {
            args.0.remove(at);
            match args.0.get(at).map(String::as_str) {
                Some("0") => {
                    args.0.remove(at);
                    false
                }
                Some("1") => {
                    args.0.remove(at);
                    true
                }
                _ => true,
            }
        }
    };
    let run_args = RunArgs {
        workload: args.value("--workload")?.ok_or("--workload is required")?,
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", noise::SECONDS)?.clamp(1, 60),
        trace,
        smoke: args.flag("--smoke"),
    };
    args.done()?;
    let report = run_workload(&run_args, Path::new(OUT_DIR))?;
    print!("{}", report.render());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn check_noise(args: Args) -> Result<ExitCode, String> {
    args.done()?;
    let rows = noise::measure(|line| eprintln!("{line}"))?;
    let table = noise::render(&rows);
    print!("{table}");
    std::fs::write(noise::OUT_FILE, &table)
        .map_err(|e| format!("writing {}: {e}", noise::OUT_FILE))?;
    let breaches = rows.iter().filter(|r| r.breach()).count();
    let unresolved = rows.iter().filter(|r| r.unresolved()).count();
    eprintln!(
        "{breaches} breach(es), {unresolved} unresolved in {} rows; table written to {}",
        rows.len(),
        noise::OUT_FILE
    );
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let outcome = match command.as_str() {
        "run" => run(Args(argv)),
        "check-noise" => check_noise(Args(argv)),
        _ => Err(format!("unknown command '{command}'")),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("eventscale-bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
