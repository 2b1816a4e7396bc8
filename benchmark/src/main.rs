//! The repo benchmark. See `README.md` beside `Cargo.toml` for what is
//! measured and why; `--help` for the command line.
//!
//! A run measures one workload. Without `--trace` it sets the workload
//! up three times (`setup_s` is the median), runs its closed loop for
//! `--seconds`, checks the outputs, and prints the end-to-end metrics.
//! Every time is corrected for the core clock (`harness::Sample`).
//! With `--trace` it runs every workload traced for a third of
//! `--seconds` each — the per-layer metrics are one list, and each
//! workload supplies its part — and runs the named workload untraced
//! first, for `trace.overhead_share`. End-to-end numbers are never
//! taken from a traced run.

mod edits;
mod harness;
mod layers;
mod trace;
mod workloads;

use harness::{
    median, peak_rss_mb, percentile, result_line, samples_beyond, Config, Metrics, Scale, Section,
    Until, MIN_BEYOND,
};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Spec, Workload, SPECS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The benchmark's contract with the driver, compiled in: the default
/// `--seconds` and the metric names every run must emit come from it.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn contract() -> Value {
    serde_json::from_str(CONTRACT).expect("BENCHMARK.json is valid JSON")
}

/// The `name`s listed under `key` (`workloads`, `end_to_end`,
/// `per_layer`) of the contract, sorted.
fn contract_names(key: &str) -> Vec<String> {
    let contract = contract();
    let entries = contract.get(key).and_then(Value::as_array);
    let mut names: Vec<String> = entries
        .expect("the contract lists its entries")
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    names.sort();
    names
}

/// Panics unless `metrics` holds exactly the contract's `key` metrics:
/// a metric dropped or renamed here and not there is a bug in this
/// program, not a measurement.
fn assert_emits(metrics: &Metrics, key: &str) {
    let mut emitted = metrics.names();
    emitted.sort_unstable();
    assert_eq!(emitted, contract_names(key), "BENCHMARK.json `{key}`");
}

const USAGE: &str = "\
usage: diic-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]
       diic-benchmark --all             [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]
       diic-benchmark --smoke           every workload untraced, then one traced run, in seconds

workloads: batch-100k, library-batch, edit-session, service-mix
--all runs each workload in a fresh child process, so peak_rss_mb is per workload;
--all --trace runs one traced child, which covers every workload's per-layer metrics.
The last line of standard output is one JSON object: correct, attempted, failed, metrics.";

/// Where traces and spill files go: `out/` beside `Cargo.toml`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static Spec>,
    all: bool,
    trace: bool,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut all, mut trace) = (None, false, false);
    let (mut seed, mut seconds, mut scale) = (1, None, Scale::Full);
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let spec = SPECS.iter().find(|s| s.name == name);
                workload = Some(spec.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                // The driver passes 0 or 1; a bare flag means 1.
                trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--all" => all = true,
            "--smoke" => scale = Scale::Smoke,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workload.is_none() && !all && scale == Scale::Full {
        return Err("name a workload, or pass --all or --smoke".into());
    }
    let run_seconds = contract().get("run_seconds").and_then(Value::as_f64);
    let seconds = seconds
        .unwrap_or_else(|| scale.pick(run_seconds.expect("the contract has run_seconds"), 0.3));
    Ok(Args {
        workload,
        all,
        trace,
        cfg: Config {
            seed,
            seconds,
            scale,
        },
    })
}

/// The gates every section passes through: per-op failures are already
/// counted; a failed end-state gate fails every op it covers.
fn gate(spec: &Spec, workload: &mut dyn Workload, sections: &[&Section]) -> (u64, u64) {
    let attempted: u64 = sections.iter().map(|s| s.attempted()).sum();
    let mut failed: u64 = sections.iter().map(|s| s.failed).sum();
    if let Err(why) = workload.verify() {
        eprintln!("{}: correctness gate failed: {why}", spec.name);
        failed = attempted;
    }
    (attempted, failed)
}

/// An end-to-end run of one workload: tracing off.
fn run_end_to_end(spec: &Spec, cfg: &Config) -> (u64, u64, Metrics) {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first: set-ups do not overlap.
        drop(workload.take());
        let (instance, seconds) = workloads::setup(spec.name, cfg);
        workload = Some(instance);
        setups.push(seconds);
    }
    let mut workload = workload.expect("SETUPS is at least one");
    let min_ops = cfg.scale.pick(spec.min_ops, spec.min_ops.div_ceil(50));
    let section = workload.run(Until::seconds(cfg.seconds, min_ops), false);
    let (attempted, failed) = gate(spec, workload.as_mut(), &[&section]);

    let latencies = section.latencies_ms();
    let beyond = samples_beyond(latencies.len(), spec.tail_pct);
    let raw: Vec<f64> = section.samples.iter().map(|s| s.raw_ms).collect();
    let clock: Vec<f64> = section
        .samples
        .iter()
        .map(|s| s.corrected_ms() / s.raw_ms)
        .collect();
    println!(
        "# {}: {} timed ops, op_tail_ms = p{} with {beyond} samples beyond, throughput in {}/s, \
         set-ups {setups:.3?} s; uncorrected op p50 {:.4} ms at a core clock of {:.3} x reference \
         (min {:.3}, max {:.3})",
        spec.name,
        latencies.len(),
        spec.tail_pct,
        spec.unit,
        median(&raw),
        median(&clock),
        clock.iter().copied().fold(f64::INFINITY, f64::min),
        clock.iter().copied().fold(0.0, f64::max),
    );
    let mut failed = failed;
    if cfg.scale == Scale::Full && beyond < MIN_BEYOND {
        eprintln!("{}: only {beyond} samples beyond the tail", spec.name);
        failed = attempted;
    }
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("op_p50_ms", percentile(&latencies, 50.0), "ms");
    metrics.put("op_tail_ms", percentile(&latencies, spec.tail_pct), "ms");
    metrics.put("throughput_per_s", section.throughput_per_s, "1/s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    assert_emits(&metrics, "end_to_end");
    (attempted, failed, metrics)
}

/// A traced run: per-layer metrics of every workload, the named one
/// also untraced for the tracing overhead.
fn run_traced(named: &Spec, cfg: &Config) -> (u64, u64, Metrics) {
    std::fs::create_dir_all(out_dir()).expect("out/ is writable");
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let seconds = cfg.seconds / 3.0;
    for spec in &SPECS {
        let (mut workload, _) = workloads::setup(spec.name, cfg);
        let min_ops = cfg.scale.pick(spec.min_ops, spec.min_ops.div_ceil(50)) / 3;
        let plain = (spec.name == named.name)
            .then(|| workload.run(Until::seconds(seconds, min_ops), false));
        let traced = workload.run(Until::seconds(seconds, min_ops), true);
        let sections: Vec<&Section> = plain.iter().chain([&traced]).collect();
        let (a, f) = gate(spec, workload.as_mut(), &sections);
        attempted += a;
        failed += f;
        workload.layer_metrics(&traced, &mut metrics);
        if let Some(plain) = plain {
            metrics.put(
                "trace.overhead_share",
                1.0 - traced.throughput_per_s / plain.throughput_per_s,
                "ratio",
            );
        }
        let path = out_dir().join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, trace::chrome_trace(&traced.spans)).expect("out/ is writable");
        println!(
            "# {}: {} traced ops, {} spans -> {}",
            spec.name,
            traced.attempted(),
            traced.spans.len(),
            path.display()
        );
    }
    // The same edit through the router and back, minus the edit alone.
    let through_router = metrics.get("api.edits_p50_ms").expect("service-mix ran");
    let alone = metrics.get("edit.apply_p50_ms").expect("edit-session ran");
    metrics.put(
        "api.router_overhead_us",
        (through_router - alone) * 1e3,
        "us",
    );
    assert_emits(&metrics, "per_layer");
    (attempted, failed, metrics)
}

/// Runs this executable in fresh child processes, passing the output
/// through: one untraced child per workload, or — `--all --trace` — one
/// traced child, which covers every workload's per-layer metrics. Bare
/// `--smoke` does both. True if every child passed.
fn run_children(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut runs: Vec<(&str, bool)> = Vec::new();
    if !(args.all && args.trace) {
        runs.extend(SPECS.iter().map(|s| (s.name, false)));
    }
    if args.trace || !args.all {
        runs.push((SPECS[0].name, true));
    }
    let mut ok = true;
    for (name, trace) in runs {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.cfg.scale == Scale::Smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        ok &= child.status().is_ok_and(|s| s.success());
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = args.workload.filter(|_| !args.all) else {
        return if run_children(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    // Spilled report reads go through `std::env::temp_dir()`: keep them
    // inside the checkout. Set before any thread starts.
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("out/tmp is writable");
    std::env::set_var("TMPDIR", &tmp);

    let (attempted, failed, metrics) = if args.trace {
        run_traced(spec, &args.cfg)
    } else {
        run_end_to_end(spec, &args.cfg)
    };
    print!("{}", metrics.render_lines());
    println!(
        "{:<44} {:>16.4} ratio",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_names_the_workloads_this_program_runs() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        assert_eq!(names, contract_names("workloads"));
        for spec in &SPECS {
            assert!(
                samples_beyond(spec.min_ops, spec.tail_pct) >= MIN_BEYOND,
                "{}: p{} of {} ops",
                spec.name,
                spec.tail_pct,
                spec.min_ops
            );
        }
    }
}
