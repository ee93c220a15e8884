//! Host-clock benchmark of the ERIS serving path.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-zipf --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` measures the end-to-end metrics.  `--trace 1` runs the
//! same seed with its window's time slices alternately untraced and
//! traced, and reports the per-layer metrics of the traced slices plus
//! the throughput lost to tracing.  The
//! last line of standard output is one JSON object; the lines before it
//! list every metric with its unit and clock domain (`host`, `virtual`
//! or `count`).  See `perfbench/README.md` for the metric catalogue.

mod harness;
mod trace;
mod workload;

use harness::{Fault, Metric, RunCfg, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Journals and span files go here, relative to the working directory.
const OUT_DIR: &str = "perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            a.self_check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_check && Spec::named(&a.workload, false).is_none() {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", a.seconds));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.self_check {
        self_check()
    } else {
        measure(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn cfg(spec: Spec, seed: u64, seconds: f64, traced: bool, setups: usize) -> RunCfg {
    RunCfg {
        spec,
        seed,
        seconds,
        traced,
        setups,
        fault: None,
        out_dir: PathBuf::from(OUT_DIR),
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!(
            "  {:<34} {:>16.4} {:<12} {}",
            m.name, m.value, m.unit, m.clock
        );
    }
}

fn print_run(label: &str, r: &RunResult) {
    let c = r.checks;
    let verdict = |ok: bool| if ok { "ok" } else { "FAILED" };
    println!(
        "{label}: attempted={} failed={} (wrong={} missing={} not_accepted={}) failed_frac={:.6} \
         read_samples={} write_samples={} checks: answers={} complete={} ledger={} ({})",
        r.attempted,
        r.failed,
        r.wrong,
        r.missing,
        r.not_accepted,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.read_samples,
        r.write_samples,
        verdict(c.answers),
        verdict(c.complete),
        verdict(c.ledger),
        r.ledger_note,
    );
    let slices: Vec<String> = r
        .slice_cmds_per_s
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    println!("{label}: cmd/s per slice: {}", slices.join(" "));
}

fn json(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    let body: Vec<String> = ms
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
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One measurement: one workload, one seed, untraced or traced.
fn measure(a: &Args) -> std::io::Result<bool> {
    let spec = Spec::named(&a.workload, false).expect("validated in parse_args");
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        spec.name, a.seed, a.seconds, a.trace as u8
    );
    let (correct, attempted, failed, metrics) = if !a.trace {
        // Set-up is repeated and its median reported, so work moved
        // into set-up shows without one slow set-up swinging the figure.
        let r = harness::run(&cfg(spec, a.seed, a.seconds, false, 12))?;
        print_run("run", &r);
        print_metrics("end-to-end", &r.e2e);
        (r.checks.all(), r.attempted, r.failed, r.e2e)
    } else {
        let r = harness::run(&cfg(spec, a.seed, a.seconds, true, 1))?;
        print_run("traced run", &r);
        if let Some((path, n)) = &r.spans_written {
            println!("spans: {n} written to {}", path.display());
        }
        print_metrics("per-layer (traced slices)", &r.layers);
        (r.checks.all(), r.attempted, r.failed, r.layers)
    };
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(true)
}

/// Every gate must be able to fail: a clean run passes all checks, each
/// seeded fault flips exactly its own check, count and virtual-clock
/// metrics repeat exactly for a seed, and another seed changes the
/// command stream.
fn self_check() -> std::io::Result<bool> {
    const SECONDS: f64 = 0.2;
    let mut all_ok = true;
    let mut report = |what: String, ok: bool| {
        println!("self-check {what}: {}", if ok { "ok" } else { "FAILED" });
        all_ok &= ok;
    };
    for name in WORKLOADS {
        let spec = Spec::named(name, true).expect("known workload");
        let run = |seed: u64, fault: Option<Fault>| {
            harness::run(&RunCfg {
                fault,
                ..cfg(spec.clone(), seed, SECONDS, false, 1)
            })
        };
        let clean = run(1, None)?;
        report(
            format!("{name} clean run passes every check"),
            clean.checks.all(),
        );
        // Each fault must flip exactly its own check relative to the
        // clean run, and add to `failed`.
        let faults = [
            Fault::CorruptAnswer,
            Fault::WithholdCommand,
            Fault::LedgerOffByOne,
        ];
        for fault in faults {
            let mut want = clean.checks;
            match fault {
                Fault::CorruptAnswer => want.answers = false,
                Fault::WithholdCommand => want.complete = false,
                Fault::LedgerOffByOne => want.ledger = false,
            }
            let r = run(1, Some(fault))?;
            report(
                format!("{name} {fault:?} trips only its check ({:?})", r.checks),
                r.checks == want && r.failed > clean.failed,
            );
        }
        let again = run(1, None)?;
        let diffs: Vec<String> = clean
            .deterministic
            .iter()
            .zip(&again.deterministic)
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, b)| format!("{} {} != {}", a.0, a.1, b.1))
            .collect();
        report(
            format!(
                "{name} count/virtual metrics repeat for a seed ({} metrics){}",
                clean.deterministic.len(),
                if diffs.is_empty() {
                    String::new()
                } else {
                    format!(": {}", diffs.join("; "))
                }
            ),
            diffs.is_empty() && !clean.deterministic.is_empty(),
        );
        let g1 = workload::Generator::new(&spec, 1);
        let g2 = workload::Generator::new(&spec, 2);
        let differs = (1..=64).any(|t| g1.command(t) != g2.command(t));
        report(
            format!("{name} another seed changes the command stream"),
            differs,
        );
    }
    Ok(all_ok)
}
