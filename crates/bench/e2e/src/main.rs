//! `pcqe-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, then:
//!
//! 1. runs the workload's epoch (its op sequence from a freshly loaded,
//!    default-configured `Database`) in a closed loop with one client
//!    until `--seconds` have passed and every op type has at least 100
//!    samples, re-loading the database between epochs and timing each
//!    empty-to-ready set-up (plus extra ones, spread over the run);
//! 2. replays one epoch stage by stage through the layer crates inside
//!    benchmark-owned spans, and checks every engine op's outcome against
//!    the replay's;
//! 3. prints every metric by name with its unit, then, as the last line,
//!    one JSON object: the end-to-end metrics with `--trace 0`, the
//!    per-layer metrics with `--trace 1`.
//!
//! With `--trace 1` the spans are also written to
//! `crates/bench/e2e/out/spans-<workload>.json`.

use pcqe_e2e_bench::check::{agrees, mismatches};
use pcqe_e2e_bench::cores::Cores;
use pcqe_e2e_bench::drive::{load, peak_rss_mib, run_epoch};
use pcqe_e2e_bench::gen::{generate, workload, OpKind, WORKLOADS};
use pcqe_e2e_bench::replay::replay;
use pcqe_e2e_bench::report::{end_to_end, per_layer, printed_only, tails, Run};
use pcqe_e2e_bench::stats::{result_line, valid_name, Metrics};
use pcqe_par::Parallelism;
use std::process::ExitCode;
use std::time::Instant;

/// Empty-to-ready set-ups timed per run at least; `setup_s` is their
/// median.
const SETUPS: usize = 31;
/// Hard stop for the timed loop, seconds, whatever the sample counts.
const MAX_LOOP_SECS: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// Load the inputs into an empty database, recording how long it took.
fn setup(
    inputs: &pcqe_e2e_bench::gen::Inputs,
    times: &mut Vec<f64>,
) -> Result<pcqe_engine::Database, String> {
    let t0 = Instant::now();
    let db = load(inputs).map_err(|e| format!("set-up failed: {e}"))?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(db)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pcqe-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let params = workload(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let inputs = generate(&params, args.seed);
    let nproc = Parallelism::default().workers_for(usize::MAX);

    // 1. End-to-end run.
    let mut run = Run {
        nproc,
        ..Run::default()
    };
    let started = Instant::now();
    let done = |records: &[_], started: Instant, complete: usize| {
        let secs = started.elapsed().as_secs_f64();
        secs >= MAX_LOOP_SECS
            || (secs >= args.seconds && complete > 0 && Run::enough_samples(records))
    };
    let mut cores = Cores::of_this_thread();
    while !done(&run.records, started, run.epochs.1) {
        if let Some(c) = cores.as_mut() {
            c.hop();
        }
        // Set-ups are spread over the run — each epoch's own load, plus
        // extra ones keeping pace with SETUPS per `--seconds` — so their
        // median samples the whole run, not one moment of it.
        let due = (SETUPS as f64 * started.elapsed().as_secs_f64() / args.seconds).ceil() as usize;
        while run.setups.len() + 1 < due {
            drop(setup(&inputs, &mut run.setups)?);
        }
        let mut db = setup(&inputs, &mut run.setups)?;
        run.epochs.0 += 1;
        let complete_before = run.epochs.1;
        let (complete, wall) =
            run_epoch(&mut db, &inputs, &mut run.records, &mut run.skipped, |r| {
                done(r, started, complete_before)
            });
        run.loop_secs += wall.as_secs_f64();
        if complete {
            run.epochs.1 += 1;
        }
        let snapshot = db.metrics_snapshot();
        if run.epochs.0 == 1 {
            run.engine_first = snapshot.clone();
        }
        run.absorb_engine(&snapshot);
    }
    while run.setups.len() < SETUPS {
        drop(setup(&inputs, &mut run.setups)?);
    }
    run.peak_rss_mib = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    // 2. Traced replay and output checks.
    let replayed = replay(&inputs).map_err(|e| format!("traced replay failed: {e}"))?;
    let observed: Vec<(usize, Option<u64>)> = run.records.iter().map(|r| (r.index, r.fp)).collect();
    let checks = Checks {
        attempted: run.records.len() as u64,
        failed: run
            .records
            .iter()
            .filter(|r| !r.ok || !agrees(&replayed.reference, r.index, r.fp))
            .count() as u64,
        own: run.records.iter().filter(|r| !r.ok).count(),
        mismatched: mismatches(&observed, &replayed.reference),
        invalid: replayed.counts.invalid_proposals,
    };

    // 3. Report.
    let e2e = end_to_end(&run)?;
    let tail = tails(&run);
    let layers = per_layer(&run, &replayed);
    let extra = printed_only(&replayed);
    for m in e2e.0.iter().chain(&tail.0).chain(&layers.0).chain(&extra.0) {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
    }
    print_human(
        &args,
        &inputs,
        &run,
        [&e2e, &tail, &layers, &extra],
        &checks,
    );
    if args.trace {
        let dir = std::path::Path::new("crates/bench/e2e/out");
        let path = dir.join(format!("spans-{}.json", args.workload));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, replayed.spans.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let metrics = if args.trace { &layers } else { &e2e };
    println!(
        "{}",
        result_line(checks.failed == 0, checks.attempted, checks.failed, metrics)
    );
    Ok(())
}

/// Outcome of the output checks.
struct Checks {
    /// Ops executed.
    attempted: u64,
    /// Ops that errored, failed their own checks or differ from the replay.
    failed: u64,
    /// Ops that errored or failed their own checks.
    own: usize,
    /// Ops whose outcome differs from the traced replay's.
    mismatched: usize,
    /// Replayed proposals that do not release what they promise.
    invalid: u64,
}

fn print_human(
    args: &Args,
    inputs: &pcqe_e2e_bench::gen::Inputs,
    run: &Run,
    [e2e, tail, layers, extra]: [&Metrics; 4],
    checks: &Checks,
) {
    println!(
        "workload {} seed {} | nproc {} | base rows {} | epoch {} ops | epochs {} ({} complete) | skipped ops {}",
        args.workload,
        args.seed,
        run.nproc,
        inputs.base_rows(),
        inputs.epoch.len(),
        run.epochs.0,
        run.epochs.1,
        run.skipped
    );
    println!("end-to-end (Database API, one closed-loop client, untraced):");
    for m in &e2e.0 {
        println!("  {:<22} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<22} {:>14.6} ratio  ({} failed of {} attempted: {} failed their own checks, \
         {} differ from the traced replay, {} replayed proposals invalid)",
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted,
        checks.own,
        checks.mismatched,
        checks.invalid
    );
    for m in &tail.0 {
        println!(
            "  {:<22} {:>14.6} {} (printed only)",
            m.name, m.value, m.unit
        );
    }
    let samples: Vec<String> = OpKind::ALL
        .iter()
        .map(|k| format!("{} {}", k.name(), run.secs(*k).len()))
        .collect();
    println!(
        "  samples: {}; set-ups {}",
        samples.join(", "),
        run.setups.len()
    );
    println!("per-layer (traced stage-by-stage replay of one epoch; benchmark-owned spans):");
    for m in &layers.0 {
        println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for m in &extra.0 {
        println!(
            "  {:<32} {:>14.6} {} (printed only)",
            m.name, m.value, m.unit
        );
    }
    println!("engine telemetry (Database::metrics_snapshot):");
    for (path, (n, total)) in &run.engine_spans {
        println!(
            "  span {:<24} calls {:>6}  mean {:>10.4} ms",
            path,
            n,
            *total as f64 / 1e6 / (*n).max(1) as f64
        );
    }
    for (name, v) in run.engine_first.counters.iter().filter(|(k, _)| {
        k.starts_with("exec.") || k.starts_with("lineage.") || k.starts_with("par.")
    }) {
        println!("  counter {name:<30} {v:>12} (first epoch)");
    }
    println!(
        "  note: Database::what_if and Database::query_batch emit no phase spans; \
         their per-layer numbers come from the benchmark's spans alone"
    );
}
