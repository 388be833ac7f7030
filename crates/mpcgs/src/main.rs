//! The `mpcgs` command-line program.
//!
//! Argument parsing and validation live in [`mpcgs::cli`] (unit-tested as a
//! library); this binary wires the parsed configuration into the [`Session`]
//! facade with an [`EmProgressPrinter`] observer streaming the per-iteration
//! history, and prints the device cost breakdown when the run dispatched
//! through the simulated accelerator backend.

#![deny(unsafe_code)]

use std::process::ExitCode;

use exec::Backend;
use phylo::likelihood::ExecutionMode;

use mpcgs::cli::{
    apply_rates, load_dataset, parse_args, parse_job_file, parse_serve_args, print_usage, CliArgs,
};
use mpcgs::{
    EmProgressPrinter, ExchangePolicy, JobQueue, MpcgsConfig, ServeEvent, Session,
    SessionCheckpoint, SessionRunner,
};

fn run(cli: CliArgs) -> Result<(), String> {
    let dataset = apply_rates(load_dataset(&cli.phylip_paths)?, &cli.rates)?;
    println!(
        "mpcgs: {} locus/loci, {} sequences, {} total sites, initial theta {}",
        dataset.n_loci(),
        dataset.n_sequences(),
        dataset.total_sites(),
        cli.initial_theta
    );
    for locus in dataset.loci() {
        let rate = locus.relative_rate();
        // mpcgs-analyze: allow(d5, reason = "display-only branch: 1.0 is the exact default stored when no --rates flag was given, so the comparison never sees a computed value")
        if rate == 1.0 {
            println!("  locus {:<12} {} sites", locus.name(), locus.n_sites());
        } else {
            println!(
                "  locus {:<12} {} sites, relative rate {rate}",
                locus.name(),
                locus.n_sites()
            );
        }
    }

    let variant = cli.kernel.variant();
    if cli.kernel == phylo::likelihood::Kernel::Auto {
        let features = phylo::likelihood::host_cpu_features();
        println!(
            "  backend {}, {variant} kernel (auto; host cpu: {})",
            cli.backend,
            if features.is_empty() { "baseline".to_string() } else { features.join("+") }
        );
    } else {
        println!("  backend {}, {variant} kernel", cli.backend);
    }

    let config = MpcgsConfig {
        initial_theta: cli.initial_theta,
        em_iterations: cli.em_iterations,
        proposals_per_iteration: cli.proposals,
        draws_per_iteration: cli.proposals,
        burn_in_draws: cli.burn_in,
        sample_draws: cli.samples,
        backend: cli.backend,
        kernel: cli.kernel,
        ..MpcgsConfig::default()
    };
    // Within-locus site parallelism mirrors the backend choice; the device
    // backend schedules its own queue, so it keeps the serial mode.
    let execution = match cli.backend {
        Backend::Rayon => ExecutionMode::Parallel,
        _ => ExecutionMode::Serial,
    };
    let mut builder = Session::builder()
        .dataset(dataset)
        .strategy(cli.strategy)
        .config(config)
        .execution(execution)
        .observe(EmProgressPrinter::new());
    if let Some(spec) = cli.ensemble_spec()? {
        println!(
            "  ensemble: {} chains, {} exchange{}",
            spec.n_chains,
            spec.exchange.name(),
            match &spec.exchange {
                ExchangePolicy::TemperatureLadder { temperatures, swap_interval } => format!(
                    " (temperatures {:?}, swap every {} rounds)",
                    temperatures.iter().map(|t| (t * 100.0).round() / 100.0).collect::<Vec<_>>(),
                    swap_interval
                ),
                ExchangePolicy::Independent => String::new(),
            }
        );
        builder = builder.ensemble(spec);
    }
    let session = builder.build().map_err(|e| format!("invalid configuration: {e}"))?;

    // Build the resumable runner: fresh, or continued from --resume. Driving
    // the runner to completion is bit-identical to the pre-checkpoint
    // `Session::run` path with the same seed.
    let mut runner: SessionRunner = match &cli.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
            let checkpoint = SessionCheckpoint::parse(&text)
                .map_err(|e| format!("cannot load checkpoint {path}: {e}"))?;
            println!(
                "  resuming from {path}: EM round {}, driving theta {:.6}",
                checkpoint.em_round, checkpoint.theta
            );
            session.resume(&checkpoint).map_err(|e| format!("cannot resume: {e}"))?
        }
        None => {
            session.into_runner(cli.seed).map_err(|e| format!("estimation failed to start: {e}"))?
        }
    };

    let estimate = match cli.checkpoint_every {
        None => runner.run_to_completion().map_err(|e| format!("estimation failed: {e}"))?,
        Some(every) => {
            let path = cli
                .checkpoint_path
                .as_deref()
                .expect("parse_args rejects --checkpoint-every without --checkpoint-path");
            loop {
                let mut finished = false;
                for _ in 0..every {
                    finished = runner.step().map_err(|e| format!("estimation failed: {e}"))?;
                    if finished {
                        break;
                    }
                }
                if finished {
                    break;
                }
                let checkpoint =
                    runner.checkpoint().map_err(|e| format!("checkpoint failed: {e}"))?;
                write_atomically(path, &checkpoint.to_pretty())?;
            }
            runner.report().cloned().expect("a finished runner carries its report")
        }
    };
    if let Some(device) = &estimate.device {
        println!("\n{}", device.summary());
    }
    println!("\nfinal estimate of theta: {:.6}", estimate.theta);
    Ok(())
}

/// Write `text` to `path` via a sibling temp file + rename, so an interrupted
/// write can never leave a torn checkpoint behind.
fn write_atomically(path: &str, text: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write checkpoint {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalise checkpoint {path}: {e}"))
}

/// The `mpcgs serve` driver: load the job spec document (file or stdin),
/// drain the queue over the configured pool, and stream tagged per-job
/// progress lines.
fn run_serve(args: &[String]) -> Result<(), String> {
    let serve_args = parse_serve_args(args)?;
    let text = if serve_args.job_path == "-" {
        use std::io::Read;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read job specs from stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(&serve_args.job_path)
            .map_err(|e| format!("cannot read {}: {e}", serve_args.job_path))?
    };
    let (config, jobs) = parse_job_file(&text, &serve_args)?;
    println!(
        "mpcgs serve: {} job(s), {} worker(s) on the {} pool, quantum {}",
        jobs.len(),
        config.workers,
        config.backend,
        config.quantum
    );
    let mut queue = JobQueue::new(config);
    for job in jobs {
        queue.submit(job);
    }
    let report = queue.run_with(|event| match event {
        ServeEvent::JobStarted { job } => println!("[{job}] started"),
        ServeEvent::ChainStarted { job, chain_index } => {
            if *chain_index > 0 {
                println!("[{job}] chain {chain_index} started");
            }
        }
        ServeEvent::EmRound { job, iteration, driving_theta, estimate } => println!(
            "[{job}] EM round {iteration}: driving theta {driving_theta:.6} -> estimate \
             {estimate:.6}"
        ),
        ServeEvent::JobFinished { job, theta } => {
            println!("[{job}] finished: theta = {theta:.6}")
        }
        ServeEvent::JobFailed { job, error } => println!("[{job}] FAILED: {error}"),
    });
    println!(
        "\ndrained {} job(s) in {:.3}s: {:.2} jobs/s, latency p50 {:.3}s p99 {:.3}s, {} failed",
        report.outcomes.len(),
        report.wall_seconds,
        report.jobs_per_sec(),
        report.latency_quantile(0.5),
        report.latency_quantile(0.99),
        report.failed()
    );
    if report.failed() > 0 {
        return Err(format!("{} job(s) failed", report.failed()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match run_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&args) {
        Ok(cli) => match run(cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}
