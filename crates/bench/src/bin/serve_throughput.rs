//! Throughput lane for the `mpcgs::serve` job queue.
//!
//! Floods the queue with many small-but-real estimation jobs (each one a
//! complete EM run on a tiny simulated alignment) and measures how fast the
//! pool drains them: jobs per second and p50/p99 job latency, on the serial
//! single-worker pool and on the threaded pool, across a sweep of queue
//! depths. The threaded rung at the deepest queue is the acceptance check
//! that the service layer sustains ≥1k queued jobs.
//!
//! Usage: `serve_throughput [--smoke] [--jobs <list>] [--workers <n>]
//! [--out <path>]`. `--jobs` is a comma-separated sweep (default
//! `100,1000,10000`, smoke `100,1000`); `--out` writes a schema'd JSON
//! artefact for CI upload.

use std::process::ExitCode;

use benchkit::{harness_rng, render_table, simulate_alignment};
use codec::Json;
use exec::Backend;
use mpcgs::{Dataset, JobQueue, JobSpec, MpcgsConfig, ServeConfig, ServeReport};

const SCHEMA: &str = "mpcgs-serve-throughput/v1";

struct Opts {
    smoke: bool,
    jobs: Vec<usize>,
    workers: usize,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let default_workers = std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4);
    let mut opts = Opts { smoke: false, jobs: Vec::new(), workers: default_workers, out: None };
    let mut i = 0;
    while i < args.len() {
        let take_value = |name: &str, i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--jobs" => {
                let text = take_value("--jobs", &mut i)?;
                opts.jobs = text
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("invalid --jobs entry {part:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--workers" => {
                let text = take_value("--workers", &mut i)?;
                opts.workers = text
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --workers {text:?}"))?;
            }
            "--out" => opts.out = Some(take_value("--out", &mut i)?),
            "--help" | "-h" => {
                return Err("usage: serve_throughput [--smoke] [--jobs <n,n,...>] \
                            [--workers <n>] [--out <path>]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if opts.jobs.is_empty() {
        opts.jobs = if opts.smoke { vec![100, 1_000] } else { vec![100, 1_000, 10_000] };
    }
    Ok(opts)
}

/// One tiny but real job: a complete 1-round EM estimate on a 5-taxon
/// alignment. Small enough that the queue machinery (locking, preemption,
/// event fan-in) is a visible fraction of the cost, which is what this lane
/// is measuring.
fn job_config() -> MpcgsConfig {
    MpcgsConfig {
        initial_theta: 1.0,
        em_iterations: 1,
        proposals_per_iteration: 4,
        draws_per_iteration: 4,
        burn_in_draws: 8,
        sample_draws: 24,
        backend: Backend::Serial,
        ..MpcgsConfig::default()
    }
}

fn drain(dataset: &Dataset, n_jobs: usize, backend: Backend, workers: usize) -> ServeReport {
    let mut queue = JobQueue::new(ServeConfig { backend, workers, quantum: 4 });
    for k in 0..n_jobs {
        queue.submit(JobSpec::new(
            format!("job-{k}"),
            dataset.clone(),
            job_config(),
            20_160_401 + k as u32,
        ));
    }
    let report = queue.run();
    assert_eq!(report.completed(), n_jobs, "every queued job must complete");
    report
}

fn run(opts: &Opts) -> Result<(), String> {
    let mut rng = harness_rng("serve-throughput", 0);
    let alignment = simulate_alignment(&mut rng, 1.0, 5, 40);
    let dataset = Dataset::single(alignment);

    println!(
        "serve throughput ({} mode): sweep {:?} jobs, threaded pool uses {} workers",
        if opts.smoke { "smoke" } else { "full" },
        opts.jobs,
        opts.workers
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &n_jobs in &opts.jobs {
        let serial = drain(&dataset, n_jobs, Backend::Serial, 1);
        let threaded = drain(&dataset, n_jobs, Backend::Rayon, opts.workers);
        let speedup = threaded.jobs_per_sec() / serial.jobs_per_sec();
        for (label, report) in [("serial x1", &serial), ("threaded", &threaded)] {
            rows.push(vec![
                n_jobs.to_string(),
                label.to_string(),
                format!("{:.3}", report.wall_seconds),
                format!("{:.1}", report.jobs_per_sec()),
                format!("{:.4}", report.latency_quantile(0.5)),
                format!("{:.4}", report.latency_quantile(0.99)),
            ]);
        }
        points.push(Json::Object(vec![
            ("jobs".to_string(), Json::Number(n_jobs as f64)),
            ("serial_jobs_per_sec".to_string(), Json::Number(serial.jobs_per_sec())),
            ("serial_p50_s".to_string(), Json::Number(serial.latency_quantile(0.5))),
            ("serial_p99_s".to_string(), Json::Number(serial.latency_quantile(0.99))),
            ("threaded_jobs_per_sec".to_string(), Json::Number(threaded.jobs_per_sec())),
            ("threaded_p50_s".to_string(), Json::Number(threaded.latency_quantile(0.5))),
            ("threaded_p99_s".to_string(), Json::Number(threaded.latency_quantile(0.99))),
            ("threaded_over_serial".to_string(), Json::Number(speedup)),
        ]));
    }
    println!(
        "{}",
        render_table(
            "serve queue drain",
            &["jobs", "pool", "wall s", "jobs/s", "p50 s", "p99 s"],
            &rows,
        )
    );

    if let Some(path) = &opts.out {
        let artefact = Json::Object(vec![
            ("schema".to_string(), Json::string(SCHEMA)),
            ("smoke".to_string(), Json::Bool(opts.smoke)),
            ("workers".to_string(), Json::Number(opts.workers as f64)),
            ("points".to_string(), Json::Array(points)),
        ]);
        std::fs::write(path, artefact.to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_opts(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
