//! Figure 6 — the inefficiency of the multiple-independent-chains
//! work-around.
//!
//! Two views are printed:
//!
//! 1. the idealised arithmetic of Section 3 (per-chain cost `B + N/P`,
//!    efficiency relative to perfect scaling, and the generalized scheme's
//!    `(B + N)/P`), for the B = 4, N = 4 toy of Figure 6 and for a realistic
//!    chain;
//! 2. a *measured* multi-chain run on simulated data — an
//!    [`ExchangePolicy::Independent`] ensemble of baseline chains: each chain
//!    really pays its own burn-in, and the total transition counts are
//!    reported.

use benchkit::{harness_rng, render_table, simulate_alignment};
use exec::amdahl::{multichain_efficiency, multichain_time, parallel_burnin_time};
use exec::Backend;
use mcmc::rng::Mt19937;
use mpcgs::{EnsembleBuilder, ExchangePolicy, ModelSpec, MpcgsConfig, SamplerStrategy, Session};
use phylo::Dataset;

fn ideal_table(b: f64, n: f64, title: &str) -> String {
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16, 64]
        .iter()
        .map(|&p| {
            vec![
                format!("{p}"),
                format!("{:.2}", multichain_time(b, n, p)),
                format!("{:.2}", parallel_burnin_time(b, n, p)),
                format!("{:.1}%", 100.0 * multichain_efficiency(b, n, p)),
            ]
        })
        .collect();
    render_table(
        title,
        &["P", "multi-chain B+N/P", "parallel burn-in (B+N)/P", "multi-chain efficiency"],
        &rows,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("{}", ideal_table(4.0, 4.0, "Figure 6 (idealised, B = 4, N = 4):"));
    println!(
        "{}",
        ideal_table(
            1_000.0,
            10_000.0,
            "Idealised costs for a realistic chain (B = 1000, N = 10000):"
        )
    );

    // Measured multi-chain runs.
    let mut rng = harness_rng("fig6", 0);
    let (n_seq, sites, burn_in, total_samples) =
        if quick { (6, 80, 100, 600) } else { (10, 150, 400, 2_400) };
    let dataset = Dataset::single(simulate_alignment(&mut rng, 1.0, n_seq, sites));

    let mut rows = Vec::new();
    for p in [1usize, 2, 4] {
        // Each chain retains ⌈N/P⌉ samples and keeps its inner loops serial;
        // the parallelism is one scoped thread per chain, the work-around's
        // one chain per processor.
        let config = MpcgsConfig {
            initial_theta: 1.0,
            em_iterations: 1,
            burn_in_draws: burn_in,
            sample_draws: usize::div_ceil(total_samples, p),
            thinning: 1,
            backend: Backend::Serial,
            ..MpcgsConfig::default()
        };
        let session = Session::builder()
            .dataset(dataset.clone())
            .model(ModelSpec::F81Empirical)
            .strategy(SamplerStrategy::Baseline)
            .config(config)
            .build()
            .expect("valid configuration");
        let report = EnsembleBuilder::new()
            .session(session)
            .chains(p)
            .exchange(ExchangePolicy::Independent)
            .seed(2_016)
            .chain_dispatch(Backend::Rayon)
            .build()
            .expect("valid ensemble")
            .run(&mut Mt19937::new(1))
            .expect("multi-chain run succeeds");
        rows.push(vec![
            format!("{p}"),
            format!("{}", report.pooled_samples.len()),
            format!("{}", report.transitions_per_chain()),
            format!("{}", report.total_transitions()),
            format!("{:.1}%", 100.0 * report.burn_in_fraction()),
            format!("{:.0}", report.ideal_parallel_cost()),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Measured multi-chain work (pooled sample size held fixed):",
            &[
                "P",
                "pooled samples",
                "transitions/chain",
                "total transitions",
                "burn-in share",
                "ideal B+N/P",
            ],
            &rows,
        )
    );
    println!(
        "The burn-in share of the total work grows with P while the pooled sample size stays\n\
         fixed — the diminishing returns of Eq. 27 that motivate the multi-proposal sampler."
    );
}
