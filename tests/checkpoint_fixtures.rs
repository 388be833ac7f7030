//! Golden-fixture tests for the checkpoint document format.
//!
//! Two small checkpoint documents are committed under `tests/fixtures/` in
//! the current `mpcgs-checkpoint/v2` format: one mid-run single-chain GMH
//! session and one mid-run MC³ temperature ladder. The tests assert, without
//! running a sampler first, that
//!
//! 1. each document still parses,
//! 2. parse → re-encode reproduces the committed bytes **exactly** (so any
//!    codec drift — field order, float formatting, a renamed key — fails
//!    immediately), and
//! 3. resuming a session from the committed document completes and is
//!    bit-identical to the uninterrupted run,
//!
//! which together pin the on-disk format across refactors of the tree
//! storage and of the retained-draw summary.
//!
//! The same two runs are also committed as `mpcgs-checkpoint/v1` documents,
//! written before draws were reduced to fixed-size summaries. v1 is
//! read-only: each v1 document must decode to exactly the state its v2
//! twin decodes to, re-encode to the v2 bytes, and resume bit-identically.
//! The v1 files are never regenerated.
//!
//! A seeded sweep also feeds the decoder mutated copies of the v2 goldens
//! (truncated text, missing or ragged sample columns, bad counts and values)
//! and requires a pointed `Err` — never a panic — for each.
//!
//! Regenerate the v2 goldens with
//! `MPCGS_REGEN_FIXTURES=1 cargo test --test checkpoint_fixtures` after an
//! *intentional* format change, and say so in the commit message.

#[path = "harness/mod.rs"]
mod harness;

use coalescent::{CoalescentSimulator, SequenceSimulator};
use codec::Json;
use exec::Backend;
use mcmc::rng::Mt19937;
use phylo::likelihood::Kernel;
use phylo::model::Jc69;
use phylo::{Alignment, Dataset};
use rand::RngCore;

use mpcgs::{
    EnsembleSpec, ExchangePolicy, MpcgsConfig, SamplerStrategy, Session, SessionCheckpoint,
};

fn simulated_dataset(seed: u32, n: usize, sites: usize) -> Dataset {
    let mut rng = Mt19937::new(seed);
    let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(&mut rng, n).unwrap();
    let alignment: Alignment =
        SequenceSimulator::new(Jc69::new(), sites, 1.0).unwrap().simulate(&mut rng, &tree).unwrap();
    Dataset::single(alignment)
}

fn small_config() -> MpcgsConfig {
    MpcgsConfig {
        initial_theta: 0.5,
        em_iterations: 2,
        proposals_per_iteration: 8,
        draws_per_iteration: 8,
        burn_in_draws: 24,
        sample_draws: 120,
        backend: Backend::Serial,
        // Pinned: the committed bytes contain sampled likelihoods, and
        // Kernel::Auto resolves per host (AVX2+FMA contraction shifts the
        // low bits). Scalar makes the goldens host- and feature-independent.
        kernel: Kernel::Scalar,
        ..MpcgsConfig::default()
    }
}

/// The deterministic recipe behind each fixture: dataset seed, session
/// builder, runner seed, and the number of increments to take before
/// checkpointing.
struct FixtureRecipe {
    path: &'static str,
    v1_path: &'static str,
    dataset_seed: u32,
    ensemble: Option<EnsembleSpec>,
    runner_seed: u32,
    increments: usize,
}

fn recipes() -> Vec<FixtureRecipe> {
    vec![
        FixtureRecipe {
            path: "tests/fixtures/checkpoint_gmh_v2.json",
            v1_path: "tests/fixtures/checkpoint_gmh_v1.json",
            dataset_seed: 601,
            ensemble: None,
            runner_seed: 19,
            increments: 5,
        },
        FixtureRecipe {
            path: "tests/fixtures/checkpoint_ladder_v2.json",
            v1_path: "tests/fixtures/checkpoint_ladder_v1.json",
            dataset_seed: 603,
            ensemble: Some(EnsembleSpec {
                n_chains: 3,
                exchange: ExchangePolicy::geometric_ladder(3, 4.0, 3).unwrap(),
                ensemble_seed: 99,
                chain_dispatch: None,
            }),
            runner_seed: 23,
            increments: 4,
        },
    ]
}

fn build_session(recipe: &FixtureRecipe) -> Session {
    let dataset = simulated_dataset(recipe.dataset_seed, 5, 50);
    let mut builder = Session::builder()
        .dataset(dataset)
        .strategy(SamplerStrategy::MultiProposal)
        .config(small_config());
    if let Some(spec) = &recipe.ensemble {
        builder = builder.ensemble(spec.clone());
    }
    builder.build().unwrap()
}

/// Produce the checkpoint document the fixture pins: run `increments` runner
/// steps, then serialize.
fn generate_document(recipe: &FixtureRecipe) -> String {
    let mut runner = build_session(recipe).into_runner(recipe.runner_seed).unwrap();
    for _ in 0..recipe.increments {
        assert!(!runner.step().unwrap(), "fixture kill point must sit mid-run");
    }
    runner.checkpoint().unwrap().to_pretty()
}

#[test]
fn golden_fixtures_reencode_byte_exact_and_resume() {
    if std::env::var_os("MPCGS_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        for recipe in recipes() {
            std::fs::write(recipe.path, generate_document(&recipe)).unwrap();
        }
    }
    for recipe in recipes() {
        let committed = std::fs::read_to_string(recipe.path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", recipe.path));

        // 1. The document parses and declares the pinned format.
        let checkpoint = SessionCheckpoint::parse(&committed)
            .unwrap_or_else(|e| panic!("fixture {} no longer parses: {e}", recipe.path));

        // 2. Byte-exact re-encode: any codec drift fails here.
        assert_eq!(
            checkpoint.to_pretty(),
            committed,
            "fixture {} re-encodes differently — the checkpoint codec drifted",
            recipe.path
        );

        // 3. The current code still produces these exact bytes…
        assert_eq!(
            generate_document(&recipe),
            committed,
            "fixture {} is no longer what a fresh run checkpoints — \
             sampler or codec behaviour drifted",
            recipe.path
        );

        // 4. …and resuming from the committed document is bit-identical to
        // the uninterrupted run.
        let baseline = build_session(&recipe)
            .into_runner(recipe.runner_seed)
            .unwrap()
            .run_to_completion()
            .unwrap();
        let resumed =
            build_session(&recipe).resume(&checkpoint).unwrap().run_to_completion().unwrap();
        assert_eq!(baseline, resumed, "fixture {} resume diverged", recipe.path);
    }
}

#[test]
fn v1_fixtures_decode_to_their_v2_twins() {
    for recipe in recipes() {
        let v1 = std::fs::read_to_string(recipe.v1_path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e})", recipe.v1_path));
        let v2 = std::fs::read_to_string(recipe.path)
            .unwrap_or_else(|e| panic!("missing fixture {} ({e})", recipe.path));
        assert!(v1.contains("\"mpcgs-checkpoint/v1\""), "{} is not a v1 document", recipe.v1_path);

        // The v1 interval lists reduce to exactly the summaries v2 stores, so
        // a v1 resume is the v2 resume checked bit-identical above.
        let from_v1 = SessionCheckpoint::parse(&v1)
            .unwrap_or_else(|e| panic!("fixture {} no longer parses: {e}", recipe.v1_path));
        assert_eq!(from_v1, SessionCheckpoint::parse(&v2).unwrap(), "{}", recipe.v1_path);
        // v1 is read-only: re-encoding writes the v2 bytes.
        assert_eq!(from_v1.to_pretty(), v2, "{} re-encodes differently", recipe.v1_path);
    }
}

const SAMPLE_COLUMNS: [&str; 5] =
    ["n_coalescences", "waiting_statistic", "depth", "total_branch_length", "log_data_likelihood"];

/// Every chain's v2 `samples` object in a document, in document order.
fn sample_objects(json: &mut Json) -> Vec<&mut Vec<(String, Json)>> {
    let mut found = Vec::new();
    match json {
        Json::Object(members) => {
            for (key, value) in members.iter_mut() {
                if key != "samples" {
                    found.extend(sample_objects(value));
                } else if let Json::Object(columns) = value {
                    found.push(columns);
                }
            }
        }
        Json::Array(items) => {
            for item in items.iter_mut() {
                found.extend(sample_objects(item));
            }
        }
        _ => {}
    }
    found
}

fn column_mut<'a>(columns: &'a mut [(String, Json)], key: &str) -> &'a mut Vec<Json> {
    match columns.iter_mut().find(|(name, _)| name == key) {
        Some((_, Json::Array(values))) => values,
        _ => panic!("golden has no {key:?} column"),
    }
}

/// Apply mutation `kind` (parameters `a`, `b`) to a v2 document; returns the
/// mutated text and the substrings its decode error must contain.
fn mutate(text: &str, kind: usize, a: usize, b: usize) -> (String, Vec<String>) {
    if kind == 0 {
        // Truncated text: cut before the closing brace, on a char boundary.
        let mut cut = a % (text.len() - 2);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return (text[..cut].to_string(), vec!["not valid JSON".to_string()]);
    }
    let mut doc = Json::parse(text).unwrap();
    let mut chains = sample_objects(&mut doc);
    let n_chains = chains.len();
    let columns = &mut chains[b % n_chains];
    let key = SAMPLE_COLUMNS[a % SAMPLE_COLUMNS.len()];
    let draws = column_mut(columns, "n_coalescences").len();
    assert!(draws > 0, "golden chain without retained draws");
    let entry = b % draws;
    let expect = match kind {
        1 => {
            columns.retain(|(name, _)| name != key);
            vec![key.to_string()]
        }
        2 => {
            let values = column_mut(columns, key);
            values.truncate(values.len() - 1 - b % values.len());
            vec![key.to_string()]
        }
        3 => {
            let values = column_mut(columns, key);
            values.push(values[0].clone());
            vec![key.to_string()]
        }
        4 => {
            column_mut(columns, "n_coalescences")[entry] = Json::Number(-1.0 - (a % 3) as f64);
            vec!["n_coalescences".to_string(), format!("entry {entry}")]
        }
        5 => {
            column_mut(columns, "n_coalescences")[entry] = Json::Number(2.5 + a as f64);
            vec!["n_coalescences".to_string(), format!("entry {entry}")]
        }
        _ => {
            let key = SAMPLE_COLUMNS[1 + a % 4];
            column_mut(columns, key)[entry] = Json::Bool(true);
            vec![key.to_string(), format!("entry {entry}")]
        }
    };
    (doc.to_pretty(), expect)
}

#[test]
fn mutated_v2_documents_fail_with_pointed_errors() {
    let goldens: Vec<String> =
        recipes().iter().map(|recipe| std::fs::read_to_string(recipe.path).unwrap()).collect();
    harness::CaseDriver::new("checkpoint-v2-mutations", 2020).cases(96).run(
        |rng| {
            let r = |rng: &mut Mt19937| rng.next_u32() as usize;
            (r(rng) % goldens.len(), r(rng) % 7, r(rng), r(rng))
        },
        |&(golden, kind, a, b)| {
            let (text, expect) = mutate(&goldens[golden], kind, a, b);
            let decoded = std::panic::catch_unwind(|| SessionCheckpoint::parse(&text))
                .map_err(|_| "decoder panicked".to_string())?;
            let message = match decoded {
                Ok(_) => return Err("mutated document decoded".to_string()),
                Err(e) => e.to_string(),
            };
            match expect.iter().find(|needle| !message.contains(needle.as_str())) {
                Some(missing) => Err(format!("error {message:?} does not name {missing:?}")),
                None => Ok(()),
            }
        },
    );
}
