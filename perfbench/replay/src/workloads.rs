//! The three workloads' inputs, generated from a seed: PHYLIP files, the
//! program's command line, and the true genealogies they were simulated on.
//!
//! Everything `run.py` and the replay need is written to
//! `inputs.json` in the output directory, so the sizes below are the single
//! source of truth for both.

use std::path::Path;

use codec::Json;

use crate::rng::{derive_seed, Rng};
use crate::sim::{coalescent, evolve, phylip, Genealogy, SimModel};

/// Stationary frequencies used by every simulated locus (A, C, G, T).
const FREQS: [f64; 4] = [0.3, 0.2, 0.2, 0.3];
/// θ every locus is simulated with.
const TRUE_THETA: f64 = 1.0;

/// `reference`: the paper's reference row (Tables 2–4).
pub const REFERENCE_TIPS: usize = 12;
/// Sites of the reference locus.
pub const REFERENCE_SITES: usize = 200;

/// `long_loci`: loci sharing one genealogy.
pub const LONG_LOCI: usize = 3;
/// Tips of the long loci.
pub const LONG_TIPS: usize = 16;
/// Sites per long locus.
pub const LONG_SITES: usize = 1500;
/// Retained samples per EM round of the long-loci run.
pub const LONG_SAMPLES: usize = 6000;
/// Burn-in draws per EM round of the long-loci run.
pub const LONG_BURN_IN: usize = 600;
/// EM rounds of the long-loci run.
pub const LONG_EM: usize = 2;
/// Runner increments between checkpoints of the long-loci run.
pub const LONG_CHECKPOINT_EVERY: usize = 100;

/// `serve_mix`: dataset sizes (tips, sites) the jobs cycle over; every job
/// gets a dataset of its own.
pub const SERVE_DATASETS: [(usize, usize); 4] = [(8, 120), (10, 150), (12, 100), (6, 200)];
/// Job kinds, submitted round-robin.
pub const SERVE_KINDS: [&str; 4] = ["gmh", "baseline", "independent2", "ladder4"];
/// Jobs in one drain.
pub const SERVE_JOBS: usize = 120;

fn simulate_locus(rng: &mut Rng, genealogy: &Genealogy, model: &SimModel, sites: usize) -> String {
    phylip(&evolve(rng, &genealogy.tree, model, sites))
}

fn truth(genealogy: &Genealogy) -> Json {
    Json::Object(vec![
        ("theta".into(), Json::Number(TRUE_THETA)),
        ("tips".into(), Json::Number(genealogy.tree.n_tips as f64)),
        ("waiting".into(), Json::Number(genealogy.waiting)),
        ("mle".into(), Json::Number(genealogy.mle())),
    ])
}

fn strings(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::string(s.as_str())).collect())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generate one operation's inputs for `workload` into `out`.
pub fn generate(workload: &str, seed: u64, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut rng = Rng::new(derive_seed(seed, workload, 0));
    let dir = out.to_string_lossy().to_string();
    let doc = match workload {
        "reference" => {
            let genealogy = coalescent(&mut rng, REFERENCE_TIPS, TRUE_THETA);
            let model = SimModel::F84 { freqs: FREQS, kappa: 2.0 };
            let file = format!("{dir}/data.phy");
            write(
                Path::new(&file),
                &simulate_locus(&mut rng, &genealogy, &model, REFERENCE_SITES),
            )?;
            let args: Vec<String> =
                [file.as_str(), "1.0", "--samples", "20000", "--burn-in", "2000"]
                    .iter()
                    .chain(&["--proposals", "32", "--em", "3"])
                    .map(|s| s.to_string())
                    .collect();
            Json::Object(vec![
                ("workload".into(), Json::string(workload)),
                ("files".into(), strings(&[file])),
                ("args".into(), strings(&args)),
                ("truth".into(), truth(&genealogy)),
            ])
        }
        "long_loci" => {
            let genealogy = coalescent(&mut rng, LONG_TIPS, TRUE_THETA);
            let model = SimModel::F81 { freqs: FREQS };
            let mut files = Vec::new();
            for locus in 0..LONG_LOCI {
                let file = format!("{dir}/locus{}.phy", locus + 1);
                write(Path::new(&file), &simulate_locus(&mut rng, &genealogy, &model, LONG_SITES))?;
                files.push(file);
            }
            let checkpoint = format!("{dir}/run.ckpt");
            let mut args = files.clone();
            args.extend([
                "1.0".to_string(),
                "--samples".into(),
                LONG_SAMPLES.to_string(),
                "--burn-in".into(),
                LONG_BURN_IN.to_string(),
                "--proposals".into(),
                "32".into(),
                "--em".into(),
                LONG_EM.to_string(),
                "--checkpoint-every".into(),
                LONG_CHECKPOINT_EVERY.to_string(),
                "--checkpoint-path".into(),
                checkpoint.clone(),
            ]);
            Json::Object(vec![
                ("workload".into(), Json::string(workload)),
                ("files".into(), strings(&files)),
                ("args".into(), strings(&args)),
                ("checkpoint".into(), Json::string(checkpoint)),
                ("truth".into(), truth(&genealogy)),
            ])
        }
        "serve_mix" => {
            let model = SimModel::F84 { freqs: FREQS, kappa: 2.0 };
            let mut files = Vec::new();
            let mut jobs = Vec::new();
            for j in 0..SERVE_JOBS {
                let kind = SERVE_KINDS[j % SERVE_KINDS.len()];
                let (tips, sites) = SERVE_DATASETS[(j / SERVE_KINDS.len()) % SERVE_DATASETS.len()];
                let genealogy = coalescent(&mut rng, tips, TRUE_THETA);
                let data = format!("{dir}/d{j:03}.phy");
                write(Path::new(&data), &simulate_locus(&mut rng, &genealogy, &model, sites))?;
                files.push(data.clone());
                let mut fields = vec![
                    ("name".to_string(), Json::string(format!("j{j:03}-{kind}"))),
                    ("phylip".to_string(), strings(&[data])),
                    ("theta".to_string(), Json::Number(1.0)),
                    ("seed".to_string(), Json::Number((1000 + rng.below(1_000_000)) as f64)),
                    ("em".to_string(), Json::Number(2.0)),
                ];
                let (samples, burn_in) = match kind {
                    "baseline" => (2000.0, 200.0),
                    "ladder4" => (320.0, 64.0),
                    _ => (640.0, 64.0),
                };
                fields.push(("samples".into(), Json::Number(samples)));
                fields.push(("burn_in".into(), Json::Number(burn_in)));
                match kind {
                    "baseline" => fields.push(("strategy".into(), Json::string("baseline"))),
                    "independent2" => {
                        fields.push(("chains".into(), Json::Number(2.0)));
                        fields.push(("exchange".into(), Json::string("independent")));
                    }
                    "ladder4" => {
                        fields.push(("chains".into(), Json::Number(4.0)));
                        fields.push(("exchange".into(), Json::string("ladder")));
                    }
                    _ => {}
                }
                jobs.push(Json::Object(fields));
            }
            let spec = Json::Object(vec![
                ("workers".into(), Json::Number(2.0)),
                ("backend".into(), Json::string("rayon")),
                ("jobs".into(), Json::Array(jobs)),
            ]);
            let spec_path = format!("{dir}/jobs.json");
            write(Path::new(&spec_path), &spec.to_pretty())?;
            Json::Object(vec![
                ("workload".into(), Json::string(workload)),
                ("files".into(), strings(&files)),
                ("spec".into(), Json::string(spec_path.as_str())),
                ("args".into(), strings(&["serve".to_string(), spec_path])),
                ("jobs".into(), Json::Number(SERVE_JOBS as f64)),
            ])
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    write(&out.join("inputs.json"), &doc.to_pretty())
}
