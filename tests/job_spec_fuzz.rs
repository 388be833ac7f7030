//! Seeded fuzz sweep of the `mpcgs serve` job-spec parser over mutated
//! documents.
//!
//! Job specs arrive from whoever submits work to `mpcgs serve`, so
//! [`parse_job_file`] must treat every field as untrusted. Each case starts
//! from a valid spec and applies a few random edits: a top-level or per-job
//! field set to a value of the wrong type, a negative, fractional, huge or
//! non-finite number, an unknown strategy, exchange or backend name, an
//! empty or missing `phylip` list, a path to a missing file, or deeply
//! nested arrays; a field removed; or the document truncated. The contract
//! is `Ok` or a pointed `Err` — one that names the job spec or the job, and
//! the field or the JSON position at fault — and never a panic. Cases are
//! only parsed, never drained: a mutated `workers` or `samples` must not
//! start threads or long runs. A failing case shrinks to the fewest edits
//! that still fail.

#[path = "harness/mod.rs"]
mod harness;

use harness::{CaseDriver, Shrinkable};
use mcmc::rng::Mt19937;
use mpcgs::cli::{parse_job_file, ServeArgs};
use rand::RngCore;

/// A committed four-sequence alignment.
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny.phy");
/// A path that does not exist.
const MISSING: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/missing.phy");

/// Top-level fields an edit can set or remove.
const TOP_FIELDS: [&str; 4] = ["workers", "backend", "quantum", "jobs"];

/// Per-job fields an edit can set or remove.
const JOB_FIELDS: [&str; 14] = [
    "name",
    "phylip",
    "theta",
    "samples",
    "burn_in",
    "em",
    "seed",
    "proposals",
    "strategy",
    "backend",
    "chains",
    "exchange",
    "hottest",
    "swap_interval",
];

/// Number of values [`value`] can produce.
const N_VALUES: usize = 34;

/// The JSON text an edit writes into a field.
fn value(index: usize) -> String {
    let text = match index {
        0 => "\"x\"",
        1 => "true",
        2 => "null",
        3 => "[]",
        4 => "{}",
        5 => "[1]",
        6 => "-3",
        7 => "2.5",
        8 => "0",
        9 => "1",
        10 => "4",
        11 => "-0.0",
        12 => "1e300",
        13 => "1e999",
        14 => "-1e999",
        15 => "18446744073709551616",
        16 => "4294967296",
        17 => "5e-324",
        18 => "NaN",
        19 => "\"gmh\"",
        20 => "\"baseline\"",
        21 => "\"ladder\"",
        22 => "\"independent\"",
        23 => "\"rayon\"",
        24 => "\"device:tpu\"",
        25 => "\"warp\"",
        26 => "\"\"",
        27 => return format!("[\"{FIXTURE}\"]"),
        28 => return format!("[\"{MISSING}\"]"),
        29 => return format!("[\"{FIXTURE}\", \"{FIXTURE}\"]"),
        30 => return format!("\"{FIXTURE}\""),
        31 => return format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000)),
        32 => return format!("{}{{}}{}", "[".repeat(127), "]".repeat(127)),
        _ => "256",
    };
    text.to_string()
}

/// A job spec as editable `(field, JSON text)` pairs.
#[derive(Debug, Clone)]
struct Spec {
    top: Vec<(String, String)>,
    jobs: Vec<Vec<(String, String)>>,
}

fn fields(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
}

/// The valid documents the edits start from.
fn base(document: usize) -> Spec {
    let phylip = format!("[\"{FIXTURE}\"]");
    let gmh = fields(&[
        ("name", "\"plain\""),
        ("phylip", &phylip),
        ("theta", "0.5"),
        ("samples", "64"),
        ("burn_in", "16"),
        ("em", "1"),
        ("seed", "9"),
    ]);
    let ladder = fields(&[
        ("name", "\"hot\""),
        ("phylip", &phylip),
        ("theta", "1.0"),
        ("strategy", "\"baseline\""),
        ("chains", "3"),
        ("exchange", "\"ladder\""),
        ("hottest", "2.0"),
        ("swap_interval", "5"),
    ]);
    let independent = fields(&[
        ("phylip", &phylip),
        ("theta", "2"),
        ("chains", "2"),
        ("proposals", "8"),
        ("backend", "\"serial\""),
    ]);
    match document {
        0 => Spec { top: Vec::new(), jobs: vec![gmh] },
        1 => Spec {
            top: fields(&[("workers", "2"), ("backend", "\"rayon\""), ("quantum", "8")]),
            jobs: vec![gmh, ladder],
        },
        _ => Spec { top: fields(&[("workers", "1")]), jobs: vec![independent, ladder] },
    }
}

fn set(fields: &mut Vec<(String, String)>, key: &str, text: String) {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(field) => field.1 = text,
        None => fields.push((key.to_string(), text)),
    }
}

fn render(spec: &Spec) -> String {
    let object = |fields: &[(String, String)]| {
        let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", members.join(", "))
    };
    let mut top = spec.top.clone();
    if !top.iter().any(|(k, _)| k == "jobs") {
        let jobs: Vec<String> = spec.jobs.iter().map(|job| object(job)).collect();
        top.push(("jobs".to_string(), format!("[{}]", jobs.join(", "))));
    }
    object(&top)
}

#[derive(Debug, Clone, Copy)]
enum Edit {
    SetTop { field: usize, value: usize },
    RemoveTop { field: usize },
    SetJob { job: usize, field: usize, value: usize },
    RemoveJob { job: usize, field: usize },
    Truncate { at: usize },
}

#[derive(Debug, Clone)]
struct Case {
    document: usize,
    edits: Vec<Edit>,
}

impl Shrinkable for Case {
    /// Drop one edit at a time.
    fn shrink_candidates(&self) -> Vec<Self> {
        (0..self.edits.len())
            .map(|skip| {
                let mut edits = self.edits.clone();
                edits.remove(skip);
                Case { document: self.document, edits }
            })
            .collect()
    }
}

fn generate(rng: &mut Mt19937) -> Case {
    let mut draw = |n: usize| rng.next_u32() as usize % n;
    let document = draw(3);
    let n_edits = 1 + draw(4);
    let edits = (0..n_edits)
        .map(|_| {
            let (job, at) = (draw(2), draw(1 << 16));
            match draw(10) {
                0 => Edit::SetTop { field: draw(TOP_FIELDS.len()), value: draw(N_VALUES) },
                1 => Edit::RemoveTop { field: draw(TOP_FIELDS.len()) },
                2 | 3 => Edit::RemoveJob { job, field: draw(JOB_FIELDS.len()) },
                4 => Edit::Truncate { at },
                _ => Edit::SetJob { job, field: draw(JOB_FIELDS.len()), value: draw(N_VALUES) },
            }
        })
        .collect();
    Case { document, edits }
}

/// Apply the field edits, render, then apply the truncations (each keeps a
/// prefix of whatever text is left, measured in characters).
fn mutate(case: &Case) -> String {
    let mut spec = base(case.document);
    for edit in &case.edits {
        match *edit {
            Edit::SetTop { field, value: v } => set(&mut spec.top, TOP_FIELDS[field], value(v)),
            Edit::RemoveTop { field } => spec.top.retain(|(k, _)| k != TOP_FIELDS[field]),
            Edit::SetJob { job, field, value: v } => {
                let n_jobs = spec.jobs.len();
                set(&mut spec.jobs[job % n_jobs], JOB_FIELDS[field], value(v));
            }
            Edit::RemoveJob { job, field } => {
                let n_jobs = spec.jobs.len();
                spec.jobs[job % n_jobs].retain(|(k, _)| k != JOB_FIELDS[field]);
            }
            Edit::Truncate { .. } => {}
        }
    }
    let mut text = render(&spec);
    for edit in &case.edits {
        if let Edit::Truncate { at } = *edit {
            let keep = at % (text.chars().count() + 1);
            text = text.chars().take(keep).collect();
        }
    }
    text
}

/// `mpcgs serve -` with no command-line overrides.
fn no_overrides() -> ServeArgs {
    ServeArgs { job_path: "-".to_string(), workers: None, backend: None, quantum: None }
}

/// Whether `error` points at its cause: a JSON syntax error names the
/// byte position; anything else names the job spec or the job, and a field
/// of it.
fn is_pointed(error: &str) -> bool {
    if error.starts_with("job spec file is not valid JSON: json parse error at byte ") {
        return true;
    }
    let names_owner = error.starts_with("job spec") || error.starts_with("job \"");
    let names_field = TOP_FIELDS.iter().chain(&JOB_FIELDS).any(|field| error.contains(field));
    names_owner && names_field
}

/// Parse the mutated document: `Ok(true)` when it is accepted, `Ok(false)`
/// when it is rejected with a pointed error, `Err` when the contract
/// breaks.
fn outcome(case: &Case) -> Result<bool, String> {
    let text = mutate(case);
    let overrides = no_overrides();
    let parsed = std::panic::catch_unwind(|| parse_job_file(&text, &overrides))
        .map_err(|_| format!("parser panicked on {}", abbreviate(&text)))?;
    match parsed {
        Ok((config, jobs)) => {
            if config.workers == 0 || config.quantum == 0 {
                return Err(format!("accepted a zero pool size in {}", abbreviate(&text)));
            }
            for job in &jobs {
                let theta = job.config.initial_theta;
                if !(theta.is_finite() && theta > 0.0) {
                    return Err(format!("accepted theta {theta} in {}", abbreviate(&text)));
                }
            }
            Ok(true)
        }
        Err(error) if is_pointed(&error) => Ok(false),
        Err(error) => Err(format!("unpointed error {error:?} for {}", abbreviate(&text))),
    }
}

/// The document for a failure message, cut to its first 300 characters
/// when it is long (the deeply nested values run to 200 kB).
fn abbreviate(text: &str) -> String {
    if text.len() <= 2_000 {
        return format!("{text:?}");
    }
    let cut = text.char_indices().nth(300).map_or(text.len(), |(i, _)| i);
    format!("{:?} … ({} bytes)", &text[..cut], text.len())
}

#[test]
fn mutated_job_specs_parse_or_fail_with_pointed_errors() {
    // The unmutated documents are valid.
    for document in 0..3 {
        assert_eq!(outcome(&Case { document, edits: Vec::new() }), Ok(true));
    }
    // Both outcomes occur: the edits neither always break the document nor
    // always leave it valid.
    let (accepted, rejected) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    CaseDriver::new("job-spec-mutations", 2017).cases(2_000).run(generate, |case| {
        let counter = if outcome(case)? { &accepted } else { &rejected };
        counter.set(counter.get() + 1);
        Ok(())
    });
    assert!(accepted.get() >= 100 && rejected.get() >= 100, "{accepted:?} {rejected:?}");
}

#[test]
fn the_sweep_reaches_the_cases_that_used_to_fail() {
    let overrides = no_overrides();
    let parse = |case: &Case| parse_job_file(&mutate(case), &overrides);
    // Deep nesting overflowed the recursive JSON parser's stack.
    let nested = Case { document: 0, edits: vec![Edit::SetJob { job: 0, field: 2, value: 31 }] };
    let error = parse(&nested).unwrap_err();
    assert!(error.contains("nesting deeper than"), "{error}");
    // A huge ladder sized its temperature vector from the untrusted count.
    let huge_ladder =
        Case { document: 1, edits: vec![Edit::SetJob { job: 1, field: 10, value: 12 }] };
    let error = parse(&huge_ladder).unwrap_err();
    assert!(error.contains("\"hot\"") && error.contains("chains"), "{error}");
    // Wrong-typed strategy, exchange, hottest and name fell back to
    // defaults instead of failing.
    for (job, field) in [(0, 8), (1, 11), (1, 12), (0, 0)] {
        let case = Case { document: 1, edits: vec![Edit::SetJob { job, field, value: 1 }] };
        let error = parse(&case).unwrap_err();
        assert!(error.contains(JOB_FIELDS[field]), "{error}");
    }
    // A missing file and an empty list name the `phylip` field.
    for value in [3, 28] {
        let case = Case { document: 0, edits: vec![Edit::SetJob { job: 0, field: 1, value }] };
        let error = parse(&case).unwrap_err();
        assert!(error.starts_with("job \"plain\": \"phylip\""), "{error}");
    }
    // The largest accepted ladder still parses.
    let widest = Case { document: 1, edits: vec![Edit::SetJob { job: 1, field: 10, value: 33 }] };
    let (_, jobs) = parse(&widest).unwrap();
    assert_eq!(jobs[1].ensemble.as_ref().unwrap().n_chains, 256);
}
