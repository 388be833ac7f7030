//! The versioned checkpoint codec: freeze an in-flight θ-estimation run to
//! JSON and thaw it bit-identically.
//!
//! A [`SessionCheckpoint`] captures everything a
//! [`SessionRunner`](crate::session::SessionRunner) needs to continue a run
//! exactly where it stopped: the EM loop position (round, driving θ, the
//! per-round records accumulated so far), the host RNG position, and the
//! full chain state — one [`ChainSnapshot`] for a single-chain session, an
//! [`EnsembleSnapshot`] (plus the [`EnsembleSpec`] it was taken under) for a
//! sharded one. The format is a hand-rolled JSON document built on the
//! workspace [`codec`] crate — no serde, no external dependencies — with two
//! encoding rules that make resume *bit*-identical rather than merely
//! approximate:
//!
//! * every `f64` goes through [`Json::exact_f64`]: finite values use the
//!   shortest decimal that round-trips to the same bits, non-finite values
//!   are spelled as `"f64:0x…"` bit patterns;
//! * every `u64` (RNG positions, stream epochs, seeds) is a decimal string
//!   via [`Json::u64_text`], because a JSON number is an `f64` and cannot
//!   hold the full 64-bit range.
//!
//! Retained draws are fixed-size summaries (see
//! [`CoalescentIntervals`]), so each chain writes them as five columnar
//! arrays under `samples` — `n_coalescences`, `waiting_statistic`, `depth`,
//! `total_branch_length` and `log_data_likelihood`, one entry per draw —
//! rather than one object per draw.
//!
//! # Versioning rules
//!
//! The document carries `"format": "mpcgs-checkpoint/v2"`. A reader rejects
//! any format string it does not know with a pointed error (no silent
//! best-effort parsing). Compatible extensions — new optional fields — keep
//! the version; any change that alters the meaning of an existing field
//! bumps it, and a bumped version is a new format: old readers refuse it,
//! new readers may choose to translate old documents explicitly.
//!
//! `mpcgs-checkpoint/v1` documents are translated this way, read-only. v1
//! stored every draw as its full interval list; the decoder reduces each
//! list to the same summary, summing in stored order — the order
//! [`CoalescentIntervals::from_tree`] sums in — so a v1 document resumes bit
//! for bit. Nothing writes v1 any more: re-encoding a decoded v1 document
//! produces v2.
//!
//! Every decode error names the field it failed on, so a truncated or
//! hand-edited checkpoint fails loudly at load time instead of corrupting a
//! resumed run.

use codec::Json;
use exec::Backend;
use lamarc::run::{ChainSnapshot, RunCounters};
use lamarc::sampler::GenealogySample;
use phylo::tree::CoalescentIntervals;
use phylo::{GeneTree, NodeRecord, PhyloError};

use crate::ensemble::{EnsembleSnapshot, EnsembleSpec, ExchangePolicy};
use crate::session::EmIterationReport;

/// The format tag of the documents this build writes.
pub const CHECKPOINT_FORMAT: &str = "mpcgs-checkpoint/v2";

/// The previous format tag: still decoded, never written.
const CHECKPOINT_FORMAT_V1: &str = "mpcgs-checkpoint/v1";

/// The document versions the decoder understands.
#[derive(Clone, Copy)]
enum Format {
    /// Per-draw interval lists (read-only).
    V1,
    /// Columnar per-draw summaries.
    V2,
}

/// A frozen θ-estimation run: the EM loop position plus the full chain (or
/// ensemble) state, ready to be written to disk and resumed bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The sampler strategy the run was using (`"baseline"` / `"gmh"`) —
    /// checked on resume so a checkpoint cannot silently continue under a
    /// different kernel.
    pub strategy: String,
    /// The host RNG seed the run was started with.
    pub seed: u32,
    /// Outputs the host RNG has emitted so far (its absolute position).
    pub host_rng_position: u64,
    /// The driving θ of the EM round in flight.
    pub theta: f64,
    /// The EM round in flight (0-based).
    pub em_round: usize,
    /// Completed EM rounds' records.
    pub iterations: Vec<EmIterationReport>,
    /// The chain state: single chain or whole ensemble.
    pub state: CheckpointState,
}

/// The chain half of a [`SessionCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointState {
    /// A plain single-chain session. Boxed: a full chain snapshot dwarfs the
    /// ensemble variant (which holds per-rung snapshots behind a `Vec`).
    SingleChain(Box<ChainSnapshot>),
    /// A sharded session: the spec the ensemble ran under (shape-checked on
    /// resume) plus the per-rung snapshot.
    Ensemble {
        /// The ensemble specification at checkpoint time.
        spec: EnsembleSpec,
        /// The frozen ensemble.
        snapshot: EnsembleSnapshot,
    },
}

fn decode_err(message: impl Into<String>) -> PhyloError {
    PhyloError::InvalidState { message: message.into() }
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn field<'a>(json: &'a Json, key: &str, context: &str) -> Result<&'a Json, PhyloError> {
    json.get(key).ok_or_else(|| decode_err(format!("checkpoint {context}: missing field {key:?}")))
}

fn decode_f64(json: &Json, key: &str, context: &str) -> Result<f64, PhyloError> {
    field(json, key, context)?
        .as_exact_f64()
        .ok_or_else(|| decode_err(format!("checkpoint {context}: field {key:?} is not an f64")))
}

fn decode_u64(json: &Json, key: &str, context: &str) -> Result<u64, PhyloError> {
    field(json, key, context)?.as_u64_text().ok_or_else(|| {
        decode_err(format!("checkpoint {context}: field {key:?} is not a u64 decimal string"))
    })
}

fn decode_usize(json: &Json, key: &str, context: &str) -> Result<usize, PhyloError> {
    decode_count(field(json, key, context)?, || format!("checkpoint {context}: field {key:?}"))
}

/// A JSON number holding a non-negative integer; errors start with `what()`.
fn decode_count(value: &Json, what: impl Fn() -> String) -> Result<usize, PhyloError> {
    let x = value.as_f64().ok_or_else(|| decode_err(format!("{} is not a count", what())))?;
    // mpcgs-analyze: allow(d5, reason = "integrality validation: fract() of a JSON-decoded count is exactly 0.0 iff the value is an integer")
    if x < 0.0 || x.fract() != 0.0 {
        return Err(decode_err(format!("{} is not a non-negative integer (got {x})", what())));
    }
    Ok(x as usize)
}

fn decode_bool(json: &Json, key: &str, context: &str) -> Result<bool, PhyloError> {
    field(json, key, context)?
        .as_bool()
        .ok_or_else(|| decode_err(format!("checkpoint {context}: field {key:?} is not a bool")))
}

fn decode_array<'a>(json: &'a Json, key: &str, context: &str) -> Result<&'a [Json], PhyloError> {
    field(json, key, context)?
        .as_array()
        .ok_or_else(|| decode_err(format!("checkpoint {context}: field {key:?} is not an array")))
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

/// Encode a genealogy as its exact arena layout: one record per node slot
/// (parent / children / time / label) plus the root id, so decoding restores
/// node ids — and therefore every id-sensitive downstream draw — unchanged.
pub fn tree_to_json(tree: &GeneTree) -> Json {
    let nodes: Vec<Json> = tree
        .node_records()
        .into_iter()
        .map(|record| {
            object(vec![
                ("parent", record.parent.map_or(Json::Null, |p| Json::Number(p as f64))),
                (
                    "children",
                    record.children.map_or(Json::Null, |(a, b)| {
                        Json::Array(vec![Json::Number(a as f64), Json::Number(b as f64)])
                    }),
                ),
                ("time", Json::exact_f64(record.time)),
                ("label", record.label.map_or(Json::Null, Json::String)),
            ])
        })
        .collect();
    object(vec![("root", Json::Number(tree.root() as f64)), ("nodes", Json::Array(nodes))])
}

/// Decode a genealogy previously encoded by [`tree_to_json`], re-validating
/// the arena invariants.
pub fn tree_from_json(json: &Json) -> Result<GeneTree, PhyloError> {
    let context = "tree";
    let root = decode_usize(json, "root", context)?;
    let mut records = Vec::new();
    for node in decode_array(json, "nodes", context)? {
        let parent = match field(node, "parent", context)? {
            Json::Null => None,
            other => Some(other.as_f64().ok_or_else(|| {
                decode_err("checkpoint tree: node parent is neither null nor an id")
            })? as usize),
        };
        let children = match field(node, "children", context)? {
            Json::Null => None,
            Json::Array(pair) if pair.len() == 2 => {
                let mut ids = pair.iter().map(|x| x.as_f64().map(|v| v as usize));
                match (ids.next().flatten(), ids.next().flatten()) {
                    (Some(a), Some(b)) => Some((a, b)),
                    _ => {
                        return Err(decode_err(
                            "checkpoint tree: node children must be a pair of ids",
                        ))
                    }
                }
            }
            _ => {
                return Err(decode_err(
                    "checkpoint tree: node children is neither null nor a pair of ids",
                ))
            }
        };
        let time = decode_f64(node, "time", context)?;
        let label = match field(node, "label", context)? {
            Json::Null => None,
            other => Some(
                other
                    .as_str()
                    .ok_or_else(|| {
                        decode_err("checkpoint tree: node label is neither null nor a string")
                    })?
                    .to_string(),
            ),
        };
        records.push(NodeRecord { parent, children, time, label });
    }
    GeneTree::from_node_records(records, root)
}

fn optional_tree_to_json(tree: &Option<GeneTree>) -> Json {
    tree.as_ref().map_or(Json::Null, tree_to_json)
}

fn optional_tree_from_json(json: &Json) -> Result<Option<GeneTree>, PhyloError> {
    match json {
        Json::Null => Ok(None),
        other => Ok(Some(tree_from_json(other)?)),
    }
}

// ---------------------------------------------------------------------------
// Samples and counters
// ---------------------------------------------------------------------------

/// Encode retained draws as five columns of exact values, one entry per draw.
fn samples_to_json(samples: &[GenealogySample]) -> Json {
    let column =
        |value: fn(&GenealogySample) -> Json| Json::Array(samples.iter().map(value).collect());
    object(vec![
        ("n_coalescences", column(|s| Json::Number(s.intervals.n_coalescences as f64))),
        ("waiting_statistic", column(|s| Json::exact_f64(s.intervals.waiting_statistic))),
        ("depth", column(|s| Json::exact_f64(s.intervals.depth))),
        ("total_branch_length", column(|s| Json::exact_f64(s.intervals.total_branch_length))),
        ("log_data_likelihood", column(|s| Json::exact_f64(s.log_data_likelihood))),
    ])
}

/// Decode the v2 columnar `samples` object: five arrays of equal length.
fn samples_from_json(json: &Json) -> Result<Vec<GenealogySample>, PhyloError> {
    let counts = decode_array(json, "n_coalescences", "samples")?;
    let column = |key: &str| {
        let values = decode_array(json, key, "samples")?;
        if values.len() != counts.len() {
            return Err(decode_err(format!(
                "checkpoint samples: column {key:?} has {} entries but \"n_coalescences\" has {}",
                values.len(),
                counts.len()
            )));
        }
        Ok(values)
    };
    let (waiting, depth, length, loglik) = (
        column("waiting_statistic")?,
        column("depth")?,
        column("total_branch_length")?,
        column("log_data_likelihood")?,
    );
    let exact = |value: &Json, key: &str, i: usize| {
        value.as_exact_f64().ok_or_else(|| {
            decode_err(format!("checkpoint samples: {key:?} entry {i} is not an f64"))
        })
    };
    let rows = counts.iter().zip(waiting).zip(depth).zip(length).zip(loglik).enumerate();
    let mut samples = Vec::with_capacity(counts.len());
    for (i, ((((count, w), d), t), l)) in rows {
        samples.push(GenealogySample {
            intervals: CoalescentIntervals {
                n_coalescences: decode_count(count, || {
                    format!("checkpoint samples: \"n_coalescences\" entry {i}")
                })?,
                waiting_statistic: exact(w, "waiting_statistic", i)?,
                depth: exact(d, "depth", i)?,
                total_branch_length: exact(t, "total_branch_length", i)?,
            },
            log_data_likelihood: exact(l, "log_data_likelihood", i)?,
        });
    }
    Ok(samples)
}

/// Decode one v1 draw — `{intervals: [{start, length, lineages,
/// coalescence}…], log_data_likelihood}` — reducing its interval list to the
/// summary in stored order, which is the order
/// [`CoalescentIntervals::from_tree`] sums in, so the statistics come out
/// bit-identical to the ones the run had in memory.
fn v1_sample_from_json(json: &Json) -> Result<GenealogySample, PhyloError> {
    let context = "interval";
    let mut summary = CoalescentIntervals {
        n_coalescences: 0,
        waiting_statistic: 0.0,
        depth: 0.0,
        total_branch_length: 0.0,
    };
    for iv in decode_array(json, "intervals", "sample")? {
        let start = decode_f64(iv, "start", context)?;
        let length = decode_f64(iv, "length", context)?;
        let lineages = decode_usize(iv, "lineages", context)?;
        let pairs =
            lineages.checked_sub(1).and_then(|k| k.checked_mul(lineages)).ok_or_else(|| {
                decode_err(format!("checkpoint interval: lineage count {lineages} is out of range"))
            })?;
        summary.waiting_statistic += pairs as f64 * length;
        summary.total_branch_length += lineages as f64 * length;
        summary.depth = start + length;
        summary.n_coalescences += decode_bool(iv, "coalescence", context)? as usize;
    }
    Ok(GenealogySample {
        intervals: summary,
        log_data_likelihood: decode_f64(json, "log_data_likelihood", "sample")?,
    })
}

fn counters_to_json(counters: &RunCounters) -> Json {
    object(vec![
        ("iterations", Json::Number(counters.iterations as f64)),
        ("proposals_generated", Json::Number(counters.proposals_generated as f64)),
        ("likelihood_evaluations", Json::Number(counters.likelihood_evaluations as f64)),
        ("draws", Json::Number(counters.draws as f64)),
        ("accepted", Json::Number(counters.accepted as f64)),
        ("nodes_repruned", Json::Number(counters.nodes_repruned as f64)),
        ("nodes_full_pruned", Json::Number(counters.nodes_full_pruned as f64)),
        ("nodes_committed", Json::Number(counters.nodes_committed as f64)),
        ("generator_cache_hits", Json::Number(counters.generator_cache_hits as f64)),
        ("matrix_cache_hits", Json::Number(counters.matrix_cache_hits as f64)),
        ("matrix_cache_misses", Json::Number(counters.matrix_cache_misses as f64)),
        ("workspace_commits", Json::Number(counters.workspace_commits as f64)),
        ("swap_attempts", Json::Number(counters.swap_attempts as f64)),
        ("swaps_accepted", Json::Number(counters.swaps_accepted as f64)),
    ])
}

fn counters_from_json(json: &Json) -> Result<RunCounters, PhyloError> {
    let context = "counters";
    Ok(RunCounters {
        iterations: decode_usize(json, "iterations", context)?,
        proposals_generated: decode_usize(json, "proposals_generated", context)?,
        likelihood_evaluations: decode_usize(json, "likelihood_evaluations", context)?,
        draws: decode_usize(json, "draws", context)?,
        accepted: decode_usize(json, "accepted", context)?,
        nodes_repruned: decode_usize(json, "nodes_repruned", context)?,
        nodes_full_pruned: decode_usize(json, "nodes_full_pruned", context)?,
        nodes_committed: decode_usize(json, "nodes_committed", context)?,
        generator_cache_hits: decode_usize(json, "generator_cache_hits", context)?,
        matrix_cache_hits: decode_usize(json, "matrix_cache_hits", context)?,
        matrix_cache_misses: decode_usize(json, "matrix_cache_misses", context)?,
        workspace_commits: decode_usize(json, "workspace_commits", context)?,
        swap_attempts: decode_usize(json, "swap_attempts", context)?,
        swaps_accepted: decode_usize(json, "swaps_accepted", context)?,
    })
}

// ---------------------------------------------------------------------------
// Chain snapshots
// ---------------------------------------------------------------------------

/// Encode one in-flight chain.
pub fn chain_snapshot_to_json(snapshot: &ChainSnapshot) -> Json {
    object(vec![
        ("tree", tree_to_json(&snapshot.tree)),
        (
            "trace_values",
            Json::Array(snapshot.trace_values.iter().map(|&x| Json::exact_f64(x)).collect()),
        ),
        ("trace_burn_in", Json::Number(snapshot.trace_burn_in as f64)),
        ("samples", samples_to_json(&snapshot.samples)),
        ("counters", counters_to_json(&snapshot.counters)),
        ("draws_done", Json::Number(snapshot.draws_done as f64)),
        ("swapped_loglik", snapshot.swapped_loglik.map_or(Json::Null, Json::exact_f64)),
        ("stream_epoch", Json::u64_text(snapshot.stream_epoch)),
        ("engine_cache_tree", optional_tree_to_json(&snapshot.engine_cache_tree)),
    ])
}

/// Decode one in-flight chain.
pub fn chain_snapshot_from_json(json: &Json) -> Result<ChainSnapshot, PhyloError> {
    chain_from_json(json, Format::V2)
}

fn chain_from_json(json: &Json, format: Format) -> Result<ChainSnapshot, PhyloError> {
    let context = "chain";
    let mut trace_values = Vec::new();
    for (i, value) in decode_array(json, "trace_values", context)?.iter().enumerate() {
        trace_values.push(value.as_exact_f64().ok_or_else(|| {
            decode_err(format!("checkpoint chain: trace value {i} is not an f64"))
        })?);
    }
    let samples = match format {
        Format::V2 => samples_from_json(field(json, "samples", context)?)?,
        Format::V1 => decode_array(json, "samples", context)?
            .iter()
            .map(v1_sample_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let swapped_loglik = match field(json, "swapped_loglik", context)? {
        Json::Null => None,
        other => Some(other.as_exact_f64().ok_or_else(|| {
            decode_err("checkpoint chain: swapped_loglik is neither null nor an f64")
        })?),
    };
    Ok(ChainSnapshot {
        tree: tree_from_json(field(json, "tree", context)?)?,
        trace_values,
        trace_burn_in: decode_usize(json, "trace_burn_in", context)?,
        samples,
        counters: counters_from_json(field(json, "counters", context)?)?,
        draws_done: decode_usize(json, "draws_done", context)?,
        swapped_loglik,
        stream_epoch: decode_u64(json, "stream_epoch", context)?,
        engine_cache_tree: optional_tree_from_json(field(json, "engine_cache_tree", context)?)?,
    })
}

// ---------------------------------------------------------------------------
// Ensemble spec and snapshot
// ---------------------------------------------------------------------------

/// Encode an [`EnsembleSpec`] (exchange policy included).
pub fn ensemble_spec_to_json(spec: &EnsembleSpec) -> Json {
    let exchange = match &spec.exchange {
        ExchangePolicy::Independent => object(vec![("policy", Json::string("independent"))]),
        ExchangePolicy::TemperatureLadder { temperatures, swap_interval } => object(vec![
            ("policy", Json::string("ladder")),
            (
                "temperatures",
                Json::Array(temperatures.iter().map(|&t| Json::exact_f64(t)).collect()),
            ),
            ("swap_interval", Json::Number(*swap_interval as f64)),
        ]),
    };
    object(vec![
        ("n_chains", Json::Number(spec.n_chains as f64)),
        ("exchange", exchange),
        ("ensemble_seed", Json::u64_text(spec.ensemble_seed)),
        ("chain_dispatch", spec.chain_dispatch.map_or(Json::Null, |b| Json::string(b.to_string()))),
    ])
}

/// Decode an [`EnsembleSpec`], re-validating it (rung shape, cold rung 0,
/// swap interval) so a hand-edited document cannot smuggle in an invalid
/// ladder.
pub fn ensemble_spec_from_json(json: &Json) -> Result<EnsembleSpec, PhyloError> {
    let context = "ensemble spec";
    let exchange_json = field(json, "exchange", context)?;
    let policy = field(exchange_json, "policy", context)?
        .as_str()
        .ok_or_else(|| decode_err("checkpoint ensemble spec: exchange policy is not a string"))?;
    let exchange = match policy {
        "independent" => ExchangePolicy::Independent,
        "ladder" => {
            let mut temperatures = Vec::new();
            for (k, t) in decode_array(exchange_json, "temperatures", context)?.iter().enumerate() {
                temperatures.push(t.as_exact_f64().ok_or_else(|| {
                    decode_err(format!("checkpoint ensemble spec: rung {k} is not an f64"))
                })?);
            }
            ExchangePolicy::TemperatureLadder {
                temperatures,
                swap_interval: decode_usize(exchange_json, "swap_interval", context)?,
            }
        }
        other => {
            return Err(decode_err(format!(
                "checkpoint ensemble spec: unknown exchange policy {other:?} \
                 (expected \"independent\" or \"ladder\")"
            )))
        }
    };
    let chain_dispatch = match field(json, "chain_dispatch", context)? {
        Json::Null => None,
        other => {
            let name = other.as_str().ok_or_else(|| {
                decode_err("checkpoint ensemble spec: chain_dispatch is neither null nor a string")
            })?;
            Some(name.parse::<Backend>().map_err(|e| {
                decode_err(format!("checkpoint ensemble spec: bad chain_dispatch: {e}"))
            })?)
        }
    };
    let spec = EnsembleSpec {
        n_chains: decode_usize(json, "n_chains", context)?,
        exchange,
        ensemble_seed: decode_u64(json, "ensemble_seed", context)?,
        chain_dispatch,
    };
    spec.validate()?;
    Ok(spec)
}

/// Encode a whole frozen ensemble.
pub fn ensemble_snapshot_to_json(snapshot: &EnsembleSnapshot) -> Json {
    object(vec![
        ("chains", Json::Array(snapshot.chains.iter().map(chain_snapshot_to_json).collect())),
        (
            "chain_rng_positions",
            Json::Array(snapshot.chain_rng_positions.iter().map(|&p| Json::u64_text(p)).collect()),
        ),
        ("swap_rng_position", Json::u64_text(snapshot.swap_rng_position)),
        ("swap_attempts", Json::Number(snapshot.swap_attempts as f64)),
        ("swaps_accepted", Json::Number(snapshot.swaps_accepted as f64)),
        ("driving_theta", Json::exact_f64(snapshot.driving_theta)),
    ])
}

/// Decode a whole frozen ensemble.
pub fn ensemble_snapshot_from_json(json: &Json) -> Result<EnsembleSnapshot, PhyloError> {
    ensemble_from_json(json, Format::V2)
}

fn ensemble_from_json(json: &Json, format: Format) -> Result<EnsembleSnapshot, PhyloError> {
    let context = "ensemble";
    let chains = decode_array(json, "chains", context)?
        .iter()
        .map(|chain| chain_from_json(chain, format))
        .collect::<Result<Vec<_>, _>>()?;
    let mut chain_rng_positions = Vec::new();
    for (k, p) in decode_array(json, "chain_rng_positions", context)?.iter().enumerate() {
        chain_rng_positions.push(p.as_u64_text().ok_or_else(|| {
            decode_err(format!(
                "checkpoint ensemble: host RNG position {k} is not a u64 decimal string"
            ))
        })?);
    }
    Ok(EnsembleSnapshot {
        chains,
        chain_rng_positions,
        swap_rng_position: decode_u64(json, "swap_rng_position", context)?,
        swap_attempts: decode_usize(json, "swap_attempts", context)?,
        swaps_accepted: decode_usize(json, "swaps_accepted", context)?,
        driving_theta: decode_f64(json, "driving_theta", context)?,
    })
}

// ---------------------------------------------------------------------------
// EM iteration records
// ---------------------------------------------------------------------------

fn em_iteration_to_json(report: &EmIterationReport) -> Json {
    object(vec![
        ("driving_theta", Json::exact_f64(report.driving_theta)),
        ("estimate", Json::exact_f64(report.estimate)),
        ("acceptance_rate", Json::exact_f64(report.acceptance_rate)),
        ("mean_log_data_likelihood", Json::exact_f64(report.mean_log_data_likelihood)),
        ("counters", counters_to_json(&report.counters)),
    ])
}

fn em_iteration_from_json(json: &Json) -> Result<EmIterationReport, PhyloError> {
    let context = "EM iteration";
    Ok(EmIterationReport {
        driving_theta: decode_f64(json, "driving_theta", context)?,
        estimate: decode_f64(json, "estimate", context)?,
        acceptance_rate: decode_f64(json, "acceptance_rate", context)?,
        mean_log_data_likelihood: decode_f64(json, "mean_log_data_likelihood", context)?,
        counters: counters_from_json(field(json, "counters", context)?)?,
    })
}

// ---------------------------------------------------------------------------
// The top-level document
// ---------------------------------------------------------------------------

impl SessionCheckpoint {
    /// Encode as a JSON document (format tag included).
    pub fn to_json(&self) -> Json {
        let state = match &self.state {
            CheckpointState::SingleChain(chain) => object(vec![
                ("mode", Json::string("single")),
                ("chain", chain_snapshot_to_json(chain)),
            ]),
            CheckpointState::Ensemble { spec, snapshot } => object(vec![
                ("mode", Json::string("ensemble")),
                ("spec", ensemble_spec_to_json(spec)),
                ("ensemble", ensemble_snapshot_to_json(snapshot)),
            ]),
        };
        object(vec![
            ("format", Json::string(CHECKPOINT_FORMAT)),
            ("strategy", Json::string(self.strategy.clone())),
            ("seed", Json::Number(self.seed as f64)),
            ("host_rng_position", Json::u64_text(self.host_rng_position)),
            ("theta", Json::exact_f64(self.theta)),
            ("em_round", Json::Number(self.em_round as f64)),
            ("iterations", Json::Array(self.iterations.iter().map(em_iteration_to_json).collect())),
            ("state", state),
        ])
    }

    /// The pretty-printed document (what `--checkpoint-path` writes).
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decode a document — the current format or a read-only v1 one —
    /// rejecting unknown format versions with a pointed error.
    pub fn from_json(json: &Json) -> Result<SessionCheckpoint, PhyloError> {
        let context = "document";
        let tag = field(json, "format", context)?
            .as_str()
            .ok_or_else(|| decode_err("checkpoint document: format tag is not a string"))?;
        let format = match tag {
            CHECKPOINT_FORMAT => Format::V2,
            CHECKPOINT_FORMAT_V1 => Format::V1,
            other => {
                return Err(decode_err(format!(
                    "checkpoint version mismatch: this build reads {CHECKPOINT_FORMAT:?} and \
                     {CHECKPOINT_FORMAT_V1:?} but the document declares {other:?}"
                )))
            }
        };
        let strategy = field(json, "strategy", context)?
            .as_str()
            .ok_or_else(|| decode_err("checkpoint document: strategy is not a string"))?
            .to_string();
        let iterations = decode_array(json, "iterations", context)?
            .iter()
            .map(em_iteration_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let state_json = field(json, "state", context)?;
        let mode = field(state_json, "mode", "state")?
            .as_str()
            .ok_or_else(|| decode_err("checkpoint state: mode is not a string"))?;
        let state = match mode {
            "single" => CheckpointState::SingleChain(Box::new(chain_from_json(
                field(state_json, "chain", "state")?,
                format,
            )?)),
            "ensemble" => CheckpointState::Ensemble {
                spec: ensemble_spec_from_json(field(state_json, "spec", "state")?)?,
                snapshot: ensemble_from_json(field(state_json, "ensemble", "state")?, format)?,
            },
            other => {
                return Err(decode_err(format!(
                    "checkpoint state: unknown mode {other:?} (expected \"single\" or \
                     \"ensemble\")"
                )))
            }
        };
        Ok(SessionCheckpoint {
            strategy,
            seed: decode_usize(json, "seed", context)? as u32,
            host_rng_position: decode_u64(json, "host_rng_position", context)?,
            theta: decode_f64(json, "theta", context)?,
            em_round: decode_usize(json, "em_round", context)?,
            iterations,
            state,
        })
    }

    /// Parse a document from its JSON text.
    pub fn parse(text: &str) -> Result<SessionCheckpoint, PhyloError> {
        let json = Json::parse(text)
            .map_err(|e| decode_err(format!("checkpoint document is not valid JSON: {e}")))?;
        SessionCheckpoint::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::tree::TreeBuilder;

    fn tiny_tree() -> GeneTree {
        let mut builder = TreeBuilder::new();
        let a = builder.add_tip("a", 0.0);
        let b = builder.add_tip("b", 0.0);
        let c = builder.add_tip("c", 0.0);
        let ab = builder.join(a, b, 0.25);
        builder.join(ab, c, 1.5);
        builder.build().unwrap()
    }

    fn sample_snapshot() -> ChainSnapshot {
        let tree = tiny_tree();
        ChainSnapshot {
            tree: tree.clone(),
            trace_values: vec![-12.5, f64::NEG_INFINITY, -11.0 + 1e-13],
            trace_burn_in: 1,
            samples: vec![GenealogySample {
                intervals: tree.intervals(),
                log_data_likelihood: -11.0,
            }],
            counters: RunCounters {
                iterations: 3,
                draws: 3,
                accepted: 2,
                matrix_cache_hits: 7,
                ..Default::default()
            },
            draws_done: 3,
            swapped_loglik: Some(-10.25),
            stream_epoch: u64::MAX - 5,
            engine_cache_tree: Some(tree),
        }
    }

    #[test]
    fn chain_snapshot_round_trips_bit_exactly() {
        let snapshot = sample_snapshot();
        let json = chain_snapshot_to_json(&snapshot);
        let text = json.to_pretty();
        let back = chain_snapshot_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot, back);
        // The non-finite trace value and the > 2^53 epoch survive exactly.
        assert_eq!(back.trace_values[1], f64::NEG_INFINITY);
        assert_eq!(back.stream_epoch, u64::MAX - 5);
    }

    #[test]
    fn ensemble_spec_round_trips_both_policies() {
        let independent = EnsembleSpec::independent(3);
        let json = ensemble_spec_to_json(&independent);
        assert_eq!(ensemble_spec_from_json(&json).unwrap(), independent);

        let ladder = EnsembleSpec {
            n_chains: 4,
            exchange: ExchangePolicy::geometric_ladder(4, 8.0, 5).unwrap(),
            ensemble_seed: u64::MAX,
            chain_dispatch: Some(Backend::Rayon),
        };
        let text = ensemble_spec_to_json(&ladder).to_pretty();
        let back = ensemble_spec_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ladder);
    }

    #[test]
    fn decoding_rejects_shape_and_version_mismatches_with_pointed_errors() {
        // An invalid ladder (hot rung first) is re-validated on decode.
        let bad_spec = object(vec![
            ("n_chains", Json::Number(2.0)),
            (
                "exchange",
                object(vec![
                    ("policy", Json::string("ladder")),
                    ("temperatures", Json::Array(vec![Json::Number(2.0), Json::Number(4.0)])),
                    ("swap_interval", Json::Number(1.0)),
                ]),
            ),
            ("ensemble_seed", Json::u64_text(7)),
            ("chain_dispatch", Json::Null),
        ]);
        let err = ensemble_spec_from_json(&bad_spec).unwrap_err().to_string();
        assert!(err.contains("cold chain"), "unpointed error: {err}");

        // A rung-count mismatch against the declared chain count.
        let short = object(vec![
            ("n_chains", Json::Number(3.0)),
            (
                "exchange",
                object(vec![
                    ("policy", Json::string("ladder")),
                    ("temperatures", Json::Array(vec![Json::Number(1.0), Json::Number(2.0)])),
                    ("swap_interval", Json::Number(1.0)),
                ]),
            ),
            ("ensemble_seed", Json::u64_text(7)),
            ("chain_dispatch", Json::Null),
        ]);
        let err = ensemble_spec_from_json(&short).unwrap_err().to_string();
        assert!(err.contains("2 rungs") && err.contains("3 chains"), "unpointed error: {err}");

        // A future format version is refused, naming both versions.
        let future = object(vec![("format", Json::string("mpcgs-checkpoint/v9"))]);
        let err = SessionCheckpoint::from_json(&future).unwrap_err().to_string();
        assert!(err.contains("mpcgs-checkpoint/v2") && err.contains("mpcgs-checkpoint/v9"));

        // A truncated chain names the missing field.
        let err = chain_snapshot_from_json(&object(vec![("tree", tree_to_json(&tiny_tree()))]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("trace_values"), "unpointed error: {err}");
    }

    #[test]
    fn full_document_round_trips() {
        let checkpoint = SessionCheckpoint {
            strategy: "gmh".to_string(),
            seed: 42,
            host_rng_position: (1 << 60) + 3,
            theta: 0.1 + 0.2, // deliberately not representable as written
            em_round: 1,
            iterations: vec![EmIterationReport {
                driving_theta: 0.5,
                estimate: 0.731,
                acceptance_rate: 0.25,
                mean_log_data_likelihood: f64::NAN,
                counters: RunCounters { draws: 11, ..Default::default() },
            }],
            state: CheckpointState::Ensemble {
                spec: EnsembleSpec::independent(2),
                snapshot: EnsembleSnapshot {
                    chains: vec![sample_snapshot(), sample_snapshot()],
                    chain_rng_positions: vec![123, u64::MAX],
                    swap_rng_position: 0,
                    swap_attempts: 4,
                    swaps_accepted: 1,
                    driving_theta: 0.1 + 0.2,
                },
            },
        };
        let text = checkpoint.to_pretty();
        let back = SessionCheckpoint::parse(&text).unwrap();
        // NaN != NaN, so compare the NaN field by bits and the rest directly.
        assert!(back.iterations[0].mean_log_data_likelihood.is_nan());
        let mut comparable = back.clone();
        comparable.iterations[0].mean_log_data_likelihood = 0.0;
        let mut expected = checkpoint.clone();
        expected.iterations[0].mean_log_data_likelihood = 0.0;
        assert_eq!(comparable, expected);
        assert_eq!(back.host_rng_position, (1 << 60) + 3);
        assert_eq!(back.theta.to_bits(), (0.1 + 0.2_f64).to_bits());
    }
}
