//! Differential op tapes: the gate on the columnar genealogy port.
//!
//! A [`Tape`] is a seeded sequence of sampler-shaped operations — proposals
//! with accept/reject, replica swaps, copy-on-write snapshots and restores,
//! whole-tree retiming, and checkpoint round-trips. [`replay`] drives the
//! tape through **both** tree representations in lockstep:
//!
//! * the columnar [`phylo::GeneTree`] (a view over `phylo::tables`), and
//! * the legacy pointer arena [`LegacyTree`](phylo::tree::legacy::LegacyTree)
//!   the tables replaced, kept as the oracle;
//!
//! asserting after every operation that node records (topology, `f64` time
//! *bits*, labels) are identical, and periodically that log-likelihoods and
//! serialized checkpoint documents are bit-identical too.
//!
//! Every op carries its own RNG seed, so deleting ops during shrinking never
//! shifts the randomness of the ops that remain — a shrunk tape fails for
//! the same reason the original did. [`Sabotage`] deliberately breaks the
//! legacy mirror so the forced-failure test can demonstrate shrinking to a
//! minimal reproducing tape.

use super::Shrinkable;
use coalescent::{CoalescentSimulator, SequenceSimulator};
use codec::Json;
use lamarc::GenealogyProposer;
use mcmc::rng::{Mt19937, SplitMix64};
use phylo::model::Jc69;
use phylo::tree::legacy::LegacyTree;
use phylo::{assert_valid_genealogy, FelsensteinPruner, GeneTree, NodeRecord};
use rand::RngCore;

/// One operation of a differential tape. The embedded seed fully determines
/// the op's randomness (replica choice, proposal draws, accept coin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Propose on one replica via the real `GenealogyProposer`, flip an
    /// accept coin, and on accept commit to the columnar tree while applying
    /// the recorded `(node, time, children)` edits to the legacy mirror.
    Propose(u64),
    /// Exchange the trees of two replicas (the MC³ swap move).
    Swap(u64),
    /// Push a copy-on-write snapshot of one replica onto the snapshot stack.
    Snapshot(u64),
    /// Pop the snapshot stack and reinstate that state on its replica (the
    /// swap read-back / rejection path).
    Restore(u64),
    /// Rescale every node time of one replica by a factor near 1.
    Retime(u64),
    /// Serialize both representations of one replica, require byte-equal
    /// documents, then rebuild each representation from the *other* side's
    /// records (cross-pollinated round-trip).
    Checkpoint(u64),
}

impl Op {
    fn seed(&self) -> u64 {
        match *self {
            Op::Propose(s)
            | Op::Swap(s)
            | Op::Snapshot(s)
            | Op::Restore(s)
            | Op::Retime(s)
            | Op::Checkpoint(s) => s,
        }
    }

    /// The op's private RNG.
    fn rng(&self) -> Mt19937 {
        Mt19937::new(SplitMix64::new(self.seed()).next_seed32())
    }
}

/// A full differential test case: the world seed (initial trees + data) and
/// the self-seeded op sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// Seed for the initial replica trees and the scoring alignment.
    pub world_seed: u32,
    /// Number of tips per genealogy.
    pub n_tips: usize,
    /// Number of chain replicas (the mini ladder the swaps move over).
    pub n_replicas: usize,
    /// The operations, replayed in order.
    pub ops: Vec<Op>,
}

impl Tape {
    /// Generate a tape of `n_ops` operations from the driver's case RNG.
    pub fn generate(rng: &mut Mt19937, n_tips: usize, n_replicas: usize, n_ops: usize) -> Tape {
        let world_seed = rng.next_u32();
        let mut seeder =
            SplitMix64::new(u64::from(rng.next_u32()) << 32 | u64::from(rng.next_u32()));
        let ops = (0..n_ops)
            .map(|_| {
                let seed = seeder.next();
                // Weighted mix: proposals dominate, exactly like a sampler.
                match seed % 100 {
                    0..=54 => Op::Propose(seed),
                    55..=69 => Op::Snapshot(seed),
                    70..=79 => Op::Restore(seed),
                    80..=91 => Op::Swap(seed),
                    92..=95 => Op::Retime(seed),
                    _ => Op::Checkpoint(seed),
                }
            })
            .collect();
        Tape { world_seed, n_tips, n_replicas, ops }
    }

    /// Render the tape as a plain-text repro artifact (one op per line),
    /// uploadable from CI on failure and sufficient to rebuild the tape by
    /// hand.
    pub fn to_repro_text(&self) -> String {
        let mut out = format!(
            "# differential repro tape\nworld_seed = {}\nn_tips = {}\nn_replicas = {}\n",
            self.world_seed, self.n_tips, self.n_replicas
        );
        for op in &self.ops {
            out.push_str(&format!("{op:?}\n"));
        }
        out
    }
}

impl Shrinkable for Tape {
    /// Delta-debugging candidates: drop large spans first (halves, quarters,
    /// eighths), then individual ops. Op seeds travel with their ops, so
    /// every candidate replays the surviving ops identically.
    fn shrink_candidates(&self) -> Vec<Self> {
        let n = self.ops.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut candidates = Vec::new();
        let mut span = n.div_ceil(2);
        loop {
            let mut start = 0;
            while start < n {
                let end = (start + span).min(n);
                let mut ops = Vec::with_capacity(n - (end - start));
                ops.extend_from_slice(&self.ops[..start]);
                ops.extend_from_slice(&self.ops[end..]);
                if !ops.is_empty() || n == 1 {
                    candidates.push(Tape { ops, ..self.clone() });
                }
                start += span;
            }
            if span == 1 {
                break;
            }
            span = span.div_ceil(2).max(1);
        }
        candidates
    }
}

/// Ways to deliberately corrupt the legacy mirror, so the harness can prove
/// it catches divergence and shrinks it to a minimal tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Honest replay.
    None,
    /// `Retime` multiplies the legacy side by an extra 1 + 2⁻⁴⁰ — a
    /// single-ULP-scale error only bitwise comparison catches.
    PerturbRetime,
}

/// One replica's state in both representations.
struct Replica {
    columnar: GeneTree,
    legacy: LegacyTree,
}

/// Replay `tape`, asserting bit-identical behaviour of the two
/// representations after every op. Returns the number of ops executed.
pub fn replay(tape: &Tape, sabotage: Sabotage) -> Result<usize, String> {
    let mut world_rng = Mt19937::new(tape.world_seed);
    let simulator = CoalescentSimulator::constant(1.0).map_err(|e| e.to_string())?;
    let mut replicas: Vec<Replica> = (0..tape.n_replicas)
        .map(|r| {
            let columnar = simulator
                .simulate(&mut world_rng, tape.n_tips)
                .map_err(|e| format!("replica {r} simulation: {e}"))?;
            let legacy = LegacyTree::from_node_records(columnar.node_records(), columnar.root())
                .map_err(|e| format!("replica {r} legacy mirror: {e}"))?;
            Ok(Replica { columnar, legacy })
        })
        .collect::<Result<_, String>>()?;
    // One alignment scores every replica (all trees share the tip labels).
    let alignment = SequenceSimulator::new(Jc69::new(), 40, 1.0)
        .map_err(|e| e.to_string())?
        .simulate(&mut world_rng, &replicas[0].columnar)
        .map_err(|e| e.to_string())?;
    let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
    let proposer = GenealogyProposer::new(1.0).map_err(|e| e.to_string())?;

    let mut snapshots: Vec<(usize, GeneTree, LegacyTree)> = Vec::new();
    for (step, op) in tape.ops.iter().enumerate() {
        let mut rng = op.rng();
        let r = rng.next_u32() as usize % tape.n_replicas;
        match op {
            Op::Propose(_) => {
                let replica = &mut replicas[r];
                let target = proposer.sample_target(&replica.columnar, &mut rng);
                let (proposed, edited) =
                    proposer.propose_with_edit(&replica.columnar, target, &mut rng);
                let accept = rng.next_u32() % 4 != 0; // 75% accept
                if accept {
                    // Mirror the recorded edit set onto the legacy tree, in
                    // edit order — exactly the writes the proposal made.
                    for &node in &edited {
                        replica.legacy.set_time(node, proposed.time(node));
                        if let Some((a, b)) = proposed.children(node) {
                            replica.legacy.set_children(node, a, b);
                        }
                    }
                    replica.columnar = proposed;
                }
            }
            Op::Swap(_) => {
                let j = rng.next_u32() as usize % tape.n_replicas;
                if r != j {
                    // Trees move between rungs; with columnar storage this is
                    // a pointer move, with the legacy arena a struct move.
                    replicas.swap(r, j);
                }
            }
            Op::Snapshot(_) => {
                let replica = &replicas[r];
                snapshots.push((r, replica.columnar.clone(), replica.legacy.clone()));
                if snapshots.len() > 8 {
                    snapshots.remove(0);
                }
            }
            Op::Restore(_) => {
                if let Some((home, columnar, legacy)) = snapshots.pop() {
                    replicas[home] = Replica { columnar, legacy };
                }
            }
            Op::Retime(_) => {
                let factor = 0.9 + 0.2 * (f64::from(rng.next_u32()) / f64::from(u32::MAX));
                let legacy_factor = match sabotage {
                    Sabotage::None => factor,
                    Sabotage::PerturbRetime => factor * (1.0 + 2f64.powi(-40)),
                };
                let replica = &mut replicas[r];
                replica.columnar.scale_times(factor);
                replica.legacy.scale_times(legacy_factor);
            }
            Op::Checkpoint(_) => {
                let replica = &mut replicas[r];
                let columnar_doc = encode_checkpoint_tree(
                    &replica.columnar.node_records(),
                    replica.columnar.root(),
                );
                let legacy_doc =
                    encode_checkpoint_tree(&replica.legacy.node_records(), replica.legacy.root());
                if columnar_doc != legacy_doc {
                    return Err(format!(
                        "step {step}: serialized checkpoints diverged on replica {r}"
                    ));
                }
                // Cross-pollinated rebuild: each side resumes from the other
                // side's records.
                let columnar_records = replica.columnar.node_records();
                let columnar_root = replica.columnar.root();
                replica.columnar = GeneTree::from_node_records(
                    replica.legacy.node_records(),
                    replica.legacy.root(),
                )
                .map_err(|e| format!("step {step}: columnar resume failed: {e}"))?;
                replica.legacy = LegacyTree::from_node_records(columnar_records, columnar_root)
                    .map_err(|e| format!("step {step}: legacy resume failed: {e}"))?;
            }
        }

        // The gate: bit-identical node records after every op, on every
        // replica the op could have touched.
        for (index, replica) in replicas.iter().enumerate() {
            records_bit_identical(&replica.columnar.node_records(), &replica.legacy.node_records())
                .map_err(|e| format!("step {step} ({op:?}): replica {index}: {e}"))?;
            if replica.columnar.root() != replica.legacy.root() {
                return Err(format!(
                    "step {step} ({op:?}): replica {index}: roots diverged ({} vs {})",
                    replica.columnar.root(),
                    replica.legacy.root()
                ));
            }
        }
        // Periodically: bit-identical log-likelihoods and full validity.
        if step % 8 == 0 {
            let replica = &replicas[r];
            let legacy_view =
                GeneTree::from_node_records(replica.legacy.node_records(), replica.legacy.root())
                    .map_err(|e| format!("step {step}: legacy records are invalid: {e}"))?;
            let columnar_lnl = pruner
                .log_likelihood(&replica.columnar)
                .map_err(|e| format!("step {step}: columnar likelihood: {e}"))?;
            let legacy_lnl = pruner
                .log_likelihood(&legacy_view)
                .map_err(|e| format!("step {step}: legacy likelihood: {e}"))?;
            if columnar_lnl.to_bits() != legacy_lnl.to_bits() {
                return Err(format!(
                    "step {step}: log-likelihood bits diverged: {columnar_lnl:?} vs {legacy_lnl:?}"
                ));
            }
            assert_valid_genealogy(&replica.columnar);
            replica.legacy.validate().map_err(|e| format!("step {step}: legacy invalid: {e}"))?;
        }
    }
    Ok(tape.ops.len())
}

/// Compare two record vectors for bit identity: topology and labels by
/// equality, times by `f64::to_bits` (so `-0.0` vs `0.0` or a 1-ULP drift
/// cannot hide behind `==`).
pub fn records_bit_identical(a: &[NodeRecord], b: &[NodeRecord]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("node counts diverged: {} vs {}", a.len(), b.len()));
    }
    for (node, (ra, rb)) in a.iter().zip(b).enumerate() {
        if ra.parent != rb.parent {
            return Err(format!("node {node}: parents {:?} vs {:?}", ra.parent, rb.parent));
        }
        if ra.children != rb.children {
            return Err(format!("node {node}: children {:?} vs {:?}", ra.children, rb.children));
        }
        if ra.time.to_bits() != rb.time.to_bits() {
            return Err(format!("node {node}: time bits {:?} vs {:?}", ra.time, rb.time));
        }
        if ra.label != rb.label {
            return Err(format!("node {node}: labels {:?} vs {:?}", ra.label, rb.label));
        }
    }
    Ok(())
}

/// Encode a genealogy exactly like the checkpoint tree codec:
/// one object per node (parent/children/time/label) plus the root id, times
/// as exact decimal strings. Byte equality of two documents implies the
/// checkpoint subsystem cannot tell the representations apart.
pub fn encode_checkpoint_tree(records: &[NodeRecord], root: usize) -> String {
    let nodes: Vec<Json> = records
        .iter()
        .map(|record| {
            let mut fields = vec![(
                "parent".to_string(),
                record.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
            )];
            fields.push((
                "children".to_string(),
                record.children.map_or(Json::Null, |(a, b)| {
                    Json::Array(vec![Json::Number(a as f64), Json::Number(b as f64)])
                }),
            ));
            fields.push(("time".to_string(), Json::exact_f64(record.time)));
            fields.push((
                "label".to_string(),
                record.label.as_ref().map_or(Json::Null, Json::string),
            ));
            Json::Object(fields)
        })
        .collect();
    Json::Object(vec![
        ("root".to_string(), Json::Number(root as f64)),
        ("nodes".to_string(), Json::Array(nodes)),
    ])
    .to_pretty()
}
