//! The data likelihood `P(D|G)` by Felsenstein pruning (Eq. 19–23).
//!
//! For each site the likelihood of the genealogy is computed by a post-order
//! traversal: every node carries a conditional likelihood vector over the
//! four nucleotides, tips are indicators of their observed base, and interior
//! vectors combine the children's vectors through the substitution model's
//! transition probabilities (Eq. 19). The per-site likelihoods multiply
//! (Eq. 22 — stored as a sum of logs per Section 5.3).
//!
//! Two evaluation paths are provided:
//!
//! * The **reference path** ([`FelsensteinPruner::pattern_log_likelihoods`])
//!   prunes pattern-by-pattern exactly as the textbook recursion is written.
//!   It is kept as the oracle the fast path is verified against, and it can
//!   run its per-pattern loop serially or data-parallel over rayon worker
//!   threads ([`ExecutionMode`]), mirroring the paper's one-device-thread-
//!   per-site data-likelihood kernel (Section 5.2.2).
//! * The **batched engine** ([`LikelihoodEngine::log_likelihood_batch`])
//!   scores a whole proposal set against one generator genealogy, the shape
//!   of the multi-proposal sampler's inner loop (Section 4.3). Partial
//!   likelihoods live in a reusable [`LikelihoodWorkspace`] — structure-of-
//!   arrays buffers of `[node × pattern × 4]`, split into pattern chunks,
//!   with a node-outer/pattern-inner loop order so the 4×4 products
//!   vectorise and nothing is allocated per pattern. Because every proposal
//!   differs from the generator only inside the φ-neighborhood, the engine
//!   recomputes only the edited nodes and the path from them to the root
//!   (*dirty-path caching*), reusing the generator's cached partials for
//!   every other subtree. The generator workspace itself is memoised inside
//!   the engine, so consecutive evaluations against an unchanged generator
//!   (rejected moves, repeated index draws) skip the full prune entirely.
//!   All proposals of one GMH iteration edit the same neighbourhood, so they
//!   share the dirty path above it: when at least two members list the same
//!   edited nodes, the batch finds that path and its edge matrices once and
//!   computes the clean off-path child's `M·p` at each of its nodes once per
//!   pattern chunk (*shared off-path rows*). Each proposal then combines a
//!   path node with one matrix–vector product, for its on-path child, times
//!   the shared row. The results, and every work counter, are bit-identical
//!   to scoring each proposal alone.
//!
//! The innermost arithmetic of both paths — combining two children's
//! partial rows through their branch transition matrices — sits behind the
//! [`Kernel`] seam: [`Kernel::Scalar`] is the portable reference loop and
//! [`Kernel::Simd`] an explicit four-lane `f64x4` kernel, selected per
//! engine with [`FelsensteinPruner::with_kernel`] and agreeing with the
//! scalar kernel to ≤1e-12 relative tolerance.
//!
//! Multi-locus datasets are scored by a [`MultiLocusEngine`]: one cached
//! workspace per locus, every batch flattened over the (locus × proposal)
//! grid in a single backend dispatch, and per-locus log likelihoods summed
//! (unlinked loci are independent given the genealogy):
//!
//! ```
//! use phylo::likelihood::{LikelihoodEngine, MultiLocusEngine};
//! use phylo::model::Jc69;
//! use phylo::tree::TreeBuilder;
//! use phylo::{Alignment, Dataset, Locus};
//!
//! let l0 = Alignment::from_letters(&[("a", "ACGTACGT"), ("b", "ACGAACGA")]).unwrap();
//! let l1 = Alignment::from_letters(&[("a", "GGTTA"), ("b", "GGTAA")]).unwrap();
//! let dataset = Dataset::new(vec![Locus::new("l0", l0), Locus::new("l1", l1)]).unwrap();
//! let engine = MultiLocusEngine::new(&dataset, |_| Jc69::new());
//!
//! let mut builder = TreeBuilder::new();
//! let a = builder.add_tip("a", 0.0);
//! let b = builder.add_tip("b", 0.0);
//! builder.join(a, b, 0.3);
//! let tree = builder.build().unwrap();
//!
//! // The engine's total is exactly the sum of the per-locus terms.
//! let total = engine.log_likelihood(&tree).unwrap();
//! let per_locus = engine.log_likelihood_per_locus(&tree).unwrap();
//! assert_eq!(per_locus.len(), 2);
//! assert!((total - per_locus.iter().sum::<f64>()).abs() < 1e-12);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

use exec::Backend;
use rayon::prelude::*;

use crate::alignment::Alignment;
use crate::dataset::Dataset;
use crate::error::PhyloError;
use crate::model::SubstitutionModel;
use crate::nucleotide::Nucleotide;
use crate::patterns::SitePatterns;
use crate::tree::{GeneTree, NodeId};

/// Number of site patterns per workspace chunk. Chunks are the unit of
/// pattern-level parallelism and bound the working set of the inner loops to
/// roughly `chunk × nodes × 5` doubles.
const PATTERN_CHUNK: usize = 256;

/// A proposal to be scored against a generator genealogy: the proposed tree
/// plus the set of nodes whose times or wiring differ from the generator
/// (the φ-neighborhood of Section 4.3). Nodes *above* the edited set are
/// discovered by the engine; only the directly edited nodes need listing.
#[derive(Debug, Clone, Copy)]
pub struct TreeProposal<'a> {
    /// The proposed genealogy. Must share the arena layout (node ids, tips,
    /// labels) of the generator it is scored against.
    pub tree: &'a GeneTree,
    /// The directly edited nodes. An empty slice means "identical to the
    /// generator".
    pub edited: &'a [NodeId],
}

/// The outcome of one batched likelihood evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvaluation {
    /// `ln P(D|G)` of the generator genealogy.
    pub generator_log_likelihood: f64,
    /// `ln P(D|G̃_i)` for every proposal, in input order.
    pub log_likelihoods: Vec<f64>,
    /// Interior nodes whose partials were recomputed across all proposals
    /// (the dirty paths). The paper's incremental-LAMARC baseline performs
    /// the same O(path-to-root) work per transition (Section 5.2.2).
    pub nodes_repruned: usize,
    /// Interior nodes recomputed to (re)build the generator workspace: the
    /// full interior count on a cache miss, zero on a hit.
    pub nodes_full_pruned: usize,
    /// Whether the generator workspace was reused from the engine's cache.
    pub generator_cache_hit: bool,
    /// Edge transition matrices served from the [`EdgeMatrixCache`] instead
    /// of being recomputed, across the workspace (re)build and every
    /// dirty-path rescore of this batch.
    pub matrix_cache_hits: usize,
    /// Edge transition matrices that had to be recomputed because their
    /// effective branch length changed (or the cache was cold).
    pub matrix_cache_misses: usize,
}

impl BatchEvaluation {
    /// Interior-node recomputations a naive engine would have performed for
    /// the same batch (every node of every proposal plus the generator).
    pub fn naive_node_cost(n_internal: usize, n_proposals: usize) -> usize {
        n_internal * (n_proposals + 1)
    }
}

/// Anything that can score a genealogy against fixed data.
pub trait LikelihoodEngine: Send + Sync {
    /// `ln P(D|G)`.
    fn log_likelihood(&self, tree: &GeneTree) -> Result<f64, PhyloError>;

    /// Score a whole proposal set against a generator genealogy.
    ///
    /// `backend` chooses where the proposal-parallel outer loop runs. The
    /// default implementation scores every tree independently with
    /// [`LikelihoodEngine::log_likelihood`] (no caching); engines that can
    /// exploit the φ-neighborhood structure override it.
    fn log_likelihood_batch(
        &self,
        backend: Backend,
        generator: &GeneTree,
        proposals: &[TreeProposal<'_>],
    ) -> Result<BatchEvaluation, PhyloError> {
        let generator_log_likelihood = self.log_likelihood(generator)?;
        let results = backend.map_slice(proposals, |proposal| self.log_likelihood(proposal.tree));
        let mut log_likelihoods = Vec::with_capacity(proposals.len());
        let mut nodes_repruned = 0;
        for (result, proposal) in results.into_iter().zip(proposals) {
            log_likelihoods.push(result?);
            nodes_repruned += proposal.tree.n_internal();
        }
        Ok(BatchEvaluation {
            generator_log_likelihood,
            log_likelihoods,
            nodes_repruned,
            nodes_full_pruned: generator.n_internal(),
            generator_cache_hit: false,
            matrix_cache_hits: 0,
            matrix_cache_misses: 0,
        })
    }

    /// Promote an accepted proposal into the engine's cached generator state
    /// (*commit-on-accept*): after a sampler accepts `accepted` (derived from
    /// `generator` by editing the nodes in `edited`), the engine may update
    /// its memoised workspace along the dirty path instead of letting the
    /// next batch evaluation rebuild it with a full prune.
    ///
    /// Returns `Ok(Some(n))` — `n` interior nodes recomputed — when the
    /// engine's cache now reflects `accepted`, and `Ok(None)` when the engine
    /// has no cache to promote (the next batch pays a full prune, exactly the
    /// pre-commit behaviour). Engines without caching keep the default no-op.
    fn commit_accepted(
        &self,
        _generator: &GeneTree,
        _accepted: &GeneTree,
        _edited: &[NodeId],
    ) -> Result<Option<usize>, PhyloError> {
        Ok(None)
    }

    /// The genealogy the engine's memoised generator workspace is currently
    /// keyed to, if any. This is checkpoint state: after a replica-exchange
    /// swap it is the *pre-swap* tree (the cache goes stale rather than
    /// being invalidated), so a resumed run must restore exactly this tree —
    /// not the chain's current tree — to reproduce the original run's cache
    /// hit/miss trajectory. Engines without a cache return `None`.
    fn cached_generator(&self) -> Option<GeneTree> {
        None
    }

    /// Restore the engine's memoised state to what it would be with its
    /// cache keyed to `tree` (`None` clears the cache). Because the
    /// incrementally maintained workspace for a tree is bit-identical to a
    /// fresh full build of the same tree (the commit-on-accept invariant),
    /// rebuilding from the checkpointed [`LikelihoodEngine::cached_generator`]
    /// reproduces the warm state exactly — no partials or matrices need
    /// serialising. Engines without a cache accept any argument as a no-op.
    fn prime_cache(&self, _tree: Option<&GeneTree>) -> Result<(), PhyloError> {
        Ok(())
    }
}

/// How the per-site work of the reference path is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One thread, pattern-compressed.
    #[default]
    Serial,
    /// Rayon data parallelism over patterns (the host-side analogue of the
    /// CUDA data-likelihood kernel).
    Parallel,
}

/// Which arithmetic kernel combines children's partial-likelihood rows (the
/// innermost loop of every evaluation). Selected at engine construction
/// ([`FelsensteinPruner::with_kernel`] / [`MultiLocusEngine::with_kernel`])
/// and surfaced to users as `SessionBuilder::kernel(..)` and the CLI's
/// `--kernel {scalar,simd,auto}` flag.
///
/// [`Kernel::Auto`] (the default) probes the CPU at startup and, on an
/// AVX2+FMA host, routes the combine loop through a variant compiled
/// specifically for those features — recovering the throughput a
/// `RUSTFLAGS="-C target-feature=+avx2,+fma"` build gets statically (see
/// [`Kernel::variant`]). All kernels implement identical per-pattern
/// rescaling; they agree to ≤1e-12 relative tolerance (the difference is
/// floating-point reassociation and FMA contraction in the two 4×4
/// matrix–vector products).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The portable node-outer/pattern-inner loop, autovectorised by the
    /// compiler where possible.
    Scalar,
    /// The explicit four-lane kernel over `phylo::simd::F64x4`: broadcast
    /// multiply–adds over column-major transition matrices, compiled at the
    /// crate's baseline feature level.
    Simd,
    /// Probe the CPU at runtime and pick the fastest kernel: the
    /// AVX2+FMA-multiversioned four-lane kernel when the host supports it,
    /// the baseline four-lane kernel otherwise.
    #[default]
    Auto,
}

/// The concrete combine-loop implementation a [`Kernel`] request resolves to
/// on this binary and this CPU ([`Kernel::variant`]). This is what perf
/// reports record: `Kernel::Auto` says what was *asked*, `KernelVariant`
/// says what *ran*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// The portable scalar loop.
    Scalar,
    /// The four-lane `F64x4` loop at the crate's baseline codegen features.
    Simd,
    /// The four-lane loop compiled for AVX2+FMA, selected after a runtime
    /// CPUID probe (only reachable from [`Kernel::Auto`] on a supporting
    /// x86-64 host).
    SimdFma,
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Simd => "simd",
            KernelVariant::SimdFma => "simd+avx2+fma",
        })
    }
}

impl KernelVariant {
    /// Run this variant's combine loop. Same contract as
    /// [`Kernel::combine_rows`], but with the dispatch already resolved —
    /// engines resolve once at construction and call this in the hot loop.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn combine_rows(
        self,
        scale_threshold: f64,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        pa: &[f64],
        pb: &[f64],
        sa: &[f64],
        sb: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        match self {
            KernelVariant::Scalar => combine_children_rows_scalar(
                scale_threshold,
                ma,
                mb,
                pa,
                pb,
                sa,
                sb,
                out_partials,
                out_scales,
            ),
            KernelVariant::Simd => crate::simd::combine_rows_f64x4(
                scale_threshold,
                ma,
                mb,
                pa,
                pb,
                sa,
                sb,
                out_partials,
                out_scales,
            ),
            KernelVariant::SimdFma => crate::simd::dispatch::combine_rows_avx2_fma(
                scale_threshold,
                ma,
                mb,
                pa,
                pb,
                sa,
                sb,
                out_partials,
                out_scales,
            ),
        }
    }

    /// `out = M·p` for every pattern of `p`, with exactly the per-lane
    /// arithmetic this variant's combine loop spends on one child: the
    /// off-path row a proposal set shares ([`KernelVariant::combine_half`]).
    #[inline]
    pub(crate) fn mat_vec_rows(self, m: &[[f64; 4]; 4], p: &[f64], out: &mut [f64]) {
        match self {
            KernelVariant::Scalar => {
                for (out, p) in out.chunks_exact_mut(4).zip(p.chunks_exact(4)) {
                    out.copy_from_slice(&mat_vec_scalar(m, p));
                }
            }
            KernelVariant::Simd => crate::simd::mat_vec_rows_f64x4(m, p, out),
            KernelVariant::SimdFma => crate::simd::dispatch::mat_vec_rows_avx2_fma(m, p, out),
        }
    }

    /// [`KernelVariant::combine_rows`] with the off-path child's `M·p`
    /// already in `off` (from [`KernelVariant::mat_vec_rows`]): one
    /// matrix–vector product for the on-path child, then the same Hadamard
    /// product, rescale and scale sum. Bit-identical to the full combine of
    /// the same two children in either order, because IEEE products and sums
    /// commute.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn combine_half(
        self,
        scale_threshold: f64,
        m_on: &[[f64; 4]; 4],
        p_on: &[f64],
        s_on: &[f64],
        off: &[f64],
        s_off: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        match self {
            KernelVariant::Scalar => combine_half_rows_scalar(
                scale_threshold,
                m_on,
                p_on,
                s_on,
                off,
                s_off,
                out_partials,
                out_scales,
            ),
            KernelVariant::Simd => crate::simd::combine_half_rows_f64x4(
                scale_threshold,
                m_on,
                p_on,
                s_on,
                off,
                s_off,
                out_partials,
                out_scales,
            ),
            KernelVariant::SimdFma => crate::simd::dispatch::combine_half_rows_avx2_fma(
                scale_threshold,
                m_on,
                p_on,
                s_on,
                off,
                s_off,
                out_partials,
                out_scales,
            ),
        }
    }
}

impl Kernel {
    /// Resolve this request to the concrete combine-loop implementation for
    /// this binary and this CPU. [`Kernel::Auto`] probes
    /// `is_x86_feature_detected!("avx2")`/`("fma")` (cached by `std`, so the
    /// resolution is cheap enough to repeat) and selects the
    /// AVX2+FMA-multiversioned loop when both are present.
    pub fn variant(self) -> KernelVariant {
        match self {
            Kernel::Scalar => KernelVariant::Scalar,
            Kernel::Simd => KernelVariant::Simd,
            Kernel::Auto => {
                if crate::simd::dispatch::avx2_fma_supported() {
                    KernelVariant::SimdFma
                } else {
                    KernelVariant::Simd
                }
            }
        }
    }

    /// Run this kernel's combine loop directly: merge two children's
    /// partial-likelihood rows (`pa`, `pb`, with cumulative log scales `sa`,
    /// `sb`) into the parent's row through the children's branch transition
    /// matrices, renormalising any pattern whose magnitude falls below
    /// `scale_threshold`.
    ///
    /// This is the low-level kernel seam: the engine dispatches every
    /// workspace build, dirty-path rescore and commit through it, the
    /// `crates/bench` kernel benchmark measures it in isolation, and an
    /// accelerator backend would replace exactly this contract. Rows are laid
    /// out `[pattern × 4]` with one scale per pattern: for `n` patterns
    /// (`n = out_scales.len()`), `pa`/`pb`/`out_partials` must hold at least
    /// `4 n` elements and `sa`/`sb` at least `n`. The kernel resolves
    /// [`Kernel::variant`] itself, so [`Kernel::Auto`] runs the fastest loop
    /// this host supports.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn combine_rows(
        self,
        scale_threshold: f64,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        pa: &[f64],
        pb: &[f64],
        sa: &[f64],
        sb: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        self.variant().combine_rows(
            scale_threshold,
            ma,
            mb,
            pa,
            pb,
            sa,
            sb,
            out_partials,
            out_scales,
        )
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
            Kernel::Auto => "auto",
        })
    }
}

impl FromStr for Kernel {
    type Err = String;

    /// Parse a CLI-style kernel name (`scalar`, `simd` or `auto`, case
    /// insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Kernel::Scalar),
            "simd" => Ok(Kernel::Simd),
            "auto" => Ok(Kernel::Auto),
            other => {
                Err(format!("unknown kernel {other:?} (expected \"scalar\", \"simd\" or \"auto\")"))
            }
        }
    }
}

/// The SIMD-relevant CPU features detected on this host at runtime, for perf
/// reports and the CLI's startup banner. Empty off x86/x86-64. The probe is
/// the safe `is_x86_feature_detected!` macro, independent of what the binary
/// was *compiled* for — compare with `cfg!(target_feature = ...)` to see the
/// compile-time side.
pub fn host_cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        for (name, detected) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if detected {
                features.push(name);
            }
        }
    }
    features
}

/// The effective branch length entering the substitution model: the raw
/// branch length scaled by the engine's relative mutation rate, clamped to
/// zero (coalescent time arithmetic can produce `-0.0` or tiny negative
/// differences). Every transition matrix in the crate — full prune,
/// dirty-path scratch fill, commit promotion, and the sequence simulator —
/// is keyed on this exact value, and the [`EdgeMatrixCache`] memoises on its
/// bit pattern, so the computation must not drift between call sites.
#[inline]
pub fn effective_branch_length(branch_length: f64, rate: f64) -> f64 {
    (branch_length * rate).max(0.0)
}

/// One pattern chunk of a [`LikelihoodWorkspace`]: structure-of-arrays
/// conditional-likelihood storage for every node over a contiguous range of
/// site patterns.
#[derive(Debug, Clone)]
struct PatternChunk {
    /// First pattern index covered by this chunk.
    start: usize,
    /// Number of patterns in this chunk.
    len: usize,
    /// Partial likelihoods, laid out `[node][pattern][4]` (node-major so the
    /// node-outer/pattern-inner loops stream contiguously).
    partials: Vec<f64>,
    /// Cumulative log scaling factored out of the subtree below each node,
    /// laid out `[node][pattern]` (Section 5.3 underflow protection).
    scales: Vec<f64>,
    /// Weighted `ln P(D|G)` contribution of this chunk's patterns.
    log_likelihood: f64,
}

impl PatternChunk {
    #[inline]
    fn partial_offset(&self, node: NodeId) -> usize {
        node * self.len * 4
    }

    #[inline]
    fn scale_offset(&self, node: NodeId) -> usize {
        node * self.len
    }
}

/// Per-workspace memo of branch transition matrices, keyed on the bit
/// pattern of each node's *effective branch length*
/// ([`effective_branch_length`]). A coalescent proposal retimes a handful of
/// nodes, so the overwhelming majority of edges keep their exact branch
/// length across evaluations — their matrices (a `transition_prob` call per
/// entry: `exp`, divisions, model-specific branching) need never be
/// recomputed. The cache is correct by construction: a transition matrix is
/// a pure function of the effective branch length, so a key match implies
/// value equality regardless of how the topology around the edge changed.
///
/// Lifecycle: built alongside the workspace (seeding from the previous
/// workspace's cache when the engine rebuilds after a generator swap),
/// consulted read-only by every dirty-path scratch fill (rescores of
/// different proposals run concurrently over one workspace), and promoted on
/// [`FelsensteinPruner::commit_to_cache`] alongside the partials — the
/// accepted proposal's recomputed edges overwrite their slots, every other
/// entry stays valid because its branch length did not change.
#[derive(Debug, Clone)]
pub struct EdgeMatrixCache {
    /// `effective_branch_length.to_bits()` per node; [`Self::NO_EDGE`] marks
    /// an empty slot. The sentinel is a NaN bit pattern, and
    /// [`effective_branch_length`] never returns NaN (`f64::max` discards a
    /// NaN operand), so no real key collides with it.
    keys: Vec<u64>,
    /// The memoised matrix per node, valid where `keys` is not the sentinel.
    matrices: Vec<[[f64; 4]; 4]>,
}

impl EdgeMatrixCache {
    const NO_EDGE: u64 = u64::MAX;

    /// An empty cache covering `n_nodes` tree nodes.
    pub fn with_nodes(n_nodes: usize) -> Self {
        EdgeMatrixCache {
            keys: vec![Self::NO_EDGE; n_nodes],
            matrices: vec![[[0.0; 4]; 4]; n_nodes],
        }
    }

    /// Number of tree nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.keys.len()
    }

    /// Number of populated entries.
    pub fn n_entries(&self) -> usize {
        self.keys.iter().filter(|&&k| k != Self::NO_EDGE).count()
    }

    /// The memoised matrix for `node` if its effective branch length still
    /// has the bit pattern `key`.
    #[inline]
    fn lookup(&self, node: NodeId, key: u64) -> Option<&[[f64; 4]; 4]> {
        (self.keys[node] == key).then(|| &self.matrices[node])
    }

    /// Memoise `matrix` as `node`'s transition matrix for the effective
    /// branch length with bit pattern `key`.
    #[inline]
    fn store(&mut self, node: NodeId, key: u64, matrix: [[f64; 4]; 4]) {
        self.keys[node] = key;
        self.matrices[node] = matrix;
    }
}

/// Reusable pattern-major partial-likelihood storage for one genealogy: the
/// cached state the batched engine's dirty-path evaluations read from.
#[derive(Debug, Clone)]
pub struct LikelihoodWorkspace {
    n_nodes: usize,
    n_patterns: usize,
    chunks: Vec<PatternChunk>,
    /// Weighted total `ln P(D|G)` over all patterns.
    log_likelihood: f64,
    /// Memoised per-edge transition matrices for the genealogy this
    /// workspace was built from (see [`EdgeMatrixCache`]).
    edge_matrices: EdgeMatrixCache,
}

impl LikelihoodWorkspace {
    /// Number of tree nodes the workspace stores partials for.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of compressed site patterns covered.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Number of pattern chunks (the unit of pattern-level parallelism).
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The `ln P(D|G)` of the genealogy this workspace was built from.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// The per-edge transition-matrix memo attached to this workspace.
    pub fn edge_matrices(&self) -> &EdgeMatrixCache {
        &self.edge_matrices
    }
}

/// The cached generator state the engine keeps between batch evaluations.
#[derive(Debug)]
struct GeneratorCache {
    tree: GeneTree,
    workspace: LikelihoodWorkspace,
    /// The shared path of the latest proposal set scored against this
    /// workspace, kept so its buffers are reused from batch to batch.
    shared: SharedPath,
}

impl GeneratorCache {
    fn new(tree: GeneTree, workspace: LikelihoodWorkspace) -> Self {
        GeneratorCache { tree, workspace, shared: SharedPath::default() }
    }
}

/// One dirty node's combine in a planned rescore. A full combine reads both
/// children `a` and `b`; a half combine (`off_row` set) reads the on-path
/// child `a` and takes the clean off-path child `b`'s `M_b·p_b` from row
/// `off_row` of the set's [`SharedPath`].
#[derive(Debug, Clone, Copy)]
struct Combine {
    node: NodeId,
    a: NodeId,
    b: NodeId,
    off_row: Option<usize>,
}

/// Per-thread scratch for dirty-path evaluations, pooled so the hot loop
/// performs zero heap allocations per rescore once warm. The marker vectors
/// (`dirty_mark`, `dirty_index`, `matrices`) are kept in their neutral state
/// between calls by targeted cleanup over the (small) dirty set, so reuse
/// costs O(path), not O(nodes).
#[derive(Debug, Default)]
struct RescoreScratch {
    /// `true` for nodes in the current dirty set, indexed by node id.
    dirty_mark: Vec<bool>,
    /// Slot of each dirty node in the overlay buffers (`usize::MAX` = clean).
    dirty_index: Vec<usize>,
    /// The dirty nodes below the shared path (all of them when there is
    /// none) as `(depth-from-root, node)`, sorted children-first.
    dirty: Vec<(usize, NodeId)>,
    /// The planned combines, children before parents; combine `i` writes
    /// overlay slot `i`.
    plan: Vec<Combine>,
    /// Transition matrices for the children of dirty nodes.
    matrices: Vec<Option<[[f64; 4]; 4]>>,
    /// Overlay partial likelihoods, `[dirty-slot × PATTERN_CHUNK × 4]`.
    overlay_partials: Vec<f64>,
    /// Overlay log scales, `[dirty-slot × PATTERN_CHUNK]`.
    overlay_scales: Vec<f64>,
}

impl RescoreScratch {
    /// Grow the node-indexed vectors to cover `n_nodes` and the overlay
    /// buffers to cover `n_dirty` slots. Growth never shrinks, so a warmed-up
    /// thread allocates nothing.
    fn reserve(&mut self, n_nodes: usize, n_dirty: usize) {
        if self.dirty_mark.len() < n_nodes {
            self.dirty_mark.resize(n_nodes, false);
            self.dirty_index.resize(n_nodes, usize::MAX);
            self.matrices.resize(n_nodes, None);
        }
        if self.overlay_partials.len() < n_dirty * PATTERN_CHUNK * 4 {
            self.overlay_partials.resize(n_dirty * PATTERN_CHUNK * 4, 0.0);
            self.overlay_scales.resize(n_dirty * PATTERN_CHUNK, 0.0);
        }
    }
}

thread_local! {
    static RESCORE_SCRATCH: RefCell<RescoreScratch> = RefCell::new(RescoreScratch::default());
}

/// The part of a proposal set's dirty paths that every member shares. All
/// N proposals of a GMH iteration edit the same φ-neighbourhood (φ and its
/// parent), so the path from φ's grandparent to the root, the clean
/// off-path child of each node on it and those children's edge matrices are
/// the same for every member. [`SharedPath::prepare`] finds the path once
/// per set, from one reference member, and computes each clean off-path
/// child's `M_off·p_off` once per pattern chunk; every member's plan then
/// combines those nodes with [`KernelVariant::combine_half`]. A member
/// whose tree leaves the path (another parent above the neighbourhood) is
/// planned without it, and a node whose off-path edge length differs from
/// the shared row's falls back to the full combine, so the shared path
/// never changes a result.
#[derive(Debug, Default)]
struct SharedPath {
    /// Whether each node is on the path, indexed by node id.
    on_path: Vec<bool>,
    /// The path's nodes, children first.
    nodes: Vec<SharedNode>,
    /// Number of off-path rows per pattern chunk.
    n_rows: usize,
    /// The off-path rows, `[chunk × row × PATTERN_CHUNK × 4]`.
    rows: Vec<f64>,
}

/// One node of a [`SharedPath`], as the reference member has it.
#[derive(Debug, Clone, Copy)]
struct SharedNode {
    node: NodeId,
    parent: Option<NodeId>,
    edges: [SharedEdge; 2],
    /// The clean child's index in `edges` and its off-path row, when
    /// exactly one child is clean.
    off: Option<(usize, usize)>,
}

/// A child edge of a [`SharedNode`]: the child, its [`EdgeMatrixCache`]
/// key, its transition matrix and whether the workspace's cache held it.
#[derive(Debug, Clone, Copy)]
struct SharedEdge {
    child: NodeId,
    key: u64,
    matrix: [[f64; 4]; 4],
    hit: bool,
}

impl SharedPath {
    /// Find the path that `reference`'s edit `edited` shares with every
    /// member making the same edit, and compute its off-path rows over
    /// `workspace` with `pruner`'s kernel. The path stays empty when
    /// `reference` does not match the workspace's arena or its edit
    /// includes the root.
    fn prepare<M: SubstitutionModel>(
        &mut self,
        pruner: &FelsensteinPruner<M>,
        workspace: &LikelihoodWorkspace,
        reference: &GeneTree,
        edited: &[NodeId],
    ) {
        let n_nodes = workspace.n_nodes();
        self.nodes.clear();
        self.n_rows = 0;
        self.on_path.clear();
        self.on_path.resize(n_nodes, false);
        if reference.n_nodes() != n_nodes {
            return;
        }
        RESCORE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.reserve(n_nodes, 0);
            mark_dirty_below(reference, edited, None, scratch);
            // Parents first: a dirty node is on the path when it is not
            // edited and its parent, if any, is on the path.
            for &(_, node) in scratch.dirty.iter().rev() {
                let parent = reference.parent(node);
                if edited.contains(&node) || parent.is_some_and(|p| !self.on_path[p]) {
                    continue;
                }
                self.on_path[node] = true;
                let (a, b) = reference.children(node).expect("dirty nodes are interior");
                let edges = [a, b].map(|child| {
                    let key = edge_key(reference, child, pruner.rate);
                    let cache = Some(&workspace.edge_matrices);
                    let (matrix, hit) = edge_matrix(&pruner.model, cache, child, key);
                    SharedEdge { child, key, matrix, hit }
                });
                let off = match [a, b].map(|child| scratch.dirty_mark[child]) {
                    [true, false] => Some(1),
                    [false, true] => Some(0),
                    _ => None,
                }
                .map(|edge| {
                    self.n_rows += 1;
                    (edge, self.n_rows - 1)
                });
                self.nodes.push(SharedNode { node, parent, edges, off });
            }
            for &(_, node) in &scratch.dirty {
                scratch.dirty_mark[node] = false;
            }
        });
        self.nodes.reverse();

        // Grow only: every row a member reads is rewritten below.
        let width = PATTERN_CHUNK * 4;
        let needed = workspace.chunks.len() * self.n_rows * width;
        if self.rows.len() < needed {
            self.rows.resize(needed, 0.0);
        }
        for (c, chunk) in workspace.chunks.iter().enumerate() {
            for node in &self.nodes {
                if let Some((edge, row)) = node.off {
                    let SharedEdge { child, matrix, .. } = node.edges[edge];
                    let po = chunk.partial_offset(child);
                    let start = (c * self.n_rows + row) * width;
                    pruner.variant.mat_vec_rows(
                        &matrix,
                        &chunk.partials[po..po + chunk.len * 4],
                        &mut self.rows[start..start + chunk.len * 4],
                    );
                }
            }
        }
    }

    /// Off-path row `row` of pattern chunk `chunk`, over `len` patterns.
    #[inline]
    fn row(&self, chunk: usize, row: usize, len: usize) -> &[f64] {
        let start = (chunk * self.n_rows + row) * PATTERN_CHUNK * 4;
        &self.rows[start..start + len * 4]
    }
}

/// The proposal set's common edit when the batch can share one path: at
/// least two members edit nodes and all of them list the same nodes (members
/// with an empty edit equal the generator and need no path). Returns a
/// reference member and the edit.
fn shared_edit<'a>(proposals: &[TreeProposal<'a>]) -> Option<(&'a GeneTree, &'a [NodeId])> {
    let mut editing = proposals.iter().filter(|proposal| !proposal.edited.is_empty());
    let first = editing.next()?;
    let mut members = 1;
    for proposal in editing {
        if proposal.edited != first.edited {
            return None;
        }
        members += 1;
    }
    (members >= 2).then_some((first.tree, first.edited))
}

/// Number of edges between `node` and the root.
fn depth_from_root(tree: &GeneTree, node: NodeId) -> usize {
    let mut depth = 0;
    let mut cursor = node;
    while let Some(parent) = tree.parent(cursor) {
        depth += 1;
        cursor = parent;
    }
    depth
}

/// The [`EdgeMatrixCache`] key of `child`'s edge: the bit pattern of its
/// effective branch length.
#[inline]
fn edge_key(tree: &GeneTree, child: NodeId, rate: f64) -> u64 {
    let t = tree.branch_length(child).expect("child of an interior node");
    effective_branch_length(t, rate).to_bits()
}

/// The transition matrix of `child`'s edge with key `key`, served from
/// `cache` where it holds that key, and whether it did (a hit).
#[inline]
fn edge_matrix<M: SubstitutionModel>(
    model: &M,
    cache: Option<&EdgeMatrixCache>,
    child: NodeId,
    key: u64,
) -> ([[f64; 4]; 4], bool) {
    match cache.and_then(|cache| cache.lookup(child, key)) {
        Some(matrix) => (*matrix, true),
        None => (model.transition_matrix(f64::from_bits(key)), false),
    }
}

/// Mark the dirty nodes of `tree` for the given edit that lie below
/// `shared`'s path: walk up from every edited node, marking each interior
/// node, until a node already marked or on the path (a changed node time
/// also changes the branch to its parent, so without a path the walk marks
/// every edited interior node and all of its ancestors). Fills `dirty` with
/// the marked nodes as `(depth, node)`, sorted children-before-parents.
fn mark_dirty_below(
    tree: &GeneTree,
    edited: &[NodeId],
    shared: Option<&SharedPath>,
    scratch: &mut RescoreScratch,
) {
    let on_path = |node: NodeId| shared.is_some_and(|shared| shared.on_path[node]);
    scratch.dirty.clear();
    for &edit in edited {
        let mut cursor = Some(edit);
        while let Some(node) = cursor {
            if !tree.is_tip(node) {
                if scratch.dirty_mark[node] || on_path(node) {
                    break;
                }
                scratch.dirty_mark[node] = true;
                // mpcgs-analyze: allow(r2, reason = "pooled scratch: the vec is cleared, never dropped, so capacity is retained across rescores and no realloc happens once warm")
                scratch.dirty.push((depth_from_root(tree, node), node));
            }
            cursor = tree.parent(node);
        }
    }
    // Children-before-parents: a parent is strictly closer to the root than
    // any of its descendants, so descending depth is a topological order.
    scratch.dirty.sort_unstable_by(|a, b| b.cmp(a));
}

/// Plan the dirty-path rescore of `tree` for the given edit into
/// `scratch.plan`, children before parents: the dirty nodes below `shared`'s
/// path with full combines, then the path's own nodes, each a half combine
/// where its clean off-path child and that child's edge key match the
/// shared row. Fills `dirty_index` with each node's overlay slot and
/// `matrices` with the transition matrices of the children of dirty nodes —
/// from the path's edges where the key matches, else served from
/// `edge_matrices` where the child's effective branch length is unchanged,
/// recomputed otherwise. The cache is read-only here (rescores of different
/// proposals run concurrently over one workspace); only `commit_to_cache`
/// promotes. When `tree` does not share the path, plans again without it.
/// Returns `(cache hits, cache misses)` over the child matrices, the same
/// with or without a path. The three node-indexed vectors must be in their
/// neutral state on entry; `clear_dirty_marks` restores it.
fn plan_rescore<M: SubstitutionModel>(
    model: &M,
    rate: f64,
    tree: &GeneTree,
    edited: &[NodeId],
    edge_matrices: Option<&EdgeMatrixCache>,
    shared: Option<&SharedPath>,
    scratch: &mut RescoreScratch,
) -> (usize, usize) {
    mark_dirty_below(tree, edited, shared, scratch);
    let RescoreScratch { dirty_mark, dirty_index, dirty, plan, matrices, .. } = &mut *scratch;
    plan.clear();
    let mut hits = 0;
    let mut misses = 0;
    for &(_, node) in dirty.iter() {
        let (a, b) = tree.children(node).expect("dirty nodes are interior");
        dirty_index[node] = plan.len();
        // mpcgs-analyze: allow(r2, reason = "pooled scratch: the vec is cleared, never dropped, so capacity is retained across rescores and no realloc happens once warm")
        plan.push(Combine { node, a, b, off_row: None });
        for child in [a, b] {
            let (matrix, hit) =
                edge_matrix(model, edge_matrices, child, edge_key(tree, child, rate));
            matrices[child] = Some(matrix);
            hits += usize::from(hit);
            misses += usize::from(!hit);
        }
    }
    // `tree` shares the path when every node on it keeps its parent (so the
    // path's top is still the root, and a walk that passed the root without
    // meeting the path shows up here) and is dirty (one of its children is).
    let mut fits = true;
    for node in shared.map_or(&[][..], |shared| &shared.nodes[..]) {
        let children = tree.children(node.node);
        let Some((a, b)) = children.filter(|&(a, b)| {
            tree.parent(node.node) == node.parent && (dirty_mark[a] || dirty_mark[b])
        }) else {
            fits = false;
            break;
        };
        dirty_mark[node.node] = true;
        dirty_index[node.node] = plan.len();
        let mut combine = Combine { node: node.node, a, b, off_row: None };
        for child in [a, b] {
            let key = edge_key(tree, child, rate);
            let edge = node.edges.iter().position(|e| e.child == child && e.key == key);
            let (matrix, hit) = match edge {
                Some(e) => (node.edges[e].matrix, node.edges[e].hit),
                None => edge_matrix(model, edge_matrices, child, key),
            };
            matrices[child] = Some(matrix);
            hits += usize::from(hit);
            misses += usize::from(!hit);
            if let Some((off, row)) = node.off {
                if edge == Some(off) && !dirty_mark[child] {
                    let on = if child == a { b } else { a };
                    combine = Combine { node: node.node, a: on, b: child, off_row: Some(row) };
                }
            }
        }
        // mpcgs-analyze: allow(r2, reason = "pooled scratch: the vec is cleared, never dropped, so capacity is retained across rescores and no realloc happens once warm")
        plan.push(combine);
    }
    if fits {
        (hits, misses)
    } else {
        clear_dirty_marks(scratch);
        plan_rescore(model, rate, tree, edited, edge_matrices, None, scratch)
    }
}

/// Undo `plan_rescore`'s writes so the scratch is neutral for the next
/// rescore on this thread. O(dirty set), not O(nodes).
fn clear_dirty_marks(scratch: &mut RescoreScratch) {
    let RescoreScratch { dirty_mark, dirty_index, plan, matrices, .. } = scratch;
    for combine in plan.iter() {
        dirty_mark[combine.node] = false;
        dirty_index[combine.node] = usize::MAX;
        matrices[combine.a] = None;
        matrices[combine.b] = None;
    }
}

/// The outcome of scoring a single edited tree against a cached workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirtyEvaluation {
    /// `ln P(D|G̃)` of the edited tree.
    pub log_likelihood: f64,
    /// Interior nodes recomputed (the edited nodes plus the path to the
    /// root); the rest were reused from the workspace.
    pub nodes_repruned: usize,
    /// Child transition matrices served from the workspace's
    /// [`EdgeMatrixCache`] (the edge's effective branch length matched).
    pub matrix_cache_hits: usize,
    /// Child transition matrices recomputed because the edit changed the
    /// edge's effective branch length (or the slot was empty).
    pub matrix_cache_misses: usize,
}

/// Felsenstein-pruning likelihood engine bound to one alignment and one
/// substitution model.
#[derive(Debug)]
pub struct FelsensteinPruner<M> {
    model: M,
    patterns: SitePatterns,
    /// Map from sequence name to row index in the patterns. Ordered so no
    /// iteration over it can ever depend on a per-process hash seed.
    name_to_row: std::collections::BTreeMap<String, usize>,
    mode: ExecutionMode,
    kernel: Kernel,
    /// The concrete combine loop `kernel` resolved to at construction
    /// ([`Kernel::variant`]), cached so the hot loops skip the CPU probe.
    variant: KernelVariant,
    /// Relative mutation rate: every branch length is multiplied by this
    /// before entering the substitution model, so a locus with rate `r` is
    /// scored against `θ·r` (LAMARC's per-locus driving value).
    rate: f64,
    /// Scaling threshold below which partial likelihoods are renormalised.
    scale_threshold: f64,
    /// Memoised generator workspace for the batched engine. Guarded by a
    /// mutex so the engine stays `Sync`; the workspace is taken out for the
    /// duration of an evaluation and put back afterwards.
    cache: Mutex<Option<GeneratorCache>>,
}

impl<M: Clone> Clone for FelsensteinPruner<M> {
    fn clone(&self) -> Self {
        FelsensteinPruner {
            model: self.model.clone(),
            patterns: self.patterns.clone(),
            name_to_row: self.name_to_row.clone(),
            mode: self.mode,
            kernel: self.kernel,
            variant: self.variant,
            rate: self.rate,
            scale_threshold: self.scale_threshold,
            // Caches are per-engine working state, not semantics: a clone
            // starts cold.
            cache: Mutex::new(None),
        }
    }
}

impl<M: SubstitutionModel> FelsensteinPruner<M> {
    /// Create an engine for the given alignment and model.
    pub fn new(alignment: &Alignment, model: M) -> Self {
        let patterns = SitePatterns::from_alignment(alignment);
        let name_to_row =
            alignment.names().iter().enumerate().map(|(i, name)| (name.to_string(), i)).collect();
        FelsensteinPruner {
            model,
            patterns,
            name_to_row,
            mode: ExecutionMode::Serial,
            kernel: Kernel::default(),
            variant: Kernel::default().variant(),
            rate: 1.0,
            scale_threshold: 1e-100,
            cache: Mutex::new(None),
        }
    }

    /// Select the relative mutation rate: every branch length is multiplied
    /// by `rate` before transition matrices are built, scoring this engine's
    /// locus against `θ·rate`. Rate 1.0 (the default) is bit-identical to an
    /// unscaled engine. Callers validate the rate
    /// ([`crate::Locus::with_rate`] enforces finite and > 0); the engine
    /// clears its cached workspace because cached partials embed the old
    /// rate.
    pub fn with_relative_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self.clear_cache();
        self
    }

    /// The relative mutation rate in use.
    pub fn relative_rate(&self) -> f64 {
        self.rate
    }

    /// Select the execution mode: [`ExecutionMode::Parallel`] runs the
    /// reference path pattern-parallel and upgrades the batched engine's
    /// backend to rayon whatever the caller passes.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The execution mode in use.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Select the combine kernel ([`Kernel::Auto`], the default, probes the
    /// CPU). The request is resolved to its concrete [`KernelVariant`] here,
    /// once.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self.variant = kernel.variant();
        self
    }

    /// The configured combine kernel (as requested; see
    /// [`FelsensteinPruner::kernel_variant`] for what actually runs).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The concrete combine loop the configured kernel resolved to on this
    /// binary and CPU.
    pub fn kernel_variant(&self) -> KernelVariant {
        self.variant
    }

    /// The substitution model in use.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of compressed site patterns.
    pub fn n_patterns(&self) -> usize {
        self.patterns.n_patterns()
    }

    /// Number of sites in the source alignment.
    pub fn n_sites(&self) -> usize {
        self.patterns.n_sites()
    }

    /// Number of sequences.
    pub fn n_sequences(&self) -> usize {
        self.patterns.n_sequences()
    }

    /// An estimate of the floating point work of one evaluation, used by the
    /// device cost model: per pattern, each interior node combines two
    /// children with a 4×4 matrix-vector product.
    pub fn work_per_evaluation(&self, tree: &GeneTree) -> u64 {
        let per_node = 2 * 4 * 4 * 2; // two children, 4x4 products, mul+add
        (self.patterns.n_patterns() as u64) * (tree.n_internal() as u64) * per_node as u64
    }

    /// Map the tree's tips to pattern rows, by tip label.
    fn tip_rows(&self, tree: &GeneTree) -> Result<Vec<Option<usize>>, PhyloError> {
        let mut rows = vec![None; tree.n_nodes()];
        for tip in tree.tips() {
            let label = tree.label(tip).unwrap_or_default();
            let row =
                self.name_to_row.get(label).copied().ok_or_else(|| PhyloError::InvalidNode {
                    node: tip,
                    message: format!("tip label {label:?} not present in the alignment"),
                })?;
            rows[tip] = Some(row);
        }
        Ok(rows)
    }

    fn check_tree(&self, tree: &GeneTree) -> Result<(), PhyloError> {
        if tree.n_tips() != self.n_sequences() {
            return Err(PhyloError::InvalidTree {
                message: format!(
                    "tree has {} tips but the alignment has {} sequences",
                    tree.n_tips(),
                    self.n_sequences()
                ),
            });
        }
        Ok(())
    }

    /// Per-branch transition matrices for every node of `tree`, with branch
    /// lengths scaled by the engine's relative rate. Fresh computation, no
    /// memo — this is the reference path's oracle, kept independent of the
    /// [`EdgeMatrixCache`] so equivalence tests compare against uncached
    /// arithmetic.
    fn transition_matrices(&self, tree: &GeneTree) -> Vec<Option<[[f64; 4]; 4]>> {
        (0..tree.n_nodes())
            .map(|node| {
                tree.branch_length(node)
                    .map(|t| self.model.transition_matrix(effective_branch_length(t, self.rate)))
            })
            .collect()
    }

    /// Per-branch transition matrices for every node of `tree`, served from
    /// `seed` (a previous workspace's [`EdgeMatrixCache`]) where the node's
    /// effective branch length is unchanged. Returns the matrices, the fresh
    /// cache describing exactly this tree, and the `(hits, misses)` counts.
    #[allow(clippy::type_complexity)]
    fn transition_matrices_cached(
        &self,
        tree: &GeneTree,
        seed: Option<&EdgeMatrixCache>,
    ) -> (Vec<Option<[[f64; 4]; 4]>>, EdgeMatrixCache, usize, usize) {
        let n_nodes = tree.n_nodes();
        let mut cache = EdgeMatrixCache::with_nodes(n_nodes);
        let seed = seed.filter(|seed| seed.n_nodes() == n_nodes);
        let mut hits = 0;
        let mut misses = 0;
        let matrices = (0..n_nodes)
            .map(|node| {
                tree.branch_length(node).map(|t| {
                    let eff = effective_branch_length(t, self.rate);
                    let key = eff.to_bits();
                    let matrix = match seed.and_then(|seed| seed.lookup(node, key)) {
                        Some(matrix) => {
                            hits += 1;
                            *matrix
                        }
                        None => {
                            misses += 1;
                            self.model.transition_matrix(eff)
                        }
                    };
                    cache.store(node, key, matrix);
                    matrix
                })
            })
            .collect();
        (matrices, cache, hits, misses)
    }

    // ------------------------------------------------------------------
    // Reference path: pattern-outer pruning, the oracle for the fast path.
    // ------------------------------------------------------------------

    /// Per-pattern log likelihoods (ordered as the patterns are), computed by
    /// the reference pattern-outer recursion.
    pub fn pattern_log_likelihoods(&self, tree: &GeneTree) -> Result<Vec<f64>, PhyloError> {
        self.check_tree(tree)?;
        let tip_rows = self.tip_rows(tree)?;
        let order = tree.post_order();
        // Precompute per-branch transition matrices (shared across patterns).
        let matrices = self.transition_matrices(tree);

        let compute_pattern = |pattern: &[Nucleotide]| -> f64 {
            self.prune_one_pattern(tree, &order, &matrices, &tip_rows, pattern)
        };

        let result: Vec<f64> = match self.mode {
            ExecutionMode::Serial => (0..self.patterns.n_patterns())
                .map(|i| compute_pattern(self.patterns.pattern(i)))
                .collect(),
            ExecutionMode::Parallel => (0..self.patterns.n_patterns())
                .into_par_iter()
                .map(|i| compute_pattern(self.patterns.pattern(i)))
                .collect(),
        };
        Ok(result)
    }

    fn prune_one_pattern(
        &self,
        tree: &GeneTree,
        order: &[NodeId],
        matrices: &[Option<[[f64; 4]; 4]>],
        tip_rows: &[Option<usize>],
        pattern: &[Nucleotide],
    ) -> f64 {
        let n = tree.n_nodes();
        let mut partial = vec![[0.0f64; 4]; n];
        let mut log_scale = 0.0f64;
        for &node in order {
            if let Some(row) = tip_rows[node] {
                let observed = pattern[row];
                let mut vec = [0.0; 4];
                vec[observed.index()] = 1.0;
                partial[node] = vec;
            } else {
                let (a, b) = tree.children(node).expect("interior node");
                let ma = matrices[a].expect("non-root child has a branch");
                let mb = matrices[b].expect("non-root child has a branch");
                let pa = partial[a];
                let pb = partial[b];
                let mut vec = [0.0; 4];
                let mut max = 0.0f64;
                for x in 0..4 {
                    let mut sum_a = 0.0;
                    let mut sum_b = 0.0;
                    for y in 0..4 {
                        sum_a += ma[x][y] * pa[y];
                        sum_b += mb[x][y] * pb[y];
                    }
                    let v = sum_a * sum_b;
                    vec[x] = v;
                    if v > max {
                        max = v;
                    }
                }
                // Rescale to avoid underflow on deep trees (Section 5.3).
                if max > 0.0 && max < self.scale_threshold {
                    for v in &mut vec {
                        *v /= max;
                    }
                    log_scale += max.ln();
                }
                partial[node] = vec;
            }
        }
        let root = tree.root();
        let freqs = self.model.base_frequencies();
        let site_likelihood: f64 =
            Nucleotide::ALL.iter().map(|&x| freqs.freq(x) * partial[root][x.index()]).sum();
        if site_likelihood <= 0.0 {
            f64::NEG_INFINITY
        } else {
            site_likelihood.ln() + log_scale
        }
    }

    /// `ln P(D|G)` by the reference path (per-site likelihoods expanded back
    /// to alignment order are not needed by the samplers; this returns the
    /// weighted total directly).
    pub fn log_likelihood(&self, tree: &GeneTree) -> Result<f64, PhyloError> {
        let per_pattern = self.pattern_log_likelihoods(tree)?;
        Ok(per_pattern.iter().zip(self.patterns.weights()).map(|(lnl, &w)| lnl * w as f64).sum())
    }

    // ------------------------------------------------------------------
    // Batched engine: workspace build + dirty-path rescoring.
    // ------------------------------------------------------------------

    /// Build a full [`LikelihoodWorkspace`] for `tree`, with the pattern
    /// chunks evaluated on `backend`.
    pub fn build_workspace(
        &self,
        backend: Backend,
        tree: &GeneTree,
    ) -> Result<LikelihoodWorkspace, PhyloError> {
        self.build_workspace_seeded(backend, tree, None).map(|(workspace, _, _)| workspace)
    }

    /// [`FelsensteinPruner::build_workspace`], seeding the transition
    /// matrices from a previous workspace's [`EdgeMatrixCache`]. Returns the
    /// workspace plus the matrix-cache `(hits, misses)` of the build: after
    /// a generator swap most branch lengths usually differ, so a genuinely
    /// new tree scores ~zero hits, while a rebuild of a lightly edited tree
    /// reuses almost everything.
    fn build_workspace_seeded(
        &self,
        backend: Backend,
        tree: &GeneTree,
        seed: Option<&EdgeMatrixCache>,
    ) -> Result<(LikelihoodWorkspace, usize, usize), PhyloError> {
        self.check_tree(tree)?;
        let tip_rows = self.tip_rows(tree)?;
        let order = tree.post_order();
        let (matrices, edge_matrices, hits, misses) = self.transition_matrices_cached(tree, seed);

        let n_patterns = self.patterns.n_patterns();
        let n_chunks = n_patterns.div_ceil(PATTERN_CHUNK).max(1);
        let chunks: Vec<PatternChunk> = backend.map_indexed(n_chunks, |c| {
            let start = c * PATTERN_CHUNK;
            let len = PATTERN_CHUNK.min(n_patterns - start);
            self.build_chunk(tree, &order, &matrices, &tip_rows, start, len)
        });
        let log_likelihood = chunks.iter().map(|chunk| chunk.log_likelihood).sum();
        Ok((
            LikelihoodWorkspace {
                n_nodes: tree.n_nodes(),
                n_patterns,
                chunks,
                log_likelihood,
                edge_matrices,
            },
            hits,
            misses,
        ))
    }

    /// Fill one pattern chunk by a node-outer/pattern-inner full prune.
    fn build_chunk(
        &self,
        tree: &GeneTree,
        order: &[NodeId],
        matrices: &[Option<[[f64; 4]; 4]>],
        tip_rows: &[Option<usize>],
        start: usize,
        len: usize,
    ) -> PatternChunk {
        let n_nodes = tree.n_nodes();
        let mut chunk = PatternChunk {
            start,
            len,
            partials: vec![0.0; n_nodes * len * 4],
            scales: vec![0.0; n_nodes * len],
            log_likelihood: 0.0,
        };
        for &node in order {
            if let Some(row) = tip_rows[node] {
                let offset = chunk.partial_offset(node);
                for p in 0..len {
                    let observed = self.patterns.pattern(start + p)[row];
                    chunk.partials[offset + p * 4 + observed.index()] = 1.0;
                }
                // Tip scales stay zero.
            } else {
                let (a, b) = tree.children(node).expect("interior node");
                let ma = matrices[a].expect("non-root child has a branch");
                let mb = matrices[b].expect("non-root child has a branch");
                self.combine_in_chunk(&mut chunk, &ma, &mb, node, a, b);
            }
        }
        chunk.log_likelihood = self.chunk_root_log_likelihood(
            &chunk.partials[chunk.partial_offset(tree.root())..],
            &chunk.scales[chunk.scale_offset(tree.root())..],
            start,
            len,
        );
        chunk
    }

    /// The node-outer/pattern-inner kernel: combine two children's partial
    /// rows into the parent's row through the branch transition matrices,
    /// rescaling per pattern where the magnitude drops below the threshold.
    /// Dispatches through the [`KernelVariant`] resolved at construction.
    #[allow(clippy::too_many_arguments)]
    fn combine_children_rows(
        &self,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        pa: &[f64],
        pb: &[f64],
        sa: &[f64],
        sb: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        self.variant.combine_rows(
            self.scale_threshold,
            ma,
            mb,
            pa,
            pb,
            sa,
            sb,
            out_partials,
            out_scales,
        );
    }

    /// Combine children `a` and `b` of `node` into `node`'s own rows of
    /// `chunk`, in place: the chunk is split around the parent's row, so
    /// the children's rows are read where they are stored.
    fn combine_in_chunk(
        &self,
        chunk: &mut PatternChunk,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        node: NodeId,
        a: NodeId,
        b: NodeId,
    ) {
        let width = chunk.len * 4;
        let (pa, pb, out_partials) = rows_around(&mut chunk.partials, width, node, a, b);
        let (sa, sb, out_scales) = rows_around(&mut chunk.scales, chunk.len, node, a, b);
        self.combine_children_rows(ma, mb, pa, pb, sa, sb, out_partials, out_scales);
    }

    /// Weighted `ln P(D|G)` contribution of one chunk given the root's
    /// partial and scale rows.
    fn chunk_root_log_likelihood(
        &self,
        root_partials: &[f64],
        root_scales: &[f64],
        start: usize,
        len: usize,
    ) -> f64 {
        let freqs = self.model.base_frequencies();
        let weights = self.patterns.weights();
        let mut total = 0.0;
        for p in 0..len {
            let row = &root_partials[p * 4..p * 4 + 4];
            let site_likelihood: f64 =
                Nucleotide::ALL.iter().map(|&x| freqs.freq(x) * row[x.index()]).sum();
            let lnl = if site_likelihood <= 0.0 {
                f64::NEG_INFINITY
            } else {
                site_likelihood.ln() + root_scales[p]
            };
            total += lnl * weights[start + p] as f64;
        }
        total
    }

    /// Score an edited tree against a cached generator workspace, recomputing
    /// only the edited nodes and the path from them to the root.
    pub fn rescore_with_workspace(
        &self,
        workspace: &LikelihoodWorkspace,
        proposal: &GeneTree,
        edited: &[NodeId],
    ) -> Result<DirtyEvaluation, PhyloError> {
        self.rescore_in_set(workspace, None, proposal, edited)
    }

    /// [`FelsensteinPruner::rescore_with_workspace`] for one member of a
    /// proposal set, taking the off-path rows of the set's `shared` path
    /// wherever the member's tree matches them (see [`SharedPath`]). The
    /// result is bit-identical with or without the path.
    fn rescore_in_set(
        &self,
        workspace: &LikelihoodWorkspace,
        shared: Option<&SharedPath>,
        proposal: &GeneTree,
        edited: &[NodeId],
    ) -> Result<DirtyEvaluation, PhyloError> {
        if proposal.n_nodes() != workspace.n_nodes() {
            return Err(PhyloError::InvalidTree {
                // mpcgs-analyze: allow(r2, reason = "cold validation-failure arm: allocates only when the rescore is already aborting with an error")
                message: format!(
                    "proposal has {} nodes but the cached workspace covers {}",
                    proposal.n_nodes(),
                    workspace.n_nodes()
                ),
            });
        }
        if edited.is_empty() {
            return Ok(DirtyEvaluation {
                log_likelihood: workspace.log_likelihood,
                nodes_repruned: 0,
                matrix_cache_hits: 0,
                matrix_cache_misses: 0,
            });
        }

        let n_nodes = proposal.n_nodes();
        RESCORE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.reserve(n_nodes, 0);
            let (matrix_cache_hits, matrix_cache_misses) = plan_rescore(
                &self.model,
                self.rate,
                proposal,
                edited,
                Some(&workspace.edge_matrices),
                shared,
                scratch,
            );
            let n_dirty = scratch.plan.len();
            scratch.reserve(n_nodes, n_dirty);

            let root = proposal.root();
            debug_assert!(scratch.dirty_mark[root], "the dirty path always reaches the root");
            let mut total = 0.0;
            {
                // Split the scratch into its independent buffers. The plan
                // is ordered children-first, so every dirty child's overlay
                // slot precedes its parent's: splitting the overlay at the
                // parent's slot separates the rows the combine reads from
                // the slot it writes, and the kernel writes the parent
                // straight into its overlay slot.
                let RescoreScratch {
                    plan,
                    dirty_index,
                    matrices,
                    overlay_partials,
                    overlay_scales,
                    ..
                } = &mut *scratch;
                for (c, chunk) in workspace.chunks.iter().enumerate() {
                    let len = chunk.len;
                    for (di, combine) in plan.iter().enumerate() {
                        let Combine { a, b, .. } = *combine;
                        debug_assert!(
                            [a, b]
                                .iter()
                                .all(|&c| dirty_index[c] == usize::MAX || dirty_index[c] < di),
                            "dirty children precede their parent"
                        );
                        let ma = matrices[a].expect("children of dirty nodes have matrices");
                        let (done_partials, slot_partials) =
                            overlay_partials.split_at_mut(di * PATTERN_CHUNK * 4);
                        let (done_scales, slot_scales) =
                            overlay_scales.split_at_mut(di * PATTERN_CHUNK);
                        let (pa, sa) =
                            read_rows(chunk, done_partials, done_scales, dirty_index, a, len);
                        let out_partials = &mut slot_partials[..len * 4];
                        let out_scales = &mut slot_scales[..len];
                        if let (Some(row), Some(shared)) = (combine.off_row, shared) {
                            // `b` is clean: its scales are the workspace's.
                            let so = chunk.scale_offset(b);
                            self.variant.combine_half(
                                self.scale_threshold,
                                &ma,
                                pa,
                                sa,
                                shared.row(c, row, len),
                                &chunk.scales[so..so + len],
                                out_partials,
                                out_scales,
                            );
                        } else {
                            let mb = matrices[b].expect("children of dirty nodes have matrices");
                            let (pb, sb) =
                                read_rows(chunk, done_partials, done_scales, dirty_index, b, len);
                            self.combine_children_rows(
                                &ma,
                                &mb,
                                pa,
                                pb,
                                sa,
                                sb,
                                out_partials,
                                out_scales,
                            );
                        }
                    }
                    let root_slot = dirty_index[root];
                    total += self.chunk_root_log_likelihood(
                        &overlay_partials[root_slot * PATTERN_CHUNK * 4..],
                        &overlay_scales[root_slot * PATTERN_CHUNK..],
                        chunk.start,
                        len,
                    );
                }
            }
            clear_dirty_marks(scratch);
            Ok(DirtyEvaluation {
                log_likelihood: total,
                nodes_repruned: n_dirty,
                matrix_cache_hits,
                matrix_cache_misses,
            })
        })
    }

    /// Promote an accepted proposal into the memoised generator workspace:
    /// recompute the dirty-path partials *in place* in the cached chunks
    /// (children before parents, exactly the arithmetic a full prune performs
    /// on those nodes, so the committed workspace is bit-identical to a fresh
    /// build of `accepted`) and re-key the cache to the accepted tree.
    ///
    /// Returns the number of interior nodes recomputed, or `None` when there
    /// is no cached workspace keyed to `generator` (the next batch evaluation
    /// rebuilds from scratch, the pre-commit behaviour).
    pub fn commit_to_cache(
        &self,
        generator: &GeneTree,
        accepted: &GeneTree,
        edited: &[NodeId],
    ) -> Result<Option<usize>, PhyloError> {
        let mut slot = self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cache = match slot.as_mut() {
            Some(cache) if cache.tree == *generator => cache,
            _ => return Ok(None),
        };
        if accepted.n_nodes() != cache.workspace.n_nodes() {
            return Err(PhyloError::InvalidTree {
                message: format!(
                    "accepted tree has {} nodes but the cached workspace covers {}",
                    accepted.n_nodes(),
                    cache.workspace.n_nodes()
                ),
            });
        }
        if edited.is_empty() {
            cache.tree = accepted.clone();
            return Ok(Some(0));
        }

        let n_nodes = accepted.n_nodes();
        let n_dirty = RESCORE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.reserve(n_nodes, 0);
            plan_rescore(
                &self.model,
                self.rate,
                accepted,
                edited,
                Some(&cache.workspace.edge_matrices),
                None,
                scratch,
            );
            let RescoreScratch { plan, matrices, .. } = &mut *scratch;
            for chunk in &mut cache.workspace.chunks {
                let len = chunk.len;
                for &Combine { node, a, b, .. } in plan.iter() {
                    let ma = matrices[a].expect("children of dirty nodes have matrices");
                    let mb = matrices[b].expect("children of dirty nodes have matrices");
                    self.combine_in_chunk(chunk, &ma, &mb, node, a, b);
                }
                chunk.log_likelihood = self.chunk_root_log_likelihood(
                    &chunk.partials[chunk.partial_offset(accepted.root())..],
                    &chunk.scales[chunk.scale_offset(accepted.root())..],
                    chunk.start,
                    len,
                );
            }
            // Promote alongside the partials: re-key every child edge of the
            // dirty path in the workspace's matrix memo. These are exactly
            // the edges whose branch lengths the edit can have changed (a
            // retimed node moves its own branch and its children's branches,
            // and both endpoints of such an edge are on the dirty path), so
            // after this loop every memo entry again matches its node's
            // effective branch length in `accepted`.
            for &Combine { a, b, .. } in plan.iter() {
                for child in [a, b] {
                    let key = edge_key(accepted, child, self.rate);
                    let matrix = matrices[child].expect("children of dirty nodes have matrices");
                    cache.workspace.edge_matrices.store(child, key, matrix);
                }
            }
            let n_dirty = plan.len();
            clear_dirty_marks(scratch);
            n_dirty
        });
        cache.workspace.log_likelihood =
            cache.workspace.chunks.iter().map(|chunk| chunk.log_likelihood).sum();
        cache.tree = accepted.clone();
        Ok(Some(n_dirty))
    }

    /// Drop the memoised generator workspace (mainly useful for measuring
    /// cold-path behaviour).
    pub fn clear_cache(&self) {
        *self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }
}

/// The portable scalar combine kernel: per pattern, two 4×4 matrix–vector
/// products, a Hadamard product, and the underflow rescale.
#[inline]
#[allow(clippy::too_many_arguments)]
fn combine_children_rows_scalar(
    scale_threshold: f64,
    ma: &[[f64; 4]; 4],
    mb: &[[f64; 4]; 4],
    pa: &[f64],
    pb: &[f64],
    sa: &[f64],
    sb: &[f64],
    out_partials: &mut [f64],
    out_scales: &mut [f64],
) {
    for p in 0..out_scales.len() {
        let va = mat_vec_scalar(ma, &pa[p * 4..p * 4 + 4]);
        let vb = mat_vec_scalar(mb, &pb[p * 4..p * 4 + 4]);
        store_scalar_row(scale_threshold, va, &vb, sa[p] + sb[p], p, out_partials, out_scales);
    }
}

/// [`combine_children_rows_scalar`] with the off-path child's `M·p`
/// precomputed in `off` (see [`KernelVariant::combine_half`]).
#[inline]
#[allow(clippy::too_many_arguments)]
fn combine_half_rows_scalar(
    scale_threshold: f64,
    m_on: &[[f64; 4]; 4],
    p_on: &[f64],
    s_on: &[f64],
    off: &[f64],
    s_off: &[f64],
    out_partials: &mut [f64],
    out_scales: &mut [f64],
) {
    for p in 0..out_scales.len() {
        let v_on = mat_vec_scalar(m_on, &p_on[p * 4..p * 4 + 4]);
        let v_off = &off[p * 4..p * 4 + 4];
        store_scalar_row(
            scale_threshold,
            v_on,
            v_off,
            s_on[p] + s_off[p],
            p,
            out_partials,
            out_scales,
        );
    }
}

/// `M·p` for one pattern in the scalar kernel's order: per row, a sum from
/// zero over `y = 0..4`.
#[inline(always)]
fn mat_vec_scalar(m: &[[f64; 4]; 4], p: &[f64]) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for (out, row) in out.iter_mut().zip(m) {
        let mut sum = 0.0;
        for y in 0..4 {
            sum += row[y] * p[y];
        }
        *out = sum;
    }
    out
}

/// The scalar kernel's per-pattern tail: the Hadamard product of the two
/// children's `M·p`, the underflow rescale, and the store of pattern `p`.
#[inline(always)]
fn store_scalar_row(
    scale_threshold: f64,
    va: [f64; 4],
    vb: &[f64],
    mut scale: f64,
    p: usize,
    out_partials: &mut [f64],
    out_scales: &mut [f64],
) {
    let mut vec = [0.0f64; 4];
    let mut max = 0.0f64;
    for x in 0..4 {
        let v = va[x] * vb[x];
        vec[x] = v;
        if v > max {
            max = v;
        }
    }
    if max > 0.0 && max < scale_threshold {
        for v in &mut vec {
            *v /= max;
        }
        scale += max.ln();
    }
    out_partials[p * 4..p * 4 + 4].copy_from_slice(&vec);
    out_scales[p] = scale;
}

/// Split a buffer of `width`-element rows, one per node, into shared
/// borrows of rows `a` and `b` and an exclusive borrow of row `target`
/// (which must differ from both).
fn rows_around(
    buf: &mut [f64],
    width: usize,
    target: NodeId,
    a: NodeId,
    b: NodeId,
) -> (&[f64], &[f64], &mut [f64]) {
    let (before, rest) = buf.split_at_mut(target * width);
    let (out, after) = rest.split_at_mut(width);
    let (before, after) = (&*before, &*after);
    let row = |node: NodeId| -> &[f64] {
        if node < target {
            &before[node * width..(node + 1) * width]
        } else {
            &after[(node - target - 1) * width..(node - target) * width]
        }
    };
    (row(a), row(b), out)
}

/// Borrow node `node`'s partial and scale rows for `len` patterns, from the
/// overlay when the node is dirty and from the cached chunk otherwise.
fn read_rows<'a>(
    chunk: &'a PatternChunk,
    overlay_partials: &'a [f64],
    overlay_scales: &'a [f64],
    dirty_index: &[usize],
    node: NodeId,
    len: usize,
) -> (&'a [f64], &'a [f64]) {
    let di = dirty_index[node];
    if di == usize::MAX {
        let po = chunk.partial_offset(node);
        let so = chunk.scale_offset(node);
        (&chunk.partials[po..po + len * 4], &chunk.scales[so..so + len])
    } else {
        (
            &overlay_partials[di * PATTERN_CHUNK * 4..di * PATTERN_CHUNK * 4 + len * 4],
            &overlay_scales[di * PATTERN_CHUNK..di * PATTERN_CHUNK + len],
        )
    }
}

impl<M: SubstitutionModel> LikelihoodEngine for FelsensteinPruner<M> {
    fn log_likelihood(&self, tree: &GeneTree) -> Result<f64, PhyloError> {
        FelsensteinPruner::log_likelihood(self, tree)
    }

    /// The batched, dirty-path-cached evaluation: the generator is pruned in
    /// full at most once (and reused from the memo when it is unchanged since
    /// the previous call), then every proposal recomputes only its edited
    /// nodes and the path from them to the root. The proposal-parallel outer
    /// loop runs on `backend`; inside, patterns are walked chunk by chunk.
    fn log_likelihood_batch(
        &self,
        backend: Backend,
        generator: &GeneTree,
        proposals: &[TreeProposal<'_>],
    ) -> Result<BatchEvaluation, PhyloError> {
        // `with_mode(Parallel)` asks for site-parallel evaluation regardless
        // of how the caller schedules the outer loop: upgrade the backend so
        // the knob keeps meaning what it meant on the reference path. The
        // device backend schedules (and accounts) its own queue, so it is
        // never silently replaced — device dispatch wins over the mode knob.
        let backend = match self.mode {
            ExecutionMode::Parallel if !backend.is_device() => Backend::Rayon,
            _ => backend,
        };
        // Reuse the memoised workspace when the generator is unchanged; on a
        // hit the cache entry (tree key included) is kept intact so nothing
        // is cloned on the hot path.
        let taken = { self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take() };
        let (mut cache, generator_cache_hit, mut matrix_cache_hits, mut matrix_cache_misses) =
            match taken {
                Some(cache) if cache.tree == *generator => (cache, true, 0, 0),
                stale => {
                    // A rebuild seeds its edge matrices from the stale
                    // workspace: after `replace_state` swapped in an
                    // unrelated tree nearly everything misses, but a
                    // rebuild of a near-identical generator reuses most
                    // edges.
                    let seed = stale.as_ref().map(|cache| &cache.workspace.edge_matrices);
                    let (workspace, hits, misses) =
                        self.build_workspace_seeded(backend, generator, seed)?;
                    (GeneratorCache::new(generator.clone(), workspace), false, hits, misses)
                }
            };
        let nodes_full_pruned = if generator_cache_hit { 0 } else { generator.n_internal() };

        // One logical device thread per (proposal, pattern) pair (see the
        // profiled grid dispatch in `MultiLocusEngine::log_likelihood_batch`;
        // this is the single-locus degenerate case of the same submission).
        let profile = exec::GridProfile::pruning(
            proposals.len() * self.n_patterns(),
            generator.n_internal(),
            generator.n_nodes(),
            generator.n_tips(),
        );
        // A set whose members share one edit shares the path above it: its
        // order, edge matrices and off-path rows are computed once here.
        let set = shared_edit(proposals);
        if let Some((reference, edited)) = set {
            cache.shared.prepare(self, &cache.workspace, reference, edited);
        }
        let GeneratorCache { workspace, shared, .. } = &cache;
        let shared = set.map(|_| shared);
        let results = backend.map_grid_profiled(Some(&profile), 1, proposals.len(), |_, p| {
            let proposal = &proposals[p];
            self.rescore_in_set(workspace, shared, proposal.tree, proposal.edited)
        });

        let generator_log_likelihood = cache.workspace.log_likelihood;
        // Put the cache back for the next evaluation against the same
        // generator (e.g. rejected moves).
        {
            let mut slot = self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *slot = Some(cache);
        }

        let mut log_likelihoods = Vec::with_capacity(proposals.len());
        let mut nodes_repruned = 0;
        for result in results {
            let eval = result?;
            log_likelihoods.push(eval.log_likelihood);
            nodes_repruned += eval.nodes_repruned;
            matrix_cache_hits += eval.matrix_cache_hits;
            matrix_cache_misses += eval.matrix_cache_misses;
        }
        Ok(BatchEvaluation {
            generator_log_likelihood,
            log_likelihoods,
            nodes_repruned,
            nodes_full_pruned,
            generator_cache_hit,
            matrix_cache_hits,
            matrix_cache_misses,
        })
    }

    /// Commit-on-accept: promote the accepted proposal's dirty path into the
    /// memoised generator workspace (see
    /// [`FelsensteinPruner::commit_to_cache`]).
    fn commit_accepted(
        &self,
        generator: &GeneTree,
        accepted: &GeneTree,
        edited: &[NodeId],
    ) -> Result<Option<usize>, PhyloError> {
        self.commit_to_cache(generator, accepted, edited)
    }

    fn cached_generator(&self) -> Option<GeneTree> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|c| c.tree.clone())
    }

    /// Rebuild the memoised workspace for `tree` from scratch (serially, so
    /// the result is backend-independent) and install it. A full build of a
    /// tree bitwise-equals the incrementally maintained warm workspace for
    /// that tree — partials by the commit-on-accept invariant, edge-matrix
    /// keys because the memo is re-keyed to describe exactly the cached tree
    /// on every commit, and the matrices because they are pure functions of
    /// the key bits — so this restores checkpointed engine state exactly.
    fn prime_cache(&self, tree: Option<&GeneTree>) -> Result<(), PhyloError> {
        let cache = match tree {
            None => None,
            Some(tree) => {
                let workspace = self.build_workspace(Backend::Serial, tree)?;
                Some(GeneratorCache::new(tree.clone(), workspace))
            }
        };
        *self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = cache;
        Ok(())
    }
}

/// A likelihood engine over a multi-locus [`Dataset`]: one pattern-compressed
/// [`FelsensteinPruner`] (and therefore one cached [`LikelihoodWorkspace`])
/// per locus, with every evaluation batched (locus × proposal) through the
/// same dirty-path machinery and the per-locus log likelihoods summed —
/// LAMARC's multi-locus θ estimation, where unlinked loci contribute
/// independent data likelihoods for the same driving parameter.
///
/// With a single locus the engine is numerically bit-identical to the bare
/// pruner: every result is a one-term sum. Clones start with cold caches
/// (see [`FelsensteinPruner`]'s `Clone`).
#[derive(Debug, Clone)]
pub struct MultiLocusEngine<M> {
    names: Vec<String>,
    engines: Vec<FelsensteinPruner<M>>,
}

impl<M: SubstitutionModel> MultiLocusEngine<M> {
    /// Build an engine for `dataset`, instantiating one substitution model
    /// per locus through `model_for` (so e.g. empirical base frequencies can
    /// be estimated per locus). Each per-locus pruner inherits its locus's
    /// relative mutation rate ([`crate::Locus::with_rate`]), so a locus with
    /// rate `r` is scored against `θ·r`.
    pub fn new(dataset: &Dataset, model_for: impl Fn(&Alignment) -> M) -> Self {
        let mut names = Vec::with_capacity(dataset.n_loci());
        let mut engines = Vec::with_capacity(dataset.n_loci());
        for locus in dataset.loci() {
            names.push(locus.name().to_string());
            engines.push(
                FelsensteinPruner::new(locus.alignment(), model_for(locus.alignment()))
                    .with_relative_rate(locus.relative_rate()),
            );
        }
        MultiLocusEngine { names, engines }
    }

    /// Select the execution mode of every per-locus pruner.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.engines = self.engines.into_iter().map(|e| e.with_mode(mode)).collect();
        self
    }

    /// Select the combine kernel of every per-locus pruner.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.engines = self.engines.into_iter().map(|e| e.with_kernel(kernel)).collect();
        self
    }

    /// Number of loci.
    pub fn n_loci(&self) -> usize {
        self.engines.len()
    }

    /// The locus names, in dataset order.
    pub fn locus_names(&self) -> &[String] {
        &self.names
    }

    /// The per-locus pruners, in dataset order.
    pub fn locus_engines(&self) -> &[FelsensteinPruner<M>] {
        &self.engines
    }

    /// `ln P(D_l|G)` for each locus separately (the terms
    /// [`LikelihoodEngine::log_likelihood`] sums).
    pub fn log_likelihood_per_locus(&self, tree: &GeneTree) -> Result<Vec<f64>, PhyloError> {
        self.engines.iter().map(|e| e.log_likelihood(tree)).collect()
    }

    /// Drop every locus's memoised generator workspace.
    pub fn clear_cache(&self) {
        for engine in &self.engines {
            engine.clear_cache();
        }
    }
}

impl<M: SubstitutionModel> LikelihoodEngine for MultiLocusEngine<M> {
    /// `ln P(D|G) = Σ_l ln P(D_l|G)` — unlinked loci are independent given
    /// the genealogy's driving parameter.
    fn log_likelihood(&self, tree: &GeneTree) -> Result<f64, PhyloError> {
        let mut total = 0.0;
        for engine in &self.engines {
            total += engine.log_likelihood(tree)?;
        }
        Ok(total)
    }

    /// Batch the whole (locus × proposal) grid through **one** flattened
    /// backend dispatch: every locus's generator workspace is first served
    /// from its memo or rebuilt (the per-locus workspace shard), then all
    /// `n_loci × n_proposals` dirty-path rescores are mapped in a single
    /// [`Backend::map_grid`] call and the per-locus log likelihoods summed
    /// element-wise. Compared with walking loci serially (each with its own
    /// proposal-parallel inner batch), the flat grid keeps every worker busy
    /// even when loci are short and proposals are few — many small loci
    /// saturate the backend exactly the way many proposals do.
    ///
    /// Work counters aggregate across loci; the generator counts as cached
    /// only when every locus's workspace was served from its memo.
    fn log_likelihood_batch(
        &self,
        backend: Backend,
        generator: &GeneTree,
        proposals: &[TreeProposal<'_>],
    ) -> Result<BatchEvaluation, PhyloError> {
        // `with_mode(Parallel)` upgrades the backend exactly as the per-locus
        // engines would (see `FelsensteinPruner::log_likelihood_batch`); the
        // device backend is never silently replaced.
        let backend = match self.engines.first().map(FelsensteinPruner::mode) {
            Some(ExecutionMode::Parallel) if !backend.is_device() => Backend::Rayon,
            _ => backend,
        };

        // Phase 1 — shard acquisition: take every locus's memoised generator
        // workspace, rebuilding the stale or missing ones. Rebuilds run their
        // pattern chunks on `backend`; the common sampler case (unchanged
        // generator) is a cheap memo hit for every locus.
        let mut shards = Vec::with_capacity(self.engines.len());
        let mut nodes_full_pruned = 0;
        let mut generator_cache_hit = true;
        let mut matrix_cache_hits = 0;
        let mut matrix_cache_misses = 0;
        for engine in &self.engines {
            let taken = { engine.cache.lock().expect("likelihood cache poisoned").take() };
            let cache = match taken {
                Some(cache) if cache.tree == *generator => cache,
                stale => {
                    nodes_full_pruned += generator.n_internal();
                    generator_cache_hit = false;
                    let seed = stale.as_ref().map(|cache| &cache.workspace.edge_matrices);
                    let (workspace, hits, misses) =
                        engine.build_workspace_seeded(backend, generator, seed)?;
                    matrix_cache_hits += hits;
                    matrix_cache_misses += misses;
                    GeneratorCache::new(generator.clone(), workspace)
                }
            };
            shards.push(cache);
        }
        let generator_log_likelihood =
            shards.iter().map(|cache| cache.workspace.log_likelihood).sum();

        // Phase 2 — one flattened dispatch over the (locus × proposal) grid.
        // The submission is profiled as the kernel launch it stands for: one
        // logical device thread per (proposal, pattern) pair across every
        // locus — the paper's one-thread-per-(proposal, site) mapping on
        // pattern-compressed data — so the device backend's occupancy and
        // latency-hiding accounting sees the (locus × proposal ×
        // pattern-chunk) thread count, not the closure-grid size. Serial and
        // rayon ignore the profile entirely.
        let n_proposals = proposals.len();
        let total_patterns: usize = self.engines.iter().map(FelsensteinPruner::n_patterns).sum();
        let profile = exec::GridProfile::pruning(
            n_proposals * total_patterns,
            generator.n_internal(),
            generator.n_nodes(),
            generator.n_tips(),
        );
        // A set sharing one edit shares the path above it in every locus;
        // each locus computes its own off-path rows (edge lengths scale by
        // the locus's rate) once, before the dispatch.
        let set = shared_edit(proposals);
        if let Some((reference, edited)) = set {
            for (engine, shard) in self.engines.iter().zip(&mut shards) {
                shard.shared.prepare(engine, &shard.workspace, reference, edited);
            }
        }
        let shards_ref = &shards;
        let results = backend.map_grid_profiled(
            Some(&profile),
            self.engines.len(),
            n_proposals,
            |locus, p| {
                let proposal = &proposals[p];
                let shard = &shards_ref[locus];
                self.engines[locus].rescore_in_set(
                    &shard.workspace,
                    set.map(|_| &shard.shared),
                    proposal.tree,
                    proposal.edited,
                )
            },
        );

        // Phase 3 — return every shard to its engine's memo, then reduce the
        // grid to per-proposal sums (unlinked loci: log likelihoods add).
        for (engine, cache) in self.engines.iter().zip(shards) {
            let mut slot = engine.cache.lock().expect("likelihood cache poisoned");
            *slot = Some(cache);
        }
        let mut total = BatchEvaluation {
            generator_log_likelihood,
            log_likelihoods: vec![0.0; n_proposals],
            nodes_repruned: 0,
            nodes_full_pruned,
            generator_cache_hit,
            matrix_cache_hits,
            matrix_cache_misses,
        };
        for (cell, result) in results.into_iter().enumerate() {
            let eval = result?;
            total.log_likelihoods[cell % n_proposals.max(1)] += eval.log_likelihood;
            total.nodes_repruned += eval.nodes_repruned;
            total.matrix_cache_hits += eval.matrix_cache_hits;
            total.matrix_cache_misses += eval.matrix_cache_misses;
        }
        Ok(total)
    }

    /// Commit the accepted move into every locus's cached workspace. Returns
    /// the total interior nodes recomputed across loci, or `None` if any
    /// locus had no cache to promote (the loci that did commit stay
    /// committed; the others rebuild on the next batch).
    fn commit_accepted(
        &self,
        generator: &GeneTree,
        accepted: &GeneTree,
        edited: &[NodeId],
    ) -> Result<Option<usize>, PhyloError> {
        let mut total = 0usize;
        let mut all = true;
        for engine in &self.engines {
            match engine.commit_to_cache(generator, accepted, edited)? {
                Some(nodes) => total += nodes,
                None => all = false,
            }
        }
        Ok(if all { Some(total) } else { None })
    }

    /// The per-locus caches move in lockstep (every batch rebuilds or serves
    /// all of them against the same generator, and commits promote all or
    /// roll the stragglers forward on the next batch), so the first locus
    /// speaks for the ensemble.
    fn cached_generator(&self) -> Option<GeneTree> {
        self.engines.first().and_then(LikelihoodEngine::cached_generator)
    }

    fn prime_cache(&self, tree: Option<&GeneTree>) -> Result<(), PhyloError> {
        for engine in &self.engines {
            engine.prime_cache(tree)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseFrequencies, Jc69, F81};
    use crate::tree::TreeBuilder;

    fn two_tip_tree(t1: f64, t2: f64, height: f64) -> GeneTree {
        let mut b = TreeBuilder::new();
        let x = b.add_tip("x", height - t1);
        let y = b.add_tip("y", height - t2);
        b.join(x, y, height);
        b.build().unwrap()
    }

    #[test]
    fn two_tip_likelihood_matches_analytic_formula() {
        // Alignment: x = A, y = G, one site. lnL = ln(sum_z pi_z P_zA(t1) P_zG(t2)).
        let alignment = Alignment::from_letters(&[("x", "A"), ("y", "G")]).unwrap();
        let model = Jc69::new();
        let (t1, t2) = (0.3, 0.5);
        let tree = two_tip_tree(t1, t2, 0.5);
        let pruner = FelsensteinPruner::new(&alignment, model);
        let lnl = pruner.log_likelihood(&tree).unwrap();

        let model = Jc69::new();
        let expected: f64 = Nucleotide::ALL
            .iter()
            .map(|&z| {
                0.25 * model.transition_prob(z, Nucleotide::A, t1)
                    * model.transition_prob(z, Nucleotide::G, t2)
            })
            .sum::<f64>()
            .ln();
        assert!((lnl - expected).abs() < 1e-12, "{lnl} vs {expected}");
    }

    #[test]
    fn multi_site_likelihood_is_sum_of_site_terms() {
        let alignment = Alignment::from_letters(&[("x", "AG"), ("y", "GG")]).unwrap();
        let tree = two_tip_tree(0.2, 0.2, 0.2);
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let total = pruner.log_likelihood(&tree).unwrap();

        let single_a = Alignment::from_letters(&[("x", "A"), ("y", "G")]).unwrap();
        let single_b = Alignment::from_letters(&[("x", "G"), ("y", "G")]).unwrap();
        let la = FelsensteinPruner::new(&single_a, Jc69::new()).log_likelihood(&tree).unwrap();
        let lb = FelsensteinPruner::new(&single_b, Jc69::new()).log_likelihood(&tree).unwrap();
        assert!((total - (la + lb)).abs() < 1e-12);
    }

    #[test]
    fn pattern_compression_matches_per_site_recomputation() {
        // Repeat the same columns many times: compressed and uncompressed
        // answers must agree exactly (weights multiply the log term).
        let alignment = Alignment::from_letters(&[
            ("x", "AAAAGGGGAAAA"),
            ("y", "AAAAGGGGAAAT"),
            ("z", "AAAAGGGAAAAT"),
        ])
        .unwrap();
        let mut b = TreeBuilder::new();
        let x = b.add_tip("x", 0.0);
        let y = b.add_tip("y", 0.0);
        let z = b.add_tip("z", 0.0);
        let v = b.join(x, y, 0.1);
        b.join(v, z, 0.4);
        let tree = b.build().unwrap();

        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        assert!(pruner.n_patterns() < alignment.n_sites());
        let compressed = pruner.log_likelihood(&tree).unwrap();

        // Manual per-site sum using single-column alignments.
        let mut manual = 0.0;
        for site in 0..alignment.n_sites() {
            let col: Vec<(usize, String)> = alignment
                .sequences()
                .iter()
                .map(|s| s.base(site).to_char().to_string())
                .enumerate()
                .collect();
            let single = Alignment::from_letters(
                &col.iter()
                    .map(|(i, c)| (alignment.sequence(*i).name(), c.as_str()))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            manual += FelsensteinPruner::new(&single, Jc69::new()).log_likelihood(&tree).unwrap();
        }
        assert!((compressed - manual).abs() < 1e-10, "{compressed} vs {manual}");
    }

    #[test]
    fn parallel_mode_matches_serial_mode() {
        let alignment = Alignment::from_letters(&[
            ("a", "ACGTACGTAACCGGTTACGT"),
            ("b", "ACGTACGAAACCGGTTACGA"),
            ("c", "ACGAACGTAACCGGTAACGT"),
            ("d", "TCGTACGTAACCGGTTACGT"),
        ])
        .unwrap();
        let mut builder = TreeBuilder::new();
        let a = builder.add_tip("a", 0.0);
        let b = builder.add_tip("b", 0.0);
        let c = builder.add_tip("c", 0.0);
        let d = builder.add_tip("d", 0.0);
        let ab = builder.join(a, b, 0.05);
        let cd = builder.join(c, d, 0.08);
        builder.join(ab, cd, 0.2);
        let tree = builder.build().unwrap();

        let serial =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
        let parallel = serial.clone().with_mode(ExecutionMode::Parallel);
        assert_eq!(parallel.mode(), ExecutionMode::Parallel);
        let l1 = serial.log_likelihood(&tree).unwrap();
        let l2 = parallel.log_likelihood(&tree).unwrap();
        assert!((l1 - l2).abs() < 1e-12);
        assert!(l1.is_finite() && l1 < 0.0);
    }

    #[test]
    fn identical_sequences_prefer_short_trees() {
        let alignment =
            Alignment::from_letters(&[("x", "ACGTACGTAC"), ("y", "ACGTACGTAC")]).unwrap();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let short = pruner.log_likelihood(&two_tip_tree(0.01, 0.01, 0.01)).unwrap();
        let long = pruner.log_likelihood(&two_tip_tree(1.0, 1.0, 1.0)).unwrap();
        assert!(short > long, "identical sequences should favour shorter trees: {short} vs {long}");
    }

    #[test]
    fn divergent_sequences_prefer_longer_trees() {
        let alignment =
            Alignment::from_letters(&[("x", "ACGTACGTAC"), ("y", "GTACGTACGT")]).unwrap();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let short = pruner.log_likelihood(&two_tip_tree(0.01, 0.01, 0.01)).unwrap();
        let long = pruner.log_likelihood(&two_tip_tree(1.0, 1.0, 1.0)).unwrap();
        assert!(long > short, "divergent sequences should favour longer trees");
    }

    #[test]
    fn base_frequency_informed_model_beats_mismatched_frequencies() {
        // AT-rich data: an F81 model with matching frequencies should assign
        // higher likelihood than one with complementary (GC-rich) frequencies.
        let alignment =
            Alignment::from_letters(&[("x", "AATTATAATT"), ("y", "AATTATATTT")]).unwrap();
        let tree = two_tip_tree(0.1, 0.1, 0.1);
        let matched =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()))
                .log_likelihood(&tree)
                .unwrap();
        let mismatched = FelsensteinPruner::new(
            &alignment,
            F81::normalized(BaseFrequencies::new(0.05, 0.45, 0.45, 0.05).unwrap()),
        )
        .log_likelihood(&tree)
        .unwrap();
        assert!(matched > mismatched);
    }

    #[test]
    fn errors_are_reported_for_mismatched_trees() {
        let alignment = Alignment::from_letters(&[("x", "ACGT"), ("y", "ACGA")]).unwrap();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());

        // Tip label not in the alignment.
        let mut b = TreeBuilder::new();
        let p = b.add_tip("x", 0.0);
        let q = b.add_tip("unknown", 0.0);
        b.join(p, q, 1.0);
        let bad_labels = b.build().unwrap();
        assert!(pruner.log_likelihood(&bad_labels).is_err());
        assert!(pruner.build_workspace(Backend::Serial, &bad_labels).is_err());

        // Wrong number of tips.
        let mut b = TreeBuilder::new();
        let p = b.add_tip("x", 0.0);
        let q = b.add_tip("y", 0.0);
        let r = b.add_tip("z", 0.0);
        let pq = b.join(p, q, 1.0);
        b.join(pq, r, 2.0);
        let too_many = b.build().unwrap();
        assert!(pruner.log_likelihood(&too_many).is_err());
        assert!(pruner.build_workspace(Backend::Serial, &too_many).is_err());
    }

    #[test]
    fn deep_trees_do_not_underflow() {
        // 16 identical long sequences on a tall caterpillar tree: the naive
        // product of per-node terms would underflow; the log-domain result
        // must stay finite.
        let letters = "ACGT".repeat(50);
        let names: Vec<String> = (0..16).map(|i| format!("s{i}")).collect();
        let pairs: Vec<(&str, &str)> =
            names.iter().map(|n| (n.as_str(), letters.as_str())).collect();
        let alignment = Alignment::from_letters(&pairs).unwrap();

        let mut b = TreeBuilder::new();
        let tips: Vec<_> = names.iter().map(|n| b.add_tip(n.clone(), 0.0)).collect();
        let mut acc = tips[0];
        for (i, &tip) in tips.iter().enumerate().skip(1) {
            acc = b.join(acc, tip, 5.0 * i as f64);
        }
        let tree = b.build().unwrap();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let lnl = pruner.log_likelihood(&tree).unwrap();
        assert!(lnl.is_finite());
        assert!(lnl < 0.0);

        // The workspace path applies the same per-pattern rescaling and must
        // agree with the reference result.
        let ws = pruner.build_workspace(Backend::Serial, &tree).unwrap();
        assert!((ws.log_likelihood() - lnl).abs() < 1e-10, "{} vs {lnl}", ws.log_likelihood());
    }

    #[test]
    fn work_estimate_scales_with_patterns_and_nodes() {
        let alignment = Alignment::from_letters(&[("x", "ACGTACGT"), ("y", "ACGAACGA")]).unwrap();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let tree = two_tip_tree(0.1, 0.1, 0.1);
        let w = pruner.work_per_evaluation(&tree);
        assert_eq!(w, (pruner.n_patterns() as u64) * 64);
        assert_eq!(pruner.n_sites(), 8);
        assert_eq!(pruner.n_sequences(), 2);
        assert_eq!(pruner.model().name(), "JC69");
    }

    // ------------------------------------------------------------------
    // Batched engine tests.
    // ------------------------------------------------------------------

    /// A deterministic five-tip alignment/tree fixture for batch tests.
    fn five_tip_fixture() -> (Alignment, GeneTree) {
        let alignment = Alignment::from_letters(&[
            ("t0", "ACGTACGTAACCGGTTACGTTGCA"),
            ("t1", "ACGTACGAAACCGGTTACGATGCA"),
            ("t2", "ACGAACGTAACCGGTAACGTTGCC"),
            ("t3", "TCGTACGTAACCGGTTACGTAGCA"),
            ("t4", "TCGTACGTTACCGGTTACGTAGGA"),
        ])
        .unwrap();
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let t2 = b.add_tip("t2", 0.0);
        let t3 = b.add_tip("t3", 0.0);
        let t4 = b.add_tip("t4", 0.0);
        let v = b.join(t0, t1, 0.15);
        let u = b.join(v, t2, 0.3);
        let w = b.join(t3, t4, 0.2);
        b.join(u, w, 0.5);
        (alignment, b.build().unwrap())
    }

    /// Perturb the neighborhood of `target` in place the way the proposal
    /// kernel does (retime the target and its parent), returning the edited
    /// node list.
    fn perturb(tree: &GeneTree, target: NodeId, delta: f64) -> (GeneTree, Vec<NodeId>) {
        let mut out = tree.clone();
        let parent = tree.parent(target).expect("non-root target");
        out.set_time(target, tree.time(target) + delta);
        out.set_time(parent, tree.time(parent) + delta);
        out.validate().unwrap();
        (out, vec![target, parent])
    }

    #[test]
    fn workspace_total_matches_reference_path() {
        let (alignment, tree) = five_tip_fixture();
        let pruner =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
        let reference = pruner.log_likelihood(&tree).unwrap();
        for backend in [Backend::Serial, Backend::Rayon] {
            let ws = pruner.build_workspace(backend, &tree).unwrap();
            assert!(
                (ws.log_likelihood() - reference).abs() < 1e-10,
                "{} vs {reference}",
                ws.log_likelihood()
            );
            assert_eq!(ws.n_nodes(), tree.n_nodes());
            assert_eq!(ws.n_patterns(), pruner.n_patterns());
            assert!(ws.n_chunks() >= 1);
        }
    }

    #[test]
    fn batch_matches_naive_per_proposal_scoring() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());

        // Three proposals editing different neighborhoods.
        let targets: Vec<NodeId> = tree.non_root_internal_nodes();
        let edits: Vec<(GeneTree, Vec<NodeId>)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| perturb(&tree, t, 0.01 * (i as f64 + 1.0)))
            .collect();
        let proposals: Vec<TreeProposal<'_>> =
            edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();

        let eval = pruner.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert_eq!(eval.log_likelihoods.len(), proposals.len());
        assert!(
            (eval.generator_log_likelihood - pruner.log_likelihood(&tree).unwrap()).abs() < 1e-10
        );
        for ((proposal, _), &batched) in edits.iter().zip(&eval.log_likelihoods) {
            let naive = pruner.log_likelihood(proposal).unwrap();
            assert!((batched - naive).abs() < 1e-10, "batched {batched} vs naive {naive}");
        }
        // Every proposal reprunes strictly fewer nodes than a full prune.
        assert!(eval.nodes_repruned < tree.n_internal() * proposals.len() + 1);
        assert!(eval.nodes_repruned > 0);
    }

    #[test]
    fn dirty_path_reprunes_only_the_path_to_the_root() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let ws = pruner.build_workspace(Backend::Serial, &tree).unwrap();

        for &target in &tree.non_root_internal_nodes() {
            let (proposal, edited) = perturb(&tree, target, 0.005);
            let eval = pruner.rescore_with_workspace(&ws, &proposal, &edited).unwrap();
            // The dirty set is the two edited nodes plus the ancestors of the
            // parent: exactly the path to the root.
            let parent = tree.parent(target).unwrap();
            let mut expected = 2;
            let mut cursor = tree.parent(parent);
            while let Some(node) = cursor {
                expected += 1;
                cursor = tree.parent(node);
            }
            assert_eq!(eval.nodes_repruned, expected, "target {target}");
            let naive = pruner.log_likelihood(&proposal).unwrap();
            assert!((eval.log_likelihood - naive).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_edit_reuses_the_cached_total() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let ws = pruner.build_workspace(Backend::Serial, &tree).unwrap();
        let eval = pruner.rescore_with_workspace(&ws, &tree, &[]).unwrap();
        assert_eq!(eval.nodes_repruned, 0);
        assert_eq!(eval.log_likelihood, ws.log_likelihood());
    }

    #[test]
    fn generator_cache_hits_on_repeated_batches() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let target = tree.non_root_internal_nodes()[0];
        let (proposal, edited) = perturb(&tree, target, 0.01);
        let proposals = [TreeProposal { tree: &proposal, edited: &edited }];

        let first = pruner.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(!first.generator_cache_hit);
        assert_eq!(first.nodes_full_pruned, tree.n_internal());

        let second = pruner.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(second.generator_cache_hit);
        assert_eq!(second.nodes_full_pruned, 0);
        assert_eq!(first.log_likelihoods, second.log_likelihoods);
        assert_eq!(first.generator_log_likelihood, second.generator_log_likelihood);

        // A different generator invalidates the cache.
        let third = pruner.log_likelihood_batch(Backend::Serial, &proposal, &[]).unwrap();
        assert!(!third.generator_cache_hit);

        pruner.clear_cache();
        let fourth = pruner.log_likelihood_batch(Backend::Serial, &proposal, &[]).unwrap();
        assert!(!fourth.generator_cache_hit);
    }

    #[test]
    fn rayon_and_serial_batches_are_identical() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let edits: Vec<(GeneTree, Vec<NodeId>)> =
            tree.non_root_internal_nodes().iter().map(|&t| perturb(&tree, t, 0.02)).collect();
        let proposals: Vec<TreeProposal<'_>> =
            edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();

        let serial_engine = pruner.clone();
        let serial =
            serial_engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        let rayon_engine = pruner.clone();
        let parallel =
            rayon_engine.log_likelihood_batch(Backend::Rayon, &tree, &proposals).unwrap();
        assert_eq!(serial.log_likelihoods, parallel.log_likelihoods);
        assert_eq!(serial.generator_log_likelihood, parallel.generator_log_likelihood);
        assert_eq!(serial.nodes_repruned, parallel.nodes_repruned);
    }

    #[test]
    fn batch_rejects_mismatched_arenas() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let ws = pruner.build_workspace(Backend::Serial, &tree).unwrap();
        let small = two_tip_tree(0.1, 0.1, 0.2);
        assert!(pruner.rescore_with_workspace(&ws, &small, &[0]).is_err());
    }

    #[test]
    fn naive_default_batch_agrees_with_the_engine_override() {
        /// A wrapper that only exposes the reference path, so the trait's
        /// default batch implementation is exercised.
        struct NaiveOnly(FelsensteinPruner<Jc69>);

        impl LikelihoodEngine for NaiveOnly {
            fn log_likelihood(&self, tree: &GeneTree) -> Result<f64, PhyloError> {
                self.0.log_likelihood(tree)
            }
        }

        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let naive = NaiveOnly(FelsensteinPruner::new(&alignment, Jc69::new()));
        let target = tree.non_root_internal_nodes()[1];
        let (proposal, edited) = perturb(&tree, target, 0.03);
        let proposals = [TreeProposal { tree: &proposal, edited: &edited }];

        let fast = pruner.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        let slow = naive.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!((fast.generator_log_likelihood - slow.generator_log_likelihood).abs() < 1e-10);
        assert!((fast.log_likelihoods[0] - slow.log_likelihoods[0]).abs() < 1e-10);
        // The naive path reprunes everything; the engine override does not.
        assert_eq!(slow.nodes_repruned, tree.n_internal());
        assert!(fast.nodes_repruned < slow.nodes_repruned);
        assert_eq!(BatchEvaluation::naive_node_cost(tree.n_internal(), 1), 2 * tree.n_internal());
        // The default commit hook is a no-op.
        assert!(!slow.generator_cache_hit);
        assert_eq!(
            naive.commit_accepted(&tree, proposals[0].tree, proposals[0].edited).unwrap(),
            None
        );
    }

    // ------------------------------------------------------------------
    // Commit-on-accept.
    // ------------------------------------------------------------------

    #[test]
    fn commit_promotes_the_accepted_tree_into_the_cache() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let target = tree.non_root_internal_nodes()[0];
        let (accepted, edited) = perturb(&tree, target, 0.02);
        let proposals = [TreeProposal { tree: &accepted, edited: &edited }];

        // Warm the cache against the generator, then commit the accepted move.
        let first = pruner.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        let committed = pruner.commit_to_cache(&tree, &accepted, &edited).unwrap();
        assert!(committed.is_some_and(|n| n > 0 && n < tree.n_internal()));

        // The next batch against the accepted tree is served from the
        // promoted cache (no full prune) and is bit-identical to a cold
        // rebuild of the same tree.
        let promoted = pruner.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        assert!(promoted.generator_cache_hit);
        assert_eq!(promoted.nodes_full_pruned, 0);
        assert_eq!(promoted.generator_log_likelihood, first.log_likelihoods[0]);

        let cold = FelsensteinPruner::new(&alignment, Jc69::new());
        let rebuilt = cold.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        assert_eq!(promoted.generator_log_likelihood, rebuilt.generator_log_likelihood);
        // Committed partials must keep serving correct dirty-path rescoring.
        let next_target = accepted.non_root_internal_nodes()[1];
        let (next, next_edited) = perturb(&accepted, next_target, -0.004);
        let next_proposals = [TreeProposal { tree: &next, edited: &next_edited }];
        let via_cache =
            pruner.log_likelihood_batch(Backend::Serial, &accepted, &next_proposals).unwrap();
        let naive = cold.log_likelihood(&next).unwrap();
        assert!((via_cache.log_likelihoods[0] - naive).abs() < 1e-10);
    }

    #[test]
    fn commit_without_a_matching_cache_is_a_no_op() {
        let (alignment, tree) = five_tip_fixture();
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let target = tree.non_root_internal_nodes()[0];
        let (accepted, edited) = perturb(&tree, target, 0.02);
        // Cold engine: nothing to promote.
        assert_eq!(pruner.commit_to_cache(&tree, &accepted, &edited).unwrap(), None);
        // Cache keyed to a different generator: nothing to promote.
        pruner.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        assert_eq!(pruner.commit_to_cache(&tree, &accepted, &edited).unwrap(), None);
        // Empty edit commits trivially (re-keys only).
        assert_eq!(pruner.commit_to_cache(&accepted, &accepted, &[]).unwrap(), Some(0));
        // Arena mismatch is an error.
        let small = two_tip_tree(0.1, 0.1, 0.2);
        assert!(pruner.commit_to_cache(&accepted, &small, &[0]).is_err());
    }

    #[test]
    fn prime_cache_reproduces_the_warm_state_exactly() {
        // The checkpoint/resume invariant: an engine primed with the tree
        // its cache was keyed to behaves bit-identically — results AND
        // cache counters — to the engine that reached that state by
        // batching and committing.
        let (alignment, tree) = five_tip_fixture();
        let warm = FelsensteinPruner::new(&alignment, Jc69::new());
        let target = tree.non_root_internal_nodes()[0];
        let (accepted, edited) = perturb(&tree, target, 0.02);
        let proposals = [TreeProposal { tree: &accepted, edited: &edited }];
        warm.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        warm.commit_to_cache(&tree, &accepted, &edited).unwrap();
        assert_eq!(warm.cached_generator().as_ref(), Some(&accepted));

        // "Resume": a cold engine primed with the checkpointed cached tree.
        let resumed = FelsensteinPruner::new(&alignment, Jc69::new());
        resumed.prime_cache(Some(&accepted)).unwrap();
        assert_eq!(resumed.cached_generator().as_ref(), Some(&accepted));

        // The next batch — same generator, new proposals — must agree on
        // every result and every counter (hits, misses, reprune counts).
        let next_target = accepted.non_root_internal_nodes()[1];
        let (next, next_edited) = perturb(&accepted, next_target, -0.004);
        let next_proposals = [TreeProposal { tree: &next, edited: &next_edited }];
        let from_warm =
            warm.log_likelihood_batch(Backend::Serial, &accepted, &next_proposals).unwrap();
        let from_resumed =
            resumed.log_likelihood_batch(Backend::Serial, &accepted, &next_proposals).unwrap();
        assert_eq!(from_warm, from_resumed);

        // A *stale* cache (keyed to the pre-swap tree, as after a replica
        // exchange) must also be reproducible: counters of the seeded
        // rebuild agree too.
        let stale_warm = FelsensteinPruner::new(&alignment, Jc69::new());
        stale_warm.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        let stale_resumed = FelsensteinPruner::new(&alignment, Jc69::new());
        stale_resumed.prime_cache(Some(&accepted)).unwrap();
        let w = stale_warm.log_likelihood_batch(Backend::Serial, &next, &[]).unwrap();
        let r = stale_resumed.log_likelihood_batch(Backend::Serial, &next, &[]).unwrap();
        assert_eq!(w, r);

        // Priming with None clears.
        resumed.prime_cache(None).unwrap();
        assert_eq!(resumed.cached_generator(), None);
    }

    // ------------------------------------------------------------------
    // Kernel selection (scalar versus explicit SIMD).
    // ------------------------------------------------------------------

    /// SplitMix64, hand-rolled so these tests need no RNG dependency.
    struct TestRng(u64);

    impl TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random alignment and a random coalescent-shaped tree over it:
    /// random join order, strictly increasing node heights.
    fn random_fixture(seed: u64, n_tips: usize, n_sites: usize) -> (Alignment, GeneTree) {
        let mut rng = TestRng(seed);
        let names: Vec<String> = (0..n_tips).map(|i| format!("s{i}")).collect();
        let rows: Vec<String> = (0..n_tips)
            .map(|_| {
                (0..n_sites).map(|_| ['A', 'C', 'G', 'T'][(rng.next_u64() % 4) as usize]).collect()
            })
            .collect();
        let pairs: Vec<(&str, &str)> =
            names.iter().zip(&rows).map(|(n, r)| (n.as_str(), r.as_str())).collect();
        let alignment = Alignment::from_letters(&pairs).unwrap();

        let mut b = TreeBuilder::new();
        let mut active: Vec<NodeId> = names.iter().map(|n| b.add_tip(n.clone(), 0.0)).collect();
        let mut height = 0.0;
        while active.len() > 1 {
            let i = (rng.next_u64() as usize) % active.len();
            let x = active.swap_remove(i);
            let j = (rng.next_u64() as usize) % active.len();
            let y = active.swap_remove(j);
            height += 0.01 + 0.2 * rng.next_f64();
            active.push(b.join(x, y, height));
        }
        (alignment, b.build().unwrap())
    }

    /// `tree` with every node time multiplied by `factor`.
    fn rescaled_times(tree: &GeneTree, factor: f64) -> GeneTree {
        let mut out = tree.clone();
        for node in 0..tree.n_nodes() {
            out.set_time(node, tree.time(node) * factor);
        }
        out.validate().unwrap();
        out
    }

    #[test]
    fn batched_rescores_are_bit_identical_to_single_rescores_and_full_prunes() {
        // 16 tips over 1500 random sites; the deep variant shrinks every
        // branch to ~1e-13, so each mismatch costs a factor ~1e-13 and the
        // partials of the upper nodes fall below the rescale threshold.
        // Steps stay under the smallest gap between node times.
        let (alignment, tree) = random_fixture(0x1500, 16, 1500);
        let deep = rescaled_times(&tree, 1e-12);
        for (label, tree, step) in [("shallow", &tree, 1e-4), ("deep", &deep, 2e-16)] {
            let targets = tree.non_root_internal_nodes();
            let edits: Vec<(GeneTree, Vec<NodeId>)> = (0..32)
                .map(|i| perturb(tree, targets[i % targets.len()], step * (i + 1) as f64))
                .collect();
            let proposals: Vec<TreeProposal<'_>> =
                edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();
            for kernel in [Kernel::Scalar, Kernel::Simd, Kernel::Auto] {
                let pruner = FelsensteinPruner::new(&alignment, Jc69::new()).with_kernel(kernel);
                let workspace = pruner.build_workspace(Backend::Serial, tree).unwrap();
                let rescaled = workspace.chunks.iter().any(|c| c.scales.iter().any(|&x| x != 0.0));
                assert_eq!(rescaled, label == "deep", "{label}: rescale path taken");

                // The first batch builds the generator workspace; the second
                // reuses it, so its counters cover the rescores alone.
                pruner.log_likelihood_batch(Backend::Serial, tree, &proposals).unwrap();
                let batch = pruner.log_likelihood_batch(Backend::Serial, tree, &proposals).unwrap();
                let parallel =
                    pruner.log_likelihood_batch(Backend::Rayon, tree, &proposals).unwrap();
                assert!(batch.generator_cache_hit);
                assert_eq!(batch, parallel, "{label}, {kernel}");
                assert_eq!(
                    batch.generator_log_likelihood.to_bits(),
                    workspace.log_likelihood().to_bits()
                );

                let (mut nodes, mut hits, mut misses) = (0, 0, 0);
                for ((proposal, edited), &batched) in edits.iter().zip(&batch.log_likelihoods) {
                    let single =
                        pruner.rescore_with_workspace(&workspace, proposal, edited).unwrap();
                    let full = pruner.build_workspace(Backend::Serial, proposal).unwrap();
                    assert_eq!(batched.to_bits(), single.log_likelihood.to_bits(), "{label}");
                    assert_eq!(batched.to_bits(), full.log_likelihood().to_bits(), "{label}");
                    assert!(batched.is_finite());
                    nodes += single.nodes_repruned;
                    hits += single.matrix_cache_hits;
                    misses += single.matrix_cache_misses;
                }
                assert_eq!(
                    (batch.nodes_repruned, batch.matrix_cache_hits, batch.matrix_cache_misses),
                    (nodes, hits, misses),
                    "{label}, {kernel}"
                );
            }
        }
    }

    /// How many of `tree`'s combines its plan takes as half combines from
    /// `shared`; leaves the thread's scratch neutral.
    fn half_combines<M: SubstitutionModel>(
        pruner: &FelsensteinPruner<M>,
        workspace: &LikelihoodWorkspace,
        shared: &SharedPath,
        tree: &GeneTree,
        edited: &[NodeId],
    ) -> usize {
        RESCORE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.reserve(tree.n_nodes(), 0);
            let cache = Some(&workspace.edge_matrices);
            plan_rescore(&pruner.model, pruner.rate, tree, edited, cache, Some(shared), scratch);
            let halves = scratch.plan.iter().filter(|c| c.off_row.is_some()).count();
            clear_dirty_marks(scratch);
            halves
        })
    }

    /// The members of a one-φ proposal set against `tree`, as `(tree, edit,
    /// honest)`: six retimings of `target` and its parent by their own
    /// steps, the generator itself with an empty edit, and — when the
    /// parent's sibling is interior — a member that also retimes that
    /// sibling without listing it. That last member's grandparent no longer
    /// matches the shared off-path row, so the node must fall back to the
    /// full combine; its edit is not honest, so no full prune reproduces it.
    fn one_phi_members(
        tree: &GeneTree,
        target: NodeId,
        step: f64,
    ) -> Vec<(GeneTree, Vec<NodeId>, bool)> {
        let mut members: Vec<(GeneTree, Vec<NodeId>, bool)> = (0..6)
            .map(|i| {
                let (proposal, edited) = perturb(tree, target, step * (i + 1) as f64);
                (proposal, edited, true)
            })
            .collect();
        members.push((tree.clone(), Vec::new(), true));
        let parent = tree.parent(target).unwrap();
        if let Some(sibling) = tree.sibling(parent).filter(|&s| !tree.is_tip(s)) {
            let (mut proposal, edited) = perturb(tree, target, step * 7.0);
            proposal.set_time(sibling, tree.time(sibling) + step * 0.5);
            proposal.validate().unwrap();
            members.push((proposal, edited, false));
        }
        members
    }

    #[test]
    fn shared_path_sets_are_bit_identical_to_single_rescores_and_full_prunes() {
        // One-φ sets, the shape of a GMH iteration, on random 5–40-tip
        // trees: the batch shares the path from the grandparent to the root.
        // The deep variant (every time ×1e-12) drives the larger trees'
        // upper partials below the rescale threshold. Steps stay under the
        // smallest gap between node times.
        let mut rng = TestRng(0x0005_11A4_ED00);
        let mut rescaled_any = false;
        let mut shared_any = false;
        for case in 0..10u64 {
            let n_tips = 5 + (rng.next_u64() % 36) as usize;
            let (alignment, shallow) = random_fixture(0x5E70 + case, n_tips, 300);
            let deep = rescaled_times(&shallow, 1e-12);
            let targets = shallow.non_root_internal_nodes();
            let target = targets[(rng.next_u64() as usize) % targets.len()];
            for (label, tree, step) in [("shallow", &shallow, 1e-4), ("deep", &deep, 2e-16)] {
                let members = one_phi_members(tree, target, step);
                let altered = members.iter().any(|(_, _, honest)| !honest);
                let proposals: Vec<TreeProposal<'_>> =
                    members.iter().map(|(t, e, _)| TreeProposal { tree: t, edited: e }).collect();
                for kernel in [Kernel::Scalar, Kernel::Simd, Kernel::Auto] {
                    let what = format!("{n_tips} tips, {label}, {kernel}");
                    let pruner =
                        FelsensteinPruner::new(&alignment, Jc69::new()).with_kernel(kernel);
                    let workspace = pruner.build_workspace(Backend::Serial, tree).unwrap();
                    rescaled_any |=
                        workspace.chunks.iter().any(|c| c.scales.iter().any(|&x| x != 0.0));

                    pruner.log_likelihood_batch(Backend::Serial, tree, &proposals).unwrap();
                    let batch =
                        pruner.log_likelihood_batch(Backend::Serial, tree, &proposals).unwrap();
                    let parallel =
                        pruner.log_likelihood_batch(Backend::Rayon, tree, &proposals).unwrap();
                    assert!(batch.generator_cache_hit);
                    assert_eq!(batch, parallel, "{what}");

                    // The set shared the path above the neighbourhood: one
                    // off-path row per node from the grandparent up, every
                    // one a half combine for the honest members, all but
                    // the grandparent's for the altered one.
                    {
                        let slot = pruner.cache.lock().unwrap();
                        let shared = &slot.as_ref().unwrap().shared;
                        let grandparent = tree.grandparent(target);
                        let rows = grandparent.map_or(0, |g| depth_from_root(tree, g) + 1);
                        assert_eq!(shared.n_rows, rows, "{what}: off-path rows");
                        shared_any |= rows > 0;
                        for (proposal, edited, honest) in members.iter().filter(|m| !m.1.is_empty())
                        {
                            let halves =
                                half_combines(&pruner, &workspace, shared, proposal, edited);
                            assert_eq!(halves, rows - usize::from(!honest), "{what}");
                        }
                    }

                    let (mut nodes, mut hits, mut misses) = (0, 0, 0);
                    for ((proposal, edited, honest), &batched) in
                        members.iter().zip(&batch.log_likelihoods)
                    {
                        let single =
                            pruner.rescore_with_workspace(&workspace, proposal, edited).unwrap();
                        assert_eq!(batched.to_bits(), single.log_likelihood.to_bits(), "{what}");
                        if *honest {
                            let full = pruner.build_workspace(Backend::Serial, proposal).unwrap();
                            assert_eq!(
                                batched.to_bits(),
                                full.log_likelihood().to_bits(),
                                "{what}"
                            );
                        }
                        assert!(batched.is_finite());
                        nodes += single.nodes_repruned;
                        hits += single.matrix_cache_hits;
                        misses += single.matrix_cache_misses;
                    }
                    assert_eq!(
                        (batch.nodes_repruned, batch.matrix_cache_hits, batch.matrix_cache_misses),
                        (nodes, hits, misses),
                        "{what}"
                    );
                    if altered {
                        assert!(misses > 0, "{what}: the altered off-path edge misses the cache");
                    }

                    // A set of one takes the per-proposal loop, with the
                    // same bits.
                    let one = pruner.log_likelihood_batch(Backend::Serial, tree, &proposals[..1]);
                    let one = one.unwrap();
                    assert_eq!(
                        one.log_likelihoods[0].to_bits(),
                        batch.log_likelihoods[0].to_bits()
                    );
                }
            }
        }
        assert!(rescaled_any, "no case took the rescale path");
        assert!(shared_any, "no case shared a path");
    }

    #[test]
    fn shared_path_never_changes_a_members_score() {
        // Members need not fit the path their set prepared: here each is an
        // unrelated tree over the same arena, listing the same edit. Where
        // its walk passes the root, a path parent differs or a path node is
        // clean, the member is planned without the path; elsewhere it takes
        // the rows it matches. Either way its score and counters equal
        // scoring it alone.
        let (alignment, tree) = random_fixture(0x7A1, 12, 200);
        let pruner = FelsensteinPruner::new(&alignment, Jc69::new());
        let workspace = pruner.build_workspace(Backend::Serial, &tree).unwrap();
        let target = tree
            .non_root_internal_nodes()
            .into_iter()
            .find(|&t| tree.grandparent(t).is_some_and(|g| !tree.is_root(g)))
            .unwrap();
        let (reference, edited) = perturb(&tree, target, 1e-4);
        let mut shared = SharedPath::default();
        shared.prepare(&pruner, &workspace, &reference, &edited);
        assert!(shared.n_rows >= 2);
        let mut halves = 0;
        for seed in 0..16 {
            let (_, other) = random_fixture(0x7A2 + seed, 12, 200);
            for member in [&reference, &other] {
                let alone = pruner.rescore_in_set(&workspace, None, member, &edited).unwrap();
                let in_set =
                    pruner.rescore_in_set(&workspace, Some(&shared), member, &edited).unwrap();
                assert_eq!(alone.log_likelihood.to_bits(), in_set.log_likelihood.to_bits());
                assert_eq!(alone, in_set, "tree {seed}");
                halves += half_combines(&pruner, &workspace, &shared, member, &edited);
            }
        }
        assert!(halves >= 16 * shared.n_rows, "the reference member always takes the path");
    }

    #[test]
    fn multi_locus_shared_path_sets_match_per_locus_rescores() {
        // Three loci over the same 24 tips, at rates 1, 0.5 and 2: each
        // locus keys its edge matrices on its own effective branch lengths,
        // so each prepares its own off-path rows.
        let (first, tree) = random_fixture(0x3100, 24, 400);
        let (second, _) = random_fixture(0x3101, 24, 250);
        let (third, _) = random_fixture(0x3102, 24, 600);
        let dataset = Dataset::new(vec![
            Locus::new("l0", first),
            Locus::with_rate("l1", second, 0.5).unwrap(),
            Locus::with_rate("l2", third, 2.0).unwrap(),
        ])
        .unwrap();
        let target = tree
            .non_root_internal_nodes()
            .into_iter()
            .find(|&t| tree.grandparent(t).is_some_and(|g| !tree.is_root(g)))
            .unwrap();
        let members = one_phi_members(&tree, target, 1e-4);
        let proposals: Vec<TreeProposal<'_>> =
            members.iter().map(|(t, e, _)| TreeProposal { tree: t, edited: e }).collect();
        for kernel in [Kernel::Scalar, Kernel::Simd, Kernel::Auto] {
            let engine = MultiLocusEngine::new(&dataset, |_| Jc69::new()).with_kernel(kernel);
            engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            let batch = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            let parallel = engine.log_likelihood_batch(Backend::Rayon, &tree, &proposals).unwrap();
            assert!(batch.generator_cache_hit);
            assert_eq!(batch, parallel, "{kernel}");
            for locus in engine.locus_engines() {
                let slot = locus.cache.lock().unwrap();
                assert!(slot.as_ref().unwrap().shared.n_rows >= 2, "{kernel}: path shared");
            }

            let workspaces: Vec<LikelihoodWorkspace> = engine
                .locus_engines()
                .iter()
                .map(|locus| locus.build_workspace(Backend::Serial, &tree).unwrap())
                .collect();
            let (mut nodes, mut hits, mut misses) = (0, 0, 0);
            for ((proposal, edited, honest), &batched) in members.iter().zip(&batch.log_likelihoods)
            {
                let mut single = 0.0;
                let mut full = 0.0;
                for (locus, workspace) in engine.locus_engines().iter().zip(&workspaces) {
                    let eval = locus.rescore_with_workspace(workspace, proposal, edited).unwrap();
                    single += eval.log_likelihood;
                    nodes += eval.nodes_repruned;
                    hits += eval.matrix_cache_hits;
                    misses += eval.matrix_cache_misses;
                    full +=
                        locus.build_workspace(Backend::Serial, proposal).unwrap().log_likelihood();
                }
                assert_eq!(batched.to_bits(), single.to_bits(), "{kernel}");
                if *honest {
                    assert_eq!(batched.to_bits(), full.to_bits(), "{kernel}");
                }
            }
            assert_eq!(
                (batch.nodes_repruned, batch.matrix_cache_hits, batch.matrix_cache_misses),
                (nodes, hits, misses),
                "{kernel}"
            );
        }
    }

    /// `|a - b|` within `tol` relative to the larger magnitude.
    fn close_rel(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn kernel_names_round_trip_and_requests_resolve() {
        for kernel in [Kernel::Scalar, Kernel::Simd, Kernel::Auto] {
            assert_eq!(kernel.to_string().parse::<Kernel>().unwrap(), kernel);
        }
        assert_eq!("SIMD".parse::<Kernel>().unwrap(), Kernel::Simd);
        assert_eq!("Auto".parse::<Kernel>().unwrap(), Kernel::Auto);
        assert!("avx512".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Auto);
        assert_eq!(Kernel::Scalar.variant(), KernelVariant::Scalar);
        assert_eq!(Kernel::Simd.variant(), KernelVariant::Simd);
        // Auto resolves by CPU probe: either four-lane variant is legal,
        // scalar is not.
        assert_ne!(Kernel::Auto.variant(), KernelVariant::Scalar);
        assert_eq!(KernelVariant::SimdFma.to_string(), "simd+avx2+fma");
    }

    #[test]
    fn simd_kernel_matches_scalar_kernel_on_random_trees() {
        // The 1e-12 relative-tolerance contract of the explicit kernel.
        for seed in 1..=8u64 {
            let n_tips = 4 + (seed as usize % 9);
            let (alignment, tree) = random_fixture(seed, n_tips, 257);
            let scalar =
                FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()));
            let simd = scalar.clone().with_kernel(Kernel::Simd);
            assert_eq!(simd.kernel(), Kernel::Simd);

            // Full workspace builds (every interior node through the kernel).
            let ws_scalar = scalar.build_workspace(Backend::Serial, &tree).unwrap();
            let ws_simd = simd.build_workspace(Backend::Serial, &tree).unwrap();
            assert!(
                close_rel(ws_scalar.log_likelihood(), ws_simd.log_likelihood(), 1e-12),
                "seed {seed}: {} vs {}",
                ws_scalar.log_likelihood(),
                ws_simd.log_likelihood()
            );

            // Batched dirty-path rescoring of perturbed proposals.
            let edits: Vec<(GeneTree, Vec<NodeId>)> = tree
                .non_root_internal_nodes()
                .iter()
                .enumerate()
                .map(|(i, &t)| perturb(&tree, t, 0.002 * (i as f64 + 1.0)))
                .collect();
            let proposals: Vec<TreeProposal<'_>> =
                edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();
            let eval_scalar =
                scalar.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            let eval_simd = simd.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            assert!(close_rel(
                eval_scalar.generator_log_likelihood,
                eval_simd.generator_log_likelihood,
                1e-12
            ));
            for (a, b) in eval_scalar.log_likelihoods.iter().zip(&eval_simd.log_likelihoods) {
                assert!(close_rel(*a, *b, 1e-12), "seed {seed}: {a} vs {b}");
            }
            // The kernels differ in arithmetic only; the caching behaviour
            // (what was repruned) is identical.
            assert_eq!(eval_scalar.nodes_repruned, eval_simd.nodes_repruned);
        }
    }

    #[test]
    fn simd_kernel_matches_scalar_through_the_rescale_path() {
        // A tall caterpillar over identical long sequences drives partials
        // below the rescale threshold, exercising the underflow branch of
        // both kernels.
        let letters = "ACGT".repeat(60);
        let names: Vec<String> = (0..14).map(|i| format!("s{i}")).collect();
        let pairs: Vec<(&str, &str)> =
            names.iter().map(|n| (n.as_str(), letters.as_str())).collect();
        let alignment = Alignment::from_letters(&pairs).unwrap();
        let mut b = TreeBuilder::new();
        let tips: Vec<_> = names.iter().map(|n| b.add_tip(n.clone(), 0.0)).collect();
        let mut acc = tips[0];
        for (i, &tip) in tips.iter().enumerate().skip(1) {
            acc = b.join(acc, tip, 6.0 * i as f64);
        }
        let tree = b.build().unwrap();

        let scalar = FelsensteinPruner::new(&alignment, Jc69::new());
        let simd = scalar.clone().with_kernel(Kernel::Simd);
        let l_scalar = scalar.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
        let l_simd = simd.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
        assert!(l_scalar.is_finite() && l_scalar < 0.0);
        assert!(close_rel(l_scalar, l_simd, 1e-12), "{l_scalar} vs {l_simd}");
    }

    #[test]
    fn commit_on_accept_preserves_kernel_consistency() {
        // Commit-on-accept recomputes dirty paths with the engine's own
        // kernel: a committed cache must keep matching a cold rebuild under
        // the same kernel selection.
        let (alignment, tree) = five_tip_fixture();
        let engine = FelsensteinPruner::new(&alignment, Jc69::new()).with_kernel(Kernel::Simd);
        let target = tree.non_root_internal_nodes()[0];
        let (accepted, edited) = perturb(&tree, target, 0.015);
        let proposals = [TreeProposal { tree: &accepted, edited: &edited }];
        engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        engine.commit_to_cache(&tree, &accepted, &edited).unwrap().unwrap();
        let promoted = engine.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        assert!(promoted.generator_cache_hit);

        let cold = FelsensteinPruner::new(&alignment, Jc69::new()).with_kernel(Kernel::Simd);
        let rebuilt = cold.log_likelihood_batch(Backend::Serial, &accepted, &[]).unwrap();
        assert_eq!(promoted.generator_log_likelihood, rebuilt.generator_log_likelihood);
    }

    #[test]
    fn auto_kernel_matches_scalar_kernel_on_random_trees() {
        // The runtime-dispatched kernel must stay within the same 1e-12
        // contract as the pinned SIMD kernel, whatever variant the CPU probe
        // selected (on a non-AVX2 host this exercises the four-lane
        // fallback; without the feature it is scalar-vs-scalar).
        for seed in 11..=16u64 {
            let n_tips = 5 + (seed as usize % 7);
            let (alignment, tree) = random_fixture(seed, n_tips, 301);
            let scalar =
                FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()))
                    .with_kernel(Kernel::Scalar);
            let auto = scalar.clone().with_kernel(Kernel::Auto);

            let l_scalar = scalar.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
            let l_auto = auto.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
            assert!(close_rel(l_scalar, l_auto, 1e-12), "seed {seed}: {l_scalar} vs {l_auto}");

            let edits: Vec<(GeneTree, Vec<NodeId>)> = tree
                .non_root_internal_nodes()
                .iter()
                .enumerate()
                .map(|(i, &t)| perturb(&tree, t, 0.003 * (i as f64 + 1.0)))
                .collect();
            let proposals: Vec<TreeProposal<'_>> =
                edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();
            let eval_scalar =
                scalar.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            let eval_auto = auto.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            assert!(close_rel(
                eval_scalar.generator_log_likelihood,
                eval_auto.generator_log_likelihood,
                1e-12
            ));
            for (a, b) in eval_scalar.log_likelihoods.iter().zip(&eval_auto.log_likelihoods) {
                assert!(close_rel(*a, *b, 1e-12), "seed {seed}: {a} vs {b}");
            }
            assert_eq!(eval_scalar.nodes_repruned, eval_auto.nodes_repruned);
        }
    }

    #[test]
    fn auto_kernel_matches_scalar_through_the_rescale_path() {
        // Same underflow fixture as the pinned-SIMD rescale test: a tall
        // caterpillar drives partials through the rescale branch of whatever
        // variant the probe selected.
        let letters = "ACGT".repeat(60);
        let names: Vec<String> = (0..14).map(|i| format!("s{i}")).collect();
        let pairs: Vec<(&str, &str)> =
            names.iter().map(|n| (n.as_str(), letters.as_str())).collect();
        let alignment = Alignment::from_letters(&pairs).unwrap();
        let mut b = TreeBuilder::new();
        let tips: Vec<_> = names.iter().map(|n| b.add_tip(n.clone(), 0.0)).collect();
        let mut acc = tips[0];
        for (i, &tip) in tips.iter().enumerate().skip(1) {
            acc = b.join(acc, tip, 6.0 * i as f64);
        }
        let tree = b.build().unwrap();

        let scalar = FelsensteinPruner::new(&alignment, Jc69::new()).with_kernel(Kernel::Scalar);
        let auto = scalar.clone().with_kernel(Kernel::Auto);
        let l_scalar = scalar.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
        let l_auto = auto.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
        assert!(l_scalar.is_finite() && l_scalar < 0.0);
        assert!(close_rel(l_scalar, l_auto, 1e-12), "{l_scalar} vs {l_auto}");
    }

    // ------------------------------------------------------------------
    // Edge transition-matrix memoisation.
    // ------------------------------------------------------------------

    #[test]
    fn memoised_matrices_stay_bit_identical_over_accept_reject_cycles() {
        // Drive the engine the way a sampler does — propose, score, commit
        // on accept, discard on reject — at a non-unit relative rate, and
        // require the memoised generator likelihood to stay *bit-identical*
        // to a cold engine rebuilding the same tree from nothing. Any stale
        // or mis-keyed cached matrix breaks exact equality immediately.
        let (alignment, start) = random_fixture(97, 9, 222);
        let engine =
            FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()))
                .with_relative_rate(1.7);
        let mut rng = TestRng(0xFEED);
        let mut tree = start;
        let mut total_hits = 0usize;
        for round in 0..24 {
            let targets = tree.non_root_internal_nodes();
            let target = targets[(rng.next_u64() as usize) % targets.len()];
            let delta = 0.004 + 0.01 * rng.next_f64();
            let (proposal, edited) = perturb(&tree, target, delta);
            let proposals = [TreeProposal { tree: &proposal, edited: &edited }];
            let eval = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
            total_hits += eval.matrix_cache_hits;

            // Memoised generator score == cold full rebuild, bit for bit.
            let cold =
                FelsensteinPruner::new(&alignment, F81::normalized(alignment.base_frequencies()))
                    .with_relative_rate(1.7);
            let fresh = cold.build_workspace(Backend::Serial, &tree).unwrap().log_likelihood();
            assert_eq!(
                eval.generator_log_likelihood, fresh,
                "round {round}: memoised generator drifted from a fresh build"
            );
            // Proposal scores stay within the kernel contract of the naive
            // reference path (a different summation order, so not bitwise).
            let naive = cold.log_likelihood(&proposal).unwrap();
            assert!(close_rel(eval.log_likelihoods[0], naive, 1e-10), "round {round}");

            if rng.next_u64().is_multiple_of(2) {
                engine.commit_to_cache(&tree, &proposal, &edited).unwrap();
                tree = proposal;
            }
        }
        assert!(total_hits > 0, "accept/reject cycling never hit the edge-matrix cache");
    }

    #[test]
    fn matrix_cache_counters_track_hits_and_misses() {
        let (alignment, tree) = random_fixture(41, 8, 180);
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let target = tree.non_root_internal_nodes()[0];
        let (proposal, edited) = perturb(&tree, target, 0.02);
        let proposals = [TreeProposal { tree: &proposal, edited: &edited }];
        let n_edges = tree.n_nodes() - 1;

        // Cold build: every edge matrix is a miss; the workspace cache ends
        // up holding one entry per non-root node.
        let first = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(first.matrix_cache_misses >= n_edges);

        // Steady state: the generator workspace is memoised, and dirty-path
        // rescoring serves the unchanged edges of the dirty path from the
        // cache — strictly positive hits.
        let second = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(second.generator_cache_hit);
        assert!(second.matrix_cache_hits > 0, "dirty-path rescore must hit the cache");
        // The retimed target's incident edges changed length: some misses.
        assert!(second.matrix_cache_misses > 0);

        // A structurally different generator (every branch length differs)
        // invalidates every key: the seeded rebuild scores zero hits and
        // recomputes all edges.
        let (_, other) = random_fixture(42, 8, 180);
        let replaced = engine.log_likelihood_batch(Backend::Serial, &other, &[]).unwrap();
        assert!(!replaced.generator_cache_hit);
        assert_eq!(replaced.matrix_cache_hits, 0, "no key can survive a full retiming");
        assert_eq!(replaced.matrix_cache_misses, n_edges);

        // Proposals against the replacement generator hit its fresh cache.
        let (next, next_edited) = perturb(&other, other.non_root_internal_nodes()[0], 0.02);
        let next_proposals = [TreeProposal { tree: &next, edited: &next_edited }];
        let warm = engine.log_likelihood_batch(Backend::Serial, &other, &next_proposals).unwrap();
        assert!(warm.generator_cache_hit);
        assert!(warm.matrix_cache_hits > 0);
    }

    #[test]
    fn workspace_edge_cache_is_populated_by_builds() {
        let (alignment, tree) = five_tip_fixture();
        let engine = FelsensteinPruner::new(&alignment, Jc69::new());
        let ws = engine.build_workspace(Backend::Serial, &tree).unwrap();
        assert_eq!(ws.edge_matrices().n_nodes(), tree.n_nodes());
        assert_eq!(ws.edge_matrices().n_entries(), tree.n_nodes() - 1);
        let empty = EdgeMatrixCache::with_nodes(4);
        assert_eq!(empty.n_entries(), 0);
        assert_eq!(empty.n_nodes(), 4);
    }

    // ------------------------------------------------------------------
    // Multi-locus engine.
    // ------------------------------------------------------------------

    use crate::dataset::{Dataset, Locus};

    fn three_locus_fixture() -> (Dataset, GeneTree) {
        let (first, tree) = five_tip_fixture();
        let second = Alignment::from_letters(&[
            ("t0", "GGTTAACCGGTTAACC"),
            ("t1", "GGTTAACCGGTAAACC"),
            ("t2", "GGTAAACCGGTTAACC"),
            ("t3", "GGTTAACCGGTTAACG"),
            ("t4", "CGTTAACCGGTTAACC"),
        ])
        .unwrap();
        let third = Alignment::from_letters(&[
            ("t0", "ATATATAT"),
            ("t1", "ATATATAA"),
            ("t2", "ATATATAT"),
            ("t3", "ATGTATAT"),
            ("t4", "ATATCTAT"),
        ])
        .unwrap();
        let dataset = Dataset::new(vec![
            Locus::new("l0", first),
            Locus::new("l1", second),
            Locus::new("l2", third),
        ])
        .unwrap();
        (dataset, tree)
    }

    #[test]
    fn multi_locus_log_likelihood_is_the_sum_of_per_locus_terms() {
        let (dataset, tree) = three_locus_fixture();
        let engine = MultiLocusEngine::new(&dataset, |a| F81::normalized(a.base_frequencies()));
        assert_eq!(engine.n_loci(), 3);
        assert_eq!(engine.locus_names(), &["l0", "l1", "l2"]);
        let total = engine.log_likelihood(&tree).unwrap();
        let per_locus = engine.log_likelihood_per_locus(&tree).unwrap();
        let manual: f64 = dataset
            .loci()
            .iter()
            .map(|locus| {
                FelsensteinPruner::new(
                    locus.alignment(),
                    F81::normalized(locus.alignment().base_frequencies()),
                )
                .log_likelihood(&tree)
                .unwrap()
            })
            .sum();
        assert!((total - manual).abs() < 1e-10, "{total} vs {manual}");
        assert!((total - per_locus.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn multi_locus_batch_sums_per_locus_batches_and_counters() {
        let (dataset, tree) = three_locus_fixture();
        let engine = MultiLocusEngine::new(&dataset, |_| Jc69::new());
        let edits: Vec<(GeneTree, Vec<NodeId>)> =
            tree.non_root_internal_nodes().iter().map(|&t| perturb(&tree, t, 0.015)).collect();
        let proposals: Vec<TreeProposal<'_>> =
            edits.iter().map(|(t, e)| TreeProposal { tree: t, edited: e }).collect();

        let eval = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(!eval.generator_cache_hit);
        assert_eq!(eval.nodes_full_pruned, 3 * tree.n_internal());
        for ((proposal, _), &batched) in edits.iter().zip(&eval.log_likelihoods) {
            let manual: f64 = dataset
                .loci()
                .iter()
                .map(|locus| {
                    FelsensteinPruner::new(locus.alignment(), Jc69::new())
                        .log_likelihood(proposal)
                        .unwrap()
                })
                .sum();
            assert!((batched - manual).abs() < 1e-10, "{batched} vs {manual}");
        }

        // Second round: every locus workspace is memoised.
        let again = engine.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert!(again.generator_cache_hit);
        assert_eq!(again.nodes_full_pruned, 0);
        assert_eq!(again.log_likelihoods, eval.log_likelihoods);

        // Commit an accepted proposal across all loci and score against it.
        let (accepted, edited) = (&edits[0].0, &edits[0].1);
        let committed = engine.commit_accepted(&tree, accepted, edited).unwrap();
        assert!(committed.is_some_and(|n| n > 0));
        let promoted = engine.log_likelihood_batch(Backend::Serial, accepted, &[]).unwrap();
        assert!(promoted.generator_cache_hit);
        assert_eq!(promoted.generator_log_likelihood, eval.log_likelihoods[0]);

        engine.clear_cache();
        let cold = engine.log_likelihood_batch(Backend::Serial, accepted, &[]).unwrap();
        assert!(!cold.generator_cache_hit);
        assert_eq!(cold.generator_log_likelihood, promoted.generator_log_likelihood);
    }

    #[test]
    fn relative_rate_one_is_bit_identical() {
        // The per-locus driving-value seam must be invisible at rate 1.0:
        // bit-identical full prunes, dirty-path rescores and commits.
        let (alignment, tree) = five_tip_fixture();
        let plain = FelsensteinPruner::new(&alignment, Jc69::new());
        let rated = FelsensteinPruner::new(&alignment, Jc69::new()).with_relative_rate(1.0);
        assert_eq!(rated.relative_rate(), 1.0);
        assert_eq!(plain.log_likelihood(&tree).unwrap(), rated.log_likelihood(&tree).unwrap());
        let target = tree.non_root_internal_nodes()[0];
        let (proposal, edited) = perturb(&tree, target, 0.015);
        let proposals = [TreeProposal { tree: &proposal, edited: &edited }];
        let a = plain.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        let b = rated.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        assert_eq!(a.generator_log_likelihood, b.generator_log_likelihood);
        assert_eq!(a.log_likelihoods, b.log_likelihoods);
        plain.commit_to_cache(&tree, &proposal, &edited).unwrap().unwrap();
        rated.commit_to_cache(&tree, &proposal, &edited).unwrap().unwrap();
        let a2 = plain.log_likelihood_batch(Backend::Serial, &proposal, &[]).unwrap();
        let b2 = rated.log_likelihood_batch(Backend::Serial, &proposal, &[]).unwrap();
        assert_eq!(a2.generator_log_likelihood, b2.generator_log_likelihood);
    }

    #[test]
    fn relative_rate_equals_scaling_branch_lengths() {
        // Scoring at rate r must equal scoring the tree with every time
        // multiplied by r (JC69 and F81 are time-reversible in t·rate), on
        // the reference path, the batched path, and after commits.
        let (alignment, tree) = five_tip_fixture();
        let rate = 1.75;
        let rated = FelsensteinPruner::new(&alignment, Jc69::new()).with_relative_rate(rate);
        let mut scaled_tree = tree.clone();
        scaled_tree.scale_times(rate);
        let reference = FelsensteinPruner::new(&alignment, Jc69::new());
        let direct = rated.log_likelihood(&tree).unwrap();
        let via_scaling = reference.log_likelihood(&scaled_tree).unwrap();
        assert!(
            (direct - via_scaling).abs() < 1e-10,
            "rate-scaled {direct} vs branch-scaled {via_scaling}"
        );

        // Dirty-path rescoring agrees too.
        let target = tree.non_root_internal_nodes()[0];
        let (proposal, edited) = perturb(&tree, target, 0.015);
        let proposals = [TreeProposal { tree: &proposal, edited: &edited }];
        let eval = rated.log_likelihood_batch(Backend::Serial, &tree, &proposals).unwrap();
        let mut scaled_proposal = proposal.clone();
        scaled_proposal.scale_times(rate);
        let manual = reference.log_likelihood(&scaled_proposal).unwrap();
        assert!((eval.log_likelihoods[0] - manual).abs() < 1e-10);
    }

    #[test]
    fn multi_locus_engine_scores_each_locus_at_its_own_rate() {
        let (dataset, tree) = three_locus_fixture();
        let rates = [1.0, 2.0, 0.5];
        let rated_loci: Vec<Locus> = dataset
            .loci()
            .iter()
            .zip(rates)
            .map(|(locus, rate)| {
                Locus::with_rate(locus.name(), locus.alignment().clone(), rate).unwrap()
            })
            .collect();
        let rated_dataset = Dataset::new(rated_loci).unwrap();
        let engine = MultiLocusEngine::new(&rated_dataset, |_| Jc69::new());
        let per_locus = engine.log_likelihood_per_locus(&tree).unwrap();
        for ((locus, rate), &got) in dataset.loci().iter().zip(rates).zip(&per_locus) {
            let mut scaled = tree.clone();
            scaled.scale_times(rate);
            let manual = FelsensteinPruner::new(locus.alignment(), Jc69::new())
                .log_likelihood(&scaled)
                .unwrap();
            assert!(
                (got - manual).abs() < 1e-10,
                "locus {} at rate {rate}: {got} vs {manual}",
                locus.name()
            );
        }
        // And the total is still the sum.
        let total = engine.log_likelihood(&tree).unwrap();
        assert!((total - per_locus.iter().sum::<f64>()).abs() < 1e-12);
        // A rate-2 locus with mutations is not scored like a rate-1 locus.
        let unrated = MultiLocusEngine::new(&dataset, |_| Jc69::new());
        assert!(
            (unrated.log_likelihood(&tree).unwrap() - total).abs() > 1e-9,
            "distinct rates must change the score"
        );
    }
}
