//! The neighborhood-resimulation proposal mechanism (Section 4.2).
//!
//! A non-root interior node is chosen as the *target*. The target and its
//! parent are dissolved, leaving three *active* lineages — the target's two
//! children and its sibling — that must re-coalesce into a single lineage
//! before the *ancestor* (the target's grandparent), or without any upper
//! bound when the target's parent is the root (Figure 8). The re-coalescence
//! is sampled from the coalescent prior conditional on the rest of the tree:
//!
//! 1. The window between the youngest active head and the ancestor is cut
//!    into *feasible intervals* at every time where the number of available
//!    active lineages or inactive (fixed) lineages changes.
//! 2. For each interval, transfer weights `S_{i,j}(t)` — the (unnormalised)
//!    probability of going from `i` to `j` active lineages across the
//!    interval — are computed from the linear death process whose survival
//!    exponent is the conditional coalescent rate and whose event rate is the
//!    active-pair rate.
//! 3. A backward pass accumulates, for every interval boundary, the weight of
//!    completing exactly two coalescences by the ancestor (the `P_i(n)` of
//!    the paper); a forward pass then samples how many events land in each
//!    interval, conditioned on that constraint.
//! 4. Event times are placed inside their intervals by inverting the tilted
//!    (truncated-exponential) conditional densities, and the topology is
//!    chosen uniformly among the active lineages available at the first
//!    event ("the proposal may rearrange the children", Section 4.2).
//!
//! The work splits at the first random number. [`GenealogyProposer::plan`]
//! does steps 1–3's deterministic part once per generator and target: the
//! feasible intervals, their inactive-lineage counts (one sweep over the
//! sorted edge endpoints, so a plan costs O(n log n)), the backward `P_i(n)`
//! pass and the forward weights it induces. [`GenealogyProposer::draw_into`]
//! does everything that consumes the RNG: the forward categorical pass, event
//! placement and the topology pick, then the rewiring of the output tree,
//! which it first overwrites with the generator. The samplers keep their
//! output trees (proposal slots) across iterations, so in steady state a
//! draw copies the generator into storage it already owns and allocates
//! nothing. The multi-proposal sampler plans once per iteration and draws
//! its N proposals from the shared plan, each with its own stream;
//! `propose_with_edit` is a plan followed by one draw into a fresh
//! snapshot, so both paths consume the RNG identically.
//!
//! Because the proposal density is exactly proportional to the coalescent
//! prior `P(G|θ)` restricted to the neighborhood, the Hastings ratio of the
//! baseline sampler collapses to the data-likelihood ratio (Eq. 28) and the
//! generalized sampler's stationary weights collapse to `P(D|G̃)` (Eq. 31).

use mcmc::rng::dist::{exponential, uniform_index};
use rand::Rng;

use phylo::{GeneTree, NodeId, PhyloError};

/// Which hazard drives the conditional death process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HazardModel {
    /// Survival exponent `a(a−1+2m)/θ` — the exact conditional-coalescent
    /// rate in the presence of `m` inactive lineages.
    #[default]
    Conditional,
    /// Survival exponent `a(a−1)/θ` — ignores the inactive lineages, i.e. a
    /// pure Kingman process among the active lineages only. Kept as an
    /// ablation (see the `ablation_hazard` bench): it is cheaper but biases
    /// the proposal away from the true conditional prior.
    ActiveOnly,
}

/// Configuration of the proposal mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposalConfig {
    /// The hazard model (see [`HazardModel`]).
    pub hazard: HazardModel,
    /// Cap on rejection-sampling attempts for within-interval placement of a
    /// double event before falling back to a uniform split.
    pub placement_attempts: usize,
}

impl Default for ProposalConfig {
    fn default() -> Self {
        ProposalConfig { hazard: HazardModel::Conditional, placement_attempts: 10_000 }
    }
}

/// The proposal kernel: resimulates the neighborhood of a target node from
/// the conditional coalescent prior with driving parameter θ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenealogyProposer {
    theta: f64,
    config: ProposalConfig,
}

/// The RNG-free half of a neighborhood resimulation (steps 1–3 of the module
/// docs) for one generator tree and one target: built once by
/// [`GenealogyProposer::plan`], then drawn from any number of times by
/// [`GenealogyProposer::draw_into`], each draw with its own random stream.
#[derive(Debug, Clone)]
pub struct NeighbourhoodPlan {
    /// `None` when the target is the root or a tip (the two-tip degenerate
    /// case): the draw then re-draws the root time.
    window: Option<Window>,
}

/// The dissolved neighborhood and its weighted feasible intervals.
#[derive(Debug, Clone)]
struct Window {
    target: NodeId,
    parent: NodeId,
    heads: [NodeId; 3],
    head_times: [f64; 3],
    /// The ancestor's time, or `None` when the parent is the root.
    upper: Option<f64>,
    segments: Vec<Segment>,
}

/// One feasible interval of the resimulation window.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: f64,
    length: f64,
    /// Heads (active-lineage starting points) available throughout.
    heads_available: usize,
    /// Inactive lineages crossing the interval.
    inactive: usize,
    /// Whether this is the unbounded tail above the old root.
    unbounded: bool,
    /// Forward weights of `d` events landing here, given `c` = 0 or 1
    /// events already placed: `forward[c][d] = S_{a,a−d}(len)·β[s+1][c+d]`
    /// with `a` = heads available minus `c` (unused in the unbounded tail).
    forward: [[f64; 3]; 2],
}

impl GenealogyProposer {
    /// Create a proposer with the default configuration.
    pub fn new(theta: f64) -> Result<Self, PhyloError> {
        Self::with_config(theta, ProposalConfig::default())
    }

    /// Create a proposer with an explicit configuration.
    pub fn with_config(theta: f64, config: ProposalConfig) -> Result<Self, PhyloError> {
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(PhyloError::InvalidParameter {
                name: "theta",
                value: theta,
                constraint: "theta > 0",
            });
        }
        Ok(GenealogyProposer { theta, config })
    }

    /// The driving θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The configuration.
    pub fn config(&self) -> &ProposalConfig {
        &self.config
    }

    /// Choose a target node uniformly (the auxiliary variable φ of
    /// Section 4.3). For two-tip trees — which have no non-root interior
    /// node — the root itself is returned and the proposal degenerates to
    /// re-drawing the root time.
    pub fn sample_target<R: Rng + ?Sized>(&self, tree: &GeneTree, rng: &mut R) -> NodeId {
        let candidates = tree.non_root_internal_nodes();
        if candidates.is_empty() {
            tree.root()
        } else {
            candidates[uniform_index(rng, candidates.len())]
        }
    }

    /// Propose a new genealogy by resimulating the neighborhood of `target`.
    ///
    /// The returned tree reuses the arena of the input: only the times of
    /// `target` and its parent and the wiring among the three active lineages
    /// change.
    pub fn propose<R: Rng + ?Sized>(
        &self,
        tree: &GeneTree,
        target: NodeId,
        rng: &mut R,
    ) -> GeneTree {
        self.propose_with_edit(tree, target, rng).0
    }

    /// Like [`GenealogyProposer::propose`], but also report the edited node
    /// set — the nodes whose times or wiring differ from the input tree (the
    /// φ-neighborhood). The batched likelihood engine uses this to recompute
    /// only the dirty path from the edit to the root
    /// (`phylo::LikelihoodEngine::log_likelihood_batch`).
    ///
    /// One [`GenealogyProposer::plan`] followed by one
    /// [`GenealogyProposer::draw_into`] a fresh snapshot of `tree`; callers
    /// proposing many times from the same tree and target should plan once
    /// and draw repeatedly into reused trees.
    pub fn propose_with_edit<R: Rng + ?Sized>(
        &self,
        tree: &GeneTree,
        target: NodeId,
        rng: &mut R,
    ) -> (GeneTree, Vec<NodeId>) {
        let mut out = tree.clone();
        let mut edited = Vec::with_capacity(2);
        self.draw_into(&self.plan(tree, target), tree, rng, &mut out, &mut edited);
        (out, edited)
    }

    /// Build the deterministic part of resimulating `target`'s neighborhood
    /// in `tree`: the feasible intervals, their inactive-lineage counts, the
    /// backward `P_i(n)` pass and the forward weights it induces. Consumes
    /// no randomness; O(n log n) in the number of nodes.
    pub fn plan(&self, tree: &GeneTree, target: NodeId) -> NeighbourhoodPlan {
        if tree.is_root(target) || tree.is_tip(target) {
            return NeighbourhoodPlan { window: None };
        }
        let parent = tree.parent(target).expect("non-root node has a parent");
        let (c1, c2) = tree.children(target).expect("interior target has children");
        let sib = tree.sibling(target).expect("non-root node has a sibling");
        let upper = tree.parent(parent).map(|ancestor| tree.time(ancestor));
        let head_times = [tree.time(c1), tree.time(c2), tree.time(sib)];
        let mut segments = self.build_segments(tree, target, parent, &head_times, upper);
        self.weigh_segments(&mut segments);
        NeighbourhoodPlan {
            window: Some(Window {
                target,
                parent,
                heads: [c1, c2, sib],
                head_times,
                upper,
                segments,
            }),
        }
    }

    /// Draw one proposal from `plan`, which must have been built from `tree`,
    /// into `out`, and its edited node set into `edited`: the forward pass
    /// over the planned weights, event placement within the chosen intervals
    /// and the topology pick — the only steps that consume `rng`. `out` is
    /// first overwritten with `tree` by `clone_from`, so a reused `out` of
    /// the same shape takes the proposal in its own storage, and the draw
    /// allocates nothing.
    pub fn draw_into<R: Rng + ?Sized>(
        &self,
        plan: &NeighbourhoodPlan,
        tree: &GeneTree,
        rng: &mut R,
        out: &mut GeneTree,
        edited: &mut Vec<NodeId>,
    ) {
        out.clone_from(tree);
        edited.clear();
        let Some(window) = &plan.window else {
            // Two-tip degenerate case (or an explicit root target): re-draw
            // the root time from the prior conditional on its children.
            self.redraw_root_time(out, rng);
            edited.push(tree.root());
            return;
        };
        let Window { target, parent, heads, head_times, .. } = *window;
        debug_assert_eq!(tree.parent(target), Some(parent), "plan built from another tree");
        let (u1, u2) = self.sample_event_times(rng, window);

        // Topology: the first event merges a uniformly chosen pair among the
        // heads available at u1; the second merges the result with the rest.
        // The pair is the first two of a partial Fisher–Yates shuffle, the
        // same `gen_range` calls `dist::sample_without_replacement` makes.
        let mut available = [0usize; 3];
        let mut n_available = 0;
        for (i, &t) in head_times.iter().enumerate() {
            if t <= u1 + 1e-15 {
                available[n_available] = i;
                n_available += 1;
            }
        }
        debug_assert!(n_available >= 2, "first event requires two available heads");
        for i in 0..2 {
            let j = rng.gen_range(i..n_available);
            available.swap(i, j);
        }
        let first_a = heads[available[0]];
        let first_b = heads[available[1]];
        let third = heads
            .iter()
            .copied()
            .find(|&h| h != first_a && h != first_b)
            .expect("three distinct heads");

        // Rewire: `target` becomes the younger event, `parent` the older one.
        out.set_time(target, u1);
        out.set_children(target, first_a, first_b);
        out.set_time(parent, u2);
        out.set_children(parent, target, third);
        // The parent's own parent (the ancestor) is untouched; if the parent
        // was the root it stays the root.
        debug_assert!(out.validate().is_ok(), "proposal produced an invalid tree");
        edited.extend([target, parent]);
    }

    /// Degenerate proposal for two-tip trees: re-draw the root time from the
    /// prior (exponential with rate 2/θ above the younger... above the older
    /// tip).
    fn redraw_root_time<R: Rng + ?Sized>(&self, tree: &mut GeneTree, rng: &mut R) {
        let root = tree.root();
        let (a, b) = match tree.children(root) {
            Some(pair) => pair,
            None => return,
        };
        let floor = tree.time(a).max(tree.time(b));
        let wait = exponential(rng, 2.0 / self.theta);
        tree.set_time(root, floor + wait);
    }

    /// Build the feasible-interval decomposition of the resimulation window.
    fn build_segments(
        &self,
        tree: &GeneTree,
        target: NodeId,
        parent: NodeId,
        head_times: &[f64; 3],
        upper: Option<f64>,
    ) -> Vec<Segment> {
        let min_head = head_times.iter().cloned().fold(f64::INFINITY, f64::min);
        let upper_bound = upper.unwrap_or(f64::INFINITY);

        // Boundary times: head times, every other node time strictly inside
        // the window, and the ancestor time.
        let mut boundaries: Vec<f64> = Vec::new();
        for &t in head_times {
            boundaries.push(t);
        }
        for node in 0..tree.n_nodes() {
            if node == target || node == parent {
                continue;
            }
            let t = tree.time(node);
            if t > min_head && t < upper_bound {
                boundaries.push(t);
            }
        }
        if upper_bound.is_finite() {
            boundaries.push(upper_bound);
        }
        boundaries.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        boundaries.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

        // Each segment's inactive count is read at its midpoint (the tail's
        // one unit above its start); those times increase along the window,
        // so one sweep over the sorted edge endpoints answers every query.
        let mut inactive = InactiveSweep::new(tree, target, parent);
        let mut segments = Vec::with_capacity(boundaries.len());
        for w in boundaries.windows(2) {
            let (start, end) = (w[0], w[1]);
            let length = end - start;
            if length <= 0.0 {
                continue;
            }
            let mid = 0.5 * (start + end);
            segments.push(Segment {
                start,
                length,
                heads_available: head_times.iter().filter(|&&t| t <= start + 1e-15).count(),
                inactive: inactive.at(mid),
                unbounded: false,
                forward: [[0.0; 3]; 2],
            });
        }
        // Unbounded tail above the last boundary when there is no ancestor.
        if !upper_bound.is_finite() {
            let start = *boundaries.last().expect("at least the head boundaries exist");
            segments.push(Segment {
                start,
                length: f64::INFINITY,
                heads_available: 3,
                inactive: inactive.at(start + 1.0),
                unbounded: true,
                forward: [[0.0; 3]; 2],
            });
        }
        segments
    }

    /// The backward pass: `β[s][c]`, the weight of finishing with exactly two
    /// coalescences from the start of segment `s` given `c` already done.
    /// Each term `S·β[s+1][c+d]` of the recurrence is also the forward weight
    /// of `d` events in segment `s`, so it is stored for the draws.
    fn weigh_segments(&self, segments: &mut [Segment]) {
        let mut next = [0.0, 0.0, 1.0];
        for seg in segments.iter_mut().rev() {
            let mut beta = [0.0f64; 3];
            for (c, beta_c) in beta.iter_mut().enumerate() {
                let a = seg.heads_available.saturating_sub(c);
                if a == 0 {
                    continue;
                }
                if seg.unbounded {
                    // Everything that can still coalesce will; weight 1 when
                    // the remaining events are feasible (a − (2 − c) ≥ 1).
                    *beta_c = if seg.heads_available >= 3 || c == 2 { 1.0 } else { 0.0 };
                    continue;
                }
                let mut w = 0.0;
                let max_d = (2 - c).min(a.saturating_sub(1));
                for d in 0..=max_d {
                    let term = self.transfer(a, d, seg.inactive, seg.length) * next[c + d];
                    if c < 2 {
                        seg.forward[c][d] = term;
                    }
                    w += term;
                }
                *beta_c = w;
            }
            next = beta;
        }
    }

    /// Survival (tilt) rate μ_a for `a` active and `m` inactive lineages.
    fn mu(&self, a: usize, m: usize) -> f64 {
        match self.config.hazard {
            HazardModel::Conditional => (a * (a.saturating_sub(1)) + 2 * a * m) as f64 / self.theta,
            HazardModel::ActiveOnly => (a * (a.saturating_sub(1))) as f64 / self.theta,
        }
    }

    /// Event rate ν_a (active-pair coalescence rate) for `a` active lineages.
    fn nu(&self, a: usize) -> f64 {
        (a * a.saturating_sub(1)) as f64 / self.theta
    }

    /// Transfer weight of going from `a` to `a - d` active lineages across an
    /// interval of length `len` with `m` inactive lineages present.
    fn transfer(&self, a: usize, d: usize, m: usize, len: f64) -> f64 {
        if d == 0 {
            return if len.is_finite() { (-self.mu(a, m) * len).exp() } else { 0.0 };
        }
        if a < 2 || d > a - 1 || d > 2 {
            return 0.0;
        }
        let mu_a = self.mu(a, m);
        let mu_b = self.mu(a - 1, m);
        let nu_a = self.nu(a);
        if d == 1 {
            if !len.is_finite() {
                // ∫_0^∞ ν_a e^{-μ_a u} e^{-μ_{a-1}(∞-u)} du is zero unless the
                // remaining state has zero tilt (m = 0, a−1 = 1).
                // mpcgs-analyze: allow(d5, reason = "zero-tilt guard: mu is exactly 0.0 only in the m = 0, a-1 = 1 state where the rate is constructed as the literal zero")
                return if mu_b == 0.0 { nu_a / mu_a } else { 0.0 };
            }
            return if (mu_a - mu_b).abs() < 1e-12 {
                nu_a * len * (-mu_a * len).exp()
            } else {
                nu_a * ((-mu_b * len).exp() - (-mu_a * len).exp()) / (mu_a - mu_b)
            };
        }
        // d == 2, a == 3.
        let mu_c = self.mu(a - 2, m);
        let nu_b = self.nu(a - 1);
        if !len.is_finite() {
            // mpcgs-analyze: allow(d5, reason = "zero-tilt guard: mu is exactly 0.0 only in the m = 0, a-1 = 1 state where the rate is constructed as the literal zero")
            return if mu_c == 0.0 { (nu_a / mu_a) * (nu_b / mu_b) } else { 0.0 };
        }
        // Weight = ν_a ν_b ∫∫_{0<u1<u2<len} e^{-μ_a u1 - μ_b (u2-u1) - μ_c (len-u2)} du1 du2,
        // the standard hypoexponential convolution with three distinct rates.
        let rates = [mu_a, mu_b, mu_c];
        let mut sum = 0.0;
        for i in 0..3 {
            let mut denom = 1.0;
            for j in 0..3 {
                if j != i {
                    denom *= rates[j] - rates[i];
                }
            }
            sum += (-rates[i] * len).exp() / denom;
        }
        nu_a * nu_b * sum
    }

    /// Sample the two absolute coalescence times (younger, older) for the
    /// active lineages: the forward pass over the planned weights.
    fn sample_event_times<R: Rng + ?Sized>(&self, rng: &mut R, window: &Window) -> (f64, f64) {
        // Forward sampling of per-segment event counts and times; `c`
        // counts the events placed so far, never more than two.
        let mut times = [0.0f64; 2];
        let mut c = 0usize;
        for seg in &window.segments {
            if c == 2 {
                break;
            }
            let a = seg.heads_available.saturating_sub(c);
            if a == 0 {
                continue;
            }
            if seg.unbounded {
                // Unconditioned simulation in the tail.
                let mut t = seg.start;
                let mut act = a;
                while c < 2 {
                    let rate = self.nu(act).max(1e-300);
                    t += exponential(rng, rate);
                    times[c] = t;
                    c += 1;
                    act -= 1;
                }
                break;
            }
            let max_d = (2 - c).min(a.saturating_sub(1));
            let d = mcmc::rng::dist::categorical(rng, &seg.forward[c][..=max_d]).unwrap_or(0);
            match d {
                0 => {}
                1 => {
                    let u = self.place_single_event(rng, a, seg.inactive, seg.length);
                    times[c] = seg.start + u;
                    c += 1;
                }
                _ => {
                    let (u1, u2) = self.place_double_event(rng, seg.inactive, seg.length);
                    times = [seg.start + u1, seg.start + u2];
                    c += 2;
                }
            }
        }
        if c < 2 {
            // Numerical underflow in the conditioning weights (a window that
            // is extremely long relative to θ can drive every transfer weight
            // to zero): fall back to legal, deterministic placements near the
            // top of the window so the proposal is still a valid genealogy.
            let head_times = &window.head_times;
            let max_head = head_times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mid_head = {
                let mut sorted = *head_times;
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                sorted[1]
            };
            let ceiling = window.upper.unwrap_or(max_head + self.theta);
            if c == 0 {
                times[0] = mid_head + 0.25 * (ceiling - mid_head).max(1e-9);
            }
            let first = times[0].max(mid_head);
            times[0] = first;
            times[1] = first.max(max_head) + 0.25 * (ceiling - first.max(max_head)).max(1e-9);
        }
        // Numerical guard: enforce strict ordering.
        let u1 = times[0];
        let mut u2 = times[1];
        if u2 <= u1 {
            u2 = u1 + 1e-12;
        }
        (u1, u2)
    }

    /// Place a single event inside an interval of length `len`, starting with
    /// `a` active lineages: density ∝ e^{−(μ_a − μ_{a−1})·u} on (0, len).
    fn place_single_event<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: usize,
        m: usize,
        len: f64,
    ) -> f64 {
        let rate = self.mu(a, m) - self.mu(a - 1, m);
        tilted_uniform(rng, rate, len)
    }

    /// Place two events inside an interval of length `len` starting with
    /// three active lineages.
    fn place_double_event<R: Rng + ?Sized>(&self, rng: &mut R, m: usize, len: f64) -> (f64, f64) {
        let r1 = self.mu(3, m) - self.mu(2, m);
        let r2 = self.mu(2, m) - self.mu(1, m);
        // Marginal of the first time: ∝ e^{−(r1+r2)u} (1 − e^{−r2(len−u)}).
        let mut u1 = None;
        for _ in 0..self.config.placement_attempts {
            let candidate = tilted_uniform(rng, r1 + r2, len);
            let accept = 1.0 - (-r2 * (len - candidate)).exp();
            if rng.gen::<f64>() < accept {
                u1 = Some(candidate);
                break;
            }
        }
        let u1 = u1.unwrap_or(0.25 * len);
        // Second time given the first: truncated exponential with rate r2 on
        // (u1, len).
        let u2 = u1 + tilted_uniform(rng, r2, len - u1);
        (u1, u2.min(len * (1.0 - 1e-12)))
    }
}

/// Sample from the density ∝ e^{−rate·u} on (0, len); `rate` may be zero
/// (uniform) or negative (increasing density).
fn tilted_uniform<R: Rng + ?Sized>(rng: &mut R, rate: f64, len: f64) -> f64 {
    debug_assert!(len > 0.0, "tilted_uniform needs a positive interval");
    let u: f64 = rng.gen();
    if rate.abs() * len < 1e-12 {
        return u * len;
    }
    let z = 1.0 - (-rate * len).exp();
    let t = -(1.0 - u * z).ln() / rate;
    t.clamp(0.0, len)
}

/// Inactive (fixed) lineages crossing a time `t`: the edges of the tree
/// other than those touching the dissolved target and parent, whose child
/// is at or below `t` and whose parent is above `t`. Answers queries at
/// non-decreasing times in one sweep over the sorted edge endpoints — since
/// no child is older than its parent, the count is
/// `#{child ≤ t} − #{parent ≤ t}`.
struct InactiveSweep {
    births: Vec<f64>,
    deaths: Vec<f64>,
    born: usize,
    died: usize,
}

impl InactiveSweep {
    fn new(tree: &GeneTree, target: NodeId, parent: NodeId) -> Self {
        let mut births = Vec::with_capacity(tree.n_nodes());
        let mut deaths = Vec::with_capacity(tree.n_nodes());
        for node in 0..tree.n_nodes() {
            if node == target || node == parent {
                continue;
            }
            let Some(p) = tree.parent(node) else { continue };
            if p == target || p == parent {
                continue; // this is an active head's (removed) parent edge
            }
            births.push(tree.time(node));
            deaths.push(tree.time(p));
        }
        births.sort_unstable_by(f64::total_cmp);
        deaths.sort_unstable_by(f64::total_cmp);
        InactiveSweep { births, deaths, born: 0, died: 0 }
    }

    /// The count at `t`, which must not be below any earlier query.
    fn at(&mut self, t: f64) -> usize {
        while self.births.get(self.born).is_some_and(|&b| b <= t) {
            self.born += 1;
        }
        while self.deaths.get(self.died).is_some_and(|&d| d <= t) {
            self.died += 1;
        }
        self.born - self.died
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalescent::{CoalescentSimulator, KingmanPrior};
    use mcmc::rng::Mt19937;

    fn random_tree(rng: &mut Mt19937, n: usize, theta: f64) -> GeneTree {
        CoalescentSimulator::constant(theta).unwrap().simulate(rng, n).unwrap()
    }

    /// The direct O(n) count the one-sweep [`InactiveSweep`] replaces:
    /// inactive edges whose child is at or below `t` and whose parent is
    /// above it.
    fn inactive_lineages_at(tree: &GeneTree, target: NodeId, parent: NodeId, t: f64) -> usize {
        let mut count = 0;
        for node in 0..tree.n_nodes() {
            if node == target || node == parent {
                continue;
            }
            let Some(p) = tree.parent(node) else { continue };
            if p == target || p == parent {
                continue;
            }
            if tree.time(node) <= t && t < tree.time(p) {
                count += 1;
            }
        }
        count
    }

    /// Check every segment of every eligible target's plan against the
    /// direct count, at the time the plan reads it. Returns how many
    /// unbounded tails were checked.
    fn check_inactive_counts(proposer: &GenealogyProposer, tree: &GeneTree) -> usize {
        let mut tails = 0;
        for target in tree.non_root_internal_nodes() {
            let plan = proposer.plan(tree, target);
            let window = plan.window.as_ref().expect("interior targets plan a window");
            for seg in &window.segments {
                let t = if seg.unbounded { seg.start + 1.0 } else { seg.start + 0.5 * seg.length };
                let direct = inactive_lineages_at(tree, target, window.parent, t);
                assert_eq!(seg.inactive, direct, "target {target}, segment at {}", seg.start);
                tails += seg.unbounded as usize;
            }
        }
        tails
    }

    #[test]
    fn one_sweep_inactive_counts_match_the_direct_scan() {
        let proposer = GenealogyProposer::new(1.0).unwrap();
        let mut rng = Mt19937::new(43);
        let mut tails = 0;
        for n in [3usize, 4, 5, 8, 12, 17, 24, 33, 48, 64, 96] {
            for theta in [0.1, 1.0, 5.0] {
                tails += check_inactive_counts(&proposer, &random_tree(&mut rng, n, theta));
            }
        }
        assert!(tails > 0, "no root-parent target exercised the unbounded tail");

        // UPGMA joins identical sequences at exactly t = 0: tied heights
        // make boundaries coincide and zero-length edges cross no interval.
        let alignment = phylo::Alignment::from_letters(&[
            ("a", "ACGTACGTAC"),
            ("b", "ACGTACGTAC"),
            ("c", "ACGAACGTTC"),
            ("d", "TCGAACCTTC"),
            ("e", "ACGTACGTAC"),
            ("f", "GCGAACGTTA"),
        ])
        .unwrap();
        let tree = phylo::upgma_tree(&alignment, 1.0).unwrap();
        let zero_height = tree.non_root_internal_nodes().iter().any(|&v| tree.time(v) == 0.0);
        assert!(zero_height, "identical sequences should give a zero-height node");
        assert!(check_inactive_counts(&proposer, &tree) > 0);
    }

    #[test]
    fn one_plan_serves_every_stream_like_fresh_proposals() {
        // The multi-proposal sampler plans once per iteration and draws all
        // of its proposals from that plan, one stream each; that must give
        // exactly the trees that planning afresh per proposal gives.
        let mut rng = Mt19937::new(47);
        let streams = mcmc::rng::StreamBank::new(0x5EED, 32);
        for (n, theta) in [(2usize, 1.0), (6, 0.5), (12, 1.0), (48, 2.0)] {
            let proposer = GenealogyProposer::new(theta).unwrap();
            let tree = random_tree(&mut rng, n, 1.0);
            // One reused output tree for every draw, as the samplers keep
            // their proposal slots; it starts as an unrelated tree.
            let mut a = random_tree(&mut rng, n, 1.0);
            let mut edit_a = Vec::new();
            for epoch in 0..4u64 {
                let target = proposer.sample_target(&tree, &mut rng);
                let plan = proposer.plan(&tree, target);
                for slot in 0..32 {
                    let mut shared = streams.detached(epoch, slot);
                    let mut fresh = streams.detached(epoch, slot);
                    proposer.draw_into(&plan, &tree, &mut shared, &mut a, &mut edit_a);
                    let (b, edit_b) = proposer.propose_with_edit(&tree, target, &mut fresh);
                    assert_eq!(edit_a, edit_b);
                    assert_eq!(a, b);
                    assert_eq!(shared.position(), fresh.position());
                    for node in 0..tree.n_nodes() {
                        assert_eq!(a.time(node).to_bits(), b.time(node).to_bits());
                        assert_eq!(a.children(node), b.children(node));
                    }
                }
            }
        }
    }

    #[test]
    fn constructor_validation_and_accessors() {
        assert!(GenealogyProposer::new(0.0).is_err());
        assert!(GenealogyProposer::new(f64::NAN).is_err());
        let p = GenealogyProposer::new(1.5).unwrap();
        assert_eq!(p.theta(), 1.5);
        assert_eq!(p.config().hazard, HazardModel::Conditional);
        let p2 = GenealogyProposer::with_config(
            1.0,
            ProposalConfig { hazard: HazardModel::ActiveOnly, placement_attempts: 10 },
        )
        .unwrap();
        assert_eq!(p2.config().hazard, HazardModel::ActiveOnly);
    }

    #[test]
    fn proposals_are_valid_trees_with_unchanged_tips() {
        let mut rng = Mt19937::new(11);
        let theta = 1.0;
        let proposer = GenealogyProposer::new(theta).unwrap();
        for n in [3usize, 5, 8, 12] {
            let tree = random_tree(&mut rng, n, theta);
            for _ in 0..200 {
                let target = proposer.sample_target(&tree, &mut rng);
                let proposal = proposer.propose(&tree, target, &mut rng);
                proposal.validate().unwrap();
                assert_eq!(proposal.n_tips(), tree.n_tips());
                assert_eq!(proposal.tip_labels(), tree.tip_labels());
            }
        }
    }

    #[test]
    fn reported_edits_cover_every_changed_node() {
        // propose_with_edit must list exactly the nodes whose time or wiring
        // differs from the input tree; everything else is certified unchanged
        // (this is what the dirty-path likelihood cache relies on).
        let mut rng = Mt19937::new(41);
        let theta = 1.0;
        let proposer = GenealogyProposer::new(theta).unwrap();
        for n in [2usize, 5, 9] {
            let tree = random_tree(&mut rng, n, theta);
            for _ in 0..100 {
                let target = proposer.sample_target(&tree, &mut rng);
                let (proposal, edited) = proposer.propose_with_edit(&tree, target, &mut rng);
                proposal.validate().unwrap();
                assert!(!edited.is_empty() && edited.len() <= 2);
                for node in 0..tree.n_nodes() {
                    if edited.contains(&node) {
                        continue;
                    }
                    assert_eq!(proposal.time(node), tree.time(node), "node {node} time changed");
                    assert_eq!(
                        proposal.children(node),
                        tree.children(node),
                        "node {node} wiring changed"
                    );
                }
            }
        }
    }

    #[test]
    fn only_the_neighborhood_changes() {
        let mut rng = Mt19937::new(13);
        let theta = 1.0;
        let proposer = GenealogyProposer::new(theta).unwrap();
        let tree = random_tree(&mut rng, 10, theta);
        for _ in 0..100 {
            let target = proposer.sample_target(&tree, &mut rng);
            let parent = tree.parent(target).unwrap();
            let proposal = proposer.propose(&tree, target, &mut rng);
            for node in 0..tree.n_nodes() {
                if node == target || node == parent {
                    continue;
                }
                assert_eq!(
                    proposal.time(node),
                    tree.time(node),
                    "time of non-neighborhood node {node} changed"
                );
            }
        }
    }

    #[test]
    fn event_times_respect_the_ancestor_bound() {
        let mut rng = Mt19937::new(17);
        let theta = 2.0;
        let proposer = GenealogyProposer::new(theta).unwrap();
        let tree = random_tree(&mut rng, 12, theta);
        for _ in 0..300 {
            let target = proposer.sample_target(&tree, &mut rng);
            let parent = tree.parent(target).unwrap();
            let proposal = proposer.propose(&tree, target, &mut rng);
            if let Some(ancestor) = tree.parent(parent) {
                assert!(
                    proposal.time(parent) <= tree.time(ancestor) + 1e-9,
                    "older event beyond the ancestor"
                );
            }
            assert!(proposal.time(target) < proposal.time(parent));
            // Both events must be above the heads they join.
            let (a, b) = proposal.children(target).unwrap();
            assert!(proposal.time(target) >= proposal.time(a) - 1e-12);
            assert!(proposal.time(target) >= proposal.time(b) - 1e-12);
        }
    }

    #[test]
    fn two_tip_trees_redraw_the_root_time_from_the_prior() {
        let mut rng = Mt19937::new(19);
        let theta = 1.5;
        let proposer = GenealogyProposer::new(theta).unwrap();
        let tree = random_tree(&mut rng, 2, theta);
        let reps = 30_000;
        let mut sum = 0.0;
        for _ in 0..reps {
            let target = proposer.sample_target(&tree, &mut rng);
            assert_eq!(target, tree.root());
            let proposal = proposer.propose(&tree, target, &mut rng);
            proposal.validate().unwrap();
            sum += proposal.tmrca();
        }
        let mean = sum / reps as f64;
        // Expected TMRCA for n=2 is theta/2... with rate 2/theta the mean wait
        // is theta/2 = 0.75.
        assert!((mean - 0.75).abs() < 0.02, "mean root time {mean}");
    }

    /// The strongest correctness check: repeatedly applying the proposal with
    /// acceptance probability one is a Gibbs sampler whose stationary
    /// distribution is the coalescent prior, because each move resamples the
    /// neighborhood from its exact conditional distribution. Long-run tree
    /// statistics must therefore match the Kingman expectations.
    #[test]
    fn gibbs_chain_preserves_the_coalescent_prior() {
        let mut rng = Mt19937::new(23);
        let theta = 1.0;
        let n = 6usize;
        let proposer = GenealogyProposer::new(theta).unwrap();
        // Start far from equilibrium: a tree simulated with a much larger theta.
        let mut tree = random_tree(&mut rng, n, 10.0);
        let prior = KingmanPrior::new(theta).unwrap();

        let burn_in = 2_000;
        let samples = 30_000;
        let mut sum_tmrca = 0.0;
        let mut sum_length = 0.0;
        for step in 0..(burn_in + samples) {
            let target = proposer.sample_target(&tree, &mut rng);
            tree = proposer.propose(&tree, target, &mut rng);
            if step >= burn_in {
                sum_tmrca += tree.tmrca();
                sum_length += tree.total_branch_length();
            }
        }
        let mean_tmrca = sum_tmrca / samples as f64;
        let mean_length = sum_length / samples as f64;
        let expect_tmrca = prior.expected_tmrca(n);
        let expect_length = prior.expected_total_branch_length(n);
        assert!(
            (mean_tmrca / expect_tmrca - 1.0).abs() < 0.10,
            "TMRCA {mean_tmrca} vs Kingman expectation {expect_tmrca}"
        );
        assert!(
            (mean_length / expect_length - 1.0).abs() < 0.10,
            "tree length {mean_length} vs Kingman expectation {expect_length}"
        );
    }

    #[test]
    fn topology_changes_are_produced() {
        // Starting from a caterpillar-ish simulated tree, the proposal must
        // eventually change which nodes are siblings (Figure 9's reshuffling).
        let mut rng = Mt19937::new(29);
        let theta = 1.0;
        let proposer = GenealogyProposer::new(theta).unwrap();
        let tree = random_tree(&mut rng, 8, theta);
        let tip = tree.tips()[0];
        let original_sibling = tree.sibling(tip);
        let mut changed = false;
        let mut current = tree.clone();
        for _ in 0..2_000 {
            let target = proposer.sample_target(&current, &mut rng);
            current = proposer.propose(&current, target, &mut rng);
            if current.sibling(tip) != original_sibling {
                changed = true;
                break;
            }
        }
        assert!(changed, "2000 proposals never changed the topology around a tip");
    }

    #[test]
    fn active_only_hazard_also_produces_valid_trees() {
        let mut rng = Mt19937::new(31);
        let proposer = GenealogyProposer::with_config(
            1.0,
            ProposalConfig { hazard: HazardModel::ActiveOnly, placement_attempts: 100 },
        )
        .unwrap();
        let tree = random_tree(&mut rng, 10, 1.0);
        for _ in 0..200 {
            let target = proposer.sample_target(&tree, &mut rng);
            let proposal = proposer.propose(&tree, target, &mut rng);
            proposal.validate().unwrap();
        }
    }

    #[test]
    fn tilted_uniform_stays_in_range_and_matches_truncated_exponential() {
        let mut rng = Mt19937::new(37);
        for &(rate, len) in &[(0.0, 2.0), (3.0, 1.0), (-2.0, 0.5), (1e-15, 4.0)] {
            for _ in 0..2_000 {
                let u = tilted_uniform(&mut rng, rate, len);
                assert!((0.0..=len).contains(&u), "u={u} outside [0,{len}] for rate {rate}");
            }
        }
        // Positive rate: mean matches the truncated exponential mean.
        let (rate, len) = (2.0f64, 1.5f64);
        let n = 60_000;
        let mean: f64 = (0..n).map(|_| tilted_uniform(&mut rng, rate, len)).sum::<f64>() / n as f64;
        let expect = 1.0 / rate - len * (-rate * len).exp() / (1.0 - (-rate * len).exp());
        assert!((mean - expect).abs() < 0.01, "mean {mean} vs {expect}");
    }
}
