//! Genealogy trees.
//!
//! A [`GeneTree`] is a rooted, binary coalescent tree: tips carry the sampled
//! sequences (time 0 unless serially sampled) and each interior node is a
//! coalescent event with a time measured backwards from the present (larger =
//! older). This is the `G` of the paper. The structure supports the queries
//! the samplers need — parents, children, siblings, post-order traversal for
//! the pruning likelihood, the neighborhood queries of the proposal kernel
//! (Figures 7–10) — and the in-place surgery the proposal kernel performs
//! (retiming and re-wiring the target node and its parent).
//!
//! Since the columnar port, a `GeneTree` is a thin *view* over
//! [`TreeTables`] — node ids are unchanged (arena
//! indices), but the storage is five copy-on-write columns, so
//! [`GeneTree::clone`] is an O(1) snapshot instead of a deep copy. The
//! pointer-arena representation it replaced survives as
//! [`legacy::LegacyTree`], the oracle of the differential test harness.

mod builder;
mod intervals;
pub mod legacy;

pub use builder::TreeBuilder;
pub use intervals::CoalescentIntervals;

use crate::error::PhyloError;
use crate::tables::TreeTables;

/// Index of a node within a [`GeneTree`] arena.
pub type NodeId = usize;

/// A rooted binary genealogy with node times, backed by columnar
/// copy-on-write [`TreeTables`].
///
/// Cloning takes an O(1) snapshot: the clone shares every column slab with
/// the original and either side materialises only the slabs it subsequently
/// mutates. `clone_from` into an existing tree of the same shape copies the
/// node data into that tree's own slabs instead. Value semantics are fully
/// preserved — a clone never observes the original's later writes, and vice
/// versa.
#[derive(Debug)]
pub struct GeneTree {
    tables: TreeTables,
}

impl Clone for GeneTree {
    fn clone(&self) -> Self {
        GeneTree { tables: self.tables.snapshot() }
    }

    /// Overwrite this tree with `source`, reusing its own storage when it
    /// has the same shape (see [`TreeTables`]'s `clone_from`): the way to
    /// refill a scratch tree without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.tables.clone_from(&source.tables);
    }
}

impl PartialEq for GeneTree {
    /// Semantic equality: same root, tip count, and per-node
    /// parent/children/time/label. Trees that still share all their storage
    /// (snapshot never diverged) short-circuit to `true` without touching
    /// node data — the likelihood engine's generator-memo check rides this
    /// fast path.
    fn eq(&self, other: &Self) -> bool {
        if self.tables.shares_storage_with(&other.tables) {
            return self.root() == other.root() && self.n_tips() == other.n_tips();
        }
        if self.root() != other.root()
            || self.n_tips() != other.n_tips()
            || self.n_nodes() != other.n_nodes()
        {
            return false;
        }
        (0..self.n_nodes()).all(|n| {
            self.tables.parent_of(n) == other.tables.parent_of(n)
                && self.tables.children_of(n) == other.tables.children_of(n)
                && self.tables.time_of(n) == other.tables.time_of(n)
                && self.tables.label_of(n) == other.tables.label_of(n)
        })
    }
}

/// A plain-data description of one [`GeneTree`] node, in arena order — the
/// serialisation surface of a genealogy. [`GeneTree::node_records`] and
/// [`GeneTree::from_node_records`] round-trip a tree through these records
/// preserving the exact arena layout (indices, times, labels), which is what
/// lets a resumed sampler replay bit-identically: node ids recorded in
/// traces and caches stay valid.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Parent node id, `None` for the root.
    pub parent: Option<NodeId>,
    /// The two children, `None` for a tip.
    pub children: Option<(NodeId, NodeId)>,
    /// Node time (0 = present, larger = older).
    pub time: f64,
    /// Tip label, `None` for interior nodes.
    pub label: Option<String>,
}

impl GeneTree {
    /// The columnar node table backing this tree (read-only). Mutation goes
    /// through the `GeneTree` surgery methods, which preserve copy-on-write
    /// value semantics.
    pub fn tables(&self) -> &TreeTables {
        &self.tables
    }

    /// Export the arena as plain records (see [`NodeRecord`]).
    pub fn node_records(&self) -> Vec<NodeRecord> {
        self.tables.to_records()
    }

    /// Rebuild a tree from records produced by [`GeneTree::node_records`],
    /// preserving the exact arena layout. The reconstructed tree is fully
    /// validated (pointer consistency, reachability, age ordering), so a
    /// corrupted or hand-edited serialisation is rejected rather than
    /// silently producing a broken genealogy.
    pub fn from_node_records(records: Vec<NodeRecord>, root: NodeId) -> Result<Self, PhyloError> {
        let n_tips = records.iter().filter(|r| r.children.is_none()).count();
        if n_tips == 0 {
            return Err(PhyloError::InvalidTree { message: "tree records contain no tips".into() });
        }
        let tree = GeneTree { tables: TreeTables::from_records(&records, root)? };
        tree.validate()?;
        Ok(tree)
    }

    /// Number of tips (sampled sequences).
    pub fn n_tips(&self) -> usize {
        self.tables.n_tips()
    }

    /// Total number of nodes (`2 · n_tips − 1` for a binary tree).
    pub fn n_nodes(&self) -> usize {
        self.tables.n_nodes()
    }

    /// Number of interior (coalescent) nodes.
    pub fn n_internal(&self) -> usize {
        self.n_nodes() - self.n_tips()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.tables.root()
    }

    /// Whether `node` is a tip.
    pub fn is_tip(&self, node: NodeId) -> bool {
        self.tables.left_child_of(node).is_none()
    }

    /// Whether `node` is the root.
    pub fn is_root(&self, node: NodeId) -> bool {
        node == self.root()
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.tables.parent_of(node)
    }

    /// The two children of an interior node, or `None` for a tip.
    pub fn children(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        self.tables.children_of(node)
    }

    /// The sibling of `node` (the other child of its parent), or `None` for
    /// the root.
    pub fn sibling(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.parent(node)?;
        let (a, b) = self.children(parent).expect("parent must be interior");
        Some(if a == node { b } else { a })
    }

    /// The grandparent of `node`, if any.
    pub fn grandparent(&self, node: NodeId) -> Option<NodeId> {
        self.parent(self.parent(node)?)
    }

    /// The time of `node` (0 = present, larger = older).
    pub fn time(&self, node: NodeId) -> f64 {
        self.tables.time_of(node)
    }

    /// Set the time of `node`. The caller is responsible for keeping times
    /// consistent with the topology (checked by [`GeneTree::validate`]).
    pub fn set_time(&mut self, node: NodeId, time: f64) {
        self.tables.set_time_of(node, time);
    }

    /// The tip label, if this node is a labelled tip.
    pub fn label(&self, node: NodeId) -> Option<&str> {
        self.tables.label_of(node)
    }

    /// The branch length above `node` (to its parent), or `None` for the root.
    pub fn branch_length(&self, node: NodeId) -> Option<f64> {
        let parent = self.parent(node)?;
        Some(self.time(parent) - self.time(node))
    }

    /// All tip node ids, in arena order.
    pub fn tips(&self) -> Vec<NodeId> {
        (0..self.n_nodes()).filter(|&i| self.is_tip(i)).collect()
    }

    /// All interior node ids, in arena order.
    pub fn internal_nodes(&self) -> Vec<NodeId> {
        (0..self.n_nodes()).filter(|&i| !self.is_tip(i)).collect()
    }

    /// Interior nodes other than the root — the candidate targets of the
    /// proposal kernel's auxiliary variable φ (Section 4.3).
    pub fn non_root_internal_nodes(&self) -> Vec<NodeId> {
        (0..self.n_nodes()).filter(|&i| !self.is_tip(i) && !self.is_root(i)).collect()
    }

    /// Post-order traversal from the root (children before parents), the
    /// order required by the pruning likelihood (Section 2.4).
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.n_nodes());
        let mut stack = vec![(self.root(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded || self.is_tip(node) {
                order.push(node);
            } else {
                stack.push((node, true));
                let (a, b) = self.children(node).expect("interior node");
                stack.push((b, false));
                stack.push((a, false));
            }
        }
        order
    }

    /// The time of the most recent common ancestor (the root time).
    pub fn tmrca(&self) -> f64 {
        self.time(self.root())
    }

    /// Sum of all branch lengths.
    pub fn total_branch_length(&self) -> f64 {
        (0..self.n_nodes()).filter_map(|i| self.branch_length(i)).sum()
    }

    /// Multiply every node time by `factor` (used when scaling the UPGMA
    /// starting tree by the driving θ, Section 5.1.3).
    pub fn scale_times(&mut self, factor: f64) {
        self.tables.scale_times(factor);
    }

    /// Re-wire `node` to have children `(a, b)`. The children's parent
    /// pointers are updated; the *previous* children of `node` keep their
    /// (now stale) parent pointers and must be re-wired by the caller —
    /// this is the primitive the proposal kernel uses when it reassembles the
    /// dissolved neighborhood, and a full [`GeneTree::validate`] in debug
    /// builds guards against leaving the tree inconsistent.
    pub fn set_children(&mut self, node: NodeId, a: NodeId, b: NodeId) {
        self.tables.set_children_of(node, a, b);
    }

    /// Replace `old_child` with `new_child` among the children of `parent`.
    ///
    /// # Panics
    /// Panics if `old_child` is not currently a child of `parent`.
    pub fn replace_child(&mut self, parent: NodeId, old_child: NodeId, new_child: NodeId) {
        self.tables.replace_child_of(parent, old_child, new_child);
    }

    /// Declare `node` to be the root (clearing its parent pointer).
    pub fn set_root(&mut self, node: NodeId) {
        self.tables.set_root_node(node);
    }

    /// All node times of interior nodes (the coalescent event times).
    pub fn coalescence_times(&self) -> Vec<f64> {
        self.internal_nodes().iter().map(|&n| self.time(n)).collect()
    }

    /// Summarise the coalescent intervals of this genealogy (Figure 3).
    pub fn intervals(&self) -> CoalescentIntervals {
        CoalescentIntervals::from_tree(self)
    }

    /// Check structural invariants: parent/child links are mutually
    /// consistent, every non-root node is reachable from the root, node
    /// count is `2·n_tips − 1`, every parent is strictly older than its
    /// children, and the columnar sibling links carry no stale wiring
    /// ([`TreeTables::check_links`]).
    pub fn validate(&self) -> Result<(), PhyloError> {
        if self.n_nodes() != 2 * self.n_tips() - 1 {
            return Err(PhyloError::InvalidTree {
                message: format!(
                    "expected {} nodes for {} tips, found {}",
                    2 * self.n_tips() - 1,
                    self.n_tips(),
                    self.n_nodes()
                ),
            });
        }
        if self.parent(self.root()).is_some() {
            return Err(PhyloError::InvalidTree { message: "root has a parent".into() });
        }
        self.tables.check_links().map_err(|message| PhyloError::InvalidTree { message })?;
        let mut seen = vec![false; self.n_nodes()];
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            if seen[node] {
                return Err(PhyloError::InvalidTree {
                    message: format!("node {node} reachable twice (cycle or shared child)"),
                });
            }
            seen[node] = true;
            if let Some((a, b)) = self.children(node) {
                for child in [a, b] {
                    if self.parent(child) != Some(node) {
                        return Err(PhyloError::InvalidTree {
                            message: format!(
                                "child {child} of {node} has parent {:?}",
                                self.parent(child)
                            ),
                        });
                    }
                    if self.time(child) > self.time(node) + 1e-12 {
                        return Err(PhyloError::InvalidTree {
                            message: format!(
                                "child {child} (t={}) is older than parent {node} (t={})",
                                self.time(child),
                                self.time(node)
                            ),
                        });
                    }
                    stack.push(child);
                }
            }
        }
        if let Some(unreached) = seen.iter().position(|&s| !s) {
            return Err(PhyloError::InvalidTree {
                message: format!("node {unreached} is not reachable from the root"),
            });
        }
        Ok(())
    }

    /// The tip labels in arena order (unlabelled tips are reported as their
    /// index).
    pub fn tip_labels(&self) -> Vec<String> {
        self.tips()
            .into_iter()
            .map(|t| self.label(t).map(str::to_string).unwrap_or_else(|| t.to_string()))
            .collect()
    }

    /// Find a tip by label.
    pub fn tip_by_label(&self, label: &str) -> Option<NodeId> {
        self.tips().into_iter().find(|&t| self.label(t) == Some(label))
    }

    /// The most recent common ancestor of two nodes.
    pub fn mrca(&self, a: NodeId, b: NodeId) -> NodeId {
        // BTreeSet, not HashSet: membership-only today, but keeping the
        // sampler path free of unordered collections is invariant D1.
        let mut ancestors = std::collections::BTreeSet::new();
        let mut x = a;
        ancestors.insert(x);
        while let Some(p) = self.parent(x) {
            ancestors.insert(p);
            x = p;
        }
        let mut y = b;
        loop {
            if ancestors.contains(&y) {
                return y;
            }
            y = self.parent(y).expect("reached the root without finding the MRCA");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the five-tip example used throughout the tests:
    ///
    /// ```text
    /// time 4.0          r
    ///                  / \
    /// time 3.0        u   \
    ///                / \   \
    /// time 1.5      v   \   \
    ///              / \   \   \
    /// tips:       t0  t1  t2  w (time 2.0)
    ///                            \
    ///                            t3  t4
    /// ```
    ///
    /// Concretely: v = (t0,t1)@1.5, u = (v,t2)@3.0, w = (t3,t4)@2.0,
    /// r = (u,w)@4.0.
    fn five_tip_tree() -> GeneTree {
        let mut b = TreeBuilder::new();
        let t0 = b.add_tip("t0", 0.0);
        let t1 = b.add_tip("t1", 0.0);
        let t2 = b.add_tip("t2", 0.0);
        let t3 = b.add_tip("t3", 0.0);
        let t4 = b.add_tip("t4", 0.0);
        let v = b.join(t0, t1, 1.5);
        let u = b.join(v, t2, 3.0);
        let w = b.join(t3, t4, 2.0);
        let _r = b.join(u, w, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_root() {
        let t = five_tip_tree();
        assert_eq!(t.n_tips(), 5);
        assert_eq!(t.n_nodes(), 9);
        assert_eq!(t.n_internal(), 4);
        assert_eq!(t.tmrca(), 4.0);
        assert!(t.is_root(t.root()));
        assert!(!t.is_tip(t.root()));
        assert_eq!(t.non_root_internal_nodes().len(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn relationships() {
        let t = five_tip_tree();
        let t0 = t.tip_by_label("t0").unwrap();
        let t1 = t.tip_by_label("t1").unwrap();
        let t2 = t.tip_by_label("t2").unwrap();
        let v = t.parent(t0).unwrap();
        assert_eq!(t.parent(t1), Some(v));
        assert_eq!(t.sibling(t0), Some(t1));
        assert_eq!(t.time(v), 1.5);
        let u = t.parent(v).unwrap();
        assert_eq!(t.sibling(v), Some(t2));
        assert_eq!(t.grandparent(t0), Some(u));
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.sibling(t.root()), None);
        assert_eq!(t.grandparent(v), Some(t.root()));
        assert_eq!(t.branch_length(v), Some(1.5));
        assert_eq!(t.branch_length(t.root()), None);
        assert_eq!(t.mrca(t0, t2), u);
        assert_eq!(t.mrca(t0, t1), v);
        assert_eq!(t.mrca(t0, t.tip_by_label("t4").unwrap()), t.root());
    }

    #[test]
    fn post_order_visits_children_before_parents() {
        let t = five_tip_tree();
        let order = t.post_order();
        assert_eq!(order.len(), t.n_nodes());
        let position: Vec<usize> = {
            let mut pos = vec![0; t.n_nodes()];
            for (i, &n) in order.iter().enumerate() {
                pos[n] = i;
            }
            pos
        };
        for node in t.internal_nodes() {
            let (a, b) = t.children(node).unwrap();
            assert!(position[a] < position[node]);
            assert!(position[b] < position[node]);
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn total_branch_length_and_scaling() {
        let t = five_tip_tree();
        // Branch lengths: t0,t1 ->1.5 each; t2 -> 3.0; t3,t4 -> 2.0 each;
        // v -> 1.5; u -> 1.0; w -> 2.0. Total = 1.5+1.5+3+2+2+1.5+1+2 = 14.5.
        assert!((t.total_branch_length() - 14.5).abs() < 1e-12);
        let mut scaled = t.clone();
        scaled.scale_times(2.0);
        assert!((scaled.total_branch_length() - 29.0).abs() < 1e-12);
        assert_eq!(scaled.tmrca(), 8.0);
        scaled.validate().unwrap();
        // The clone diverged; the original is untouched (CoW value
        // semantics).
        assert_eq!(t.tmrca(), 4.0);
        assert!((t.total_branch_length() - 14.5).abs() < 1e-12);
    }

    #[test]
    fn tip_queries() {
        let t = five_tip_tree();
        assert_eq!(t.tips().len(), 5);
        assert_eq!(t.internal_nodes().len(), 4);
        assert_eq!(t.tip_labels(), vec!["t0", "t1", "t2", "t3", "t4"]);
        assert!(t.tip_by_label("nope").is_none());
        assert_eq!(t.label(t.root()), None);
        assert_eq!(t.coalescence_times().len(), 4);
    }

    #[test]
    fn surgery_primitives_rewire_consistently() {
        let mut t = five_tip_tree();
        let t0 = t.tip_by_label("t0").unwrap();
        let t2 = t.tip_by_label("t2").unwrap();
        let v = t.parent(t0).unwrap();
        let u = t.parent(v).unwrap();
        // Swap t0 and t2 between v and u: v = (t2, t1), u = (v, t0).
        let t1 = t.sibling(t0).unwrap();
        t.set_children(v, t2, t1);
        t.set_children(u, v, t0);
        t.validate().unwrap();
        assert_eq!(t.sibling(t2), Some(t1));
        assert_eq!(t.sibling(v), Some(t0));

        // replace_child: hang w's subtree where t0 was (and vice versa would
        // break the tree, so only do one side and then undo it).
        let err_tree = {
            let mut bad = t.clone();
            bad.set_time(v, 10.0); // v older than its parent u
            bad.validate()
        };
        assert!(err_tree.is_err());
    }

    #[test]
    fn replace_child_updates_parent_pointer() {
        let mut t = five_tip_tree();
        let t3 = t.tip_by_label("t3").unwrap();
        let t4 = t.tip_by_label("t4").unwrap();
        let w = t.parent(t3).unwrap();
        // Detach t4, attach t3's sibling slot to a clone of t4's position —
        // simplest valid exercise: replace t4 with t4 (no-op wiring) and
        // verify pointers.
        t.replace_child(w, t4, t4);
        assert_eq!(t.parent(t4), Some(w));
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "not a child")]
    fn replace_child_panics_for_non_child() {
        let mut t = five_tip_tree();
        let t0 = t.tip_by_label("t0").unwrap();
        let t3 = t.tip_by_label("t3").unwrap();
        let w = t.parent(t3).unwrap();
        t.replace_child(w, t0, t3);
    }

    #[test]
    fn node_records_round_trip_preserves_the_exact_arena() {
        let t = five_tip_tree();
        let records = t.node_records();
        assert_eq!(records.len(), t.n_nodes());
        let rebuilt = GeneTree::from_node_records(records, t.root()).unwrap();
        assert_eq!(rebuilt, t);
        assert_eq!(rebuilt.n_tips(), 5);
        assert_eq!(rebuilt.tip_labels(), t.tip_labels());
    }

    #[test]
    fn from_node_records_rejects_corrupted_serialisations() {
        let t = five_tip_tree();
        // Out-of-range root.
        assert!(GeneTree::from_node_records(t.node_records(), t.n_nodes()).is_err());
        // Out-of-range child pointer.
        let mut bad = t.node_records();
        let interior = (0..bad.len()).find(|&i| bad[i].children.is_some()).unwrap();
        bad[interior].children = Some((0, 999));
        assert!(GeneTree::from_node_records(bad, t.root()).is_err());
        // Inconsistent parent pointer.
        let mut bad = t.node_records();
        let tip = (0..bad.len()).find(|&i| bad[i].children.is_none()).unwrap();
        bad[tip].parent = Some(t.root());
        assert!(GeneTree::from_node_records(bad, t.root()).is_err());
        // No tips at all.
        assert!(GeneTree::from_node_records(Vec::new(), 0).is_err());
    }

    #[test]
    fn validation_catches_broken_trees() {
        let mut t = five_tip_tree();
        // Break a parent pointer directly through surgery primitives:
        // point the root's children at the same node twice via set_children.
        let t0 = t.tip_by_label("t0").unwrap();
        let t1 = t.tip_by_label("t1").unwrap();
        let root = t.root();
        t.set_children(root, t0, t1);
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn set_children_rejects_duplicates() {
        let mut t = five_tip_tree();
        let t0 = t.tip_by_label("t0").unwrap();
        let root = t.root();
        t.set_children(root, t0, t0);
    }

    #[test]
    fn clone_is_a_cheap_snapshot_with_value_semantics() {
        use crate::tables::cow_stats;
        let mut t = five_tip_tree();
        let before = cow_stats();
        let snap = t.clone();
        let delta = cow_stats().since(&before);
        assert_eq!(delta.snapshots, 1);
        assert_eq!(delta.slab_allocs + delta.slab_cow_clones, 0);
        assert_eq!(snap, t);

        // Diverge the original; the snapshot must be unaffected.
        let root = t.root();
        t.set_time(root, 9.0);
        assert_eq!(snap.tmrca(), 4.0);
        assert_eq!(t.tmrca(), 9.0);
        assert_ne!(snap, t);
        snap.validate().unwrap();
        t.validate().unwrap();
    }
}
