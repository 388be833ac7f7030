//! Columnar genealogy tables with copy-on-write snapshots.
//!
//! A [`TreeTables`] stores one genealogy as a *node table* in
//! structure-of-arrays form — five parallel columns indexed by [`NodeId`]:
//!
//! | column       | type  | meaning                                          |
//! |--------------|-------|--------------------------------------------------|
//! | `parent`     | `u32` | parent node id, [`NO_NODE`] for the root         |
//! | `left_child` | `u32` | first child, [`NO_NODE`] for tips                |
//! | `right_sib`  | `u32` | next sibling, [`NO_NODE`] for second children    |
//! | `time`       | `f64` | node time (0 = present, larger = older)          |
//! | `label_id`   | `u32` | index into the interned label arena, tips only   |
//!
//! This is the tskit-style "lightweight table collection" layout: the tree
//! topology is plain flat data, the two children of an interior node `n` are
//! `(left_child[n], right_sib[left_child[n]])`, and tip labels live once in
//! a shared, immutable arena instead of being cloned per tree.
//!
//! # Copy-on-write slabs
//!
//! Each column is split into fixed-size **slabs** of [`SLAB_LEN`] entries.
//! A column holds an `Arc` directory of `Arc`-counted slabs, so
//! [`TreeTables::snapshot`] is O(1): it bumps six reference counts (five
//! column directories plus the label arena) and copies *no node data at
//! all*. Mutation goes through [`Column::set`], which materialises — clones
//! — only the directory and the single touched slab, and only while they are
//! still shared. A sampler proposal that edits two nodes therefore pays for
//! at most a handful of 64-entry slabs instead of a deep tree clone, and
//! replica-exchange swaps, ensemble read-back and checkpoint export are
//! reference-count bumps.
//!
//! # `clone` versus `clone_from`
//!
//! `clone()` is always the O(1) snapshot above. `clone_from` is the reuse
//! path for scratch trees that are overwritten over and over, like a
//! sampler's proposal slots: when the target owns its slab directory and
//! has the source's shape, the source's node data is copied into the
//! target's own slabs, so the edits that follow hit uniquely owned slabs
//! and allocate nothing. Slabs the target already shares with the source
//! are kept; slabs it shares with any third table are replaced by the
//! source's, never written through. A target of another shape, or one whose
//! directory is shared, takes a snapshot instead.
//!
//! # View-vs-owner rules
//!
//! [`GeneTree`] is a thin *view* over one
//! `TreeTables` value: every query delegates to the columns and every
//! mutator goes through [`Column::set`], so value semantics are preserved —
//! two trees that share slabs can never observe each other's writes. Code
//! holding a `&GeneTree` may read columns directly via
//! [`GeneTree::tables`](crate::tree::GeneTree::tables); *owning* a tree (or
//! holding `&mut`) is required to mutate, exactly as before the columnar
//! port. Nothing outside this module touches slabs.
//!
//! # Instrumentation
//!
//! Thread-local counters record snapshots taken, slabs allocated, slabs
//! cloned by copy-on-write, and slabs dropped ([`cow_stats`]). They exist so
//! tests can assert the O(1) snapshot contract ("a snapshot clones zero
//! slabs") and the no-orphan contract ("dropping every snapshot returns the
//! live-slab count to its baseline") without heap profiling. Counters are
//! per-thread: drive the code under test on one thread when asserting exact
//! deltas.

use std::cell::Cell;
use std::sync::Arc;

use crate::error::PhyloError;
use crate::tree::{GeneTree, NodeId, NodeRecord};

/// Entries per copy-on-write slab. 64 keeps a whole `u32` slab in four cache
/// lines and bounds the cost of materialising one mutated slab.
pub const SLAB_LEN: usize = 64;
const SLAB_SHIFT: usize = 6;
const SLAB_MASK: usize = SLAB_LEN - 1;

/// Column sentinel for "no node" (no parent / no child / no sibling /
/// no label).
pub const NO_NODE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Copy-on-write accounting
// ---------------------------------------------------------------------------

thread_local! {
    static SNAPSHOTS_TAKEN: Cell<u64> = const { Cell::new(0) };
    static SLAB_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static SLAB_COW_CLONES: Cell<u64> = const { Cell::new(0) };
    static SLAB_DROPS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time reading of this thread's copy-on-write counters.
///
/// Obtain two readings and subtract to assert exact slab traffic for a code
/// region — e.g. the O(1) snapshot test takes a snapshot between readings
/// and requires `slab_allocs`, `slab_cow_clones` *and* `slab_drops` deltas
/// of zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CowStats {
    /// Snapshots taken ([`TreeTables::snapshot`] / `GeneTree::clone`).
    pub snapshots: u64,
    /// Slabs allocated from scratch (tree construction).
    pub slab_allocs: u64,
    /// Slabs materialised by copy-on-write (a mutation hit a shared slab).
    pub slab_cow_clones: u64,
    /// Slabs freed.
    pub slab_drops: u64,
}

impl CowStats {
    /// Slabs currently alive that were created *and* dropped on this thread.
    pub fn live_slabs(&self) -> i64 {
        (self.slab_allocs + self.slab_cow_clones) as i64 - self.slab_drops as i64
    }

    /// Component-wise difference `self - earlier` (counter deltas).
    pub fn since(&self, earlier: &CowStats) -> CowStats {
        CowStats {
            snapshots: self.snapshots - earlier.snapshots,
            slab_allocs: self.slab_allocs - earlier.slab_allocs,
            slab_cow_clones: self.slab_cow_clones - earlier.slab_cow_clones,
            slab_drops: self.slab_drops - earlier.slab_drops,
        }
    }
}

/// Read this thread's copy-on-write counters.
pub fn cow_stats() -> CowStats {
    CowStats {
        snapshots: SNAPSHOTS_TAKEN.with(Cell::get),
        slab_allocs: SLAB_ALLOCS.with(Cell::get),
        slab_cow_clones: SLAB_COW_CLONES.with(Cell::get),
        slab_drops: SLAB_DROPS.with(Cell::get),
    }
}

// ---------------------------------------------------------------------------
// Slabs and columns
// ---------------------------------------------------------------------------

/// One fixed-size block of column entries. Creation, copy-on-write cloning
/// and destruction are counted so tests can assert slab traffic exactly.
#[derive(Debug)]
struct Slab<T> {
    data: [T; SLAB_LEN],
}

impl<T: Copy> Slab<T> {
    fn filled(fill: T) -> Self {
        SLAB_ALLOCS.with(|c| c.set(c.get() + 1));
        Slab { data: [fill; SLAB_LEN] }
    }
}

impl<T: Copy> Clone for Slab<T> {
    /// Invoked only by `Arc::make_mut` when a mutation hits a shared slab —
    /// this *is* the copy-on-write materialisation.
    fn clone(&self) -> Self {
        SLAB_COW_CLONES.with(|c| c.set(c.get() + 1));
        Slab { data: self.data }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        SLAB_DROPS.with(|c| c.set(c.get() + 1));
    }
}

/// One column of the node table: an `Arc` directory of `Arc`-counted slabs.
/// Cloning a column bumps one reference count; writing through [`Column::set`]
/// materialises the directory and the touched slab only while shared.
#[derive(Debug, Clone)]
pub struct Column<T: Copy> {
    dir: Arc<Vec<Arc<Slab<T>>>>,
    len: usize,
}

impl<T: Copy> Column<T> {
    /// Build a column from `values`, padding the final slab with `fill`.
    pub fn from_values(values: &[T], fill: T) -> Self {
        let mut dir = Vec::with_capacity(values.len().div_ceil(SLAB_LEN));
        for block in values.chunks(SLAB_LEN) {
            let mut slab = Slab::filled(fill);
            slab.data[..block.len()].copy_from_slice(block);
            dir.push(Arc::new(slab));
        }
        Column { dir: Arc::new(dir), len: values.len() }
    }

    /// Copy `source` into this column's own storage when this column owns
    /// its directory and has the same length: uniquely owned slabs are
    /// overwritten in place, slabs already shared with `source` are kept,
    /// and slabs shared with any other column are swapped for `source`'s
    /// (a snapshot of that slab). Otherwise this takes the O(1) snapshot.
    /// Either way no other column observes a write.
    fn copy_from(&mut self, source: &Self) {
        if Arc::ptr_eq(&self.dir, &source.dir) {
            return;
        }
        let dir = match Arc::get_mut(&mut self.dir) {
            Some(dir) if self.len == source.len => dir,
            _ => {
                *self = source.clone();
                return;
            }
        };
        for (slab, from) in dir.iter_mut().zip(source.dir.iter()) {
            if Arc::ptr_eq(slab, from) {
                continue;
            }
            match Arc::get_mut(slab) {
                Some(owned) => owned.data = from.data,
                None => *slab = Arc::clone(from),
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "column index {i} out of range for {} entries", self.len);
        self.dir[i >> SLAB_SHIFT].data[i & SLAB_MASK]
    }

    /// Write entry `i`, materialising the directory and the touched slab if
    /// they are still shared with a snapshot (copy-on-write).
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        debug_assert!(i < self.len, "column index {i} out of range for {} entries", self.len);
        let dir = Arc::make_mut(&mut self.dir);
        let slab = Arc::make_mut(&mut dir[i >> SLAB_SHIFT]);
        slab.data[i & SLAB_MASK] = value;
    }

    /// Apply `f` to every entry in place (used by whole-tree retiming).
    pub fn map_in_place(&mut self, mut f: impl FnMut(T) -> T) {
        let len = self.len;
        let dir = Arc::make_mut(&mut self.dir);
        for (s, arc) in dir.iter_mut().enumerate() {
            let slab = Arc::make_mut(arc);
            let fill = ((s + 1) * SLAB_LEN).min(len) - s * SLAB_LEN;
            for slot in &mut slab.data[..fill] {
                *slot = f(*slot);
            }
        }
    }

    /// Whether two columns share their slab directory (bit-identical by
    /// construction).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.dir, &other.dir)
    }

    /// Number of slabs backing the column.
    pub fn slab_count(&self) -> usize {
        self.dir.len()
    }

    /// Number of backing slabs currently shared with at least one snapshot.
    /// Sharing is hierarchical: while the slab *directory* itself is shared,
    /// every slab beneath it is shared; once a mutation materialises the
    /// directory, sharing is per-slab.
    pub fn shared_slab_count(&self) -> usize {
        if Arc::strong_count(&self.dir) > 1 {
            return self.dir.len();
        }
        self.dir.iter().filter(|slab| Arc::strong_count(slab) > 1).count()
    }

    /// Check the slab ledger: the directory must hold exactly the slabs the
    /// length requires — no truncated directory, no orphan slabs hanging off
    /// the end after copy-on-write traffic.
    fn check_ledger(&self, name: &str) -> Result<(), String> {
        let expected = self.len.div_ceil(SLAB_LEN);
        if self.dir.len() != expected {
            return Err(format!(
                "column {name}: {} slabs back {} entries (expected {expected})",
                self.dir.len(),
                self.len
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The node table
// ---------------------------------------------------------------------------

/// A columnar genealogy store: five node-table columns plus an interned
/// label arena, with O(1) copy-on-write [`TreeTables::snapshot`]s. See the
/// [module docs](self) for the layout and the sharing rules.
#[derive(Debug)]
pub struct TreeTables {
    parent: Column<u32>,
    left_child: Column<u32>,
    right_sib: Column<u32>,
    time: Column<f64>,
    label_id: Column<u32>,
    /// Interned tip labels, shared (never mutated) across every snapshot.
    labels: Arc<Vec<String>>,
    root: u32,
    n_tips: u32,
}

impl Clone for TreeTables {
    /// Cloning *is* snapshotting: six reference-count bumps, no node data
    /// copied. Counted in [`CowStats::snapshots`].
    fn clone(&self) -> Self {
        SNAPSHOTS_TAKEN.with(|c| c.set(c.get() + 1));
        TreeTables {
            parent: self.parent.clone(),
            left_child: self.left_child.clone(),
            right_sib: self.right_sib.clone(),
            time: self.time.clone(),
            label_id: self.label_id.clone(),
            labels: Arc::clone(&self.labels),
            root: self.root,
            n_tips: self.n_tips,
        }
    }

    /// Copy `source` into this table's own storage, column by column (see
    /// the [module docs](self)): a reused table of the same shape takes
    /// the source's node data without allocating, and a column that cannot
    /// be reused falls back to a snapshot of the source column. Not counted
    /// in [`CowStats::snapshots`].
    fn clone_from(&mut self, source: &Self) {
        self.parent.copy_from(&source.parent);
        self.left_child.copy_from(&source.left_child);
        self.right_sib.copy_from(&source.right_sib);
        self.time.copy_from(&source.time);
        self.label_id.copy_from(&source.label_id);
        if !Arc::ptr_eq(&self.labels, &source.labels) {
            self.labels = Arc::clone(&source.labels);
        }
        self.root = source.root;
        self.n_tips = source.n_tips;
    }
}

impl TreeTables {
    /// Build a node table from plain records in arena order. Id ranges are
    /// checked here; full structural validation is the caller's job (the
    /// [`GeneTree`] constructors run
    /// [`GeneTree::validate`](crate::tree::GeneTree::validate)).
    pub fn from_records(records: &[NodeRecord], root: NodeId) -> Result<Self, PhyloError> {
        let n = records.len();
        if root >= n {
            return Err(PhyloError::InvalidTree {
                message: format!("root id {root} out of range for {n} nodes"),
            });
        }
        for record in records {
            for id in record.parent.iter().chain(record.children.iter().flat_map(|(a, b)| [a, b])) {
                if *id >= n {
                    return Err(PhyloError::InvalidTree {
                        message: format!("node id {id} out of range for {n} nodes"),
                    });
                }
            }
        }
        let mut parent = vec![NO_NODE; n];
        let mut left_child = vec![NO_NODE; n];
        let mut right_sib = vec![NO_NODE; n];
        let mut time = vec![0.0f64; n];
        let mut label_id = vec![NO_NODE; n];
        let mut labels = Vec::new();
        let mut n_tips = 0u32;
        for (i, record) in records.iter().enumerate() {
            if let Some(p) = record.parent {
                parent[i] = p as u32;
            }
            if let Some((a, b)) = record.children {
                left_child[i] = a as u32;
                right_sib[a] = b as u32;
                right_sib[b] = NO_NODE;
            } else {
                n_tips += 1;
            }
            time[i] = record.time;
            if let Some(label) = &record.label {
                label_id[i] = labels.len() as u32;
                labels.push(label.clone());
            }
        }
        Ok(TreeTables {
            parent: Column::from_values(&parent, NO_NODE),
            left_child: Column::from_values(&left_child, NO_NODE),
            right_sib: Column::from_values(&right_sib, NO_NODE),
            time: Column::from_values(&time, 0.0),
            label_id: Column::from_values(&label_id, NO_NODE),
            labels: Arc::new(labels),
            root: root as u32,
            n_tips,
        })
    }

    /// Take an O(1) copy-on-write snapshot: reference-count bumps only, no
    /// per-node copying. Later mutations of either side materialise only the
    /// touched slabs.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// Export the table as plain records, in arena order.
    pub fn to_records(&self) -> Vec<NodeRecord> {
        (0..self.n_nodes())
            .map(|i| NodeRecord {
                parent: self.parent_of(i),
                children: self.children_of(i),
                time: self.time_of(i),
                label: self.label_of(i).map(str::to_string),
            })
            .collect()
    }

    /// Total number of node slots.
    pub fn n_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Number of tips.
    pub fn n_tips(&self) -> usize {
        self.n_tips as usize
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root as usize
    }

    /// The parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        decode(self.parent.get(node))
    }

    /// The first child of `node`, or `None` for a tip.
    #[inline]
    pub fn left_child_of(&self, node: NodeId) -> Option<NodeId> {
        decode(self.left_child.get(node))
    }

    /// The next sibling of `node`: the second child of its parent when
    /// `node` is a first child, `None` otherwise.
    #[inline]
    pub fn right_sib_of(&self, node: NodeId) -> Option<NodeId> {
        decode(self.right_sib.get(node))
    }

    /// Both children of an interior node (first child, then its right
    /// sibling), or `None` for a tip.
    #[inline]
    pub fn children_of(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        let first = self.left_child_of(node)?;
        let second = self
            .right_sib_of(first)
            .expect("binary node table: a first child always has a right sibling");
        Some((first, second))
    }

    /// The time of `node`.
    #[inline]
    pub fn time_of(&self, node: NodeId) -> f64 {
        self.time.get(node)
    }

    /// Set the time of `node` (copy-on-write).
    #[inline]
    pub fn set_time_of(&mut self, node: NodeId, time: f64) {
        self.time.set(node, time);
    }

    /// The interned label of `node`, if it carries one.
    #[inline]
    pub fn label_of(&self, node: NodeId) -> Option<&str> {
        decode(self.label_id.get(node)).map(|id| self.labels[id].as_str())
    }

    /// Re-wire `node` to have children `(a, b)` (copy-on-write). The
    /// children's parent and sibling links are updated; the *previous*
    /// children of `node` keep their now-stale links and must be re-wired by
    /// the caller, exactly like the pointer representation this replaces.
    pub fn set_children_of(&mut self, node: NodeId, a: NodeId, b: NodeId) {
        assert!(node != a && node != b && a != b, "set_children requires three distinct nodes");
        self.left_child.set(node, a as u32);
        self.right_sib.set(a, b as u32);
        self.right_sib.set(b, NO_NODE);
        self.parent.set(a, node as u32);
        self.parent.set(b, node as u32);
    }

    /// Replace `old_child` with `new_child` among the children of `parent`
    /// (copy-on-write).
    ///
    /// # Panics
    /// Panics if `old_child` is not currently a child of `parent`.
    pub fn replace_child_of(&mut self, parent: NodeId, old_child: NodeId, new_child: NodeId) {
        let (a, b) = self.children_of(parent).expect("replace_child on a tip");
        if a == old_child {
            self.left_child.set(parent, new_child as u32);
            self.right_sib.set(new_child, b as u32);
        } else if b == old_child {
            self.right_sib.set(a, new_child as u32);
            self.right_sib.set(new_child, NO_NODE);
        } else {
            panic!("node {old_child} is not a child of {parent}");
        }
        self.parent.set(new_child, parent as u32);
    }

    /// Declare `node` the root: clears its parent *and* sibling links.
    pub fn set_root_node(&mut self, node: NodeId) {
        self.root = node as u32;
        self.parent.set(node, NO_NODE);
        self.right_sib.set(node, NO_NODE);
    }

    /// Multiply every node time by `factor` (copy-on-write over the whole
    /// time column).
    pub fn scale_times(&mut self, factor: f64) {
        self.time.map_in_place(|t| t * factor);
    }

    /// Whether `self` and `other` share every column directory and the label
    /// arena — a pointer-level fast path implying bit-identical contents.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        self.parent.ptr_eq(&other.parent)
            && self.left_child.ptr_eq(&other.left_child)
            && self.right_sib.ptr_eq(&other.right_sib)
            && self.time.ptr_eq(&other.time)
            && self.label_id.ptr_eq(&other.label_id)
            && Arc::ptr_eq(&self.labels, &other.labels)
    }

    /// Total slabs backing the five columns.
    pub fn total_slabs(&self) -> usize {
        self.parent.slab_count()
            + self.left_child.slab_count()
            + self.right_sib.slab_count()
            + self.time.slab_count()
            + self.label_id.slab_count()
    }

    /// Slabs currently shared with at least one snapshot.
    pub fn shared_slabs(&self) -> usize {
        self.parent.shared_slab_count()
            + self.left_child.shared_slab_count()
            + self.right_sib.shared_slab_count()
            + self.time.shared_slab_count()
            + self.label_id.shared_slab_count()
    }

    /// Structural link check specific to the columnar encoding: every column
    /// ledger is exact (no orphan or missing slabs) and every *reachable*
    /// sibling link is consistent with the parent/left-child links — a first
    /// child's `right_sib` names its actual sibling, a second child's and the
    /// root's are cleared. Catches stale links leaking out of surgery.
    pub fn check_links(&self) -> Result<(), String> {
        for (column, name) in [
            (&self.parent, "parent"),
            (&self.left_child, "left_child"),
            (&self.right_sib, "right_sib"),
        ] {
            column.check_ledger(name)?;
        }
        self.time.check_ledger("time")?;
        self.label_id.check_ledger("label_id")?;
        for node in 0..self.n_nodes() {
            let lc = self.left_child.get(node);
            if lc == NO_NODE {
                continue;
            }
            let a = lc as usize;
            let rs_a = self.right_sib.get(a);
            if rs_a == NO_NODE {
                return Err(format!("first child {a} of {node} lost its right sibling"));
            }
            let b = rs_a as usize;
            let rs_b = self.right_sib.get(b);
            if rs_b != NO_NODE {
                return Err(format!("second child {b} of {node} has a dangling right_sib {rs_b}"));
            }
        }
        if self.right_sib_of(self.root()).is_some() {
            return Err(format!(
                "root {} has a dangling right_sib {:?}",
                self.root(),
                self.right_sib_of(self.root())
            ));
        }
        Ok(())
    }
}

#[inline]
fn decode(raw: u32) -> Option<NodeId> {
    if raw == NO_NODE {
        None
    } else {
        Some(raw as usize)
    }
}

// ---------------------------------------------------------------------------
// Representation-independent genealogy checking
// ---------------------------------------------------------------------------

/// Check the structural invariants of a genealogy given as plain records:
/// mutually consistent parent/child links, exactly one root (`root`, with no
/// parent), every node reachable exactly once, binary arity implied by the
/// record shape, parents strictly older than their children (the
/// "ultrametric-in-age" ordering; serially sampled tips are allowed), and
/// tips carrying labels that are unique.
///
/// The checker is deliberately representation-independent so the columnar
/// [`TreeTables`] suite and the legacy pointer-arena suite
/// ([`crate::tree::legacy`]) assert the *same* contract.
pub fn validate_genealogy_records(records: &[NodeRecord], root: NodeId) -> Result<(), String> {
    let n = records.len();
    if n == 0 {
        return Err("genealogy has no nodes".to_string());
    }
    let n_tips = records.iter().filter(|r| r.children.is_none()).count();
    if n != 2 * n_tips.max(1) - 1 {
        return Err(format!("expected {} nodes for {n_tips} tips, found {n}", 2 * n_tips - 1));
    }
    if root >= n {
        return Err(format!("root id {root} out of range for {n} nodes"));
    }
    if records[root].parent.is_some() {
        return Err(format!("root {root} has a parent"));
    }
    for (i, record) in records.iter().enumerate() {
        if i != root && record.parent.is_none() {
            return Err(format!("non-root node {i} has no parent"));
        }
        if let Some((a, b)) = record.children {
            if a.max(b) >= n {
                return Err(format!("node {i} has out-of-range child ({a}, {b})"));
            }
            if a == b {
                return Err(format!("node {i} lists child {a} twice"));
            }
            for child in [a, b] {
                if records[child].parent != Some(i) {
                    return Err(format!(
                        "parent/child asymmetry: {i} lists child {child}, but {child}'s parent \
                         is {:?}",
                        records[child].parent
                    ));
                }
                if records[child].time > record.time + 1e-12 {
                    return Err(format!(
                        "age inversion: child {child} (t={}) is older than parent {i} (t={})",
                        records[child].time, record.time
                    ));
                }
            }
        } else if record.label.is_none() {
            return Err(format!("tip {i} carries no label"));
        }
    }
    // Reachability: every node exactly once from the root.
    let mut seen = vec![false; n];
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if seen[node] {
            return Err(format!("node {node} reachable twice (cycle or shared child)"));
        }
        seen[node] = true;
        if let Some((a, b)) = records[node].children {
            stack.push(a);
            stack.push(b);
        }
    }
    if let Some(unreached) = seen.iter().position(|&s| !s) {
        return Err(format!("node {unreached} is not reachable from the root"));
    }
    // Label uniqueness across tips.
    let mut labels: Vec<&str> = records.iter().filter_map(|r| r.label.as_deref()).collect();
    labels.sort_unstable();
    if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate tip label {:?}", dup[0]));
    }
    Ok(())
}

/// Assert every structural invariant of a columnar genealogy, panicking with
/// a pointed message on violation: the record-level contract of
/// [`validate_genealogy_records`] *plus* the columnar link/ledger checks of
/// [`TreeTables::check_links`]. Intended for test suites; the legacy
/// representation's suites call [`validate_genealogy_records`] on their
/// exported records to assert the shared half of the contract.
#[track_caller]
pub fn assert_valid_genealogy(tree: &GeneTree) {
    if let Err(message) = validate_genealogy_records(&tree.node_records(), tree.root()) {
        panic!("invalid genealogy: {message}");
    }
    if let Err(message) = tree.tables().check_links() {
        panic!("invalid genealogy tables: {message}");
    }
    if let Err(error) = tree.validate() {
        panic!("invalid genealogy (tree::validate): {error}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn chain_records(n_tips: usize) -> (Vec<NodeRecord>, NodeId) {
        let mut builder = TreeBuilder::new();
        let mut head = builder.add_tip("t0", 0.0);
        for k in 1..n_tips {
            let tip = builder.add_tip(format!("t{k}"), 0.0);
            head = builder.join(head, tip, k as f64);
        }
        let tree = builder.build().unwrap();
        (tree.node_records(), tree.root())
    }

    #[test]
    fn records_round_trip_through_the_columns() {
        let (records, root) = chain_records(9);
        let tables = TreeTables::from_records(&records, root).unwrap();
        assert_eq!(tables.to_records(), records);
        assert_eq!(tables.n_tips(), 9);
        assert_eq!(tables.n_nodes(), 17);
        tables.check_links().unwrap();
        validate_genealogy_records(&tables.to_records(), tables.root()).unwrap();
    }

    #[test]
    fn snapshot_is_o1_and_shares_every_slab() {
        // A tree big enough to span many slabs per column.
        let (records, root) = chain_records(200);
        let tables = TreeTables::from_records(&records, root).unwrap();
        assert!(tables.total_slabs() > 25, "fixture should span many slabs");
        assert_eq!(tables.shared_slabs(), 0);

        let before = cow_stats();
        let snap = tables.snapshot();
        let after = cow_stats();
        let delta = after.since(&before);
        assert_eq!(delta.snapshots, 1);
        assert_eq!(delta.slab_allocs, 0, "snapshot must allocate no slabs");
        assert_eq!(delta.slab_cow_clones, 0, "snapshot must clone no slabs");
        assert_eq!(delta.slab_drops, 0);
        assert!(tables.shares_storage_with(&snap));
        assert_eq!(tables.shared_slabs(), tables.total_slabs());
    }

    #[test]
    fn mutation_materialises_only_the_touched_slab() {
        let (records, root) = chain_records(200);
        let mut tables = TreeTables::from_records(&records, root).unwrap();
        let snap = tables.snapshot();

        let before = cow_stats();
        tables.set_time_of(0, 42.0);
        let delta = cow_stats().since(&before);
        // One slab of the time column materialised; the directory clone is
        // a Vec of Arcs, not a slab.
        assert_eq!(delta.slab_cow_clones, 1);
        assert_eq!(delta.slab_allocs, 0);

        // The snapshot is unaffected (value semantics).
        assert_eq!(snap.time_of(0), 0.0);
        assert_eq!(tables.time_of(0), 42.0);
        // Everything but one time slab is still shared.
        assert_eq!(tables.shared_slabs(), tables.total_slabs() - 1);

        // A second write to the same slab is free.
        let before = cow_stats();
        tables.set_time_of(1, 7.0);
        let delta = cow_stats().since(&before);
        assert_eq!(delta.slab_cow_clones, 0);
        assert_eq!(snap.time_of(1), 0.0);
    }

    #[test]
    fn dropping_snapshots_leaves_no_orphan_slabs() {
        let before = cow_stats();
        {
            let (records, root) = chain_records(150);
            let mut tables = TreeTables::from_records(&records, root).unwrap();
            let snaps: Vec<TreeTables> = (0..8).map(|_| tables.snapshot()).collect();
            // Mutate through several snapshot generations.
            for k in 0..tables.n_nodes() {
                tables.set_time_of(k, tables.time_of(k) + 1.0);
            }
            // Deliberately break the sibling links (node 4 = (2, 3) in the
            // chain layout; stealing 2's second child dangles rs[1]) …
            tables.replace_child_of(4, 2, 1);
            tables.check_links().unwrap_err();
            // … which copy-on-write must keep invisible to every snapshot:
            for snap in &snaps {
                snap.check_links().unwrap();
            }
            drop(snaps);
        }
        // every slab allocated or materialised in this scope is freed again.
        let delta = cow_stats().since(&before);
        assert_eq!(delta.live_slabs(), 0, "orphan slabs after CoW mutation: {delta:?}");
    }

    #[test]
    fn clone_from_copies_into_owned_slabs_without_allocating() {
        let (records, root) = chain_records(150);
        let source = TreeTables::from_records(&records, root).unwrap();
        // A uniquely owned target of the same shape with other contents.
        let mut target = TreeTables::from_records(&records, root).unwrap();
        target.scale_times(3.0);
        target.replace_child_of(4, 2, 1);

        let before = cow_stats();
        target.clone_from(&source);
        let delta = cow_stats().since(&before);
        assert_eq!((delta.slab_allocs, delta.slab_cow_clones, delta.slab_drops), (0, 0, 0));
        assert_eq!(delta.snapshots, 0);
        assert_eq!(target.to_records(), records);
        target.check_links().unwrap();
        assert_eq!(target.shared_slabs(), 0, "every slab stays the target's own");

        // Its slabs are its own, so edits after the copy are free too.
        let before = cow_stats();
        target.set_time_of(0, 42.0);
        target.set_children_of(4, 3, 2);
        assert_eq!(cow_stats().since(&before).slab_cow_clones, 0);
        assert_eq!(source.time_of(0), 0.0);
        assert_eq!(source.children_of(4), Some((2, 3)));
    }

    #[test]
    fn clone_from_never_writes_through_to_a_third_table() {
        let (records, root) = chain_records(150);
        let source = TreeTables::from_records(&records, root).unwrap();
        let mut target = TreeTables::from_records(&records, root).unwrap();
        target.scale_times(5.0);
        // `third` shares every slab of `target`; one write gives `target`
        // its own directory and one own slab per touched column, so the
        // rest stay shared with `third`.
        let third = target.snapshot();
        let third_records = third.to_records();
        target.set_time_of(0, 1.0);
        assert!(target.shared_slabs() > 0);

        target.clone_from(&source);
        assert_eq!(target.to_records(), records);
        assert_eq!(third.to_records(), third_records, "clone_from wrote through a shared slab");
        for node in 0..target.n_nodes() {
            target.set_time_of(node, -1.0);
        }
        assert_eq!(third.to_records(), third_records);
        assert_eq!(source.to_records(), records);

        // A target of another shape takes a snapshot instead.
        let (small, small_root) = chain_records(7);
        let mut other = TreeTables::from_records(&small, small_root).unwrap();
        other.clone_from(&source);
        assert!(other.shares_storage_with(&source));
        assert_eq!(other.to_records(), records);
    }

    #[test]
    fn surgery_keeps_sibling_links_consistent() {
        let (records, root) = chain_records(5);
        let mut tables = TreeTables::from_records(&records, root).unwrap();
        let (a, b) = tables.children_of(root).unwrap();
        // Swap the root's children through replace_child (both arms).
        tables.replace_child_of(root, a, a);
        tables.check_links().unwrap();
        tables.replace_child_of(root, b, b);
        tables.check_links().unwrap();
        assert_eq!(tables.children_of(root), Some((a, b)));
    }

    #[test]
    fn validate_genealogy_records_rejects_broken_structures() {
        let (mut records, root) = chain_records(4);
        validate_genealogy_records(&records, root).unwrap();

        // Parent/child asymmetry.
        let mut bad = records.clone();
        bad[0].parent = Some(root);
        let err = validate_genealogy_records(&bad, root).unwrap_err();
        assert!(err.contains("asymmetry") || err.contains("reachable"), "{err}");

        // Age inversion.
        let mut bad = records.clone();
        bad[0].time = 1e9;
        let err = validate_genealogy_records(&bad, root).unwrap_err();
        assert!(err.contains("age inversion"), "{err}");

        // Duplicate tip labels.
        let mut bad = records.clone();
        let tips: Vec<usize> = (0..bad.len()).filter(|&i| bad[i].children.is_none()).collect();
        bad[tips[1]].label = bad[tips[0]].label.clone();
        let err = validate_genealogy_records(&bad, root).unwrap_err();
        assert!(err.contains("duplicate tip label"), "{err}");

        // Unlabelled tip.
        records[0].label = None;
        let err = validate_genealogy_records(&records, root).unwrap_err();
        assert!(err.contains("no label"), "{err}");
    }

    #[test]
    fn column_map_in_place_touches_only_the_filled_prefix() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut column = Column::from_values(&values, f64::NAN);
        let snap = column.clone();
        column.map_in_place(|x| x * 2.0);
        for i in 0..100 {
            assert_eq!(column.get(i), 2.0 * i as f64);
            assert_eq!(snap.get(i), i as f64);
        }
    }
}
