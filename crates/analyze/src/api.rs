//! The golden public-API surface (r4): a sorted, normalised listing of
//! every `pub` item per crate, diffed against a committed baseline so API
//! drift becomes a reviewed artifact instead of an accident.
//!
//! One line per item:
//!
//! ```text
//! phylo::likelihood::Kernel  struct
//! phylo::likelihood::Kernel::combine_rows  fn
//! mpcgs::serve::JobQueue::run  fn
//! ```
//!
//! Normalisation rules: only `pub` items (restricted forms like
//! `pub(crate)` are internal and excluded); trait-impl methods list unless
//! the implementing type or the trait is a private item of the crate
//! (trait methods are as public as their trait and their type, so impls
//! for foreign, primitive, generic and slice implementors list, the last
//! under the name `slice` or `array`); paths are `crate::module::…` with raw-ident prefixes
//! stripped; lines are bytewise sorted and unique. The listing is a
//! *surface fingerprint*, not rustdoc: it deliberately ignores signatures
//! and generics, so a parameter change does not churn the baseline — only
//! additions, removals, and renames do.
//!
//! `mpcgs-analyze --api-surface` prints the listing;
//! `--check-api-surface docs/api-surface.txt` diffs it against the
//! committed baseline and fails with a readable diff plus the regen
//! one-liner.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::graph::FileUnit;
use crate::items::Visibility;

/// Item kinds that can implement or be a trait.
const TYPE_KINDS: [&str; 5] = ["struct", "enum", "union", "type", "trait"];

/// Per crate, the names of type and trait items declared only without
/// plain `pub` (or only in test code). A name that is also declared `pub`
/// somewhere in the crate is not private: the listing cannot tell which
/// declaration an impl names.
fn private_type_names(files: &[FileUnit]) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut public: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut private: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for file in files {
        let crate_name = file.items.crate_name.as_str();
        for item in &file.items.items {
            if item.self_ty.is_some() || !TYPE_KINDS.contains(&item.kind) {
                continue;
            }
            let side = if item.vis == Visibility::Pub && !item.is_test {
                &mut public
            } else {
                &mut private
            };
            side.entry(crate_name).or_default().insert(item.name.as_str());
        }
    }
    for (crate_name, names) in &mut private {
        if let Some(public) = public.get(crate_name) {
            names.retain(|name| !public.contains(name));
        }
    }
    private
}

/// Build the normalised API-surface listing over the parsed workspace.
pub fn surface(files: &[FileUnit]) -> String {
    let private = private_type_names(files);
    let mut lines: BTreeSet<String> = BTreeSet::new();
    for file in files {
        let items = &file.items;
        // Test/driver crates are not API.
        if items.crate_name.starts_with("tests__") || items.crate_name.contains("__bin_") {
            continue;
        }
        for item in &items.items {
            if item.vis != Visibility::Pub || item.is_test {
                continue;
            }
            let mut parts: Vec<&str> = vec![items.crate_name.as_str()];
            parts.extend(items.base_modules.iter().map(String::as_str));
            parts.extend(item.modules.iter().map(String::as_str));
            if let Some(ty) = &item.self_ty {
                parts.push(ty.as_str());
            }
            parts.push(item.name.as_str());
            lines.insert(format!("{}  {}", parts.join("::"), item.kind));
        }
        // Trait-impl methods are as public as their trait: list them even
        // without an explicit `pub` (writing `pub` there is not legal Rust).
        for f in &items.fns {
            if f.is_test || f.trait_name.is_none() || f.self_ty.is_none() {
                continue;
            }
            if f.self_ty == f.trait_name {
                // A default body declared in the trait itself — the trait
                // entry already covers it.
                continue;
            }
            let ty = f.self_ty.as_deref().unwrap_or_default();
            let tr = f.trait_name.as_deref().unwrap_or_default();
            // An impl of or for a private item is as private as that item.
            if private
                .get(items.crate_name.as_str())
                .is_some_and(|names| names.contains(ty) || names.contains(tr))
            {
                continue;
            }
            let mut parts: Vec<&str> = vec![items.crate_name.as_str()];
            parts.extend(items.base_modules.iter().map(String::as_str));
            parts.extend(f.modules.iter().map(String::as_str));
            parts.push(ty);
            parts.push(f.name.as_str());
            lines.insert(format!("{}  fn [impl {}]", parts.join("::"), tr));
        }
    }
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Diff the live surface against the committed baseline. Returns one `r4`
/// diagnostic per added/removed line, attached to `docs/api-surface.txt`.
pub fn check(live: &str, baseline: &str) -> Vec<Diagnostic> {
    let live_set: BTreeSet<&str> = live.lines().collect();
    let base_set: BTreeSet<&str> = baseline.lines().collect();
    let mut diags = Vec::new();
    let mut push = |message: String| {
        diags.push(Diagnostic {
            rule: "r4",
            file: "docs/api-surface.txt".to_string(),
            line: 1,
            col: 1,
            message,
            suppressed: None,
        });
    };
    for added in live_set.difference(&base_set) {
        push(format!("pub item not in the committed API-surface baseline: + {added}"));
    }
    for removed in base_set.difference(&live_set) {
        push(format!("baseline pub item no longer exists: - {removed}"));
    }
    diags
}

/// Render a `check` failure as a unified-style diff plus the regen
/// one-liner — what the CI step prints.
pub fn render_diff(live: &str, baseline: &str) -> String {
    let live_set: BTreeSet<&str> = live.lines().collect();
    let base_set: BTreeSet<&str> = baseline.lines().collect();
    let mut out = String::from("docs/api-surface.txt is stale — the public API surface changed:\n");
    for removed in base_set.difference(&live_set) {
        out.push_str(&format!("  - {removed}\n"));
    }
    for added in live_set.difference(&base_set) {
        out.push_str(&format!("  + {added}\n"));
    }
    out.push_str(
        "\nIf the change is intentional, regenerate and commit the baseline:\n  \
         cargo run -q -p analyze --bin mpcgs-analyze -- --api-surface > docs/api-surface.txt\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn surface_of(files: &[(&str, &str)]) -> String {
        let units =
            graph::units(files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect());
        surface(&units)
    }

    #[test]
    fn lists_pub_items_only_sorted() {
        let s = surface_of(&[(
            "crates/phylo/src/likelihood.rs",
            "pub struct Kernel;\nstruct Hidden;\npub(crate) fn internal() {}\npub fn score() {}\nimpl Kernel {\n    pub fn combine_rows(&self) {}\n    fn helper(&self) {}\n}\n",
        )]);
        assert_eq!(
            s,
            "phylo::likelihood::Kernel  struct\n\
             phylo::likelihood::Kernel::combine_rows  fn\n\
             phylo::likelihood::score  fn\n"
        );
    }

    #[test]
    fn trait_impl_methods_ride_their_trait() {
        let s = surface_of(&[(
            "crates/lamarc/src/sampler.rs",
            "pub trait GenealogySampler { fn step(&mut self); }\npub struct LamarcSampler;\nimpl GenealogySampler for LamarcSampler {\n    fn step(&mut self) {}\n}\n",
        )]);
        assert!(s.contains("lamarc::sampler::GenealogySampler  trait\n"));
        assert!(s.contains("lamarc::sampler::LamarcSampler::step  fn [impl GenealogySampler]\n"));
    }

    #[test]
    fn impls_for_private_types_are_not_listed() {
        let s = surface_of(&[(
            "crates/mpcgs/src/session.rs",
            "pub trait RunObserver { fn on_iteration(&mut self); }
struct FanOut;
impl RunObserver for FanOut {
    fn on_iteration(&mut self) {}
}
struct Slab<T>(T);
impl<T: Clone> Clone for Slab<T> {
    fn clone(&self) -> Self { Slab(self.0.clone()) }
}
",
        )]);
        assert_eq!(
            s,
            "mpcgs::session::RunObserver  trait
"
        );
    }

    #[test]
    fn impls_of_private_traits_are_not_listed() {
        let s = surface_of(&[(
            "crates/bench/src/lib.rs",
            "trait SeedPair { fn seed_from_u64_pair(a: u64) -> Self; }
impl SeedPair for Mt19937 {
    fn seed_from_u64_pair(a: u64) -> Self { todo() }
}
",
        )]);
        assert_eq!(s, "");
    }

    #[test]
    fn impls_for_foreign_primitive_and_generic_types_stay_listed() {
        let s = surface_of(&[(
            "crates/shims/rand/src/lib.rs",
            "pub trait StandardSample { fn sample(); }
impl StandardSample for f64 {
    fn sample() {}
}
pub trait RngCore { fn next_u32(&mut self) -> u32; }
impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 { 0 }
}
impl<R: RngCore> RngCore for R {
    fn next_u32(&mut self) -> u32 { 0 }
}
impl Default for Error {
    fn default() -> Self { Error }
}
",
        )]);
        assert!(
            s.contains(
                "rand::f64::sample  fn [impl StandardSample]
"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "rand::Box::next_u32  fn [impl RngCore]
"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "rand::R::next_u32  fn [impl RngCore]
"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "rand::Error::default  fn [impl Default]
"
            ),
            "{s}"
        );
    }

    #[test]
    fn a_name_declared_both_pub_and_private_stays_listed() {
        let s = surface_of(&[
            (
                "crates/exec/src/host.rs",
                "pub struct Config;
impl Default for Config {
    fn default() -> Self { Config }
}
",
            ),
            (
                "crates/exec/src/device.rs",
                "struct Config;
",
            ),
        ]);
        assert!(
            s.contains(
                "exec::host::Config::default  fn [impl Default]
"
            ),
            "{s}"
        );
    }

    #[test]
    fn slice_and_array_implementors_get_a_name() {
        let s = surface_of(&[(
            "crates/shims/rayon/src/lib.rs",
            "pub trait IntoParallelIterator { fn into_par_iter(self); }
impl<'data, T: Sync + 'data> IntoParallelIterator for &'data [T] {
    fn into_par_iter(self) {}
}
pub trait Fill { fn fill(&mut self); }
impl Fill for [[u8; 4]; 2] {
    fn fill(&mut self) {}
}
",
        )]);
        assert!(
            s.contains(
                "rayon::slice::into_par_iter  fn [impl IntoParallelIterator]
"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "rayon::array::fill  fn [impl Fill]
"
            ),
            "{s}"
        );
        assert!(!s.contains("::::"), "{s}");
    }

    #[test]
    fn test_and_bin_crates_are_excluded() {
        let s = surface_of(&[
            ("tests/accuracy.rs", "pub fn harness() {}\n"),
            ("crates/bench/src/bin/perf.rs", "pub fn main_helper() {}\n"),
            ("crates/mcmc/src/lib.rs", "pub fn real() {}\n"),
        ]);
        assert_eq!(s, "mcmc::real  fn\n");
    }

    #[test]
    fn check_reports_adds_and_removes() {
        let live = "a::x  fn\nb::y  struct\n";
        let base = "a::x  fn\nc::z  fn\n";
        let diags = check(live, base);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "r4"));
        assert!(diags.iter().any(|d| d.message.contains("+ b::y  struct")));
        assert!(diags.iter().any(|d| d.message.contains("- c::z  fn")));
        assert!(check(live, live).is_empty());
        let diff = render_diff(live, base);
        assert!(diff.contains("+ b::y  struct"));
        assert!(diff.contains("- c::z  fn"));
        assert!(diff.contains("--api-surface > docs/api-surface.txt"));
    }
}
