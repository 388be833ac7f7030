//! The item layer: from one file's token stream to an item tree.
//!
//! [`parse_items`] walks the significant tokens of a file and extracts the
//! declarations the workspace-level passes need — functions (with their
//! enclosing impl/trait context and body span), `use` declarations, module
//! declarations, and every named item with its visibility. It is a
//! *declaration* parser, not an expression parser: function bodies are
//! skipped wholesale during item scanning (the call-graph layer re-scans
//! them token-wise), so `match` arms, struct expressions, and other
//! brace-heavy expression syntax can never confuse it.
//!
//! Spans stay `concat`-faithful: every recorded position is a token from
//! the lossless lexer, so a diagnostic raised through an item points at
//! real source bytes.

use crate::context::FileContext;
use crate::lexer::TokenKind;

/// Item visibility, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` at all.
    Private,
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(self)`, or `pub(in path)`.
    Restricted,
}

impl Visibility {
    /// Whether this is unrestricted `pub`.
    pub fn is_pub(&self) -> bool {
        matches!(self, Visibility::Pub)
    }
}

/// One function (free, inherent method, trait method, or trait default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (raw-ident prefix stripped: `r#type` → `type`).
    pub name: String,
    /// Inline-module path from the file's base module to the function.
    pub modules: Vec<String>,
    /// The enclosing impl's self type (`impl Kernel` → `Kernel`;
    /// `impl Display for Kernel` → `Kernel`) or the enclosing trait's name
    /// for trait-declared methods.
    pub self_ty: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` methods, or
    /// the trait's own name for methods declared inside `trait Trait {}`.
    pub trait_name: Option<String>,
    /// Visibility as written.
    pub vis: Visibility,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Significant-token index range of the body, `[open_brace, close_brace]`
    /// inclusive; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the function lies inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
}

/// One `use` binding after expanding nested `{…}` groups: the name it
/// brings into scope and the full path it stands for.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The bound name (`as` alias if present, else the last path segment).
    pub alias: String,
    /// The full path segments (`use a::b::c as d` → `["a","b","c"]`).
    pub path: Vec<String>,
    /// Whether this is a glob import (`use a::b::*` → path `["a","b"]`).
    pub glob: bool,
    /// Visibility (re-exports are `pub use`).
    pub vis: Visibility,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

/// Any named item, for the API-surface listing and module-visibility map.
#[derive(Debug, Clone)]
pub struct NamedItem {
    /// `fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`,
    /// `union`, or `macro`.
    pub kind: &'static str,
    /// The item's name.
    pub name: String,
    /// Inline-module path from the file's base module to the item.
    pub modules: Vec<String>,
    /// The enclosing impl/trait type for methods and associated items.
    pub self_ty: Option<String>,
    /// The trait being implemented, if the enclosing impl is a trait impl.
    pub trait_name: Option<String>,
    /// Visibility as written.
    pub vis: Visibility,
    /// 1-based line.
    pub line: u32,
    /// Whether the item lies inside a test region.
    pub is_test: bool,
}

/// Everything the workspace passes need from one file.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// Crate name inferred from the workspace-relative path (`-` → `_`).
    pub crate_name: String,
    /// Module path inferred from the file's location inside `src/`.
    pub base_modules: Vec<String>,
    /// All functions with bodies or trait declarations.
    pub fns: Vec<FnItem>,
    /// All `use` bindings.
    pub uses: Vec<UseDecl>,
    /// All named items (including the functions again, as `fn` entries).
    pub items: Vec<NamedItem>,
}

/// Infer `(crate name, base module path)` from a workspace-relative path.
///
/// `crates/phylo/src/tree/builder.rs` → `("phylo", ["tree", "builder"])`;
/// `mod.rs`, `lib.rs`, and `main.rs` name their parent module; files under
/// `tests/`, `benches/`, `examples/`, and `src/bin/` are their own target
/// crates named after the file stem.
pub fn crate_and_modules(path: &str) -> (String, Vec<String>) {
    let comps: Vec<&str> = path.split('/').collect();
    let norm = |s: &str| s.replace('-', "_");
    // Locate the `src` directory and the crate it belongs to.
    if let Some(src_at) = comps.iter().position(|c| *c == "src") {
        let crate_name =
            if src_at == 0 { "mpcgs_repro".to_string() } else { norm(comps[src_at - 1]) };
        let rest = &comps[src_at + 1..];
        if rest.first() == Some(&"bin") {
            let stem = rest.last().unwrap_or(&"").trim_end_matches(".rs");
            return (format!("{crate_name}__bin_{}", norm(stem)), Vec::new());
        }
        let mut modules: Vec<String> = Vec::new();
        for (i, comp) in rest.iter().enumerate() {
            if i + 1 == rest.len() {
                let stem = comp.trim_end_matches(".rs");
                if !matches!(stem, "lib" | "main" | "mod") {
                    modules.push(norm(stem));
                }
            } else {
                modules.push(norm(comp));
            }
        }
        return (crate_name, modules);
    }
    // Integration tests / benches / examples: file-stem crates.
    let stem = comps.last().unwrap_or(&"").trim_end_matches(".rs");
    if let Some(kind_at) = comps.iter().position(|c| matches!(*c, "tests" | "benches" | "examples"))
    {
        let mut modules: Vec<String> = Vec::new();
        for comp in &comps[kind_at + 1..comps.len().saturating_sub(1)] {
            modules.push(norm(comp));
        }
        let last = comps.last().unwrap_or(&"").trim_end_matches(".rs");
        if last == "mod" {
            let name = modules.pop().unwrap_or_else(|| norm(stem));
            return (format!("tests__{name}"), modules);
        }
        return (format!("tests__{}", norm(stem)), modules);
    }
    (norm(stem), Vec::new())
}

/// Parse the file's item tree. `path` is the workspace-relative path used
/// for crate/module inference.
pub fn parse_items(path: &str, source: &str, ctx: &FileContext) -> FileItems {
    let (crate_name, base_modules) = crate_and_modules(path);
    let mut parser = ItemParser {
        source,
        ctx,
        out: FileItems {
            crate_name,
            base_modules,
            fns: Vec::new(),
            uses: Vec::new(),
            items: Vec::new(),
        },
        scopes: Vec::new(),
        si: 0,
    };
    parser.run();
    parser.out
}

#[derive(Debug, Clone)]
enum ScopeKind {
    Mod(String),
    Impl {
        self_ty: String,
        trait_name: Option<String>,
    },
    Trait(String),
    /// Any other brace-delimited region entered during item scanning
    /// (struct bodies that slipped through, extern blocks, …).
    Other,
}

struct Scope {
    kind: ScopeKind,
}

struct ItemParser<'s> {
    source: &'s str,
    ctx: &'s FileContext,
    out: FileItems,
    scopes: Vec<Scope>,
    si: usize,
}

impl<'s> ItemParser<'s> {
    fn text(&self, si: usize) -> &'s str {
        self.ctx.tokens[self.ctx.sig[si]].text(self.source)
    }

    fn kind(&self, si: usize) -> TokenKind {
        self.ctx.tokens[self.ctx.sig[si]].kind
    }

    fn len(&self) -> usize {
        self.ctx.sig.len()
    }

    fn line_col(&self, si: usize) -> (u32, u32) {
        let t = &self.ctx.tokens[self.ctx.sig[si]];
        (t.line, t.col)
    }

    fn byte(&self, si: usize) -> usize {
        self.ctx.tokens[self.ctx.sig[si]].start
    }

    /// Current inline-module path and enclosing impl/trait context.
    fn context(&self) -> (Vec<String>, Option<String>, Option<String>) {
        let mut modules = Vec::new();
        let mut self_ty = None;
        let mut trait_name = None;
        for scope in &self.scopes {
            match &scope.kind {
                ScopeKind::Mod(name) => modules.push(name.clone()),
                ScopeKind::Impl { self_ty: ty, trait_name: tr } => {
                    self_ty = Some(ty.clone());
                    trait_name = tr.clone();
                }
                ScopeKind::Trait(name) => {
                    self_ty = Some(name.clone());
                    trait_name = Some(name.clone());
                }
                ScopeKind::Other => {}
            }
        }
        (modules, self_ty, trait_name)
    }

    /// Strip a raw-ident prefix.
    fn ident_name(&self, si: usize) -> String {
        let text = self.text(si);
        text.strip_prefix("r#").unwrap_or(text).to_string()
    }

    /// Skip a balanced delimiter group starting at `si` (which must hold the
    /// opener), returning the index just past the closer.
    fn skip_group(&self, si: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i64;
        let mut i = si;
        while i < self.len() {
            let t = self.text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.len()
    }

    /// Find the significant index of the `}` matching the `{` at `si`.
    fn find_close(&self, si: usize) -> usize {
        let mut depth = 0i64;
        let mut i = si;
        while i < self.len() {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.len().saturating_sub(1)
    }

    /// Skip an angle-bracket group `<…>` starting at `si`; `>` may arrive
    /// as `>>`-style single-char puncts already, so plain depth counting
    /// works. `->` cannot appear inside generics at depth > 0 without
    /// parens, and the lexer splits it into `-` and `>`, so treat a `>`
    /// preceded by `-` as not closing.
    fn skip_angles(&self, si: usize) -> usize {
        let mut depth = 0i64;
        let mut i = si;
        while i < self.len() {
            match self.text(i) {
                "<" => depth += 1,
                ">" => {
                    if i > 0 && self.text(i - 1) == "-" {
                        // `->` return-type arrow.
                    } else {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                }
                "(" => i = self.skip_group(i, "(", ")") - 1,
                _ => {}
            }
            i += 1;
        }
        self.len()
    }

    fn run(&mut self) {
        let mut pending_vis = Visibility::Private;
        while self.si < self.len() {
            let text = self.text(self.si);
            match text {
                "#" => {
                    // Attribute: `#[…]` or `#![…]` — skip the group.
                    let mut j = self.si + 1;
                    if j < self.len() && self.text(j) == "!" {
                        j += 1;
                    }
                    if j < self.len() && self.text(j) == "[" {
                        self.si = self.skip_group(j, "[", "]");
                    } else {
                        self.si += 1;
                    }
                }
                "pub" => {
                    pending_vis = Visibility::Pub;
                    self.si += 1;
                    if self.si < self.len() && self.text(self.si) == "(" {
                        pending_vis = Visibility::Restricted;
                        self.si = self.skip_group(self.si, "(", ")");
                    }
                }
                "use" => {
                    self.parse_use(std::mem::replace(&mut pending_vis, Visibility::Private));
                }
                "mod" => {
                    self.parse_mod(std::mem::replace(&mut pending_vis, Visibility::Private));
                }
                "impl" => {
                    pending_vis = Visibility::Private;
                    self.parse_impl();
                }
                "trait" => {
                    self.parse_trait(std::mem::replace(&mut pending_vis, Visibility::Private));
                }
                "fn" => {
                    self.parse_fn(std::mem::replace(&mut pending_vis, Visibility::Private));
                }
                "struct" | "enum" | "union" => {
                    let kind: &'static str = match text {
                        "struct" => "struct",
                        "enum" => "enum",
                        _ => "union",
                    };
                    self.parse_type_like(
                        kind,
                        std::mem::replace(&mut pending_vis, Visibility::Private),
                    );
                }
                "type" | "const" | "static" => {
                    let kind: &'static str = match text {
                        "type" => "type",
                        "const" => "const",
                        _ => "static",
                    };
                    self.parse_terminated(
                        kind,
                        std::mem::replace(&mut pending_vis, Visibility::Private),
                    );
                }
                "macro_rules" => {
                    self.parse_macro_rules();
                    pending_vis = Visibility::Private;
                }
                "{" => {
                    // A brace the item grammar didn't claim: enter it as an
                    // anonymous scope so the matching `}` pops cleanly.
                    self.scopes.push(Scope { kind: ScopeKind::Other });
                    self.si += 1;
                    pending_vis = Visibility::Private;
                }
                "}" => {
                    self.scopes.pop();
                    self.si += 1;
                    pending_vis = Visibility::Private;
                }
                _ => {
                    pending_vis = Visibility::Private;
                    self.si += 1;
                }
            }
        }
    }

    fn record_item(&mut self, kind: &'static str, name: String, vis: Visibility, at: usize) {
        let (modules, self_ty, trait_name) = self.context();
        let (line, col) = self.line_col(at);
        let _ = col;
        self.out.items.push(NamedItem {
            kind,
            name,
            modules,
            self_ty,
            trait_name,
            vis,
            line,
            is_test: self.ctx.in_test_region(self.byte(at)),
        });
    }

    fn parse_use(&mut self, vis: Visibility) {
        let (line, _) = self.line_col(self.si);
        let start = self.si + 1;
        // Find the terminating `;`.
        let mut end = start;
        while end < self.len() && self.text(end) != ";" {
            end += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(start, end, &mut prefix, &vis, line);
        self.si = end + 1;
    }

    /// Recursively expand a use tree in `[from, to)` under `prefix`.
    fn parse_use_tree(
        &mut self,
        from: usize,
        to: usize,
        prefix: &mut Vec<String>,
        vis: &Visibility,
        line: u32,
    ) {
        let mut segs: Vec<String> = Vec::new();
        let mut i = from;
        while i < to {
            let t = self.text(i);
            if self.kind(i) == TokenKind::Ident || self.kind(i) == TokenKind::RawIdent {
                if t == "as" {
                    // `path as alias`
                    if i + 1 < to {
                        let alias = self.ident_name(i + 1);
                        let mut path = prefix.clone();
                        path.extend(segs.iter().cloned());
                        self.out.uses.push(UseDecl {
                            alias,
                            path,
                            glob: false,
                            vis: vis.clone(),
                            line,
                        });
                    }
                    return;
                }
                segs.push(self.ident_name(i));
                i += 1;
            } else if t == "*" {
                let mut path = prefix.clone();
                path.extend(segs.iter().cloned());
                self.out.uses.push(UseDecl {
                    alias: String::new(),
                    path,
                    glob: true,
                    vis: vis.clone(),
                    line,
                });
                return;
            } else if t == "{" {
                let close = self.skip_group(i, "{", "}") - 1;
                let base_len = prefix.len();
                prefix.extend(segs.iter().cloned());
                // Split the group body on top-level commas.
                let mut part_start = i + 1;
                let mut j = i + 1;
                while j <= close {
                    let tj = self.text(j);
                    if tj == "{" {
                        j = self.skip_group(j, "{", "}");
                        continue;
                    }
                    if (tj == "," && depth_zero()) || j == close {
                        if part_start < j {
                            self.parse_use_tree(part_start, j, prefix, vis, line);
                        }
                        part_start = j + 1;
                    }
                    j += 1;
                }
                prefix.truncate(base_len);
                return;

                // Commas inside nested groups were skipped by the recursive
                // `skip_group` above, so every comma seen here is top-level.
                fn depth_zero() -> bool {
                    true
                }
            } else {
                i += 1;
            }
        }
        if !segs.is_empty() {
            let alias = segs.last().cloned().unwrap_or_default();
            let mut path = prefix.clone();
            path.extend(segs.iter().cloned());
            // `use a::b::self;` binds `b` — the `self` segment names the
            // parent.
            let (alias, path) = if alias == "self" {
                let mut p = path.clone();
                p.pop();
                (p.last().cloned().unwrap_or_default(), p)
            } else {
                (alias, path)
            };
            self.out.uses.push(UseDecl { alias, path, glob: false, vis: vis.clone(), line });
        }
    }

    fn parse_mod(&mut self, vis: Visibility) {
        let at = self.si;
        self.si += 1;
        if self.si >= self.len()
            || !matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            return;
        }
        let name = self.ident_name(self.si);
        self.si += 1;
        self.record_item("mod", name.clone(), vis, at);
        if self.si < self.len() && self.text(self.si) == "{" {
            self.scopes.push(Scope { kind: ScopeKind::Mod(name) });
            self.si += 1;
        } else if self.si < self.len() && self.text(self.si) == ";" {
            self.si += 1;
        }
    }

    fn parse_impl(&mut self) {
        // `impl` [<generics>] TypePath [`for` TypePath] [where …] `{`
        self.si += 1;
        if self.si < self.len() && self.text(self.si) == "<" {
            self.si = self.skip_angles(self.si);
        }
        let mut first_path_last: Option<String> = None;
        let mut second_path_last: Option<String> = None;
        let mut saw_for = false;
        while self.si < self.len() {
            let t = self.text(self.si);
            match t {
                "{" => break,
                ";" => {
                    // `impl Trait for Type;` (rare) — nothing to enter.
                    self.si += 1;
                    return;
                }
                "for" => {
                    saw_for = true;
                    self.si += 1;
                }
                "where" => {
                    // Skip the where clause to the `{`.
                    while self.si < self.len() && self.text(self.si) != "{" {
                        if self.text(self.si) == "<" {
                            self.si = self.skip_angles(self.si);
                        } else {
                            self.si += 1;
                        }
                    }
                }
                "<" => {
                    self.si = self.skip_angles(self.si);
                }
                "(" => {
                    self.si = self.skip_group(self.si, "(", ")");
                }
                "[" => {
                    // A slice or array type (`impl Trait for &'a [T]`) has
                    // no path; name it after its kind so the listing never
                    // carries an empty segment.
                    let end = self.skip_group(self.si, "[", "]");
                    let mut depth = 0;
                    let mut name = "slice";
                    for i in self.si..end {
                        match self.text(i) {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            ";" if depth == 1 => name = "array",
                            _ => {}
                        }
                    }
                    if saw_for {
                        second_path_last = Some(name.to_string());
                    } else {
                        first_path_last = Some(name.to_string());
                    }
                    self.si = end;
                }
                _ => {
                    if matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
                        && !matches!(t, "dyn" | "mut" | "const" | "unsafe")
                    {
                        let name = self.ident_name(self.si);
                        if saw_for {
                            second_path_last = Some(name);
                        } else {
                            first_path_last = Some(name);
                        }
                    }
                    self.si += 1;
                }
            }
        }
        let (self_ty, trait_name) = if saw_for {
            (second_path_last.unwrap_or_default(), first_path_last)
        } else {
            (first_path_last.unwrap_or_default(), None)
        };
        if self.si < self.len() && self.text(self.si) == "{" {
            self.scopes.push(Scope { kind: ScopeKind::Impl { self_ty, trait_name } });
            self.si += 1;
        }
    }

    fn parse_trait(&mut self, vis: Visibility) {
        let at = self.si;
        self.si += 1;
        if self.si >= self.len()
            || !matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            return;
        }
        let name = self.ident_name(self.si);
        self.si += 1;
        self.record_item("trait", name.clone(), vis, at);
        // Skip generics / supertrait bounds / where clause to the body.
        while self.si < self.len() && !matches!(self.text(self.si), "{" | ";") {
            if self.text(self.si) == "<" {
                self.si = self.skip_angles(self.si);
            } else {
                self.si += 1;
            }
        }
        if self.si < self.len() && self.text(self.si) == "{" {
            self.scopes.push(Scope { kind: ScopeKind::Trait(name) });
            self.si += 1;
        } else if self.si < self.len() {
            self.si += 1;
        }
    }

    fn parse_fn(&mut self, vis: Visibility) {
        let at = self.si;
        self.si += 1;
        if self.si >= self.len()
            || !matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            return;
        }
        let name = self.ident_name(self.si);
        self.si += 1;
        // Generics.
        if self.si < self.len() && self.text(self.si) == "<" {
            self.si = self.skip_angles(self.si);
        }
        // Parameters.
        if self.si < self.len() && self.text(self.si) == "(" {
            self.si = self.skip_group(self.si, "(", ")");
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        while self.si < self.len() && !matches!(self.text(self.si), "{" | ";") {
            if self.text(self.si) == "<" {
                self.si = self.skip_angles(self.si);
            } else if self.text(self.si) == "(" {
                self.si = self.skip_group(self.si, "(", ")");
            } else if self.text(self.si) == "[" {
                self.si = self.skip_group(self.si, "[", "]");
            } else {
                self.si += 1;
            }
        }
        let body = if self.si < self.len() && self.text(self.si) == "{" {
            let close = self.find_close(self.si);
            let range = (self.si, close);
            // Items are not scanned inside bodies: jump past it. Nested
            // `fn` declarations inside bodies are a documented false
            // negative of the item layer (their calls are attributed to
            // the enclosing function by the graph layer).
            self.si = close + 1;
            Some(range)
        } else {
            self.si = (self.si + 1).min(self.len());
            None
        };
        let (modules, self_ty, trait_name) = self.context();
        let (line, col) = self.line_col(at);
        let is_test = self.ctx.in_test_region(self.byte(at));
        self.out.fns.push(FnItem {
            name: name.clone(),
            modules: modules.clone(),
            self_ty: self_ty.clone(),
            trait_name: trait_name.clone(),
            vis: vis.clone(),
            line,
            col,
            body,
            is_test,
        });
        self.out.items.push(NamedItem {
            kind: "fn",
            name,
            modules,
            self_ty,
            trait_name,
            vis,
            line,
            is_test,
        });
    }

    fn parse_type_like(&mut self, kind: &'static str, vis: Visibility) {
        let at = self.si;
        self.si += 1;
        if self.si >= self.len()
            || !matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            return;
        }
        let name = self.ident_name(self.si);
        self.si += 1;
        self.record_item(kind, name, vis, at);
        // Skip to the end of the declaration: `;` for unit/tuple structs,
        // or a balanced `{…}` body for field structs/enums/unions.
        while self.si < self.len() {
            match self.text(self.si) {
                ";" => {
                    self.si += 1;
                    return;
                }
                "{" => {
                    self.si = self.skip_group(self.si, "{", "}");
                    return;
                }
                "<" => self.si = self.skip_angles(self.si),
                "(" => {
                    self.si = self.skip_group(self.si, "(", ")");
                    // A tuple struct still ends with `;`.
                }
                _ => self.si += 1,
            }
        }
    }

    /// `type X = …;`, `const X: T = …;`, `static X: T = …;` — also covers
    /// `const fn` (by falling through to `fn` handling) and `const _`.
    fn parse_terminated(&mut self, kind: &'static str, vis: Visibility) {
        let at = self.si;
        self.si += 1;
        if self.si < self.len() && self.text(self.si) == "fn" {
            // `const fn name…` / `static` never precedes fn; re-dispatch.
            self.parse_fn(vis);
            return;
        }
        if self.si < self.len() && self.text(self.si) == "mut" {
            self.si += 1;
        }
        if self.si >= self.len()
            || !matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            return;
        }
        let name = self.ident_name(self.si);
        // `impl Trait for Type { type Assoc = …; }` associated items and
        // module-level aliases both end at `;`; expression braces cannot
        // appear without `=` first, and we skip everything to `;` anyway.
        self.si += 1;
        self.record_item(kind, name, vis, at);
        while self.si < self.len() && self.text(self.si) != ";" {
            if self.text(self.si) == "{" {
                self.si = self.skip_group(self.si, "{", "}");
            } else {
                self.si += 1;
            }
        }
        self.si += 1;
    }

    fn parse_macro_rules(&mut self) {
        let at = self.si;
        self.si += 1; // `!`
        if self.si < self.len() && self.text(self.si) == "!" {
            self.si += 1;
        }
        if self.si < self.len()
            && matches!(self.kind(self.si), TokenKind::Ident | TokenKind::RawIdent)
        {
            let name = self.ident_name(self.si);
            self.si += 1;
            self.record_item("macro", name, Visibility::Private, at);
        }
        if self.si < self.len() && self.text(self.si) == "{" {
            self.si = self.skip_group(self.si, "{", "}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn parse(path: &str, src: &str) -> FileItems {
        let ctx = FileContext::new(src);
        parse_items(path, src, &ctx)
    }

    #[test]
    fn crate_and_module_inference() {
        assert_eq!(
            crate_and_modules("crates/phylo/src/tree/builder.rs"),
            ("phylo".to_string(), vec!["tree".to_string(), "builder".to_string()])
        );
        assert_eq!(
            crate_and_modules("crates/phylo/src/tree/mod.rs"),
            ("phylo".to_string(), vec!["tree".to_string()])
        );
        assert_eq!(crate_and_modules("crates/mpcgs/src/lib.rs"), ("mpcgs".to_string(), vec![]));
        assert_eq!(crate_and_modules("src/lib.rs"), ("mpcgs_repro".to_string(), vec![]));
        assert_eq!(crate_and_modules("tests/accuracy.rs"), ("tests__accuracy".to_string(), vec![]));
        assert_eq!(
            crate_and_modules("crates/bench/src/bin/perf_trajectory.rs"),
            ("bench__bin_perf_trajectory".to_string(), vec![])
        );
    }

    #[test]
    fn fns_carry_impl_and_module_context() {
        let src = "pub struct Kernel;\nimpl Kernel {\n    pub fn combine_rows(&self) {}\n    fn helper() {}\n}\nmod inner {\n    pub fn free() {}\n}\nimpl std::fmt::Display for Kernel {\n    fn fmt(&self) {}\n}\n";
        let items = parse("crates/phylo/src/likelihood.rs", src);
        let f = |name: &str| items.fns.iter().find(|f| f.name == name).unwrap();
        assert_eq!(f("combine_rows").self_ty.as_deref(), Some("Kernel"));
        assert!(f("combine_rows").vis.is_pub());
        assert_eq!(f("helper").self_ty.as_deref(), Some("Kernel"));
        assert_eq!(f("helper").vis, Visibility::Private);
        assert_eq!(f("free").modules, vec!["inner".to_string()]);
        assert_eq!(f("fmt").self_ty.as_deref(), Some("Kernel"));
        assert_eq!(f("fmt").trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn trait_methods_and_defaults_are_recorded() {
        let src = "pub trait GenealogySampler {\n    fn step(&mut self);\n    fn run(&mut self) { self.step(); }\n}\n";
        let items = parse("crates/lamarc/src/run.rs", src);
        let step = items.fns.iter().find(|f| f.name == "step").unwrap();
        assert_eq!(step.trait_name.as_deref(), Some("GenealogySampler"));
        assert!(step.body.is_none());
        let run = items.fns.iter().find(|f| f.name == "run").unwrap();
        assert!(run.body.is_some());
    }

    #[test]
    fn fn_bodies_do_not_leak_items() {
        // The `match` arms and struct expressions inside the body must not
        // register as items, and the nested impl context must not escape.
        let src = "fn outer() {\n    let x = Foo { bar: 1 };\n    match x { _ => {} }\n}\npub fn after() {}\n";
        let items = parse("crates/mcmc/src/chain.rs", src);
        assert_eq!(items.fns.len(), 2);
        let after = items.fns.iter().find(|f| f.name == "after").unwrap();
        assert!(after.self_ty.is_none());
        assert!(after.vis.is_pub());
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let src = "use std::collections::{BTreeMap, BTreeSet as Set};\npub use crate::serve::JobQueue;\nuse phylo::likelihood::*;\nuse mcmc::rng::r#type;\n";
        let items = parse("crates/mpcgs/src/lib.rs", src);
        let find = |alias: &str| items.uses.iter().find(|u| u.alias == alias).unwrap();
        assert_eq!(find("BTreeMap").path, ["std", "collections", "BTreeMap"]);
        assert_eq!(find("Set").path, ["std", "collections", "BTreeSet"]);
        assert!(find("JobQueue").vis.is_pub());
        assert!(items.uses.iter().any(|u| u.glob && u.path == ["phylo", "likelihood"]));
        assert_eq!(find("type").path, ["mcmc", "rng", "type"]);
    }

    #[test]
    fn visibility_forms() {
        let src =
            "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub struct S;\npub(super) mod m {}\n";
        let items = parse("crates/exec/src/lib.rs", src);
        let f = |name: &str| items.fns.iter().find(|f| f.name == name).unwrap();
        assert_eq!(f("a").vis, Visibility::Pub);
        assert_eq!(f("b").vis, Visibility::Restricted);
        assert_eq!(f("c").vis, Visibility::Private);
        let m = items.items.iter().find(|i| i.kind == "mod").unwrap();
        assert_eq!(m.vis, Visibility::Restricted);
    }

    #[test]
    fn test_regions_mark_fns() {
        let src = "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let items = parse("crates/phylo/src/tables.rs", src);
        assert!(!items.fns.iter().find(|f| f.name == "shipped").unwrap().is_test);
        assert!(items.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let src = "impl<E: LikelihoodEngine> GenealogySampler for MultiProposalSampler<E> {\n    fn step(&mut self) {}\n}\nimpl<T> Wrapper<T> where T: Clone {\n    fn get(&self) {}\n}\n";
        let items = parse("crates/mpcgs/src/sampler.rs", src);
        let step = items.fns.iter().find(|f| f.name == "step").unwrap();
        assert_eq!(step.self_ty.as_deref(), Some("MultiProposalSampler"));
        assert_eq!(step.trait_name.as_deref(), Some("GenealogySampler"));
        let get = items.fns.iter().find(|f| f.name == "get").unwrap();
        assert_eq!(get.self_ty.as_deref(), Some("Wrapper"));
        assert!(get.trait_name.is_none());
    }
}
