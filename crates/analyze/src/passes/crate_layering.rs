//! `crate-layering`: the workspace dependency DAG stays as declared.
//!
//! Parses every `Cargo.toml` and cross-checks two things per dependency:
//!
//! 1. **Layering** — the declared stack is
//!    `compat/* → crn/chains/ode → lotka (core) → protocols → engine →
//!    sim → server`, with `compat/*` shims depending only on each other,
//!    `lv-analyze` depending on nothing in the stack, and the facade and
//!    bench crates on top. A dependency on an equal-or-higher layer is an
//!    inversion.
//! 2. **Use** — a declared dependency must actually be referenced
//!    (`name::` path or `use name`) somewhere in the crate's sources;
//!    dev-dependencies may instead be referenced from `tests/` or
//!    `benches/`. Unused declarations are flagged: remove them or justify
//!    them with a `# lv-analyze::allow(crate-layering, ...)` comment.
//!
//! Crates not in the layer table (nothing else exists in this offline
//! workspace) are ignored rather than guessed at.

use std::path::Path;

use crate::diag::Diagnostic;
use crate::lexer;
use crate::passes::Pass;
use crate::source::Workspace;

pub struct CrateLayering;

/// `(package name, layer rank)`. A crate may depend only on strictly
/// lower ranks; rank-0 compat shims may depend only on other shims.
const LAYERS: &[(&str, u32)] = &[
    ("rand", 0),
    ("serde", 0),
    ("serde_derive", 0),
    ("proptest", 0),
    ("lv-crn", 10),
    ("lv-chains", 10),
    ("lv-ode", 10),
    ("lv-lotka", 20),
    ("lv-protocols", 30),
    ("lv-engine", 40),
    ("lv-sim", 50),
    ("lv-server", 60),
    ("lv-analyze", 70),
    ("lv-bench", 80),
    ("lv-consensus", 80),
];

const DAG: &str =
    "compat/* -> crn/chains/ode -> lotka -> protocols -> engine -> sim -> server (analyze outside the stack)";

fn rank(name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, rank)| *rank)
}

impl Pass for CrateLayering {
    fn id(&self) -> &'static str {
        "crate-layering"
    }

    fn description(&self) -> &'static str {
        "workspace manifests respect the declared crate DAG and declare no unused dependencies"
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diagnostics = Vec::new();
        for manifest in &ws.manifests {
            let Some(package) = manifest.package.as_deref() else {
                continue;
            };
            let Some(package_rank) = rank(package) else {
                continue;
            };
            let dir = manifest
                .rel
                .strip_suffix("Cargo.toml")
                .unwrap_or(&manifest.rel)
                .trim_end_matches('/');
            for dep in &manifest.deps {
                let Some(dep_rank) = rank(&dep.name) else {
                    continue;
                };
                let inverted = if package == "lv-analyze" {
                    // The analyzer must stand outside the stack entirely:
                    // it may not even use the compat shims.
                    true
                } else if package_rank == 0 && dep_rank == 0 {
                    // Compat shims may depend on each other (serde on
                    // serde_derive); they form their own leaf layer.
                    false
                } else {
                    dep_rank >= package_rank
                };
                if inverted {
                    diagnostics.push(Diagnostic::new(
                        &manifest.rel,
                        dep.line,
                        self.id(),
                        format!(
                            "layering inversion: `{package}` may not depend on `{}`; declared DAG: {DAG}",
                            dep.name
                        ),
                    ));
                    continue;
                }
                if !dep_is_used(ws, dir, dep.dev, &dep.name) {
                    let where_checked = if dep.dev {
                        "sources, tests or benches"
                    } else {
                        "sources"
                    };
                    diagnostics.push(Diagnostic::new(
                        &manifest.rel,
                        dep.line,
                        self.id(),
                        format!(
                            "declared {}dependency `{}` is never referenced in the crate's {where_checked}; remove it or justify it with an allow",
                            if dep.dev { "dev-" } else { "" },
                            dep.name
                        ),
                    ));
                }
            }
        }
        diagnostics
    }
}

/// Whether `dep` is referenced by the package rooted at `dir` (empty for
/// the workspace-root package). Regular dependencies may be referenced
/// anywhere the crate compiles them — `src/`, `tests/`, `benches/`;
/// dev-dependencies likewise. Test/bench files are lexed on the fly (the
/// workspace walk skips those directories).
fn dep_is_used(ws: &Workspace, dir: &str, _dev: bool, dep: &str) -> bool {
    let ident = dep.replace('-', "_");
    let src_prefix = if dir.is_empty() {
        "src".to_string()
    } else {
        format!("{dir}/src")
    };
    if ws
        .files_under(&src_prefix)
        .any(|f| references_crate(&f.lexed.masked, &ident))
    {
        return true;
    }
    for sub in ["tests", "benches", "examples"] {
        let fs_dir = if dir.is_empty() {
            ws.root.join(sub)
        } else {
            ws.root.join(dir).join(sub)
        };
        if dir_references_crate(&fs_dir, &ident) {
            return true;
        }
    }
    false
}

fn dir_references_crate(dir: &Path, ident: &str) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            if dir_references_crate(&path, ident) {
                return true;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if references_crate(&lexer::lex(&text).masked, ident) {
                    return true;
                }
            }
        }
    }
    false
}

/// Whether masked text references extern crate `ident`: a `ident::` path,
/// a `use ident ...` import, or an `extern crate ident` item.
fn references_crate(masked: &str, ident: &str) -> bool {
    let bytes = masked.as_bytes();
    let mut from = 0;
    while let Some(at) = crate::passes::find_ident_token(masked, ident, from) {
        from = at + ident.len();
        let mut j = at + ident.len();
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        if bytes.get(j) == Some(&b':') && bytes.get(j + 1) == Some(&b':') {
            return true;
        }
        let before = masked[..at].trim_end();
        for opener in ["use", "crate", ","] {
            // `use rand;`, `extern crate rand;`, `use {a, rand};`
            if let Some(head) = before.strip_suffix(opener) {
                if opener == ","
                    || head.is_empty()
                    || head.ends_with(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ManifestFile, SourceFile};
    use std::path::PathBuf;

    fn ws(manifests: Vec<(&str, &str)>, files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files: files
                .into_iter()
                .map(|(rel, text)| SourceFile::parse(rel.into(), text.into()))
                .collect(),
            manifests: manifests
                .into_iter()
                .map(|(rel, text)| ManifestFile::parse(rel.into(), text))
                .collect(),
        }
    }

    #[test]
    fn inversion_is_flagged_at_the_dep_line() {
        let ws = ws(
            vec![(
                "crates/sim/Cargo.toml",
                "[package]\nname = \"lv-sim\"\n\n[dependencies]\nlv-server.workspace = true\n",
            )],
            vec![("crates/sim/src/lib.rs", "use lv_server::Thing;\n")],
        );
        let diags = CrateLayering.run(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
        assert!(diags[0].message.contains("layering inversion"));
    }

    #[test]
    fn equal_rank_is_an_inversion_too() {
        let ws = ws(
            vec![(
                "crates/crn/Cargo.toml",
                "[package]\nname = \"lv-crn\"\n\n[dependencies]\nlv-ode.workspace = true\n",
            )],
            vec![("crates/crn/src/lib.rs", "use lv_ode::Rkf45;\n")],
        );
        assert_eq!(CrateLayering.run(&ws).len(), 1);
    }

    #[test]
    fn unused_dep_is_flagged_and_used_dep_is_not() {
        let ws = ws(
            vec![(
                "crates/sim/Cargo.toml",
                "[package]\nname = \"lv-sim\"\n\n[dependencies]\nlv-engine.workspace = true\nlv-ode.workspace = true\n",
            )],
            vec![("crates/sim/src/lib.rs", "use lv_engine::Scenario;\n")],
        );
        let diags = CrateLayering.run(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`lv-ode` is never referenced"));
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn references_inside_strings_do_not_count() {
        let ws = ws(
            vec![(
                "crates/sim/Cargo.toml",
                "[package]\nname = \"lv-sim\"\n\n[dependencies]\nlv-engine.workspace = true\n",
            )],
            vec![(
                "crates/sim/src/lib.rs",
                "const HINT: &str = \"try lv_engine::Scenario\";\n",
            )],
        );
        assert_eq!(CrateLayering.run(&ws).len(), 1);
    }

    #[test]
    fn analyze_may_not_join_the_stack() {
        let ws = ws(
            vec![(
                "crates/analyze/Cargo.toml",
                "[package]\nname = \"lv-analyze\"\n\n[dependencies]\nrand.workspace = true\n",
            )],
            vec![("crates/analyze/src/lib.rs", "use rand::Rng;\n")],
        );
        let diags = CrateLayering.run(&ws);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("layering inversion"));
    }

    #[test]
    fn compat_shims_may_depend_on_each_other_only() {
        let ok = ws(
            vec![(
                "crates/compat/serde/Cargo.toml",
                "[package]\nname = \"serde\"\n\n[dependencies]\nserde_derive = { path = \"../serde_derive\" }\n",
            )],
            vec![(
                "crates/compat/serde/src/lib.rs",
                "pub use serde_derive::Serialize;\n",
            )],
        );
        assert!(CrateLayering.run(&ok).is_empty());
        let bad = ws(
            vec![(
                "crates/compat/rand/Cargo.toml",
                "[package]\nname = \"rand\"\n\n[dependencies]\nlv-crn = { path = \"../../crn\" }\n",
            )],
            vec![("crates/compat/rand/src/lib.rs", "use lv_crn::State;\n")],
        );
        assert_eq!(CrateLayering.run(&bad).len(), 1);
    }

    #[test]
    fn use_list_and_extern_crate_references_count() {
        assert!(references_crate("use rand::Rng;", "rand"));
        assert!(references_crate("use rand;", "rand"));
        assert!(references_crate("extern crate rand;", "rand"));
        assert!(references_crate("use {serde, rand};", "rand"));
        assert!(references_crate("let r = rand::thread_rng();", "rand"));
        assert!(!references_crate("let operand = 1;", "rand"));
        assert!(!references_crate("fn rand() -> u64 { 4 }", "rand"));
    }
}
