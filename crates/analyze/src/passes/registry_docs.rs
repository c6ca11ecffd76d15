//! `registry-docs` — results must be reproducible from the docs alone.
//!
//! Extracts every backend name and alias from the engine's backend table
//! (the `name:` and `aliases: &[…]` field literals of its rows) and every
//! wire error code from the server (literals in `error.rs` plus first-argument
//! literals of `ServiceError::new(` call sites), then cross-checks the
//! two user-facing documents:
//!
//! - backend *names* must appear in both `README.md` and
//!   `crates/server/PROTOCOL.md`;
//! - backend *aliases* must appear in at least one of the two;
//! - error *codes* must appear in `crates/server/PROTOCOL.md`.
//!
//! Diagnostics anchor at the defining Rust line, so a deliberately
//! undocumented entry can carry an `lv-analyze::allow` annotation there.

use crate::diag::Diagnostic;
use crate::source::{SourceFile, Workspace};

use super::{find_ident_token, line_of, Pass};

/// The file holding the backend table: one row per backend, each with a
/// `name: "…"` and an `aliases: &[…]` field.
const BACKEND_TABLE: &str = "crates/engine/src/registry.rs";

/// A string constant extracted from source, with its defining location.
struct Extracted {
    value: String,
    file: String,
    line: usize,
}

pub struct RegistryDocs;

impl Pass for RegistryDocs {
    fn id(&self) -> &'static str {
        "registry-docs"
    }

    fn description(&self) -> &'static str {
        "backend names/aliases and wire error codes must be documented in README and PROTOCOL.md"
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diags = Vec::new();

        let readme = ws.read_text("README.md").unwrap_or_default();
        let protocol = ws
            .read_text("crates/server/PROTOCOL.md")
            .unwrap_or_default();
        if readme.is_empty() {
            diags.push(Diagnostic::new(
                "README.md",
                0,
                self.id(),
                "README.md is missing",
            ));
        }
        if protocol.is_empty() {
            diags.push(Diagnostic::new(
                "crates/server/PROTOCOL.md",
                0,
                self.id(),
                "crates/server/PROTOCOL.md is missing",
            ));
        }

        let (names, aliases) = extract_backends(ws);
        for name in &names {
            let mut missing = Vec::new();
            if !readme.contains(&name.value) {
                missing.push("README.md");
            }
            if !protocol.contains(&name.value) {
                missing.push("crates/server/PROTOCOL.md");
            }
            if !missing.is_empty() {
                diags.push(Diagnostic::new(
                    &name.file,
                    name.line,
                    self.id(),
                    format!(
                        "backend `{}` is not documented in {}",
                        name.value,
                        missing.join(" or ")
                    ),
                ));
            }
        }
        for alias in &aliases {
            if !readme.contains(&alias.value) && !protocol.contains(&alias.value) {
                diags.push(Diagnostic::new(
                    &alias.file,
                    alias.line,
                    self.id(),
                    format!(
                        "backend alias `{}` appears in neither README.md nor crates/server/PROTOCOL.md",
                        alias.value
                    ),
                ));
            }
        }

        for code in extract_error_codes(ws) {
            if !protocol.contains(&code.value) {
                diags.push(Diagnostic::new(
                    &code.file,
                    code.line,
                    self.id(),
                    format!(
                        "wire error code `{}` is not documented in crates/server/PROTOCOL.md",
                        code.value
                    ),
                ));
            }
        }

        diags
    }
}

/// Collects backend names and aliases: the string literals of the non-test
/// `name:` and `aliases:` field initialisers in the backend table.
fn extract_backends(ws: &Workspace) -> (Vec<Extracted>, Vec<Extracted>) {
    let mut names = Vec::new();
    let mut aliases = Vec::new();
    if let Some(file) = ws.file(BACKEND_TABLE) {
        collect_field_literals(file, "name", &mut names);
        collect_field_literals(file, "aliases", &mut aliases);
    }
    (names, aliases)
}

/// Pushes the string literals inside each non-test `{field}: …` initialiser
/// of `file`, which runs to the first `,` or closing bracket outside
/// brackets. Type annotations (`name: &'static str`) hold no literal.
fn collect_field_literals(file: &SourceFile, field: &str, out: &mut Vec<Extracted>) {
    let masked = &file.lexed.masked;
    let bytes = masked.as_bytes();
    let mut from = 0;
    while let Some(at) = find_ident_token(masked, field, from) {
        from = at + field.len();
        // A field, not a path segment: `name:` but not `name::`.
        if bytes.get(from) != Some(&b':') || bytes.get(from + 1) == Some(&b':') {
            continue;
        }
        if file.is_test_line(line_of(masked, at)) {
            continue;
        }
        let mut end = from + 1;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' if depth == 0 => break,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        for lit in &file.lexed.strings {
            if lit.offset > from && lit.end <= end {
                out.push(Extracted {
                    value: lit.value.clone(),
                    file: file.rel.clone(),
                    line: lit.line,
                });
            }
        }
        from = end;
    }
}

/// Collects wire error codes: every code-shaped literal in
/// `crates/server/src/error.rs`, plus the first code-shaped literal right
/// after each `ServiceError::new(` call site across `crates/server/src`.
fn extract_error_codes(ws: &Workspace) -> Vec<Extracted> {
    let mut codes: Vec<Extracted> = Vec::new();
    let push = |value: &str, file: &str, line: usize, codes: &mut Vec<Extracted>| {
        if !codes.iter().any(|c| c.value == value) {
            codes.push(Extracted {
                value: value.to_string(),
                file: file.to_string(),
                line,
            });
        }
    };

    if let Some(file) = ws.file("crates/server/src/error.rs") {
        for lit in &file.lexed.strings {
            if file.is_test_line(lit.line) || !is_code_shaped(&lit.value) {
                continue;
            }
            push(&lit.value, &file.rel, lit.line, &mut codes);
        }
    }

    for file in ws.files_under("crates/server/src") {
        let masked = &file.lexed.masked;
        let mut from = 0;
        while let Some(at) = masked[from..].find("ServiceError::new(").map(|o| from + o) {
            from = at + 1;
            let call_line = line_of(masked, at);
            if file.is_test_line(call_line) {
                continue;
            }
            // First literal that starts within the next 120 bytes of the
            // call — covers multi-line call formatting; a variable first
            // argument simply finds no nearby literal.
            if let Some(lit) = file
                .lexed
                .strings
                .iter()
                .find(|l| l.offset > at && l.offset < at + 120)
            {
                if is_code_shaped(&lit.value) {
                    push(&lit.value, &file.rel, lit.line, &mut codes);
                }
            }
        }
    }
    codes
}

/// Whether a literal looks like a wire error code: lowercase kebab-case,
/// starting with a letter (`bad-request`, `io`, `worker`, ...).
fn is_code_shaped(value: &str) -> bool {
    !value.is_empty()
        && value.as_bytes()[0].is_ascii_lowercase()
        && !value.starts_with('-')
        && !value.ends_with('-')
        && !value.contains("--")
        && value
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_shape_accepts_kebab_and_rejects_prose() {
        assert!(is_code_shaped("bad-request"));
        assert!(is_code_shaped("io"));
        assert!(!is_code_shaped("Bad-Request"));
        assert!(!is_code_shaped("spawn failed"));
        assert!(!is_code_shaped(""));
        assert!(!is_code_shaped("-leading"));
        assert!(!is_code_shaped("double--dash"));
    }
}
