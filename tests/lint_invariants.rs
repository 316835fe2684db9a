//! Repo-specific lint invariants, enforced as an ordinary test so CI runs
//! them with no extra tooling:
//!
//! 1. every crate root (libs, binaries, examples) carries
//!    `#![forbid(unsafe_code)]`, and no source file uses `unsafe` without an
//!    adjacent `// SAFETY:` justification (today there is none at all — the
//!    attribute makes that a compile error, this lint makes it a review
//!    gate even for code the compiler never sees, like cfg'd-out blocks);
//! 2. every stable failure-category code in the verdict taxonomy is
//!    documented in `SERVING.md`, so the serving docs can never silently
//!    fall behind a new category;
//! 3. the certificate checker (`crates/checker`) depends on `cypher-parser`
//!    alone: it re-checks certificates and is the evaluator's only oracle
//!    (`tests/checker_differential.rs`), which it can be only while it
//!    shares no code with the prover.

use std::fs;
use std::path::{Path, PathBuf};

use graphqe::FailureCategory;

/// The workspace root: integration tests run with the package root as cwd.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under the given directory, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn all_crate_roots_forbid_unsafe_code() {
    let root = repo_root();
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for dir in ["crates", "examples"] {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        roots.extend(files.into_iter().filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let parent =
                path.parent().and_then(|p| p.file_name()).and_then(|n| n.to_str()).unwrap_or("");
            name == "lib.rs" || name == "main.rs" || parent == "bin" || parent == "examples"
        }));
    }
    assert!(roots.len() >= 15, "crate-root discovery broke: found {}", roots.len());
    let missing: Vec<_> = roots
        .iter()
        .filter(|path| {
            fs::read_to_string(path)
                .map(|text| !text.contains("#![forbid(unsafe_code)]"))
                .unwrap_or(true)
        })
        .collect();
    assert!(missing.is_empty(), "crate roots without #![forbid(unsafe_code)]: {missing:?}");
}

#[test]
fn unsafe_blocks_require_a_safety_comment() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["src", "crates", "examples", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 30, "source discovery broke: found {} files", files.len());
    // Assembled at runtime so this file's own scan does not flag the lint
    // itself (the keyword never appears verbatim in its source).
    let keyword = ["un", "safe"].concat();
    let mut violations = Vec::new();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else { continue };
        let lines: Vec<&str> = text.lines().collect();
        for (index, line) in lines.iter().enumerate() {
            // A word-boundary scan over the non-comment part of each line:
            // cheap, dependency-free, and strict enough for a codebase whose
            // crate roots all forbid the keyword outright.
            let code = line.split("//").next().unwrap_or("");
            let uses_keyword = code
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|token| token == keyword);
            if !uses_keyword {
                continue;
            }
            let justified = lines[..index]
                .iter()
                .rev()
                .take(3)
                .any(|prev| prev.trim_start().starts_with("// SAFETY:"));
            if !justified {
                violations.push(format!("{}:{}", path.display(), index + 1));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`{keyword}` without a preceding `// SAFETY:` comment at: {violations:?}"
    );
}

#[test]
fn serving_docs_cover_the_whole_failure_taxonomy() {
    let serving =
        fs::read_to_string(repo_root().join("SERVING.md")).expect("SERVING.md is readable");
    let codes = FailureCategory::all_codes();
    assert!(codes.len() >= 7, "taxonomy unexpectedly small: {codes:?}");
    let undocumented: Vec<_> =
        codes.into_iter().filter(|code| !serving.contains(&format!("`{code}`"))).collect();
    assert!(
        undocumented.is_empty(),
        "failure codes missing from SERVING.md: {undocumented:?} — document each \
         code in the failure-category table"
    );
}

/// The dependency names a Cargo manifest declares in its `[dependencies]`,
/// `[dev-dependencies]` and `[build-dependencies]` tables, target-specific
/// tables and the `[dependencies.name]` form included. A line scanner, not a
/// TOML parser: enough for this workspace's manifests.
fn manifest_dependencies(manifest: &str) -> Vec<String> {
    const TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')) {
            let segments: Vec<&str> = header.split('.').map(str::trim).collect();
            in_table = false;
            match segments.iter().rposition(|segment| TABLES.contains(segment)) {
                Some(index) if index + 1 == segments.len() => in_table = true,
                Some(index) => names.push(segments[index + 1..].join(".")),
                None => {}
            }
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_table) {
            names.push(key.trim().trim_matches('"').to_string());
        }
    }
    names
}

#[test]
fn checker_depends_only_on_the_parser() {
    // The scanner finds every declaration form.
    let sample = "[package]\nname = \"x\"\n[dependencies]\na = { path = \"../a\" } # c\n\
                  [dev-dependencies]\nb = \"1\"\n[target.'cfg(unix)'.dependencies]\nc = \"1\"\n\
                  [build-dependencies.d]\npath = \"../d\"\n";
    assert_eq!(manifest_dependencies(sample), ["a", "b", "c", "d"]);

    let manifest = fs::read_to_string(repo_root().join("crates/checker/Cargo.toml"))
        .expect("the checker manifest is readable");
    assert_eq!(
        manifest_dependencies(&manifest),
        ["cypher-parser"],
        "graphqe-checker must depend on cypher-parser alone: it is the evaluator's oracle \
         and the certificate re-checker, which it can be only while it shares no code with \
         the prover"
    );
}
