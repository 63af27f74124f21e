//! PROTOCOL.md is the spec, and each of its rules names the tests that
//! hold it.
//!
//! PROTOCOL.md opens every normative rule with a tag,
//! `[P<section>-<slug>]`, as the first word of a line (after any list
//! or quote marker). A test cites a rule with a `// spec: [tag] …` line
//! in the comment and attribute block directly above its `#[test]` fn,
//! inside `proptest!` too. `every_rule_is_held_by_a_test` reads
//! PROTOCOL.md and every `.rs` file under `crates/*/src`,
//! `crates/*/tests` and `tests/`, prints each tag with the tests that
//! cite it (`cargo test --test spec -- --nocapture`), and fails on a
//! tag defined twice, a tag no test cites, a citation of an undefined
//! tag, and a `// spec:` line that sits above no test fn.
//!
//! `references_name_what_exists` keeps the cross-references honest in
//! the code, the tests and the documents (CHANGES.md is history and is
//! not read): every `DESIGN §N` or `PROTOCOL §N.M` reference, with or
//! without `.md`, names an existing heading, every tag-like token names
//! a defined tag, and DESIGN, PROTOCOL and EXPERIMENTS say nothing of
//! the roadmap.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The comment that opens a citation.
const CITE: &str = "// spec:";

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rel(path: &Path) -> String {
    let rel = path.strip_prefix(ROOT).unwrap_or(path);
    rel.display().to_string()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The Rust sources a citation may live in: `crates/*/src`,
/// `crates/*/tests` and `tests/`.
fn test_sources() -> Vec<PathBuf> {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
    }
    rust_files(&root.join("tests"), &mut files);
    files.sort();
    files
}

/// Where a tag-like token starts in `line`: `[P` and a digit.
fn token_starts(line: &str) -> impl Iterator<Item = usize> + '_ {
    line.match_indices("[P")
        .map(|(i, _)| i)
        .filter(move |&i| line[i + 2..].starts_with(|c: char| c.is_ascii_digit()))
}

/// The well-formed tag at the start of `s` — `[P<n>[.<m>]-<slug>]`, the
/// slug lowercase words joined by single hyphens — without its brackets.
fn tag_at(s: &str) -> Option<&str> {
    let body = s.strip_prefix("[P")?;
    let end = body.find(']')?;
    let (section, slug) = body[..end].split_once('-')?;
    let mut parts = section.split('.');
    let numeric =
        |p: Option<&str>| p.is_some_and(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()));
    let section_ok =
        numeric(parts.next()) && parts.clone().count() <= 1 && parts.all(|p| numeric(Some(p)));
    let slug_ok = slug.split('-').all(|w| {
        !w.is_empty()
            && w.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
    });
    (section_ok && slug_ok).then(|| &s[1..end + 2])
}

/// The tag a PROTOCOL.md line defines: a tag as the line's first word,
/// after any list (`*`, `-`, `1.`) or quote (`>`) marker.
fn defined_tag(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    loop {
        let before = rest;
        rest = rest.trim_start_matches(['*', '-', '>']).trim_start();
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 && rest[digits..].starts_with(". ") {
            rest = rest[digits + 2..].trim_start();
        }
        if rest == before {
            break;
        }
    }
    tag_at(rest)
}

/// Tags defined in PROTOCOL.md, in order, with their line numbers.
fn definitions(protocol: &str) -> Vec<(String, usize)> {
    (protocol.lines().enumerate())
        .filter_map(|(i, line)| Some((defined_tag(line)?.to_string(), i + 1)))
        .collect()
}

/// What a `// spec:` line at `i` is attached to: the test fn below its
/// comment and attribute block, or why not.
fn cited_test(lines: &[&str], i: usize) -> Result<String, String> {
    let is_test = |t: &str| t.starts_with("#[test]");
    let mut test = lines[..i]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|t| t.starts_with("//") || t.starts_with("#["))
        .any(is_test);
    let mut depth = 0i32;
    for line in &lines[i + 1..] {
        let t = line.trim();
        if depth > 0 {
            depth += t.matches('[').count() as i32 - t.matches(']').count() as i32;
            continue;
        }
        if t.starts_with("//") {
            continue;
        }
        if t.starts_with("#[") {
            test |= is_test(t);
            depth = t.matches('[').count() as i32 - t.matches(']').count() as i32;
            continue;
        }
        let mut sig = t;
        for prefix in ["pub(crate) ", "pub ", "async ", "unsafe "] {
            sig = sig.strip_prefix(prefix).unwrap_or(sig);
        }
        let Some(sig) = sig.strip_prefix("fn ") else {
            return Err(format!("not above a fn, but `{t}`"));
        };
        let name = sig.split(['(', '<']).next().unwrap_or(sig).trim();
        return if test {
            Ok(name.to_string())
        } else {
            Err(format!("above `fn {name}`, which is not a #[test]"))
        };
    }
    Err("at the end of the file".into())
}

/// Check the spec against the tests, returning the tag → tests table
/// (in definition order) and every fault found.
fn check_citations() -> (Vec<(String, Vec<String>)>, Vec<String>) {
    let protocol = read(&Path::new(ROOT).join("PROTOCOL.md"));
    let mut errors = Vec::new();
    let mut table: Vec<(String, Vec<String>)> = Vec::new();
    let mut index = BTreeMap::new();
    for (tag, line) in definitions(&protocol) {
        if let Some(&first) = index.get(&tag) {
            errors.push(format!(
                "PROTOCOL.md:{line}: [{tag}] is already defined at line {first}"
            ));
            continue;
        }
        index.insert(tag.clone(), line);
        table.push((tag, Vec::new()));
    }
    let slot: BTreeMap<String, usize> = table
        .iter()
        .enumerate()
        .map(|(i, (t, _))| (t.clone(), i))
        .collect();
    for path in test_sources() {
        let text = read(&path);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !line.trim_start().starts_with(CITE) {
                continue;
            }
            let at = format!("{}:{}", rel(&path), i + 1);
            let test = match cited_test(&lines, i) {
                Ok(name) => format!("{}::{name}", rel(&path)),
                Err(why) => {
                    errors.push(format!("{at}: a citation {why}"));
                    continue;
                }
            };
            let tags: Vec<&str> = token_starts(line)
                .filter_map(|s| tag_at(&line[s..]))
                .collect();
            if tags.is_empty() {
                errors.push(format!("{at}: a citation that names no tag"));
            }
            for tag in tags {
                match slot.get(tag) {
                    Some(&k) if !table[k].1.contains(&test) => table[k].1.push(test.clone()),
                    Some(_) => {}
                    None => errors.push(format!("{at}: [{tag}] is not defined in PROTOCOL.md")),
                }
            }
        }
    }
    for (tag, tests) in &table {
        if tests.is_empty() {
            errors.push(format!(
                "[{tag}] (PROTOCOL.md:{}) is cited by no test",
                index[tag]
            ));
        }
    }
    (table, errors)
}

#[test]
fn every_rule_is_held_by_a_test() {
    let (table, errors) = check_citations();
    let citations: usize = table.iter().map(|(_, tests)| tests.len()).sum();
    let mut tests: Vec<&String> = table.iter().flat_map(|(_, tests)| tests).collect();
    tests.sort();
    tests.dedup();
    println!(
        "{} tags, {citations} citations, {} citing tests",
        table.len(),
        tests.len()
    );
    for (tag, tests) in &table {
        println!("[{tag}]");
        for test in tests {
            println!("    {test}");
        }
    }
    assert!(errors.is_empty(), "spec faults:\n{}", errors.join("\n"));
}

/// Heading numbers of a markdown document: `7` for `## 7. TCP …`,
/// `7.2` for `### 7.2 Shared …`.
fn headings(doc: &str) -> Vec<String> {
    (doc.lines())
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| {
            let t = l.trim_start_matches('#').trim_start();
            let n = t.split([' ', '\t']).next()?;
            let n = n.trim_end_matches('.');
            (!n.is_empty()
                && n.split('.')
                    .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit())))
            .then(|| n.to_string())
        })
        .collect()
}

/// `(document, section)` for every `DESIGN §N` / `PROTOCOL.md §N.M`
/// reference in `text`. Between the name and the `§` only blanks,
/// backticks and comment markers may stand, so a reference may break
/// across comment lines.
fn references(text: &str) -> Vec<(&'static str, String, usize)> {
    let mut out = Vec::new();
    for doc in ["DESIGN", "PROTOCOL"] {
        for (at, _) in text.match_indices(doc) {
            if text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let mut rest = &text[at + doc.len()..];
            rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.trim_start_matches([' ', '\t', '\n', '\r', '/', '!', '`']);
            let Some(rest) = rest.strip_prefix('§') else {
                continue;
            };
            let major = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if major == 0 {
                continue;
            }
            let mut end = major;
            if let Some(minor) = rest[major..].strip_prefix('.') {
                let digits =
                    minor.len() - minor.trim_start_matches(|c: char| c.is_ascii_digit()).len();
                if digits > 0 {
                    end += 1 + digits;
                }
            }
            let line = text[..at].matches('\n').count() + 1;
            out.push((doc, rest[..end].to_string(), line));
        }
    }
    out
}

#[test]
fn references_name_what_exists() {
    let root = Path::new(ROOT);
    let protocol = read(&root.join("PROTOCOL.md"));
    let design = read(&root.join("DESIGN.md"));
    let tags: Vec<String> = definitions(&protocol).into_iter().map(|(t, _)| t).collect();
    let sections = [
        ("DESIGN", headings(&design)),
        ("PROTOCOL", headings(&protocol)),
    ];

    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    files.sort();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "PROTOCOL.md",
        "DESIGN.md",
        "ROADMAP.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ] {
        files.push(root.join(doc));
    }

    let mut errors = Vec::new();
    let mut count = 0;
    for path in &files {
        let text = read(path);
        for (doc, section, line) in references(&text) {
            count += 1;
            let known = &sections
                .iter()
                .find(|(d, _)| *d == doc)
                .expect("a document")
                .1;
            if !known.contains(&section) {
                errors.push(format!(
                    "{}:{line}: {doc} §{section} names no heading",
                    rel(path)
                ));
            }
        }
        for (i, line) in text.lines().enumerate() {
            for start in token_starts(line) {
                match tag_at(&line[start..]) {
                    Some(tag) if tags.iter().any(|t| t == tag) => {}
                    _ => errors.push(format!(
                        "{}:{}: `{}` names no tag of PROTOCOL.md",
                        rel(path),
                        i + 1,
                        line[start..].split(']').next().unwrap_or_default()
                    )),
                }
            }
        }
    }
    for doc in ["DESIGN.md", "PROTOCOL.md", "EXPERIMENTS.md"] {
        for (i, line) in read(&root.join(doc)).lines().enumerate() {
            if line.contains("ROADMAP") {
                errors.push(format!(
                    "{doc}:{}: the roadmap is no part of this document",
                    i + 1
                ));
            }
        }
    }
    println!("{count} section references in {} files", files.len());
    assert!(
        errors.is_empty(),
        "dangling references:\n{}",
        errors.join("\n")
    );
}
