//! # rna-bench
//!
//! The stamp every measurement report opens with: schema name, git commit,
//! detected CPU vector features and host thread count. The harness itself
//! is the standalone `perf/` package (`perf/run.sh`, `perf --compare`),
//! which imports [`json_header`] from here; this crate holds nothing else.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

/// Opening lines of a hand-formatted JSON report (the workspace has no JSON
/// library): the schema name, the git commit the numbers were measured at,
/// the detected CPU vector features, and the host thread count — so a
/// stored report can always be traced back to the exact code state *and*
/// hardware class it describes (a number measured with AVX2 on 16 cores is
/// meaningless on a scalar single-core box).
///
/// The returned string is indented key lines ending in a comma; callers
/// splice it immediately after the opening `{` of their report.
pub fn json_header(schema: &str) -> String {
    let features = rna_tensor::simd::detected_features()
        .into_iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| format!("\"{name}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "  \"schema\": \"{schema}\",\n  \"commit\": \"{}\",\n  \"cpu_features\": [{features}],\n  \"threads\": {threads},",
        git_commit()
    )
}

/// Best-effort short commit hash read straight from `.git` — the offline
/// build spawns no processes. Walks up from the current directory so it
/// works from the workspace root or any directory below it; `"unknown"`
/// outside a checkout (an exported tree).
fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(git) = git_dir(&d) {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

/// The git directory of a checkout rooted at `root`: `.git` itself, or — in
/// a linked worktree or submodule, where `.git` is a one-line file — the
/// directory its `gitdir:` line names.
fn git_dir(root: &Path) -> Option<PathBuf> {
    let git = root.join(".git");
    if git.is_dir() {
        return Some(git);
    }
    let pointer = std::fs::read_to_string(&git).ok()?;
    let target = pointer.trim().strip_prefix("gitdir:")?.trim();
    Some(root.join(target)) // `join` keeps an absolute target as is
}

/// Resolves `HEAD` to a hash: either detached (hash inline) or a symbolic
/// ref found loose under `refs/` or in `packed-refs`. A linked worktree
/// keeps its own `HEAD` but shares refs with the main checkout, which its
/// `commondir` file names.
fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let common = match std::fs::read_to_string(git.join("commondir")) {
        Ok(rel) => git.join(rel.trim()),
        Err(_) => git.to_path_buf(),
    };
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => match std::fs::read_to_string(common.join(r)) {
            Ok(loose) => loose.trim().to_string(),
            Err(_) => {
                let packed = std::fs::read_to_string(common.join("packed-refs")).ok()?;
                packed.lines().find_map(|line| {
                    let (hash, name) = line.split_once(' ')?;
                    (name == r).then(|| hash.to_string())
                })?
            }
        },
    };
    (hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| hash[..12].to_string())
}

#[cfg(test)]
mod tests {
    use super::{git_dir, resolve_head};
    use rna_tensor::simd::Tier;
    use std::fs;

    const HASH: &str = "0123456789abcdef0123456789abcdef01234567";

    /// `HEAD` resolution against a fixture checkout, never the ambient one.
    #[test]
    fn resolve_head_reads_loose_packed_detached_and_worktree_heads_and_rejects_garbage() {
        let root = std::env::temp_dir().join(format!("rna-bench-git-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join(".git/refs/heads")).unwrap();
        let short = Some(&HASH[..12]);
        let git = git_dir(&root).expect("a .git directory");
        assert_eq!(git, root.join(".git"));
        // Symbolic HEAD, loose ref.
        fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(git.join("refs/heads/main"), format!("{HASH}\n")).unwrap();
        assert_eq!(resolve_head(&git).as_deref(), short);
        // A linked worktree: `.git` is a file naming an admin directory with
        // its own HEAD, whose refs live in the main checkout (`commondir`).
        let (wt, admin) = (root.join("wt"), git.join("worktrees/wt"));
        fs::create_dir_all(&wt).unwrap();
        fs::create_dir_all(&admin).unwrap();
        fs::write(admin.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(admin.join("commondir"), "../..\n").unwrap();
        fs::write(wt.join(".git"), format!("gitdir: {}\n", admin.display())).unwrap();
        let linked = git_dir(&wt).expect("the gitdir: pointer is followed");
        assert_eq!(resolve_head(&linked).as_deref(), short);
        fs::write(wt.join(".git"), "neither a directory nor a pointer\n").unwrap();
        assert_eq!(git_dir(&wt), None);
        assert_eq!(git_dir(&root.join("nowhere")), None);
        // Symbolic HEAD, ref only in packed-refs (among other lines).
        fs::remove_file(git.join("refs/heads/main")).unwrap();
        let other = "f".repeat(40);
        let packed =
            format!("# pack-refs with: peeled\n{other} refs/heads/x\n{HASH} refs/heads/main\n");
        fs::write(git.join("packed-refs"), packed).unwrap();
        assert_eq!(resolve_head(&git).as_deref(), short);
        // Detached HEAD.
        fs::write(git.join("HEAD"), format!("{HASH}\n")).unwrap();
        assert_eq!(resolve_head(&git).as_deref(), short);
        // Garbage: not hex, too short, a ref that resolves nowhere, no HEAD.
        for head in ["not a hash at all", "0123abc", "ref: refs/heads/gone"] {
            fs::write(git.join("HEAD"), head).unwrap();
            assert_eq!(resolve_head(&git), None, "HEAD = {head:?}");
        }
        fs::remove_file(git.join("HEAD")).unwrap();
        assert_eq!(resolve_head(&git), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn header_carries_schema_commit_features_and_threads() {
        let h = super::json_header("test-schema-v1");
        assert!(h.starts_with("  \"schema\": \"test-schema-v1\",\n  \"commit\": \""));
        assert!(h.ends_with(","));
        // In a checkout (plain clone or linked worktree) the commit is a
        // short hash; an exported tree has no commit to name.
        let commit_line = h.lines().nth(1).unwrap();
        let commit = commit_line.rsplit('"').nth(1).unwrap();
        assert!(
            commit == "unknown"
                || (commit.len() == 12 && commit.bytes().all(|b| b.is_ascii_hexdigit())),
            "short hash or \"unknown\", got {commit:?}"
        );
        // Hardware stamp: a features array (possibly empty) and a positive
        // thread count, so numbers are comparable across machines.
        assert!(h.contains("\"cpu_features\": ["), "header: {h}");
        let threads_line = h.lines().last().unwrap();
        let n: usize = threads_line
            .trim()
            .strip_prefix("\"threads\": ")
            .and_then(|s| s.strip_suffix(','))
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 1);
        // The header names the features of every tier the host runs.
        let best = rna_tensor::simd::best_tier();
        if best >= Tier::Avx2 {
            assert!(h.contains("\"avx2\""), "header: {h}");
        }
        if best == Tier::Avx512 {
            for feature in ["avx512f", "avx512bw", "avx512vl"] {
                assert!(h.contains(&format!("\"{feature}\"")), "header: {h}");
            }
        }
    }
}
