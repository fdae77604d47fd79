//! Golden files: the text a test produces, committed under
//! `<package>/golden/<suite>/`, and the differ that says what moved.
//!
//! Included with `#[path]` by every test that holds output against golden
//! files (`tests/shard_determinism.rs`, `crates/nmp-sim/tests/frozen_digests.rs`,
//! `crates/bench/tests/all_experiments.rs`), so `env!` below names the
//! including package.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a: how a golden file holds a text too large to diff usefully
/// (a Chrome-trace export).
pub fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Every line that differs between `old` and `new`, as `line N: old → new`
/// (`N` numbers the line in `new`, or in `old` for a removed line). Lines
/// are matched by a longest common subsequence, so a removed line is reported
/// once instead of shifting everything after it; within one changed run,
/// removed and added lines pair up in order, and the unpaired rest shows
/// `(none)` on its missing side.
pub fn line_moves(old: &str, new: &str) -> Vec<String> {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    // The common prefix and suffix need no table.
    let head = old.iter().zip(&new).take_while(|(o, n)| o == n).count();
    let tail =
        old[head..].iter().rev().zip(new[head..].iter().rev()).take_while(|(o, n)| o == n).count();
    let (o, n) = (&old[head..old.len() - tail], &new[head..new.len() - tail]);
    // lcs[i][j]: longest common subsequence of o[i..] and n[j..].
    let mut lcs = vec![vec![0u32; n.len() + 1]; o.len() + 1];
    for i in (0..o.len()).rev() {
        for j in (0..n.len()).rev() {
            lcs[i][j] =
                if o[i] == n[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < o.len() || j < n.len() {
        if i < o.len() && j < n.len() && o[i] == n[j] {
            (i, j) = (i + 1, j + 1);
            continue;
        }
        // One changed run: the removed lines, then the added ones.
        let (i0, j0) = (i, j);
        while i < o.len() || j < n.len() {
            if i < o.len() && j < n.len() && o[i] == n[j] {
                break;
            }
            if j == n.len() || (i < o.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
                i += 1;
            } else {
                j += 1;
            }
        }
        for k in 0..(i - i0).max(j - j0) {
            let show = |s: Option<&&str>| s.map_or("(none)".to_string(), |l| l.trim().to_string());
            let (was, now) = (o[i0..i].get(k), n[j0..j].get(k));
            let line = if now.is_some() { head + j0 + k } else { head + i0 + k };
            out.push(format!("line {}: {} → {}", line + 1, show(was), show(now)));
        }
    }
    out
}

/// At most this many moves are listed in a failure (a missing golden file
/// moves every line).
const MAX_SHOWN: usize = 60;

/// Hold `fresh` (file name → text) against the committed files of
/// `golden/<suite>/` in the including package. On any difference, write the
/// files that moved under `CARGO_TARGET_TMPDIR/golden/<suite>/`, then fail
/// naming every move that `moves(file, committed, fresh)` describes and the
/// `cp` command that accepts them.
pub fn check(
    suite: &str,
    fresh: &BTreeMap<String, String>,
    moves: impl Fn(&str, &str, &str) -> Vec<String>,
) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(suite);
    let new_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden").join(suite);
    let mut moved = Vec::new();
    let mut written: Vec<PathBuf> = Vec::new();
    for (file, text) in fresh {
        let committed = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
        if committed == *text {
            continue;
        }
        moved.extend(moves(file, &committed, text).into_iter().map(|m| format!("{file} {m}")));
        std::fs::create_dir_all(&new_dir).unwrap();
        written.push(new_dir.join(file));
        std::fs::write(written.last().unwrap(), text).unwrap();
    }
    if written.is_empty() {
        return;
    }
    let mut msg = format!("{} golden value(s) moved in {}:\n", moved.len(), dir.display());
    for m in moved.iter().take(MAX_SHOWN) {
        let _ = writeln!(msg, "  {m}");
    }
    if moved.len() > MAX_SHOWN {
        let _ = writeln!(msg, "  … and {} more", moved.len() - MAX_SHOWN);
    }
    let files: Vec<String> = written.iter().map(|p| p.display().to_string()).collect();
    let _ = write!(
        msg,
        "If the change is meant to move them, accept the new files with\n  cp {} {}/",
        files.join(" "),
        dir.display()
    );
    panic!("{msg}");
}
