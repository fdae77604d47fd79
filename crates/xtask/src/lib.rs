//! Source-level lint pass enforcing the repository's memory-effect
//! discipline (DESIGN.md §4.8).
//!
//! The dynamic analysis layer (`nmp_sim::analysis`) checks what code *does*
//! at run time; this crate checks what code *says* at the source level, so
//! that the effect specs registered with the simulator stay trustworthy:
//!
//! * **raw-mem** — raw `Ram` access (`ram.read_u*` / `ram.write_u*`,
//!   untimed and invisible to the race detector) is only allowed inside
//!   modules annotated `// xtask: accessor-module`. Everything else must go
//!   through the typed accessors those modules export.
//! * **atomic-ordering** — data-structure code may not use host
//!   `std::sync::atomic::Ordering` directly; synchronization must be
//!   expressed through the simulator's timed acquire/release/CAS accessors
//!   so it is visible to the race detector and to effect specs. The bench
//!   driver's measurement barrier is the one sanctioned exception
//!   (`// xtask: allow(atomic-ordering)`).
//! * **mmio-confinement** — `mmio_read_u*` / `mmio_write_u*` (the host↔
//!   scratchpad channel) may only appear in the offload runtime
//!   (`publist.rs`); data structures are not allowed to invent side
//!   channels to NMP cores.
//! * **opcode-coverage** — in any file implementing `NmpExec`, every
//!   `OpCode::X` variant mentioned outside `fn effect_spec` must also be
//!   mentioned inside one, so an op handled (or posted) by the file cannot
//!   silently miss its effect declaration.
//! * **policy-confinement** — the self-tuning offload policy's state
//!   (`Backoff`) and decisions (`sort_batch`, `coalesce_run_len`,
//!   `config().policy` branches) live only in the offload layer
//!   (`offload/policy.rs`, `publist.rs`, `driver.rs`). Data structures
//!   declare *what* may be coalesced (`NmpExec::coalescible_ops`); they
//!   never embed tuning state, so `Policy::Fixed` runs stay bit-identical
//!   to the pre-policy protocol by construction.
//! * **net-confinement** — socket code (`std::net`, `TcpListener`,
//!   `TcpStream`, …) lives only in the server crate (`crates/server/`).
//!   The simulator, the structures, the workload generator, and the bench
//!   harness are deterministic, network-free layers; a socket anywhere
//!   else is an architecture violation (DESIGN.md §4.11).
//! * **sys-confinement** — raw readiness/socket syscall vocabulary
//!   (`epoll_create1` / `epoll_ctl` / `epoll_wait`, `epoll_event`,
//!   `EPOLL*` / `POLL*` flag constants, `pollfd`, `nfds_t`,
//!   `setsockopt`, `fcntl`) lives only in the evented runtime
//!   (`crates/server/src/runtime/`), behind its `Poller` trait. The rest
//!   of the server crate — and everything below it — talks `std::net`
//!   and the runtime's queue API, never raw FFI (DESIGN.md §4.12).
//! * **marker-location** — the `// xtask:` markers above may only appear in
//!   an explicit allow-list of files, so the lint cannot be silenced by
//!   sprinkling new markers.
//!
//! raw-mem and the four confinement rules are one shape — token T outside
//! scope S is finding M — and are rows of one table (`CONFINEMENTS`);
//! the other three are bespoke.
//!
//! The scanner is deliberately lexical: it strips comments, string/char
//! literals and `#[cfg(test)]` modules, then looks for tokens. No syntax
//! tree, no dependencies — cheap enough to run on every CI build, robust
//! enough that a token inside a doc comment or a test never trips it.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (`raw-mem`, `atomic-ordering`, `mmio-confinement`,
    /// `opcode-coverage`, `policy-confinement`, `net-confinement`,
    /// `sys-confinement`, `marker-location`).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

// ---------------------------------------------------------------------------
// Allow-lists: the only places markers may appear. Extending the effect
// discipline to a new accessor module means adding it HERE, in review.
// ---------------------------------------------------------------------------

/// Files allowed to carry the `// xtask: accessor-module` marker (and hence
/// to contain raw `Ram` access).
pub const ACCESSOR_MODULES: &[&str] = &[
    "crates/hybrids/src/hashmap/node.rs",
    "crates/hybrids/src/pqueue/cells.rs",
    "crates/hybrids/src/btree/node.rs",
    "crates/hybrids/src/skiplist/node.rs",
];

/// Files allowed to carry `// xtask: allow(atomic-ordering)`.
pub const ORDERING_EXCEPTIONS: &[&str] = &["crates/hybrids/src/driver.rs"];

/// Files allowed to carry line-level `// xtask: allow(raw-mem)` markers.
pub const RAW_MEM_EXCEPTIONS: &[&str] = &["crates/hybrids/src/publist.rs"];

/// The one file allowed to perform MMIO (the offload runtime).
pub const MMIO_MODULE: &str = "crates/hybrids/src/publist.rs";

/// The offload policy layer: the only hybrids files allowed to hold
/// adaptive-policy state or branch on the configured `Policy`: the policy
/// module itself, the combiner loop that applies coalescing and its idle
/// back-off, and the driver pipeline's stall back-off.
pub const POLICY_MODULES: &[&str] = &[
    "crates/hybrids/src/offload/policy.rs",
    "crates/hybrids/src/publist.rs",
    "crates/hybrids/src/driver.rs",
];

/// The only crate allowed to touch sockets: the cache-server front end
/// (its runtime, loadgen, bins, and tests). Everything else in the tree is
/// a deterministic, network-free layer.
pub const NET_SCOPE: &str = "crates/server/";

/// The only directory allowed to speak raw syscall vocabulary (epoll/poll
/// FFI, `setsockopt`, `fcntl`): the evented connection runtime, which wraps
/// it behind the `Poller` trait and socket-option helpers.
pub const SYS_SCOPE: &str = "crates/server/src/runtime/";

/// Directories scanned by [`lint_tree`], relative to the repo root. The
/// simulator crate (`nmp-sim` implements `Ram` and the memory model) is
/// exempt from the effect-discipline rules but IS scanned for the net- and
/// sys-confinement rules; the vendored stand-in crates are out of scope
/// entirely.
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/hybrids/src",
    "crates/workloads/src",
    "crates/bench/src",
    "crates/nmp-sim/src",
    "crates/server/src",
    "crates/server/tests",
];

// ---------------------------------------------------------------------------
// Lexical preprocessing
// ---------------------------------------------------------------------------

/// Blank out comments and string/char literals, preserving byte offsets and
/// line structure (newlines survive). Handles nested block comments, raw
/// strings (`r"…"`, `r#"…"#`), escapes, and the char-literal/lifetime
/// ambiguity well enough for token scanning.
pub fn mask_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for p in range {
            if out[p] != b'\n' {
                out[p] = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                blank(&mut out, start..i);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start..i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                // keep the delimiting quotes, blank the contents
                blank(&mut out, start + 1..i.saturating_sub(1).max(start + 1));
            }
            b'r' if matches!(b.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // candidate raw string: r"…" or r#"…"#
                let mut j = i + 1;
                let mut hashes = 0usize;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    let start = j;
                    j += 1;
                    'outer: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = j + 1;
                            let mut h = 0usize;
                            while h < hashes && b.get(k) == Some(&b'#') {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                j = k;
                                break 'outer;
                            }
                        }
                        j += 1;
                    }
                    blank(&mut out, start + 1..j.saturating_sub(1 + hashes).max(start + 1));
                    i = j;
                } else {
                    i += 1; // raw identifier like r#match
                }
            }
            b'\'' => {
                if b.get(i + 1) == Some(&b'\\') {
                    // escaped char literal '\n', '\'', '\u{…}'
                    let start = i;
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    blank(&mut out, start + 1..j);
                    i = j + 1;
                } else if b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'') {
                    // plain ASCII char literal 'x'
                    out[i + 1] = b' ';
                    i += 3;
                } else {
                    i += 1; // lifetime (or multibyte char literal — harmless)
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking preserves UTF-8")
}

fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (from..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

/// Scan from `start` (just past an opening delimiter) to just past the
/// matching closing delimiter. Input must already be masked.
fn match_delim(b: &[u8], start: usize, open: u8, close: u8) -> usize {
    let mut depth = 1usize;
    let mut i = start;
    while i < b.len() && depth > 0 {
        if b[i] == open {
            depth += 1;
        } else if b[i] == close {
            depth -= 1;
        }
        i += 1;
    }
    i
}

/// Blank out every `#[cfg(test)] mod … { … }` body in already-masked
/// source. Test code may use raw access and host atomics freely.
pub fn strip_test_mods(masked: &str) -> String {
    let b = masked.as_bytes();
    let mut out = b.to_vec();
    let needle = b"#[cfg(test)]";
    let mut from = 0usize;
    while let Some(pos) = find_from(b, needle, from) {
        from = pos + needle.len();
        let mut j = from;
        // skip whitespace and any further attributes
        loop {
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if b[j..].starts_with(b"#[") {
                j = match_delim(b, j + 2, b'[', b']');
            } else {
                break;
            }
        }
        if b[j..].starts_with(b"pub") {
            j += 3;
            if b.get(j) == Some(&b'(') {
                j = match_delim(b, j + 1, b'(', b')');
            }
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
        }
        if !b[j..].starts_with(b"mod") {
            continue; // cfg(test) on a use/fn/etc. — leave it
        }
        while j < b.len() && b[j] != b'{' && b[j] != b';' {
            j += 1;
        }
        if b.get(j) == Some(&b'{') {
            let end = match_delim(b, j + 1, b'{', b'}');
            for byte in &mut out[pos..end] {
                if *byte != b'\n' {
                    *byte = b' ';
                }
            }
        }
    }
    String::from_utf8(out).expect("stripping preserves UTF-8")
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset].iter().filter(|&&c| c == b'\n').count() + 1
}

/// Byte ranges of every `fn effect_spec … { … }` body in masked source.
fn effect_spec_ranges(masked: &str) -> Vec<std::ops::Range<usize>> {
    let b = masked.as_bytes();
    let needle = b"fn effect_spec";
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(b, needle, from) {
        from = pos + needle.len();
        let mut j = from;
        while j < b.len() && b[j] != b'{' {
            j += 1;
        }
        if j < b.len() {
            let end = match_delim(b, j + 1, b'{', b'}');
            out.push(pos..end);
            from = end;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Markers
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Markers {
    /// (line, marker-name) for every `// xtask: <marker>` found.
    all: Vec<(usize, String)>,
}

impl Markers {
    fn has_module(&self, name: &str) -> bool {
        self.all.iter().any(|(_, m)| m == name)
    }
    /// A line marker such as `allow(raw-mem)` exempts its own line and the
    /// line after it.
    fn line_allows(&self, marker: &str, line: usize) -> bool {
        self.all.iter().any(|(l, m)| m == marker && (line == *l || line == *l + 1))
    }
}

const KNOWN_MARKERS: &[&str] = &["accessor-module", "allow(atomic-ordering)", "allow(raw-mem)"];

/// Markers live in comments, so collect them from the *raw* source.
fn collect_markers(src: &str) -> Markers {
    let mut markers = Markers::default();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("xtask:") else { continue };
        let rest = line[pos + "xtask:".len()..].trim_start();
        let name = KNOWN_MARKERS
            .iter()
            .find(|m| rest.starts_with(**m))
            .map(|m| m.to_string())
            .unwrap_or_else(|| {
                // record the unknown token so marker-location can flag it
                rest.split([' ', '\t']).next().unwrap_or("").to_string()
            });
        markers.all.push((idx + 1, name));
    }
    markers
}

fn marker_allowed(rel: &str, marker: &str) -> bool {
    match marker {
        "accessor-module" => ACCESSOR_MODULES.contains(&rel),
        "allow(atomic-ordering)" => ORDERING_EXCEPTIONS.contains(&rel),
        "allow(raw-mem)" => RAW_MEM_EXCEPTIONS.contains(&rel),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// How a token must be delimited to count as a hit.
#[derive(Clone, Copy)]
enum Bound {
    /// Anywhere: `ram.read_u` hits inside `ram.read_u64`.
    Substring,
    /// Not glued to a neighbouring identifier at an end where the token
    /// itself is an identifier character: `host_t` misses `host_total`,
    /// `.policy` hits `self.policy`.
    Ident,
    /// Starting an identifier, any tail included in the one hit: `EPOLL`
    /// hits `EPOLL_CTL_ADD` once.
    IdentPrefix,
}

/// One "token outside its scope" rule: every hit of one of `tokens` in a
/// file that `exempt` does not waive is a `rule` finding reading `msg`
/// (`{tok}` replaced by the token).
struct Confinement {
    rule: &'static str,
    tokens: &'static [&'static str],
    bound: Bound,
    /// Whether this file (repo-relative path, its markers) lies inside the
    /// scope that may use the tokens.
    exempt: fn(&str, &Markers) -> bool,
    /// A line marker that waives its own line and the next, in the files
    /// whose allow-list sanctions it.
    line_marker: Option<&'static str>,
    msg: &'static str,
}

/// The simulator crate implements `Ram`, the MMIO channel and the memory
/// model, so the effect-discipline rules do not apply to it; it must stay
/// network- and syscall-free like every other layer.
const SIM_SCOPE: &str = "crates/nmp-sim/";

/// raw-mem and the confinement rules, in reporting order.
const CONFINEMENTS: &[Confinement] = &[
    // Sockets only in the server crate.
    Confinement {
        rule: "net-confinement",
        tokens: &[
            "std::net",
            "TcpListener",
            "TcpStream",
            "UdpSocket",
            "UnixListener",
            "UnixStream",
        ],
        bound: Bound::Ident,
        exempt: |rel, _| rel.starts_with(NET_SCOPE),
        line_marker: None,
        msg: "`{tok}` outside the server crate (crates/server/); every layer below the cache \
              front end is deterministic and network-free — serve traffic through \
              hybrids-server instead",
    },
    // Raw syscall vocabulary only in the evented runtime, so readiness FFI
    // cannot leak out from behind the Poller trait; the flag-constant
    // families (`EPOLLIN`, `EPOLL_CTL_ADD`, `POLLHUP`, …) by prefix.
    Confinement {
        rule: "sys-confinement",
        tokens: &[
            "epoll_create1",
            "epoll_ctl",
            "epoll_wait",
            "epoll_event",
            "pollfd",
            "nfds_t",
            "setsockopt",
            "fcntl",
        ],
        bound: Bound::Ident,
        exempt: |rel, _| rel.starts_with(SYS_SCOPE),
        line_marker: None,
        msg: SYS_MSG,
    },
    Confinement {
        rule: "sys-confinement",
        tokens: &["EPOLL", "POLL"],
        bound: Bound::IdentPrefix,
        exempt: |rel, _| rel.starts_with(SYS_SCOPE),
        line_marker: None,
        msg: SYS_MSG,
    },
    // Raw `Ram` access (untimed, race-detector-invisible) only inside
    // sanctioned accessor modules.
    Confinement {
        rule: "raw-mem",
        tokens: &["ram.read_u", "ram.write_u", "ram().read_u", "ram().write_u", "Ram::"],
        bound: Bound::Substring,
        exempt: |rel, markers| {
            rel.starts_with(SIM_SCOPE)
                || (markers.has_module("accessor-module") && marker_allowed(rel, "accessor-module"))
        },
        line_marker: Some("allow(raw-mem)"),
        msg: "raw `Ram` access (`{tok}…`) outside an accessor module; go through the typed \
              accessors, or move this into a `// xtask: accessor-module` file",
    },
    // MMIO only in the offload runtime.
    Confinement {
        rule: "mmio-confinement",
        tokens: &["mmio_read_u", "mmio_write_u"],
        bound: Bound::Substring,
        exempt: |rel, _| rel.starts_with(SIM_SCOPE) || rel == MMIO_MODULE,
        line_marker: None,
        msg: "`{tok}…` outside the offload runtime (crates/hybrids/src/publist.rs); post \
              requests through PubLists instead of opening a private MMIO channel",
    },
    // Tuning state stays in the offload policy layer (bench code selects
    // policies legitimately, so only the hybrids crate is in scope).
    Confinement {
        rule: "policy-confinement",
        tokens: &["Backoff", "sort_batch", "coalesce_run_len"],
        bound: Bound::Ident,
        exempt: policy_layer,
        line_marker: None,
        msg: "`{tok}` (adaptive-policy state) outside the offload policy layer; structures \
              declare coalescible ops, tuning lives in offload/policy.rs / publist.rs / \
              driver.rs",
    },
    // Branching a structure on the configured policy smuggles tuning
    // decisions out of the policy layer (and breaks the Fixed-mode
    // bit-identity argument).
    Confinement {
        rule: "policy-confinement",
        tokens: &[".policy"],
        bound: Bound::Ident,
        exempt: policy_layer,
        line_marker: None,
        msg: "`{tok}` read outside the offload policy layer; only offload/policy.rs, \
              publist.rs, and driver.rs may branch on the configured policy",
    },
];

const SYS_MSG: &str = "`{tok}` (raw syscall vocabulary) outside the evented runtime \
                       (crates/server/src/runtime/); use std::net and the runtime's \
                       Poller/queue API instead of raw FFI";

fn policy_layer(rel: &str, _: &Markers) -> bool {
    !rel.starts_with("crates/hybrids/src") || POLICY_MODULES.contains(&rel)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The first hit of `tok` at or after `from` under `bound`, and where to
/// resume searching.
fn find_token(b: &[u8], tok: &str, from: usize, bound: Bound) -> Option<(usize, usize)> {
    let t = tok.as_bytes();
    let mut at = from;
    while let Some(pos) = find_from(b, t, at) {
        at = pos + 1;
        let mut end = pos + t.len();
        let starts = !is_ident_byte(t[0]) || pos == 0 || !is_ident_byte(b[pos - 1]);
        let ends = !is_ident_byte(t[t.len() - 1]) || end >= b.len() || !is_ident_byte(b[end]);
        match bound {
            Bound::Substring => return Some((pos, at)),
            Bound::Ident if starts && ends => return Some((pos, at)),
            Bound::IdentPrefix if starts => {
                while end < b.len() && is_ident_byte(b[end]) {
                    end += 1;
                }
                return Some((pos, end));
            }
            _ => {}
        }
    }
    None
}

fn in_ordering_scope(rel: &str) -> bool {
    rel.starts_with("crates/hybrids/src") || rel.starts_with("crates/workloads/src")
}

/// Lint one file's source as if it lived at repo-relative `rel`. Exposed so
/// the fixture tests can feed known-bad sources under pretend paths.
pub fn check_source(rel: &str, src: &str) -> Vec<Violation> {
    let rel = rel.replace('\\', "/");
    let mut out = Vec::new();
    let markers = collect_markers(src);

    // marker-location: markers only where the allow-lists say.
    for (line, name) in &markers.all {
        if !KNOWN_MARKERS.contains(&name.as_str()) {
            out.push(Violation {
                rule: "marker-location",
                path: rel.clone(),
                line: *line,
                msg: format!("unknown xtask marker `{name}`"),
            });
        } else if !marker_allowed(&rel, name) {
            out.push(Violation {
                rule: "marker-location",
                path: rel.clone(),
                line: *line,
                msg: format!(
                    "marker `{name}` is not allowed in this file; extend the allow-list in \
                     crates/xtask/src/lib.rs if this is intentional"
                ),
            });
        }
    }

    let masked = strip_test_mods(&mask_source(src));

    // A marker only grants its exemption where the allow-list sanctions it;
    // an out-of-place marker is flagged above AND buys nothing.
    let ordering_ok = markers.has_module("allow(atomic-ordering)")
        && marker_allowed(&rel, "allow(atomic-ordering)");
    let b = masked.as_bytes();

    for c in CONFINEMENTS {
        if (c.exempt)(&rel, &markers) {
            continue;
        }
        let line_marker = c.line_marker.filter(|m| marker_allowed(&rel, m));
        for tok in c.tokens {
            let mut from = 0usize;
            while let Some((pos, next)) = find_token(b, tok, from, c.bound) {
                from = next;
                let line = line_of(&masked, pos);
                if line_marker.is_some_and(|m| markers.line_allows(m, line)) {
                    continue;
                }
                out.push(Violation {
                    rule: c.rule,
                    path: rel.clone(),
                    line,
                    msg: c.msg.replace("{tok}", tok),
                });
            }
        }
    }

    // The rules below are effect discipline, which the simulator is exempt from.
    if rel.starts_with(SIM_SCOPE) {
        return out;
    }

    // atomic-ordering: no host atomics in data-structure code.
    if in_ordering_scope(&rel) && !ordering_ok {
        let mut from = 0usize;
        while let Some(pos) = find_from(b, b"Ordering::", from) {
            from = pos + 1;
            out.push(Violation {
                rule: "atomic-ordering",
                path: rel.clone(),
                line: line_of(&masked, pos),
                msg: "host `Ordering::` in data-structure code; express synchronization \
                      through the simulator's acquire/release/CAS accessors"
                    .to_string(),
            });
        }
    }

    // opcode-coverage: every OpCode mentioned in an NmpExec file must be
    // covered by an effect_spec in that file.
    if masked.contains("impl NmpExec for") {
        let ranges = effect_spec_ranges(&masked);
        let mut inside: Vec<String> = Vec::new();
        let mut outside: Vec<(String, usize)> = Vec::new();
        let mut from = 0usize;
        while let Some(pos) = find_from(b, b"OpCode::", from) {
            let start = pos + "OpCode::".len();
            let mut end = start;
            while end < b.len() && (b[end].is_ascii_alphanumeric() || b[end] == b'_') {
                end += 1;
            }
            from = end.max(pos + 1);
            if start == end {
                continue;
            }
            let name = masked[start..end].to_string();
            if ranges.iter().any(|r| r.contains(&pos)) {
                inside.push(name);
            } else {
                outside.push((name, line_of(&masked, pos)));
            }
        }
        let mut reported: Vec<String> = Vec::new();
        for (name, line) in outside {
            if !inside.contains(&name) && !reported.contains(&name) {
                reported.push(name.clone());
                out.push(Violation {
                    rule: "opcode-coverage",
                    path: rel.clone(),
                    line,
                    msg: format!(
                        "`OpCode::{name}` is used in this NmpExec file but not declared by any \
                         `fn effect_spec` here"
                    ),
                });
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under [`SCAN_ROOTS`], rooted at `root`.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for scope in SCAN_ROOTS {
        let dir = root.join(scope);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        out.extend(check_source(&rel, &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let a = \"ram.read_u64\"; // ram.read_u64\n/* ram.read_u64 */ let b = 1;\n";
        let m = mask_source(src);
        assert!(!m.contains("ram.read_u64"));
        assert!(m.contains("let a ="));
        assert!(m.contains("let b = 1;"));
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let s = r#\"Ordering::Relaxed\"#; let c = 'x'; let l: &'static str = s;\n";
        let m = mask_source(src);
        assert!(!m.contains("Ordering::"));
        assert!(m.contains("'static"), "lifetimes must survive masking");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let m = mask_source(src);
        assert!(m.contains("let x = 1;"));
        assert!(!m.contains("outer"));
        assert!(!m.contains("still"));
    }

    #[test]
    fn strips_test_modules() {
        let src = "fn live() { touch(); }\n#[cfg(test)]\nmod tests {\n    fn t() { \
                   ram.read_u64(0); }\n}\nfn also_live() {}\n";
        let m = strip_test_mods(&mask_source(src));
        assert!(!m.contains("ram.read_u64"));
        assert!(m.contains("fn live()"));
        assert!(m.contains("fn also_live()"));
    }

    #[test]
    fn effect_spec_range_detection() {
        let src = "impl NmpExec for X {\n    fn exec(&self) { OpCode::Read; }\n    fn \
                   effect_spec(&self) -> EffectSpec { OpCode::Read; }\n}\n";
        let m = mask_source(src);
        let ranges = effect_spec_ranges(&m);
        assert_eq!(ranges.len(), 1);
        let v = check_source("crates/hybrids/src/x.rs", src);
        assert!(v.is_empty(), "covered opcode should not fire: {v:?}");
    }

    #[test]
    fn line_marker_scope_is_two_lines() {
        let src = "// xtask: allow(raw-mem) — init\nram.write_u64(0, 0);\nram.write_u64(8, 0);\n";
        let v = check_source("crates/hybrids/src/publist.rs", src);
        // line 2 is exempt (marker on line 1), line 3 is not
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }
}
