//! Drive the lint over the known-bad fixture suite: each fixture must fail
//! with exactly its intended rule, the clean fixture must pass, and the
//! real tree must be clean.

use xtask::{check_source, lint_tree, Violation};

/// Lint fixture text as if it lived at `rel` inside the repo.
fn lint_as(rel: &str, src: &str) -> Vec<Violation> {
    check_source(rel, src)
}

fn rules(v: &[Violation]) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = v.iter().map(|v| v.rule).collect();
    r.dedup();
    r
}

#[test]
fn raw_mem_fixture_fails_only_raw_mem() {
    let v = lint_as("crates/hybrids/src/widget.rs", include_str!("../fixtures/raw_mem_bad.rs"));
    assert_eq!(rules(&v), ["raw-mem"], "{v:?}");
    // one read + one write in live code; the test-module uses are stripped
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn raw_mem_fixture_passes_in_an_accessor_module_path() {
    // Same source, but the file claims accessor-module status in an
    // allow-listed location — then raw access is its job.
    let marked =
        format!("// xtask: accessor-module\n{}", include_str!("../fixtures/raw_mem_bad.rs"));
    let v = lint_as("crates/hybrids/src/hashmap/node.rs", &marked);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn atomic_ordering_fixture_fails_only_in_ds_scope() {
    let src = include_str!("../fixtures/atomic_ordering_bad.rs");
    let v = lint_as("crates/hybrids/src/widget.rs", src);
    assert_eq!(rules(&v), ["atomic-ordering"], "{v:?}");
    // store + load; the comment and string mentions must not count
    assert_eq!(v.len(), 2, "{v:?}");
    // the same source is fine in bench-harness scope
    let v = lint_as("crates/bench/src/experiments/probe.rs", src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn mmio_fixture_fails_everywhere_but_the_runtime() {
    let src = include_str!("../fixtures/mmio_bad.rs");
    let v = lint_as("crates/hybrids/src/hashmap/mod.rs", src);
    assert_eq!(rules(&v), ["mmio-confinement"], "{v:?}");
    assert_eq!(v.len(), 3, "{v:?}");
    let v = lint_as("crates/hybrids/src/publist.rs", src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn opcode_coverage_fixture_flags_the_undeclared_op() {
    let v =
        lint_as("crates/hybrids/src/widget.rs", include_str!("../fixtures/opcode_coverage_bad.rs"));
    assert_eq!(rules(&v), ["opcode-coverage"], "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("OpCode::Remove"), "{v:?}");
}

#[test]
fn marker_fixture_flags_the_marker_and_still_raw_mem() {
    // An unsanctioned accessor-module claim is itself a violation, and it
    // must NOT exempt the file from raw-mem.
    let v = lint_as("crates/hybrids/src/widget.rs", include_str!("../fixtures/marker_bad.rs"));
    let mut r = rules(&v);
    r.sort_unstable();
    assert_eq!(r, ["marker-location", "raw-mem"], "{v:?}");
}

#[test]
fn marker_fixture_raw_mem_exempt_where_sanctioned() {
    // In an allow-listed path the very same file is fully clean.
    let v = lint_as("crates/hybrids/src/btree/node.rs", include_str!("../fixtures/marker_bad.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn simulator_files_are_exempt_from_effect_rules() {
    // nmp-sim implements `Ram` and the MMIO channel; its own use of those
    // tokens is not a violation.
    let src = "pub fn mmio_read_u64(&self) -> u64 { self.ram.read_u64(0) }\n";
    let v = lint_as("crates/nmp-sim/src/mem.rs", src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn policy_state_fixture_fails_outside_the_policy_layer() {
    let src = include_str!("../fixtures/policy_state_bad.rs");
    // In structure code every embedded-tuning token fires: the use path,
    // the field type, the two helper calls, and the `.policy` read —
    // comment/string mentions do not count.
    let v = lint_as("crates/hybrids/src/hashmap/mod.rs", src);
    assert_eq!(rules(&v), ["policy-confinement"], "{v:?}");
    assert_eq!(v.len(), 5, "{v:?}");
    assert!(v.iter().any(|v| v.msg.contains(".policy")), "{v:?}");
    // The same source is the policy layer's job in its own modules.
    for ok in ["crates/hybrids/src/offload/policy.rs", "crates/hybrids/src/driver.rs"] {
        let v = lint_as(ok, src);
        assert!(v.is_empty(), "{ok}: {v:?}");
    }
    // Outside the hybrids crate the rule does not apply (bench code
    // selects policies legitimately).
    let v = lint_as("crates/bench/src/lib.rs", src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn net_fixture_fails_everywhere_but_the_server_crate() {
    let src = include_str!("../fixtures/net_bad.rs");
    // Live code holds three socket mentions (`std::net` + `TcpListener` in
    // the use, `TcpListener::bind`); the doc comment, the inline comment,
    // the string literal, and the test module must not count.
    for bad in [
        "crates/hybrids/src/widget.rs",
        "crates/bench/src/lib.rs",
        "crates/nmp-sim/src/machine.rs",
        "src/lib.rs",
    ] {
        let v = lint_as(bad, src);
        assert!(v.iter().all(|v| v.rule == "net-confinement"), "{bad}: {v:?}");
        assert_eq!(v.iter().filter(|v| v.rule == "net-confinement").count(), 3, "{bad}: {v:?}");
    }
    // Inside the server crate sockets are the whole point.
    for ok in ["crates/server/src/server.rs", "crates/server/tests/server_e2e.rs"] {
        let v = lint_as(ok, src);
        assert!(v.is_empty(), "{ok}: {v:?}");
    }
}

#[test]
fn epoll_fixture_fails_everywhere_but_the_evented_runtime() {
    let src = include_str!("../fixtures/epoll_bad.rs");
    // Live code holds seven syscall-vocabulary tokens: the epoll_event
    // struct, the EPOLLIN const (decl + use), the epoll_create1 and fcntl
    // extern decls and their calls. The doc comment, the inline comment,
    // the string literal, and the test module must not count.
    for bad in [
        "crates/server/src/server.rs",
        "crates/server/src/loadgen.rs",
        "crates/hybrids/src/widget.rs",
        "crates/nmp-sim/src/machine.rs",
    ] {
        let v = lint_as(bad, src);
        assert!(v.iter().all(|v| v.rule == "sys-confinement"), "{bad}: {v:?}");
        assert_eq!(v.len(), 7, "{bad}: {v:?}");
    }
    // Inside the evented runtime the raw FFI is the module's job.
    for ok in ["crates/server/src/runtime/sys.rs", "crates/server/src/runtime/poller.rs"] {
        let v = lint_as(ok, src);
        assert!(v.is_empty(), "{ok}: {v:?}");
    }
}

#[test]
fn clean_fixture_passes_in_strictest_scope() {
    let v = lint_as("crates/hybrids/src/widget.rs", include_str!("../fixtures/clean.rs"));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn real_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
    let v = lint_tree(root).expect("lint walks the tree");
    assert!(
        v.is_empty(),
        "the tree must pass its own lint:\n{}",
        v.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
