//! The workspace model: the crate DAG and the per-rule surfaces,
//! encoded once as data (the CRTS idea — recommendations become a
//! machine-checked representation, not prose in a document).
//!
//! ARCHITECTURE.md's crate-DAG diagram is *derived from* this table;
//! when a layering decision changes, this file is the thing a PR
//! edits, and the change is visible in review as a one-line diff.

/// One workspace crate and the `mda-*` crates it may depend on.
#[derive(Debug, Clone, Copy)]
pub struct CrateModel {
    /// Package name (`mda-geo`, ...; `maritime` is the root facade).
    pub name: &'static str,
    /// Directory relative to the workspace root.
    pub dir: &'static str,
    /// The full set of `mda-*` dependencies this crate may use, in
    /// `[dependencies]`, `[dev-dependencies]` or source imports.
    pub deps: &'static [&'static str],
}

/// Every crate in the documented DAG, bottom-up. `mda-geo` is the
/// shared vocabulary at the bottom and must stay leaf-side of
/// everything; `mda-core` integrates the twelve library crates;
/// `mda-bench` may additionally see `mda-core`; `mda-lint` sees
/// nothing (it lints the others and must not be entangled with them).
pub const CRATES: &[CrateModel] = &[
    CrateModel { name: "mda-geo", dir: "crates/geo", deps: &[] },
    CrateModel { name: "mda-uncertainty", dir: "crates/uncertainty", deps: &[] },
    CrateModel { name: "mda-ais", dir: "crates/ais", deps: &["mda-geo"] },
    CrateModel { name: "mda-sim", dir: "crates/sim", deps: &["mda-geo", "mda-ais"] },
    CrateModel { name: "mda-stream", dir: "crates/stream", deps: &["mda-geo"] },
    CrateModel { name: "mda-synopses", dir: "crates/synopses", deps: &["mda-geo"] },
    CrateModel { name: "mda-track", dir: "crates/track", deps: &["mda-geo"] },
    CrateModel { name: "mda-forecast", dir: "crates/forecast", deps: &["mda-geo"] },
    CrateModel { name: "mda-viz", dir: "crates/viz", deps: &["mda-geo"] },
    CrateModel { name: "mda-events", dir: "crates/events", deps: &["mda-geo", "mda-stream"] },
    CrateModel { name: "mda-semantics", dir: "crates/semantics", deps: &["mda-geo", "mda-ais"] },
    CrateModel { name: "mda-store", dir: "crates/store", deps: &["mda-geo", "mda-synopses"] },
    CrateModel {
        name: "mda-core",
        dir: "crates/core",
        deps: &[
            "mda-geo",
            "mda-ais",
            "mda-sim",
            "mda-stream",
            "mda-synopses",
            "mda-track",
            "mda-uncertainty",
            "mda-events",
            "mda-semantics",
            "mda-store",
            "mda-forecast",
            "mda-viz",
        ],
    },
    CrateModel {
        name: "mda-serve",
        dir: "crates/serve",
        deps: &["mda-geo", "mda-sim", "mda-events", "mda-store", "mda-forecast", "mda-core"],
    },
    CrateModel {
        name: "mda-bench",
        dir: "crates/bench",
        deps: &[
            "mda-geo",
            "mda-ais",
            "mda-sim",
            "mda-stream",
            "mda-synopses",
            "mda-track",
            "mda-uncertainty",
            "mda-events",
            "mda-semantics",
            "mda-store",
            "mda-forecast",
            "mda-viz",
            "mda-core",
            "mda-serve",
        ],
    },
    CrateModel { name: "mda-lint", dir: "crates/lint", deps: &[] },
    CrateModel {
        name: "maritime",
        dir: ".",
        deps: &[
            "mda-geo",
            "mda-ais",
            "mda-sim",
            "mda-stream",
            "mda-synopses",
            "mda-track",
            "mda-uncertainty",
            "mda-events",
            "mda-semantics",
            "mda-store",
            "mda-forecast",
            "mda-viz",
            "mda-core",
            "mda-serve",
        ],
    },
];

/// Look a crate's model up by package name.
pub fn crate_model(name: &str) -> Option<&'static CrateModel> {
    CRATES.iter().find(|c| c.name == name)
}

/// The fallible decode surface of rule L2 (`panic-free-decode`):
/// every module whose input can be raw bytes off disk or off a
/// socket. The corruption batteries (PR 7 for disk, PR 10 for the
/// wire) promise no panic is reachable from untrusted bytes; these are
/// the files those promises rest on.
pub const DECODE_SURFACE: &[&str] = &[
    "crates/store/src/segment.rs",
    "crates/store/src/frame.rs",
    "crates/store/src/bytes.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/manifest.rs",
    "crates/store/src/durable.rs",
    "crates/geo/src/codec.rs",
    "crates/serve/src/frame.rs",
    "crates/serve/src/wire.rs",
];

/// The emission/merge surface of rule L3 (`deterministic-iteration`):
/// modules whose output order is an observable (event emission, cross-
/// shard merges, snapshot publication, triple-store answers). Direct
/// `HashMap`/`HashSet` iteration here must be immediately sorted, fed
/// through `canonical_sort`, or into an order-insensitive sink.
pub const EMISSION_SURFACE: &[&str] = &[
    "crates/events/src/engine.rs",
    "crates/events/src/proximity.rs",
    "crates/events/src/ring.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/multi.rs",
    "crates/core/src/sink.rs",
    "crates/core/src/query.rs",
    "crates/semantics/src/store.rs",
    "crates/semantics/src/query.rs",
    "crates/semantics/src/link.rs",
];

/// Path prefixes exempt from rule L4 (`wall-clock`): the bench
/// harness and its CI drivers time wall-clock by design. Everything
/// else must be a pure function of event time.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_acyclic_and_closed() {
        // Every named dependency exists, and following edges from any
        // crate terminates (the table is listed bottom-up, so a simple
        // index check proves acyclicity).
        for (i, c) in CRATES.iter().enumerate() {
            for d in c.deps {
                let j = CRATES.iter().position(|x| x.name == *d);
                let j = j.unwrap_or_else(|| panic!("{} depends on unknown {d}", c.name));
                assert!(j < i, "{} must be listed after its dependency {d}", c.name);
            }
        }
    }

    #[test]
    fn geo_is_leaf_side_of_store() {
        assert!(crate_model("mda-geo").unwrap().deps.is_empty());
        assert!(crate_model("mda-store").unwrap().deps.contains(&"mda-geo"));
    }
}
