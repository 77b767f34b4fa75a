//! Edge identities and the per-image edge registry.
//!
//! Real SanCov numbers edges by instrumentation order inside each
//! translation unit. The reproduction needs identities that are stable
//! across builds and meaningful in reports, so an edge is identified by the
//! FNV-1a hash of its fully qualified site name, e.g.
//! `"rt-thread::ipc::rt_event_send::flag_match"`. Kernel models register
//! every site they contain at image-build time; the registry is what the
//! instrumentation plan and the overhead model operate on.

use std::collections::BTreeMap;

/// A coverage edge identity (FNV-1a of the site name).
pub type EdgeId = u64;

/// Compute the stable edge id for a fully qualified site name.
///
/// The same FNV-1a as `eof_hal::flash::fnv1a` (pinned by a test), kept
/// as its own loop: every coverage hook hashes its site through here, and
/// calling across into `eof-hal` changes how the kernel models' hooks are
/// inlined and made the exec loop measurably slower.
pub fn edge_id(site: &str) -> EdgeId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One instrumentable branch site in a kernel image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSite {
    /// Stable identity.
    pub id: EdgeId,
    /// Fully qualified name, `"<os>::<module>::<function>::<branch>"`.
    pub name: String,
    /// Module component (second path segment), used for per-module
    /// instrumentation confinement.
    pub module: String,
}

/// All instrumentable sites of one OS image.
#[derive(Debug, Clone, Default)]
pub struct EdgeRegistry {
    by_id: BTreeMap<EdgeId, EdgeSite>,
}

impl EdgeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a site by fully qualified name. Returns its id.
    /// Re-registering the same name is idempotent.
    pub fn register(&mut self, name: &str) -> EdgeId {
        let id = edge_id(name);
        self.by_id.entry(id).or_insert_with(|| {
            let module = name.split("::").nth(1).unwrap_or("").to_string();
            EdgeSite {
                id,
                name: name.to_string(),
                module,
            }
        });
        id
    }

    /// Total number of registered sites.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Look up a site by id.
    pub fn get(&self, id: EdgeId) -> Option<&EdgeSite> {
        self.by_id.get(&id)
    }

    /// Iterate over all sites.
    pub fn iter(&self) -> impl Iterator<Item = &EdgeSite> {
        self.by_id.values()
    }

    /// Number of sites in a given module.
    pub fn module_len(&self, module: &str) -> usize {
        self.by_id.values().filter(|s| s.module == module).count()
    }

    /// Distinct module names, sorted.
    pub fn modules(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_id.values().map(|s| s.module.clone()).collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_id_is_stable_and_distinct() {
        assert_eq!(edge_id("a::b::c"), edge_id("a::b::c"));
        assert_ne!(edge_id("a::b::c"), edge_id("a::b::d"));
    }

    #[test]
    fn edge_id_is_the_hal_fnv1a() {
        for site in [
            "",
            "a",
            "a::b::c",
            "rt-thread::ipc::rt_event_send::flag_match",
        ] {
            assert_eq!(edge_id(site), eof_hal::flash::fnv1a(site.as_bytes()));
        }
    }

    #[test]
    fn register_extracts_module() {
        let mut r = EdgeRegistry::new();
        let id = r.register("zephyr::json::encode::nested");
        assert_eq!(r.get(id).unwrap().module, "json");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = EdgeRegistry::new();
        let a = r.register("os::m::f::b");
        let b = r.register("os::m::f::b");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn module_queries() {
        let mut r = EdgeRegistry::new();
        r.register("os::json::a::x");
        r.register("os::json::b::y");
        r.register("os::http::c::z");
        assert_eq!(r.module_len("json"), 2);
        assert_eq!(r.module_len("http"), 1);
        assert_eq!(r.modules(), vec!["http".to_string(), "json".to_string()]);
    }

    #[test]
    fn missing_module_segment_is_empty() {
        let mut r = EdgeRegistry::new();
        let id = r.register("lonely");
        assert_eq!(r.get(id).unwrap().module, "");
    }
}
