//! Abstract syntax of specification files.
//!
//! A [`SpecFile`] is the parsed form of one Syzlang-flavoured description:
//! resource declarations, named flag sets, and API signatures. The fuzzer
//! converts these into its internal generation tables; the paper calls
//! this "an internal abstract syntax tree that encodes API name, typed
//! arguments, and constraints" (§4.5).

use std::collections::BTreeMap;

/// A type expression attached to a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// Fixed-width integer with an optional inclusive value range.
    Int {
        /// Width in bits: 8, 16, 32 or 64.
        bits: u8,
        /// Inclusive `[min, max]` constraint, if declared.
        range: Option<(u64, u64)>,
    },
    /// A value drawn from a named flag set (possibly OR-combined).
    Flags {
        /// Name of the flag set.
        set: String,
    },
    /// Pointer to a pointee allocated in the test-case data area.
    Ptr(Box<TypeDesc>),
    /// Raw byte buffer of bounded length.
    Buffer {
        /// Maximum length in bytes.
        max_len: u32,
    },
    /// NUL-terminated string of bounded length (excluding the NUL).
    CString {
        /// Maximum length in bytes.
        max_len: u32,
    },
    /// Consumes a resource produced by an earlier call.
    Resource {
        /// Name of the resource kind (e.g. `"task"`, `"sock"`).
        name: String,
    },
}

impl TypeDesc {
    /// The resource kind consumed, if any (looks through pointers).
    pub fn consumed_resource(&self) -> Option<&str> {
        match self {
            TypeDesc::Resource { name } => Some(name),
            TypeDesc::Ptr(inner) => inner.consumed_resource(),
            _ => None,
        }
    }
}

/// One named, typed parameter of an API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type and constraints.
    pub ty: TypeDesc,
}

/// An API (or pseudo-syscall) signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiSpec {
    /// API name as exposed by the target OS (`xTaskCreate`,
    /// `k_thread_create`, `syz_create_bind_socket`, …).
    pub name: String,
    /// Ordered parameters.
    pub params: Vec<Param>,
    /// Resource kind produced by the return value, if any.
    pub returns: Option<String>,
    /// Free-form doc line (`# comment` preceding the signature).
    pub doc: Option<String>,
}

impl ApiSpec {
    /// Whether this is a pseudo-syscall (bundled API sequence).
    pub fn is_pseudo(&self) -> bool {
        self.name.starts_with("syz_")
    }

    /// Resource kinds consumed by any parameter.
    pub fn consumed_resources(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter_map(|p| p.ty.consumed_resource())
            .collect()
    }
}

/// A named set of symbolic flag values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagSet {
    /// Set name referenced by `flags[name]`.
    pub name: String,
    /// `(symbol, value)` pairs in declaration order.
    pub values: Vec<(String, u64)>,
}

impl FlagSet {
    /// All numeric values in the set.
    pub fn numeric(&self) -> Vec<u64> {
        self.values.iter().map(|(_, v)| *v).collect()
    }
}

/// A resource kind declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDecl {
    /// Resource kind name.
    pub name: String,
    /// Width in bits of the underlying handle value.
    pub bits: u8,
    /// Sentinel values usable when no producer is available (e.g. `-1`).
    pub sentinels: Vec<u64>,
}

/// A parsed specification file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecFile {
    /// Declared resource kinds, keyed by name.
    pub resources: BTreeMap<String, ResourceDecl>,
    /// Declared flag sets, keyed by name.
    pub flags: BTreeMap<String, FlagSet>,
    /// API signatures in declaration order.
    pub apis: Vec<ApiSpec>,
}

impl SpecFile {
    /// Find an API by name.
    pub fn api(&self, name: &str) -> Option<&ApiSpec> {
        self.apis.iter().find(|a| a.name == name)
    }

    /// APIs that produce the given resource kind.
    pub fn producers_of(&self, resource: &str) -> Vec<&ApiSpec> {
        self.apis
            .iter()
            .filter(|a| a.returns.as_deref() == Some(resource))
            .collect()
    }

    /// Merge another spec file into this one. Later APIs with duplicate
    /// names replace earlier ones; resources and flags are unioned.
    pub fn merge(&mut self, other: SpecFile) {
        self.resources.extend(other.resources);
        self.flags.extend(other.flags);
        for api in other.apis {
            if let Some(slot) = self.apis.iter_mut().find(|a| a.name == api.name) {
                *slot = api;
            } else {
                self.apis.push(api);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock_api() -> ApiSpec {
        ApiSpec {
            name: "syz_create_bind_socket".into(),
            params: vec![
                Param {
                    name: "domain".into(),
                    ty: TypeDesc::Flags {
                        set: "sock_domain".into(),
                    },
                },
                Param {
                    name: "addr".into(),
                    ty: TypeDesc::Ptr(Box::new(TypeDesc::Buffer { max_len: 64 })),
                },
            ],
            returns: Some("sock".into()),
            doc: None,
        }
    }

    #[test]
    fn pseudo_detection() {
        assert!(sock_api().is_pseudo());
        let plain = ApiSpec {
            name: "socket".into(),
            params: vec![],
            returns: None,
            doc: None,
        };
        assert!(!plain.is_pseudo());
    }

    #[test]
    fn resource_consumption_sees_through_pointers() {
        let ty = TypeDesc::Ptr(Box::new(TypeDesc::Resource {
            name: "task".into(),
        }));
        assert_eq!(ty.consumed_resource(), Some("task"));
        assert!(TypeDesc::Buffer { max_len: 4 }
            .consumed_resource()
            .is_none());
    }

    #[test]
    fn producers_lookup() {
        let mut f = SpecFile::default();
        f.apis.push(sock_api());
        assert_eq!(f.producers_of("sock").len(), 1);
        assert!(f.producers_of("task").is_empty());
    }

    #[test]
    fn merge_replaces_duplicates() {
        let mut a = SpecFile::default();
        a.apis.push(sock_api());
        let mut b = SpecFile::default();
        let mut replacement = sock_api();
        replacement.params.clear();
        b.apis.push(replacement);
        a.merge(b);
        assert_eq!(a.apis.len(), 1);
        assert!(a.apis[0].params.is_empty());
    }
}
