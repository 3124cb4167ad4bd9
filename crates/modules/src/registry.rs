//! The module registry — the Rust analog of ZDNS's global
//! `RegisterLookup` table that `init()` functions populate.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::all_nameservers::AllNameserversModule;
use crate::alookup::ALookupModule;
use crate::api::LookupModule;
use crate::caalookup::CaaLookupModule;
use crate::misc::{BindVersionModule, NsLookupModule, ProbeModule};
use crate::mxlookup::MxLookupModule;
use crate::raw::RawModule;
use crate::txtfilter;

/// Name → module table.
pub struct ModuleRegistry {
    modules: BTreeMap<String, Arc<dyn LookupModule>>,
}

impl ModuleRegistry {
    /// An empty registry.
    pub fn empty() -> ModuleRegistry {
        ModuleRegistry {
            modules: BTreeMap::new(),
        }
    }

    /// The standard registry: every raw record module plus the lookup and
    /// misc modules (§3.3).
    pub fn standard() -> ModuleRegistry {
        let mut r = ModuleRegistry::empty();
        for raw in RawModule::all() {
            r.register(Arc::new(raw));
        }
        r.register(Arc::new(ALookupModule::default()));
        r.register(Arc::new(MxLookupModule));
        r.register(Arc::new(NsLookupModule));
        r.register(Arc::new(CaaLookupModule));
        r.register(Arc::new(BindVersionModule));
        r.register(Arc::new(ProbeModule));
        r.register(Arc::new(AllNameserversModule));
        r.register(Arc::new(txtfilter::spf()));
        r.register(Arc::new(txtfilter::dmarc()));
        r
    }

    /// Register a module under its own name (later registrations win, so
    /// downstream users can override built-ins).
    pub fn register(&mut self, module: Arc<dyn LookupModule>) {
        self.modules
            .insert(module.name().to_ascii_uppercase(), module);
    }

    /// Look up a module by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn LookupModule>> {
        self.modules.get(&name.to_ascii_uppercase()).cloned()
    }

    /// All registered module names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.modules.keys().map(String::as_str).collect()
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when no modules are registered.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

impl Default for ModuleRegistry {
    fn default() -> Self {
        ModuleRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_everything() {
        let r = ModuleRegistry::standard();
        for name in [
            "A",
            "AAAA",
            "MX",
            "TXT",
            "PTR",
            "CAA",
            "NSEC",
            "SPF",
            "DMARC",
            "ALOOKUP",
            "MXLOOKUP",
            "NSLOOKUP",
            "CAALOOKUP",
            "BINDVERSION",
            "ALLNAMESERVERS",
        ] {
            assert!(r.get(name).is_some(), "missing {name}");
        }
        // 65-ish raw modules + 8 composite ones.
        assert!(r.len() >= 70, "{} modules", r.len());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let r = ModuleRegistry::standard();
        assert!(r.get("mxlookup").is_some());
        assert!(r.get("MxLookup").is_some());
        assert!(r.get("nonexistent").is_none());
    }

    #[test]
    fn registration_overrides() {
        let mut r = ModuleRegistry::standard();
        let before = r.len();
        // Re-registering under an existing name replaces, not duplicates.
        r.register(Arc::new(crate::raw::RawModule::new(
            zdns_wire::RecordType::A,
        )));
        assert_eq!(r.len(), before);
    }
}
