//! Resolver configuration.

use std::net::Ipv4Addr;

use zdns_netsim::{SimTime, MILLIS, SECONDS};
use zdns_wire::Name;

/// Where answers come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionMode {
    /// ZDNS performs its own recursion from the root (the paper's
    /// "Iterative" rows) and exposes the lookup chain.
    Iterative,
    /// Queries are forwarded (RD=1) to external recursive resolvers,
    /// load-balanced across the list (the "Google"/"Cloudflare" rows).
    External {
        /// Upstream resolver addresses.
        servers: Vec<Ipv4Addr>,
    },
}

/// How much of a lookup its result carries — what the output line that
/// prints it needs, and nothing more. Ordered: each level adds to the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detail {
    /// Answers, authorities, protocol and resolver: what the `short` and
    /// `normal` output groups print.
    Normal,
    /// Plus the `flags` and `additionals` members of `data` (`long`).
    Long,
    /// Plus the recorded lookup chain (`trace`).
    Trace,
}

/// Tunables for the resolver library. Defaults mirror the ZDNS CLI.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Iterative or external resolution.
    pub mode: ResolutionMode,
    /// Per-query timeout for external lookups.
    pub timeout: SimTime,
    /// Per-query timeout for one step of an iterative walk.
    pub iteration_timeout: SimTime,
    /// Retries per query before rotating servers (Table 2 uses up to 5).
    pub retries: u32,
    /// Cache capacity in entries (Figure 2 sweeps 50K–1M).
    pub cache_size: usize,
    /// Retry truncated UDP responses over TCP.
    pub tcp_on_truncated: bool,
    /// Use TCP for everything (the optional mode from §3.4).
    pub tcp_only: bool,
    /// What a result carries. Only [`Detail::Trace`] records the full
    /// lookup chain (Appendix C's trace output); only [`Detail::Long`] and
    /// up write `flags` and `additionals` into the `data` object
    /// ([`LookupResult::write_data`](crate::LookupResult::write_data)).
    pub detail: Detail,
    /// Derive client cookies from this secret with a keyed hash over the
    /// destination address (RFC 7873 §6) instead of the default
    /// deterministic per-name hash. `None` keeps the reproducible
    /// per-name derivation; `Some` is what a production scanner wants —
    /// an off-path attacker who sees one lookup's cookie learns nothing
    /// about the cookie any other destination will be sent.
    pub cookie_secret: Option<[u8; 16]>,
    /// Root hints for iterative mode.
    pub root_hints: Vec<(Name, Ipv4Addr)>,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            mode: ResolutionMode::Iterative,
            timeout: 3 * SECONDS,
            iteration_timeout: 1_500 * MILLIS,
            retries: 3,
            cache_size: 600_000,
            tcp_on_truncated: true,
            tcp_only: false,
            detail: Detail::Trace,
            cookie_secret: None,
            root_hints: Vec::new(),
        }
    }
}

impl ResolverConfig {
    /// External-mode config against the given servers.
    pub fn external(servers: Vec<Ipv4Addr>) -> ResolverConfig {
        ResolverConfig {
            mode: ResolutionMode::External { servers },
            ..ResolverConfig::default()
        }
    }

    /// Iterative-mode config with the given root hints.
    pub fn iterative(root_hints: Vec<(Name, Ipv4Addr)>) -> ResolverConfig {
        ResolverConfig {
            mode: ResolutionMode::Iterative,
            root_hints,
            ..ResolverConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ResolverConfig::default();
        assert_eq!(c.retries, 3);
        assert_eq!(c.cache_size, 600_000);
        assert!(c.tcp_on_truncated);
        assert!(c.timeout > c.iteration_timeout);
    }

    #[test]
    fn constructors_set_mode() {
        let e = ResolverConfig::external(vec!["8.8.8.8".parse().unwrap()]);
        assert!(matches!(e.mode, ResolutionMode::External { .. }));
        let i = ResolverConfig::iterative(vec![]);
        assert!(matches!(i.mode, ResolutionMode::Iterative));
    }
}
