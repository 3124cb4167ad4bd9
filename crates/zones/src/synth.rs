//! The synthetic Internet: a procedural model of the public DNS namespace.
//!
//! Nothing is stored per-domain. Every fact — existence, hosting provider,
//! record contents, CAA configuration, per-nameserver flakiness — is a
//! deterministic function of `(seed, question)`, so the model covers 93M
//! base domains and the full IPv4 reverse tree in O(1) memory while giving
//! every component (resolvers, baselines, case studies) the same answers.
//!
//! The distributions are calibrated to the paper. The calibration is the
//! `calibration` block of private constants below the imports, one group
//! per paper figure it reproduces:
//! * Table 3 TLD mix: [`crate::tlds`], shaped by [`SynthConfig`]'s two
//!   counts ([`TABLE3_CCTLDS`], [`TABLE3_NGTLDS`] by default).
//! * Appendix A existence: ~70% of corpus names resolve; PTR and /24
//!   reverse delegation rates, which shape Figure 2's cache sweep.
//! * Record mix: `www`, MX, TXT/SPF, AAAA, wildcards, glueless referrals.
//! * §5 availability: ~0.55% of domains have a nameserver needing ≥2
//!   retries, ~0.01% needing 10, concentrated in `namebrightdns.com`, `.vn`
//!   and `.ng`; >99.99% of domains answer consistently across nameservers.
//! * §6 CAA deployment: ~1.69% of NOERROR domains, ccTLDs over-represented,
//!   `.pl` alone ~25% of CAA-enabled cc domains, tag and issuer mix.
//! * TTLs of infrastructure and leaf records.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

use zdns_wire::rdata::{Caa, Mx, Soa, TxtData};
use zdns_wire::{Name, Question, RData, Rcode, Record, RecordType, MAX_TEXT_LEN};

use crate::addressing::{host_address, is_reserved, ServerRole};
use crate::hashing::{chance, h64, h64_joined, unit};
use crate::providers::{Provider, ProviderRegistry, ReliabilityClass, PROVIDER_NAMEBRIGHT};
use crate::tlds::{Tld, TldCategory, TldRegistry, TABLE3_CCTLDS, TABLE3_NGTLDS};
use crate::universe::{AuthResponse, LatencyClass, ServerProfile, Universe};

// ---- calibration ------------------------------------------------------
//
// Every rate, count and TTL the universe draws with. Each has one value,
// so each is a constant; `tests/answers_pinned.rs` and
// `tests/profiles_pinned.rs` hold the answers they produce.

// Appendix A: which names exist.
/// Hosting providers in the registry.
const N_PROVIDERS: usize = 200;
/// P(a corpus base domain exists) ≈ 0.70.
const DOMAIN_EXISTS: f64 = 0.70;
/// P(an arbitrary additional subdomain fqdn exists).
const SUBDOMAIN_EXISTS: f64 = 0.82;
/// P(a public IPv4 address has a PTR record).
const PTR_EXISTS: f64 = 0.62;
/// Fraction of reverse /16 zones whose operator delegates further at /24,
/// as most real in-addr.arpa operators do. The /24 NS records dominate the
/// PTR cache working set, which is what gives Figure 2's cache-size sweep
/// its shape.
const RDNS24_FRACTION: f64 = 0.85;

// Record mix.
/// P(`www` exists).
const WWW_EXISTS: f64 = 0.95;
/// P(`www` is a CNAME to the apex rather than an A record | it exists).
const WWW_CNAME: f64 = 0.30;
/// P(domain has MX).
const MX: f64 = 0.45;
/// P(domain has TXT).
const TXT: f64 = 0.55;
/// P(TXT holder publishes SPF).
const SPF_GIVEN_TXT: f64 = 0.80;
/// P(domain apex has AAAA).
const AAAA: f64 = 0.35;
/// P(domain has a wildcard under the apex).
const WILDCARD: f64 = 0.02;
/// P(a TLD→leaf referral carries no glue).
const GLUELESS: f64 = 0.12;

// §5 availability.
/// P(one of a domain's nameservers is lame — answers REFUSED).
const LAME: f64 = 0.004;
/// P(domain's A answers differ across its nameservers): §5 says
/// inconsistency is <0.01% of domains.
const INCONSISTENT: f64 = 0.00005;
/// P(domain has a lightly flaky NS) — needs ≥2 retries sometimes.
const FLAKY_LIGHT: f64 = 0.0054;
/// Baseline P(deeply flaky NS) — needs ~10 retries.
const FLAKY_DEEP: f64 = 0.00005;
/// Deep-flaky rate for namebright-hosted domains.
const FLAKY_DEEP_NAMEBRIGHT: f64 = 0.016;
/// Deep-flaky rate for `.vn` domains.
const FLAKY_DEEP_VN: f64 = 0.00085;
/// Deep-flaky rate for `.ng` domains.
const FLAKY_DEEP_NG: f64 = 0.00071;
/// Drop probability of a lightly flaky nameserver.
const LIGHT_DROP: f64 = 0.55;
/// Drop probability of a deeply flaky nameserver.
const DEEP_DROP: f64 = 0.90;

// §6 CAA.
/// CAA rate for gTLD domains.
const CAA_GTLD: f64 = 0.0158;
/// CAA rate for ccTLD domains other than `.pl`.
const CAA_CCTLD: f64 = 0.0145;
/// CAA rate for `.pl` domains (drives its 25%-of-cc share).
const CAA_PL: f64 = 0.085;
/// P(issue tag present | CAA holder).
const CAA_ISSUE: f64 = 0.968;
/// P(issuewild tag | CAA holder).
const CAA_ISSUEWILD: f64 = 0.5527;
/// P(iodef tag | CAA holder).
const CAA_IODEF: f64 = 0.0687;
/// P(domain has only iodef | CAA holder) — the "Visa" population.
const CAA_IODEF_ONLY: f64 = 0.0006;
/// P(invalid tag | CAA holder), before the registrar multipliers below.
const CAA_INVALID: f64 = 0.00043;
/// Provider index whose domains produce most invalid tags.
const CAA_INVALID_REGISTRAR: u16 = 3;
/// [`CAA_INVALID`]'s multiplier at [`CAA_INVALID_REGISTRAR`].
const CAA_INVALID_AT_REGISTRAR: f64 = 40.0;
/// [`CAA_INVALID`]'s multiplier at every other provider.
const CAA_INVALID_ELSEWHERE: f64 = 0.3;
/// P(CAA reachable only through a CNAME | CAA holder) ≈ 8000/1.08M.
const CAA_VIA_CNAME: f64 = 0.0074;
/// P(Let's Encrypt in issue set | CAA holder with issue).
const CAA_LETSENCRYPT: f64 = 0.924;
/// P(Comodo in issue set).
const CAA_COMODO: f64 = 0.52;
/// P(DigiCert in issue set).
const CAA_DIGICERT: f64 = 0.51;

// TTLs.
/// TTL for the root's NS records and its servers' addresses.
const ROOT_NS_TTL: u32 = 518_400;
/// TTL for infrastructure (NS/glue) records.
const INFRA_TTL: u32 = 172_800;
/// TTL for leaf records.
const LEAF_TTL: u32 = 300;
/// Each kind of zone's SOA: TTL (also the negative-caching minimum),
/// serial, refresh, retry and expire.
const ROOT_SOA: [u32; 5] = [86_400, 20_220_518, 1800, 900, 604_800];
const TLD_SOA: [u32; 5] = [900, 1, 1800, 900, 604_800];
const REVERSE_SOA: [u32; 5] = [3600, 1, 1800, 900, 604_800];
const LEAF_SOA: [u32; 5] = [LEAF_TTL, 2022, 7200, 3600, 1_209_600];

/// What distinguishes one synthetic Internet from another: its seed, and
/// the registry shape it shares with the corpus scanned against it
/// (`CtCorpus::new` takes the same three values).
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Master seed; every fact derives from it.
    pub seed: u64,
    /// ccTLD count (Table 3: [`TABLE3_CCTLDS`]).
    pub n_cctlds: usize,
    /// New-gTLD count (Table 3: [`TABLE3_NGTLDS`]).
    pub n_ngtlds: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0x5DA5_2D45,
            n_cctlds: TABLE3_CCTLDS,
            n_ngtlds: TABLE3_NGTLDS,
        }
    }
}

/// How a domain's `www` label behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WwwKind {
    /// `www` has its own A record.
    ARecord,
    /// `www` is a CNAME to the apex.
    CnameToApex,
    /// `www` does not exist.
    Absent,
}

/// Per-nameserver flakiness of a domain (§5 availability model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyNs {
    /// Which of the domain's nameservers is flaky.
    pub ns_index: u8,
    /// Probability a query to that NS for this domain is dropped.
    pub drop_prob: f64,
    /// True for the ~10-retry population.
    pub deep: bool,
}

/// Everything derivable about one base domain — the ground truth the case
/// studies compare scan output against.
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// The base domain.
    pub base: Name,
    /// Whether it exists (resolves) at all.
    pub exists: bool,
    /// Hosting provider index.
    pub provider: u16,
    /// Number of nameservers serving it.
    pub ns_count: u8,
    /// Apex IPv4 address.
    pub apex_a: Ipv4Addr,
    /// Apex has AAAA.
    pub has_aaaa: bool,
    /// `www` behaviour.
    pub www: WwwKind,
    /// Has MX (and a `mail` host).
    pub has_mx: bool,
    /// Has TXT.
    pub has_txt: bool,
    /// TXT holder publishes SPF.
    pub has_spf: bool,
    /// Wildcard `*.base` exists.
    pub has_wildcard: bool,
    /// CAA records at the apex (empty = no CAA).
    pub caa_records: Vec<Caa>,
    /// CAA is reachable only via a CNAME hop (§6's 8000 domains).
    pub caa_via_cname: bool,
    /// One nameserver is lame (answers REFUSED).
    pub lame_ns: Option<u8>,
    /// The TLD→domain referral omits glue.
    pub glueless: bool,
    /// A answers differ across nameservers.
    pub inconsistent: bool,
    /// Flaky-nameserver model.
    pub flaky: Option<FlakyNs>,
}

/// A TLD's apex, its `nic` node and its name-server host names, built on
/// first use.
struct TldNames {
    apex: Name,
    /// `nic.<tld>`, the empty non-terminal above the host names.
    nic: Name,
    /// `ns<j+1>.nic.<tld>` for every server `j`.
    hosts: Vec<Name>,
}

/// One base domain as every derivation about it starts: its lowercased
/// text (the subject each fact hashes), its TLD, and the provider whose NS
/// domain it is, if any. Built once per question, on the stack.
struct Base<'a> {
    name: &'a Name,
    text: [u8; MAX_TEXT_LEN],
    len: usize,
    tld: Option<&'a Tld>,
    /// The provider whose NS host records this domain holds.
    own_provider: Option<u16>,
}

impl Base<'_> {
    /// The hash subject: the lowercased dotted text.
    fn key(&self) -> &[u8] {
        &self.text[..self.len]
    }

    fn tld_label(&self) -> &str {
        self.tld.map_or("", |t| t.label.as_str())
    }
}

/// The procedural universe.
pub struct SyntheticUniverse {
    cfg: SynthConfig,
    tlds: TldRegistry,
    providers: ProviderRegistry,
    /// Provider NS base domains (`cloudflare-dns.com`), as lowercased
    /// text, → provider index, so infrastructure domains resolve
    /// coherently.
    provider_domains: HashMap<String, u16>,
    /// Each provider's `ns<k+1>.<label>.com` hosts, built on first use.
    provider_hosts: Vec<OnceLock<Vec<Name>>>,
    tld_names: Vec<OnceLock<TldNames>>,
    /// `a.root-servers.net` … `m.root-servers.net`.
    root_hosts: Vec<Name>,
    arpa_index: u16,
}

impl SyntheticUniverse {
    /// Build the universe from a config.
    pub fn new(cfg: SynthConfig) -> SyntheticUniverse {
        let tlds = TldRegistry::generate(cfg.seed, cfg.n_cctlds, cfg.n_ngtlds);
        let providers = ProviderRegistry::generate(cfg.seed, N_PROVIDERS);
        let provider_domains = providers
            .all()
            .iter()
            .map(|p| (providers.ns_domain(p.index), p.index))
            .collect();
        let arpa_index = tlds.by_label("arpa").expect("arpa exists").index;
        SyntheticUniverse {
            provider_hosts: providers.all().iter().map(|_| OnceLock::new()).collect(),
            tld_names: tlds.all().iter().map(|_| OnceLock::new()).collect(),
            root_hosts: (b'a'..=b'm')
                .map(|letter| format!("{}.root-servers.net", letter as char))
                .map(|host| host.parse().expect("valid"))
                .collect(),
            cfg,
            tlds,
            providers,
            provider_domains,
            arpa_index,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// The TLD registry.
    pub fn tlds(&self) -> &TldRegistry {
        &self.tlds
    }

    /// The provider registry.
    pub fn providers(&self) -> &ProviderRegistry {
        &self.providers
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// The TLD of a name (its last label), if registered.
    pub fn tld_of(&self, name: &Name) -> Option<&Tld> {
        let last = name.labels().last()?;
        self.tlds.by_label(std::str::from_utf8(last).ok()?)
    }

    /// The base (registrable) domain of a name: its last two labels.
    pub fn base_of(&self, name: &Name) -> Option<Name> {
        if name.label_count() < 2 {
            return None;
        }
        Some(name.suffix(2))
    }

    fn provider_hosts(&self, p: &Provider) -> &[Name] {
        self.provider_hosts[p.index as usize].get_or_init(|| {
            (0..p.ns_count)
                .map(|k| {
                    self.providers
                        .ns_hostname(p.index, k)
                        .parse()
                        .expect("provider NS hostnames are valid names")
                })
                .collect()
        })
    }

    fn tld_names(&self, tld: &Tld) -> &TldNames {
        self.tld_names[tld.index as usize].get_or_init(|| {
            let apex: Name = tld.label.parse().expect("TLD labels are valid");
            let nic = apex.child("nic").expect("valid");
            let hosts = (1..=tld.server_count)
                .map(|j| nic.child(&format!("ns{j}")).expect("valid"))
                .collect();
            TldNames { apex, nic, hosts }
        })
    }

    fn base<'a>(&'a self, name: &'a Name) -> Base<'a> {
        let mut text = [0; MAX_TEXT_LEN];
        let key = name.lower_text(&mut text);
        let (len, own_provider) = (key.len(), self.provider_domains.get(key).copied());
        Base {
            name,
            text,
            len,
            tld: self.tld_of(name),
            own_provider,
        }
    }

    // ---- derivations ----------------------------------------------------
    //
    // One function per fact about a base domain. A responder calls the
    // ones its answer reads; `domain_profile` calls them all.

    fn chance(&self, facet: &str, b: &Base<'_>, p: f64) -> bool {
        chance(self.seed(), facet, b.key(), p)
    }

    fn h64(&self, facet: &str, b: &Base<'_>) -> u64 {
        h64(self.seed(), facet, b.key())
    }

    fn exists(&self, b: &Base<'_>) -> bool {
        if b.own_provider.is_some() {
            return true;
        }
        match b.tld {
            Some(tld) if tld.category != TldCategory::Infra => {
                self.chance("exists", b, DOMAIN_EXISTS)
            }
            _ => false,
        }
    }

    fn provider(&self, b: &Base<'_>) -> &Provider {
        match b.own_provider {
            Some(idx) => self.providers.by_index(idx).expect("registered provider"),
            None => self.providers.sample(self.h64("provider", b)),
        }
    }

    fn www(&self, b: &Base<'_>) -> WwwKind {
        if !self.chance("www-exists", b, WWW_EXISTS) {
            WwwKind::Absent
        } else if self.chance("www-cname", b, WWW_CNAME) {
            WwwKind::CnameToApex
        } else {
            WwwKind::ARecord
        }
    }

    fn apex_a(&self, b: &Base<'_>) -> Ipv4Addr {
        host_address(self.h64("apex-a", b))
    }

    fn has_aaaa(&self, b: &Base<'_>) -> bool {
        self.chance("aaaa", b, AAAA)
    }

    fn has_mx(&self, b: &Base<'_>) -> bool {
        self.chance("mx", b, MX)
    }

    fn has_txt(&self, b: &Base<'_>) -> bool {
        self.chance("txt", b, TXT)
    }

    /// Whether a TXT holder publishes SPF.
    fn spf_given_txt(&self, b: &Base<'_>) -> bool {
        self.chance("spf", b, SPF_GIVEN_TXT)
    }

    fn has_wildcard(&self, b: &Base<'_>) -> bool {
        self.chance("wildcard", b, WILDCARD)
    }

    fn glueless(&self, b: &Base<'_>) -> bool {
        self.chance("glueless", b, GLUELESS)
    }

    fn lame_ns(&self, b: &Base<'_>, provider: &Provider) -> Option<u8> {
        self.chance("lame", b, LAME)
            .then(|| (self.h64("lame-ns", b) % provider.ns_count as u64) as u8)
    }

    fn inconsistent(&self, b: &Base<'_>, provider: &Provider) -> bool {
        !provider.consistent || self.chance("inconsistent", b, INCONSISTENT)
    }

    /// The §5 availability model.
    fn flaky(&self, b: &Base<'_>, provider: &Provider) -> Option<FlakyNs> {
        let deep_rate = if provider.index == PROVIDER_NAMEBRIGHT {
            FLAKY_DEEP_NAMEBRIGHT
        } else {
            match b.tld_label() {
                "vn" => FLAKY_DEEP_VN,
                "ng" => FLAKY_DEEP_NG,
                _ => FLAKY_DEEP,
            }
        };
        let (drop_prob, deep) = if self.chance("flaky-deep", b, deep_rate) {
            (DEEP_DROP, true)
        } else if self.chance("flaky-light", b, FLAKY_LIGHT) {
            (LIGHT_DROP, false)
        } else {
            return None;
        };
        Some(FlakyNs {
            ns_index: (self.h64("flaky-ns", b) % provider.ns_count as u64) as u8,
            drop_prob,
            deep,
        })
    }

    /// The §6 CAA model: the apex's CAA records (empty = none) and whether
    /// they are reached only through a CNAME.
    fn caa(&self, b: &Base<'_>, provider: &Provider) -> (Vec<Caa>, bool) {
        let caa_rate = match (b.tld.map(|t| t.category), b.tld_label()) {
            (Some(TldCategory::CcTld), "pl") => CAA_PL,
            (Some(TldCategory::CcTld), _) => CAA_CCTLD,
            (Some(TldCategory::Infra), _) | (None, _) => 0.0,
            _ => CAA_GTLD,
        };
        let mut records = Vec::new();
        if !self.chance("caa", b, caa_rate) {
            return (records, false);
        }
        let via_cname = self.chance("caa-cname", b, CAA_VIA_CNAME);
        let iodef_only = self.chance("caa-iodef-only", b, CAA_IODEF_ONLY);
        let invalid_rate = if provider.index == CAA_INVALID_REGISTRAR {
            CAA_INVALID * CAA_INVALID_AT_REGISTRAR
        } else {
            CAA_INVALID * CAA_INVALID_ELSEWHERE
        };
        if self.chance("caa-invalid", b, invalid_rate) {
            // The registrar bug: a misspelled tag that validators reject.
            records.push(Caa {
                flags: 0,
                tag: b"issuer".to_vec(),
                value: b"comodoca.com".to_vec(),
            });
        } else if iodef_only {
            records.push(Caa {
                flags: 0,
                tag: b"iodef".to_vec(),
                value: b"mailto:security@visa-like.example".to_vec(),
            });
        } else {
            if self.chance("caa-issue", b, CAA_ISSUE) {
                if self.chance("caa-le", b, CAA_LETSENCRYPT) {
                    records.push(issue_record("issue", "letsencrypt.org"));
                }
                if self.chance("caa-comodo", b, CAA_COMODO) {
                    records.push(issue_record("issue", "comodoca.com"));
                }
                if self.chance("caa-digicert", b, CAA_DIGICERT) {
                    records.push(issue_record("issue", "digicert.com"));
                }
                if records.is_empty() {
                    records.push(issue_record("issue", "pki.goog"));
                }
            }
            if self.chance("caa-issuewild", b, CAA_ISSUEWILD) {
                let wild_val = if self.chance("caa-le-wild", b, CAA_LETSENCRYPT) {
                    "letsencrypt.org"
                } else {
                    "digicert.com"
                };
                records.push(issue_record("issuewild", wild_val));
            }
            if self.chance("caa-iodef", b, CAA_IODEF) {
                let mut value = b"mailto:hostmaster@".to_vec();
                value.extend_from_slice(b.key());
                records.push(Caa {
                    flags: 0,
                    tag: b"iodef".to_vec(),
                    value,
                });
            }
        }
        (records, via_cname)
    }

    /// Does this base domain exist (delegated from its TLD)?
    pub fn domain_exists(&self, base: &Name) -> bool {
        self.exists(&self.base(base))
    }

    /// Everything the universe states about a base domain: the ground truth
    /// the case studies (§5 consistency, §6 CAA) and the tests compare scan
    /// output against. It derives every fact, so it costs what all of them
    /// cost; the responders derive only the facts their answer reads, from
    /// the same per-fact functions this assembles.
    pub fn domain_profile(&self, base: &Name) -> DomainProfile {
        let b = self.base(base);
        let provider = self.provider(&b);
        let has_txt = self.has_txt(&b);
        let (caa_records, caa_via_cname) = self.caa(&b, provider);
        DomainProfile {
            base: base.clone(),
            exists: self.exists(&b),
            provider: provider.index,
            ns_count: provider.ns_count,
            apex_a: self.apex_a(&b),
            has_aaaa: self.has_aaaa(&b),
            www: self.www(&b),
            has_mx: self.has_mx(&b),
            has_txt,
            has_spf: has_txt && self.spf_given_txt(&b),
            has_wildcard: self.has_wildcard(&b),
            caa_records,
            caa_via_cname,
            lame_ns: self.lame_ns(&b, provider),
            glueless: self.glueless(&b),
            inconsistent: self.inconsistent(&b, provider),
            flaky: self.flaky(&b, provider),
        }
    }

    /// Whether the /16 `a.b` delegates its /24s to dedicated servers.
    pub fn rdns16_delegates_deeper(&self, a: u8, b: u8) -> bool {
        chance(self.seed(), "rdns-deep", &[a, b], RDNS24_FRACTION)
    }

    /// Whether a public IPv4 address has a PTR record.
    pub fn ptr_exists(&self, ip: Ipv4Addr) -> bool {
        !is_reserved(ip) && chance(self.seed(), "ptr", &ip.octets(), PTR_EXISTS)
    }

    /// The synthesized PTR target for an address.
    pub fn ptr_name(&self, ip: Ipv4Addr) -> Name {
        let o = ip.octets();
        let asn = h64(self.seed(), "ptr-asn", &[o[0], o[1]]) % 64_000 + 1000;
        format!("{}-{}-{}-{}.dyn.as{}.net", o[0], o[1], o[2], o[3], asn)
            .parse()
            .expect("synthesized PTR names are valid")
    }

    // ---- responders ------------------------------------------------------

    fn respond_root(&self, q: &Question) -> AuthResponse {
        let zone = ZoneApex {
            apex: &Name::root(),
            hosts: self.root_hosts.len() as u8,
            host: &|k| self.root_hosts[usize::from(k)].clone(),
            host_parent: None,
            address: &|index| ServerRole::Root { index }.address(),
            ns_ttl: ROOT_NS_TTL,
            soa: ROOT_SOA,
        };
        respond_zone(&zone, q, || {
            let Some(tld) = self.tld_of(&q.name) else {
                return AuthResponse::negative(Rcode::NxDomain, zone.soa());
            };
            let (names, tld_index) = (self.tld_names(tld), tld.index);
            let glue = |server| ServerRole::Tld { tld_index, server }.address();
            referral(&names.apex, &names.hosts, Some(glue))
        })
    }

    fn respond_tld(&self, tld_index: u16, q: &Question) -> AuthResponse {
        let Some(tld) = self.tlds.by_index(tld_index) else {
            return AuthResponse::refused();
        };
        let names = self.tld_names(tld);
        let zone = ZoneApex {
            apex: &names.apex,
            hosts: tld.server_count,
            host: &|k| names.hosts[usize::from(k)].clone(),
            host_parent: Some(&names.nic),
            address: &|server| ServerRole::Tld { tld_index, server }.address(),
            ns_ttl: INFRA_TTL,
            soa: TLD_SOA,
        };
        if tld_index == self.arpa_index {
            // The arpa servers also serve in-addr.arpa, a zone of its own.
            let in_addr = reverse_zone(&[]);
            if q.name.is_subdomain_of(&in_addr) {
                let zone = ZoneApex {
                    apex: &in_addr,
                    host_parent: None,
                    soa: REVERSE_SOA,
                    ..zone
                };
                return respond_zone(&zone, q, || self.reverse_below(&[], &zone, q));
            }
        }
        respond_zone(&zone, q, || {
            // `nic.<tld>` owns nothing but has the host names below it: an
            // empty non-terminal, which exists (RFC 8020); nothing else
            // below it does.
            if q.name == names.nic {
                return AuthResponse::negative(Rcode::NoError, zone.soa());
            }
            let base = q.name.suffix(2);
            let b = self.base(&base);
            if q.name.is_subdomain_of(&names.nic) || !self.exists(&b) {
                return AuthResponse::negative(Rcode::NxDomain, zone.soa());
            }
            let p = self.provider(&b);
            let provider = p.index;
            let glue = |server| ServerRole::ProviderAuth { provider, server }.address();
            let glue = (!self.glueless(&b)).then_some(glue);
            referral(&base, self.provider_hosts(p), glue)
        })
    }

    /// Whether the reverse zone of an address's leading `octets` is a zone
    /// of its own: every /8 and /16 is, a /24 where its /16 delegates deeper.
    fn reverse_delegated(&self, octets: &[u8]) -> bool {
        match *octets {
            [a, b, _] => self.rdns16_delegates_deeper(a, b),
            _ => octets.len() < 3,
        }
    }

    /// What the servers of the /8, /16 or /24 reverse zone of the leading
    /// octets `above` answer.
    fn respond_reverse(&self, above: &[u8], q: &Question) -> AuthResponse {
        if !self.reverse_delegated(above) {
            return AuthResponse::refused();
        }
        let apex = reverse_zone(above);
        let zone = ZoneApex {
            apex: &apex,
            hosts: reverse_servers(above),
            host: &|k| reverse_host(&apex, k),
            host_parent: Some(&apex),
            address: &|server| reverse_role(above, server).address(),
            ns_ttl: INFRA_TTL,
            soa: REVERSE_SOA,
        };
        respond_zone(&zone, q, || self.reverse_below(above, &zone, q))
    }

    /// A name below the apex of the reverse zone of the octets `above` (`[]`
    /// is `in-addr.arpa`): referred at or below a delegated octet node, else
    /// existing if it is an octet node on the way to a PTR name.
    fn reverse_below(&self, above: &[u8], zone: &ZoneApex<'_>, q: &Question) -> AuthResponse {
        let nxdomain = || AuthResponse::negative(Rcode::NxDomain, zone.soa());
        // Walk the octets down from the apex to the question's node.
        let (mut ip, mut len) = ([0; 4], above.len());
        ip[..len].copy_from_slice(above);
        for i in (0..q.name.label_count() - zone.apex.label_count()).rev() {
            let Some(octet) = q.name.label(i).and_then(canonical_u8).filter(|_| len < 4) else {
                return nxdomain();
            };
            ip[len] = octet;
            len += 1;
            if self.reverse_delegated(&ip[..len]) {
                return reverse_referral(&ip[..len]);
            }
        }
        let [a, b, c, _] = ip;
        let exists = match len {
            4 => self.ptr_exists(Ipv4Addr::from(ip)),
            // A /24 node in a /16 zone that holds its PTR names.
            _ => (0..=255).any(|d| self.ptr_exists(Ipv4Addr::new(a, b, c, d))),
        };
        if !exists {
            nxdomain()
        } else if len == 4 && matches!(q.qtype, RecordType::PTR | RecordType::ANY) {
            let ptr = RData::Ptr(self.ptr_name(Ipv4Addr::from(ip)));
            AuthResponse::answer(vec![Record::new(q.name.clone(), LEAF_TTL, ptr)])
        } else {
            AuthResponse::negative(Rcode::NoError, zone.soa())
        }
    }

    fn respond_provider(&self, provider: u16, server: u8, q: &Question) -> AuthResponse {
        let (p, base) = (self.providers.by_index(provider), self.base_of(&q.name));
        let (Some(p), Some(base)) = (p.filter(|p| server < p.ns_count), base) else {
            return AuthResponse::refused();
        };
        let b = self.base(&base);
        // Lame: this server is not authoritative for the name, or is a lame
        // NS, which answers REFUSED even for its own domains (§3.1's lame
        // delegations).
        if !self.exists(&b)
            || self.provider(&b).index != provider
            || self.lame_ns(&b, p) == Some(server)
        {
            return AuthResponse::refused();
        }
        self.leaf_answer(p, server, &b, q)
    }

    fn apex_a_value(&self, b: &Base<'_>, provider: &Provider, server: u8) -> Ipv4Addr {
        if self.inconsistent(b, provider) {
            // §5: the rare inconsistent domains answer differently per NS.
            host_address(h64_joined(
                self.seed(),
                "apex-a-inconsistent",
                b.key(),
                &[server],
            ))
        } else {
            self.apex_a(b)
        }
    }

    fn leaf_answer(&self, p: &Provider, server: u8, b: &Base<'_>, q: &Question) -> AuthResponse {
        let base = b.name;
        let ttl = LEAF_TTL;
        let provider = p.index;
        let zone = ZoneApex {
            apex: base,
            hosts: p.ns_count,
            host: &|k| self.provider_hosts(p)[usize::from(k)].clone(),
            // The provider's own NS-host domain answers its ns<k> A records.
            host_parent: (b.own_provider == Some(provider)).then_some(base),
            address: &|server| ServerRole::ProviderAuth { provider, server }.address(),
            ns_ttl: ttl,
            soa: LEAF_SOA,
        };
        let nodata = || AuthResponse::negative(Rcode::NoError, zone.soa());
        let apex_a = || Record::new(base.clone(), ttl, RData::A(self.apex_a_value(b, p, server)));
        let one = |rdata| AuthResponse::answer(vec![Record::new(q.name.clone(), ttl, rdata)]);
        let wants_a = matches!(q.qtype, RecordType::A | RecordType::ANY);
        // A name that owns nothing of its own: the wildcard's data where
        // the domain has one, NXDOMAIN otherwise.
        let nonexistent = || match (self.has_wildcard(b), wants_a) {
            (false, _) => AuthResponse::negative(Rcode::NxDomain, zone.soa()),
            (true, true) => one(RData::A(self.apex_a_value(b, p, server))),
            (true, false) => nodata(),
        };

        // The apex's own data; its NS set and SOA are the zone rule's.
        if q.name == *base && !matches!(q.qtype, RecordType::NS | RecordType::SOA) {
            return match q.qtype {
                RecordType::A | RecordType::ANY => AuthResponse::answer(vec![apex_a()]),
                RecordType::AAAA if self.has_aaaa(b) => {
                    let h = self.h64("apex-aaaa", b);
                    let segs = [
                        0x2001u16,
                        0x0db8 ^ (h >> 48) as u16,
                        (h >> 32) as u16,
                        (h >> 16) as u16,
                        0,
                        0,
                        0,
                        (h as u16) | 1,
                    ];
                    one(RData::Aaaa(segs.into()))
                }
                RecordType::MX if self.has_mx(b) => one(RData::Mx(Mx {
                    preference: 10,
                    exchange: base.child("mail").expect("valid"),
                })),
                RecordType::TXT if self.has_txt(b) => {
                    let mut records = Vec::new();
                    if self.spf_given_txt(b) {
                        let spf = TxtData::from_text("v=spf1 mx a -all");
                        records.push(Record::new(base.clone(), ttl, RData::Txt(spf)));
                    }
                    let token = format!("site-verification={:016x}", self.h64("txt-token", b));
                    let token = RData::Txt(TxtData::from_text(&token));
                    records.push(Record::new(base.clone(), ttl, token));
                    AuthResponse::answer(records)
                }
                RecordType::CAA => match self.caa(b, p) {
                    (records, _) if records.is_empty() => nodata(),
                    (_, true) => {
                        // §6: ~8000 domains need a CNAME hop for CAA.
                        let target: Name = format!("caa.{}", self.providers.ns_domain(p.index))
                            .parse()
                            .expect("valid");
                        one(RData::Cname(target))
                    }
                    (records, false) => AuthResponse::answer(
                        records
                            .into_iter()
                            .map(|c| Record::new(base.clone(), ttl, RData::Caa(c)))
                            .collect(),
                    ),
                },
                _ => nodata(),
            };
        }

        respond_zone(&zone, q, || {
            let sub_label = q.name.label(0).unwrap_or(b"");
            let depth = q.name.label_count() - base.label_count();
            let sub_a = |label: &[u8]| {
                let h = h64_joined(self.seed(), "sub-a", b.key(), label);
                RData::A(host_address(h))
            };
            if depth == 1 {
                if sub_label.eq_ignore_ascii_case(b"www") {
                    return match self.www(b) {
                        WwwKind::Absent => nonexistent(),
                        WwwKind::CnameToApex => {
                            let mut records =
                                vec![Record::new(q.name.clone(), ttl, RData::Cname(base.clone()))];
                            if wants_a {
                                records.push(apex_a());
                            }
                            AuthResponse::answer(records)
                        }
                        WwwKind::ARecord if wants_a => one(sub_a(b"|www")),
                        WwwKind::ARecord => nodata(),
                    };
                }
                if sub_label.eq_ignore_ascii_case(b"mail") && self.has_mx(b) {
                    return if wants_a {
                        one(sub_a(b"|mail"))
                    } else {
                        nodata()
                    };
                }
                // Target of §6 CNAME-reached CAA (on provider domains).
                if sub_label.eq_ignore_ascii_case(b"caa")
                    && b.own_provider == Some(p.index)
                    && q.qtype == RecordType::CAA
                {
                    return one(RData::Caa(issue_record("issue", "letsencrypt.org")));
                }
            }
            // Generic subdomain: exists by hash, else wildcard, else NXDOMAIN.
            let mut text = [0; MAX_TEXT_LEN];
            let fqdn_key = q.name.lower_text(&mut text).as_bytes();
            if chance(self.seed(), "sub-exists", fqdn_key, SUBDOMAIN_EXISTS) {
                if wants_a {
                    return one(RData::A(host_address(h64(self.seed(), "sub-a", fqdn_key))));
                }
                return nodata();
            }
            nonexistent()
        })
    }
}

/// One zone as its servers answer it: its apex, whose NS set and SOA name
/// `hosts`, and the hosts the zone answers for itself.
struct ZoneApex<'a> {
    apex: &'a Name,
    /// How many hosts the NS set names, and host `k`'s name (0-based); the
    /// first is the SOA's primary server.
    hosts: u8,
    host: &'a dyn Fn(u8) -> Name,
    /// The node right above the hosts, where they are the zone's own names
    /// (the root's and in-addr.arpa's are not).
    host_parent: Option<&'a Name>,
    /// The address of host `k` (0-based).
    address: &'a dyn Fn(u8) -> Ipv4Addr,
    ns_ttl: u32,
    /// The SOA's TTL, serial, refresh, retry and expire.
    soa: [u32; 5],
}

impl ZoneApex<'_> {
    /// The zone's SOA; its mailbox is `hostmaster.<apex>`, the root's
    /// Verisign's.
    fn soa(&self) -> Record {
        let [ttl, serial, refresh, retry, expire] = self.soa;
        let rname = match self.apex.is_root() {
            true => "nstld.verisign-grs.com".parse().expect("static"),
            false => self.apex.child("hostmaster").expect("valid"),
        };
        let soa = Soa {
            mname: (self.host)(0),
            rname,
            serial,
            refresh,
            retry,
            expire,
            minimum: ttl,
        };
        Record::new(self.apex.clone(), ttl, RData::Soa(soa))
    }
}

/// The rule every zone answers `q` by (a zone owns an NS set and an SOA at
/// its apex, RFC 1034 §4.2.1):
/// 1. outside the zone: REFUSED;
/// 2. at the apex: NS gets the NS set (the root's with its servers'
///    addresses, the priming answer), SOA the SOA, ANY both, others NODATA;
/// 3. one of the zone's own `ns<k>` hosts: its address;
/// 4. and 5. anything else: the zone's own rule, `below`, which refers a
///    name at or below a cut and says which other names exist.
fn respond_zone(
    zone: &ZoneApex<'_>,
    q: &Question,
    below: impl FnOnce() -> AuthResponse,
) -> AuthResponse {
    if !q.name.is_subdomain_of(zone.apex) {
        return AuthResponse::refused();
    }
    let nodata = || AuthResponse::negative(Rcode::NoError, zone.soa());
    if q.name == *zone.apex {
        let ns = (0..zone.hosts)
            .map(|k| Record::new(zone.apex.clone(), zone.ns_ttl, RData::Ns((zone.host)(k))));
        let mut apex = match q.qtype {
            RecordType::NS => AuthResponse::answer(ns.collect()),
            RecordType::SOA => AuthResponse::answer(vec![zone.soa()]),
            RecordType::ANY => AuthResponse::answer(ns.chain([zone.soa()]).collect()),
            _ => return nodata(),
        };
        if zone.apex.is_root() && q.qtype != RecordType::SOA {
            let glue = |k| Record::new((zone.host)(k), zone.ns_ttl, RData::A((zone.address)(k)));
            apex.additionals = (0..zone.hosts).map(glue).collect();
        }
        return apex;
    }
    let host = zone.host_parent.and_then(|parent| {
        let right_below = q.name.label_count() == parent.label_count() + 1;
        let label = q.name.label(0).filter(|_| right_below)?;
        ns_host(label, zone.hosts).filter(|_| q.name.is_subdomain_of(parent))
    });
    match host {
        Some(k) if matches!(q.qtype, RecordType::A | RecordType::ANY) => {
            let addr = RData::A((zone.address)(k));
            AuthResponse::answer(vec![Record::new(q.name.clone(), INFRA_TTL, addr)])
        }
        Some(_) => nodata(),
        None => below(),
    }
}

/// A referral to the zone cut `cut`, served by `hosts`; with `glue`, the
/// `j`th host's address is `glue(j)`.
fn referral(cut: &Name, hosts: &[Name], glue: Option<impl Fn(u8) -> Ipv4Addr>) -> AuthResponse {
    let mut ns = Vec::with_capacity(hosts.len());
    let mut additionals = Vec::with_capacity(if glue.is_some() { hosts.len() } else { 0 });
    for (j, host) in (0..).zip(hosts) {
        ns.push(Record::new(cut.clone(), INFRA_TTL, RData::Ns(host.clone())));
        if let Some(glue) = &glue {
            additionals.push(Record::new(host.clone(), INFRA_TTL, RData::A(glue(j))));
        }
    }
    AuthResponse::referral(ns, additionals)
}

/// The reverse zone of an address's leading `octets`: `[]` is
/// `in-addr.arpa`, `[a, b]` is `b.a.in-addr.arpa`.
fn reverse_zone(octets: &[u8]) -> Name {
    let in_addr = "in-addr.arpa".parse().expect("valid");
    let child = |zone: Name, octet: &u8| zone.child(&octet.to_string()).expect("valid");
    octets.iter().fold(in_addr, child)
}

/// How many name-server hosts the reverse zone of `octets` (a /8, /16 or
/// /24) has: `ns1` and, above /24, `ns2`.
fn reverse_servers(octets: &[u8]) -> u8 {
    2 - u8::from(octets.len() == 3)
}

/// Host `k` (0-based) of the reverse zone `zone`.
fn reverse_host(zone: &Name, k: u8) -> Name {
    zone.child(["ns1", "ns2"][usize::from(k)]).expect("valid")
}

/// The referral to the reverse zone of `octets` (a /8, /16 or /24), with
/// its hosts' glue.
fn reverse_referral(octets: &[u8]) -> AuthResponse {
    let cut = reverse_zone(octets);
    let hosts: Vec<Name> = (0..reverse_servers(octets))
        .map(|k| reverse_host(&cut, k))
        .collect();
    let glue = |server| reverse_role(octets, server).address();
    referral(&cut, &hosts, Some(glue))
}

/// The role of the reverse zone of `octets`' server `server`.
fn reverse_role(octets: &[u8], server: u8) -> ServerRole {
    match *octets {
        [octet] => ServerRole::Rdns8 { octet, server },
        [a, b] => ServerRole::Rdns16 { a, b, server },
        [a, b, c] => ServerRole::Rdns24 { a, b, c },
        _ => unreachable!("in-addr.arpa is served by the arpa servers"),
    }
}

/// The value of a label spelled as a canonical decimal number — digits
/// only, no sign, no leading zero — that fits in a `u8`. The universe
/// spells its numbered names (`ns<k>` hosts, reverse-tree octets) only
/// this way, so `01` or `+1` names a different, nonexistent node.
fn canonical_u8(label: &[u8]) -> Option<u8> {
    match label {
        [] | [b'0', _, ..] => None,
        _ if label.len() > 3 || !label.iter().all(u8::is_ascii_digit) => None,
        _ => u8::try_from(
            label
                .iter()
                .fold(0u16, |n, &d| n * 10 + u16::from(d - b'0')),
        )
        .ok(),
    }
}

/// The 0-based server index `k - 1` of a host label `ns<k>` (any letter
/// case) in a zone of `count` servers.
fn ns_host(label: &[u8], count: u8) -> Option<u8> {
    match label {
        [n, s, digits @ ..] if n.eq_ignore_ascii_case(&b'n') && s.eq_ignore_ascii_case(&b's') => {
            canonical_u8(digits)
                .filter(|&k| k >= 1 && k <= count)
                .map(|k| k - 1)
        }
        _ => None,
    }
}

fn issue_record(tag: &str, value: &str) -> Caa {
    Caa {
        flags: 0,
        tag: tag.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
    }
}

impl Universe for SyntheticUniverse {
    fn respond(&self, server: Ipv4Addr, question: &Question) -> Option<AuthResponse> {
        let role = ServerRole::decode(server)?;
        Some(match role {
            ServerRole::Root { .. } => self.respond_root(question),
            ServerRole::Tld { tld_index, .. } => self.respond_tld(tld_index, question),
            ServerRole::ProviderAuth { provider, server } => {
                self.respond_provider(provider, server, question)
            }
            ServerRole::Rdns8 { octet, .. } => self.respond_reverse(&[octet], question),
            ServerRole::Rdns16 { a, b, .. } => self.respond_reverse(&[a, b], question),
            ServerRole::Rdns24 { a, b, c } => self.respond_reverse(&[a, b, c], question),
        })
    }

    fn server_profile(&self, server: Ipv4Addr) -> ServerProfile {
        match ServerRole::decode(server) {
            Some(ServerRole::Root { .. }) => ServerProfile {
                latency: LatencyClass::Fast,
                base_drop: 0.0005,
                processing_us: 50,
            },
            Some(ServerRole::Tld { .. }) => ServerProfile {
                latency: LatencyClass::Fast,
                base_drop: 0.001,
                processing_us: 60,
            },
            Some(ServerRole::ProviderAuth { provider, .. }) => {
                let p = self.providers.by_index(provider);
                match p.map(|p| (p.latency, p.reliability)) {
                    Some((latency, reliability)) => ServerProfile {
                        latency,
                        base_drop: match reliability {
                            ReliabilityClass::Excellent => 0.0005,
                            ReliabilityClass::Good => 0.005,
                            ReliabilityClass::Poor => 0.03,
                            ReliabilityClass::Blocking => 0.01,
                        },
                        processing_us: 120,
                    },
                    None => ServerProfile::default(),
                }
            }
            Some(ServerRole::Rdns8 { .. }) => ServerProfile {
                latency: LatencyClass::Medium,
                base_drop: 0.002,
                processing_us: 100,
            },
            Some(ServerRole::Rdns24 { a, b, .. }) | Some(ServerRole::Rdns16 { a, b, .. }) => {
                // Reverse-zone quality varies by operator; hash the /16.
                let h = h64(self.seed(), "rdns-profile", &[a, b]);
                ServerProfile {
                    latency: match h % 10 {
                        0..=4 => LatencyClass::Medium,
                        5..=7 => LatencyClass::Fast,
                        _ => LatencyClass::Slow,
                    },
                    base_drop: 0.002 + unit(h) * 0.01,
                    processing_us: 100,
                }
            }
            None => ServerProfile::default(),
        }
    }

    fn drop_probability(&self, server: Ipv4Addr, qname: &Name) -> f64 {
        // §5 per-(domain, nameserver) probabilistic blocking.
        let Some(ServerRole::ProviderAuth {
            provider,
            server: k,
        }) = ServerRole::decode(server)
        else {
            return 0.0;
        };
        let Some(base) = self.base_of(qname) else {
            return 0.0;
        };
        let b = self.base(&base);
        if !self.exists(&b) {
            return 0.0;
        }
        let p = self.provider(&b);
        if p.index != provider {
            return 0.0;
        }
        match self.flaky(&b, p) {
            Some(f) if f.ns_index == k => f.drop_prob,
            _ => 0.0,
        }
    }

    fn root_hints(&self) -> Vec<(Name, Ipv4Addr)> {
        (0..)
            .zip(&self.root_hosts)
            .map(|(index, host)| (host.clone(), ServerRole::Root { index }.address()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zdns_wire::Rcode;

    fn universe() -> SyntheticUniverse {
        SyntheticUniverse::new(SynthConfig::default())
    }

    fn existing_domain(u: &SyntheticUniverse, tld: &str) -> Name {
        for i in 0..10_000 {
            let name: Name = format!("domain{i}.{tld}").parse().unwrap();
            if u.domain_exists(&name) {
                return name;
            }
        }
        panic!("no existing domain found in .{tld}");
    }

    #[test]
    fn root_refers_to_tld_with_glue() {
        let u = universe();
        let root = ServerRole::Root { index: 0 }.address();
        let q = Question::new("example.com".parse().unwrap(), RecordType::A);
        let resp = u.respond(root, &q).unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(!resp.authoritative);
        assert!(!resp.authorities.is_empty());
        assert_eq!(resp.authorities.len(), resp.additionals.len());
        // Every NS has matching glue.
        for rec in &resp.authorities {
            assert_eq!(rec.rtype, RecordType::NS);
            assert_eq!(rec.name, "com".parse::<Name>().unwrap());
        }
    }

    #[test]
    fn root_nxdomain_for_unknown_tld() {
        let u = universe();
        let root = ServerRole::Root { index: 3 }.address();
        let q = Question::new("example.nosuchtld0".parse().unwrap(), RecordType::A);
        let resp = u.respond(root, &q).unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities[0].rtype, RecordType::SOA);
    }

    #[test]
    fn full_referral_chain_resolves_a_query() {
        let u = universe();
        let base = existing_domain(&u, "com");
        let q = Question::new(base.clone(), RecordType::A);

        // Hop 1: root.
        let root_resp = u
            .respond(ServerRole::Root { index: 0 }.address(), &q)
            .unwrap();
        let tld_glue = match &root_resp.additionals[0].rdata {
            RData::A(a) => *a,
            other => panic!("{other:?}"),
        };
        // Hop 2: TLD.
        let tld_resp = u.respond(tld_glue, &q).unwrap();
        assert!(!tld_resp.authoritative);
        assert!(!tld_resp.authorities.is_empty(), "TLD must refer");
        let profile = u.domain_profile(&base);
        if profile.glueless {
            assert!(tld_resp.additionals.is_empty());
            return; // glueless path exercised elsewhere
        }
        let auth_glue = match &tld_resp.additionals[0].rdata {
            RData::A(a) => *a,
            other => panic!("{other:?}"),
        };
        // Hop 3: provider authoritative server.
        let auth_resp = u.respond(auth_glue, &q).unwrap();
        if profile.lame_ns == Some(0) {
            assert_eq!(auth_resp.rcode, Rcode::Refused);
        } else {
            assert_eq!(auth_resp.rcode, Rcode::NoError);
            assert!(auth_resp.authoritative);
            assert_eq!(auth_resp.answers[0].rdata, RData::A(profile.apex_a));
        }
    }

    #[test]
    fn ptr_chain_resolves() {
        let u = universe();
        // Find an IP with a PTR record.
        let ip = (0..u32::MAX)
            .map(|i| Ipv4Addr::from(0x0800_0000u32.wrapping_add(i * 7919)))
            .find(|&ip| u.ptr_exists(ip))
            .unwrap();
        let qname = Name::reverse_ipv4(ip);
        let q = Question::new(qname.clone(), RecordType::PTR);

        let root_resp = u
            .respond(ServerRole::Root { index: 0 }.address(), &q)
            .unwrap();
        // root refers to arpa TLD servers.
        let arpa_ip = match &root_resp.additionals[0].rdata {
            RData::A(a) => *a,
            other => panic!("{other:?}"),
        };
        let arpa_resp = u.respond(arpa_ip, &q).unwrap();
        let rdns8_ip = match &arpa_resp.additionals[0].rdata {
            RData::A(a) => *a,
            other => panic!("{other:?}"),
        };
        let rdns8_resp = u.respond(rdns8_ip, &q).unwrap();
        let rdns16_ip = match &rdns8_resp.additionals[0].rdata {
            RData::A(a) => *a,
            other => panic!("{other:?}"),
        };
        let mut final_resp = u.respond(rdns16_ip, &q).unwrap();
        if !final_resp.authoritative {
            // Most /16 operators delegate at /24: one more hop.
            let rdns24_ip = match &final_resp.additionals[0].rdata {
                RData::A(a) => *a,
                other => panic!("{other:?}"),
            };
            final_resp = u.respond(rdns24_ip, &q).unwrap();
        }
        assert_eq!(final_resp.rcode, Rcode::NoError);
        assert_eq!(final_resp.answers[0].rtype, RecordType::PTR);
        assert_eq!(final_resp.answers[0].rdata, RData::Ptr(u.ptr_name(ip)));
    }

    #[test]
    fn ptr_absent_is_nxdomain() {
        let u = universe();
        let ip = (0..u32::MAX)
            .map(|i| Ipv4Addr::from(0x0900_0000u32.wrapping_add(i * 104729)))
            .find(|&ip| !is_reserved(ip) && !u.ptr_exists(ip))
            .unwrap();
        let q = Question::new(Name::reverse_ipv4(ip), RecordType::PTR);
        let o = ip.octets();
        let server = if u.rdns16_delegates_deeper(o[0], o[1]) {
            ServerRole::Rdns24 {
                a: o[0],
                b: o[1],
                c: o[2],
            }
            .address()
        } else {
            ServerRole::Rdns16 {
                a: o[0],
                b: o[1],
                server: 0,
            }
            .address()
        };
        let resp = u.respond(server, &q).unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn nonexistent_domain_is_tld_nxdomain() {
        let u = universe();
        let name: Name = (0..10_000)
            .map(|i| format!("missing{i}.com").parse::<Name>().unwrap())
            .find(|n| !u.domain_exists(n))
            .unwrap_or_else(|| "definitely-missing-xyzzy.com".parse().unwrap());
        if u.domain_exists(&name) {
            return; // astronomically unlikely; fine
        }
        let tld = u.tlds().by_label("com").unwrap();
        let server = ServerRole::Tld {
            tld_index: tld.index,
            server: 0,
        }
        .address();
        let q = Question::new(name, RecordType::A);
        let resp = u.respond(server, &q).unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn provider_ns_hostnames_resolve_coherently() {
        let u = universe();
        // Glue addresses from a TLD referral must match what the provider's
        // own authoritative servers answer for the same hostname.
        let base = existing_domain(&u, "net");
        let profile = u.domain_profile(&base);
        let provider = u.providers().by_index(profile.provider).unwrap();
        let ns_host: Name = u
            .providers()
            .ns_hostname(provider.index, 0)
            .parse()
            .unwrap();
        // Ask a (non-lame) server of the provider hosting its own domain.
        let ns_domain: Name = u.providers().ns_domain(provider.index).parse().unwrap();
        let own_profile = u.domain_profile(&ns_domain);
        let k = (0..provider.ns_count)
            .find(|&k| own_profile.lame_ns != Some(k))
            .unwrap();
        let server = ServerRole::ProviderAuth {
            provider: provider.index,
            server: k,
        }
        .address();
        let q = Question::new(ns_host, RecordType::A);
        let resp = u.respond(server, &q).unwrap();
        assert_eq!(resp.rcode, Rcode::NoError, "{resp:?}");
        assert_eq!(
            resp.answers[0].rdata,
            RData::A(
                ServerRole::ProviderAuth {
                    provider: provider.index,
                    server: 0
                }
                .address()
            )
        );
    }

    #[test]
    fn domain_existence_rate_near_config() {
        let u = universe();
        let n = 20_000;
        let hits = (0..n)
            .filter(|i| u.domain_exists(&format!("d{i}.com").parse().unwrap()))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.70).abs() < 0.02, "{rate}");
    }

    #[test]
    fn caa_rates_match_section6() {
        let u = universe();
        let n = 60_000;
        // Existing .com domains.
        let mut caa_com = 0;
        let mut total_com = 0;
        for i in 0..n {
            let base: Name = format!("c{i}.com").parse().unwrap();
            if u.domain_exists(&base) {
                total_com += 1;
                if !u.domain_profile(&base).caa_records.is_empty() {
                    caa_com += 1;
                }
            }
        }
        let rate_com = caa_com as f64 / total_com as f64;
        assert!((rate_com - 0.0158).abs() < 0.004, "com CAA rate {rate_com}");
        // .pl domains are far more likely to hold CAA.
        let mut caa_pl = 0;
        let mut total_pl = 0;
        for i in 0..n {
            let base: Name = format!("c{i}.pl").parse().unwrap();
            if u.domain_exists(&base) {
                total_pl += 1;
                if !u.domain_profile(&base).caa_records.is_empty() {
                    caa_pl += 1;
                }
            }
        }
        let rate_pl = caa_pl as f64 / total_pl as f64;
        assert!(rate_pl > 0.06, "pl CAA rate {rate_pl}");
    }

    #[test]
    fn flaky_rates_match_section5() {
        let u = universe();
        let n = 200_000;
        let mut flaky = 0;
        let mut deep = 0;
        let mut existing = 0;
        for i in 0..n {
            let base: Name = format!("f{i}.com").parse().unwrap();
            if !u.domain_exists(&base) {
                continue;
            }
            existing += 1;
            match u.domain_profile(&base).flaky {
                Some(f) if f.deep => {
                    deep += 1;
                    flaky += 1;
                }
                Some(_) => flaky += 1,
                None => {}
            }
        }
        let flaky_rate = flaky as f64 / existing as f64;
        let deep_rate = deep as f64 / existing as f64;
        // §5: 0.55% of domains need ≥2 retries on some NS; 0.01% need 10.
        assert!((flaky_rate - 0.0055).abs() < 0.002, "flaky {flaky_rate}");
        assert!(deep_rate < 0.001, "deep {deep_rate}");
    }

    #[test]
    fn namebright_domains_concentrate_deep_flakiness() {
        let u = universe();
        // All namebright-hosted domains come from its own weight; sample
        // domains and check relative deep-flaky rates.
        let mut nb_deep = 0;
        let mut nb_total = 0;
        for i in 0..400_000 {
            let base: Name = format!("nb{i}.com").parse().unwrap();
            if !u.domain_exists(&base) {
                continue;
            }
            let p = u.domain_profile(&base);
            if p.provider == PROVIDER_NAMEBRIGHT {
                nb_total += 1;
                if matches!(p.flaky, Some(f) if f.deep) {
                    nb_deep += 1;
                }
            }
        }
        assert!(nb_total > 100, "sample too small: {nb_total}");
        let rate = nb_deep as f64 / nb_total as f64;
        assert!(rate > 0.005, "namebright deep rate {rate}");
    }

    #[test]
    fn drop_probability_only_for_flaky_ns() {
        let u = universe();
        // Find a flaky domain.
        for i in 0..400_000 {
            let base: Name = format!("f{i}.com").parse().unwrap();
            if !u.domain_exists(&base) {
                continue;
            }
            let p = u.domain_profile(&base);
            if let Some(f) = p.flaky {
                let flaky_server = ServerRole::ProviderAuth {
                    provider: p.provider,
                    server: f.ns_index,
                }
                .address();
                let other_server = ServerRole::ProviderAuth {
                    provider: p.provider,
                    server: (f.ns_index + 1) % p.ns_count,
                }
                .address();
                assert!(u.drop_probability(flaky_server, &base) > 0.0);
                assert_eq!(u.drop_probability(other_server, &base), 0.0);
                return;
            }
        }
        panic!("no flaky domain found");
    }

    #[test]
    fn thirteen_root_hints() {
        let u = universe();
        let hints = u.root_hints();
        assert_eq!(hints.len(), 13);
        assert_eq!(hints[0].0.to_string(), "a.root-servers.net");
        assert_eq!(hints[12].0.to_string(), "m.root-servers.net");
    }

    #[test]
    fn responses_are_deterministic() {
        let u1 = universe();
        let u2 = universe();
        let q = Question::new("determinism.org".parse().unwrap(), RecordType::A);
        for server in [
            ServerRole::Root { index: 0 }.address(),
            ServerRole::Tld {
                tld_index: 2,
                server: 0,
            }
            .address(),
        ] {
            assert_eq!(u1.respond(server, &q), u2.respond(server, &q));
        }
    }

    #[test]
    fn the_nic_node_of_a_tld_exists_without_records() {
        let u = universe();
        let tld = u.tlds().by_label("com").unwrap();
        let server = ServerRole::Tld {
            tld_index: tld.index,
            server: 0,
        }
        .address();
        let ask = |name: &str, qtype| {
            u.respond(server, &Question::new(name.parse().unwrap(), qtype))
                .unwrap()
        };
        // `ns1.nic.com` exists, so `nic.com` is an empty non-terminal:
        // NXDOMAIN there would deny the hosts below it (RFC 8020).
        for qtype in [
            RecordType::A,
            RecordType::NS,
            RecordType::SOA,
            RecordType::ANY,
        ] {
            let resp = ask("NIC.com", qtype);
            assert_eq!(resp.rcode, Rcode::NoError, "{qtype:?}");
            assert!(resp.authoritative && resp.answers.is_empty());
            assert_eq!(resp.authorities.len(), 1);
            assert_eq!(resp.authorities[0].rtype, RecordType::SOA);
            assert_eq!(resp.authorities[0].name, "com".parse::<Name>().unwrap());
        }
        assert_eq!(ask("ns1.nic.com", RecordType::A).answers.len(), 1);
        assert_eq!(ask("www.nic.com", RecordType::A).rcode, Rcode::NxDomain);
        assert_eq!(ask("a.ns1.nic.com", RecordType::A).rcode, Rcode::NxDomain);
    }

    #[test]
    fn every_zone_apex_answers_its_ns_and_soa() {
        let u = universe();
        let tld = |label: &str| ServerRole::Tld {
            tld_index: u.tlds().by_label(label).unwrap().index,
            server: 0,
        };
        let cc = u
            .tlds()
            .all()
            .iter()
            .find(|t| t.category == TldCategory::CcTld);
        let cc = cc.unwrap().label.as_str();
        let (a, c) = (20, 7);
        let deep = (0..=255)
            .find(|&b| u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let flat = (0..=255)
            .find(|&b| !u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let leaf = existing_domain(&u, "com");
        let own = u.domain_profile(&leaf);
        let server = (0..own.ns_count).find(|&k| own.lame_ns != Some(k)).unwrap();
        let zones = [
            (".".to_string(), ServerRole::Root { index: 0 }),
            ("com".to_string(), tld("com")),
            (cc.to_string(), tld(cc)),
            ("arpa".to_string(), tld("arpa")),
            ("in-addr.arpa".to_string(), tld("arpa")),
            (
                format!("{a}.in-addr.arpa"),
                ServerRole::Rdns8 {
                    octet: a,
                    server: 1,
                },
            ),
            (
                format!("{deep}.{a}.in-addr.arpa"),
                ServerRole::Rdns16 {
                    a,
                    b: deep,
                    server: 0,
                },
            ),
            (
                format!("{flat}.{a}.in-addr.arpa"),
                ServerRole::Rdns16 {
                    a,
                    b: flat,
                    server: 1,
                },
            ),
            (
                format!("{c}.{deep}.{a}.in-addr.arpa"),
                ServerRole::Rdns24 { a, b: deep, c },
            ),
            (
                leaf.to_string(),
                ServerRole::ProviderAuth {
                    provider: own.provider,
                    server,
                },
            ),
        ];
        for (apex, role) in zones {
            let apex: Name = apex.parse().unwrap();
            let ask = |qtype| {
                u.respond(role.address(), &Question::new(apex.clone(), qtype))
                    .unwrap()
            };
            let ns = ask(RecordType::NS);
            assert_eq!(
                (ns.rcode, ns.authoritative),
                (Rcode::NoError, true),
                "{apex}"
            );
            assert!(!ns.answers.is_empty(), "{apex}");
            assert!(ns
                .answers
                .iter()
                .all(|r| r.name == apex && r.rtype == RecordType::NS));
            let soa = ask(RecordType::SOA);
            assert_eq!(
                (soa.rcode, soa.answers.len()),
                (Rcode::NoError, 1),
                "{apex}"
            );
            assert_eq!(soa.answers[0].name, apex);
            let RData::Soa(record) = &soa.answers[0].rdata else {
                panic!("{apex}: {soa:?}");
            };
            // The primary server is the zone's first host.
            assert_eq!(
                RData::Ns(record.mname.clone()),
                ns.answers[0].rdata,
                "{apex}"
            );
            let (any, a_query) = (ask(RecordType::ANY), ask(RecordType::A));
            if apex == leaf {
                // A leaf keeps its own apex data: ANY and A answer its address.
                for answer in [any, a_query] {
                    assert_eq!(answer.answers.len(), 1, "{apex}");
                    assert_eq!(answer.answers[0].rtype, RecordType::A);
                }
                continue;
            }
            assert_eq!(
                any.answers,
                [&ns.answers[..], &soa.answers].concat(),
                "{apex}"
            );
            assert_eq!(any.additionals, ns.additionals, "{apex}");
            assert_eq!((a_query.rcode, a_query.answers.len()), (Rcode::NoError, 0));
            assert_eq!(
                a_query.authorities, soa.answers,
                "{apex}: NODATA under its SOA"
            );
            // Only the root's NS set carries its hosts' addresses (priming).
            let glue = u
                .root_hints()
                .into_iter()
                .map(|(host, addr)| (host, RData::A(addr)));
            let glue: Vec<_> = glue.filter(|_| apex.is_root()).collect();
            let got = ns.additionals.into_iter().map(|r| (r.name, r.rdata));
            assert_eq!(got.collect::<Vec<_>>(), glue, "{apex}");
        }
        // arpa is an ordinary TLD: its own hosts have the addresses the
        // root's referral glues to them, `nic.arpa` exists, `ip6.arpa`
        // does not, and both negatives carry arpa's own SOA.
        let root = ServerRole::Root { index: 0 }.address();
        let ask = |server, name: &str, qtype| {
            u.respond(server, &Question::new(name.parse().unwrap(), qtype))
                .unwrap()
        };
        let referral = ask(root, "ns1.nic.arpa", RecordType::A);
        let host: Name = "ns1.nic.arpa".parse().unwrap();
        let glue = referral
            .additionals
            .iter()
            .find(|r| r.name == host)
            .unwrap();
        let arpa = tld("arpa").address();
        let host = ask(arpa, "ns1.nic.arpa", RecordType::A);
        assert_eq!(host.answers, std::slice::from_ref(glue));
        let arpa_soa = ask(arpa, "arpa", RecordType::SOA).answers;
        let nic = ask(arpa, "nic.arpa", RecordType::A);
        assert_eq!((nic.rcode, nic.answers.len()), (Rcode::NoError, 0));
        assert_eq!(nic.authorities, arpa_soa);
        let ip6 = ask(arpa, "ip6.arpa", RecordType::PTR);
        assert_eq!((ip6.rcode, ip6.authorities), (Rcode::NxDomain, arpa_soa));
    }

    #[test]
    fn provider_ns_host_aliases_are_ordinary_names() {
        let u = universe();
        let p = u
            .providers()
            .by_index(crate::providers::PROVIDER_CLOUDFLARE)
            .unwrap();
        let domain: Name = u.providers().ns_domain(p.index).parse().unwrap();
        let own = u.domain_profile(&domain);
        let server = (0..p.ns_count).find(|&k| own.lame_ns != Some(k)).unwrap();
        let addr = ServerRole::ProviderAuth {
            provider: p.index,
            server,
        }
        .address();
        let question = |label: &str| Question::new(domain.child(label).unwrap(), RecordType::A);
        let ns1 = RData::A(
            ServerRole::ProviderAuth {
                provider: p.index,
                server: 0,
            }
            .address(),
        );
        let resp = u.respond(addr, &question("ns1")).unwrap();
        assert_eq!(resp.answers[0].rdata, ns1);
        for alias in ["ns+1", "ns01", "NS001"] {
            // Not a host name: the rule every other label under the domain
            // answers by.
            let q = question(alias);
            let resp = u.respond(addr, &q).unwrap();
            assert_eq!(
                resp,
                u.leaf_answer(p, server, &u.base(&domain), &q),
                "{alias}"
            );
            assert!(resp.answers.iter().all(|r| r.rdata != ns1), "{alias}");
        }
    }

    #[test]
    fn tld_nic_host_aliases_are_nxdomain() {
        let u = universe();
        let tld = u.tlds().by_label("net").unwrap();
        let server = ServerRole::Tld {
            tld_index: tld.index,
            server: 0,
        }
        .address();
        let ask = |host: &str| {
            u.respond(
                server,
                &Question::new(format!("{host}.nic.net").parse().unwrap(), RecordType::A),
            )
            .unwrap()
        };
        let answer = ask("ns1");
        assert_eq!(answer.answers[0].rdata, RData::A(server));
        let missing = ask("no-such-host");
        assert_eq!(missing.rcode, Rcode::NxDomain);
        for alias in ["ns+1", "ns01"] {
            assert_eq!(ask(alias), missing, "{alias}");
        }
    }

    #[test]
    fn reverse_octet_aliases_are_nxdomain() {
        let u = universe();
        let ask = |server: ServerRole, name: &str, qtype| {
            u.respond(
                server.address(),
                &Question::new(name.parse().unwrap(), qtype),
            )
            .unwrap()
        };
        // The arpa servers refer `a` = 1, and nothing for `+1`.
        let arpa = ServerRole::Tld {
            tld_index: u.arpa_index,
            server: 0,
        };
        assert!(!ask(arpa, "4.3.2.1.in-addr.arpa", RecordType::PTR)
            .authorities
            .is_empty());
        let missing = ask(arpa, "4.3.2.x.in-addr.arpa", RecordType::PTR);
        assert_eq!(missing.rcode, Rcode::NxDomain);
        assert_eq!(ask(arpa, "4.3.2.+1.in-addr.arpa", RecordType::PTR), missing);
        // The /8 zone's hosts are ns1 and ns2, not ns01 or ns+1.
        let rdns8 = ServerRole::Rdns8 {
            octet: 5,
            server: 0,
        };
        assert_eq!(
            ask(rdns8, "ns1.5.in-addr.arpa", RecordType::A)
                .answers
                .len(),
            1
        );
        let missing = ask(rdns8, "x.5.in-addr.arpa", RecordType::A);
        for alias in ["ns+1", "ns01"] {
            let name = format!("{alias}.5.in-addr.arpa");
            assert_eq!(ask(rdns8, &name, RecordType::A), missing, "{alias}");
        }
        // A leaf octet: `1` is the address's PTR name, `+1` no name at all.
        let (a, b, c) = (9, 9, 9);
        let rdns16 = ServerRole::Rdns16 { a, b, server: 0 };
        let leaf = if u.rdns16_delegates_deeper(a, b) {
            ServerRole::Rdns24 { a, b, c }
        } else {
            rdns16
        };
        let one = ask(leaf, "1.9.9.9.in-addr.arpa", RecordType::PTR);
        let ip = Ipv4Addr::new(a, b, c, 1);
        assert_eq!(one.rcode == Rcode::NoError, u.ptr_exists(ip));
        let missing = ask(leaf, "x.9.9.9.in-addr.arpa", RecordType::PTR);
        assert_eq!(missing.rcode, Rcode::NxDomain);
        assert_eq!(ask(leaf, "+1.9.9.9.in-addr.arpa", RecordType::PTR), missing);
    }

    #[test]
    fn reverse_names_exist_by_one_rule() {
        let u = universe();
        let ask = |server: ServerRole, name: &str, qtype| {
            u.respond(
                server.address(),
                &Question::new(name.parse().unwrap(), qtype),
            )
            .unwrap()
        };
        let nodata =
            |r: &AuthResponse| r.rcode == Rcode::NoError && r.authoritative && r.answers.is_empty();
        // A zone's name-server host exists: NODATA for the types it lacks.
        let rdns8 = ServerRole::Rdns8 {
            octet: 10,
            server: 0,
        };
        let host8 = "ns1.10.in-addr.arpa";
        assert_eq!(ask(rdns8, host8, RecordType::A).answers.len(), 1);
        for qtype in [RecordType::AAAA, RecordType::TXT] {
            assert!(nodata(&ask(rdns8, host8, qtype)), "{qtype:?}");
        }
        let (a, c) = (20, 7);
        let deep = (0..=255)
            .find(|&b| u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let flat = (0..=255)
            .find(|&b| !u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let host24 = format!("ns1.{c}.{deep}.{a}.in-addr.arpa");
        let rdns24 = ServerRole::Rdns24 { a, b: deep, c };
        assert_eq!(ask(rdns24, &host24, RecordType::A).answers.len(), 1);
        assert!(nodata(&ask(rdns24, &host24, RecordType::AAAA)));
        // At or below a cut: the /16 refers, whatever the name below it.
        let rdns16 = |b| ServerRole::Rdns16 { a, b, server: 0 };
        let cut: Name = format!("{c}.{deep}.{a}.in-addr.arpa").parse().unwrap();
        for name in [cut.to_string(), host24, format!("x.1.{cut}")] {
            let referral = ask(rdns16(deep), &name, RecordType::A);
            assert!(!referral.authoritative, "{name}");
            assert_eq!(referral.authorities[0].name, cut, "{name}");
        }
        // A /16 that holds its PTR names: the /24 node above them exists,
        // a name that is neither an octet nor a host does not, and nothing
        // exists below a PTR name.
        let node = format!("{c}.{flat}.{a}.in-addr.arpa");
        assert!(nodata(&ask(rdns16(flat), &node, RecordType::A)));
        for (server, name) in [
            (rdns16(flat), format!("x.{flat}.{a}.in-addr.arpa")),
            (rdns16(flat), format!("ns3.{flat}.{a}.in-addr.arpa")),
            (rdns16(flat), format!("x.1.{node}")),
            (rdns24, format!("x.1.{cut}")),
            (
                ServerRole::Rdns16 {
                    a: 10,
                    b: 20,
                    server: 0,
                },
                "x.20.10.in-addr.arpa".to_string(),
            ),
        ] {
            let answer = ask(server, &name, RecordType::A);
            assert_eq!(answer.rcode, Rcode::NxDomain, "{name}");
        }
        // An address's name exists exactly when it has a PTR record, for
        // every type asked.
        let mut seen = [false; 2];
        for d in 0..40 {
            let ip = Ipv4Addr::new(a, flat, c, d);
            let name = Name::reverse_ipv4(ip).to_string();
            let answer = ask(rdns16(flat), &name, RecordType::A);
            assert_eq!(answer.rcode == Rcode::NoError, u.ptr_exists(ip), "{name}");
            seen[usize::from(u.ptr_exists(ip))] = true;
        }
        assert_eq!(seen, [true; 2]);
        // Reserved space holds no PTR names, so no /24 node above them.
        let b = (0..=255)
            .find(|&b| !u.rdns16_delegates_deeper(10, b))
            .unwrap();
        let reserved = ServerRole::Rdns16 {
            a: 10,
            b,
            server: 0,
        };
        let node = format!("{c}.{b}.10.in-addr.arpa");
        assert_eq!(ask(reserved, &node, RecordType::A).rcode, Rcode::NxDomain);
    }

    #[test]
    fn a_mixed_case_spelling_has_the_lower_case_profile() {
        let u = universe();
        let mut rng = crate::hashing::splitmix64(0xBA5E);
        // A 0x20 spelling of `text`: every fact must hash the folded key.
        let mut spelled = |text: &str| -> Name {
            rng = crate::hashing::splitmix64(rng);
            let mask = rng;
            text.char_indices()
                .map(|(i, c)| match mask >> (i % 64) & 1 {
                    1 => c.to_ascii_uppercase(),
                    _ => c,
                })
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let tlds = u.tlds().all();
        let mut bases: Vec<Name> = (0..2_000)
            .map(|i| spelled(&format!("r{i}.{}", tlds[i * 7919 % tlds.len()].label)))
            .collect();
        bases.extend((0..400).map(|i| spelled(&format!("c{i}.pl"))));
        bases.extend(
            (u.providers().all().iter()).map(|p| spelled(&u.providers().ns_domain(p.index))),
        );
        // A label whose text form escapes: the key is the escaped text.
        bases.push(Name::from_labels([&b"we.i\\rd\xff"[..], b"COM"]).unwrap());
        let mut caa = 0;
        for base in &bases {
            let lower = Name::from_labels(base.labels().map(|l| l.to_ascii_lowercase())).unwrap();
            let want = u.domain_profile(&lower);
            let mut got = u.domain_profile(base);
            got.base = lower;
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{base}");
            caa += usize::from(!want.caa_records.is_empty());
        }
        assert!(caa > 10, "only {caa} with CAA");
    }
}
