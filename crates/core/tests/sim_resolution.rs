//! End-to-end resolution through the discrete-event simulator: the
//! iterative machine walking the synthetic Internet, external mode against
//! resolver models, caching behaviour, failure handling, and the
//! resolution limits the machine shares with the oracle.

use std::sync::Arc;

use zdns_core::{collecting_sink, Resolver, ResolverConfig, Status};
use zdns_netsim::{Engine, EngineConfig, PublicResolverConfig, PublicResolverSim};
use zdns_wire::rdata::TxtData;
use zdns_wire::{Name, Question, RData, Record, RecordType};
use zdns_zones::tlds::TldCategory;
use zdns_zones::{ExplicitUniverse, SynthConfig, SyntheticUniverse, Universe, Zone};

fn universe() -> Arc<SyntheticUniverse> {
    Arc::new(SyntheticUniverse::new(SynthConfig::default()))
}

fn iterative_resolver(u: &SyntheticUniverse) -> Resolver {
    Resolver::new(ResolverConfig::iterative(u.root_hints()))
}

fn existing_domains(u: &SyntheticUniverse, tld: &str, n: usize) -> Vec<Name> {
    (0..200_000)
        .map(|i| format!("sim{i}.{tld}").parse::<Name>().unwrap())
        .filter(|name| u.domain_exists(name))
        .take(n)
        .collect()
}

fn run_lookups(
    u: Arc<SyntheticUniverse>,
    resolver: &Resolver,
    names: Vec<Name>,
    qtype: RecordType,
    threads: usize,
) -> (zdns_netsim::RunReport, Vec<zdns_core::LookupResult>) {
    let mut engine = Engine::new(
        EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        u,
    );
    let (sink, collected) = collecting_sink();
    let resolver = resolver.clone();
    let mut iter = names.into_iter();
    let report = engine.run(move || {
        let name = iter.next()?;
        Some(resolver.machine(Question::new(name, qtype), Some(sink.clone())))
    });
    let results = std::mem::take(&mut *collected.lock());
    (report, results)
}

#[test]
fn iterative_resolves_existing_domains() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let names = existing_domains(&u, "com", 40);
    let expected: Vec<_> = names.iter().map(|n| u.domain_profile(n).apex_a).collect();
    let (report, results) = run_lookups(Arc::clone(&u), &resolver, names.clone(), RecordType::A, 8);
    assert_eq!(report.jobs, 40);
    assert!(report.success_rate() > 0.85, "{:?}", report.status_counts);
    // Verify answers against ground truth (skipping failed lookups).
    let mut verified = 0;
    for result in &results {
        if result.status != Status::NoError {
            continue;
        }
        let idx = names.iter().position(|n| *n == result.name).unwrap();
        let profile = u.domain_profile(&names[idx]);
        if profile.inconsistent {
            continue; // any of several answers is legitimate
        }
        assert!(
            result
                .answers
                .iter()
                .any(|r| r.rdata == RData::A(expected[idx])),
            "wrong answer for {}",
            result.name
        );
        verified += 1;
    }
    assert!(verified >= 30, "only verified {verified}");
}

#[test]
fn iterative_traces_expose_lookup_chain() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let names = existing_domains(&u, "com", 3);
    let (_, results) = run_lookups(Arc::clone(&u), &resolver, names, RecordType::A, 1);
    let ok = results
        .iter()
        .find(|r| r.status == Status::NoError)
        .expect("at least one success");
    // Appendix C: the trace has one step per layer: root, com, leaf.
    assert!(ok.trace.len() >= 3, "trace too short: {}", ok.trace.len());
    assert_eq!(ok.trace[0].layer, ".");
    assert_eq!(ok.trace[0].depth, 1);
    let json = ok.to_json();
    assert!(json["trace"].as_array().unwrap().len() >= 3);
    assert!(json["trace"][0]["results"]["authorities"].is_array());
}

#[test]
fn selective_cache_only_holds_infrastructure() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let names = existing_domains(&u, "com", 30);
    let (_, _) = run_lookups(Arc::clone(&u), &resolver, names, RecordType::A, 4);
    let cache = &resolver.core().cache;
    assert!(!cache.is_empty(), "referrals should have been cached");
    // com NS must be cached after resolving .com names.
    assert!(
        cache
            .get(&"com".parse().unwrap(), RecordType::NS, 1)
            .is_some(),
        "com NS missing from cache"
    );
}

#[test]
fn cache_cuts_queries_on_subsequent_lookups() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let first = existing_domains(&u, "com", 60);
    let (report1, _) = run_lookups(Arc::clone(&u), &resolver, first, RecordType::A, 4);
    let qpl1 = report1.queries_sent as f64 / report1.jobs as f64;
    // Second batch reuses the warmed TLD/provider cache.
    let second: Vec<Name> = (200_000..400_000)
        .map(|i| format!("sim{i}.com").parse::<Name>().unwrap())
        .filter(|n| u.domain_exists(n))
        .take(60)
        .collect();
    let (report2, _) = run_lookups(Arc::clone(&u), &resolver, second, RecordType::A, 4);
    let qpl2 = report2.queries_sent as f64 / report2.jobs as f64;
    assert!(
        qpl2 < qpl1,
        "warm cache should cut queries/lookup: cold {qpl1:.2} warm {qpl2:.2}"
    );
    // Warm lookups skip the root entirely: ≤ ~2.5 queries per lookup.
    assert!(qpl2 < 3.0, "warm qpl {qpl2:.2}");
}

#[test]
fn nxdomain_counts_as_success() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let missing: Vec<Name> = (0..200_000)
        .map(|i| format!("gone{i}.com").parse::<Name>().unwrap())
        .filter(|n| !u.domain_exists(n))
        .take(20)
        .collect();
    let (report, results) = run_lookups(Arc::clone(&u), &resolver, missing, RecordType::A, 4);
    assert!(report.success_rate() > 0.9, "{:?}", report.status_counts);
    assert!(results.iter().any(|r| r.status == Status::NxDomain));
}

#[test]
fn external_mode_resolves_via_public_resolver() {
    let u = universe();
    let google: std::net::Ipv4Addr = "8.8.8.8".parse().unwrap();
    let resolver = Resolver::new(ResolverConfig::external(vec![google]));
    let names = existing_domains(&u, "net", 30);
    let mut engine = Engine::new(
        EngineConfig {
            threads: 8,
            ..EngineConfig::default()
        },
        Arc::clone(&u) as Arc<dyn Universe>,
    );
    engine.add_resolver(PublicResolverSim::new(PublicResolverConfig::google(google)));
    let (sink, collected) = collecting_sink();
    let r2 = resolver.clone();
    let mut iter = names.into_iter();
    let report = engine.run(move || {
        let name = iter.next()?;
        Some(r2.machine(Question::new(name, RecordType::A), Some(sink.clone())))
    });
    assert_eq!(report.jobs, 30);
    assert!(report.success_rate() > 0.85, "{:?}", report.status_counts);
    let results = collected.lock();
    let ok = results
        .iter()
        .filter(|r| r.status == Status::NoError)
        .count();
    assert!(ok > 20);
    // External lookups send exactly one query when nothing fails, and the
    // resolver's RA bit is set.
    let clean = results
        .iter()
        .find(|r| r.status == Status::NoError && r.retries_used == 0)
        .unwrap();
    assert_eq!(clean.queries_sent, 1);
    assert!(clean.flags.unwrap().recursion_available);
}

#[test]
fn public_resolver_truncates_a_fat_answer_and_tcp_carries_it_whole() {
    // 24 TXT strings of ~62 octets: an RRset past the 1 232-octet EDNS
    // payload a query advertises. The simulated resolver's UDP answer must
    // come back truncated, as a real one's does, and the TCP retry whole.
    let (server, google): (std::net::Ipv4Addr, std::net::Ipv4Addr) =
        ("192.0.2.53".parse().unwrap(), "8.8.8.8".parse().unwrap());
    let mut zone = Zone::new(
        "fat.test".parse().unwrap(),
        "ns1.fat.test".parse().unwrap(),
        300,
    );
    for i in 0..24 {
        zone.add(Record::new(
            "big.fat.test".parse().unwrap(),
            300,
            RData::Txt(TxtData::from_text(&format!("{}{i}", "x".repeat(60)))),
        ));
    }
    let mut u = ExplicitUniverse::new();
    u.hint("ns1.fat.test".parse().unwrap(), server);
    u.host(server, zone);
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Arc::new(u) as Arc<dyn Universe>,
    );
    engine.add_resolver(PublicResolverSim::new(PublicResolverConfig::google(google)));
    let resolver = Resolver::new(ResolverConfig::external(vec![google]));
    let (sink, collected) = collecting_sink();
    let mut once = Some(());
    let report = engine.run(move || {
        once.take()?;
        let question = Question::new("big.fat.test".parse().unwrap(), RecordType::TXT);
        Some(resolver.machine(question, Some(sink.clone())))
    });
    assert_eq!((report.jobs, report.net_drops), (1, 0));
    let result = collected.lock().pop().unwrap();
    assert_eq!(result.status, Status::NoError, "{result:?}");
    // UDP, truncated; then TCP, carrying the whole RRset.
    let shape = (result.protocol, result.queries_sent, result.answers.len());
    assert_eq!(shape, ("tcp", 2, 24));
}

#[test]
fn ptr_lookups_resolve_through_reverse_tree() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let ips: Vec<std::net::Ipv4Addr> = (0..u32::MAX)
        .map(|i| std::net::Ipv4Addr::from(0x0800_0000u32.wrapping_add(i * 999_983)))
        .filter(|ip| u.ptr_exists(*ip))
        .take(15)
        .collect();
    let names: Vec<Name> = ips.iter().map(|ip| Name::reverse_ipv4(*ip)).collect();
    let (report, results) = run_lookups(Arc::clone(&u), &resolver, names, RecordType::PTR, 4);
    assert!(report.success_rate() > 0.8, "{:?}", report.status_counts);
    let ok = results
        .iter()
        .find(|r| r.status == Status::NoError)
        .expect("a PTR success");
    assert!(matches!(ok.answers[0].rdata, RData::Ptr(_)));
}

#[test]
fn glueless_delegations_resolve_via_ns_walks() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let glueless: Vec<Name> = (0..400_000)
        .map(|i| format!("gl{i}.org").parse::<Name>().unwrap())
        .filter(|n| u.domain_exists(n) && u.domain_profile(n).glueless)
        .take(10)
        .collect();
    assert!(!glueless.is_empty());
    let (report, _) = run_lookups(Arc::clone(&u), &resolver, glueless, RecordType::A, 4);
    assert!(report.success_rate() > 0.6, "{:?}", report.status_counts);
}

#[test]
fn lame_nameservers_are_retried_elsewhere() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let lame: Vec<Name> = (0..400_000)
        .map(|i| format!("lm{i}.com").parse::<Name>().unwrap())
        .filter(|n| u.domain_exists(n) && u.domain_profile(n).lame_ns.is_some())
        .take(10)
        .collect();
    assert!(!lame.is_empty());
    let (report, _) = run_lookups(Arc::clone(&u), &resolver, lame, RecordType::A, 4);
    // The other nameservers still answer.
    assert!(report.success_rate() > 0.7, "{:?}", report.status_counts);
}

#[test]
fn caa_lookup_follows_cname_chain() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let via_cname: Vec<Name> = (0..3_000_000)
        .map(|i| format!("cc{i}.pl").parse::<Name>().unwrap())
        .filter(|n| {
            u.domain_exists(n) && {
                let p = u.domain_profile(n);
                p.caa_via_cname && !p.caa_records.is_empty()
            }
        })
        .take(3)
        .collect();
    assert!(!via_cname.is_empty(), "no CAA-via-CNAME domains found");
    let (_, results) = run_lookups(Arc::clone(&u), &resolver, via_cname, RecordType::CAA, 2);
    let ok = results
        .iter()
        .find(|r| r.status == Status::NoError && !r.answers.is_empty())
        .expect("CAA resolution succeeded");
    assert!(ok
        .answers
        .iter()
        .any(|r| matches!(r.rdata, RData::Cname(_))));
    assert!(ok.answers.iter().any(|r| matches!(r.rdata, RData::Caa(_))));
}

#[test]
fn delegation_info_lists_leaf_nameservers() {
    let u = universe();
    let resolver = iterative_resolver(&u);
    let names = existing_domains(&u, "com", 5);
    let profile = u.domain_profile(&names[0]);
    let provider = u.providers().by_index(profile.provider).unwrap();
    let (_, results) = run_lookups(
        Arc::clone(&u),
        &resolver,
        vec![names[0].clone()],
        RecordType::A,
        1,
    );
    let r = &results[0];
    let delegation = r.delegation.as_ref().expect("delegation recorded");
    assert_eq!(delegation.nameservers.len(), provider.ns_count as usize);
    // NS names follow the provider's hostname scheme.
    let ns0 = delegation.nameservers[0].0.to_string();
    assert!(ns0.contains(&provider.label), "{ns0}");
}

#[test]
fn flaky_nameservers_consume_retries() {
    let u = universe();
    // Find deep-flaky domains (the §5 ten-retry population).
    let flaky: Vec<Name> = (0..2_000_000)
        .map(|i| format!("fk{i}.vn").parse::<Name>().unwrap())
        .filter(|n| u.domain_exists(n) && matches!(u.domain_profile(n).flaky, Some(f) if f.deep))
        .take(5)
        .collect();
    assert!(!flaky.is_empty(), "no deep-flaky .vn domains");
    let mut config = ResolverConfig::iterative(u.root_hints());
    config.retries = 10;
    let resolver = Resolver::new(config);
    let (_, results) = run_lookups(Arc::clone(&u), &resolver, flaky, RecordType::A, 2);
    // Some lookup must have needed retries when it hit the flaky NS.
    let total_retries: u32 = results.iter().map(|r| r.retries_used).sum();
    assert!(total_retries > 0, "expected retries against flaky servers");
}

#[test]
fn a_delegation_loop_ends_after_64_queries() {
    // Every server of `loop.test` answers with the referral that sent the
    // walk there — a lame loop with 100 nameservers to try. Only the
    // per-lookup query cap ends it before every one of them is asked.
    let root = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let servers: Vec<std::net::Ipv4Addr> = (1..=100)
        .map(|i| std::net::Ipv4Addr::new(10, 0, 1, i))
        .collect();
    let hosts: Vec<Name> = (1..=100)
        .map(|i| format!("ns{i}.loop.test").parse().unwrap())
        .collect();
    let glue: Vec<(Name, RData)> = hosts
        .iter()
        .zip(&servers)
        .map(|(host, ip)| (host.clone(), RData::A(*ip)))
        .collect();
    let mut zone = Zone::new("test".parse().unwrap(), "ns.test".parse().unwrap(), 300);
    zone.delegate("loop.test".parse().unwrap(), &hosts, &glue);
    let mut u = ExplicitUniverse::new();
    u.hint("ns.test".parse().unwrap(), root);
    for ip in std::iter::once(root).chain(servers) {
        u.host(ip, zone.clone());
    }
    let resolver = Resolver::new(ResolverConfig::iterative(u.root_hints()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Arc::new(u) as Arc<dyn Universe>,
    );
    let (sink, collected) = collecting_sink();
    let mut once = Some(());
    engine.run(move || {
        once.take()?;
        let question = Question::new("www.loop.test".parse().unwrap(), RecordType::A);
        Some(resolver.machine(question, Some(sink.clone())))
    });
    let result = collected.lock().pop().unwrap();
    assert_eq!(
        (result.status, result.queries_sent),
        (Status::IterativeTimeout, 64),
        "{result:?}"
    );
}

/// The NS set and the SOA of every kind of infrastructure apex — the root,
/// a gTLD, a ccTLD, `arpa`, `in-addr.arpa`, a /8, a /16 that delegates its
/// /24s and one that does not, and a /24 — are answered, and the iterative
/// machine (on the simulator) finds what the oracle finds.
#[test]
fn the_machine_and_the_oracle_agree_on_every_infrastructure_apex() {
    let set = |records: &[Record]| {
        let mut set: Vec<String> = (records.iter())
            .map(|r| format!("{} {:?} {:?}", r.name, r.rtype, r.rdata))
            .collect();
        set.sort();
        set
    };
    for seed in [1, 2, 3] {
        let u = Arc::new(SyntheticUniverse::new(SynthConfig {
            seed,
            ..SynthConfig::default()
        }));
        let tlds = u.tlds().all();
        let cc = tlds.iter().find(|t| t.category == TldCategory::CcTld);
        let a = 20;
        let deep = (0..=255)
            .find(|&b| u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let flat = (0..=255)
            .find(|&b| !u.rdns16_delegates_deeper(a, b))
            .unwrap();
        let apexes = [
            ".".to_string(),
            "com".to_string(),
            cc.unwrap().label.clone(),
            "arpa".to_string(),
            "in-addr.arpa".to_string(),
            format!("{a}.in-addr.arpa"),
            format!("{deep}.{a}.in-addr.arpa"),
            format!("{flat}.{a}.in-addr.arpa"),
            format!("7.{deep}.{a}.in-addr.arpa"),
        ];
        let questions: Vec<Question> = (apexes.iter())
            .flat_map(|apex| {
                [RecordType::NS, RecordType::SOA].map(|t| Question::new(name(apex), t))
            })
            .collect();
        let resolver = iterative_resolver(&u);
        let mut engine = Engine::new(
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            Arc::clone(&u) as Arc<dyn Universe>,
        );
        let (sink, collected) = collecting_sink();
        let mut asked = questions.clone().into_iter();
        engine.run(move || Some(resolver.machine(asked.next()?, Some(sink.clone()))));
        let results = collected.lock();
        for q in &questions {
            let got = (results.iter())
                .find(|r| r.name == q.name && r.qtype == q.qtype)
                .unwrap();
            let want = zdns_netsim::oracle::resolve(&*u, q);
            let what = format!("seed {seed}: {} {:?}", q.name, q.qtype);
            assert_eq!(got.status, Status::from_rcode(want.rcode), "{what}");
            assert!(!want.answers.is_empty(), "{what}");
            assert_eq!(set(&got.answers), set(&want.answers), "{what}");
        }
    }
}

// ---------------------------------------------------------------------------
// Resolution limits: the machine and the oracle agree on each side of each
// ---------------------------------------------------------------------------

fn name(text: &str) -> Name {
    text.parse().unwrap()
}

fn server(group: u8, k: u32) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::new(10, group, k as u8, 1)
}

/// A root at `server(0, 0)` delegating `test.` to `server(0, 1)`.
fn root_and_tld() -> (ExplicitUniverse, Zone) {
    let mut root = Zone::new(Name::root(), name("a.root.test"), 300);
    root.delegate(
        name("test"),
        &[name("ns.nic.test")],
        &[(name("ns.nic.test"), RData::A(server(0, 1)))],
    );
    let mut u = ExplicitUniverse::new();
    u.hint(name("a.root.test"), server(0, 0));
    u.host(server(0, 0), root);
    (u, Zone::new(name("test"), name("ns.nic.test"), 300))
}

/// Whether the iterative machine (on the simulator) and the oracle each
/// find an `A` record for `qname`.
fn machine_and_oracle_answer(u: ExplicitUniverse, qname: &str) -> (bool, bool) {
    let question = Question::new(name(qname), RecordType::A);
    let has_a = |records: &[Record]| records.iter().any(|r| matches!(r.rdata, RData::A(_)));
    let oracle = zdns_netsim::oracle::resolve(&u, &question);
    let resolver = Resolver::new(ResolverConfig::iterative(u.root_hints()));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Arc::new(u) as Arc<dyn Universe>,
    );
    let (sink, collected) = collecting_sink();
    let mut once = Some(question);
    engine.run(move || Some(resolver.machine(once.take()?, Some(sink.clone()))));
    let result = collected.lock().pop().unwrap();
    (has_a(&result.answers), has_a(&oracle.answers))
}

/// `www.l{depth}.….l1.` behind `depth` referrals, each level on its own
/// server.
fn referral_chain(depth: u32) -> (ExplicitUniverse, String) {
    let origin = |k: u32| (1..=k).rev().map(|i| format!("l{i}.")).collect::<String>();
    let ns = |k: u32| name(&format!("ns.{}", origin(k)));
    let mut u = ExplicitUniverse::new();
    u.hint(ns(0), server(1, 0));
    for k in 0..=depth {
        let mut zone = Zone::new(name(&origin(k)), ns(k), 300);
        zone.add(Record::new(ns(k), 300, RData::A(server(1, k))));
        if k < depth {
            zone.delegate(
                name(&origin(k + 1)),
                &[ns(k + 1)],
                &[(ns(k + 1), RData::A(server(1, k + 1)))],
            );
        } else {
            let www = name(&format!("www.{}", origin(k)));
            zone.add(Record::new(www, 300, RData::A(server(9, 9))));
        }
        u.host(server(1, k), zone);
    }
    (u, format!("www.{}", origin(depth)))
}

/// `www.c0.test` → `www.c1.test` → … → `www.c{hops}.test`, each name in a
/// zone of its own.
fn cname_chain(hops: u32) -> ExplicitUniverse {
    let (mut u, mut tld) = root_and_tld();
    for k in 0..=hops {
        let origin = name(&format!("c{k}.test"));
        let ns = name(&format!("ns.c{k}.test"));
        let glue = [(ns.clone(), RData::A(server(2, k)))];
        tld.delegate(origin.clone(), std::slice::from_ref(&ns), &glue);
        let mut zone = Zone::new(origin, ns, 300);
        let www = name(&format!("www.c{k}.test"));
        let rdata = if k < hops {
            RData::Cname(name(&format!("www.c{}.test", k + 1)))
        } else {
            RData::A(server(9, 9))
        };
        zone.add(Record::new(www, 300, rdata));
        u.host(server(2, k), zone);
    }
    u.host(server(0, 1), tld);
    u
}

/// `www.t0.test`, whose zone's only name server is named in `t1.test`,
/// whose name server is named in `t2.test`, and so on: finding its address
/// takes `nesting` nested glueless sub-walks.
fn glueless_chain(nesting: u32) -> ExplicitUniverse {
    let (mut u, mut tld) = root_and_tld();
    // `t{k}.test` is served by `server(3, k)`, under the name `ns_of(k)`,
    // an address record of the next zone (the last zone names itself).
    let ns_of = |k: u32| name(&format!("ns{k}.t{}.test", (k + 1).min(nesting)));
    let mut zones: Vec<Zone> = (0..=nesting)
        .map(|k| Zone::new(name(&format!("t{k}.test")), ns_of(k), 300))
        .collect();
    for k in 0..=nesting {
        let glue = [(ns_of(k), RData::A(server(3, k)))];
        let glue = if k == nesting { &glue[..] } else { &[] };
        tld.delegate(name(&format!("t{k}.test")), &[ns_of(k)], glue);
        let holder = (k + 1).min(nesting) as usize;
        zones[holder].add(Record::new(ns_of(k), 300, RData::A(server(3, k))));
    }
    zones[0].add(Record::new(
        name("www.t0.test"),
        300,
        RData::A(server(9, 9)),
    ));
    for (k, zone) in zones.into_iter().enumerate() {
        u.host(server(3, k as u32), zone);
    }
    u.host(server(0, 1), tld);
    u
}

#[test]
fn the_machine_and_the_oracle_share_each_resolution_limit() {
    use zdns_netsim::oracle::{MAX_CNAME_HOPS, MAX_NS_SUBWALKS, MAX_REFERRALS};
    for (depth, resolves) in [(MAX_REFERRALS, true), (MAX_REFERRALS + 1, false)] {
        let (u, qname) = referral_chain(depth);
        let got = machine_and_oracle_answer(u, &qname);
        assert_eq!(got, (resolves, resolves), "{depth} referrals");
    }
    for (hops, resolves) in [(MAX_CNAME_HOPS, true), (MAX_CNAME_HOPS + 1, false)] {
        let got = machine_and_oracle_answer(cname_chain(hops), "www.c0.test");
        assert_eq!(got, (resolves, resolves), "{hops} CNAME hops");
    }
    let nesting = MAX_NS_SUBWALKS as u32;
    for (nesting, resolves) in [(nesting, true), (nesting + 1, false)] {
        let got = machine_and_oracle_answer(glueless_chain(nesting), "www.t0.test");
        assert_eq!(
            got,
            (resolves, resolves),
            "{nesting} nested glueless sub-walks"
        );
    }
}
