//! Module behaviour end-to-end through the simulator: composed lookups
//! (mxlookup, alookup, all-nameservers), TXT filters, and CAA analysis.

use std::sync::Arc;

use parking_lot::Mutex;
use zdns_core::{Resolver, ResolverConfig};
use zdns_modules::{LookupModule, ModuleOutput, ModuleRegistry, ModuleSink};
use zdns_netsim::{Engine, EngineConfig};
use zdns_wire::{Name, RData, Record};
use zdns_zones::{
    synth::WwwKind, ExplicitUniverse, SynthConfig, SyntheticUniverse, Universe, Zone,
};

fn universe() -> Arc<SyntheticUniverse> {
    Arc::new(SyntheticUniverse::new(SynthConfig::default()))
}

fn resolver(u: &SyntheticUniverse) -> Resolver {
    Resolver::new(ResolverConfig::iterative(u.root_hints()))
}

fn run_module(
    u: Arc<impl Universe + 'static>,
    module: &dyn LookupModule,
    resolver: &Resolver,
    inputs: Vec<String>,
) -> Vec<ModuleOutput> {
    let outputs: Arc<Mutex<Vec<ModuleOutput>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_store = Arc::clone(&outputs);
    let sink: ModuleSink = Arc::new(move |o| sink_store.lock().push(o));
    let mut engine = Engine::new(
        EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
        u,
    );
    let mut iter = inputs.into_iter();
    engine.run(move || {
        let input = iter.next()?;
        Some(module.make_machine(&input, resolver, sink.clone()))
    });
    let collected = std::mem::take(&mut *outputs.lock());
    collected
}

fn find_domains(
    u: &SyntheticUniverse,
    tld: &str,
    pred: impl Fn(&zdns_zones::DomainProfile) -> bool,
    n: usize,
    budget: usize,
) -> Vec<String> {
    (0..budget)
        .map(|i| format!("mod{i}.{tld}"))
        .filter(|name| {
            let parsed: Name = name.parse().unwrap();
            u.domain_exists(&parsed) && pred(&u.domain_profile(&parsed))
        })
        .take(n)
        .collect()
}

#[test]
fn mxlookup_resolves_exchange_addresses() {
    let u = universe();
    let r = resolver(&u);
    let with_mx = find_domains(&u, "com", |p| p.has_mx, 5, 100_000);
    assert!(!with_mx.is_empty());
    let outputs = run_module(Arc::clone(&u), &zdns_modules::MxLookupModule, &r, with_mx);
    let ok = outputs
        .iter()
        .find(|o| {
            o.status.is_success()
                && o.data["exchanges"]
                    .as_array()
                    .is_some_and(|a| !a.is_empty())
        })
        .expect("an MX success");
    let exchange = &ok.data["exchanges"][0];
    assert!(exchange["name"].as_str().unwrap().starts_with("mail."));
    assert!(
        !exchange["ipv4_addresses"].as_array().unwrap().is_empty(),
        "mxlookup must resolve exchange addresses: {exchange}"
    );
}

#[test]
fn alookup_reports_cnames_and_addresses() {
    let u = universe();
    let r = resolver(&u);
    let www_cname: Vec<String> =
        find_domains(&u, "net", |p| p.www == WwwKind::CnameToApex, 4, 100_000)
            .into_iter()
            .map(|d| format!("www.{d}"))
            .collect();
    assert!(!www_cname.is_empty());
    let outputs = run_module(
        Arc::clone(&u),
        &zdns_modules::ALookupModule::default(),
        &r,
        www_cname,
    );
    let ok = outputs
        .iter()
        .find(|o| o.status.is_success() && !o.data["cnames"].as_array().unwrap().is_empty())
        .expect("a CNAME-following alookup success");
    assert!(!ok.data["ipv4_addresses"].as_array().unwrap().is_empty());
}

#[test]
fn alookup_prints_a_cname_chain_once_across_a_and_aaaa() {
    // a.test -> b.test -> c.test, with both address types at the end:
    // the A and the AAAA lookups each walk the whole chain.
    let server = std::net::Ipv4Addr::new(192, 0, 2, 53);
    let mut zone = Zone::new("test".parse().unwrap(), "ns.test".parse().unwrap(), 300);
    for (owner, rdata) in [
        ("a.test", RData::Cname("b.test".parse().unwrap())),
        ("b.test", RData::Cname("c.test".parse().unwrap())),
        ("c.test", RData::A("192.0.2.1".parse().unwrap())),
        ("c.test", RData::Aaaa("2001:db8::1".parse().unwrap())),
    ] {
        zone.add(Record::new(owner.parse().unwrap(), 300, rdata));
    }
    let mut u = ExplicitUniverse::new();
    u.host(server, zone);
    let r = Resolver::new(ResolverConfig::external(vec![server]));
    let module = zdns_modules::ALookupModule {
        ipv4: true,
        ipv6: true,
    };
    let outputs = run_module(Arc::new(u), &module, &r, vec!["a.test".into()]);
    assert_eq!(outputs.len(), 1);
    let data = &outputs[0].data;
    assert_eq!(outputs[0].status, zdns_core::Status::NoError, "{data}");
    assert_eq!(data["cnames"], serde_json::json!(["b.test.", "c.test."]));
    assert_eq!(data["ipv4_addresses"], serde_json::json!(["192.0.2.1"]));
    assert_eq!(data["ipv6_addresses"], serde_json::json!(["2001:db8::1"]));
}

#[test]
fn spf_module_filters_txt() {
    let u = universe();
    let r = resolver(&u);
    let with_spf = find_domains(&u, "com", |p| p.has_spf, 5, 100_000);
    let without_spf = find_domains(&u, "com", |p| p.has_txt && !p.has_spf, 5, 100_000);
    let spf = zdns_modules::txtfilter::spf();
    let outputs = run_module(Arc::clone(&u), &spf, &r, with_spf);
    let ok = outputs
        .iter()
        .find(|o| o.status.is_success() && o.data.get("spf").is_some())
        .expect("an SPF hit");
    assert!(ok.data["spf"].as_str().unwrap().starts_with("v=spf1"));
    // Domains with TXT but no SPF produce NOERROR with empty data.
    let outputs = run_module(Arc::clone(&u), &spf, &r, without_spf);
    let miss = outputs.iter().find(|o| o.status.is_success()).unwrap();
    assert!(miss.data.get("spf").is_none());
}

#[test]
fn caalookup_classifies_tags() {
    let u = universe();
    let r = resolver(&u);
    let with_caa = find_domains(
        &u,
        "pl",
        |p| !p.caa_records.is_empty() && !p.caa_via_cname,
        6,
        400_000,
    );
    assert!(!with_caa.is_empty());
    let outputs = run_module(Arc::clone(&u), &zdns_modules::CaaLookupModule, &r, with_caa);
    let ok = outputs
        .iter()
        .find(|o| o.status.is_success() && !o.data["records"].as_array().unwrap().is_empty())
        .expect("a CAA holder resolved");
    // §6: the issue tag dominates; Let's Encrypt is in nearly all records.
    let issue = ok.data["issue"].as_array().unwrap();
    assert!(!issue.is_empty(), "{:?}", ok.data);
    assert_eq!(ok.data["via_cname"], false);
}

#[test]
fn all_nameservers_probes_every_server() {
    let u = universe();
    let r = resolver(&u);
    let domains = find_domains(
        &u,
        "com",
        |p| p.lame_ns.is_none() && !p.glueless,
        4,
        100_000,
    );
    let outputs = run_module(
        Arc::clone(&u),
        &zdns_modules::AllNameserversModule,
        &r,
        domains.clone(),
    );
    assert_eq!(outputs.len(), domains.len());
    let ok = outputs
        .iter()
        .find(|o| o.status.is_success())
        .expect("an all-NS success");
    let servers = ok.data["nameservers"].as_array().unwrap();
    let parsed: Name = ok.name.parse().unwrap();
    let expected = u.domain_profile(&parsed).ns_count as usize;
    assert_eq!(servers.len(), expected, "{}", ok.data);
    // Consistent providers serve identical answers (§5: >99.99%).
    if !u.domain_profile(&parsed).inconsistent {
        assert_eq!(ok.data["consistent"], true);
    }
}

#[test]
fn all_nameservers_detects_inconsistency() {
    let u = universe();
    let r = resolver(&u);
    // Inconsistent domains are ~1/10000; widen the net.
    let inconsistent = find_domains(
        &u,
        "com",
        |p| p.inconsistent && p.lame_ns.is_none(),
        2,
        2_000_000,
    );
    if inconsistent.is_empty() {
        return; // seed produced none in budget; other tests cover the path
    }
    let outputs = run_module(
        Arc::clone(&u),
        &zdns_modules::AllNameserversModule,
        &r,
        inconsistent,
    );
    let flagged = outputs
        .iter()
        .any(|o| o.status.is_success() && o.data["consistent"] == false);
    assert!(flagged, "inconsistent domain not detected");
}

#[test]
fn registry_machines_run_via_names() {
    let u = universe();
    let r = resolver(&u);
    let registry = ModuleRegistry::standard();
    let existing = find_domains(&u, "com", |_| true, 1, 50_000);
    let module = registry.get("A").unwrap();
    let outputs = run_module(Arc::clone(&u), module.as_ref(), &r, existing);
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].module, "A");
}

#[test]
fn ptr_module_accepts_plain_ips() {
    let u = universe();
    let r = resolver(&u);
    let ip = (0..u32::MAX)
        .map(|i| std::net::Ipv4Addr::from(0x0800_0000u32.wrapping_add(i * 7919)))
        .find(|&ip| u.ptr_exists(ip))
        .unwrap();
    let registry = ModuleRegistry::standard();
    let module = registry.get("PTR").unwrap();
    let outputs = run_module(Arc::clone(&u), module.as_ref(), &r, vec![ip.to_string()]);
    assert_eq!(outputs.len(), 1);
    assert!(outputs[0].status.is_success(), "{:?}", outputs[0].status);
    let answers = outputs[0].data["answers"].as_array().unwrap();
    assert_eq!(answers[0]["type"], "PTR");
}

#[test]
fn illegal_input_fails_fast() {
    let u = universe();
    let r = resolver(&u);
    let registry = ModuleRegistry::standard();
    let module = registry.get("A").unwrap();
    let outputs = run_module(Arc::clone(&u), module.as_ref(), &r, vec!["..bad..".into()]);
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].status, zdns_core::Status::IllegalInput);
}
