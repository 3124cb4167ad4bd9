//! Framework-level real-socket scan: worker threads with long-lived UDP
//! sockets driving module machines against loopback wire servers.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zdns::core::AddrMap;
use zdns::framework::{resolver_for, run_scan_pipeline, CallbackSink, Conf};
use zdns::modules::{ModuleOutput, ModuleRegistry};
use zdns::netsim::WireServer;
use zdns::wire::{Name, RData, Record};
use zdns::zones::{ExplicitUniverse, Universe, Zone};

fn build_universe() -> ExplicitUniverse {
    let root_ip: Ipv4Addr = "198.41.0.1".parse().unwrap();
    let tld_ip: Ipv4Addr = "199.0.0.1".parse().unwrap();
    let leaf_ip: Ipv4Addr = "204.10.0.53".parse().unwrap();

    let mut root = Zone::new(Name::root(), "a.root.test".parse().unwrap(), 518400);
    root.delegate(
        "test".parse().unwrap(),
        &["ns1.nic.test".parse().unwrap()],
        &[("ns1.nic.test".parse().unwrap(), RData::A(tld_ip))],
    );
    let mut tld = Zone::new(
        "test".parse().unwrap(),
        "ns1.nic.test".parse().unwrap(),
        900,
    );
    let mut universe = ExplicitUniverse::new();
    let mut leaf_zones = Vec::new();
    for i in 0..20 {
        let apex: Name = format!("scan{i}.test").parse().unwrap();
        tld.delegate(
            apex.clone(),
            &[format!("ns1.scan{i}.test").parse().unwrap()],
            &[(
                format!("ns1.scan{i}.test").parse().unwrap(),
                RData::A(leaf_ip),
            )],
        );
        let mut zone = Zone::new(
            apex.clone(),
            format!("ns1.scan{i}.test").parse().unwrap(),
            300,
        );
        zone.add(Record::new(
            apex,
            300,
            RData::A(format!("192.0.2.{}", i + 1).parse().unwrap()),
        ));
        leaf_zones.push(zone);
    }
    universe.hint("a.root.test".parse().unwrap(), root_ip);
    universe.host(root_ip, root);
    universe.host(tld_ip, tld);
    for zone in leaf_zones {
        universe.host(leaf_ip, zone);
    }
    universe
}

#[test]
fn real_scan_resolves_through_loopback_servers() {
    let universe = Arc::new(build_universe());
    let ips: Vec<Ipv4Addr> = ["198.41.0.1", "199.0.0.1", "204.10.0.53"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut servers = Vec::new();
    let mut mapping: Vec<(Ipv4Addr, SocketAddr)> = Vec::new();
    for ip in ips {
        let server = WireServer::start(Arc::clone(&universe) as Arc<dyn Universe>, ip).unwrap();
        mapping.push((ip, server.addr()));
        servers.push(server);
    }
    let addr_map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .unwrap_or_else(|| SocketAddr::new(ip.into(), 53))
    });

    let mut conf = Conf::parse(["A", "--iterative", "--threads", "8", "--retries", "2"]).unwrap();
    conf.resolver.timeout = zdns::netsim::SECONDS;
    conf.resolver.iteration_timeout = zdns::netsim::SECONDS;
    let resolver = resolver_for(&conf, universe.as_ref());
    let module = ModuleRegistry::standard().get("A").unwrap();
    let inputs: Vec<String> = (0..20).map(|i| format!("scan{i}.test")).collect();

    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    let mut sink = CallbackSink::new(move |o: ModuleOutput| {
        if o.status.is_success() {
            ok2.fetch_add(1, Ordering::Relaxed);
        }
    });
    let report = run_scan_pipeline(
        &conf,
        &resolver,
        module,
        addr_map,
        &mut inputs.into_iter(),
        &mut sink,
    );
    assert_eq!(report.driver.completed, 20);
    assert_eq!(report.driver.successes, 20, "all loopback scans succeed");
    assert_eq!(ok.load(Ordering::Relaxed), 20);

    // RunReport parity: per-status counts, query/retry totals, rates, and
    // reactor telemetry all populate.
    assert_eq!(report.status_counts.get("NOERROR"), Some(&20));
    assert!(
        report.driver.queries_sent >= 20,
        "iterative walks send multiple queries: {}",
        report.driver.queries_sent
    );
    assert!(report.lookups_per_sec() > 0.0);
    assert!((report.success_rate() - 1.0).abs() < f64::EPSILON);
    assert!(
        report.worker_errors.is_empty(),
        "{:?}",
        report.worker_errors
    );
    assert!(report.workers >= 1 && report.workers <= 8);
    assert!(report.driver.peak_in_flight >= 1);
    assert_eq!(report.driver.completed, 20);
    let line = report.summary_line();
    assert!(line.contains("20 lookups"), "{line}");
    assert!(line.contains("NOERROR=20"), "{line}");
}

#[test]
fn real_scan_respects_max_in_flight_window() {
    let universe = Arc::new(build_universe());
    let ips: Vec<Ipv4Addr> = ["198.41.0.1", "199.0.0.1", "204.10.0.53"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut servers = Vec::new();
    let mut mapping: Vec<(Ipv4Addr, SocketAddr)> = Vec::new();
    for ip in ips {
        let server = WireServer::start(Arc::clone(&universe) as Arc<dyn Universe>, ip).unwrap();
        mapping.push((ip, server.addr()));
        servers.push(server);
    }
    let addr_map: Arc<AddrMap> = Arc::new(move |ip| {
        mapping
            .iter()
            .find(|(sim, _)| *sim == ip)
            .map(|(_, real)| *real)
            .unwrap_or_else(|| SocketAddr::new(ip.into(), 53))
    });

    // A window of 1 forces strictly sequential admission — the scan still
    // completes, it just cannot overlap lookups.
    let mut conf = Conf::parse([
        "A",
        "--iterative",
        "--threads",
        "1",
        "--retries",
        "2",
        "--max-in-flight",
        "1",
    ])
    .unwrap();
    conf.resolver.timeout = zdns::netsim::SECONDS;
    conf.resolver.iteration_timeout = zdns::netsim::SECONDS;
    let resolver = resolver_for(&conf, universe.as_ref());
    let module = ModuleRegistry::standard().get("A").unwrap();
    let inputs: Vec<String> = (0..6).map(|i| format!("scan{i}.test")).collect();

    let report = run_scan_pipeline(
        &conf,
        &resolver,
        module,
        addr_map,
        &mut inputs.into_iter(),
        &mut CallbackSink::new(|_| {}),
    );
    assert_eq!(report.driver.completed, 6);
    assert_eq!(report.driver.successes, 6);
    assert_eq!(report.driver.peak_in_flight, 1, "window of 1 = no overlap");
}
