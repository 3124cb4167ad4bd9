//! The synthetic universe's answers, pinned to recorded bytes.
//!
//! Every fact the universe states is a hash of `(seed, question)`, and
//! every paper artefact reads those facts through `respond` and
//! `drop_probability`. This test asks a generated spread of questions —
//! every server role (root, TLD, provider, the three reverse levels, and
//! addresses nobody serves), names that exist and names that do not, the
//! provider and TLD name-server hosts, and nine query types — under three
//! seeds, encodes each answer as the wire carries it, and folds the bytes
//! and the drop probabilities into one FNV-1a digest. The digests were
//! recorded before the responders learned to derive only the facts a
//! question reads, and re-recorded twice, each time after a differential
//! over these questions put every moved answer in a named class: when the
//! reverse zones' existence rule was fixed (1 420 of 67 500 answers
//! moved), and when every zone came to answer its apex by one rule (588
//! moved: the /8, /16, /24, `in-addr.arpa` and `arpa` apexes asked NS, SOA
//! or ANY; `in-addr.arpa`'s other types, whose SOA names `ns1.nic.arpa`
//! as its primary; `arpa`'s other types and `x.ip6.arpa`, now under
//! arpa's own SOA). A change to any answer's bytes or any drop probability
//! moves them.
//!
//! Questions whose answers were bug fixes since (a numeric label spelled
//! `ns01`, `ns+1` or `+1`, and the bare `nic.<tld>`) are not generated;
//! the responders' own tests pin those.

use std::net::Ipv4Addr;

use zdns_wire::{Message, Name, Question, Rcode, RecordType};
use zdns_zones::{ServerRole, SynthConfig, SyntheticUniverse, Universe};

const QTYPES: [RecordType; 9] = [
    RecordType::A,
    RecordType::AAAA,
    RecordType::NS,
    RecordType::MX,
    RecordType::TXT,
    RecordType::CAA,
    RecordType::SOA,
    RecordType::ANY,
    RecordType::PTR,
];

/// Names generated per seed; each is asked with every type in [`QTYPES`].
const NAMES: usize = 2_500;

/// Base domains per seed whose drop probability is read at every one of
/// their provider's servers: flaky domains are rare (~0.55 %).
const DROP_BASES: usize = 10_000;

/// splitmix64: the generator the questions are drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

struct Digest(u64);

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn name(text: &str) -> Name {
    text.parse().expect("generated names are valid")
}

/// A forward-tree question and the servers that could be asked it.
fn forward(u: &SyntheticUniverse, rng: &mut Rng) -> (Name, Vec<Ipv4Addr>) {
    const NAMED: [&str; 10] = [
        "com", "net", "org", "info", "biz", "pl", "vn", "ng", "de", "uk",
    ];
    let tlds = u.tlds().all();
    let tld = match rng.below(3) {
        0 => &tlds[rng.below(tlds.len() as u64 - 1) as usize], // never arpa (last)
        _ => u
            .tlds()
            .by_label(rng.pick(&NAMED))
            .expect("named TLDs exist"),
    };
    let provider_count = u.providers().all().len() as u64;
    let provider = match rng.below(4) {
        0 => rng.below(3) as u16,
        _ => rng.below(provider_count) as u16,
    };
    let servers_of_tld = |rng: &mut Rng| {
        ServerRole::Tld {
            tld_index: tld.index,
            server: rng.below(u64::from(tld.server_count)) as u8,
        }
        .address()
    };
    let root = ServerRole::Root {
        index: rng.below(13) as u8,
    }
    .address();
    let stray = ServerRole::ProviderAuth {
        provider: rng.below(provider_count) as u16,
        server: rng.below(5) as u8,
    }
    .address();
    let nobody = Ipv4Addr::new(203, 0, 113, rng.below(256) as u8);

    // Names inside the TLD zone itself.
    if rng.below(8) == 0 {
        let text = match rng.below(5) {
            0 => tld.label.clone(),
            1 | 2 => format!(
                "ns{}.nic.{}",
                rng.below(u64::from(tld.server_count) + 2),
                tld.label
            ),
            3 => format!("www.nic.{}", tld.label),
            _ => format!("a.ns1.nic.{}", tld.label.to_ascii_uppercase()),
        };
        let tld_server = servers_of_tld(rng);
        return (name(&text), vec![root, tld_server, stray, nobody]);
    }

    let base = match rng.below(6) {
        0 => u.providers().ns_domain(provider),
        _ => format!("w{}.{}", rng.below(200_000), tld.label),
    };
    let base_name = name(&base);
    let text = match rng.below(9) {
        0 | 1 => base.clone(),
        2 => format!("www.{base}"),
        3 => format!("mail.{base}"),
        4 => format!("caa.{base}"),
        5 => format!("ns{}.{base}", rng.below(6)),
        6 => format!("a.b.{base}"),
        7 => format!("WwW.{}", base.to_ascii_uppercase()),
        _ => format!("x{}.{base}", rng.below(1_000)),
    };
    let mut servers = vec![root, servers_of_tld(rng), stray, nobody];
    servers.extend(own_servers(u, &base_name));
    (name(&text), servers)
}

/// Every server of the provider hosting `base`.
fn own_servers(u: &SyntheticUniverse, base: &Name) -> Vec<Ipv4Addr> {
    let provider = u.domain_profile(base).provider;
    let count = u.providers().by_index(provider).expect("hosted").ns_count;
    (0..count)
        .map(|server| ServerRole::ProviderAuth { provider, server }.address())
        .collect()
}

/// A reverse-tree question and the servers that could be asked it.
fn reverse(u: &SyntheticUniverse, rng: &mut Rng) -> (Name, Vec<Ipv4Addr>) {
    let [a, b, c, d] = (rng.next() as u32).to_be_bytes();
    let text = match rng.below(10) {
        0..=3 => format!("{d}.{c}.{b}.{a}.in-addr.arpa"),
        4 => format!("{c}.{b}.{a}.in-addr.arpa"),
        5 => format!("{b}.{a}.in-addr.arpa"),
        6 => format!("{a}.in-addr.arpa"),
        7 => format!("ns{}.{a}.in-addr.arpa", rng.below(4)),
        8 => match rng.below(3) {
            0 => format!("ns{}.{b}.{a}.in-addr.arpa", rng.below(4)),
            1 => format!("ns1.{c}.{b}.{a}.in-addr.arpa"),
            _ => format!("x.{d}.{c}.{b}.{a}.in-addr.arpa"),
        },
        _ => rng
            .pick(&["arpa", "in-addr.arpa", "x.ip6.arpa"])
            .to_string(),
    };
    let arpa = u.tlds().by_label("arpa").expect("arpa exists");
    let servers = vec![
        ServerRole::Root {
            index: rng.below(13) as u8,
        }
        .address(),
        ServerRole::Tld {
            tld_index: arpa.index,
            server: rng.below(6) as u8,
        }
        .address(),
        ServerRole::Rdns8 {
            octet: a,
            server: rng.below(2) as u8,
        }
        .address(),
        ServerRole::Rdns16 {
            a,
            b,
            server: rng.below(2) as u8,
        }
        .address(),
        ServerRole::Rdns24 { a, b, c }.address(),
    ];
    (name(&text), servers)
}

/// What the generated questions drew, so the test can tell it exercised
/// the paths it claims to.
#[derive(Debug, Default)]
struct Drawn {
    pairs: usize,
    answered: usize,
    nxdomain: usize,
    refused: usize,
    unserved: usize,
    dropping: usize,
}

/// The digest of every answer and drop probability for one seed, and what
/// went into it.
fn digest(seed: u64) -> (u64, Drawn) {
    let u = SyntheticUniverse::new(SynthConfig {
        seed,
        ..SynthConfig::default()
    });
    let mut rng = Rng(seed ^ 0xA5A5_5A5A);
    let mut digest = Digest(0xCBF2_9CE4_8422_2325);
    let mut drawn = Drawn::default();
    let drop = |digest: &mut Digest, server: Ipv4Addr, qname: &Name| {
        let p = u.drop_probability(server, qname);
        digest.eat(&p.to_bits().to_be_bytes());
        p > 0.0
    };
    for _ in 0..NAMES {
        let (qname, servers) = if rng.below(4) == 0 {
            reverse(&u, &mut rng)
        } else {
            forward(&u, &mut rng)
        };
        let server = rng.pick(&servers);
        digest.eat(&server.octets());
        digest.eat(qname.to_string().as_bytes());
        for &asked in &servers {
            drawn.dropping += usize::from(drop(&mut digest, asked, &qname));
        }
        for qtype in QTYPES {
            let question = Question::new(qname.clone(), qtype);
            match u.respond(server, &question) {
                Some(answer) => {
                    match answer.rcode {
                        Rcode::NxDomain => drawn.nxdomain += 1,
                        Rcode::Refused => drawn.refused += 1,
                        _ => drawn.answered += usize::from(!answer.answers.is_empty()),
                    }
                    let query = Message::query(0x2020, question);
                    let bytes = answer
                        .to_message(&query)
                        .encode()
                        .expect("synthetic answers encode");
                    digest.eat(&bytes);
                }
                None => {
                    drawn.unserved += 1;
                    digest.eat(b"no server");
                }
            }
            drawn.pairs += 1;
        }
    }
    const DROP_TLDS: [&str; 5] = ["com", "net", "vn", "ng", "pl"];
    for i in 0..DROP_BASES {
        let base = name(&format!("f{i}.{}", rng.pick(&DROP_TLDS)));
        for server in own_servers(&u, &base) {
            drawn.dropping += usize::from(drop(&mut digest, server, &base));
        }
    }
    (digest.0, drawn)
}

#[test]
fn every_generated_question_gets_the_recorded_answer() {
    let seeds = [0x5DA5_2D45, 7, 20_220_525];
    let got: Vec<(u64, Drawn)> = seeds.iter().map(|&seed| digest(seed)).collect();
    for (_, drawn) in &got {
        println!("{drawn:?}");
        assert!(drawn.pairs >= 20_000 / seeds.len(), "{drawn:?}");
        let paths = [
            drawn.answered,
            drawn.nxdomain,
            drawn.refused,
            drawn.unserved,
        ];
        assert!(paths.iter().all(|&n| n > 1_000), "{drawn:?}");
        assert!(drawn.dropping > 20, "{drawn:?}");
    }
    let digests: Vec<String> = got.iter().map(|(d, _)| format!("{d:016x}")).collect();
    println!("{digests:?}");
    assert_eq!(
        digests,
        ["4d777c4548a1d6b2", "00a096d62a6dc906", "978186753c6a9491"]
    );
}
