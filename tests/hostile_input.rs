//! Hostile input through every text reader that faces the outside:
//! batch manifests, serve request lines, raw JSON and PQR files.
//!
//! Seeded byte-level mutations of valid documents (truncate, splice,
//! flip, duplicate a key, swap in a hostile token, wrap in deep nesting)
//! run on a 2 MiB-stack thread — the stack a `polar serve` connection
//! thread gets. The contract: no reader panics or overflows, every
//! reported offset lies inside the input, and whatever `Json::parse`
//! accepts is reproduced by writing it back out and parsing again.

use polar_energy::molecule::io::{parse_pqr, ParseError};
use polar_energy::molecule::json::Json;
use polar_energy::molecule::manifest::parse_manifest;
use polar_energy::molecule::request::parse_request;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MANIFEST: &str = r#"{ "jobs": [
  { "name": "lig \"a\" \u00e9\ud83d\ude00\u0001", "generate": "globular", "n_atoms": 240,
    "seed": 18446744073709551615, "eps_born": 0.4, "eps_epol": 5e-1, "repeat": 4,
    "frames": { "count": 3, "max_step": 0.05, "seed": 9 } },
  { "file": "structures/complex.pqr", "eps_born": 0.9 }
] }"#;

const REQUEST: &str = r#"{"id":"café-😀\t\u0002","tenant":"acme","deadline_ms":250,"panic":false,"generate":"ligand","n_atoms":60,"seed":7,"eps_born":0.6}"#;

const PQR: &str = "REMARK demo\n\
ATOM      1  N   ALA A   1      -0.677   1.230   0.000 -0.3000 1.8240\n\
ATOM      2  CA  ALA A   1       0.000   0.000   0.000  0.1000 1.9080\n\
HETATM    3  O   HOH     2       1.500   0.250  -0.750 -0.8000 1.6612\n\
END\n";

/// Tokens a JSON reader must refuse (or survive): lone surrogates,
/// numbers outside `f64` or the grammar, stray structure.
const HOSTILE_TOKENS: &[&str] = &[
    "\"\\ud800\"",
    "\"\\udc00x\"",
    "\"\\ud83d\\u0041\"",
    "\"\\u12\"",
    "1e999",
    "-1e999",
    "-",
    "01",
    "1.",
    ".5",
    "+1",
    "18446744073709551616",
    "1e-400",
    "nul",
    "\"\\",
    "\"\u{0}\u{1f}\"",
    "{\"a\":1,\"a\":2}",
    "[,]",
    "{,}",
];

/// Run `f` on a thread with the stack a serve connection thread has.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("a reader panicked or overflowed its stack");
}

/// One mutation of `base`, chosen and placed by `rng`.
fn mutate(base: &str, rng: &mut StdRng) -> String {
    let mut bytes = base.as_bytes().to_vec();
    let at = rng.random_range(0..bytes.len());
    match rng.random_range(0..6u32) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << rng.random_range(0..8u32),
        2 => {
            // Splice a slice of the document over another position.
            let from = rng.random_range(0..bytes.len());
            let len = rng.random_range(0..bytes.len() - from + 1).min(40);
            let piece = bytes[from..from + len].to_vec();
            bytes.splice(at..at, piece);
        }
        3 => {
            // Duplicate a key: repeat the first member after its '{'.
            if let Some(open) = base.find('{') {
                if let Some(comma) = base[open..].find(',') {
                    let member = base[open + 1..=open + comma].to_string();
                    bytes.splice(open + 1..open + 1, member.into_bytes());
                }
            }
        }
        4 => {
            // Replace the value after some ':' with a hostile token.
            let token = HOSTILE_TOKENS[rng.random_range(0..HOSTILE_TOKENS.len())];
            let find = |from: usize, stops: &[u8]| {
                let hit = bytes[from..].iter().position(|b| stops.contains(b));
                hit.map(|i| from + i)
            };
            let start = find(at, b":").map_or(at, |colon| colon + 1);
            let end = find(start, b",}]").unwrap_or(bytes.len());
            bytes.splice(start..end, token.bytes());
        }
        _ => {
            let byte = [b'[', b'{', b'"', b'\\', b'\n', 0xff][rng.random_range(0..6usize)];
            bytes.insert(at, byte);
        }
    }
    // The readers take `&str`; the server rejects invalid UTF-8 before it
    // gets this far, so mutate in bytes and repair.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The offset a `manifest JSON, byte N: …` error names, if it names one.
fn reported_offset(e: &ParseError) -> Option<usize> {
    let text = e.to_string();
    let rest = &text[text.find("manifest JSON, byte ")? + "manifest JSON, byte ".len()..];
    rest[..rest.find(':')?].parse().ok()
}

fn check_json(text: &str) {
    match Json::parse(text) {
        Ok(v) => {
            let written = v.to_string();
            let back = Json::parse(&written)
                .unwrap_or_else(|e| panic!("{written:?} (written from {text:?}): {e}"));
            assert_eq!(back, v, "{text:?} -> {written:?}");
        }
        Err(e) => assert!(e.offset <= text.len(), "{e} outside {text:?}"),
    }
}

fn check_readers(text: &str) {
    check_json(text);
    for e in [
        parse_manifest(text).err(),
        parse_request(text).map(|_| ()).err(),
    ]
    .into_iter()
    .flatten()
    {
        if let Some(offset) = reported_offset(&e) {
            assert!(offset <= text.len(), "{e} outside {text:?}");
        }
    }
}

#[test]
fn the_seed_documents_are_valid() {
    let m = parse_manifest(MANIFEST).expect("manifest");
    assert_eq!(m.jobs[0].name, "lig \"a\" é😀\u{1}");
    let r = parse_request(REQUEST).expect("request");
    assert!(format!("{r:?}").contains("café-😀\\t\\u{2}"), "{r:?}");
    assert_eq!(parse_pqr(PQR, "demo").expect("pqr").len(), 3);
    check_json(MANIFEST);
    check_json(REQUEST);
}

#[test]
fn mutated_json_documents_never_panic_and_report_offsets_in_range() {
    on_small_stack(|| {
        let mut rng = StdRng::seed_from_u64(0x5eed_0014);
        for base in [MANIFEST, REQUEST] {
            for _ in 0..4000 {
                let mut text = mutate(base, &mut rng);
                // Stack a second mutation on every other document.
                if rng.random::<bool>() && !text.is_empty() {
                    text = mutate(&text, &mut rng);
                }
                check_readers(&text);
            }
        }
        for token in HOSTILE_TOKENS {
            check_readers(token);
            check_readers(&format!(
                "{{\"id\":{token},\"generate\":\"ligand\",\"n_atoms\":5}}"
            ));
            check_readers(&format!(
                "{{\"jobs\":[{{\"generate\":\"ligand\",\"n_atoms\":{token}}}]}}"
            ));
        }
    });
}

#[test]
fn a_megabyte_of_nesting_is_an_error_at_a_byte_not_a_stack_overflow() {
    on_small_stack(|| {
        for open in ["[", "{", "{\"a\":", "[{\"jobs\":", " [\n"] {
            let text = open.repeat((1 << 20) / open.len());
            let e = Json::parse(&text).expect_err("unbalanced");
            assert!(e.offset <= text.len(), "{e}");
            for err in [
                parse_request(&text).map(|_| ()).unwrap_err(),
                parse_manifest(&text).map(|_| ()).unwrap_err(),
            ] {
                let offset = reported_offset(&err).expect("a byte offset");
                assert!(offset <= text.len(), "{err}");
            }
        }
        // Balanced, and valid JSON apart from its depth.
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let e = Json::parse(&deep).expect_err("too deep");
        assert!(e.message.contains("nesting deeper"), "{e}");
        // A request wrapped once more than the schema allows is refused by
        // the schema, not the depth bound.
        let e = parse_request(&format!("[{REQUEST}]")).unwrap_err();
        assert!(e.to_string().contains("must be an object"), "{e}");
    });
}

#[test]
fn an_epsilon_that_would_panic_a_separation_test_is_refused_where_it_enters() {
    use polar_energy::molecule::manifest::{check_eps, mib_to_bytes};
    // `polar energy two.pqr --eps-born 0`, `--eps-epol nan` and
    // `--eps-epol -0.5` used to die in `separation_factor_r6` /
    // `BinScheme::new`; the CLI now holds both options to this rule.
    for (option, text) in [
        ("--eps-born", "0"),
        ("--eps-epol", "nan"),
        ("--eps-epol", "-0.5"),
    ] {
        let eps: f64 = text.parse().expect("f64 syntax");
        let e = check_eps(option, eps).expect_err(text);
        assert!(e.starts_with(option), "{e}");
        assert!(e.contains("must be a finite positive number, got"), "{e}");
    }
    for eps in [f64::INFINITY, f64::NEG_INFINITY, -0.0] {
        assert!(check_eps("eps", eps).is_err(), "{eps}");
    }
    for eps in [f64::MIN_POSITIVE, 1e-6, 0.9, 50.0] {
        assert_eq!(check_eps("eps", eps), Ok(eps));
    }
    // `--cache-mb` / `--quota-mb`: `N << 20` used to wrap to a zero-byte cache.
    assert!(mib_to_bytes("--cache-mb", usize::MAX >> 19).is_err());
    // The same rule, with the same words, in the two JSON readers.
    for text in ["0", "-0.5", "-0.0", "0e7"] {
        for key in ["eps_born", "eps_epol"] {
            let job = format!(r#"{{"generate":"ligand","n_atoms":5,"{key}":{text}}}"#);
            let request = parse_request(&job).map(|_| ()).unwrap_err().to_string();
            let manifest = parse_manifest(&format!(r#"{{"jobs":[{job}]}}"#))
                .map(|_| ())
                .unwrap_err()
                .to_string();
            for e in [request, manifest] {
                assert!(
                    e.contains(&format!("{key}: must be a finite positive number")),
                    "{e}"
                );
            }
        }
    }
}

#[test]
fn mutated_pqr_text_never_panics_and_names_a_line_inside_the_file() {
    on_small_stack(|| {
        let mut rng = StdRng::seed_from_u64(0x5eed_0015);
        for _ in 0..4000 {
            let text = mutate(PQR, &mut rng);
            match parse_pqr(&text, "mutant") {
                Ok(mol) => assert!(mol.len() <= text.lines().count()),
                Err(ParseError::Malformed { line, .. }) => {
                    assert!(
                        line <= text.lines().count().max(1),
                        "line {line} of {text:?}"
                    )
                }
                Err(_) => {}
            }
        }
    });
}
