//! Chaos acceptance: one server, one adversarial client session mixing
//! malformed JSON, NaN-coordinate molecules, over-quota tenants,
//! deliberately panicking jobs and deadline-busting requests. The
//! server must answer every line with a typed response, keep serving
//! throughout, and produce a final drained report whose counters
//! reconcile: `admitted == completed + shed + deadline_exceeded +
//! panicked + failed` and `requests == admitted + rejected + control`.

use polar_serve::{start, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn roundtrip(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("every line is answered");
    assert!(!resp.trim().is_empty(), "empty response to {line}");
    resp.trim().to_string()
}

#[test]
fn chaos_mix_keeps_the_server_answering_and_the_report_reconciles() {
    // A PQR with a NaN coordinate: the typed loader must refuse it and
    // the server must turn that into an `error` response, not a crash.
    let dir = std::env::temp_dir().join(format!("polar_serve_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("nan.pqr"), "ATOM 1 N ALA 1 NaN 0.0 0.0 0.1 1.5\n").unwrap();

    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        // A one-byte quota: every tenant insert evicts that tenant's
        // previous entries — maximal quota churn, zero cross-tenant harm.
        tenant_quota_bytes: Some(1),
        base_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("bind");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let r = &mut reader;
    let s = &mut stream;

    // Warm a key, then hit it.
    let base = r#""generate":"globular","n_atoms":130,"seed":3"#;
    let cold = roundtrip(r, s, &format!("{{\"id\":\"cold\",{base}}}"));
    assert!(
        cold.contains("\"status\":\"ok\"") && cold.contains("\"cache_hit\":false"),
        "{cold}"
    );
    let warm = roundtrip(r, s, &format!("{{\"id\":\"warm\",{base}}}"));
    assert!(
        warm.contains("\"status\":\"ok\"") && warm.contains("\"cache_hit\":true"),
        "{warm}"
    );

    // Malformed JSON and an invalid job: typed rejections.
    let bad = roundtrip(r, s, "{oops");
    assert!(bad.contains("\"status\":\"bad_request\""), "{bad}");
    let bad = roundtrip(r, s, r#"{"generate":"globular"}"#);
    assert!(bad.contains("\"status\":\"bad_request\""), "{bad}");

    // NaN-coordinate molecule: a typed solve-side failure.
    let nan = roundtrip(r, s, r#"{"id":"nan","file":"nan.pqr"}"#);
    assert!(nan.contains("\"status\":\"error\""), "{nan}");
    assert!(nan.contains("non-finite"), "{nan}");

    // A chaos panic on the warm key: contained, typed, and the poisoned
    // entry is evicted...
    let boom = roundtrip(r, s, &format!("{{\"id\":\"boom\",{base},\"panic\":true}}"));
    assert!(boom.contains("\"status\":\"panicked\""), "{boom}");
    // ...so the same geometry rebuilds cleanly on the next request.
    let rebuilt = roundtrip(r, s, &format!("{{\"id\":\"rebuilt\",{base}}}"));
    assert!(
        rebuilt.contains("\"status\":\"ok\"") && rebuilt.contains("\"cache_hit\":false"),
        "{rebuilt}"
    );

    // A deadline the job cannot possibly meet.
    let late = roundtrip(
        r,
        s,
        r#"{"id":"late","generate":"globular","n_atoms":130,"seed":8,"deadline_ms":0}"#,
    );
    assert!(late.contains("\"status\":\"deadline_exceeded\""), "{late}");

    // An over-quota tenant churning its own cache budget.
    for seed in 20..23 {
        let ok = roundtrip(
            r,
            s,
            &format!(
                "{{\"id\":\"q{seed}\",\"tenant\":\"greedy\",\"generate\":\"globular\",\"n_atoms\":130,\"seed\":{seed}}}"
            ),
        );
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    }

    // A burst into the 2-deep queue with one worker: load shedding must
    // kick in, and every burst line still gets exactly one response.
    let burst = 10;
    for i in 0..burst {
        let line = format!(
            "{{\"id\":\"burst{i}\",\"generate\":\"globular\",\"n_atoms\":300,\"seed\":{}}}\n",
            100 + i
        );
        s.write_all(line.as_bytes()).unwrap();
    }
    s.flush().unwrap();
    let (mut burst_ok, mut burst_shed) = (0, 0);
    for _ in 0..burst {
        let mut resp = String::new();
        r.read_line(&mut resp).expect("one response per burst line");
        if resp.contains("\"status\":\"ok\"") {
            burst_ok += 1;
        } else if resp.contains("\"status\":\"shed\"") {
            assert!(resp.contains("retry_after_ms"), "{resp}");
            burst_shed += 1;
        } else {
            panic!("unexpected burst response {resp}");
        }
    }
    assert!(burst_shed > 0, "a 10-burst into a 2-deep queue must shed");
    assert!(burst_ok > 0, "admitted burst work still completes");

    // After all of that the server still answers a health probe.
    let health = roundtrip(r, s, r#"{"cmd":"health"}"#);
    assert!(health.contains("\"healthy\":true"), "{health}");

    // Graceful drain over the wire: final report, reconciled.
    let drained = roundtrip(r, s, r#"{"cmd":"drain"}"#);
    assert!(drained.contains("\"status\":\"drained\""), "{drained}");
    assert!(drained.contains("\"reconciles\":true"), "{drained}");
    assert!(drained.contains("\"drained\":true"), "{drained}");

    let report = handle.join();
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.rejected, 2, "{report:?}");
    assert_eq!(report.failed, 1, "the NaN molecule: {report:?}");
    assert_eq!(report.panicked, 1, "{report:?}");
    assert_eq!(report.deadline_exceeded, 1, "{report:?}");
    assert_eq!(report.shed, burst_shed, "{report:?}");
    assert_eq!(report.completed, 6 + burst_ok, "{report:?}");
    assert_eq!(report.control, 2, "{report:?}");
    assert!(report.cache_hits >= 1, "{report:?}");
    assert!(report.poison_evictions >= 1, "{report:?}");
    assert!(report.quota_evictions >= 1, "{report:?}");
    assert!(report.latency_ms.total() > 0, "{report:?}");
    assert!(report.drained);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two line-reader regressions. A request whose multi-byte character
/// straddles a read-timeout tick used to lose its prefix and get the
/// connection closed with no response; a client that never sent a newline
/// grew the server's buffer without bound and was only judged oversized
/// once (if ever) the newline came.
#[test]
fn split_utf8_and_newline_less_streams_get_exactly_one_response_each() {
    let cfg = ServeConfig {
        max_request_bytes: 4096,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("bind");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let r = &mut reader;
    let s = &mut stream;

    // "café": stop after the first byte of the two-byte é, wait out
    // several 100 ms read ticks, then send the rest.
    let line = "{\"id\":\"café\",\"generate\":\"ligand\",\"n_atoms\":40}\n";
    let split = line.find('é').unwrap() + 1;
    s.write_all(&line.as_bytes()[..split]).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    s.write_all(&line.as_bytes()[split..]).unwrap();
    let mut resp = String::new();
    r.read_line(&mut resp).expect("the split line is answered");
    assert!(
        resp.contains("\"status\":\"ok\"") && resp.contains("\"id\":\"café\""),
        "{resp}"
    );

    // Bytes that are not UTF-8 at all: a typed rejection, same connection.
    s.write_all(b"{\"id\":\"\xff\xfe\"}\n").unwrap();
    let bad = roundtrip(r, s, r#"{"cmd":"health"}"#);
    assert!(
        bad.contains("\"status\":\"bad_request\"") && bad.contains("UTF-8"),
        "{bad}"
    );
    let mut health = String::new();
    r.read_line(&mut health).unwrap();
    assert!(health.contains("\"healthy\":true"), "{health}");

    // 64 KiB with no newline: answered as soon as the limit is crossed,
    // while the line is still open...
    s.write_all(&vec![b'['; 64 << 10]).unwrap();
    s.flush().unwrap();
    let mut over = String::new();
    r.read_line(&mut over).expect("answered before the newline");
    assert!(
        over.contains("\"status\":\"bad_request\"") && over.contains("4096-byte limit"),
        "{over}"
    );
    // ...and only once: the rest of the line, newline included, is
    // discarded, so the next response belongs to the next request.
    s.write_all(&vec![b'['; 8 << 10]).unwrap();
    let health = roundtrip(r, s, "]\n{\"cmd\":\"health\"}");
    assert!(health.contains("\"healthy\":true"), "{health}");

    // A deeply nested line inside the limit: the reader's depth bound
    // answers with a byte offset instead of overflowing the stack.
    let deep = roundtrip(r, s, &"[".repeat(4000));
    assert!(
        deep.contains("\"status\":\"bad_request\"") && deep.contains("byte 64: nesting deeper"),
        "{deep}"
    );
    // The `\\uXXXX` spelling of the same id (Python's default) parses too.
    let ok = roundtrip(
        r,
        s,
        r#"{"id":"caf\u00e9-\ud83d\ude00","generate":"ligand","n_atoms":40}"#,
    );
    assert!(
        ok.contains("\"status\":\"ok\"") && ok.contains("\"id\":\"café-😀\""),
        "{ok}"
    );
    // A duplicate key is refused, not last-wins: this does not drain.
    let dup = roundtrip(r, s, r#"{"cmd":"health","cmd":"drain"}"#);
    assert!(
        dup.contains("\"status\":\"bad_request\"") && dup.contains("byte 16: duplicate key"),
        "{dup}"
    );

    let report = handle.drain();
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.completed, 2, "{report:?}");
    assert_eq!(report.rejected, 4, "{report:?}");
    assert_eq!(report.control, 2, "{report:?}");
    assert_eq!(report.requests, 8, "{report:?}");
}
