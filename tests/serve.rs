//! The serving test harness for `pdce serve`: protocol robustness
//! (hostile bytes never panic or wedge the daemon and always get a
//! structured error matching the CLI exit-code taxonomy), the
//! concurrency oracle (concurrent clients, worker counts, and cache
//! temperature never change a single response byte), cache correctness
//! (collision-free keying, bounded eviction, corrupted files degrade to
//! misses), and a fault-injected soak of the real binary.

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;

use pdce::ir::printer::print_program;
use pdce::progen::{structured, GenConfig};
use pdce::serve::cache::CacheKey;
use pdce::serve::protocol::encode_request;
use pdce::serve::{Mode, PersistentCache, ResultPayload, ServeOptions, Server};
use pdce::trace::json;
use pdce_rng::Rng;

/// The 200-CFG corpus every oracle replays, pre-encoded so each replay
/// sends byte-identical request lines.
fn corpus_requests() -> Vec<String> {
    (0..200u64)
        .map(|i| {
            let prog = structured(&GenConfig {
                seed: 9_000 + i,
                target_blocks: 8 + (i as usize % 5) * 4,
                num_vars: 6,
                stmts_per_block: (1, 4),
                out_prob: 0.2,
                loop_prob: 0.3,
                max_depth: 8,
                expr_depth: 2,
                nondet: true,
            });
            encode_request(Some(&format!("r{i}")), &print_program(&prog), Mode::Pde)
        })
        .collect()
}

fn status_of(line: &str) -> f64 {
    json::parse(line)
        .unwrap_or_else(|e| panic!("response is not valid JSON ({e}): {line}"))
        .get("status")
        .and_then(|s| s.as_num())
        .unwrap_or_else(|| panic!("response has no numeric status: {line}"))
}

// ---------------------------------------------------------------------
// Protocol robustness: hostile requests
// ---------------------------------------------------------------------

#[test]
fn hostile_lines_always_get_structured_errors() {
    let server = Arc::new(Server::new(ServeOptions::default()));
    let hostile = [
        "not json at all",
        "{",
        "{}",
        "[]",
        "[1,2,3]",
        "null",
        "42",
        "\"a bare string\"",
        "{\"op\":\"optimize\"}",                          // missing program
        "{\"op\":\"optimize\",\"program\":\"\"}",         // empty program
        "{\"op\":\"optimize\",\"program\":42}",           // wrong type
        "{\"op\":\"launch_missiles\",\"program\":\"x\"}", // unknown op
        "{\"op\":\"optimize\",\"program\":\"prog {\"}",   // truncated program text
        "{\"id\":7,\"op\":\"ping\"}",                     // non-string id
        "{\"op\":\"optimize\",\"program\":\"prog { block e { halt } }\",\"mode\":\"o3\"}",
        "{\"op\":\"optimize\",\"program\":\"prog { block e { halt } }\",\"max_rounds\":-1}",
        "{\"op\":\"optimize\",\"program\":\"prog { block e { halt } }\",\"wall_ms\":\"soon\"}",
        "{\"op\":\"optimize\",\"program\":\"prog { block e { halt } }\"", // truncated JSON
    ];
    for line in hostile {
        let response = server
            .respond_line(line)
            .unwrap_or_else(|| panic!("no response for: {line}"));
        assert_eq!(
            status_of(&response),
            1.0,
            "hostile line must be status 1: {line}"
        );
        assert!(
            json::parse(&response).unwrap().get("error").is_some(),
            "status-1 response carries an error message: {response}"
        );
    }
    // The daemon is not wedged: a well-formed request still works.
    let ok = server
        .respond_line(&encode_request(
            Some("after"),
            "prog { block e { halt } }",
            Mode::Pde,
        ))
        .unwrap();
    assert_eq!(status_of(&ok), 0.0);
}

#[test]
fn mutated_requests_never_panic_and_answer_every_line() {
    // Fuzz the wire layer: random byte edits of a valid request. Every
    // mutant gets exactly one response that is valid JSON with status
    // 0 or 1 (never a panic, never silence, never an internal error).
    let server = Arc::new(Server::new(ServeOptions::default()));
    let base = encode_request(
        Some("f"),
        "prog { block s { x := 1; out(x); goto e } block e { halt } }",
        Mode::Pde,
    );
    let mut rng = Rng::new(0xF00D);
    for _ in 0..400 {
        let mut bytes = base.clone().into_bytes();
        for _ in 0..rng.gen_range_inclusive(1, 4) {
            let at = rng.gen_range(0, bytes.len());
            match rng.gen_range(0, 3) {
                0 => bytes[at] = rng.gen_range(0, 127) as u8,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, b'{'),
            }
        }
        // Newlines would split the request; the reader layer handles
        // that, respond_line is strictly one line.
        let line: String = String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ");
        if line.trim().is_empty() {
            continue;
        }
        let response = server
            .respond_line(&line)
            .unwrap_or_else(|| panic!("no response for mutant: {line}"));
        let status = status_of(&response);
        assert!(
            status == 0.0 || status == 1.0,
            "mutant must be served or rejected as bad input, got {status}: {line}"
        );
    }
}

#[test]
fn oversized_and_non_utf8_requests_are_bounded_errors() {
    let server = Arc::new(Server::new(ServeOptions {
        max_request_bytes: 512,
        ..ServeOptions::default()
    }));
    let mut input: Vec<u8> = Vec::new();
    // A line far over the limit, then invalid UTF-8, then a valid ping:
    // the daemon answers all three and keeps going.
    input.extend_from_slice(format!("{{\"program\":\"{}\"}}\n", "y".repeat(1 << 16)).as_bytes());
    input.extend_from_slice(b"{\"op\":\"ping\",\"id\":\"\xff\xfe\"}\n");
    input.extend_from_slice(b"{\"op\":\"ping\",\"id\":\"ok\"}\n");
    let mut out = Vec::new();
    server
        .serve(std::io::Cursor::new(input), &mut out)
        .expect("serve loop completes");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "every line answered:\n{text}");
    assert_eq!(status_of(lines[0]), 1.0);
    assert!(lines[0].contains("exceeds"));
    assert_eq!(status_of(lines[1]), 1.0);
    assert!(lines[1].contains("UTF-8"));
    assert!(lines[2].contains("\"pong\":true"));
    // The oversized line was not buffered: summary says three requests,
    // two rejected.
    let summary = server.summary();
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.bad_input, 2);
}

// ---------------------------------------------------------------------
// Concurrency oracle: clients × jobs × cache temperature
// ---------------------------------------------------------------------

#[test]
fn concurrent_clients_match_sequential_replay_bytes() {
    let requests = corpus_requests();
    // Sequential reference on a fresh server.
    let reference = Arc::new(Server::new(ServeOptions::default()));
    let expected: Vec<String> = requests
        .iter()
        .map(|r| reference.respond_line(r).unwrap())
        .collect();
    // Four concurrent clients replay the full corpus against one shared
    // server (cold at the start, warming underneath them as they race).
    let shared = Arc::new(Server::new(ServeOptions::default()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let server = Arc::clone(&shared);
                let requests = &requests;
                scope.spawn(move || -> Vec<String> {
                    requests
                        .iter()
                        .map(|r| server.respond_line(r).unwrap())
                        .collect()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("client thread"),
                expected,
                "a concurrent client saw different bytes than the sequential replay"
            );
        }
    });
}

#[test]
fn jobs_and_cache_temperature_never_change_response_bytes() {
    let requests = corpus_requests();
    let run = |jobs: usize, replays: usize| -> Vec<Vec<String>> {
        let server = Arc::new(Server::new(ServeOptions {
            jobs,
            ..ServeOptions::default()
        }));
        (0..replays)
            .map(|_| server.respond_batch(jobs, &requests))
            .collect()
    };
    let seq = run(1, 2);
    let par = run(4, 2);
    // jobs=1 vs jobs=4, and within each: cold replay vs warm replay.
    assert_eq!(seq[0], par[0], "jobs changed cold response bytes");
    assert_eq!(seq[1], par[1], "jobs changed warm response bytes");
    assert_eq!(seq[0], seq[1], "cache temperature changed response bytes");
}

#[test]
fn retired_solver_key_is_ignored_like_any_unknown_key() {
    // Requests once chose a solver engine; every analysis now runs one,
    // so a `"solver"` key — valid name or not — changes nothing: the
    // answer is byte-identical to the request without it, served warm
    // from the same cache entry.
    let server = Server::new(ServeOptions::default());
    let mut escaped = String::new();
    json::write_escaped(
        &mut escaped,
        "prog { block s { x := 1; goto e } block e { halt } }",
    );
    let plain = format!("{{\"id\":\"q\",\"program\":{escaped},\"mode\":\"pde\"}}");
    let cold = server.respond_line(&plain).expect("optimize answers");
    assert_eq!(status_of(&cold), 0.0, "{cold}");
    for solver in ["\"fifo\"", "\"quantum\"", "42"] {
        let line =
            format!("{{\"id\":\"q\",\"program\":{escaped},\"mode\":\"pde\",\"solver\":{solver}}}");
        let response = server.respond_line(&line).expect("optimize answers");
        assert_eq!(response, cold, "solver {solver} changed the answer");
    }
    assert_eq!(server.summary().cache_hits, 3);
}

// ---------------------------------------------------------------------
// Cache correctness
// ---------------------------------------------------------------------

#[test]
fn cache_keys_are_collision_free_over_the_corpus() {
    let mut keys = std::collections::HashSet::new();
    for (i, request) in corpus_requests().iter().enumerate() {
        let program = json::parse(request)
            .unwrap()
            .get("program")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        for options in [
            "mode=pde;rounds=-;pops=-;wall=-;validate=-",
            "mode=pfe;rounds=-;pops=-;wall=-;validate=-",
        ] {
            assert!(
                keys.insert(CacheKey::compute(&program, options).0),
                "cache key collision at corpus program {i} ({options})"
            );
        }
    }
    assert_eq!(keys.len(), 400);
}

/// The raw-text alias key over 10⁵ generated programs and one
/// single-byte mutation of each: distinct request texts never share a
/// key.
#[test]
fn raw_alias_keys_are_collision_free_over_generated_programs() {
    const OPTIONS: &str = "mode=pde;rounds=-;pops=-;wall=-;validate=-;solver=ambient";
    let mut rng = Rng::new(0xa11a5);
    let mut texts = std::collections::HashSet::new();
    for i in 0..100_000u64 {
        let prog = structured(&GenConfig {
            seed: i,
            target_blocks: 2 + (i as usize % 4),
            num_vars: 4,
            stmts_per_block: (0, 2),
            out_prob: 0.2,
            loop_prob: 0.3,
            max_depth: 3,
            expr_depth: 1,
            nondet: true,
        });
        let text = print_program(&prog);
        let mut bytes = text.clone().into_bytes();
        let at = rng.gen_range(0, bytes.len());
        let byte = b' ' + rng.gen_range(0, 95) as u8;
        bytes[at] = if byte == bytes[at] { b'\t' } else { byte };
        texts.insert(String::from_utf8(bytes).unwrap());
        texts.insert(text);
    }
    let keys: std::collections::HashSet<u128> = texts
        .iter()
        .map(|t| CacheKey::raw_alias(t, OPTIONS).0)
        .collect();
    assert!(texts.len() > 100_000, "only {} distinct texts", texts.len());
    assert_eq!(keys.len(), texts.len(), "raw alias key collision");
}

#[test]
fn eviction_under_a_small_byte_bound_stays_correct() {
    let requests = corpus_requests();
    let reference = Server::new(ServeOptions::default());
    let expected: Vec<String> = requests
        .iter()
        .map(|r| reference.respond_line(r).unwrap())
        .collect();
    // A cache far too small for the corpus: constant eviction, but
    // never a wrong (or missing) answer, warm or cold.
    let tiny = Server::new(ServeOptions {
        cache_bytes: 8 * 1024,
        ..ServeOptions::default()
    });
    for replay in 0..2 {
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(
                tiny.respond_line(r).unwrap(),
                expected[i],
                "request {i} (replay {replay}) diverged under eviction pressure"
            );
        }
    }
    // The bound actually bit: the corpus cannot fit, so misses happen
    // on the warm replay too.
    let summary = tiny.summary();
    assert!(
        summary.cache_misses > requests.len() as u64,
        "expected eviction-driven misses, got {summary:?}"
    );
}

#[test]
fn eviction_keeps_cache_bytes_bounded() {
    let mut cache = PersistentCache::in_memory(4 * 1024);
    for i in 0..500u32 {
        let payload = ResultPayload {
            program: format!("prog {{ block e {{ out(v{i}); halt }} }}\n"),
            rounds: 1,
            eliminated: 0,
            sunk: 0,
            inserted: 0,
            rung: "none".into(),
        };
        cache.insert(CacheKey::compute(&payload.program, "mode=pde"), payload);
        assert!(
            cache.bytes() <= 4 * 1024,
            "cache exceeded its byte bound after insert {i}: {} bytes",
            cache.bytes()
        );
    }
    assert!(cache.evictions > 0, "the bound never triggered eviction");
}

#[test]
fn corrupted_cache_file_degrades_to_misses_not_crashes() {
    let dir = std::env::temp_dir().join(format!("pdce-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.cache");
    let requests: Vec<String> = corpus_requests().into_iter().take(20).collect();

    // Populate and persist through a real serve drain.
    let writer_server = Arc::new(Server::new(ServeOptions {
        cache_path: Some(path.clone()),
        ..ServeOptions::default()
    }));
    let expected: Vec<String> = requests
        .iter()
        .map(|r| writer_server.respond_line(r).unwrap())
        .collect();
    writer_server.save_cache().unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.lines().count() > 20, "cache file has entries");

    // Flip bytes in the middle and truncate the tail.
    let mut bytes = saved.into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    bytes[mid + 1] ^= 0x5a;
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&path, &bytes).unwrap();

    // Reload: damaged entries are skipped (misses), survivors still
    // serve, and every response is byte-identical to the reference.
    let reader_server = Arc::new(Server::new(ServeOptions {
        cache_path: Some(path.clone()),
        ..ServeOptions::default()
    }));
    let report = reader_server.cache_load_report();
    assert!(report.skipped > 0, "corruption went undetected: {report:?}");
    assert!(report.loaded > 0, "intact entries survive: {report:?}");
    for (i, r) in requests.iter().enumerate() {
        assert_eq!(
            reader_server.respond_line(r).unwrap(),
            expected[i],
            "request {i} diverged after cache corruption"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_alias_entries_self_heal_to_canonical_misses() {
    let mut cache = PersistentCache::in_memory(1 << 20);
    let raw = CacheKey::compute("prog { block e { halt } }", "mode=pde");
    // Poison the memo: an alias whose canonical entry does not exist.
    // An evicted target and a corrupted mapping look identical here —
    // either way the fast path must miss, never answer wrongly.
    cache.record_alias(raw, CacheKey(0xDEAD_BEEF_DEAD_BEEF_DEAD_BEEF));
    assert_eq!(cache.alias_len(), 1);
    assert!(
        cache.get_raw_alias(raw).is_none(),
        "a poisoned alias must degrade to a miss"
    );
    assert_eq!(
        cache.alias_len(),
        0,
        "the poisoned entry is dropped on first touch"
    );
    // Healed: once the canonical entry exists the same raw key hits.
    let canonical = CacheKey::compute("canonical text", "mode=pde");
    let payload = ResultPayload {
        program: "prog { block e { halt } }\n".into(),
        rounds: 1,
        eliminated: 0,
        sunk: 0,
        inserted: 0,
        rung: "none".into(),
    };
    cache.insert(canonical, payload.clone());
    cache.record_alias(raw, canonical);
    assert_eq!(cache.get_raw_alias(raw).unwrap(), payload);
}

fn health_of(server: &Server, key: &str) -> u64 {
    let line = server.respond_line(r#"{"op":"health"}"#).unwrap();
    json::parse(&line)
        .unwrap()
        .get(key)
        .unwrap()
        .as_num()
        .unwrap() as u64
}

/// A cache entry holds its answer rendered once, and every hit copies
/// it: the cold answer, an alias hit, a canonical (reformatted) hit, a
/// hit after the log is reopened, and hits before and after the log is
/// compacted into a snapshot all carry the same bytes.
#[test]
fn every_kind_of_hit_answers_the_cold_bytes() {
    let dir = std::env::temp_dir().join(format!("pdce-serve-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("identity.cache");
    let opts = || ServeOptions {
        cache_path: Some(path.clone()),
        // Small enough that the corpus churns the log past its
        // compaction floor.
        cache_bytes: 16 * 1024,
        ..ServeOptions::default()
    };
    let requests = corpus_requests();
    let probe = &requests[0];
    let reformatted = probe.replace("\\n", "\\n  ");
    assert_ne!(&reformatted, probe);

    let server = Server::new(opts());
    let cold = server.respond_line(probe).unwrap();
    assert_eq!(status_of(&cold), 0.0);
    assert_eq!(server.respond_line(probe).unwrap(), cold, "alias hit");
    assert_eq!(
        server.respond_line(&reformatted).unwrap(),
        cold,
        "canonical hit"
    );
    let summary = server.summary();
    assert_eq!((summary.cache_hits, summary.cache_misses), (2, 1));
    drop(server);

    let server = Server::new(opts());
    assert_eq!(server.cache_load_report().loaded, 1);
    assert_eq!(server.respond_line(probe).unwrap(), cold, "reopened hit");
    // Other answers churn the bounded cache; the probe stays the most
    // recently used entry, so it survives every eviction and every
    // compaction rewrites it from its stored bytes.
    for request in &requests[1..] {
        server.respond_line(request).unwrap();
        assert_eq!(server.respond_line(probe).unwrap(), cold);
    }
    assert!(
        health_of(&server, "wal_compactions") > 0,
        "the churn must compact the log"
    );
    assert_eq!(
        health_of(&server, "cache_misses"),
        requests.len() as u64 - 1,
        "every other request was computed"
    );
    let hits = server.summary().cache_hits;
    assert_eq!(server.respond_line(&reformatted).unwrap(), cold);
    assert_eq!(server.summary().cache_hits, hits + 1, "compacted hit");
    server.save_cache().unwrap();
    drop(server);

    let server = Server::new(opts());
    assert_eq!(
        server.respond_line(probe).unwrap(),
        cold,
        "hit from the snapshot"
    );
    assert_eq!(server.summary().cache_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The log bytes of a fixed request stream: every corpus program in
/// every mode, then the whole stream again (hits append nothing), under
/// a byte bound small enough to log evictions, then the snapshot a
/// clean save compacts it to. Pinned under `tests/goldens/serve_wal.golden`;
/// refresh with `UPDATE_GOLDENS=1 cargo test --test serve`.
#[test]
fn wal_bytes_of_a_fixed_request_stream_are_pinned() {
    let dir = std::env::temp_dir().join(format!("pdce-serve-wal-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.cache");
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pdce"))
        .collect();
    files.sort();
    let mut stream = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let program = std::fs::read_to_string(file).unwrap();
        for mode in [Mode::Pde, Mode::Pfe, Mode::Dce, Mode::Fce] {
            stream.push(encode_request(
                Some(&format!("g{i}{}", mode.label())),
                &program,
                mode,
            ));
        }
    }
    let server = Server::new(ServeOptions {
        cache_path: Some(path.clone()),
        cache_bytes: 4 * 1024,
        ..ServeOptions::default()
    });
    for request in stream.iter().chain(&stream) {
        assert_eq!(status_of(&server.respond_line(request).unwrap()), 0.0);
    }
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.contains("{\"evict\":"), "the bound must log evictions");
    server.save_cache().unwrap();
    let snapshot = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let got = format!("{log}==== after save ====\n{snapshot}");

    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/serve_wal.golden"
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden).expect("golden present");
    assert!(got == want, "log bytes drifted from {golden}");

    // The pinned snapshot loads whole, and its entries answer hits.
    let (_, pinned) = want.split_once("==== after save ====\n").unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&path, pinned).unwrap();
    let mut cache = PersistentCache::load(&path, 4 * 1024);
    let report = cache.load_report;
    assert_eq!(
        (report.loaded, report.skipped),
        (pinned.lines().count() - 1, 0)
    );
    let key = pinned.lines().nth(1).unwrap().split('"').nth(3).unwrap();
    let key = CacheKey(u128::from_str_radix(key, 16).unwrap());
    assert!(cache.get_fields(key).is_some(), "a pinned entry answers");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Transports and the real binary
// ---------------------------------------------------------------------

#[test]
fn tcp_transport_serves_concurrent_connections() {
    use std::io::{BufRead, BufReader, Write as _};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServeOptions::default()));
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    let request = encode_request(Some("tcp"), "prog { block e { halt } }", Mode::Pde);
    let mut clients: Vec<BufReader<std::net::TcpStream>> = (0..3)
        .map(|_| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(format!("{request}\n").as_bytes()).unwrap();
            BufReader::new(stream)
        })
        .collect();
    let mut responses = Vec::new();
    for client in &mut clients {
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        responses.push(line.trim_end().to_string());
    }
    assert!(responses.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(status_of(&responses[0]), 0.0);
    // Shutdown over one connection stops the whole accept loop.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"shutdown\":true"));
    let summary = serving.join().unwrap().expect("accept loop exits cleanly");
    assert!(summary.shutdown);
}

/// Runs the real `pdce serve` binary over stdio, with an optional
/// `FAULT_INJECT` spec, feeding `input` and collecting both streams.
fn serve_binary(args: &[&str], fault: Option<&str>, input: &str) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdce"));
    cmd.arg("serve").args(args);
    cmd.env_remove("FAULT_INJECT");
    if let Some(spec) = fault {
        cmd.env("FAULT_INJECT", spec);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .expect("stdin writes");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cli_serve_answers_and_exits_zero_on_eof_and_shutdown() {
    let request = encode_request(Some("c1"), "prog { block e { halt } }", Mode::Pde);
    // EOF path.
    let (stdout, stderr, ok) = serve_binary(&[], None, &format!("{request}\n"));
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 1);
    assert!(stderr.contains("eof"));
    // Shutdown path, draining the request queued before it.
    let (stdout, stderr, ok) =
        serve_binary(&[], None, &format!("{request}\n{{\"op\":\"shutdown\"}}\n"));
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 2);
    assert!(stderr.contains("shutdown"));
}

#[test]
fn cli_serve_rejects_bad_flags_with_usage_exit() {
    let (_, stderr, ok) = serve_binary(&["--frobnicate"], None, "");
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
    let (_, stderr, ok) = serve_binary(&["--tcp", "x", "--unix", "y"], None, "");
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"));
}

/// The soak: a bounded replay through the real binary under fault
/// injection. The daemon must survive every rung, answer every request
/// (degraded per the resilience ladder, never dropped), drain on
/// shutdown, and exit 0.
fn soak_under(fault: &str, expect_rungs: &[&str]) {
    let requests: Vec<String> = corpus_requests().into_iter().take(40).collect();
    let mut input = requests.join("\n");
    input.push_str("\n{\"op\":\"shutdown\",\"id\":\"drain\"}\n");
    // --no-cache: every request must actually run the (faulted)
    // optimizer rather than replaying a cached clean answer.
    let (stdout, stderr, ok) = serve_binary(&["--jobs", "2", "--no-cache"], Some(fault), &input);
    assert!(ok, "daemon died under {fault}: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        requests.len() + 1,
        "every request answered plus the shutdown ack"
    );
    let mut degraded = 0usize;
    for line in &lines[..requests.len()] {
        assert_eq!(status_of(line), 0.0, "request failed under {fault}: {line}");
        let rung = json::parse(line)
            .unwrap()
            .get("rung")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        if rung != "none" {
            assert!(
                expect_rungs.contains(&rung.as_str()),
                "unexpected rung `{rung}` under {fault}"
            );
            degraded += 1;
        }
    }
    assert!(
        degraded > 0,
        "fault {fault} never fired — the soak tested nothing"
    );
    assert!(lines[requests.len()].contains("\"shutdown\":true"));
}

#[test]
fn an_answer_after_a_sandboxed_panic_matches_a_fresh_server() {
    // Workers outlive their requests, so with one slot the request
    // after an escaped panic runs on the thread that panicked. It must
    // see nothing the panic left behind: its answer is byte-identical to
    // the same request on a fresh server.
    let requests: Vec<String> = corpus_requests().into_iter().take(2).collect();
    let args = ["--jobs", "1", "--no-cache"];
    let input = format!("{0}\n{0}\n{1}\n", requests[0], requests[1]);
    let (faulted, stderr, ok) = serve_binary(&args, Some("panic:serve:1"), &input);
    assert!(ok, "daemon died under panic:serve:1: {stderr}");
    let faulted: Vec<&str> = faulted.lines().collect();
    assert_eq!(faulted.len(), 3, "every request answered once");
    assert!(
        faulted[0].contains("\"rung\":\"identity\""),
        "the first answer escaped the ladder: {}",
        faulted[0]
    );
    let (fresh, stderr, ok) =
        serve_binary(&args, None, &format!("{}\n{}\n", requests[0], requests[1]));
    assert!(ok, "stderr: {stderr}");
    let fresh: Vec<&str> = fresh.lines().collect();
    assert_eq!(faulted[1..], fresh[..]);
}

#[test]
fn soak_survives_persistent_sink_panics() {
    soak_under("panic:sink:*", &["elimination-only", "identity"]);
}

#[test]
fn soak_survives_persistent_solver_budget_exhaustion() {
    soak_under("budget:solve:*", &["elimination-only", "identity"]);
}

// ---------------------------------------------------------------------
// Unix sockets: stale-file hygiene and idle cost
// ---------------------------------------------------------------------

/// Spawns the real binary listening on a Unix socket; streams are
/// discarded (the test talks over the socket, not stdio).
fn spawn_unix_server(sock: &std::path::Path, extra: &[&str]) -> std::process::Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdce"));
    cmd.arg("serve").arg("--unix").arg(sock).args(extra);
    cmd.env_remove("FAULT_INJECT");
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn().expect("binary spawns")
}

/// Polls until the server accepts a connection (or ten seconds pass).
fn wait_for_socket(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(sock) {
            return stream;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never came up on {}",
            sock.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn cli_serve_unix_probes_live_sockets_and_clears_stale_ones() {
    use std::io::{BufRead, BufReader};
    let dir = std::env::temp_dir().join(format!("pdce-serve-unix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("pdce.sock");
    // Leave a stale socket file behind: bind a listener and drop it
    // without unlinking, exactly what a crashed server leaves on disk.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "the stale socket file is left on disk");
    // The server probes it, finds nobody listening, unlinks, and binds.
    let mut live = spawn_unix_server(&sock, &[]);
    let mut stream = wait_for_socket(&sock);
    // A second server on the same path must refuse to evict the live
    // one rather than silently stealing its socket.
    let out = Command::new(env!("CARGO_BIN_EXE_pdce"))
        .arg("serve")
        .arg("--unix")
        .arg(&sock)
        .output()
        .unwrap();
    assert!(!out.status.success(), "second bind must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("in use by a live server"),
        "stderr names the live conflict: {stderr}"
    );
    // The live server is unharmed by the probe connection: it still
    // answers, then drains on shutdown.
    stream
        .write_all(b"{\"op\":\"ping\",\"id\":\"alive\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\":true"), "live server wedged: {line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"shutdown\":true"), "got: {line}");
    assert!(live.wait().unwrap().success());
    assert!(!sock.exists(), "shutdown removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_unix_daemon_burns_near_zero_cpu() {
    let dir = std::env::temp_dir().join(format!("pdce-serve-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("idle.sock");
    let mut live = spawn_unix_server(&sock, &[]);
    // Hold an idle connection open so both the accept loop and a
    // per-connection read loop sit in their backoff waits.
    let mut stream = wait_for_socket(&sock);
    let cpu_ticks = |pid: u32| -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
        // Fields after the parenthesized comm: state is field 3, so
        // utime (field 14) and stime (15) are at indexes 11 and 12.
        let rest = stat.rsplit(") ").next().unwrap();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    };
    // Let startup settle, then measure two idle seconds.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let before = cpu_ticks(live.id());
    std::thread::sleep(std::time::Duration::from_secs(2));
    let ticks = cpu_ticks(live.id()) - before;
    // With exponential idle backoff the daemon wakes a handful of times
    // per second; a busy-polling regression burns an order of magnitude
    // more. 15 ticks is 0.15s of CPU over 2s idle — far above the
    // healthy cost, far below a spin.
    assert!(
        ticks <= 15,
        "idle daemon burned {ticks} cpu tick(s) over 2s (busy-loop regression?)"
    );
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let _ = live.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pdce serve --metrics-out` renders what the server counts. Each
/// request is sent after the previous answer arrived, so every answer
/// is settled before the next is read. Every server family equals the
/// `health` answer's field, allowing for the health and shutdown
/// requests and the compaction at exit; `pdce_rounds_total` sums the
/// rounds of the two computed replies; and the deterministic series
/// are byte-identical across two runs.
#[test]
fn cli_serve_metrics_out_renders_the_health_counters() {
    use std::io::BufRead;
    let corpus = corpus_requests();
    let (a, b) = (&corpus[0], &corpus[1]);
    let mut requests: Vec<String> = [a, a, b, a, b].into_iter().cloned().collect();
    requests.extend([
        a.replace("\\n", "  "), // the same program, reformatted
        encode_request(Some("bad"), "prog { block", Mode::Pde),
        r#"{"op":"health","id":"h"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ]);
    let dir = std::env::temp_dir().join(format!("pdce-serve-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str| {
        let (cache, prom) = (
            dir.join(format!("{tag}.wal")),
            dir.join(format!("{tag}.prom")),
        );
        let mut child = Command::new(env!("CARGO_BIN_EXE_pdce"))
            .args(["serve", "--cache", cache.to_str().unwrap()])
            .args(["--metrics-out", prom.to_str().unwrap()])
            .env_remove("FAULT_INJECT")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        let mut stdin = child.stdin.take().unwrap();
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let replies: Vec<String> = requests
            .iter()
            .map(|request| {
                writeln!(stdin, "{request}").unwrap();
                let mut reply = String::new();
                stdout.read_line(&mut reply).unwrap();
                reply
            })
            .collect();
        assert!(child.wait().unwrap().success());
        (
            replies,
            std::fs::read_to_string(&prom).expect("metrics file written"),
        )
    };
    let (replies, prom) = run("first");
    let (_, again) = run("second");
    std::fs::remove_dir_all(&dir).ok();

    let statuses: Vec<f64> = replies.iter().map(|r| status_of(r)).collect();
    assert_eq!(statuses, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    let values: std::collections::BTreeMap<&str, u64> = prom
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(series, v)| (series, v.parse().unwrap()))
        .collect();
    let field = |i: usize, key: &str| json::parse(&replies[i]).unwrap().get(key).unwrap().as_num();
    let health = |key: &str| field(7, key).unwrap() as u64;
    // The health answer counts itself, the shutdown request is answered
    // after it, and the cache compacts into a snapshot at exit.
    for (series, key, after_health) in [
        ("pdce_serve_requests_total{status=\"ok\"}", "ok", 1),
        (
            "pdce_serve_requests_total{status=\"bad_input\"}",
            "bad_input",
            0,
        ),
        (
            "pdce_serve_requests_total{status=\"internal\"}",
            "internal",
            0,
        ),
        ("pdce_serve_cache_hits_total", "cache_hits", 0),
        ("pdce_serve_cache_misses_total", "cache_misses", 0),
        ("pdce_serve_wal_appends_total", "wal_appends", 0),
        ("pdce_serve_wal_fsyncs_total", "wal_fsyncs", 0),
        ("pdce_serve_wal_compactions_total", "wal_compactions", 1),
        ("pdce_serve_wal_recovered_total", "wal_recovered", 0),
        ("pdce_serve_wal_discarded_total", "wal_discarded", 0),
        ("pdce_serve_quarantine_hits_total", "quarantine_hits", 0),
        ("pdce_serve_watchdog_timeouts_total", "wedged", 0),
    ] {
        let want = health(key) + after_health;
        assert_eq!(values.get(series), Some(&want), "{series}:\n{prom}");
    }
    let counts = ["ok", "bad_input", "cache_hits", "cache_misses"].map(health);
    assert_eq!(counts, [7, 1, 4, 2]);
    let rounds = (field(0, "rounds").unwrap() + field(2, "rounds").unwrap()) as u64;
    assert!(rounds > 0);
    assert_eq!(values.get("pdce_rounds_total"), Some(&rounds));
    assert_eq!(
        values.get("pdce_driver_runs_total{driver=\"pde\"}"),
        Some(&2)
    );

    let deterministic = |text: &str| -> Vec<String> {
        let stable: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                l.strip_prefix("# STABILITY ")?
                    .strip_suffix(" deterministic")
            })
            .collect();
        let family = |l: &str| l.split(['{', ' ']).next().unwrap_or("").to_string();
        text.lines()
            .filter(|l| !l.starts_with('#') && stable.contains(&family(l).as_str()))
            .map(String::from)
            .collect()
    };
    let det = deterministic(&prom);
    assert!(
        det.contains(&"pdce_serve_cache_hits_total 4".to_string()),
        "{det:?}"
    );
    assert_eq!(
        det,
        deterministic(&again),
        "deterministic series differ between runs"
    );
}
