//! Chaos soak for the self-healing serving plane: the real `pdce
//! serve` binary under mid-flight SIGKILL + restart cycles with a
//! shared crash-consistent cache, torn/truncated/bitflipped WAL tails
//! between restarts, randomized `FAULT_INJECT` schedules, watchdog
//! rescue of stalled and wedged workers, quarantine persistence, and
//! panics that escape the optimizer's ladder.
//!
//! The invariants the soak drives at:
//! - every request is eventually answered exactly once, byte-identical
//!   to a clean reference server (crashes lose in-flight responses,
//!   never produce wrong ones);
//! - warm replays after recovery are byte-identical to cold compute;
//! - no fault schedule, stall, or wedge ever drops an answer or kills
//!   the daemon.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdce::ir::printer::print_program;
use pdce::progen::{structured, GenConfig};
use pdce::serve::protocol::encode_request;
use pdce::serve::{Mode, ServeOptions, Server};
use pdce::trace::json;
use pdce_rng::Rng;

/// The chaos corpus: pre-encoded request lines, so every replay sends
/// byte-identical bytes and can be checked against the reference.
fn corpus(n: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let prog = structured(&GenConfig {
                seed: 77_000 + i,
                target_blocks: 8 + (i as usize % 4) * 4,
                num_vars: 6,
                stmts_per_block: (1, 4),
                out_prob: 0.2,
                loop_prob: 0.3,
                max_depth: 8,
                expr_depth: 2,
                nondet: true,
            });
            encode_request(Some(&format!("c{i}")), &print_program(&prog), Mode::Pde)
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

fn rung_of(line: &str) -> String {
    json::parse(line)
        .unwrap()
        .get("rung")
        .and_then(|r| r.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("response has no rung: {line}"))
}

fn health_field(line: &str, field: &str) -> f64 {
    json::parse(line)
        .unwrap()
        .get(field)
        .and_then(|v| v.as_num())
        .unwrap_or_else(|| panic!("health has no numeric `{field}`: {line}"))
}

/// Spawns the binary listening on a Unix socket with a persistent
/// cache, under an optional `FAULT_INJECT` schedule; stdio is discarded
/// (the test talks over the socket).
fn spawn_server(sock: &Path, cache: &Path, extra: &[&str], fault: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdce"));
    cmd.arg("serve")
        .arg("--unix")
        .arg(sock)
        .arg("--cache")
        .arg(cache)
        .arg("--jobs")
        .arg("2")
        .arg("--fsync-every")
        .arg("1")
        .args(extra);
    cmd.env_remove("FAULT_INJECT");
    if let Some(spec) = fault {
        cmd.env("FAULT_INJECT", spec);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn().expect("binary spawns")
}

/// Asks a server for its health counters over an open connection.
fn health_of(stream: &mut std::os::unix::net::UnixStream, reader: &mut impl BufRead) -> String {
    stream
        .write_all(b"{\"op\":\"health\",\"id\":\"h\"}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// Sends one request line and reads its one-line answer.
fn ask(
    stream: &mut std::os::unix::net::UnixStream,
    reader: &mut impl BufRead,
    line: &str,
) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn connect(sock: &Path) -> std::os::unix::net::UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(sock) {
            return stream;
        }
        assert!(
            Instant::now() < deadline,
            "server never came up on {}",
            sock.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdce-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Damages the cache log the way a crash (or bad disk) does: a torn
/// half-line append, a truncated tail, or a flipped byte near the end.
/// Recovery must replay the longest valid prefix and recompute the
/// rest — damage can cost misses, never wrong answers.
fn damage_wal(path: &Path, cycle: usize) {
    let mut bytes = std::fs::read(path).expect("cache log exists after a crash");
    match cycle % 3 {
        0 => bytes.extend_from_slice(b"{\"insert\":{\"key\":\"torn-mid-wri"),
        1 => {
            let keep = bytes.len().saturating_sub(9);
            bytes.truncate(keep);
        }
        _ => {
            let at = bytes.len().saturating_sub(bytes.len() / 8 + 1);
            bytes[at] ^= 0x20;
        }
    }
    std::fs::write(path, &bytes).unwrap();
}

// ---------------------------------------------------------------------
// Kill/restart cycles over a shared crash-consistent cache
// ---------------------------------------------------------------------

#[test]
fn kill_restart_cycles_lose_no_requests_and_warm_replays_are_byte_identical() {
    let dir = fresh_dir("kill");
    let sock = dir.join("chaos.sock");
    let cache = dir.join("chaos.cache");
    let requests = corpus(24);
    // Clean in-process reference: the byte-exact expected answer for
    // every request, independent of jobs, cache temperature, crashes.
    let reference_server = Arc::new(Server::new(ServeOptions::default()));
    let reference: Vec<String> = requests
        .iter()
        .map(|r| reference_server.respond_line(r).unwrap())
        .collect();

    let mut answered: Vec<Option<String>> = vec![None; requests.len()];
    let mut rng = Rng::new(0xC4A0_5EED);

    // Three SIGKILL cycles: each replays everything still unanswered,
    // reads a random prefix of the responses, then kills the server
    // mid-flight and corrupts the log tail before the next restart.
    for cycle in 0..3 {
        let pending: Vec<usize> = (0..requests.len())
            .filter(|&i| answered[i].is_none())
            .collect();
        assert!(!pending.is_empty(), "cycle {cycle} has work left");
        let mut child = spawn_server(&sock, &cache, &[], None);
        let mut stream = connect(&sock);
        for &i in &pending {
            stream.write_all(requests[i].as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        // Accept between 1 and half the pending responses, then kill.
        let take = 1 + rng.gen_range(0, (pending.len() / 2).max(1));
        let mut reader = BufReader::new(stream);
        for &i in pending.iter().take(take) {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "torn response line: {line}");
            let line = line.trim_end().to_string();
            assert!(
                answered[i].replace(line).is_none(),
                "request {i} answered twice"
            );
        }
        child.kill().expect("SIGKILL lands");
        let _ = child.wait();
        // Responses the kernel had buffered die with the dropped
        // stream: the client's view is "unanswered", and the next
        // cycle replays them.
        damage_wal(&cache, cycle);
    }

    // Final clean cycle: finish the remainder, then a full warm replay.
    let mut child = spawn_server(&sock, &cache, &[], None);
    let stream = connect(&sock);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let pending: Vec<usize> = (0..requests.len())
        .filter(|&i| answered[i].is_none())
        .collect();
    assert!(
        !pending.is_empty(),
        "the kill cycles answered everything; nothing left to prove recovery on"
    );
    for &i in &pending {
        stream.write_all(requests[i].as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    for &i in &pending {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        answered[i] = Some(line.trim_end().to_string());
    }

    // Exactly-once, byte-identical: every request has one accepted
    // answer and it matches the clean reference.
    let mut lost = 0usize;
    for (i, got) in answered.iter().enumerate() {
        let got = got.as_ref().unwrap_or_else(|| {
            lost += 1;
            panic!("request {i} lost across restarts")
        });
        assert_eq!(status_of(got), 0.0, "request {i} failed: {got}");
        assert_eq!(
            got, &reference[i],
            "request {i} diverged from the clean reference after crashes"
        );
    }
    assert_eq!(lost, 0, "requests lost");

    // Warm replays on the recovered server: byte-identical again, and
    // served from the cache exactly where it holds the answer. Log
    // damage discards records of requests answered before a kill, and
    // those are never resent, so the first replay misses exactly the
    // requests missing from the cache (the test's requests are its only
    // entries); the second replays a complete cache.
    let recovered = health_of(&mut stream, &mut reader);
    assert!(
        health_field(&recovered, "wal_recovered") > 0.0,
        "the final restart recovered nothing from the log: {recovered}"
    );
    assert_eq!(
        health_field(&recovered, "cache_entries"),
        health_field(&recovered, "wal_recovered") + health_field(&recovered, "cache_misses"),
        "every entry is a recovered record or an answer computed since: {recovered}"
    );
    let mut before = recovered;
    for replay in 0..2 {
        let cached = health_field(&before, "cache_entries");
        for (i, request) in requests.iter().enumerate() {
            stream.write_all(request.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim_end(),
                reference[i],
                "warm replay {replay}, request {i} diverged after recovery"
            );
        }
        let after = health_of(&mut stream, &mut reader);
        let delta = |field| health_field(&after, field) - health_field(&before, field);
        assert_eq!(
            (delta("cache_hits"), delta("cache_misses")),
            (cached, requests.len() as f64 - cached),
            "warm replay {replay} was not served from the recovered cache; \
             before: {before} after: {after}"
        );
        assert_eq!(
            health_field(&after, "cache_entries"),
            requests.len() as f64,
            "{after}"
        );
        before = after;
    }
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"shutdown\":true"));
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Randomized fault schedules through the real binary
// ---------------------------------------------------------------------

/// Runs the binary over stdio with a `FAULT_INJECT` schedule, feeding
/// `input`, returning (stdout, stderr, success).
fn serve_stdio(args: &[&str], fault: Option<&str>, input: &str) -> (String, String, bool) {
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
fn randomized_fault_schedules_never_drop_an_answer() {
    let requests = corpus(12);
    let mut input = requests.join("\n");
    input.push_str("\n{\"op\":\"shutdown\",\"id\":\"drain\"}\n");
    let mut rng = Rng::new(0xFA17_5EED);
    for trial in 0..5u32 {
        // One or two independent directives per trial, drawn from the
        // real instrumentation sites with random occurrence picks.
        let mut directives = Vec::new();
        for _ in 0..rng.gen_range_inclusive(1, 2) {
            let (site, kinds): (&str, &[&str]) = match rng.gen_range(0, 5) {
                0 => ("sink", &["panic", "budget"]),
                1 => ("solve", &["panic", "budget"]),
                2 => ("serve", &["panic", "budget"]),
                3 => ("dead", &["bitflip"]),
                _ => ("faint", &["bitflip"]),
            };
            let kind = kinds[rng.gen_range(0, kinds.len())];
            let nth = match rng.gen_range(0, 3) {
                0 => "*".to_string(),
                _ => format!("{}", rng.gen_range_inclusive(1, 6)),
            };
            directives.push(format!("{kind}:{site}:{nth}"));
        }
        let spec = directives.join(",");
        let (stdout, stderr, ok) = serve_stdio(&["--jobs", "2", "--no-cache"], Some(&spec), &input);
        assert!(ok, "trial {trial}: daemon died under `{spec}`: {stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(
            lines.len(),
            requests.len() + 1,
            "trial {trial} (`{spec}`): every request answered plus the shutdown ack"
        );
        for line in &lines[..requests.len()] {
            assert_eq!(
                status_of(line),
                0.0,
                "trial {trial} (`{spec}`): request failed: {line}"
            );
        }
        assert!(lines[requests.len()].contains("\"shutdown\":true"));
    }
}

// ---------------------------------------------------------------------
// Watchdog: stalled and wedged workers
// ---------------------------------------------------------------------

#[test]
fn soft_deadline_frees_a_cooperatively_stalled_request() {
    // `stall` sleeps while polling the cancellation flag (up to 10s).
    // The soft watchdog deadline raises the flag at 100ms, the request
    // degrades down the ladder, and the batch finishes far inside the
    // stall term — proof the cancel actually freed the worker.
    let requests = corpus(8);
    let mut input = requests.join("\n");
    input.push_str("\n{\"op\":\"shutdown\"}\n");
    let started = Instant::now();
    let (stdout, stderr, ok) = serve_stdio(
        &[
            "--jobs",
            "2",
            "--no-cache",
            "--watchdog-soft-ms",
            "100",
            "--watchdog-hard-ms",
            "5000",
        ],
        Some("stall:solve:1"),
        &input,
    );
    assert!(ok, "daemon died under stall: {stderr}");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "the soft deadline never freed the stalled worker"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), requests.len() + 1, "every request answered");
    let mut degraded = 0usize;
    for line in &lines[..requests.len()] {
        assert_eq!(status_of(line), 0.0, "stalled batch lost a request: {line}");
        if rung_of(line) != "none" {
            degraded += 1;
        }
    }
    assert!(
        degraded >= 1,
        "the stall never degraded anything:\n{stdout}"
    );
}

#[test]
fn hard_deadline_abandons_a_wedged_worker_and_answers_its_request() {
    // `wedge` sleeps through cancellation (1.5s). The hard deadline at
    // 300ms abandons the hostage, synthesizes the identity answer at
    // the `watchdog-timeout` rung, and the siblings finish on a
    // replacement worker.
    let requests = corpus(8);
    let mut input = requests.join("\n");
    input.push_str("\n{\"op\":\"shutdown\"}\n");
    let (stdout, stderr, ok) = serve_stdio(
        &[
            "--jobs",
            "2",
            "--no-cache",
            "--watchdog-soft-ms",
            "100",
            "--watchdog-hard-ms",
            "300",
        ],
        Some("wedge:solve:1"),
        &input,
    );
    assert!(ok, "daemon died under wedge: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), requests.len() + 1, "every request answered");
    let mut timed_out = 0usize;
    for line in &lines[..requests.len()] {
        assert_eq!(status_of(line), 0.0, "wedged batch lost a request: {line}");
        if rung_of(line) == "watchdog-timeout" {
            timed_out += 1;
        }
    }
    assert_eq!(
        timed_out, 1,
        "exactly the wedged request is answered at the watchdog rung:\n{stdout}"
    );
}

// ---------------------------------------------------------------------
// Quarantine persistence across restarts
// ---------------------------------------------------------------------

#[test]
fn quarantine_survives_a_restart_and_short_circuits_immediately() {
    let dir = fresh_dir("quarantine");
    let sock = dir.join("q.sock");
    let cache = dir.join("q.cache");
    // A request that deterministically fails every solving rung: a
    // zero pop budget exhausts the ladder (identity still answers).
    let prog = "prog { block s { x := 1; out(x); goto e } block e { halt } }";
    let mut escaped = String::new();
    json::write_escaped(&mut escaped, prog);
    let poison =
        format!("{{\"id\":\"p\",\"program\":{escaped},\"max_pops\":0,\"no_cache\":true}}\n");
    let flags = ["--max-strikes", "2"];

    let mut child = spawn_server(&sock, &cache, &flags, None);
    let stream = connect(&sock);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    // Two strikes compute (and fail); the third short-circuits.
    for expect in ["identity", "identity", "quarantined"] {
        let response = ask(&mut stream, &mut reader, &poison);
        assert_eq!(status_of(&response), 0.0);
        assert_eq!(rung_of(&response), expect, "got: {response}");
    }
    let health = ask(
        &mut stream,
        &mut reader,
        "{\"op\":\"health\",\"id\":\"h\"}\n",
    );
    assert_eq!(health_field(&health, "quarantine_size"), 1.0, "{health}");
    let ack = ask(&mut stream, &mut reader, "{\"op\":\"shutdown\"}\n");
    assert!(ack.contains("\"shutdown\":true"));
    assert!(child.wait().unwrap().success());

    // Restart: the persisted set short-circuits on the first sighting,
    // without burning fresh strikes.
    let mut child = spawn_server(&sock, &cache, &flags, None);
    let stream = connect(&sock);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let response = ask(&mut stream, &mut reader, &poison);
    assert_eq!(
        rung_of(&response),
        "quarantined",
        "the quarantine set did not survive the restart: {response}"
    );
    let health = ask(
        &mut stream,
        &mut reader,
        "{\"op\":\"health\",\"id\":\"h\"}\n",
    );
    assert_eq!(health_field(&health, "quarantine_size"), 1.0, "{health}");
    assert!(health_field(&health, "quarantine_hits") >= 1.0, "{health}");
    let ack = ask(&mut stream, &mut reader, "{\"op\":\"shutdown\"}\n");
    assert!(ack.contains("\"shutdown\":true"));
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Failures that escape the optimizer's own ladder
// ---------------------------------------------------------------------

#[test]
fn escaped_serve_panics_answer_identity_then_quarantine() {
    let dir = fresh_dir("escaped");
    let sock = dir.join("e.sock");
    let cache = dir.join("e.cache");
    // Every request panics at the serve site, outside the optimizer's
    // own ladder. Each computed answer is the unchanged input at the
    // identity rung and a strike; the second strike quarantines.
    let request = format!("{}\n", corpus(1)[0]);
    let mut child = spawn_server(
        &sock,
        &cache,
        &["--max-strikes", "2"],
        Some("panic:serve:*"),
    );
    let stream = connect(&sock);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    for expect in ["identity", "identity", "quarantined"] {
        let response = ask(&mut stream, &mut reader, &request);
        assert_eq!(status_of(&response), 0.0, "{response}");
        assert_eq!(rung_of(&response), expect, "got: {response}");
    }
    let health = health_of(&mut stream, &mut reader);
    assert_eq!(health_field(&health, "quarantine_size"), 1.0, "{health}");
    assert!(
        json::parse(&health).unwrap().get("retries").is_none(),
        "health still reports a retry counter: {health}"
    );
    let ack = ask(&mut stream, &mut reader, "{\"op\":\"shutdown\"}\n");
    assert!(ack.contains("\"shutdown\":true"));
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
