//! End-to-end loopback tests: a real server on `127.0.0.1:0`, driven by
//! the blocking client, pinned against direct [`Simulation`] runs.
//!
//! The acceptance path is `checkpoint_cancel_resume_is_bit_identical`:
//! a job submitted over HTTP is checkpointed, its snapshot downloaded
//! mid-run, the job cancelled, and a second job resumed from the
//! downloaded frame — the resumed run's fingerprint must equal the
//! fingerprint of the same spec run uninterrupted through the builder.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stoneage_protocols::MisProtocol;
use stoneage_server::client::{request, EventStream, Response};
use stoneage_server::spec::encode_hex;
use stoneage_server::{outcome_fingerprint, parse_spec, Server, ServerConfig};
use stoneage_sim::Simulation;
use stoneage_wire::Value;

/// A scratch jobs dir removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("stoneage-loopback-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(tag: &str) -> (Server, String, Scratch) {
    let scratch = Scratch::new(tag);
    let server = Server::start(ServerConfig {
        cores: 2,
        max_jobs: 8,
        jobs_dir: Some(scratch.0.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, scratch)
}

fn get(addr: &str, path: &str) -> Response {
    request(addr, "GET", path, &[]).expect("request succeeds")
}

fn post(addr: &str, path: &str, body: &[u8]) -> Response {
    request(addr, "POST", path, body).expect("request succeeds")
}

/// Polls `GET /jobs/{id}` until the state is terminal.
fn wait_terminal(addr: &str, id: i64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = get(addr, &format!("/jobs/{id}")).json();
        let state = status["state"].as_str().unwrap_or("").to_string();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never finished: {status}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The fingerprint of `spec_body` run uninterrupted through the builder
/// (MIS only — what these tests submit).
fn direct_mis_fingerprint(spec_body: &[u8]) -> u64 {
    let spec = parse_spec(spec_body).expect("spec parses");
    let graph = spec.graph.build();
    let protocol = MisProtocol::new();
    let outcome = Simulation::sync(&protocol, &graph)
        .seed(spec.seeds[0])
        .budget(spec.budget)
        .run()
        .expect("direct run finishes");
    outcome_fingerprint(
        &outcome.outputs,
        outcome.rounds().unwrap_or(0),
        outcome.messages_sent().unwrap_or(0),
    )
}

#[test]
fn submitted_job_matches_direct_run() {
    let (server, addr, _scratch) = start("direct");
    let body = br#"{"graph": {"family": "gnp", "n": 48, "p": 0.15, "seed": 9},
                    "protocol": "mis", "seeds": [42], "budget": 10000,
                    "events_every": 1}"#;
    let resp = post(&addr, "/jobs", body);
    assert_eq!(
        resp.status,
        201,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let id = resp.json()["id"].as_i64().expect("job id");

    // Tail the event stream to completion: it must contain the start,
    // per-round progress, and the seed's fingerprint.
    let mut stream = EventStream::open(&addr, &format!("/jobs/{id}/events")).unwrap();
    let mut kinds = Vec::new();
    let mut streamed_fingerprint = None;
    while let Some(line) = stream.next_line().unwrap() {
        let event = stoneage_wire::parse(&line).expect("event line is JSON");
        let kind = event["type"].as_str().unwrap_or("").to_string();
        if kind == "seed_done" {
            streamed_fingerprint = Some(event["fingerprint"].as_str().unwrap().to_string());
        }
        kinds.push(kind);
    }
    assert_eq!(kinds.first().map(String::as_str), Some("started"));
    assert_eq!(kinds.last().map(String::as_str), Some("done"));
    assert!(
        kinds.iter().any(|k| k == "round"),
        "no round events: {kinds:?}"
    );

    let status = wait_terminal(&addr, id);
    assert_eq!(status["state"], "done");
    let reported = status["results"][0]["fingerprint"]
        .as_str()
        .expect("fingerprint string")
        .to_string();
    assert_eq!(Some(reported.clone()), streamed_fingerprint);
    assert_eq!(reported, format!("{:#018x}", direct_mis_fingerprint(body)));
    server.shutdown();
}

#[test]
fn checkpoint_cancel_resume_is_bit_identical() {
    let (server, addr, scratch) = start("resume");
    // Throttled so the run is still in flight when the cancel lands;
    // checkpoint cadence 2 keeps cancellation latency at two rounds.
    let body = br#"{"graph": {"family": "gnp", "n": 64, "p": 0.1, "seed": 3},
                    "protocol": "mis", "seeds": [7], "budget": 100000,
                    "checkpoint_every": 2, "throttle_ms": 20}"#;
    let id = post(&addr, "/jobs", body).json()["id"].as_i64().unwrap();

    // Stream until the first checkpoint is durable, then grab the frame
    // and cancel while the job is still throttled mid-run.
    let mut stream = EventStream::open(&addr, &format!("/jobs/{id}/events")).unwrap();
    loop {
        let line = stream.next_line().unwrap().expect("stream ended early");
        let event = stoneage_wire::parse(&line).unwrap();
        if event["type"] == "checkpoint" {
            break;
        }
    }
    let snapshot = get(&addr, &format!("/jobs/{id}/snapshot"));
    assert_eq!(snapshot.status, 200);
    assert!(!snapshot.body.is_empty());
    // The persisted copy exists too, and round-trips the validator.
    let on_disk = scratch.0.join(format!("job-{id}")).join("latest.snap");
    let persisted = stoneage_sim::read_snapshot_file(&on_disk).expect("persisted frame is valid");
    assert!(persisted.boundary() >= 2 && persisted.boundary().is_multiple_of(2));

    assert_eq!(post(&addr, &format!("/jobs/{id}/cancel"), &[]).status, 202);
    let status = wait_terminal(&addr, id);
    assert_eq!(
        status["state"], "cancelled",
        "20ms/round throttle on a 100k budget cannot finish first: {status}"
    );

    // Resume the downloaded frame as a fresh, unthrottled job.
    let resume_body = format!(
        r#"{{"graph": {{"family": "gnp", "n": 64, "p": 0.1, "seed": 3}},
            "protocol": "mis", "seeds": [7], "budget": 100000,
            "resume_from": "{}"}}"#,
        encode_hex(&snapshot.body)
    );
    let resumed = post(&addr, "/jobs", resume_body.as_bytes());
    assert_eq!(resumed.status, 201);
    let resumed_id = resumed.json()["id"].as_i64().unwrap();
    let status = wait_terminal(&addr, resumed_id);
    assert_eq!(status["state"], "done", "{status}");

    // The acceptance pin: resumed-over-HTTP == uninterrupted-direct.
    let uninterrupted = br#"{"graph": {"family": "gnp", "n": 64, "p": 0.1, "seed": 3},
                             "protocol": "mis", "seeds": [7], "budget": 100000}"#;
    assert_eq!(
        status["results"][0]["fingerprint"].as_str().unwrap(),
        format!("{:#018x}", direct_mis_fingerprint(uninterrupted))
    );
    server.shutdown();
}

#[test]
fn api_surface_rejects_and_reports() {
    let (server, addr, _scratch) = start("api");

    // Malformed specs come back as 400 with the typed error rendered.
    let bad = post(
        &addr,
        "/jobs",
        br#"{"graph": {"family": "gnp"}, "protocol": "mis"}"#,
    );
    assert_eq!(bad.status, 400);
    assert!(bad.json()["error"].as_str().unwrap().contains('n'));
    let bad = post(&addr, "/jobs", b"{not json");
    assert_eq!(bad.status, 400);
    let bad = post(
        &addr,
        "/jobs",
        br#"{"graph": {"family": "tree", "n": 4}, "protocol": "nope"}"#,
    );
    assert_eq!(bad.status, 400);

    // Unknown resources and jobs.
    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(get(&addr, "/jobs/999").status, 404);
    assert_eq!(get(&addr, "/jobs/999/snapshot").status, 404);
    assert_eq!(request(&addr, "DELETE", "/jobs", &[]).unwrap().status, 405);

    // A real job shows up in the list and in the metrics.
    let body = br#"{"graph": {"family": "tree", "n": 32}, "protocol": "coloring",
                    "seeds": [1, 2]}"#;
    let id = post(&addr, "/jobs", body).json()["id"].as_i64().unwrap();
    let status = wait_terminal(&addr, id);
    assert_eq!(status["state"], "done");
    assert_eq!(status["results"].as_array().unwrap().len(), 2);

    let list = get(&addr, "/jobs").json();
    let jobs = list["jobs"].as_array().unwrap();
    assert!(jobs.iter().any(|j| j["id"] == id && j["state"] == "done"));

    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("stoneage_server_jobs_submitted_total 1"));
    assert!(text.contains("stoneage_server_jobs_completed_total 1"));
    assert!(text.contains("# TYPE stoneage_server_rounds_total counter"));

    assert_eq!(get(&addr, "/healthz").status, 200);
    server.shutdown();
}

#[test]
fn cancel_while_queued_never_runs() {
    // One core, and a long throttled job hogging it: the second job
    // must be cancellable straight out of the queue.
    let scratch = Scratch::new("queued");
    let server = Server::start(ServerConfig {
        cores: 1,
        max_jobs: 8,
        jobs_dir: Some(scratch.0.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let hog = br#"{"graph": {"family": "tree", "n": 16}, "protocol": "blinker",
                   "budget": 500, "throttle_ms": 10}"#;
    let hog_id = post(&addr, "/jobs", hog).json()["id"].as_i64().unwrap();
    let queued = br#"{"graph": {"family": "tree", "n": 16}, "protocol": "mis"}"#;
    let queued_id = post(&addr, "/jobs", queued).json()["id"].as_i64().unwrap();

    assert_eq!(
        post(&addr, &format!("/jobs/{queued_id}/cancel"), &[]).status,
        202
    );
    let status = wait_terminal(&addr, queued_id);
    assert_eq!(status["state"], "cancelled");
    assert!(status["results"].as_array().unwrap().is_empty());

    // The hog is unaffected; blinker jobs run to their budget.
    assert_eq!(
        post(&addr, &format!("/jobs/{hog_id}/cancel"), &[]).status,
        202
    );
    let status = wait_terminal(&addr, hog_id);
    assert!(matches!(
        status["state"].as_str().unwrap(),
        "cancelled" | "done"
    ));
    server.shutdown();
}

#[test]
fn panicking_job_fails_and_frees_its_core() {
    // `selfstab_coloring` panics on coloring's |C(v)| invariant when the
    // hub crashes before it is colored. Two such jobs take both cores
    // (the second on two workers: a worker-thread panic); each must end
    // `failed` with the panic message and hand its cores back, so a
    // later job still runs and shutdown still returns.
    let (server, addr, _scratch) = start("panic");
    let spec = r#"{"graph": {"family": "hub_and_spoke", "hubs": 1, "spokes": 12},
                   "protocol": "selfstab_coloring", "seeds": [1], "budget": 2000,
                   "churn": [{"round": 2, "event": "crash", "node": 0},
                             {"round": 40, "event": "restart", "node": 0}]WORKERS}"#;
    let ids: Vec<i64> = ["", r#", "workers": 2"#]
        .iter()
        .map(|workers| {
            let body = spec.replace("WORKERS", workers);
            post(&addr, "/jobs", body.as_bytes()).json()["id"]
                .as_i64()
                .expect("job id")
        })
        .collect();
    for id in ids {
        let status = wait_terminal(&addr, id);
        assert_eq!(status["state"], "failed", "{status}");
        let error = status["error"]
            .as_str()
            .expect("failed jobs carry an error");
        assert!(
            error.starts_with("job panicked: ") && error.contains("|C(v)|"),
            "{error}"
        );
        // The log is closed, and its last line is the `failed` event.
        let mut stream = EventStream::open(&addr, &format!("/jobs/{id}/events")).unwrap();
        let mut last = None;
        while let Some(line) = stream.next_line().unwrap() {
            last = Some(stoneage_wire::parse(&line).expect("event line is JSON"));
        }
        let last = last.expect("the log has events");
        assert_eq!(last["type"], "failed");
        assert_eq!(last["error"].as_str(), Some(error));
    }

    let mis = br#"{"graph": {"family": "tree", "n": 16}, "protocol": "mis"}"#;
    let mis_id = post(&addr, "/jobs", mis).json()["id"]
        .as_i64()
        .expect("job id");
    assert_eq!(wait_terminal(&addr, mis_id)["state"], "done");
    let text = String::from_utf8(get(&addr, "/metrics").body).unwrap();
    assert!(
        text.contains("stoneage_server_jobs_completed_total 3"),
        "{text}"
    );
    assert_eq!(get(&addr, "/healthz").status, 200);
    server.shutdown();
}

/// A job asking for more workers than the server has cores is charged
/// `min(workers, cores)` cores — and runs on exactly that many, as the
/// engine's worker count in its `seed_done` event shows.
#[test]
fn parallel_job_runs_on_the_cores_it_is_charged() {
    let (server, addr, _scratch) = start("charged");
    let body = br#"{"graph": {"family": "gnp", "n": 48, "p": 0.15, "seed": 9},
                    "protocol": "mis", "seeds": [42], "workers": 4}"#;
    let id = post(&addr, "/jobs", body).json()["id"].as_i64().unwrap();
    let mut stream = EventStream::open(&addr, &format!("/jobs/{id}/events")).unwrap();
    let mut workers = None;
    while let Some(line) = stream.next_line().unwrap() {
        let event = stoneage_wire::parse(&line).expect("event line is JSON");
        if event["type"] == "seed_done" {
            workers = Some(
                event["workers"]
                    .as_i64()
                    .expect("seed_done reports workers"),
            );
        }
    }
    assert_eq!(workers, Some(2), "a 2-core server ran a 4-worker job");
    let status = wait_terminal(&addr, id);
    assert_eq!(
        status["results"][0]["fingerprint"].as_str().unwrap(),
        format!("{:#018x}", direct_mis_fingerprint(body))
    );
    server.shutdown();
}

/// A request head sent without a newline is cut off at the 16 KiB head
/// limit with a 400, instead of being buffered for as long as the peer
/// keeps sending — also when the cut falls inside a multi-byte
/// character. The client sends one byte past the limit and keeps its
/// side open; the server reads exactly that much, so it closes with
/// nothing left unread.
#[test]
fn head_without_newline_is_cut_off_at_the_limit() {
    let (server, addr, _scratch) = start("head");
    let ascii = vec![b'a'; 16 * 1024 + 1];
    // The last byte opens a two-byte 'é' whose second byte never comes.
    let mut split = vec![b'a'; 16 * 1024];
    split.push(0xC3);
    for head in [ascii, split] {
        let mut conn = TcpStream::connect(&addr).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(&head).unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response)
            .expect("the server answers before the read timeout");
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("request head too large"), "{response}");
    }
    assert_eq!(get(&addr, "/healthz").status, 200);
    server.shutdown();
}
