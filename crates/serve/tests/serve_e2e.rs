//! End-to-end tests over a real TCP loopback: every scenario the
//! service must survive — bit-identical streamed results, a shared
//! phase-1 cache across jobs, hostile clients, cancellation, graceful
//! shutdown — exercised through the public [`Client`] the CLI uses.

use std::time::{Duration, Instant};

use tailwise_fleet::{run_source_sweep_cached, RunManifest, SourceSet, UserSource};
use tailwise_obs::{Obs, Recorder as _, StatsRecorder};
use tailwise_serve::{Client, ClientMsg, JobState, ServeConfig, Server, ServerMsg};

/// Two admission cells over one tiny population: cell 2 replays the
/// same `(population, scheme)` phase-1 extraction as cell 1, so every
/// run past the first is all cache hits.
const SCENARIO: &str = r#"
[scenario]
name = "e2e storm"
users = 12
days_per_user = 1
scheme = "makeidle"
master_seed = 77
shard_size = 4

[cells]
count = 2
capacity_per_s = 40
admission = "always"

[rnc]
count = 1
capacity_per_s = 200
admission = "always"

[[carrier]]
profile = "verizon-lte"

[[app]]
kind = "im"
weight = 3.0

[[app]]
kind = "email"
weight = 2.0

[[sweep]]
axis = "admission"
values = ["always", "reactive:50:5"]
"#;

/// Two users, no topology: a job that finishes in moments even in a
/// debug build.
const TINY: &str = r#"
[scenario]
name = "tiny"
users = 2
scheme = "makeidle"

[[carrier]]
profile = "verizon-lte"

[[app]]
kind = "im"
weight = 1.0
"#;

fn start_server(workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        threads: 2,
        cache_dir: None,
        read_timeout: Duration::from_millis(25),
        progress_every: Duration::from_millis(20),
    })
    .expect("the service binds a loopback port")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("loopback connect succeeds")
}

/// Submits `scenario` and drains the stream until a terminal message,
/// returning everything received (including the terminal message).
fn submit_and_drain(client: &mut Client, scenario: &str) -> Vec<ServerMsg> {
    client.send(&ClientMsg::Submit { scenario: scenario.into() }).expect("submit goes out");
    let mut got = Vec::new();
    loop {
        let msg = client
            .recv()
            .expect("stream stays decodable")
            .expect("server does not hang up mid-job");
        let terminal = matches!(
            msg,
            ServerMsg::Done { .. }
                | ServerMsg::Failed { .. }
                | ServerMsg::Cancelled { .. }
                | ServerMsg::Error { .. }
        );
        got.push(msg);
        if terminal {
            return got;
        }
    }
}

fn manifest_text(messages: &[ServerMsg]) -> &str {
    messages
        .iter()
        .find_map(|m| match m {
            ServerMsg::Manifest { text, .. } => Some(text.as_str()),
            _ => None,
        })
        .expect("the stream carries a manifest")
}

/// Drops the final `ud/sec` column from every report line: it is
/// measured wall-clock throughput, the one field the determinism
/// contract deliberately excludes (like `FleetReport`'s `PartialEq`).
fn deterministic_report(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.rsplit_once(char::is_whitespace) {
            Some((rest, _measured)) => rest.trim_end(),
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn report_text(messages: &[ServerMsg]) -> &str {
    messages
        .iter()
        .find_map(|m| match m {
            ServerMsg::Report { text, .. } => Some(text.as_str()),
            _ => None,
        })
        .expect("the stream carries a report")
}

#[test]
fn streamed_job_matches_the_batch_run_bit_for_bit() {
    let server = start_server(1);
    let mut client = connect(&server);
    let got = submit_and_drain(&mut client, SCENARIO);

    // The stream opens with acceptance and ends with success.
    let ServerMsg::Accepted { job, name, queue } = &got[0] else {
        panic!("first message must be accepted, got {:?}", got[0]);
    };
    assert_eq!(name, "e2e storm");
    assert_eq!(*queue, 0);
    assert!(matches!(got.last(), Some(ServerMsg::Done { job: j }) if j == job));

    // Rows arrive in sweep-expansion order, one per cell, before the
    // report.
    let rows: Vec<(u64, String)> = got
        .iter()
        .filter_map(|m| match m {
            ServerMsg::Row { index, label, .. } => Some((*index, label.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(rows.len(), 2, "two sweep cells stream two rows");
    assert_eq!(rows[0].0, 0);
    assert_eq!(rows[1].0, 1);
    assert!(rows[0].1.contains("always"), "row label carries the axis value: {}", rows[0].1);
    assert!(rows[1].1.contains("reactive"), "row label carries the axis value: {}", rows[1].1);

    // The streamed report is the batch code path's exact output, and
    // the streamed manifest digests identically to a local run — the
    // determinism contract across process boundaries.
    let set = SourceSet::from_toml_str(SCENARIO).expect("fixture parses");
    let recorder = StatsRecorder::new();
    let local = run_source_sweep_cached(&set, 2, Obs { recorder: &recorder, progress: None }, None)
        .expect("local sweep runs");
    assert_eq!(
        deterministic_report(report_text(&got)),
        deterministic_report(&local.render()),
        "streamed report == batch report in every deterministic column"
    );

    let seed = match &set.source {
        UserSource::Synthetic(base) => base.master_seed,
        UserSource::Corpus(base) => base.master_seed,
    };
    let local_manifest = RunManifest::for_sweep(&local, 2, seed, &recorder.snapshot());
    let streamed =
        RunManifest::from_toml_str(manifest_text(&got)).expect("streamed manifest parses");
    assert_eq!(
        streamed.digest(),
        local_manifest.digest(),
        "streamed manifest digest == batch manifest digest"
    );
}

#[test]
fn concurrent_submissions_share_one_phase1_cache() {
    let server = start_server(2);

    // Two clients race the same scenario against the one process-wide
    // cache. Both must finish identically, and between the sweep's own
    // second cell and the rival job, every stream sees cache hits.
    let addr = server.local_addr();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                submit_and_drain(&mut client, SCENARIO)
            })
        })
        .collect();
    let results: Vec<Vec<ServerMsg>> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();

    let mut digests = Vec::new();
    for got in &results {
        assert!(matches!(got.last(), Some(ServerMsg::Done { .. })), "job succeeded: {got:?}");
        let manifest = RunManifest::from_toml_str(manifest_text(got)).expect("manifest parses");
        let hits = manifest.counters.get("cache_hits").copied().unwrap_or(0);
        assert!(hits > 0, "every job's second sweep cell hits the shared cache, got {hits}");
        digests.push(manifest.digest());
        assert_eq!(
            deterministic_report(report_text(got)),
            deterministic_report(report_text(&results[0])),
            "identical reports"
        );
    }
    assert_eq!(digests[0], digests[1], "identical manifests");

    // Cross-job sharing, raced out of the picture: now that both
    // concurrent jobs have populated the cache, a third submission of
    // the same scenario must extract nothing at all.
    let mut third = connect(&server);
    let got = submit_and_drain(&mut third, SCENARIO);
    assert!(matches!(got.last(), Some(ServerMsg::Done { .. })), "third job succeeded: {got:?}");
    let manifest = RunManifest::from_toml_str(manifest_text(&got)).expect("manifest parses");
    let misses = manifest.counters.get("cache_misses").copied().unwrap_or(0);
    let hits = manifest.counters.get("cache_hits").copied().unwrap_or(0);
    assert_eq!(misses, 0, "a warm cache serves every cell of a rerun submission");
    assert_eq!(hits, 2, "both sweep cells hit extractions stored by earlier jobs");
    assert_eq!(manifest.digest(), digests[0], "warm-cache rerun is still bit-identical");
}

#[test]
fn malformed_lines_get_positioned_errors_and_the_connection_survives() {
    let server = start_server(1);
    let mut client = connect(&server);

    // An unknown verb on the wire's third line: the reply must carry
    // the connection-relative line number and leave the session alive.
    client.send(&ClientMsg::Jobs).expect("line 1");
    assert!(matches!(client.recv().unwrap(), Some(ServerMsg::End { count: 0 })));
    client.send(&ClientMsg::Jobs).expect("line 2");
    assert!(matches!(client.recv().unwrap(), Some(ServerMsg::End { count: 0 })));

    client
        .send(&ClientMsg::Submit { scenario: "definitely not toml".into() })
        .expect("line 3: parseable message, unparseable scenario");
    let Some(ServerMsg::Error { message }) = client.recv().unwrap() else {
        panic!("bad scenario must answer with error");
    };
    assert!(message.contains("submitted scenario"), "scenario errors cite their origin: {message}");

    // A wire-level malformed line (bad u64) is positioned at the line
    // it arrived on, column of the offending field.
    client.send(&ClientMsg::Watch { job: 0 }).expect("prime the line counter");
    let Some(ServerMsg::Error { message }) = client.recv().unwrap() else {
        panic!("unknown job must answer with error");
    };
    assert!(message.contains("no such job"), "{message}");

    // The connection still works after every rejection.
    let got = submit_and_drain(&mut client, SCENARIO);
    assert!(matches!(got.last(), Some(ServerMsg::Done { .. })), "session survived: {got:?}");
}

#[test]
fn a_killed_client_leaves_the_server_serving() {
    let server = start_server(1);

    // Client A submits and hangs up before a single report byte
    // arrives — its job must neither wedge a worker nor leak.
    {
        let mut casualty = connect(&server);
        casualty.send(&ClientMsg::Submit { scenario: SCENARIO.into() }).expect("submit goes out");
        let Some(ServerMsg::Accepted { .. }) = casualty.recv().unwrap() else {
            panic!("submission accepted");
        };
        // Dropping the client closes the socket mid-stream.
    }

    // Client B gets a full, correct run afterwards on the same worker.
    let mut survivor = connect(&server);
    let got = submit_and_drain(&mut survivor, SCENARIO);
    assert!(matches!(got.last(), Some(ServerMsg::Done { .. })), "server kept serving: {got:?}");

    // And the orphaned job itself ran to completion.
    let ServerMsg::Accepted { job: orphan, .. } = got[0] else { unreachable!() };
    let orphan = orphan - 1;
    let job = server.registry().get(orphan).expect("orphaned job still listed");
    for _ in 0..400 {
        if job.state() == JobState::Done {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(job.state(), JobState::Done, "orphaned job drained normally");
}

#[test]
fn cancelling_a_queued_job_dequeues_it_before_it_runs() {
    let server = start_server(1);
    let mut client = connect(&server);

    // With one worker, the second submission sits in the queue.
    client.send(&ClientMsg::Submit { scenario: SCENARIO.into() }).expect("job a");
    let Some(ServerMsg::Accepted { job: job_a, .. }) = client.recv().unwrap() else {
        panic!("job a accepted");
    };
    let mut second = connect(&server);
    second.send(&ClientMsg::Submit { scenario: SCENARIO.into() }).expect("job b");
    let Some(ServerMsg::Accepted { job: job_b, .. }) = second.recv().unwrap() else {
        panic!("job b accepted");
    };

    second.send(&ClientMsg::Cancel { job: job_b }).expect("cancel b");
    // The ack and the subscription's cancelled notice both arrive;
    // order between them is not part of the contract.
    let mut saw_ack = false;
    let mut saw_cancelled = false;
    while !(saw_ack && saw_cancelled) {
        match second.recv().unwrap().expect("connection stays open") {
            ServerMsg::Job { job, state, .. } if job == job_b => {
                assert_eq!(state, "cancelled");
                saw_ack = true;
            }
            ServerMsg::Cancelled { job } if job == job_b => saw_cancelled = true,
            other => panic!("unexpected message while cancelling: {other:?}"),
        }
    }
    assert_eq!(server.registry().get(job_b).unwrap().state(), JobState::Cancelled);

    // Job A is unaffected and completes on the worker.
    let mut done = false;
    while !done {
        match client.recv().unwrap().expect("stream open") {
            ServerMsg::Done { job } if job == job_a => done = true,
            ServerMsg::Failed { error, .. } => panic!("job a failed: {error}"),
            _ => {}
        }
    }
}

#[test]
fn graceful_shutdown_drains_running_jobs_then_closes() {
    let server = start_server(1);
    let mut client = connect(&server);
    client.send(&ClientMsg::Submit { scenario: SCENARIO.into() }).expect("submit");
    let Some(ServerMsg::Accepted { job, .. }) = client.recv().unwrap() else {
        panic!("accepted");
    };

    let mut controller = connect(&server);
    controller.send(&ClientMsg::Shutdown).expect("shutdown");
    let Some(ServerMsg::ShuttingDown { unfinished }) = controller.recv().unwrap() else {
        panic!("shutdown acknowledged");
    };
    assert_eq!(unfinished, 1, "the in-flight job is counted");

    // New submissions are rejected while the drain runs — either the
    // listener is already gone (connection refused) or a still-open
    // path answers with a shutting-down error / immediate close.
    match Client::connect(server.local_addr()) {
        Err(_) => {} // accept loop already closed — equally valid
        Ok(mut latecomer) => {
            if latecomer.send(&ClientMsg::Submit { scenario: SCENARIO.into() }).is_ok() {
                match latecomer.recv() {
                    Ok(Some(ServerMsg::Error { message })) => {
                        assert!(message.contains("shutting down"), "{message}")
                    }
                    Ok(None) | Err(_) => {} // closed before answering
                    Ok(other) => panic!("late submission must be rejected, got {other:?}"),
                }
            }
        }
    }

    // The subscribed client still receives the job's full result
    // before its connection closes.
    let mut done = false;
    loop {
        match client.recv().expect("stream decodable") {
            Some(ServerMsg::Done { job: j }) if j == job => done = true,
            Some(_) => {}
            None => break,
        }
    }
    assert!(done, "the running job drained to completion before close");

    controller.recv_until_eof().expect("controller sees EOF after drain");
    server.join();
}

/// Each protocol line leaves in one write, and both ends turn Nagle's
/// algorithm off. With a line split over two writes, or Nagle on at
/// either end, the tail of every message waits for the peer's delayed
/// ACK (about 40 ms on Linux): 20 round trips take about 0.9 s with one
/// end fixed and 1.8 s with neither, against about 1 ms.
#[test]
fn request_round_trips_do_not_wait_for_delayed_acks() {
    let server = start_server(1);
    let mut client = connect(&server);
    // A finished job first: a fresh connection's first segments are
    // ACKed at once, which would hide the stall.
    let got = submit_and_drain(&mut client, TINY);
    assert!(matches!(got.last(), Some(ServerMsg::Done { .. })), "tiny job succeeded: {got:?}");

    let started = Instant::now();
    for _ in 0..20 {
        client.send(&ClientMsg::Jobs).expect("jobs goes out");
        assert!(matches!(client.recv().unwrap(), Some(ServerMsg::Job { .. })));
        assert!(matches!(client.recv().unwrap(), Some(ServerMsg::End { count: 1 })));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(400), "20 jobs round trips took {elapsed:?}");
}
