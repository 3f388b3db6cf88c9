//! Served-job latency: how long a client of an in-process
//! `tailwise-serve` server waits between sending a request and reading
//! the reply's last line.
//!
//! `warm_repeat` times submit→`done` of an exact repeat, every user a
//! phase-1 cache and replay-memo hit, so what is left is adjudication,
//! the memo folds, the report and manifest, and the protocol.
//! `jobs_round_trip` times one `jobs` exchange on the same connection
//! (each reply is a `job` line and an `end` line): the protocol alone.
//! It runs first, while the registry holds only the cold job.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tailwise_serve::{Client, ClientMsg, ServeConfig, Server, ServerMsg};

/// 16 chatty LTE phones on 2 RNCs × 4 cells.
const SCENARIO: &str = r#"
[scenario]
name = "served storm, 16 phones, 2 RNCs x 4 cells"
users = 16
days_per_user = 1
scheme = "makeidle"
master_seed = 2012
shard_size = 4

[cells]
count = 4
capacity_per_s = 120
admission = "always"

[rnc]
count = 2
capacity_per_s = 600
admission = "always"

[[carrier]]
profile = "verizon-lte"

[[app]]
kind = "im"
weight = 3.0

[[app]]
kind = "email"
weight = 2.0
"#;

/// Submits `scenario` and reads the stream up to its `done`.
fn submit_until_done(client: &mut Client, scenario: &str) {
    client.send(&ClientMsg::Submit { scenario: scenario.into() }).expect("submit goes out");
    loop {
        match client.recv().expect("stream decodes").expect("server stays up") {
            ServerMsg::Done { .. } => return,
            ServerMsg::Failed { error, .. } => panic!("served job failed: {error}"),
            ServerMsg::Error { message } => panic!("submission rejected: {message}"),
            ServerMsg::Cancelled { .. } => panic!("served job cancelled"),
            _ => {}
        }
    }
}

/// One `jobs` request and its listing, up to the `end` line.
fn list_jobs(client: &mut Client) -> u64 {
    client.send(&ClientMsg::Jobs).expect("jobs goes out");
    loop {
        if let ServerMsg::End { count } = client.recv().expect("reply decodes").expect("server up")
        {
            return count;
        }
    }
}

fn served_job(c: &mut Criterion) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        threads: 2,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("the service binds a loopback port");
    let mut client = Client::connect(server.local_addr()).expect("loopback connect succeeds");
    // The cold submission fills the phase-1 cache and the replay memo.
    submit_until_done(&mut client, SCENARIO);

    let mut group = c.benchmark_group("served_job");
    group.bench_function("jobs_round_trip", |b| {
        b.iter(|| assert_eq!(list_jobs(&mut client), 1, "only the cold job is listed"))
    });
    group.bench_function("warm_repeat", |b| {
        b.iter(|| submit_until_done(&mut client, black_box(SCENARIO)))
    });
    group.finish();

    client.send(&ClientMsg::Shutdown).expect("shutdown goes out");
    client.recv_until_eof().expect("the server drains and closes");
    server.join();
}

criterion_group!(benches, served_job);
criterion_main!(benches);
