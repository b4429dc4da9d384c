//! The wire-level determinism matrix (the acceptance test of the network
//! layer): for one seeded request mix, the transcript of response bodies
//! received over real loopback TCP must be byte-identical across
//!
//! * server worker-pool widths {1, 2, 8},
//! * client connection counts {1, 4},
//! * shard counts {1, 4},
//!
//! and across the two wire protocols (HTTP `POST /count` vs raw NDJSON).
//! Shard count is echoed in responses, so the transcript comparison embeds
//! it per request — requests pin `shards` explicitly, making the bytes
//! comparable across every axis.
//!
//! A second test drives a 1000-request mix through the full stack and
//! renders `BENCH_serve.json`, pinning the loadgen path end to end.

use cqc_net::loadgen::{bench_json, run_against, LoadgenOptions, Protocol};
use cqc_net::{NetConfig, RunningServer};
use cqc_runtime::set_worker_cap;

/// Run one loadgen configuration against a fresh server, returning the
/// id-ordered transcript.
fn transcript(options: &LoadgenOptions) -> String {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let report = run_against(server.addr(), options).expect("loadgen run");
    server.shutdown();
    assert_eq!(
        report.transcript.lines().count(),
        options.requests,
        "every request answered"
    );
    assert_eq!(report.errors, 0, "healthy mix has no error responses");
    report.transcript
}

#[test]
fn transcripts_are_byte_identical_across_pools_connections_and_shards() {
    let base = LoadgenOptions {
        requests: 12,
        connections: 1,
        seed: 0x5EED,
        shards: Some(1),
        method: None, // auto: the approximation engines, where
        // scheduling-dependent RNG use would show
        accuracy: None,
        protocol: Protocol::Http,
        suite: None,
    };
    let reference = transcript(&base);
    // the mix exercises estimates (the `estimate_bits` member pins f64 bits)
    assert!(reference.contains("\"estimate_bits\""), "{reference}");

    let strip_shards = |t: &str| {
        t.replace("\"shards\":1", "\"shards\":N")
            .replace("\"shards\":4", "\"shards\":N")
    };
    let before = cqc_obs::Stopwatch::start();
    for pool_width in [1usize, 2, 8] {
        set_worker_cap(pool_width);
        for connections in [1usize, 4] {
            for shards in [1usize, 4] {
                let options = LoadgenOptions {
                    connections,
                    shards: Some(shards),
                    ..base.clone()
                };
                let got = transcript(&options);
                assert_eq!(
                    strip_shards(&got),
                    strip_shards(&reference),
                    "bytes drifted at pool={pool_width} connections={connections} shards={shards}"
                );
            }
        }
    }
    set_worker_cap(0); // restore auto for other tests in this process
    eprintln!("matrix wall: {:?}", before.elapsed());

    // protocol axis: raw NDJSON over TCP returns the same bytes as HTTP
    let ndjson = transcript(&LoadgenOptions {
        connections: 4,
        protocol: Protocol::Ndjson,
        ..base.clone()
    });
    assert_eq!(ndjson, reference, "NDJSON and HTTP transcripts must agree");
}

#[test]
fn suite_mixes_are_deterministic_on_the_wire_for_every_class() {
    // the enumerated suites are loadgen sources too: same seed, same
    // class → byte-identical transcripts across connections and protocols
    for class in cqc_workloads::ALL_CLASSES {
        let base = LoadgenOptions {
            requests: 6,
            connections: 1,
            seed: 0x517E,
            shards: None,
            // exact keeps the matrix affordable in debug builds; the
            // suite source and wire path are what's under test
            method: Some("exact".to_string()),
            accuracy: None,
            protocol: Protocol::Http,
            suite: Some(class),
        };
        let reference = transcript(&base);
        let other = transcript(&LoadgenOptions {
            connections: 3,
            protocol: Protocol::Ndjson,
            ..base.clone()
        });
        assert_eq!(reference, other, "suite transcript drifted for {class:?}");
        // the suite is echoed into the bench report
        let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        let report = run_against(server.addr(), &base).expect("suite run");
        server.shutdown();
        let doc = cqc_serve::json::parse(&bench_json(&report)).expect("bench json parses");
        assert_eq!(
            doc.get("suite").and_then(|s| s.as_str()),
            Some(cqc_workloads::class_name(class))
        );
    }
}

#[test]
fn a_1k_request_loadgen_run_completes_and_emits_bench_json() {
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let options = LoadgenOptions {
        requests: 1000,
        connections: 8,
        seed: 0xBE9C4,
        shards: None,
        // exact keeps 1k requests affordable in debug builds; the wire
        // path is identical to the approximation methods
        method: Some("exact".to_string()),
        accuracy: None,
        protocol: Protocol::Http,
        suite: None,
    };
    let report = run_against(server.addr(), &options).expect("1k loadgen run");
    server.shutdown();
    assert_eq!(report.transcript.lines().count(), 1000);
    assert_eq!(report.errors, 0);
    assert!(report.throughput_rps > 0.0);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);

    // BENCH_serve.json renders, parses, and echoes the run
    let text = bench_json(&report);
    let path = std::env::temp_dir().join(format!("BENCH_serve-{}.json", std::process::id()));
    std::fs::write(&path, &text).expect("write BENCH_serve.json");
    let back = cqc_serve::json::parse(&std::fs::read_to_string(&path).unwrap()).expect("parses");
    assert_eq!(back.get("requests").and_then(|v| v.as_u64()), Some(1000));
    assert_eq!(
        back.get("responses_with_error").and_then(|v| v.as_u64()),
        Some(0)
    );
    assert!(back.get("latency_ms").and_then(|l| l.get("p99")).is_some());
    std::fs::remove_file(&path).ok();
}
