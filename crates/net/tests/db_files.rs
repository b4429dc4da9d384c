//! `db_files` confinement over HTTP: a request may name only files under
//! the server's working directory. An absolute path, a `..` path and a
//! symlink out of the directory get one pinned refusal; a relative file
//! inside is served.
//!
//! The test moves the process's working directory, so it is the only test
//! in this binary.

use cqc_net::{NetConfig, RunningServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

const FACTS: &str = "universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n";

/// `POST /count` one request naming `db_file`; returns (status, body).
fn count(server: &RunningServer, db_file: &str) -> (u16, String) {
    let body = format!(
        r#"{{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "db_files": ["{db_file}"], "method": "exact"}}"#
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(
        stream,
        "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut response = String::new();
    reader.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    (status, body.to_string())
}

#[test]
fn db_files_are_confined_to_the_working_directory() {
    // root/inside.facts is served; root/escape.facts links to
    // outside.facts, a sibling of root.
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("db-files-{}", std::process::id()));
    let root = base.join("root");
    std::fs::create_dir_all(&root).unwrap();
    let outside = base.join("outside.facts");
    std::fs::write(&outside, FACTS).unwrap();
    std::fs::write(root.join("inside.facts"), FACTS).unwrap();
    #[cfg(unix)]
    std::os::unix::fs::symlink(&outside, root.join("escape.facts")).unwrap();
    std::env::set_current_dir(&root).unwrap();

    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let refused = r#"{"id":1,"error":"bad request: `db_files` entries must be relative paths to files inside the server's working directory"}"#;
    let mut escapes = vec![
        outside.to_str().unwrap().to_string(),
        "../outside.facts".to_string(),
    ];
    if cfg!(unix) {
        escapes.push("escape.facts".to_string());
    }
    for escape in &escapes {
        assert_eq!(
            count(&server, escape),
            (400, refused.to_string()),
            "{escape}"
        );
    }
    let (status, body) = count(&server, "inside.facts");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"estimate\":2,"), "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
