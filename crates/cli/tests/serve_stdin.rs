//! `deltanet serve --stdin` over pipes: the stdin transport ends at EOF or
//! right after a `shutdown` ack, whether or not the client closes stdin.

use service::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long a daemon may take to exit once its stream is over.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A two-switch `a <-> b` topology file, unique per test.
fn topology(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deltanet-serve-stdin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.topo"));
    std::fs::write(&path, "node a\nnode b\nlink 0 1\nlink 1 0\n").unwrap();
    path
}

fn spawn(tag: &str) -> (Child, ChildStdin, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_deltanet"))
        .arg("serve")
        .arg("--topo")
        .arg(topology(tag))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the deltanet binary starts");
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    (child, stdin, stdout)
}

/// Sends one request line and reads its reply.
fn request(stdin: &mut ChildStdin, stdout: &mut BufReader<ChildStdout>, line: &str) -> Json {
    writeln!(stdin, "{line}").unwrap();
    stdin.flush().unwrap();
    let mut reply = String::new();
    stdout.read_line(&mut reply).unwrap();
    parse(&reply).unwrap_or_else(|e| panic!("reply {reply:?} is not JSON: {e}"))
}

/// The exit status, or `None` if the process is still running after
/// [`EXIT_TIMEOUT`] (it is killed then).
fn exit_within_timeout(child: &mut Child) -> Option<ExitStatus> {
    let deadline = Instant::now() + EXIT_TIMEOUT;
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        thread::sleep(Duration::from_millis(20));
    }
    child.kill().ok();
    child.wait().ok();
    None
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn shutdown_ends_the_stream_while_stdin_stays_open() {
    let (mut child, mut stdin, mut stdout) = spawn("shutdown");
    let stats = request(&mut stdin, &mut stdout, r#"{"id": 1, "op": "stats"}"#);
    assert!(ok(&stats), "{stats:?}");
    let bye = request(&mut stdin, &mut stdout, r#"{"id": 2, "op": "shutdown"}"#);
    assert_eq!(bye.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
    // `stdin` is still open here: the ack alone must end the daemon.
    let status = exit_within_timeout(&mut child);
    drop(stdin);
    let status = status.expect("serve --stdin exits after the shutdown ack");
    assert!(status.success(), "{status}");
}

#[test]
fn eof_without_shutdown_closes_the_stream_cleanly() {
    let (mut child, mut stdin, mut stdout) = spawn("eof");
    let insert = r#"{"id": 1, "op": "insert", "rule": {"id": 7, "src": 0, "dst": 1, "prefix": "10.0.0.0/8", "priority": 5}}"#;
    let reply = request(&mut stdin, &mut stdout, insert);
    assert!(ok(&reply), "{reply:?}");
    assert_eq!(reply.get("at").and_then(Json::as_u64), Some(1));
    let batch = r#"{"id": 2, "op": "batch", "ops": [{"op": "insert", "rule": {"id": 8, "src": 1, "dst": 0, "prefix": "10.0.0.0/8", "priority": 5}}, {"op": "remove", "rule_id": 7}]}"#;
    let reply = request(&mut stdin, &mut stdout, batch);
    assert!(ok(&reply), "{reply:?}");
    let acks = reply
        .get("acks")
        .and_then(Json::as_arr)
        .expect("per-op acks");
    let at: Vec<(bool, Option<u64>)> = acks
        .iter()
        .map(|ack| (ok(ack), ack.get("at").and_then(Json::as_u64)))
        .collect();
    assert_eq!(at, vec![(true, Some(2)), (true, Some(3))]);
    drop(stdin);
    let status = exit_within_timeout(&mut child).expect("serve --stdin exits at EOF");
    assert!(status.success(), "{status}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("service: stdin stream closed"), "{rest:?}");
}
