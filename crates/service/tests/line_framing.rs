//! Request framing over a real socket: a line the daemon cannot read as a
//! request is answered with a `bad_request` and the connection goes on
//! serving what was pipelined behind it.

use netmodel::topology::Topology;
use service::json::{parse, Json};
use service::server::{Server, ServiceConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// Sends `lines` back to back on one raw connection, then reads one reply
/// per line, and shuts the daemon down.
fn replies_to(lines: &[&[u8]]) -> Vec<Json> {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    topo.add_link(a, b);
    let server = Server::bind("127.0.0.1:0", topo, ServiceConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // The replies are read on another thread: a long line must not fill
    // both socket buffers while nobody drains the replies.
    let expected = lines.len();
    let replies = thread::spawn(move || {
        (0..expected)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("a reply line");
                parse(line.trim_end()).unwrap_or_else(|e| panic!("reply is json ({e}): {line}"))
            })
            .collect::<Vec<_>>()
    });
    for line in lines {
        stream.write_all(line).expect("write");
    }
    let replies = replies.join().expect("reply reader");

    stream
        .write_all(b"{\"id\": 99, \"op\": \"shutdown\"}\n")
        .expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    replies
}

fn assert_bad_request_without_id(reply: &Json) -> &str {
    assert_eq!(reply.get("id"), Some(&Json::Null), "{}", reply.render());
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("bad_request"),
        "{}",
        reply.render()
    );
    reply.get("error").and_then(Json::as_str).expect("error")
}

fn assert_stats(reply: &Json) {
    assert_eq!(
        reply.get("id").and_then(Json::as_u64),
        Some(2),
        "{}",
        reply.render()
    );
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert!(reply.get("ops_applied").is_some(), "{}", reply.render());
}

/// Regression: a line with a byte that is not UTF-8 used to end the
/// connection without a reply, dropping the request pipelined behind it.
#[test]
fn non_utf8_line_is_a_bad_request_and_the_connection_continues() {
    let replies = replies_to(&[b"\xff\n", b"{\"id\": 2, \"op\": \"stats\"}\n"]);
    assert_eq!(replies.len(), 2);
    assert_bad_request_without_id(&replies[0]);
    assert_stats(&replies[1]);
}

/// A line past [`MAX_LINE_BYTES`] is answered, discarded through its
/// newline, and the next request is served.
#[test]
fn over_long_line_is_a_bad_request_and_the_connection_continues() {
    let mut long = vec![b' '; 2 * MAX_LINE_BYTES];
    long.push(b'\n');
    let replies = replies_to(&[&long, b"{\"id\": 2, \"op\": \"stats\"}\n"]);
    assert_eq!(replies.len(), 2);
    let error = assert_bad_request_without_id(&replies[0]);
    assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}");
    assert_stats(&replies[1]);
}
