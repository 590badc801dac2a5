//! `dps-sub` — subscribe to a `dps-broker` and print matching events.
//!
//! ```sh
//! dps-sub --socket /tmp/dps.sock --filter "price > 100" --count 3
//! dps-sub --socket /tmp/dps.sock --filter "temp < 0" --duration-ms 5000
//! ```
//!
//! Prints one line per delivery: `deliver <node>:<seq> <event>`. Exits once
//! `--count` deliveries arrived, or when `--duration-ms` elapses (whichever
//! comes first; with neither, runs until the broker goes away).

use std::time::{Duration, Instant};

use dps_broker::UnixTransport;
use dps_client::{Session, SubscribeOptions};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: dps-sub --socket PATH --filter FILTER [--count N] \
         [--duration-ms D] [--credit C] [--timeout-ms T]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut count: Option<u64> = None;
    let mut duration: Option<Duration> = None;
    let mut timeout = Duration::from_secs(10);
    let mut opts = SubscribeOptions::default();
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--socket" => socket = Some(val("--socket")),
            "--filter" => filter = Some(val("--filter")),
            "--count" => {
                count = Some(
                    val("--count")
                        .parse()
                        .unwrap_or_else(|_| usage("--count must be an integer")),
                )
            }
            "--duration-ms" => {
                duration = Some(Duration::from_millis(
                    val("--duration-ms")
                        .parse()
                        .unwrap_or_else(|_| usage("--duration-ms must be an integer")),
                ))
            }
            "--credit" => {
                opts.credit = val("--credit")
                    .parse()
                    .unwrap_or_else(|_| usage("--credit must be an integer"))
            }
            "--timeout-ms" => {
                timeout = Duration::from_millis(
                    val("--timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage("--timeout-ms must be an integer")),
                )
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let socket = socket.unwrap_or_else(|| usage("--socket is required"));
    let filter = filter
        .unwrap_or_else(|| usage("--filter is required"))
        .parse::<dps::Filter>()
        .unwrap_or_else(|e| usage(&format!("bad filter: {e}")));

    let session = match Session::connect(&UnixTransport, &socket, timeout) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dps-sub: cannot connect to {socket}: {e}");
            std::process::exit(1);
        }
    };
    let sub = match session.subscriber_with(filter, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dps-sub: subscribe failed: {e}");
            std::process::exit(1);
        }
    };
    println!("subscribed {}", sub.filter());

    let started = Instant::now();
    let mut received = 0u64;
    loop {
        if let Some(limit) = count {
            if received >= limit {
                break;
            }
        }
        let slice = match duration {
            Some(d) => match d.checked_sub(started.elapsed()) {
                Some(left) => left.min(Duration::from_millis(50)),
                None => break,
            },
            None => Duration::from_millis(50),
        };
        match sub.recv_timeout(slice) {
            Some(d) => {
                println!("deliver {}:{} {}", d.publisher, d.seq, d.event);
                received += 1;
            }
            None => {
                if !session.is_open() {
                    eprintln!("dps-sub: broker went away after {received} deliveries");
                    std::process::exit(1);
                }
            }
        }
    }
    println!("received {received}");
    let _ = session.close();
}
