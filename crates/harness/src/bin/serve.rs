//! Decomposition-service demo: drives the same mixed workload through
//! BOTH service paths — in-process `htdserve::Server::submit`, then the
//! full wire stack (`htdwire::WireServer` on a loopback socket, spoken
//! through the retrying `htdwire::WireClient`) — and prints every
//! verdict plus each server's final accounting. With `--features
//! fault-injection` and `--inject-panic`, each phase additionally
//! absorbs one deliberately panicking solve and verifies it surfaced as
//! exactly one contained `Panicked` verdict. Exits non-zero if any
//! verdict is unexpected, so CI can use it as a smoke test.
//!
//! Flags: `--executors N` (2), `--workers N` (0 = sequential),
//! `--queue N` (16), `--deadline-ms N` (5000 default per request),
//! `--inject-panic` (needs the `fault-injection` feature).

use std::sync::Arc;
use std::time::Duration;

use htdserve::{Outcome, Request, Server, ServerConfig};
use htdwire::{ClientConfig, JobSpec, WireClient, WireConfig, WireOutcome, WireServer};
use workloads::families;

struct Args {
    executors: usize,
    workers: usize,
    queue_depth: usize,
    deadline_ms: u64,
    inject_panic: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        executors: 2,
        workers: 0,
        queue_depth: 16,
        deadline_ms: 5000,
        inject_panic: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--executors" => args.executors = num("--executors"),
            "--workers" => args.workers = num("--workers"),
            "--queue" => args.queue_depth = num("--queue"),
            "--deadline-ms" => args.deadline_ms = num("--deadline-ms") as u64,
            "--inject-panic" => args.inject_panic = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Which service entry point an [`Item`] exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Decide `hw ≤ k` with the default engine.
    Decide,
    /// Sweep widths up to `k`.
    Sweep,
    /// Decide `hw ≤ k` by racing the whole algorithm portfolio.
    Race,
}

/// Expectation key: W = witnessed, R = refuted, E = exact width,
/// T = timed out, P = panicked, A = any verdict.
struct Item {
    name: &'static str,
    expect: char,
    edges: Vec<Vec<u32>>,
    /// Width to decide / largest width to sweep.
    k: u32,
    kind: JobKind,
    deadline: Option<Duration>,
}

fn edge_lists(hg: &hypergraph::Hypergraph) -> Vec<Vec<u32>> {
    hg.edge_ids()
        .map(|e| hg.edge(e).iter().map(|v| v.0).collect())
        .collect()
}

/// The mixed workload both phases run. The victim (when panic injection
/// is on) is prepended by the phases themselves so it deterministically
/// absorbs the one-shot fault.
fn workload() -> Vec<Item> {
    let cycle = edge_lists(&families::cycle(24));
    let grid = edge_lists(&families::grid(4, 4));
    let hard = edge_lists(&families::chorded_cycle(96, 48, 3));
    vec![
        Item {
            name: "cycle24 k=2",
            expect: 'W',
            edges: cycle.clone(),
            k: 2,
            kind: JobKind::Decide,
            deadline: None,
        },
        Item {
            name: "cycle24 k=1",
            expect: 'R',
            edges: cycle.clone(),
            k: 1,
            kind: JobKind::Decide,
            deadline: None,
        },
        Item {
            name: "grid4x4 minimal width",
            expect: 'E',
            edges: grid,
            k: 4,
            kind: JobKind::Sweep,
            deadline: None,
        },
        Item {
            // At k = 3 the bounds pass refutes this instance outright
            // (minor-min-width 6 ≥ k · r); k = 4 keeps the search busy.
            name: "chorded(96,48) k=4, 30 ms deadline",
            expect: 'T',
            edges: hard,
            k: 4,
            kind: JobKind::Decide,
            deadline: Some(Duration::from_millis(30)),
        },
        Item {
            name: "cycle24 k=2 (warm resubmit)",
            expect: 'W',
            edges: cycle.clone(),
            k: 2,
            kind: JobKind::Decide,
            deadline: None,
        },
        Item {
            name: "cycle24 race k=2 (portfolio)",
            expect: 'W',
            edges: cycle.clone(),
            k: 2,
            kind: JobKind::Race,
            deadline: None,
        },
        Item {
            name: "cycle24 race k=1 (portfolio)",
            expect: 'R',
            edges: cycle,
            k: 1,
            kind: JobKind::Race,
            deadline: None,
        },
    ]
}

fn victim() -> Item {
    Item {
        name: "cycle24 k=2 [victim]",
        expect: 'A',
        edges: edge_lists(&families::cycle(24)),
        k: 2,
        kind: JobKind::Decide,
        deadline: None,
    }
}

fn describe(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Decided {
            k,
            witness: Some(_),
        } => format!("hw ≤ {k} (witnessed)"),
        Outcome::Decided { k, witness: None } => format!("hw > {k} (refuted)"),
        Outcome::Width(b) => format!("{b}"),
        Outcome::TimedOut => "timed out".into(),
        Outcome::Cancelled => "cancelled".into(),
        Outcome::Panicked { message } => format!("panicked: {message}"),
        Outcome::Raced {
            k,
            winner,
            witness: Some(_),
        } => format!("hw ≤ {k} ({} won the race)", winner.name()),
        Outcome::Raced {
            k,
            winner,
            witness: None,
        } => format!("hw > {k} ({} won the race)", winner.name()),
    }
}

fn describe_wire(outcome: &WireOutcome) -> String {
    match outcome {
        WireOutcome::Decided {
            k,
            witness: Some(_),
        } => format!("hw ≤ {k} (witnessed)"),
        WireOutcome::Decided { k, witness: None } => format!("hw > {k} (refuted)"),
        WireOutcome::Width {
            proven_lower,
            best_upper,
            ..
        } => format!("bounds [{proven_lower}, {best_upper:?}]"),
        WireOutcome::TimedOut => "timed out".into(),
        WireOutcome::Cancelled => "cancelled".into(),
        WireOutcome::Panicked { message } => format!("panicked: {message}"),
        WireOutcome::Raced { k, winner, witness } => {
            let name = portfolio::EngineKind::from_index(*winner as usize)
                .map_or("unknown-engine", |e| e.name());
            if witness.is_some() {
                format!("hw ≤ {k} ({name} won the race)")
            } else {
                format!("hw > {k} ({name} won the race)")
            }
        }
    }
}

/// `(ok, panicked)` for one verdict against its expectation.
fn judge_wire(expect: char, outcome: &WireOutcome) -> (bool, bool) {
    let ok = match (expect, outcome) {
        (
            'W',
            WireOutcome::Decided {
                witness: Some(_), ..
            }
            | WireOutcome::Raced {
                witness: Some(_), ..
            },
        ) => true,
        (
            'R',
            WireOutcome::Decided { witness: None, .. } | WireOutcome::Raced { witness: None, .. },
        ) => true,
        (
            'E',
            WireOutcome::Width {
                proven_lower,
                best_upper,
                ..
            },
        ) => *best_upper == Some(*proven_lower),
        ('T', WireOutcome::TimedOut) => true,
        ('A', _) => true,
        _ => false,
    };
    (ok, matches!(outcome, WireOutcome::Panicked { .. }))
}

fn service_config(args: &Args) -> ServerConfig {
    ServerConfig {
        executors: args.executors,
        workers: args.workers,
        queue_depth: args.queue_depth,
        default_deadline: Some(Duration::from_millis(args.deadline_ms)),
        // A contained panic should be *visible* in the demo, not
        // silently retried away.
        max_retries: if args.inject_panic { 0 } else { 1 },
        ..ServerConfig::default()
    }
}

#[cfg(feature = "fault-injection")]
fn arm_panic() {
    decomp::faults::arm("logk/solve", 1, decomp::faults::Fault::Panic);
    println!("armed: panic at the first solver entry");
}

/// Phase 1: the workload through `Server::submit` directly.
fn run_in_process(args: &Args) -> usize {
    println!(
        "[in-process] {} executor(s), {} pool worker(s), queue depth {}",
        args.executors, args.workers, args.queue_depth
    );
    let server = Server::start(service_config(args));

    #[cfg(feature = "fault-injection")]
    if args.inject_panic {
        arm_panic();
    }

    let mut items = Vec::new();
    if args.inject_panic {
        // Submitted (and with one executor, executed) first, so the
        // one-shot fault lands here.
        items.push(victim());
    }
    items.extend(workload());

    let mut failures = 0;
    let mut panicked_seen = 0;
    let tickets: Vec<_> = items
        .into_iter()
        .map(|item| {
            let hg = Arc::new(hypergraph::Hypergraph::from_edge_lists(&item.edges));
            let mut req = match item.kind {
                JobKind::Decide => Request::decide(hg, item.k as usize),
                JobKind::Sweep => Request::minimal_width(hg, item.k as usize),
                JobKind::Race => Request::race(hg, item.k as usize),
            };
            if let Some(d) = item.deadline {
                req = req.with_deadline(d);
            }
            (item.name, item.expect, server.submit(req))
        })
        .collect();
    for (name, expect, ticket) in tickets {
        let Ok(ticket) = ticket else {
            println!("  {name:<40} REJECTED: {:?}", ticket.err());
            failures += 1;
            continue;
        };
        let resp = ticket.wait();
        let ok = match (expect, &resp.outcome) {
            (
                'W',
                Outcome::Decided {
                    witness: Some(_), ..
                }
                | Outcome::Raced {
                    witness: Some(_), ..
                },
            ) => true,
            (
                'R',
                Outcome::Decided { witness: None, .. } | Outcome::Raced { witness: None, .. },
            ) => true,
            ('E', Outcome::Width(b)) => b.exact(),
            ('T', Outcome::TimedOut) => true,
            ('A', _) => true,
            _ => false,
        };
        if let Outcome::Panicked { .. } = &resp.outcome {
            panicked_seen += 1;
        }
        if !ok {
            failures += 1;
        }
        println!(
            "  {name:<40} {:<28} [queue {:?}, solve {:?}]{}",
            describe(&resp.outcome),
            resp.queue_wait,
            resp.solve_time,
            if ok { "" } else { "  << UNEXPECTED" },
        );
    }

    if args.inject_panic && panicked_seen != 1 {
        println!("expected exactly one contained panic, saw {panicked_seen}");
        failures += 1;
    }

    println!("hub: {:?}", server.hub_snapshot());
    let stats = server.drain();
    println!("stats: {stats}");
    failures
}

/// Phase 2: the same workload over a loopback socket through the
/// retrying wire client.
fn run_over_wire(args: &Args) -> usize {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: service_config(args),
            ..WireConfig::default()
        },
    )
    .expect("bind wire server");
    let addr = server.local_addr();
    println!("[wire] same workload via {addr} through htdwire::WireClient");
    let client = WireClient::new(addr, ClientConfig::default());

    let mut failures = 0;
    let mut panicked_seen = 0;

    #[cfg(feature = "fault-injection")]
    if args.inject_panic {
        arm_panic();
    }
    if args.inject_panic {
        // Run the victim to completion first so the one-shot fault
        // deterministically lands on it even with many executors.
        let item = victim();
        let spec = JobSpec::decide(item.edges, item.k);
        match client.request(spec) {
            Ok(reply) => {
                let (_, panicked) = judge_wire(item.expect, &reply.outcome);
                if panicked {
                    panicked_seen += 1;
                }
                println!("  {:<40} {}", item.name, describe_wire(&reply.outcome));
            }
            Err(e) => {
                println!("  {:<40} CLIENT ERROR: {e}", item.name);
                failures += 1;
            }
        }
    }

    for item in workload() {
        let mut spec = match item.kind {
            JobKind::Decide => JobSpec::decide(item.edges, item.k),
            JobKind::Sweep => JobSpec::minimal_width(item.edges, item.k),
            JobKind::Race => JobSpec::race(item.edges, item.k),
        };
        if let Some(d) = item.deadline {
            spec = spec.with_deadline(d);
        }
        match client.request(spec) {
            Ok(reply) => {
                let (ok, panicked) = judge_wire(item.expect, &reply.outcome);
                if panicked {
                    panicked_seen += 1;
                }
                if !ok {
                    failures += 1;
                }
                println!(
                    "  {:<40} {:<28} [queue {:?}, solve {:?}, attempts {}]{}",
                    item.name,
                    describe_wire(&reply.outcome),
                    reply.queue_wait,
                    reply.solve_time,
                    reply.attempts,
                    if ok { "" } else { "  << UNEXPECTED" },
                );
            }
            Err(e) => {
                println!("  {:<40} CLIENT ERROR: {e}", item.name);
                failures += 1;
            }
        }
    }

    if args.inject_panic && panicked_seen != 1 {
        println!("expected exactly one contained panic over the wire, saw {panicked_seen}");
        failures += 1;
    }

    let report = server.drain();
    println!(
        "wire: {} connection(s), {} replies ({} raced), {} rejects",
        report.wire.connections_accepted,
        report.wire.replies_sent,
        report.wire.race_replies_sent,
        report.wire.rejects_sent
    );
    println!("stats: {}", report.service);
    failures
}

fn main() {
    let args = parse_args();
    if args.inject_panic && cfg!(not(feature = "fault-injection")) {
        eprintln!("--inject-panic needs --features fault-injection");
        std::process::exit(2);
    }

    let mut failures = run_in_process(&args);
    failures += run_over_wire(&args);

    if failures > 0 {
        eprintln!("{failures} unexpected verdict(s)");
        std::process::exit(1);
    }
}
