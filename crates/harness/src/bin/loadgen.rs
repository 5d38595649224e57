//! Tail-latency load generator for the wire frontend.
//!
//! Starts a [`htdwire::WireServer`] on an ephemeral port, drives it
//! with sustained mixed traffic (fast decisions, minimal-width sweeps,
//! portfolio races, and deadline-doomed hard instances) from many
//! concurrent connections, and reports client-observed latency
//! percentiles, shed rate and goodput as JSON.
//!
//! Flags: `--workers N` service executors (2; the server's pool
//! `workers` is 1, so each executor solves inline on its own thread),
//! `--clients N` concurrent client threads (8), `--duration-ms N`
//! sustained-load window (2000), `--deadline-ms N` per-request deadline
//! (300), `--queue N` admission queue depth (4), `--seed N` traffic-mix
//! seed (7), `--out PATH` output file (`BENCH_service_load.json`).
//!
//! The output follows the workspace bench schema (`group` + `benches`
//! with `median_ns` entries, readable by `bench::parse_medians`);
//! latency percentiles appear as benches `p50_latency`/`p95_latency`/
//! `p99_latency`, with the traffic accounting alongside. See
//! BENCHMARKS.md § Service load.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use htdserve::ServerConfig;
use htdwire::{ClientConfig, ClientError, JobSpec, WireClient, WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::families;

struct Args {
    workers: usize,
    clients: usize,
    duration_ms: u64,
    deadline_ms: u64,
    queue_depth: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 2,
        clients: 8,
        duration_ms: 2000,
        deadline_ms: 300,
        queue_depth: 4,
        seed: 7,
        out: "BENCH_service_load.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut next = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let num = |name: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--workers" => args.workers = num("--workers", next("--workers")) as usize,
            "--clients" => args.clients = num("--clients", next("--clients")) as usize,
            "--duration-ms" => args.duration_ms = num("--duration-ms", next("--duration-ms")),
            "--deadline-ms" => args.deadline_ms = num("--deadline-ms", next("--deadline-ms")),
            "--queue" => args.queue_depth = num("--queue", next("--queue")) as usize,
            "--seed" => args.seed = num("--seed", next("--seed")),
            "--out" => args.out = next("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn edge_lists(hg: &hypergraph::Hypergraph) -> Vec<Vec<u32>> {
    hg.edge_ids()
        .map(|e| hg.edge(e).iter().map(|v| v.0).collect())
        .collect()
}

/// One finished request, as the client saw it.
struct Sample {
    class: &'static str,
    latency: Duration,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A verdict (decided / width bounds) inside the deadline.
    Ok,
    /// Answered, but the deadline fired first.
    TimedOut,
    /// Load-shed: overloaded/expired past the retry budget.
    Shed,
    /// Anything else (transport errors, contained panics, ...).
    Error,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: ServerConfig {
                executors: args.workers,
                workers: 1,
                queue_depth: args.queue_depth,
                ..ServerConfig::default()
            },
            retry_after_ms: 5,
            ..WireConfig::default()
        },
    )
    .expect("bind loadgen server");
    let addr = server.local_addr();
    eprintln!(
        "loadgen: {} executor(s), queue {}, {} client(s), {} ms @ {}",
        args.workers, args.queue_depth, args.clients, args.duration_ms, addr
    );

    // The traffic mix: mostly fast decisions (the goodput carriers),
    // some sweeps, and a slice of deadline-doomed hard instances that
    // occupy executors and pressure the tail.
    let small = edge_lists(&families::cycle(24));
    let grid = edge_lists(&families::grid(4, 4));
    let hard = edge_lists(&families::chorded_cycle(64, 24, 7));
    let deadline = Duration::from_millis(args.deadline_ms);

    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let started = Instant::now();
    let until = started + Duration::from_millis(args.duration_ms);
    std::thread::scope(|s| {
        for c in 0..args.clients {
            let samples = &samples;
            let (small, grid, hard) = (&small, &grid, &hard);
            let seed = args.seed;
            s.spawn(move || {
                let client = WireClient::new(
                    addr,
                    ClientConfig {
                        max_attempts: 2, // one overload retry, then count as shed
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(20),
                        seed: seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ..ClientConfig::default()
                    },
                );
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
                let mut local = Vec::new();
                while Instant::now() < until {
                    let roll: u32 = rng.random_range(0..100);
                    let (class, spec) = if roll < 50 {
                        ("decide_small", JobSpec::decide(small.clone(), 2))
                    } else if roll < 70 {
                        ("width_grid", JobSpec::minimal_width(grid.clone(), 4))
                    } else if roll < 85 {
                        ("race_small", JobSpec::race(small.clone(), 2))
                    } else {
                        ("decide_hard", JobSpec::decide(hard.clone(), 3))
                    };
                    let t0 = Instant::now();
                    let result = client.request(spec.with_deadline(deadline));
                    let latency = t0.elapsed();
                    let kind = match &result {
                        Ok(reply) => match &reply.outcome {
                            htdwire::WireOutcome::Decided { .. }
                            | htdwire::WireOutcome::Width { .. }
                            | htdwire::WireOutcome::Raced { .. } => Kind::Ok,
                            htdwire::WireOutcome::TimedOut => Kind::TimedOut,
                            _ => Kind::Error,
                        },
                        Err(ClientError::Rejected(_))
                        | Err(ClientError::RetriesExhausted { .. }) => Kind::Shed,
                        Err(_) => Kind::Error,
                    };
                    local.push(Sample {
                        class,
                        latency,
                        kind,
                    });
                }
                samples.lock().unwrap().extend(local);
            });
        }
    });
    let wall = started.elapsed();
    let report = server.drain();

    let samples = samples.into_inner().unwrap();
    let total = samples.len();
    let count = |k: Kind| samples.iter().filter(|s| s.kind == k).count();
    let (ok, timed_out, shed, errors) = (
        count(Kind::Ok),
        count(Kind::TimedOut),
        count(Kind::Shed),
        count(Kind::Error),
    );
    let mut ok_latencies: Vec<Duration> = samples
        .iter()
        .filter(|s| s.kind == Kind::Ok)
        .map(|s| s.latency)
        .collect();
    ok_latencies.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&ok_latencies, 0.50),
        percentile(&ok_latencies, 0.95),
        percentile(&ok_latencies, 0.99),
    );
    let shed_rate = if total > 0 {
        shed as f64 / total as f64
    } else {
        0.0
    };
    let goodput_rps = ok as f64 / wall.as_secs_f64();

    let mut per_class = String::new();
    for class in ["decide_small", "width_grid", "race_small", "decide_hard"] {
        let n = samples.iter().filter(|s| s.class == class).count();
        let n_ok = samples
            .iter()
            .filter(|s| s.class == class && s.kind == Kind::Ok)
            .count();
        if !per_class.is_empty() {
            per_class.push_str(", ");
        }
        per_class.push_str(&format!("\"{class}\": {{\"total\": {n}, \"ok\": {n_ok}}}"));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"group\": \"service/load\",\n",
            "  \"workers\": {workers},\n",
            "  \"clients\": {clients},\n",
            "  \"duration_ms\": {duration},\n",
            "  \"deadline_ms\": {deadline},\n",
            "  \"queue_depth\": {queue},\n",
            "  \"benches\": [\n",
            "    {{\"id\": \"p50_latency\", \"median_ns\": {p50}}},\n",
            "    {{\"id\": \"p95_latency\", \"median_ns\": {p95}}},\n",
            "    {{\"id\": \"p99_latency\", \"median_ns\": {p99}}}\n",
            "  ],\n",
            "  \"requests\": {{\"total\": {total}, \"ok\": {ok}, \"timed_out\": {timed_out}, ",
            "\"shed\": {shed}, \"errors\": {errors}}},\n",
            "  \"per_class\": {{{per_class}}},\n",
            "  \"shed_rate\": {shed_rate:.4},\n",
            "  \"goodput_rps\": {goodput:.1},\n",
            "  \"service\": {{\"submitted\": {submitted}, \"shed_overload\": {shed_overload}, ",
            "\"shed_expired\": {shed_expired}, \"completed\": {completed}, ",
            "\"timed_out\": {svc_timed_out}, \"expired_in_queue\": {expired_in_queue}, ",
            "\"coalesced\": {coalesced}, \"races\": {races}, ",
            "\"race_cancels\": {race_cancels}, \"speculative_wasted\": {speculative_wasted}, ",
            "\"races_won_by\": {races_won_by}}},\n",
            "  \"wire\": {{\"connections\": {conns}, \"replies\": {replies}, ",
            "\"race_replies\": {race_replies}, \"rejects\": {rejects}}}\n",
            "}}\n",
        ),
        workers = args.workers,
        clients = args.clients,
        duration = args.duration_ms,
        deadline = args.deadline_ms,
        queue = args.queue_depth,
        p50 = p50.as_nanos(),
        p95 = p95.as_nanos(),
        p99 = p99.as_nanos(),
        total = total,
        ok = ok,
        timed_out = timed_out,
        shed = shed,
        errors = errors,
        per_class = per_class,
        shed_rate = shed_rate,
        goodput = goodput_rps,
        submitted = report.service.submitted,
        shed_overload = report.service.shed_overload,
        shed_expired = report.service.shed_expired,
        completed = report.service.completed,
        svc_timed_out = report.service.timed_out,
        expired_in_queue = report.service.expired_in_queue,
        coalesced = report.service.coalesced,
        races = report.service.races,
        race_cancels = report.service.race_cancels,
        speculative_wasted = report.service.speculative_wasted,
        races_won_by = {
            let wins: Vec<String> = report
                .service
                .races_won_by
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let name = portfolio::EngineKind::from_index(i).map_or("?", |e| e.name());
                    format!("{{\"engine\": \"{name}\", \"wins\": {n}}}")
                })
                .collect();
            format!("[{}]", wins.join(", "))
        },
        conns = report.wire.connections_accepted,
        replies = report.wire.replies_sent,
        race_replies = report.wire.race_replies_sent,
        rejects = report.wire.rejects_sent,
    );
    std::fs::write(&args.out, &json).expect("write loadgen report");
    eprintln!(
        "loadgen: {total} requests in {wall:.1?} — ok {ok}, timed-out {timed_out}, \
         shed {shed} ({:.1}%), errors {errors}",
        shed_rate * 100.0
    );
    eprintln!("loadgen: p50 {p50:?}  p95 {p95:?}  p99 {p99:?}  goodput {goodput_rps:.1} req/s");
    eprintln!("loadgen: wrote {}", args.out);

    // The generator is also a smoke test: sustained load must produce
    // real goodput and no transport-level errors.
    if ok == 0 || errors > 0 {
        eprintln!("loadgen: FAILED (ok={ok}, errors={errors})");
        std::process::exit(1);
    }
}
