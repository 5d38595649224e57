//! `wire_mix`: a closed loop of two `WireClient`s against a `WireServer`
//! with one executor.
//!
//! Each client waits for its reply before sending the next request, so
//! one client's request queues behind the other's and the service's
//! queue wait is real. Half the requests are hot (the `loadgen` shapes,
//! whose shared tables stay warm in the server); half are fresh
//! Application-group CQs decided at their certified width, each a new
//! random relabelling of a calibrated base, so no two share content.
//! The whole process runs on one CPU (see [`report::pin_to_one_cpu`]).
//! Every reply is checked: verdicts against the calibrated list, every
//! witness with `decomp::validate_hd_width` on the client's own build
//! of the instance.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decomp::validate_hd_width;
use htdserve::{ServerConfig, ServiceStats};
use htdwire::{
    ClientConfig, ClientError, JobSpec, WireClient, WireConfig, WireOutcome, WireServer, WireStats,
};
use hypergraph::Hypergraph;

use crate::corpus::{self, Source};
use crate::report::{self, median, ms, percentile, ratio, Metrics, Outcome, WIRE_CLASSES};
use crate::trace::Tracer;
use crate::{fatal, Args};

/// Requests per pass; `batch_s` is the median pass wall time.
const PASS_REQUESTS: usize = 200;
/// Closed-loop clients, one thread and one connection at a time each.
const CLIENTS: usize = 2;
/// Per-request deadline, far above every listed request's solve time.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Set-ups per run; `setup_s` is the median of their quieter half.
const SETUP_REPEATS: usize = 9;
/// Requests sent (unchecked for time) at the end of each set-up.
const WARMUP_REQUESTS: usize = 24;
/// Upper bound on connections per second this workload opens; the run
/// refuses to start without that many free ephemeral ports.
const MAX_CONNECTIONS_PER_S: f64 = 700.0;

/// One traffic class's shape: the job and the instance.
struct Hot {
    class: &'static str,
    edges: Vec<Vec<u32>>,
    hg: Arc<Hypergraph>,
    /// Hypertree width of the instance (calibrated).
    hw: usize,
    /// The job's width bound (`k_max` for the sweep).
    k: usize,
    /// Relative frequency within the hot half (`loadgen`'s weights).
    weight: u32,
}

/// A request of one pass, with what its reply must say.
struct Request {
    class: &'static str,
    spec: JobSpec,
    hg: Arc<Hypergraph>,
    hw: usize,
}

/// One finished request, as the client saw it.
struct Sample {
    class: &'static str,
    ok: bool,
    latency: Duration,
    queue_wait: Duration,
    solve: Duration,
    attempts: u32,
}

struct Mix {
    hot: Vec<Hot>,
    fresh: Vec<Source>,
    fresh_k: Vec<usize>,
    excluded: usize,
}

/// How a hot class asks its question.
pub enum Job {
    /// Minimal-width sweep up to k; the reply must certify hw exactly.
    Sweep,
    /// `hw ≤ k` decision (plain or raced).
    Decide,
}

/// The job and width bound of hot class `class`.
pub fn hot_job(class: &str) -> (Job, usize) {
    match class {
        "width_grid" => (Job::Sweep, 4),
        "decide_hard" => (Job::Decide, 3),
        "decide_small" | "race_small" => (Job::Decide, 2),
        other => panic!("{other} is not a hot class"),
    }
}

fn load_mix(tracer: &Tracer) -> Mix {
    let gen = tracer.open("workloads.gen", 0, 0);
    let mut sources = corpus::hot_shapes();
    sources.extend(corpus::application_cqs());
    tracer.close(gen);
    let list = corpus::list("wire_mix");
    let selected = corpus::select(sources, &list).unwrap_or_else(|e| fatal(&e));
    let build = tracer.open("hypergraph.build", 0, 0);
    let mut hot = Vec::new();
    let mut fresh = Vec::new();
    let mut fresh_k = Vec::new();
    for (s, hw) in selected {
        let weight = match s.name.as_str() {
            "decide_small" => 50,
            "width_grid" => 20,
            "race_small" => 15,
            "decide_hard" => 15,
            _ => {
                fresh.push(s);
                fresh_k.push(hw);
                continue;
            }
        };
        let class = WIRE_CLASSES
            .iter()
            .copied()
            .find(|c| *c == s.name)
            .expect("hot shape names are wire classes");
        let (_, k) = hot_job(class);
        hot.push(Hot {
            class,
            hg: Arc::new(Hypergraph::from_edge_lists(&s.edges)),
            edges: s.edges,
            hw,
            k,
            weight,
        });
    }
    tracer.close(build);
    if hot.len() != 4 || fresh.is_empty() {
        fatal("wire_mix list needs the four hot shapes and at least one fresh base");
    }
    Mix {
        hot,
        fresh,
        fresh_k,
        excluded: list.excluded,
    }
}

fn hot_request(h: &Hot) -> Request {
    let spec = match h.class {
        "width_grid" => JobSpec::minimal_width(h.edges.clone(), h.k as u32),
        "race_small" => JobSpec::race(h.edges.clone(), h.k as u32),
        _ => JobSpec::decide(h.edges.clone(), h.k as u32),
    };
    Request {
        class: h.class,
        spec,
        hg: Arc::clone(&h.hg),
        hw: h.hw,
    }
}

/// The requests of one pass, in an order drawn from `rng`. Every pass
/// has the same make-up, so passes differ in order and in which fresh
/// instances they carry, not in how much hot work they hold: half hot,
/// split between the hot classes by their weights, and half fresh, each
/// a new relabelling of a different base while the bases last.
fn pass_requests(
    mix: &Mix,
    n: usize,
    rng: &mut rand::rngs::StdRng,
    tracer: &Tracer,
) -> Vec<Request> {
    let n_hot = n / 2;
    let total_weight: u32 = mix.hot.iter().map(|h| h.weight).sum();
    let mut requests = Vec::with_capacity(n);
    // Cumulative rounding: the class counts sum to exactly `n_hot`.
    let mut cum = 0u32;
    let mut placed = 0usize;
    for h in &mix.hot {
        cum += h.weight;
        let upto = (n_hot * cum as usize + total_weight as usize / 2) / total_weight as usize;
        requests.extend((placed..upto).map(|_| hot_request(h)));
        placed = upto;
    }
    let mut bases: Vec<usize> = (0..mix.fresh.len()).collect();
    corpus::shuffle(&mut bases, rng);
    for j in 0..n - n_hot {
        let i = bases[j % bases.len()];
        let k = mix.fresh_k[i];
        let edges = corpus::relabel(&mix.fresh[i].edges, rng);
        let build = tracer.open("hypergraph.build", 0, 0);
        let hg = Arc::new(Hypergraph::from_edge_lists(&edges));
        tracer.close(build);
        requests.push(Request {
            class: "fresh_cq",
            spec: JobSpec::decide(edges, k as u32),
            hg,
            hw: k,
        });
    }
    corpus::shuffle(&mut requests, rng);
    requests
}

fn start_server() -> WireServer {
    WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: ServerConfig {
                executors: 1,
                // Solves run on the executor thread: one thread handoff
                // fewer per request, and `rayon` is measured in-process.
                workers: 0,
                queue_depth: 2 * CLIENTS,
                // Hot shapes stay warm while fresh instances stream past.
                max_instances: 64,
                ..ServerConfig::default()
            },
            retry_after_ms: 5,
            ..WireConfig::default()
        },
    )
    .unwrap_or_else(|e| fatal(&format!("cannot start the wire server: {e}")))
}

fn client(addr: SocketAddr, seed: u64, c: usize) -> WireClient {
    WireClient::new(
        addr,
        ClientConfig {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            seed: seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..ClientConfig::default()
        },
    )
}

/// Sends `req` and checks the reply. A wrong verdict or an invalid
/// witness is fatal; deadlines, sheds and transport errors are failures.
fn send(client: &WireClient, req: &Request, tracer: &Tracer, op: u64) -> Sample {
    let root = tracer.open("op", op, 0);
    let span = tracer.open("wire.request", op, root.id());
    let t0 = Instant::now();
    let result = client.request(req.spec.clone().with_deadline(REQUEST_DEADLINE));
    let latency = t0.elapsed();
    tracer.close(span);
    let mut sample = Sample {
        class: req.class,
        ok: false,
        latency,
        queue_wait: Duration::ZERO,
        solve: Duration::ZERO,
        attempts: 1,
    };
    let reply = match result {
        Ok(reply) => reply,
        Err(ClientError::RetriesExhausted { attempts, .. }) => {
            sample.attempts = attempts;
            eprintln!("wire_mix: {} shed after {attempts} attempts", req.class);
            tracer.close(root);
            return sample;
        }
        Err(e) => {
            eprintln!("wire_mix: {} failed: {e}", req.class);
            tracer.close(root);
            return sample;
        }
    };
    sample.queue_wait = reply.queue_wait;
    sample.solve = reply.solve_time;
    sample.attempts = reply.attempts;
    let (k, witness) = match reply.outcome {
        WireOutcome::Decided { k, witness } | WireOutcome::Raced { k, witness, .. } => {
            (k as usize, witness)
        }
        WireOutcome::Width {
            proven_lower,
            best_upper,
            witness,
            interrupted: None,
        } => {
            if proven_lower as usize != req.hw || best_upper.map(|u| u as usize) != Some(req.hw) {
                fatal(&format!(
                    "{}: width bounds [{proven_lower}, {best_upper:?}], expected {}",
                    req.class, req.hw
                ));
            }
            (req.hw, witness)
        }
        other => {
            eprintln!("wire_mix: {} ended without a verdict: {other:?}", req.class);
            tracer.close(root);
            return sample;
        }
    };
    let expect_yes = req.hw <= k;
    match witness {
        None if expect_yes => fatal(&format!(
            "{}: refuted width {k}, hw is {}",
            req.class, req.hw
        )),
        Some(_) if !expect_yes => fatal(&format!(
            "{}: witness at width {k} < hw {}",
            req.class, req.hw
        )),
        None => {}
        Some(w) => {
            let span = tracer.open("decomp.validate", op, root.id());
            let d = w
                .into_decomposition(&req.hg)
                .unwrap_or_else(|e| fatal(&format!("{}: undecodable witness: {e:?}", req.class)));
            if let Err(v) = validate_hd_width(&req.hg, &d, k) {
                fatal(&format!(
                    "{}: invalid witness at width {k}: {v:?}",
                    req.class
                ));
            }
            tracer.close(span);
        }
    }
    tracer.close(root);
    sample.ok = true;
    sample
}

/// Free ephemeral ports and sockets in TIME_WAIT, from `/proc`.
///
/// TIME_WAIT sockets hold their ports unless `net.ipv4.tcp_tw_reuse`
/// lets new connections take them over (1 everywhere, 2 on loopback,
/// which is where every connection of this workload goes).
fn port_budget() -> (i64, i64) {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let bounds: Vec<i64> = read("/proc/sys/net/ipv4/ip_local_port_range")
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    let size = match bounds[..] {
        [lo, hi] => hi - lo + 1,
        _ => 28_232,
    };
    let stat = read("/proc/net/sockstat");
    let words: Vec<&str> = stat
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let field = |key: &str| -> i64 {
        words
            .windows(2)
            .find(|w| w[0] == key)
            .and_then(|w| w[1].parse().ok())
            .unwrap_or(0)
    };
    let tw = field("tw");
    let tw_reusable = matches!(read("/proc/sys/net/ipv4/tcp_tw_reuse").trim(), "1" | "2");
    let held = field("inuse") + if tw_reusable { 0 } else { tw };
    (size - held, tw)
}

fn service_delta(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    let mut wins = b.races_won_by;
    for (w, a) in wins.iter_mut().zip(a.races_won_by) {
        *w -= a;
    }
    ServiceStats {
        shed_overload: b.shed_overload - a.shed_overload,
        shed_expired: b.shed_expired - a.shed_expired,
        timed_out: b.timed_out - a.timed_out,
        retried: b.retried - a.retried,
        coalesced: b.coalesced - a.coalesced,
        races: b.races - a.races,
        races_won_by: wins,
        race_cancels: b.race_cancels - a.race_cancels,
        speculative_wasted: b.speculative_wasted - a.speculative_wasted,
        ..ServiceStats::default()
    }
}

fn wire_delta(a: &WireStats, b: &WireStats) -> WireStats {
    WireStats {
        connections_accepted: b.connections_accepted - a.connections_accepted,
        frames_rejected: b.frames_rejected - a.frames_rejected,
        rejects_sent: b.rejects_sent - a.rejects_sent,
        ..WireStats::default()
    }
}

struct Pass {
    wall: Duration,
    /// Share of the CPU's time the hypervisor stole meanwhile.
    steal: f64,
    traced: bool,
    samples: Vec<Sample>,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    fn rate(&self) -> f64 {
        ratio(self.ok().count() as f64, self.wall.as_secs_f64())
    }

    /// Percentile `p` of the pass's answered requests' latencies; 200
    /// requests leave 10 beyond the p95.
    fn latency(&self, p: f64) -> f64 {
        let v: Vec<f64> = self.ok().map(|s| ms(s.latency)).collect();
        percentile(&v, p)
    }
}

pub fn run(args: &Args) -> (Metrics, Outcome) {
    // Server, executor and both clients share one CPU, which they keep
    // busy: a request's thread hand-offs are then switches on that CPU,
    // not wake-ups of an idle second CPU, whose delay on a shared host
    // depends on the neighbours and would set most of every latency.
    let pinned = report::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("wire_mix: could not pin the process to one CPU; figures will spread more");
    }
    let (free, _) = port_budget();
    let need = (MAX_CONNECTIONS_PER_S * args.seconds.as_secs_f64()) as i64;
    if free < need {
        fatal(&format!(
            "only {free} ephemeral ports free, the run may need {need}: \
             wait for TIME_WAIT sockets to expire"
        ));
    }
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut metrics = Metrics::default();

    let mut setups = Vec::new();
    let mut state: Option<(Mix, WireServer)> = None;
    for r in 0..SETUP_REPEATS {
        if let Some((_, server)) = state.take() {
            server.shutdown();
        }
        let steal0 = report::steal_ticks();
        let t0 = Instant::now();
        let mix = load_mix(&tracer);
        let server = start_server();
        let warm_client = client(server.local_addr(), args.seed, 0);
        let mut rng = corpus::rng(args.seed, 0x5E70 + r as u64);
        let mut warm = pass_requests(&mix, WARMUP_REQUESTS, &mut rng, &off);
        warm.extend(mix.hot.iter().map(hot_request));
        for (i, req) in warm.iter().enumerate() {
            if !send(&warm_client, req, &off, i as u64).ok {
                fatal("a warm-up request failed");
            }
        }
        let wall = t0.elapsed();
        setups.push((wall.as_secs_f64(), report::steal_frac(steal0, wall)));
        state = Some((mix, server));
    }
    let (mix, server) = state.expect("at least one set-up");
    metrics.set("setup_s", report::quiet_median(&setups));

    let addr = server.local_addr();
    let clients: Vec<WireClient> = (0..CLIENTS)
        .map(|c| client(addr, args.seed, c + 1))
        .collect();
    let svc0 = server.service_stats();
    let wire0 = server.wire_stats();
    let mut passes: Vec<Pass> = Vec::new();
    let mut op_base = 0u64;
    let cpu0 = report::process_cpu();
    let steal0 = report::steal_ticks();
    let started = Instant::now();
    while passes.len() < args.min_passes() || started.elapsed() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        let tr = if traced { &tracer } else { &off };
        let mut rng = corpus::rng(args.seed, 0x9A55 + passes.len() as u64);
        let requests = pass_requests(&mix, PASS_REQUESTS, &mut rng, &off);
        let cursor = AtomicUsize::new(0);
        let steal0 = report::steal_ticks();
        let t0 = Instant::now();
        let samples: Vec<Sample> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter()
                .map(|client| {
                    let (requests, cursor) = (&requests, &cursor);
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = requests.get(i) else { break };
                            local.push(send(client, req, tr, op_base + i as u64));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed();
        passes.push(Pass {
            wall,
            steal: report::steal_frac(steal0, wall),
            traced,
            samples,
        });
        op_base += PASS_REQUESTS as u64;
    }
    let cpu = report::process_cpu().saturating_sub(cpu0);
    let steal = report::steal_frac(steal0, started.elapsed());
    let svc = service_delta(&svc0, &server.service_stats());
    let wire = wire_delta(&wire0, &server.wire_stats());
    drop(clients);
    server.drain();

    let samples: Vec<&Sample> = passes.iter().flat_map(|p| &p.samples).collect();
    let attempted = samples.len() as u64;
    let ok: Vec<&Sample> = samples.iter().copied().filter(|s| s.ok).collect();
    let n_ok = ok.len() as f64;
    // End-to-end figures are medians over the quieter half of the
    // untraced passes (see `report::quiet_median`).
    let over = |traced: bool, f: &dyn Fn(&Pass) -> f64| -> f64 {
        let v: Vec<(f64, f64)> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| (f(p), p.steal))
            .collect();
        report::quiet_median(&v)
    };
    metrics.set("batch_s", over(false, &|p| p.wall.as_secs_f64()));
    metrics.set("throughput_rps", over(false, &Pass::rate));
    metrics.set("latency_p50_ms", over(false, &|p| p.latency(0.50)));
    metrics.set("latency_p95_ms", over(false, &|p| p.latency(0.95)));
    metrics.set("success_frac", ratio(n_ok, attempted as f64));
    metrics.set("peak_rss_mib", report::peak_rss_mib());
    metrics.set("cpu_ms_per_op", ratio(ms(cpu), n_ok));
    let (_, time_wait) = port_budget();
    eprintln!(
        "wire_mix: on CPU {pinned:?}, {} fresh bases ({} excluded by calibration), {} passes, \
         {} requests, {} ok, {} in TIME_WAIT, steal {:.1}%; pass walls {:.3?}",
        mix.fresh.len(),
        mix.excluded,
        passes.len(),
        attempted,
        ok.len(),
        time_wait,
        steal * 100.0,
        passes
            .iter()
            .map(|p| (p.wall.as_secs_f64(), p.steal))
            .collect::<Vec<_>>()
    );

    if args.trace {
        let per_pass = |x: u64| x as f64 / passes.len() as f64;
        let pcts = |f: &dyn Fn(&Sample) -> f64| -> (f64, f64) {
            let v: Vec<f64> = ok.iter().map(|s| f(s)).collect();
            (percentile(&v, 0.50), percentile(&v, 0.95))
        };
        let (q50, q95) = pcts(&|s| ms(s.queue_wait));
        let (s50, s95) = pcts(&|s| ms(s.solve));
        let (o50, o95) = pcts(&|s| ms(s.latency.saturating_sub(s.queue_wait + s.solve)));
        metrics.set(
            "workloads.gen_ms",
            tracer.total_ms("workloads.gen") / SETUP_REPEATS as f64,
        );
        metrics.set("workloads.excluded", mix.excluded as f64);
        metrics.set(
            "hypergraph.build_ms",
            tracer.total_ms("hypergraph.build") / SETUP_REPEATS as f64,
        );
        metrics.set(
            "hypergraph.words_max",
            mix.hot
                .iter()
                .map(|h| corpus::words(&h.hg))
                .chain(
                    mix.fresh
                        .iter()
                        .map(|f| corpus::words(&Hypergraph::from_edge_lists(&f.edges))),
                )
                .max()
                .unwrap_or(0) as f64,
        );
        let traced_passes = passes.iter().filter(|p| p.traced).count().max(1) as f64;
        metrics.set(
            "decomp.validate_ms",
            tracer.total_ms("decomp.validate") / traced_passes,
        );
        metrics.set("service.queue_wait_ms.p50", q50);
        metrics.set("service.queue_wait_ms.p95", q95);
        metrics.set("service.solve_ms.p50", s50);
        metrics.set("service.solve_ms.p95", s95);
        metrics.set("service.coalesced", per_pass(svc.coalesced));
        metrics.set(
            "service.shed",
            per_pass(svc.shed_overload + svc.shed_expired),
        );
        metrics.set("service.timed_out", per_pass(svc.timed_out));
        metrics.set("service.retried", per_pass(svc.retried));
        metrics.set("portfolio.races", per_pass(svc.races));
        metrics.set("portfolio.race_cancels", per_pass(svc.race_cancels));
        metrics.set(
            "portfolio.wasted_per_race",
            ratio(svc.speculative_wasted as f64, svc.races as f64),
        );
        for (i, wins) in svc.races_won_by.iter().enumerate() {
            let name = portfolio::EngineKind::from_index(i).map(|e| e.name());
            if let Some(metric) = name.and_then(|n| {
                report::PER_LAYER
                    .iter()
                    .find(|(m, _)| m.strip_prefix("portfolio.wins.") == Some(n))
            }) {
                metrics.set(metric.0, per_pass(*wins));
            }
        }
        metrics.set("wire.overhead_ms.p50", o50);
        metrics.set("wire.overhead_ms.p95", o95);
        metrics.set(
            "wire.attempts_per_req",
            ratio(
                samples.iter().map(|s| s.attempts as f64).sum(),
                attempted as f64,
            ),
        );
        metrics.set("wire.connections", per_pass(wire.connections_accepted));
        metrics.set("wire.rejects", per_pass(wire.rejects_sent));
        metrics.set("wire.frames_rejected", per_pass(wire.frames_rejected));
        metrics.set("wire.time_wait", time_wait as f64);
        for &class in WIRE_CLASSES {
            let v: Vec<f64> = ok
                .iter()
                .filter(|s| s.class == class)
                .map(|s| ms(s.latency))
                .collect();
            let name = report::PER_LAYER
                .iter()
                .find(|(m, _)| *m == format!("wire_mix.{class}.latency_p50_ms"))
                .expect("every wire class has a latency metric")
                .0;
            metrics.set(name, median(&v));
        }
        let wall = |p: &Pass| p.wall.as_secs_f64();
        metrics.set(
            "trace.batch_s_ratio",
            ratio(over(true, &wall), over(false, &wall)),
        );
        metrics.set(
            "trace.throughput_ratio",
            ratio(over(true, &Pass::rate), over(false, &Pass::rate)),
        );
        metrics.set("env.steal_frac", steal);
        let path = crate::spans_path("wire_mix", args.seed);
        if let Err(e) = tracer.write(&path) {
            eprintln!("wire_mix: could not write spans to {}: {e}", path.display());
        }
    }
    let failed = attempted - ok.len() as u64;
    (metrics, Outcome { attempted, failed })
}
