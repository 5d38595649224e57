//! `lkd` — command-line hypertree decomposition tool.
//!
//! ```text
//! lkd decompose <file> [--k=N] [--method=ENGINE] [--threads=N]
//!                      [--timeout-ms=N] [--pace] [--width-only]
//! lkd stats <file> [--pace]
//! ```
//!
//! `decompose` computes an optimal-width decomposition (searching k = 1…10
//! unless `--k` fixes it) and prints the certified tree; `stats` reports
//! hypergraph measures including α-acyclicity, the minor-min-width
//! lower bound on the primal treewidth and the hw lower bound it implies.
//!
//! `ENGINE` is any name of the `portfolio` engine registry
//! (`logk-seq`, `logk-par`, `logk-hybrid`, `detk`, `ghd`, `htdsat`) or
//! one of the older spellings `hybrid` (the default), `logk` and `sat`.
//! The registry runs the engine and validates its witness; the GHD
//! engines (`ghd`, `htdsat`) may print a GHD that is not an HD.

use std::process::ExitCode;
use std::time::Duration;

use decomp::Control;
use hypergraph::bounds::{minor_min_width, MINOR_BOUND_MAX_VERTICES};
use hypergraph::{is_acyclic, parse_hyperbench, parse_pace, Hypergraph};
use portfolio::{Engine, EngineKind, Verdict};

struct Opts {
    file: Option<String>,
    k: Option<usize>,
    method: EngineKind,
    threads: usize,
    timeout: Option<Duration>,
    pace: bool,
    width_only: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        file: None,
        k: None,
        method: EngineKind::LogkHybrid,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        timeout: None,
        pace: false,
        width_only: false,
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--k=") {
            let k: usize = v.parse().map_err(|e| format!("--k: {e}"))?;
            if k == 0 {
                return Err("--k must be at least 1".into());
            }
            o.k = Some(k);
        } else if let Some(v) = a.strip_prefix("--method=") {
            o.method = EngineKind::from_name(v).ok_or_else(|| format!("unknown method {v}"))?;
        } else if let Some(v) = a.strip_prefix("--threads=") {
            o.threads = v.parse().map_err(|e| format!("--threads: {e}"))?;
        } else if let Some(v) = a.strip_prefix("--timeout-ms=") {
            o.timeout = Some(Duration::from_millis(
                v.parse().map_err(|e| format!("--timeout-ms: {e}"))?,
            ));
        } else if a == "--pace" {
            o.pace = true;
        } else if a == "--width-only" {
            o.width_only = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        } else if o.file.is_none() {
            o.file = Some(a.clone());
        } else {
            return Err(format!("unexpected argument {a}"));
        }
    }
    Ok(o)
}

fn load(o: &Opts) -> Result<Hypergraph, String> {
    let path = o.file.as_ref().ok_or("missing input file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if o.pace || path.ends_with(".htd") || text.trim_start().starts_with("p htd") {
        parse_pace(&text).map_err(|e| e.to_string())
    } else {
        parse_hyperbench(&text).map_err(|e| e.to_string())
    }
}

fn decompose(o: &Opts) -> Result<(), String> {
    let hg = load(o)?;
    let ctrl = match o.timeout {
        Some(t) => Control::with_timeout(t),
        None => Control::unlimited(),
    };
    let widths = o.k.map_or(1..=10, |k| k..=k);
    let swept = Engine::new(o.method, o.threads)
        .sweep(&hg, widths, &ctrl, |_| {})
        .map_err(|e| e.to_string())?;
    match swept {
        Some((_, Verdict::Hd(d) | Verdict::Ghd(d))) => {
            println!("width: {}", d.width());
            if !o.width_only {
                println!("nodes: {}  depth: {}", d.num_nodes(), d.depth());
                print!("{}", d.render(&hg));
            }
            Ok(())
        }
        Some((_, Verdict::Memout)) => Err("SAT encoding exceeds the clause budget".into()),
        // A sweep stops on nothing else but an invalid witness.
        Some(_) => Err("internal error: witness failed validation".into()),
        None => Err(match o.k {
            Some(k) => format!("no decomposition of width <= {k}"),
            None => "no decomposition of width <= 10 found".into(),
        }),
    }
}

fn stats(o: &Opts) -> Result<(), String> {
    let hg = load(o)?;
    println!("vertices:   {}", hg.num_vertices());
    println!("edges:      {}", hg.num_edges());
    println!("max arity:  {}", hg.max_arity());
    println!("avg arity:  {:.2}", hg.avg_arity());
    println!("max degree: {}", hg.max_degree());
    println!("acyclic:    {}", is_acyclic(&hg));
    // The bounds pass's minor bound, and the hw lower bound it implies:
    // every bag holds at most k · r vertices, so tw + 1 ≤ hw · r.
    if hg.num_vertices() > MINOR_BOUND_MAX_VERTICES {
        println!("mmw:        skipped (over {MINOR_BOUND_MAX_VERTICES} vertices)");
    } else if hg.num_edges() > 0 {
        let d = minor_min_width(&hg).min_degree;
        let hw = (d + 1).div_ceil(hg.max_arity().max(1));
        println!("mmw:        {d}  (minor-min-width: primal treewidth >= {d})");
        println!("hw >=       {hw}  (ceil((mmw + 1) / max arity))");
    }
    let (reduced, _) = hg.reduced();
    println!("after subsumption reduction: {} edges", reduced.num_edges());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: lkd <decompose|stats> <file> [flags]  (see --help in source docs)";
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "decompose" => decompose(&opts),
        "stats" => stats(&opts),
        _ => Err(format!("unknown command {cmd}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
