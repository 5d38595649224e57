//! End-to-end benchmark of the log-k-decomp stack.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --calibrate <workload>
//! ```
//!
//! Workloads: `hb_sweep_t1`, `hblarge_t2`, `wire_mix` (see README.md).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric of
//! `report::END_TO_END` untraced, every per-layer metric of
//! `report::PER_LAYER` with `--trace 1`. A wrong verdict or an invalid
//! witness prints no result and exits with code 1.

mod calibrate;
mod corpus;
mod inproc;
mod report;
mod trace;
mod wire_mix;

use std::time::Duration;

/// Parsed command line of a measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// Passes a run makes at least: a traced run alternates untraced and
    /// traced passes and needs one of each.
    pub fn min_passes(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// Reports `msg` and exits with code 1, printing no result.
pub fn fatal(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    std::process::exit(1);
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--calibrate" => {
                calibrate::run(&value()?);
                return Ok(None);
            }
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    }))
}

fn main() {
    // Pin the ambient work-stealing pool before anything can build it:
    // every solver below names its thread count explicitly, and an
    // inherited `RAYON_NUM_THREADS` must not change any workload.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => fatal(&e),
    };
    let (metrics, outcome) = match args.workload.as_str() {
        "hb_sweep_t1" => inproc::run(&inproc::HB_SWEEP_T1, &args),
        "hblarge_t2" => inproc::run(&inproc::HBLARGE_T2, &args),
        "wire_mix" => wire_mix::run(&args),
        other => fatal(&format!("unknown workload {other}")),
    };
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report::emit(table, &metrics, &outcome);
}
