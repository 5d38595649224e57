//! Metric names, units and the one-line JSON result.
//!
//! The two tables below are the benchmark's whole metric schema: an
//! untraced run prints every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric, whatever the workload. A metric that does not
//! apply to a workload reads 0 (see README.md for the layer map).

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// The wire-mix traffic classes, in report order.
pub const WIRE_CLASSES: &[&str] = &[
    "decide_small",
    "width_grid",
    "race_small",
    "decide_hard",
    "fresh_cq",
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("workloads.excluded", "count"),
    ("hypergraph.build_ms", "ms"),
    ("hypergraph.words_max", "count"),
    ("logk.yes_ms", "ms"),
    ("logk.no_ms", "ms"),
    ("logk.calls", "count"),
    ("logk.decomp_calls", "count"),
    ("logk.max_depth", "count"),
    ("logk.separations", "count"),
    ("logk.lambda_c_rejected", "count"),
    ("logk.lambda_p_rejected", "count"),
    ("logk.lambda_p_prefiltered", "count"),
    ("logk.cache_hit_ratio", "ratio"),
    ("logk.cache_evictions", "count"),
    ("logk.max_instance_share", "ratio"),
    ("logk.child_splits", "count"),
    ("logk.child_cancels", "count"),
    ("logk.t2_speedup", "ratio"),
    ("rayon.steals", "count"),
    ("rayon.parks", "count"),
    ("detk.handoffs", "count"),
    ("detk.memo_hit_ratio", "ratio"),
    ("decomp.validate_ms", "ms"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p95", "ms"),
    ("service.solve_ms.p50", "ms"),
    ("service.solve_ms.p95", "ms"),
    ("service.coalesced", "count"),
    ("service.shed", "count"),
    ("service.timed_out", "count"),
    ("service.retried", "count"),
    ("portfolio.races", "count"),
    ("portfolio.race_cancels", "count"),
    ("portfolio.wasted_per_race", "ratio"),
    ("portfolio.wins.logk-seq", "count"),
    ("portfolio.wins.logk-par", "count"),
    ("portfolio.wins.logk-hybrid", "count"),
    ("portfolio.wins.detk", "count"),
    ("portfolio.wins.ghd", "count"),
    ("portfolio.wins.htdsat", "count"),
    ("wire.overhead_ms.p50", "ms"),
    ("wire.overhead_ms.p95", "ms"),
    ("wire.attempts_per_req", "ratio"),
    ("wire.connections", "count"),
    ("wire.rejects", "count"),
    ("wire.frames_rejected", "count"),
    ("wire.time_wait", "count"),
    ("wire_mix.decide_small.latency_p50_ms", "ms"),
    ("wire_mix.width_grid.latency_p50_ms", "ms"),
    ("wire_mix.race_small.latency_p50_ms", "ms"),
    ("wire_mix.decide_hard.latency_p50_ms", "ms"),
    ("wire_mix.fresh_cq.latency_p50_ms", "ms"),
    ("trace.batch_s_ratio", "ratio"),
    ("trace.throughput_ratio", "ratio"),
    ("env.steal_frac", "ratio"),
];

/// Named metric values, filled by a workload and printed by [`emit`].
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be in one of the schema tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the schema"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Operation accounting of one run.
pub struct Outcome {
    /// Timed operations started.
    pub attempted: u64,
    /// Timed operations that hit a deadline, were shed, or errored.
    pub failed: u64,
}

/// Prints the result line: the metrics of `table`, each with its unit.
/// Metrics a workload did not set read 0.
pub fn emit(table: &[(&'static str, &'static str)], metrics: &Metrics, outcome: &Outcome) {
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = metrics.get(name);
            // An empty f64 sum is -0.0: print every zero as 0.
            let v = if v.is_finite() && v != 0.0 { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}

/// Nearest-rank percentile `p` (0..=1) of `values`, 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let total = ticks(11) + ticks(12);
    // The kernel's USER_HZ is 100 on every Linux ABI this runs on.
    Duration::from_millis(total * 10)
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the last CPU it may run on. Returns that CPU, or `None` when the
/// kernel refused or the allowed set is unknown.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        // glibc: int sched_setaffinity(pid_t, size_t, const cpu_set_t *)
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = *allowed_cpus().last()?;
    // A 1024-bit mask, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly `cpusetsize` bytes, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Median of the values of `samples`, (value, steal share) pairs, over
/// their quieter half (rounded up): the samples the hypervisor took the
/// least CPU time from. The sort is stable, so among equally quiet
/// samples the earlier ones count, whatever their values. A neighbour's
/// burst on the shared host then moves the figure only when it covers
/// most of the run.
pub fn quiet_median(samples: &[(f64, f64)]) -> f64 {
    let mut quiet = samples.to_vec();
    quiet.sort_by(|a, b| a.1.total_cmp(&b.1));
    quiet.truncate(quiet.len().div_ceil(2));
    let v: Vec<f64> = quiet.into_iter().map(|(value, _)| value).collect();
    median(&v)
}

/// CPU time the hypervisor took so far from the CPUs this process may
/// run on (the `steal` column of their `cpuN` lines in `/proc/stat`), in
/// clock ticks.
pub fn steal_ticks() -> u64 {
    let cpus = allowed_cpus();
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let cpu = fields.next()?.strip_prefix("cpu")?.parse::<usize>().ok()?;
            if !cpus.contains(&cpu) {
                return None;
            }
            fields.nth(7)?.parse::<u64>().ok()
        })
        .sum()
}

/// Share of the allowed CPUs' time stolen since `since` ticks, over a
/// window of `elapsed`: a diagnostic for runs disturbed by neighbours.
pub fn steal_frac(since: u64, elapsed: Duration) -> f64 {
    let cpus = allowed_cpus().len().max(1) as f64;
    let ticks = steal_ticks().saturating_sub(since) as f64;
    ratio(ticks / 100.0, elapsed.as_secs_f64() * cpus)
}
