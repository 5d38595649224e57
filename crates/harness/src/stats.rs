//! Runtime statistics in the paper's format: #solved, avg, max, stdev —
//! averages taken over *solved* instances only (Section 5.1: "timed out
//! instances are not considered in the running time calculation").

/// Aggregate of solved-run times.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Number of solved runs.
    pub solved: usize,
    /// Mean runtime over solved runs (seconds).
    pub avg: f64,
    /// Maximum runtime over solved runs (seconds).
    pub max: f64,
    /// Population standard deviation over solved runs (seconds).
    pub stdev: f64,
}

impl Stats {
    /// Computes stats from the runtimes of solved runs.
    pub fn from_times(times: &[f64]) -> Stats {
        if times.is_empty() {
            return Stats::default();
        }
        let n = times.len() as f64;
        let avg = times.iter().sum::<f64>() / n;
        let max = times.iter().cloned().fold(0.0_f64, f64::max);
        let var = times.iter().map(|t| (t - avg) * (t - avg)).sum::<f64>() / n;
        Stats {
            solved: times.len(),
            avg,
            max,
            stdev: var.sqrt(),
        }
    }

    /// One formatted row cell: `#solved avg max stdev`.
    pub fn cell(&self) -> String {
        format!(
            "{:>5}  {:>8.2} {:>8.2} {:>8.2}",
            self.solved, self.avg, self.max, self.stdev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let s = Stats::from_times(&[]);
        assert_eq!(s.solved, 0);
        assert_eq!(s.avg, 0.0);
    }

    #[test]
    fn known_values() {
        let s = Stats::from_times(&[1.0, 2.0, 3.0]);
        assert_eq!(s.solved, 3);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        assert!((s.stdev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
