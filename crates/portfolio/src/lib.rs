//! The engine registry, and the algorithm portfolio that races it.
//!
//! [`EngineKind`] names every engine in the workspace and [`Engine`] is
//! one configured engine. [`Engine::decide`] (the bounds pass, then
//! [`Engine::search`]) is the only place that turns an engine identity
//! into a solver call and a raw answer into a [`Verdict`];
//! [`Engine::sweep`] iterates it over widths. The `lkd` CLI, the harness
//! tables and [`Portfolio::race`] all consume it, so they share one
//! verdict rule.
//!
//! A [`Portfolio`] races engines on the *same* `hw(H) ≤ k` question,
//! first definitive verdict wins. Its field is `logk-seq` and `detk`,
//! the pairing of the paper's Hybrid: `log-k-decomp` against the
//! det-k baseline, which is often the faster engine on small widths.
//! Those two are the only engines that ever won a race in the service's
//! traffic (the end-to-end `wire_mix` workload, the `loadgen` run and
//! `micro/race`); every other engine stays in the registry as a
//! standalone engine. Each racer runs on its own thread under its own
//! [`Control::child`] of the race control; the moment one produces a
//! **definitive** verdict the other is cancelled through the child
//! chain (the same kill mechanism the engines' sibling parallelism
//! uses), within the bounded latency the interruption suite pins.
//!
//! # Verdict authority
//!
//! The engines differ in what their raw answers prove. Every witness is
//! validated at width ≤ k before it is classified:
//!
//! | engine            | witness | no witness |
//! |-------------------|---------|------------|
//! | `logk-*`, `detk`  | [`Verdict::Hd`]; [`Verdict::Invalid`] unless it validates as an HD | [`Verdict::Refuted`] |
//! | `ghd`             | `Hd`, or [`Verdict::Ghd`] when it validates only as a GHD | [`Verdict::Miss`]: the balanced-separator search is one-sided, so a miss proves nothing |
//! | `htdsat`          | `Hd`, or `Ghd` when it validates only as a GHD | `Refuted` (`ghw > k` ⇒ `hw > k`, since every HD is a GHD); [`Verdict::Memout`] when the encoding exceeds the clause budget |
//!
//! Only `Hd` and `Refuted` answer `hw(H) ≤ k` ([`Verdict::hw_answer`]);
//! the race counts every other verdict as advisory.
//!
//! Every kind first runs the bounds pass ([`logk::settle()`]), the `logk`
//! kinds inside their solve and the others in [`Engine::decide`]. GYO
//! answers `k = 1` for every engine, so there `ghd` refutes instead of
//! missing; a minor-min-width refutation is `Refuted` for every engine.
//! The pass's witness is validated like any other. A race runs the pass
//! once, before it launches any racer: a call it settles is answered
//! without racing (every engine would give the same answer, and the
//! field's first engine is named the winner), and otherwise every racer
//! runs its search alone.
//!
//! # Join precedence
//!
//! Rejection dominates interruption: a definitive verdict (either
//! polarity) arriving *after* other racers timed out still wins — `Err` is
//! returned only when **no** racer reached a definitive verdict. A
//! panicking racer is contained on its own thread (fault site
//! `portfolio/engine`); the surviving racers' verdict stands.

use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;

use decomp::{validate_hd_width, Control, Decomposition, Interrupted, Violation};
use hypergraph::Hypergraph;
use logk::{HybridConfig, LogK, SharedTables, SolveStats};

/// One engine in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Sequential Algorithm 2 (`logk`).
    LogkSeq,
    /// Parallel Algorithm 2 on the shared pool.
    LogkPar,
    /// Parallel `logk` with det-k handoff below the size threshold.
    LogkHybrid,
    /// det-k-decomp (Gottlob–Leone–Scarcello).
    Detk,
    /// Balanced-separator GHD search (one-sided).
    Ghd,
    /// SAT encoding of `ghw ≤ k` (HtdLEO substitute).
    HtdSat,
}

impl EngineKind {
    /// Every engine, in wire-tag order (see [`Self::index`]).
    pub const ALL: [EngineKind; 6] = [
        EngineKind::LogkSeq,
        EngineKind::LogkPar,
        EngineKind::LogkHybrid,
        EngineKind::Detk,
        EngineKind::Ghd,
        EngineKind::HtdSat,
    ];

    /// Number of engines — [`Self::ALL`]'s length, for sizing per-engine
    /// counter arrays (`races_won_by` and friends).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable short name (used in stats, reports and the wire protocol).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::LogkSeq => "logk-seq",
            EngineKind::LogkPar => "logk-par",
            EngineKind::LogkHybrid => "logk-hybrid",
            EngineKind::Detk => "detk",
            EngineKind::Ghd => "ghd",
            EngineKind::HtdSat => "htdsat",
        }
    }

    /// Inverse of [`Self::name`], also accepting the `lkd --method`
    /// spellings that predate the registry (`logk`, `hybrid`, `sat`).
    pub fn from_name(name: &str) -> Option<EngineKind> {
        match name {
            "logk" => Some(EngineKind::LogkPar),
            "hybrid" => Some(EngineKind::LogkHybrid),
            "sat" => Some(EngineKind::HtdSat),
            _ => Self::ALL.into_iter().find(|e| e.name() == name),
        }
    }

    /// Stable index into [`Self::ALL`] (doubles as the wire tag).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&e| e == self).expect("in ALL")
    }

    /// Inverse of [`Self::index`].
    pub fn from_index(i: usize) -> Option<EngineKind> {
        Self::ALL.get(i).copied()
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one engine's answer at width `k` proves. See the
/// [module docs](self) for which engine can return which verdict.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A witness that validates as an HD of width ≤ k: `hw(H) ≤ k`.
    Hd(Decomposition),
    /// A witness that validates as a GHD of width ≤ k but not as an HD:
    /// `ghw(H) ≤ k`, which says nothing about `hw(H) ≤ k`.
    Ghd(Decomposition),
    /// A definitive refutation: `hw(H) > k`.
    Refuted,
    /// The one-sided GHD search found no witness; proves nothing.
    Miss,
    /// The SAT encoding exceeds the clause budget; proves nothing.
    Memout,
    /// The witness failed validation (an engine bug); proves nothing.
    Invalid,
}

impl Verdict {
    /// The verdict's answer to `hw(H) ≤ k`: `Some(Some(witness))` when
    /// proven, `Some(None)` when refuted, `None` when it proves neither.
    pub fn hw_answer(self) -> Option<Option<Decomposition>> {
        match self {
            Verdict::Hd(d) => Some(Some(d)),
            Verdict::Refuted => Some(None),
            _ => None,
        }
    }
}

/// One configured engine: its kind, the worker count of the parallel
/// `logk` kinds, and optional memo tables shared by the `logk` kinds.
#[derive(Clone, Debug)]
pub struct Engine {
    kind: EngineKind,
    threads: usize,
    /// Replaces the paper's default handoff policy of `logk-hybrid`.
    hybrid: Option<HybridConfig>,
    tables: Option<SharedTables>,
}

impl Engine {
    /// `kind` on `threads` pool workers (only the parallel `logk` kinds
    /// use more than one).
    pub fn new(kind: EngineKind, threads: usize) -> Self {
        Engine {
            kind,
            threads,
            hybrid: None,
            tables: None,
        }
    }

    /// `logk-hybrid` with an explicit handoff policy in place of the
    /// paper's default (Table 2 sweeps metric and threshold).
    pub fn hybrid_with(threads: usize, policy: HybridConfig) -> Self {
        Engine {
            hybrid: Some(policy),
            ..Self::new(EngineKind::LogkHybrid, threads)
        }
    }

    /// Attaches a shared subproblem cache for the `logk` kinds (the
    /// striped table is concurrency-safe, so racers warm each other
    /// mid-race and across races). It must apply to the solved instance
    /// and width — `LogK` enforces this and skips it otherwise.
    pub fn with_shared_tables(mut self, tables: SharedTables) -> Self {
        self.tables = Some(tables);
        self
    }

    /// Runs the engine at width `k` under `ctrl` and classifies its
    /// answer (see the [module docs](self)): the bounds pass, then
    /// [`Self::search`]. The `logk` kinds also return their search
    /// statistics.
    pub fn decide(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<(Verdict, Option<SolveStats>), Interrupted> {
        if self.is_logk() {
            // The `logk` kinds run the pass inside their solve, which
            // records in their statistics which bound settled the call.
            let (d, stats) = self.logk().decompose_with_stats(hg, k, ctrl)?;
            return Ok((self.classify(hg, k, d, Verdict::Refuted), Some(stats)));
        }
        ctrl.checkpoint_coarse()?;
        match logk::settle(hg, k) {
            Some(s) => Ok((self.settled(hg, k, s), None)),
            None => self.search(hg, k, ctrl),
        }
    }

    /// The engine alone, without the bounds pass: what a racer runs once
    /// [`Portfolio::race`] has run the pass for the whole field.
    pub fn search(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<(Verdict, Option<SolveStats>), Interrupted> {
        let (witness, stats, no_witness) = match self.kind {
            EngineKind::LogkSeq | EngineKind::LogkPar | EngineKind::LogkHybrid => {
                let (d, stats) = self.logk().search_with_stats(hg, k, ctrl)?;
                (d, Some(stats), Verdict::Refuted)
            }
            EngineKind::Detk => (detk::decompose_detk(hg, k, ctrl)?, None, Verdict::Refuted),
            EngineKind::Ghd => (ghd::decompose_ghd(hg, k, ctrl)?, None, Verdict::Miss),
            EngineKind::HtdSat => match htdsat::decide_ghw(hg, k, ctrl) {
                Ok(d) => (d, None, Verdict::Refuted),
                Err(htdsat::HtdSatError::Interrupted(e)) => return Err(e),
                Err(htdsat::HtdSatError::EncodingTooLarge { .. }) => {
                    return Ok((Verdict::Memout, None))
                }
            },
        };
        Ok((self.classify(hg, k, witness, no_witness), stats))
    }

    /// The verdict on an answer of the bounds pass: a refutation is
    /// `Refuted` for every kind, and a witness is validated like any other.
    fn settled(&self, hg: &Hypergraph, k: usize, settled: logk::Settled) -> Verdict {
        self.classify(hg, k, settled.into_witness(), Verdict::Refuted)
    }

    /// Classifies a raw answer: `no_witness` when there is none, else the
    /// witness's validation outcome (see the [module docs](self)).
    fn classify(
        &self,
        hg: &Hypergraph,
        k: usize,
        witness: Option<Decomposition>,
        no_witness: Verdict,
    ) -> Verdict {
        let Some(d) = witness else { return no_witness };
        match validate_hd_width(hg, &d, k) {
            Ok(()) => Verdict::Hd(d),
            // The width and GHD conditions are checked before the
            // special condition, so failing only the latter leaves a
            // GHD of width ≤ k — all the GHD engines promise.
            Err(Violation::SpecialCondition { .. })
                if matches!(self.kind, EngineKind::Ghd | EngineKind::HtdSat) =>
            {
                Verdict::Ghd(d)
            }
            Err(_) => Verdict::Invalid,
        }
    }

    /// [`Self::decide`] at each width of `widths` in turn, stopping at
    /// the first verdict that is neither [`Verdict::Refuted`] nor
    /// [`Verdict::Miss`] and returning it with its width; `None` when
    /// every width was refuted or missed. `on_stats` sees each solve's
    /// statistics (the `logk` kinds only).
    pub fn sweep(
        &self,
        hg: &Hypergraph,
        widths: RangeInclusive<usize>,
        ctrl: &Control,
        mut on_stats: impl FnMut(&SolveStats),
    ) -> Result<Option<(usize, Verdict)>, Interrupted> {
        for k in widths {
            let (verdict, stats) = self.decide(hg, k, ctrl)?;
            if let Some(s) = &stats {
                on_stats(s);
            }
            if !matches!(verdict, Verdict::Refuted | Verdict::Miss) {
                return Ok(Some((k, verdict)));
            }
        }
        Ok(None)
    }

    fn is_logk(&self) -> bool {
        matches!(
            self.kind,
            EngineKind::LogkSeq | EngineKind::LogkPar | EngineKind::LogkHybrid
        )
    }

    fn logk(&self) -> LogK {
        let mut solver = match self.kind {
            EngineKind::LogkSeq => LogK::sequential(),
            EngineKind::LogkPar => LogK::parallel(self.threads),
            _ => LogK::hybrid(self.threads),
        };
        if let Some(policy) = self.hybrid {
            solver = solver.with_hybrid(Some(policy));
        }
        if let Some(tables) = &self.tables {
            solver = solver.with_shared_tables(tables.clone());
        }
        solver
    }
}

decomp::counters! {
    /// Counters of a portfolio race: how many racers ran and how much of
    /// their work was cut short or wasted.
    pub struct RaceStats {
        /// Racers launched.
        probes: u64 = sum,
        /// Racers cancelled before producing a verdict because another
        /// racer's definitive verdict made them redundant.
        race_cancels: u64 = sum,
        /// Racers that ran to a verdict the race did not use: a later
        /// definitive verdict, or an advisory one.
        speculative_wasted: u64 = sum,
    }
}

/// Result of one portfolio race.
#[derive(Clone, Debug)]
pub struct RaceOutcome {
    /// The race's answer to `hw(H) ≤ k`: `Ok(Some)` with a validated HD
    /// witness, `Ok(None)` for a definitive refutation, `Err` when no
    /// racer reached a definitive verdict before the control fired.
    pub verdict: Result<Option<Decomposition>, Interrupted>,
    /// The engine whose verdict won (`None` on `Err`).
    pub winner: Option<EngineKind>,
    /// Racer/cancellation accounting (`probes` = racers launched).
    pub stats: RaceStats,
}

/// The race field: `logk-seq` and `detk`, the two engines that have
/// won races (see the [module docs](self)); every other kind won none,
/// and each racer is one more thread the race waits on to stop. Build
/// with [`Portfolio::default`], then [`race`](Self::race) instances
/// against it.
#[derive(Clone, Debug)]
pub struct Portfolio {
    engines: Vec<Engine>,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio {
            engines: vec![
                Engine::new(EngineKind::LogkSeq, 1),
                Engine::new(EngineKind::Detk, 1),
            ],
        }
    }
}

impl Portfolio {
    /// Attaches a shared subproblem cache for the `logk`-family racers; see
    /// [`Engine::with_shared_tables`].
    pub fn with_shared_tables(mut self, tables: SharedTables) -> Self {
        for engine in &mut self.engines {
            engine.tables = Some(tables.clone());
        }
        self
    }

    /// Races every configured engine on `hg` at width `k` under `ctrl`.
    /// See the [module docs](self) for verdict authority and join
    /// precedence. Never panics on a panicking racer — the panic is
    /// contained on the racer's thread and the race continues.
    pub fn race(&self, hg: &Hypergraph, k: usize, ctrl: &Arc<Control>) -> RaceOutcome {
        let mut stats = RaceStats::default();
        // The bounds pass is the same for every engine, so it runs once
        // here and the racers search without it. A call it settles is
        // answered without racing, in the field's first engine's name.
        if let Err(e) = ctrl.checkpoint_coarse() {
            return RaceOutcome {
                verdict: Err(e),
                winner: None,
                stats,
            };
        }
        if let (Some(first), Some(s)) = (self.engines.first(), logk::settle(hg, k)) {
            // An invalid pass witness is not trusted: the field searches.
            if let Some(answer) = first.settled(hg, k, s).hw_answer() {
                return RaceOutcome {
                    verdict: Ok(answer),
                    winner: Some(first.kind),
                    stats,
                };
            }
        }

        let race_root = ctrl.child();
        let _guard = CancelOnDrop(&race_root);
        let mut verdict: Option<(EngineKind, Option<Decomposition>)> = None;
        let mut interrupted: Option<Interrupted> = None;

        std::thread::scope(|scope| {
            // `None` reports a racer that panicked (contained on its thread).
            let (tx, rx) = mpsc::channel::<(usize, Option<Result<Verdict, Interrupted>>)>();
            let mut killed: HashSet<usize> = HashSet::new();
            let mut children: Vec<Arc<Control>> = Vec::with_capacity(self.engines.len());
            for (i, engine) in self.engines.iter().enumerate() {
                decomp::faults::hit_ctrl("portfolio/spawn", ctrl);
                let child = race_root.child();
                let tx = tx.clone();
                let engine_ctrl = Arc::clone(&child);
                children.push(child);
                stats.probes += 1;
                scope.spawn(move || {
                    let msg = panic::catch_unwind(AssertUnwindSafe(|| {
                        decomp::faults::hit_ctrl("portfolio/engine", &engine_ctrl);
                        engine.search(hg, k, &engine_ctrl).map(|(v, _)| v)
                    }))
                    .ok();
                    let _ = tx.send((i, msg));
                });
            }
            drop(tx);
            for _ in 0..self.engines.len() {
                // A racer that died without reporting (it cannot under
                // the containment above, but defence in depth) reads as
                // a closed channel once the others have reported — the
                // race ends on the verdicts it has.
                let Ok((i, msg)) = rx.recv() else { break };
                decomp::faults::hit_ctrl("portfolio/join", ctrl);
                let was_killed = killed.contains(&i);
                match msg {
                    Some(Ok(v)) => match v.hw_answer() {
                        Some(answer) if verdict.is_none() => {
                            verdict = Some((self.engines[i].kind, answer));
                            // First definitive verdict: the rest of the
                            // field is redundant — kill it now.
                            for (j, child) in children.iter().enumerate() {
                                if j != i && killed.insert(j) {
                                    child.cancel();
                                }
                            }
                        }
                        // A later definitive verdict, or an advisory one.
                        _ => stats.speculative_wasted += 1,
                    },
                    Some(Err(e)) => {
                        if was_killed {
                            stats.race_cancels += 1;
                        } else {
                            interrupted = Some(e);
                        }
                    }
                    None => {}
                }
            }
        });

        match verdict {
            Some((winner, answer)) => RaceOutcome {
                verdict: Ok(answer),
                winner: Some(winner),
                stats,
            },
            None => RaceOutcome {
                // No racer was definitive. Normally that means the
                // control fired; the all-advisory corner (every racer
                // demoted) reports as a cancellation for want of a
                // verdict.
                verdict: Err(interrupted.unwrap_or(Interrupted::Cancelled)),
                winner: None,
                stats,
            },
        }
    }
}

/// Cancels the race's intermediate control when dropped, so no racer
/// outlives an unwinding coordinator.
struct CancelOnDrop<'a>(&'a Arc<Control>);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::families;

    #[test]
    fn race_decides_positive_with_witness() {
        let hg = families::cycle(12);
        let ctrl = Arc::new(Control::unlimited());
        let out = Portfolio::default().race(&hg, 2, &ctrl);
        let witness = out.verdict.expect("definitive").expect("cycle has hw 2");
        assert!(validate_hd_width(&hg, &witness, 2).is_ok());
        assert!(matches!(
            out.winner,
            Some(EngineKind::LogkSeq | EngineKind::Detk)
        ));
        assert_eq!(out.stats.probes, 2);
    }

    #[test]
    fn race_decides_negative() {
        let hg = families::cycle(12);
        let ctrl = Arc::new(Control::unlimited());
        let out = Portfolio::default().race(&hg, 1, &ctrl);
        assert!(matches!(out.verdict, Ok(None)), "cycles have hw 2");
        assert!(matches!(
            out.winner,
            Some(EngineKind::LogkSeq | EngineKind::Detk)
        ));
    }

    /// The race runs the bounds pass once: a call it settles (GYO at
    /// k = 1 either way, the minor bound on a clique) launches no racer.
    #[test]
    fn race_settles_before_launching_racers() {
        let ctrl = Arc::new(Control::unlimited());
        let port = Portfolio::default();
        let path = families::path(8);
        for (hg, k, yes) in [
            (&path, 1, true),
            (&families::cycle(12), 1, false),
            (&families::clique(7), 2, false),
        ] {
            let out = port.race(hg, k, &ctrl);
            let answer = out.verdict.expect("definitive");
            assert_eq!(answer.is_some(), yes, "{hg:?} at {k}");
            if let Some(d) = answer {
                assert!(validate_hd_width(hg, &d, k).is_ok());
            }
            assert_eq!(out.winner, Some(EngineKind::LogkSeq));
            assert_eq!(out.stats.probes, 0, "{hg:?} at {k}");
        }
    }

    #[test]
    fn cancelled_race_reports_interruption() {
        let hg = families::chorded_cycle(96, 48, 3);
        let ctrl = Arc::new(Control::unlimited());
        ctrl.cancel();
        let out = Portfolio::default().race(&hg, 3, &ctrl);
        assert!(matches!(out.verdict, Err(Interrupted::Cancelled)));
        assert!(out.winner.is_none());
    }

    #[test]
    fn engine_kind_indices_and_names_round_trip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::from_index(e.index()), Some(e));
            assert_eq!(EngineKind::from_name(e.name()), Some(e));
        }
        assert_eq!(EngineKind::from_index(EngineKind::ALL.len()), None);
        assert_eq!(EngineKind::from_name("bogus"), None);
    }

    /// Pins the verdict-authority table of the module docs on an
    /// instance of hw = ghw = 2.
    #[test]
    fn every_engine_classifies_as_documented() {
        let hg = families::cycle(12);
        let ctrl = Control::unlimited();
        for kind in EngineKind::ALL {
            let engine = Engine::new(kind, 2);
            let decide = |k| engine.decide(&hg, k, &ctrl).expect("unlimited");
            let (below, _) = decide(1);
            let (at, stats) = decide(2);
            let logk = matches!(
                kind,
                EngineKind::LogkSeq | EngineKind::LogkPar | EngineKind::LogkHybrid
            );
            assert_eq!(stats.is_some(), logk, "{kind}");
            // GYO refutes k = 1 for every kind, `ghd` included.
            assert!(matches!(below, Verdict::Refuted), "{kind}: {below:?}");
            if kind == EngineKind::Ghd {
                // The balanced rooted search needs width 3 on this cycle:
                // it misses at the true width, which is why a miss may
                // never count as a refutation.
                assert!(matches!(at, Verdict::Miss), "{kind}: {at:?}");
                let (above, _) = decide(3);
                assert!(matches!(above, Verdict::Hd(_) | Verdict::Ghd(_)), "{kind}");
                continue;
            }
            match at {
                Verdict::Hd(d) => assert!(validate_hd_width(&hg, &d, 2).is_ok(), "{kind}"),
                Verdict::Ghd(d) if kind == EngineKind::HtdSat => {
                    assert!(
                        decomp::validate_ghd(&hg, &d).is_ok() && d.width() <= 2,
                        "{kind}"
                    )
                }
                other => panic!("{kind}: {other:?}"),
            }
        }
    }

    /// The bounds pass settles the same calls for every kind: GYO at
    /// k = 1 both ways, the minor bound on a clique above.
    #[test]
    fn bounds_pass_settles_every_kind_alike() {
        let ctrl = Control::unlimited();
        let path = families::path(8);
        let k7 = families::clique(7);
        for kind in EngineKind::ALL {
            let engine = Engine::new(kind, 1);
            let (yes, _) = engine.decide(&path, 1, &ctrl).unwrap();
            match yes {
                Verdict::Hd(d) => assert!(validate_hd_width(&path, &d, 1).is_ok(), "{kind}"),
                other => panic!("{kind}: {other:?}"),
            }
            let (no, stats) = engine.decide(&k7, 2, &ctrl).unwrap();
            assert!(matches!(no, Verdict::Refuted), "{kind}: {no:?}");
            if let Some(s) = stats {
                assert_eq!(s.settled_by, logk::SettledBy::Minor { d: 6 }, "{kind}");
            }
        }
    }
}
