//! Checkpoint-level fault injection for robustness testing.
//!
//! The solvers and the shared memoisation tables are laced with *named
//! fault sites* — `faults::hit("logk/engine/poll")` and friends — that are
//! free no-ops in a normal build. With the `fault-injection` feature
//! enabled, a test can **arm** a site to deterministically misbehave at
//! its `n`-th hit (the items below exist only under that feature, so they
//! are named here without links):
//!
//! * `Fault::Panic` — unwind out of the site (poisoning whatever lock
//!   the site holds), proving panic containment and poison recovery;
//! * `Fault::Delay` — sleep, simulating a stalled solve so deadlines
//!   and load shedding are testable without giant instances;
//! * `Fault::Cancel` — spuriously cancel the solve's [`Control`]
//!   (sites that carry one), simulating an external kill mid-search;
//! * `Fault::Net` — network chaos for wire-protocol sites (see
//!   `NetFault`): the registry only *schedules* the misbehaviour; the
//!   site's owner (the `htdwire` crate) interprets it against its own
//!   socket via `take_net`, so this crate stays free of any I/O types.
//!
//! Determinism: hits are counted per site **from the moment the site is
//! armed**, so `arm(site, 3, Fault::Panic)` fires on exactly the third
//! hit after arming, regardless of anything that ran before. A fault
//! fires once and disarms itself. When nothing is armed, the hot-path
//! cost is one relaxed atomic load (and with the feature disabled, the
//! calls compile away entirely).
//!
//! Tests that arm global sites must serialise against each other (the
//! integration suites share one `Mutex` guard) and call `reset` when
//! done.
//!
//! [`Control`]: crate::Control

#[cfg(feature = "fault-injection")]
pub use enabled::{arm, armed_sites, hits, reset, take_net, Fault, NetFault};

#[cfg(feature = "fault-injection")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    use crate::Control;

    /// What an armed site does when it fires.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// `panic!` out of the checkpoint (contained by the caller's
        /// `catch_unwind` boundary — or failing the test if there is
        /// none).
        Panic,
        /// Sleep for the given duration, then continue normally.
        Delay(Duration),
        /// Cancel the solve's [`Control`] (no-op at sites without one).
        Cancel,
        /// Network misbehaviour, interpreted by wire-protocol sites via
        /// [`take_net`]. A no-op when it fires at a site that is polled
        /// through [`hit`](super::hit)/[`hit_ctrl`](super::hit_ctrl)
        /// instead.
        Net(NetFault),
    }

    /// What a fired [`Fault::Net`] asks the owning socket operation to
    /// do. The registry carries only the *plan*; the wire layer executes
    /// it against its own streams, so each variant's exact meaning is
    /// per-site (documented at the site):
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum NetFault {
        /// Tear the connection down immediately (mid-frame when armed on
        /// a write site with a frame in flight).
        Disconnect,
        /// Perform only the first `keep` bytes of the operation, then
        /// tear the connection down — a torn frame / partial write.
        Truncate {
            /// Bytes actually transferred before the cut.
            keep: usize,
        },
        /// Dribble the operation `chunk` bytes at a time, sleeping
        /// `delay` between chunks — a slow-loris peer.
        Throttle {
            /// Bytes per dribble.
            chunk: usize,
            /// Pause between dribbles.
            delay: Duration,
        },
        /// Stall the operation (e.g. an accept loop) for `delay` before
        /// proceeding normally.
        Stall {
            /// How long the site stalls.
            delay: Duration,
        },
    }

    struct Site {
        /// Hits observed since this site was armed.
        hits: u64,
        /// Fire on the hit with this (1-based) ordinal, if still armed.
        armed: Option<(u64, Fault)>,
    }

    /// Number of currently armed sites: the hot-path fast-out. Zero in
    /// every build that never arms a fault.
    static ARMED: AtomicUsize = AtomicUsize::new(0);

    static SITES: OnceLock<Mutex<HashMap<&'static str, Site>>> = OnceLock::new();

    fn sites() -> &'static Mutex<HashMap<&'static str, Site>> {
        SITES.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` to fire `fault` on its `at`-th hit (1-based) counted
    /// from now. Re-arming a site resets its counter.
    pub fn arm(site: &'static str, at: u64, fault: Fault) {
        assert!(at >= 1, "fault ordinals are 1-based");
        let mut map = sites().lock().unwrap_or_else(|e| e.into_inner());
        let prev = map.insert(
            site,
            Site {
                hits: 0,
                armed: Some((at, fault)),
            },
        );
        if prev.is_none_or(|p| p.armed.is_none()) {
            ARMED.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Disarms every site and clears all counters.
    pub fn reset() {
        let mut map = sites().lock().unwrap_or_else(|e| e.into_inner());
        map.clear();
        ARMED.store(0, Ordering::SeqCst);
    }

    /// Hits observed at `site` since it was armed (0 if never armed).
    pub fn hits(site: &str) -> u64 {
        let map = sites().lock().unwrap_or_else(|e| e.into_inner());
        map.get(site).map_or(0, |s| s.hits)
    }

    /// Sites currently armed (diagnostics for test failures).
    pub fn armed_sites() -> Vec<&'static str> {
        let map = sites().lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .filter(|(_, s)| s.armed.is_some())
            .map(|(&k, _)| k)
            .collect()
    }

    /// Records a hit at `site`; fires and disarms its fault when the
    /// armed ordinal is reached. The returned fault (if any) is executed
    /// by the caller *after* the registry lock is released.
    fn trip(site: &'static str) -> Option<Fault> {
        if ARMED.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut map = sites().lock().unwrap_or_else(|e| e.into_inner());
        let entry = map.get_mut(site)?;
        entry.armed.as_ref()?;
        entry.hits += 1;
        let (at, _) = *entry.armed.as_ref().expect("checked above");
        if entry.hits == at {
            let (_, fault) = entry.armed.take().expect("checked above");
            ARMED.fetch_sub(1, Ordering::SeqCst);
            Some(fault)
        } else {
            None
        }
    }

    /// A fault site without a [`Control`] (e.g. inside a cache shard).
    /// [`Fault::Cancel`] armed on such a site is a no-op.
    #[inline]
    pub(crate) fn hit_impl(site: &'static str) {
        match trip(site) {
            None => {}
            Some(Fault::Panic) => panic!("fault-injection: deliberate panic at `{site}`"),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Cancel) | Some(Fault::Net(_)) => {}
        }
    }

    /// A fault site on a solver poll path, carrying the solve's control
    /// so [`Fault::Cancel`] can fire it.
    #[inline]
    pub(crate) fn hit_ctrl_impl(site: &'static str, ctrl: &Control) {
        match trip(site) {
            None => {}
            Some(Fault::Panic) => panic!("fault-injection: deliberate panic at `{site}`"),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Cancel) => ctrl.cancel(),
            Some(Fault::Net(_)) => {}
        }
    }

    /// A network fault site: records a hit and returns the fired
    /// [`NetFault`] for the caller to execute against its socket.
    ///
    /// Non-network faults armed on such a site keep their usual
    /// semantics ([`Fault::Panic`] unwinds, [`Fault::Delay`] sleeps,
    /// [`Fault::Cancel`] is a no-op), so a single site name can be
    /// driven with either kind. Same determinism contract as
    /// [`hit`](super::hit): one-shot, ordinal counted from arming.
    #[inline]
    pub fn take_net(site: &'static str) -> Option<NetFault> {
        match trip(site) {
            None | Some(Fault::Cancel) => None,
            Some(Fault::Panic) => panic!("fault-injection: deliberate panic at `{site}`"),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            Some(Fault::Net(n)) => Some(n),
        }
    }
}

/// Fault site without a [`Control`](crate::Control); a no-op unless the
/// `fault-injection` feature is enabled and the site is armed.
#[inline(always)]
pub fn hit(site: &'static str) {
    #[cfg(feature = "fault-injection")]
    enabled::hit_impl(site);
    #[cfg(not(feature = "fault-injection"))]
    let _ = site;
}

/// Fault site on a poll path, carrying the solve's
/// [`Control`](crate::Control) so `Fault::Cancel` (feature
/// `fault-injection`) can fire it; a no-op otherwise.
#[inline(always)]
pub fn hit_ctrl(site: &'static str, ctrl: &crate::Control) {
    #[cfg(feature = "fault-injection")]
    enabled::hit_ctrl_impl(site, ctrl);
    #[cfg(not(feature = "fault-injection"))]
    let _ = (site, ctrl);
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};
    use std::time::{Duration, Instant};

    /// Serialises the fault tests in this module (the registry is
    /// process-global).
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_sites_do_nothing() {
        let _g = guard();
        reset();
        for _ in 0..1000 {
            hit("faults/test/unarmed");
        }
        assert_eq!(hits("faults/test/unarmed"), 0);
    }

    #[test]
    fn panic_fires_on_exactly_the_nth_hit() {
        let _g = guard();
        reset();
        arm("faults/test/nth", 3, Fault::Panic);
        hit("faults/test/nth");
        hit("faults/test/nth");
        let err = std::panic::catch_unwind(|| hit("faults/test/nth"));
        assert!(err.is_err(), "third hit must panic");
        // Fired faults disarm: the fourth hit is clean (and no longer
        // counted — the site is disarmed).
        hit("faults/test/nth");
        assert_eq!(hits("faults/test/nth"), 3);
        assert!(armed_sites().is_empty());
        reset();
    }

    #[test]
    fn delay_sleeps() {
        let _g = guard();
        reset();
        arm(
            "faults/test/delay",
            1,
            Fault::Delay(Duration::from_millis(20)),
        );
        let t0 = Instant::now();
        hit("faults/test/delay");
        assert!(t0.elapsed() >= Duration::from_millis(20));
        reset();
    }

    #[test]
    fn net_faults_surface_only_through_take_net() {
        let _g = guard();
        reset();
        arm(
            "faults/test/net",
            2,
            Fault::Net(NetFault::Truncate { keep: 7 }),
        );
        // A net fault firing at a plain `hit` site is a no-op...
        assert_eq!(take_net("faults/test/net"), None); // hit 1: not yet
        assert_eq!(
            take_net("faults/test/net"),
            Some(NetFault::Truncate { keep: 7 })
        );
        // ...and one-shot: disarmed afterwards.
        assert_eq!(take_net("faults/test/net"), None);
        assert!(armed_sites().is_empty());
        // Non-network faults keep their semantics at net sites.
        arm("faults/test/net2", 1, Fault::Panic);
        let err = std::panic::catch_unwind(|| take_net("faults/test/net2"));
        assert!(err.is_err(), "panic fault must unwind from take_net");
        reset();
    }

    #[test]
    fn net_fault_is_inert_at_plain_hit_sites() {
        let _g = guard();
        reset();
        arm("faults/test/net3", 1, Fault::Net(NetFault::Disconnect));
        hit("faults/test/net3"); // must not panic or sleep
        assert_eq!(hits("faults/test/net3"), 1);
        assert!(armed_sites().is_empty(), "fired and disarmed");
        reset();
    }

    #[test]
    fn cancel_fires_the_control() {
        let _g = guard();
        reset();
        let ctrl = crate::Control::unlimited();
        arm("faults/test/cancel", 2, Fault::Cancel);
        hit_ctrl("faults/test/cancel", &ctrl);
        assert!(ctrl.checkpoint().is_ok());
        hit_ctrl("faults/test/cancel", &ctrl);
        assert!(ctrl.checkpoint().is_err());
        reset();
    }
}
