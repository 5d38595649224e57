//! One declaration per counter: the [`counters!`](crate::counters!) macro.
//!
//! Every statistics set of the stack (the search counters, the cache and
//! memo snapshots, the service, wire and race counters) is a plain
//! `Copy` snapshot struct. Some of them also have an *atomic twin* that
//! hot paths bump lock-free with `Ordering::Relaxed` and that
//! `snapshot()` reads back. The macro declares each field once, with its
//! doc, name, type and fold, and generates from that one line:
//!
//! * the snapshot struct, with pub fields and `Clone, Copy, Debug,
//!   Default, PartialEq, Eq`;
//! * the atomic twin, when one is declared, with the same field names and
//!   a `snapshot()` that loads them into the snapshot struct;
//! * `merge(&mut self, &Self)`, which folds one snapshot into another;
//! * `FIELDS`, the names and docs of every field, in declaration order.
//!
//! A fold is one of:
//!
//! * `sum`: the values add ([`Counter::add`]);
//! * `max`: the larger value is kept (peaks and gauges);
//! * `merge`: the field is a nested snapshot and folds by its own
//!   `merge`;
//! * `keep`: the field is not folded; `merge` leaves the receiver's
//!   value (a label, such as which bound settled a call).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// A value the atomic twin of a [`counters!`](crate::counters!) set can
/// hold, and that the `sum` fold can add.
pub trait Counter: Copy {
    /// The lock-free cell the hot path bumps.
    type Atomic;
    /// Reads the cell (`Ordering::Relaxed`: the counters publish no
    /// other data, and a snapshot may be ahead on one field and behind
    /// on another).
    fn load(cell: &Self::Atomic) -> Self;
    /// The `sum` fold.
    fn add(&mut self, other: Self);
}

impl Counter for u64 {
    type Atomic = AtomicU64;
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }
    fn add(&mut self, other: u64) {
        *self += other;
    }
}

impl Counter for usize {
    type Atomic = AtomicUsize;
    fn load(cell: &AtomicUsize) -> usize {
        cell.load(Ordering::Relaxed)
    }
    fn add(&mut self, other: usize) {
        *self += other;
    }
}

/// Aggregate time, held as nanoseconds in the atomic twin.
impl Counter for Duration {
    type Atomic = AtomicU64;
    fn load(cell: &AtomicU64) -> Duration {
        Duration::from_nanos(cell.load(Ordering::Relaxed))
    }
    fn add(&mut self, other: Duration) {
        *self += other;
    }
}

/// One counter per index (per engine kind, say), folded element-wise.
impl<T: Counter, const N: usize> Counter for [T; N] {
    type Atomic = [T::Atomic; N];
    fn load(cells: &[T::Atomic; N]) -> [T; N] {
        std::array::from_fn(|i| T::load(&cells[i]))
    }
    fn add(&mut self, other: [T; N]) {
        for (a, b) in self.iter_mut().zip(other) {
            a.add(b);
        }
    }
}

/// Declares a statistics snapshot, and optionally its atomic twin, with
/// one line per field. See the [module docs](mod@crate::counters).
///
/// ```ignore
/// decomp::counters! {
///     /// What one pass did.
///     pub struct PassStats {
///         /// Largest batch seen (filled in by the caller).
///         peak: usize = max,
///     }
///     /// The live counters of a pass.
///     pub atomic PassCounters {
///         /// Items processed.
///         items: u64 = sum,
///     }
/// }
/// ```
///
/// The snapshot struct holds the twin's fields first, then its own. Its
/// own fields are the ones no atomic holds: values the caller fills in
/// after `snapshot()` (with struct update syntax), nested snapshots and
/// labels. Each `FIELDS` doc is the field's doc lines joined as written,
/// so it keeps the leading space of `///`.
#[macro_export]
macro_rules! counters {
    (@fold sum, $a:expr, $b:expr) => {
        $crate::counters::Counter::add(&mut $a, $b)
    };
    (@fold max, $a:expr, $b:expr) => {
        $a = ::core::cmp::max($a, $b)
    };
    (@fold merge, $a:expr, $b:expr) => {
        $a.merge(&$b)
    };
    (@fold keep, $a:expr, $b:expr) => {};
    (
        $(#[$meta:meta])*
        $vis:vis struct $Snap:ident {
            $( $(#[doc = $doc:literal])* $f:ident : $t:ty = $fold:ident, )*
        }
        $(
            $(#[$ameta:meta])*
            $avis:vis atomic $Atomic:ident {
                $( $(#[doc = $adoc:literal])* $af:ident : $at:ty = $afold:ident, )*
            }
        )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $Snap {
            $($( $(#[doc = $adoc])* pub $af: $at, )*)?
            $( $(#[doc = $doc])* pub $f: $t, )*
        }

        impl $Snap {
            /// Names and docs of every field, in declaration order.
            pub const FIELDS: &'static [(&'static str, &'static str)] = &[
                $($( (stringify!($af), concat!($($adoc),*)), )*)?
                $( (stringify!($f), concat!($($doc),*)), )*
            ];

            /// Folds `other` into `self`, field by field.
            pub fn merge(&mut self, other: &Self) {
                $($( $crate::counters!(@fold $afold, self.$af, other.$af); )*)?
                $( $crate::counters!(@fold $fold, self.$f, other.$f); )*
            }
        }

        $(
            $(#[$ameta])*
            #[derive(Debug, Default)]
            $avis struct $Atomic {
                $( $(#[doc = $adoc])* pub $af: <$at as $crate::counters::Counter>::Atomic, )*
            }

            impl $Atomic {
                /// Loads every counter into a snapshot; the snapshot's own
                /// fields are left at their defaults.
                #[allow(clippy::needless_update)]
                pub fn snapshot(&self) -> $Snap {
                    $Snap {
                        $( $af: <$at as $crate::counters::Counter>::load(&self.$af), )*
                        ..<$Snap as ::core::default::Default>::default()
                    }
                }
            }
        )?
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::Duration;

    crate::counters! {
        /// Inner set.
        struct Inner {}
        /// Inner twin.
        atomic InnerCells {
            /// A nested counter.
            hits: u64 = sum,
        }
    }

    crate::counters! {
        /// Outer set.
        struct Outer {
            /// Filled in by the caller.
            peak: usize = max,
            /// A nested snapshot.
            inner: Inner = merge,
            /// A label.
            label: u8 = keep,
        }
        /// Outer twin.
        atomic OuterCells {
            /// A summed counter.
            calls: u64 = sum,
            /// A peak kept in the twin.
            depth: usize = max,
            /// Summed time.
            time: Duration = sum,
            /// Summed per index.
            wins: [u64; 3] = sum,
        }
    }

    #[test]
    fn merge_folds_by_field_and_snapshot_loads_the_cells() {
        let mut a = Outer {
            calls: 2,
            depth: 5,
            time: Duration::from_millis(3),
            wins: [1, 0, 2],
            peak: 7,
            inner: Inner { hits: 4 },
            label: 1,
        };
        let b = Outer {
            calls: 3,
            depth: 4,
            time: Duration::from_millis(5),
            wins: [0, 6, 1],
            peak: 9,
            inner: Inner { hits: 6 },
            label: 2,
        };
        a.merge(&b);
        assert_eq!(
            a,
            Outer {
                calls: 5,
                depth: 5,
                time: Duration::from_millis(8),
                wins: [1, 6, 3],
                peak: 9,
                inner: Inner { hits: 10 },
                label: 1,
            }
        );

        let cells = OuterCells::default();
        cells.calls.fetch_add(11, Relaxed);
        cells.depth.fetch_max(6, Relaxed);
        cells.time.fetch_add(2_000, Relaxed);
        cells.wins[2].fetch_add(1, Relaxed);
        assert_eq!(
            cells.snapshot(),
            Outer {
                calls: 11,
                depth: 6,
                time: Duration::from_micros(2),
                wins: [0, 0, 1],
                ..Outer::default()
            }
        );
        let inner = InnerCells::default();
        inner.hits.fetch_add(3, Relaxed);
        assert_eq!(inner.snapshot(), Inner { hits: 3 });

        let names: Vec<&str> = Outer::FIELDS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["calls", "depth", "time", "wins", "peak", "inner", "label"]
        );
        assert_eq!(Outer::FIELDS[4].1, " Filled in by the caller.");
        assert_eq!(Inner::FIELDS, [("hits", " A nested counter.")]);
    }
}
