//! Solver instrumentation.

use std::fmt;
use std::time::Duration;

/// Declares the solver counters once: the public [`SolverStats`] struct,
/// [`SolverStats::NAMES`], the `u64` form the journal stores, the
/// fieldwise delta, the `smt.*` registry names and `Display` all follow
/// this order — event counts first, then durations.
macro_rules! solver_counters {
    (
        counts { $($(#[$count_doc:meta])* $count:ident,)* }
        times { $($(#[$time_doc:meta])* $time:ident,)* }
    ) => {
        /// Counters accumulated across all `check` calls on one
        /// [`Solver`](crate::Solver).
        ///
        /// The paper's §V-G reports Z3 overheads (number of solver calls
        /// and per-call latency); these counters let the reproduction
        /// report the same quantities for the stand-in solver.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct SolverStats {
            $($(#[$count_doc])* pub $count: u64,)*
            $($(#[$time_doc])* pub $time: Duration,)*
        }

        impl SolverStats {
            /// Every counter's name, in declaration order.
            pub const NAMES: &'static [&'static str] =
                &[$(stringify!($count),)* $(stringify!($time),)*];

            /// Every counter as a `u64` in [`SolverStats::NAMES`] order,
            /// durations in whole microseconds.
            pub fn values(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$count,)* $(self.$time.as_micros() as u64,)*]
            }

            /// The inverse of [`SolverStats::values`].
            pub fn from_values(values: [u64; Self::NAMES.len()]) -> Self {
                let [$($count,)* $($time,)*] = values;
                SolverStats {
                    $($count,)*
                    $($time: Duration::from_micros($time),)*
                }
            }

            /// The change since an `earlier` snapshot of the same stats
            /// object (all counters are monotonic, so fieldwise
            /// subtraction is exact).
            pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
                SolverStats {
                    $($count: self.$count.saturating_sub(earlier.$count),)*
                    $($time: self.$time.saturating_sub(earlier.$time),)*
                }
            }

            /// Each counter's `eatss-trace` registry name: `smt.<count>`,
            /// `smt.<time>_us`.
            const REGISTRY_NAMES: &'static [&'static str] = &[
                $(concat!("smt.", stringify!($count)),)*
                $(concat!("smt.", stringify!($time), "_us"),)*
            ];
        }

        impl fmt::Display for SolverStats {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let fields: [(&str, String); Self::NAMES.len()] = [
                    $((stringify!($count), self.$count.to_string()),)*
                    $((stringify!($time), format!("{:?}", self.$time)),)*
                ];
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value}")?;
                }
                Ok(())
            }
        }
    };
}

solver_counters! {
    counts {
        /// Number of `check` invocations (a `maximize` is one).
        checks,
        /// Search-tree nodes expanded (variable assignments tried).
        nodes,
        /// Domain-filtering passes executed.
        propagations,
        /// Candidate values pruned by propagation.
        values_pruned,
        /// Backtracks taken (assignments that led to a dead end).
        backtracks,
        /// Searches stopped by the per-call node budget.
        node_limit_hits,
        /// Searches stopped by the wall-clock deadline.
        deadline_hits,
        /// Searches stopped by a [`CancelToken`](crate::CancelToken).
        cancellations,
        /// Subtrees pruned because the objective's interval upper bound
        /// could not beat the branch-and-bound incumbent.
        bound_prunes,
        /// Full O(vars) hull constructions. The worklist engine builds the
        /// hull vector exactly once per `check` and maintains it
        /// incrementally afterwards, so this equals
        /// [`SolverStats::checks`] — the regression tests pin that
        /// invariant so per-probe rebuilds cannot creep back in.
        hull_rebuilds,
        /// `maximize` calls whose branch-and-bound incumbent was seeded
        /// from a [`WarmStart`](crate::WarmStart) hint (warm-started
        /// maximizes).
        warm_seeds,
        /// Warm-start hints that evaluated feasible under the current
        /// formulation and therefore contributed a reusable incumbent cut.
        warm_cut_hits,
    }
    times {
        /// Wall-clock time spent inside `check`.
        solve_time,
        /// Portion of [`SolverStats::solve_time`] spent filtering domains
        /// (worklist propagation).
        propagation_time,
        /// Portion of [`SolverStats::solve_time`] spent in the search
        /// proper (branching, bound checks, backtracking) — `solve_time`
        /// minus propagation.
        search_time,
    }
}

impl SolverStats {
    /// Adds these counters to the `eatss-trace` metrics registry under
    /// `smt.*` names. Called with per-`check` deltas by the instrumented
    /// solver entry points, so at the end of a trace session the registry
    /// totals equal the accumulated `SolverStats` (the trace tests pin
    /// this). No-op while trace collection is disabled.
    pub fn flow_to_registry(&self) {
        if !eatss_trace::collecting() {
            return;
        }
        for (name, value) in Self::REGISTRY_NAMES.iter().zip(self.values()) {
            eatss_trace::counter_add(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_enumeration_covers_the_same_fifteen_names_in_order() {
        let names: Vec<&str> = "checks nodes propagations values_pruned backtracks \
             node_limit_hits deadline_hits cancellations bound_prunes hull_rebuilds warm_seeds \
             warm_cut_hits solve_time propagation_time search_time"
            .split(' ')
            .collect();
        assert_eq!(SolverStats::NAMES, names);
        // Counter `i` holds `i + 1` events or microseconds.
        let stats = SolverStats::from_values(std::array::from_fn(|i| i as u64 + 1));
        assert_eq!((stats.checks, stats.warm_cut_hits), (1, 12));
        assert_eq!(stats.search_time, Duration::from_micros(15));
        assert_eq!(stats.values(), std::array::from_fn(|i| i as u64 + 1));

        let registry: Vec<String> = (names.iter())
            .map(|name| match name.ends_with("_time") {
                true => format!("smt.{name}_us"),
                false => format!("smt.{name}"),
            })
            .collect();
        assert_eq!(SolverStats::REGISTRY_NAMES, registry);

        let shown = stats.to_string();
        let shown: Vec<&str> = shown.split(' ').map(|f| f.split('=').next().unwrap()).collect();
        assert_eq!(shown, names);

        let doubled = SolverStats::from_values(std::array::from_fn(|i| 2 * (i as u64 + 1)));
        assert_eq!(doubled.delta_since(&stats), stats);
    }

    #[test]
    fn display_is_nonempty() {
        let s = SolverStats::default();
        assert!(s.to_string().contains("checks=0"));
    }
}
