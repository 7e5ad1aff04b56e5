//! The workspace's one scoped worker pool.

use crate::{in_pool_item, lock, publish, Context};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` on up to `jobs` threads and returns the results
/// in input order, whatever order the workers finished in — so a caller
/// whose `f` is a pure function of its item gets output that is
/// bit-identical for every `jobs` value. Runs inline on the caller's
/// thread when `jobs <= 1`, there is at most one item, or the caller is
/// itself an item of a pool that split — so nested pools (a sweep's
/// items, each verifying a batch) never hold more threads than the outer
/// one asked for. Otherwise the caller is one of the workers: it spawns
/// `jobs - 1` scoped threads (one for a two-way split) and claims items
/// beside them.
///
/// Each item runs on the caller's lane, its spans under the caller's
/// innermost open span, and the events it records are held back and
/// added to the trace in item order once every worker has stopped — so a
/// trace, too, reads the same for every `jobs` value (but for
/// timestamps). A panic in `f` propagates to the caller once every worker
/// has stopped.
pub fn par_map_ordered<I: Sync, T: Send>(
    items: &[I],
    jobs: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = jobs.min(items.len());
    if workers <= 1 || in_pool_item() {
        return items.iter().map(f).collect();
    }
    let context = Context::current();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<_>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        *lock(&slots[i]) = Some(context.run(|| f(item)));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            // A panic in `f` has already propagated out of the scope, so
            // every slot was filled.
            #[allow(clippy::expect_used)]
            let (out, events) = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed by a worker");
            publish(events);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_input_order_for_every_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [0, 1, 2, 8, 200] {
            assert_eq!(
                par_map_ordered(&items, jobs, |i| i * i),
                expected,
                "jobs={jobs}"
            );
        }
        assert!(par_map_ordered(&[] as &[u64], 4, |i| *i).is_empty());
    }

    /// Inline mode runs every item on the caller; with `jobs > 1` the
    /// caller runs a share beside `jobs - 1` spawned threads. Each item
    /// waits for all three workers, so each worker takes exactly one.
    #[test]
    fn inline_mode_stays_on_the_callers_thread() {
        let here = std::thread::current().id();
        let ids = par_map_ordered(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == here));
        let all_three = Barrier::new(3);
        let ids = par_map_ordered(&[1, 2, 3], 3, |_| {
            all_three.wait();
            std::thread::current().id()
        });
        assert_eq!(ids.iter().filter(|id| **id == here).count(), 1);
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    /// A pool started inside an item of a pool that split runs inline on
    /// that item's thread; one started after the outer pool returned
    /// splits again.
    #[test]
    fn a_pool_inside_a_pool_item_runs_inline() {
        let both = Barrier::new(2);
        let inner_on_own_thread = par_map_ordered(&[1, 2], 2, |_| {
            both.wait();
            let item = std::thread::current().id();
            let ids = par_map_ordered(&[1, 2, 3], 3, |_| std::thread::current().id());
            ids.iter().all(|id| *id == item)
        });
        assert_eq!(inner_on_own_thread, [true, true]);
        let here = std::thread::current().id();
        let all_three = Barrier::new(3);
        let ids = par_map_ordered(&[1, 2, 3], 3, |_| {
            all_three.wait();
            std::thread::current().id()
        });
        assert_eq!(ids.iter().filter(|id| **id == here).count(), 1);
    }
}
