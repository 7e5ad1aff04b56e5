//! The workspace's one scoped worker pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` on up to `jobs` scoped threads and returns the
/// results in input order, whatever order the workers finished in — so a
/// caller whose `f` is a pure function of its item gets output that is
/// bit-identical for every `jobs` value. Runs inline on the caller's
/// thread when `jobs <= 1` or there is at most one item. A panic in `f`
/// propagates to the caller once every worker has stopped.
pub fn par_map_ordered<I: Sync, T: Send>(
    items: &[I],
    jobs: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *crate::lock(&slots[i]) = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // A panic in `f` has already propagated out of the scope, so
            // every slot was filled.
            #[allow(clippy::expect_used)]
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn inline_mode_stays_on_the_callers_thread() {
        let here = std::thread::current().id();
        let ids = par_map_ordered(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == here));
        let ids = par_map_ordered(&[1, 2, 3], 3, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id != here));
    }
}
