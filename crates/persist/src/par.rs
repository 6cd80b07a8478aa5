//! The one parallel map of the recovery path: frame verification
//! ([`crate::SegmentStore::recover_with`]) and the caller's segment decode
//! both run through it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on up to `available_parallelism` scoped threads.
/// Workers claim items from one shared counter, so a skew in item cost
/// (one large segment among small ones) never idles a core while work is
/// left. Results come back in item order; with one core or one item, `f`
/// runs on the calling thread.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(at) else {
                            break;
                        };
                        mine.push((at, f(item)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (at, result) in handle.join().expect("parallel map worker panicked") {
                slots[at] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        assert_eq!(
            par_map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
        assert!(par_map(&[] as &[u64], |&x| x).is_empty());
    }
}
