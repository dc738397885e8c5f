//! Deterministic ordering helpers for completion buffers: the canonical
//! `(time, tag)` order the runtime retires completions in.
//!
//! [`crate::state::ShardState::advance_due`] sorts its buffer as it
//! advances, and the runtime sorts each catch-up's completions. Tags
//! are unique per dispatch, so `(time, tag)` is a total order.

use mrs_sim::engine::Completion;

/// Sorts `buf` into the canonical `(time, tag)` retirement order.
/// Cheap no-op for the overwhelmingly common 0/1-element case.
pub fn sort_completions(buf: &mut [Completion]) {
    if buf.len() > 1 {
        buf.sort_by(completion_order);
    }
}

/// The canonical completion comparator: `(time, tag)` with a total
/// order on time.
pub fn completion_order(a: &Completion, b: &Completion) -> std::cmp::Ordering {
    a.time.total_cmp(&b.time).then(a.tag.cmp(&b.tag))
}

/// True when `buf` is already in `(time, tag)` order (debug tripwire).
pub fn completions_sorted(buf: &[Completion]) -> bool {
    buf.windows(2)
        .all(|w| completion_order(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(time: f64, tag: usize) -> Completion {
        Completion { tag, time }
    }

    #[test]
    fn sort_completions_orders_by_time_then_tag() {
        let mut buf = vec![c(2.0, 1), c(1.0, 9), c(2.0, 0)];
        assert!(!completions_sorted(&buf));
        sort_completions(&mut buf);
        assert!(completions_sorted(&buf));
        assert_eq!(
            buf.iter()
                .map(|x| (x.time.to_bits(), x.tag))
                .collect::<Vec<_>>(),
            vec![
                (1.0f64.to_bits(), 9),
                (2.0f64.to_bits(), 0),
                (2.0f64.to_bits(), 1)
            ]
        );
    }
}
