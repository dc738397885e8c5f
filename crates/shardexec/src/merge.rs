//! Deterministic ordering helpers for completion buffers: the canonical
//! `(time, tag)` order the runtime retires completions in.
//!
//! [`crate::state::ShardState::advance_due`] sorts its buffer as it
//! advances, and the runtime sorts each catch-up's completions. Tags
//! are unique per dispatch, so `(time, tag)` is a total order.

use mrs_sim::engine::Completion;

/// Sorts `buf` into the canonical `(time, tag)` retirement order.
///
/// One advance of a serving run's sites surfaces about two dozen
/// completions, nearly always stamped with the same bits of `t`; then
/// the order is the tag order alone, and the sort compares plain
/// integers. A buffer with more than one time falls back to the full
/// comparator. Tags are unique, so the unstable sorts give the one
/// `(time, tag)` order.
pub fn sort_completions(buf: &mut [Completion]) {
    let Some(first) = buf.first() else {
        return;
    };
    let bits = first.time.to_bits();
    if buf.iter().all(|c| c.time.to_bits() == bits) {
        buf.sort_unstable_by_key(|c| c.tag);
    } else {
        buf.sort_unstable_by(completion_order);
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

    fn keys(buf: &[Completion]) -> Vec<(u64, usize)> {
        buf.iter().map(|x| (x.time.to_bits(), x.tag)).collect()
    }

    #[test]
    fn an_equal_time_buffer_sorts_by_tag_as_the_comparator_does() {
        let t = 0.1 + 0.2;
        let tags = [17, 3, 42, 0, 9, 25, 1, 8, 30, 2, 11, 5];
        let mut buf: Vec<Completion> = tags.iter().map(|&tag| c(t, tag)).collect();
        let mut reference = buf.clone();
        reference.sort_by(completion_order);
        sort_completions(&mut buf);
        assert_eq!(keys(&buf), keys(&reference));
        assert!(completions_sorted(&buf));
    }

    #[test]
    fn sort_completions_orders_by_time_then_tag() {
        // Mixed times take the comparator path: tag order alone would
        // put tag 0 (a later time) first.
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
        // Times that compare equal but differ in bits are not one time.
        let mut zeros = vec![c(0.0, 0), c(-0.0, 1)];
        sort_completions(&mut zeros);
        assert_eq!(keys(&zeros), vec![((-0.0f64).to_bits(), 1), (0, 0)]);
    }
}
