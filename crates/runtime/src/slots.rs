//! Dense slot tables for the event loop's per-clone and per-query state.
//!
//! Both key spaces are minted densely by the runtime: clone tags by a
//! monotone counter ([`CloneWindow::next_tag`]), query ids by submission
//! order ([`QueryId`] is the record index). Indexing a slot array by the
//! key therefore does exactly what a hash map keyed by it would — the same
//! inserts, lookups and removals — without hashing and, once the arrays
//! reach their working size, without allocating.

use crate::job::QueryId;
use std::collections::VecDeque;

/// The clones in flight, by tag: a window of slots over the tag range
/// `[base, base + slots.len())`, which also mints the tags.
///
/// Tags are dense and monotone, so every new clone lands at the back. A
/// retired, lost or evicted clone leaves a hole (`None`), and holes at
/// the front are trimmed, so the window starts at the oldest live clone
/// and ends at the newest tag. A clone that is never tracked (a
/// zero-duration clone completes inline) enters as a hole. Iteration
/// visits the live clones in tag order.
pub(crate) struct CloneWindow<T> {
    /// Tag of `slots[0]`; the next tag while the window is empty.
    base: usize,
    /// One slot per tag in the window. Never starts with a hole.
    slots: VecDeque<Option<T>>,
}

impl<T> CloneWindow<T> {
    pub(crate) fn new() -> Self {
        CloneWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// The tag the next [`CloneWindow::push`] records.
    pub(crate) fn next_tag(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Records the clone tagged [`CloneWindow::next_tag`]: live with
    /// `Some`, or an untracked hole with `None`.
    pub(crate) fn push(&mut self, value: Option<T>) {
        if value.is_none() && self.slots.is_empty() {
            // A hole at the front is trimmed at once.
            self.base += 1;
        } else {
            self.slots.push_back(value);
        }
    }

    /// Removes and returns the live clone tagged `tag`, or `None` if no
    /// such clone is live.
    pub(crate) fn remove(&mut self, tag: usize) -> Option<T> {
        let value = self.slots.get_mut(tag.checked_sub(self.base)?)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// Whether no clone is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The live clones with their tags, in tag order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (base + i, v)))
    }
}

/// Per-query state indexed by the dense [`QueryId`], with a live count
/// so `len` and `is_empty` cost O(1).
pub(crate) struct QueryTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> QueryTable<T> {
    pub(crate) fn new() -> Self {
        QueryTable {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Stores `value` for `id`, replacing any value held.
    pub(crate) fn insert(&mut self, id: QueryId, value: T) {
        if id.0 >= self.slots.len() {
            self.slots.resize_with(id.0 + 1, || None);
        }
        if self.slots[id.0].replace(value).is_none() {
            self.live += 1;
        }
    }

    /// Removes and returns the value held for `id`.
    pub(crate) fn remove(&mut self, id: QueryId) -> Option<T> {
        let old = self.slots.get_mut(id.0)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    pub(crate) fn get(&self, id: QueryId) -> Option<&T> {
        self.slots.get(id.0)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut T> {
        self.slots.get_mut(id.0)?.as_mut()
    }

    /// Number of ids holding a value.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags<T>(w: &CloneWindow<T>) -> Vec<usize> {
        w.iter().map(|(tag, _)| tag).collect()
    }

    #[test]
    fn zero_duration_hole_takes_a_tag_but_no_slot() {
        let mut w = CloneWindow::new();
        // A hole into the empty window only advances the tag counter.
        w.push(None::<char>);
        assert_eq!(w.next_tag(), 1);
        assert!(w.is_empty());
        w.push(Some('a'));
        w.push(None);
        w.push(Some('c'));
        assert_eq!(w.next_tag(), 4);
        assert_eq!(tags(&w), vec![1, 3]);
        assert_eq!(w.remove(2), None, "a hole holds no clone");
        assert_eq!(w.remove(0), None, "a trimmed hole holds no clone");
        // Retiring tag 1 trims it and the hole behind it.
        assert_eq!(w.remove(1), Some('a'));
        assert_eq!((w.base, w.slots.len()), (3, 1));
        assert_eq!(w.remove(3), Some('c'));
        assert!(w.is_empty());
        assert_eq!(w.next_tag(), 4, "tags stay monotone across a drain");
    }

    #[test]
    fn out_of_order_retirement_trims_the_front() {
        let mut w = CloneWindow::new();
        for v in 0..5 {
            w.push(Some(v));
        }
        // Younger clones retire first: the front stays pinned.
        assert_eq!(w.remove(3), Some(3));
        assert_eq!(w.remove(1), Some(1));
        assert_eq!((w.base, w.slots.len()), (0, 5));
        // The oldest retires: the front trims past the hole at tag 1.
        assert_eq!(w.remove(0), Some(0));
        assert_eq!((w.base, w.slots.len()), (2, 3));
        assert_eq!(w.remove(2), Some(2));
        assert_eq!((w.base, w.slots.len()), (4, 1));
        assert_eq!(tags(&w), vec![4]);
    }

    #[test]
    fn a_lost_tag_is_removed_once() {
        let mut w = CloneWindow::new();
        w.push(Some("x"));
        w.push(Some("lost"));
        w.push(Some("y"));
        assert_eq!(w.remove(1), Some("lost"));
        assert_eq!(w.remove(1), None, "already removed");
        assert_eq!(w.remove(7), None, "never minted");
        assert_eq!(tags(&w), vec![0, 2]);
    }

    #[test]
    fn iteration_is_in_tag_order_after_interleaved_push_and_remove() {
        let mut w = CloneWindow::new();
        w.push(Some(10));
        w.push(Some(11));
        w.remove(0);
        w.push(Some(12));
        w.push(None);
        w.push(Some(14));
        w.remove(2);
        w.push(Some(15));
        let seen: Vec<(usize, i32)> = w.iter().map(|(t, v)| (t, *v)).collect();
        assert_eq!(seen, vec![(1, 11), (4, 14), (5, 15)]);
    }

    #[test]
    fn query_table_len_tracks_insert_remove_and_reinsert() {
        let mut t = QueryTable::new();
        assert!(t.is_empty());
        t.insert(QueryId(3), 'a');
        t.insert(QueryId(0), 'b');
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(QueryId(1)), None);
        assert_eq!(t.remove(QueryId(3)), Some('a'));
        assert_eq!(t.remove(QueryId(3)), None);
        assert_eq!(t.remove(QueryId(9)), None, "beyond the table");
        assert_eq!(t.len(), 1);
        t.insert(QueryId(3), 'c');
        t.insert(QueryId(3), 'd');
        assert_eq!(t.len(), 2, "a replacing insert keeps the count");
        *t.get_mut(QueryId(0)).expect("inserted above") = 'e';
        assert_eq!(t.get(QueryId(0)), Some(&'e'));
        assert_eq!(t.get(QueryId(3)), Some(&'d'));
        t.remove(QueryId(0));
        t.remove(QueryId(3));
        assert!(t.is_empty());
    }
}
