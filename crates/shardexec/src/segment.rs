//! The clone event log and its read-time segments.
//!
//! The site layer records every site-level clone event — dispatch,
//! completion, crash loss, eviction — into one run-encoded
//! `EventLog`, which decodes when asked. The decoded log is the
//! evidence `mrs-audit`'s clone-log checker reads: every dispatched
//! clone must end in exactly one terminal event. It can also be sliced
//! by site range into [`ShardSegment`]s ([`ShardPlan::split`]).
//!
//! [`ShardPlan::split`]: crate::plan::ShardPlan::split

/// What happened to one clone at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardEventKind {
    /// The clone was placed on the site.
    Dispatched,
    /// The clone ran to completion.
    Completed,
    /// The clone was evicted by a site crash.
    Lost,
    /// The clone was evicted by the runtime (abort/deadline).
    Evicted,
}

impl ShardEventKind {
    /// Stable rank of the kind: the two bits an `EventLog` cell
    /// stores it in.
    pub fn rank(self) -> u8 {
        match self {
            ShardEventKind::Dispatched => 0,
            ShardEventKind::Completed => 1,
            ShardEventKind::Lost => 2,
            ShardEventKind::Evicted => 3,
        }
    }

    /// Short stable label (for diagnostics and CSVs).
    pub fn label(self) -> &'static str {
        match self {
            ShardEventKind::Dispatched => "dispatched",
            ShardEventKind::Completed => "completed",
            ShardEventKind::Lost => "lost",
            ShardEventKind::Evicted => "evicted",
        }
    }
}

/// One site-level clone event, stamped with virtual time, the *global*
/// site index, and the runtime's (globally unique) clone tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardEvent {
    /// Virtual time of the event.
    pub time: f64,
    /// Global site index where it happened.
    pub site: usize,
    /// The clone's runtime tag (unique per dispatch; re-packs mint new
    /// tags).
    pub tag: usize,
    /// What happened.
    pub kind: ShardEventKind,
}

/// Per-kind counts of recorded events: what [`ShardState`] reports
/// without decoding the log.
///
/// [`ShardState`]: crate::state::ShardState
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// [`ShardEventKind::Dispatched`] events.
    pub dispatched: usize,
    /// [`ShardEventKind::Completed`] events.
    pub completed: usize,
    /// [`ShardEventKind::Lost`] events.
    pub lost: usize,
    /// [`ShardEventKind::Evicted`] events.
    pub evicted: usize,
}

impl EventCounts {
    /// The per-kind counts of `events`.
    pub fn of(events: &[ShardEvent]) -> Self {
        let mut counts = EventCounts::default();
        for e in events {
            counts.add(e.kind);
        }
        counts
    }

    /// Counts one event of `kind`.
    pub(crate) fn add(&mut self, kind: ShardEventKind) {
        match kind {
            ShardEventKind::Dispatched => self.dispatched += 1,
            ShardEventKind::Completed => self.completed += 1,
            ShardEventKind::Lost => self.lost += 1,
            ShardEventKind::Evicted => self.evicted += 1,
        }
    }

    /// Events of every kind.
    pub fn total(&self) -> usize {
        self.dispatched + self.completed + self.lost + self.evicted
    }
}

impl std::iter::Sum for EventCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(EventCounts::default(), |a, b| EventCounts {
            dispatched: a.dispatched + b.dispatched,
            completed: a.completed + b.completed,
            lost: a.lost + b.lost,
            evicted: a.evicted + b.evicted,
        })
    }
}

/// Bits of a cell's last word that hold a site; the two above them hold
/// the event kind's [`ShardEventKind::rank`].
const SITE_BITS: u32 = 30;

/// Sites an `EventLog` can name: global site indices must be below
/// this.
pub const MAX_SITES: usize = 1 << SITE_BITS;

/// Mask of a cell's site (or run-length) bits.
const LOW_MASK: u32 = (1 << SITE_BITS) - 1;

/// One 16-byte unit of an [`EventLog`].
type Cell = [u32; 4];

/// The high 32 bits of a tag.
fn high_half(tag: usize) -> u32 {
    ((tag as u64) >> 32) as u32
}

/// The site layer's recorded events as it keeps them during a run: an
/// append-only list of 16-byte cells in 64 KiB chunks, so that it grows
/// without ever copying what it holds and the process's peak RSS does
/// not depend on where a doubling buffer landed in the heap.
///
/// Every clone costs a dispatch and one terminal event, and a
/// 200-query stream at P = 140 dispatches about 257k clones, so the
/// encoding is what sets the log's size. A cell's words are
/// `[time low, time high, tag low, w]`:
///
/// * **Dispatch runs.** The runtime dispatches a phase's clones at one
///   clock with consecutive tags, so consecutive dispatches at the same
///   time bits with consecutive tags share one header cell whose `w` is
///   the run length (kind bits 0). The sites follow, four `u32` to a
///   cell: about 4 bytes per dispatched clone. Any other event closes
///   the run, as does a new instant or a tag gap (a clone recorded in
///   another log, as with a pool's per-range states).
/// * **Terminal events** (completed, lost, evicted) take one cell each,
///   with `w = site | rank << 30`.
/// * **Escape cells.** Cells hold only a tag's low 32 bits. When the
///   high half changes, a cell `[high, 0, 0, 0]` (a header of length 0)
///   sets it for the cells that follow, so any `usize` tag round-trips.
///
/// [`EventLog::to_vec`] decodes the cells into the events in push
/// order; nothing is decoded while the run records.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventLog {
    chunks: Vec<Vec<Cell>>,
    /// The tag high half the cells written so far leave in force.
    high: u32,
    /// The dispatch run the last push opened or extended, if any.
    run: Option<Run>,
    /// Events pushed, by kind.
    counts: EventCounts,
}

/// The open dispatch run of an [`EventLog`].
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Its events' time bits.
    time: u64,
    /// The tag that extends it.
    next_tag: usize,
    /// Its length so far.
    len: u32,
    /// Chunk and cell index of its header.
    header: (usize, usize),
}

impl EventLog {
    /// Cells per chunk (64 KiB).
    const CHUNK: usize = 4096;

    /// Appends `event`.
    pub(crate) fn push(&mut self, event: ShardEvent) {
        debug_assert!(event.site < MAX_SITES, "site {} too large", event.site);
        self.counts.add(event.kind);
        let time = event.time.to_bits();
        let site = event.site as u32;
        if event.kind == ShardEventKind::Dispatched {
            if let Some(run) = &mut self.run {
                if run.time == time
                    && run.next_tag == event.tag
                    && high_half(event.tag) == self.high
                    && run.len < LOW_MASK
                {
                    let slot = run.len as usize % 4;
                    run.len += 1;
                    run.next_tag = run.next_tag.wrapping_add(1);
                    let (c, i) = run.header;
                    self.chunks[c][i][3] = run.len;
                    if slot == 0 {
                        self.push_cell([site, 0, 0, 0]);
                    } else {
                        let last = self.chunks.last_mut().and_then(|c| c.last_mut());
                        last.expect("an open run ends the log")[slot] = site;
                    }
                    return;
                }
            }
            self.set_high(event.tag);
            let header = self.push_cell([time as u32, (time >> 32) as u32, event.tag as u32, 1]);
            self.push_cell([site, 0, 0, 0]);
            self.run = Some(Run {
                time,
                next_tag: event.tag.wrapping_add(1),
                len: 1,
                header,
            });
        } else {
            self.run = None;
            self.set_high(event.tag);
            let w = site | u32::from(event.kind.rank()) << SITE_BITS;
            self.push_cell([time as u32, (time >> 32) as u32, event.tag as u32, w]);
        }
    }

    /// Writes an escape cell first if `tag`'s high half is not the one
    /// in force.
    fn set_high(&mut self, tag: usize) {
        let high = high_half(tag);
        if high != self.high {
            self.high = high;
            self.push_cell([high, 0, 0, 0]);
        }
    }

    /// Appends `cell`, returning its chunk and cell index.
    fn push_cell(&mut self, cell: Cell) -> (usize, usize) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(cell),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(cell);
                self.chunks.push(chunk);
            }
        }
        let c = self.chunks.len() - 1;
        (c, self.chunks[c].len() - 1)
    }

    /// Events pushed so far, by kind.
    pub(crate) fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Every event, in the order they were pushed.
    pub(crate) fn to_vec(&self) -> Vec<ShardEvent> {
        let mut out = Vec::with_capacity(self.counts.total());
        let mut cells = self.chunks.iter().flatten();
        let mut high = 0u64;
        while let Some(&[t0, t1, lo, w]) = cells.next() {
            let time = f64::from_bits(u64::from(t0) | u64::from(t1) << 32);
            let tag = (high << 32 | u64::from(lo)) as usize;
            let kind = match w >> SITE_BITS {
                0 if w == 0 => {
                    high = u64::from(t0);
                    continue;
                }
                0 => {
                    let len = w as usize;
                    let sites = cells.by_ref().take(len.div_ceil(4)).flatten().take(len);
                    out.extend(sites.enumerate().map(|(i, &site)| ShardEvent {
                        time,
                        site: site as usize,
                        tag: tag + i,
                        kind: ShardEventKind::Dispatched,
                    }));
                    continue;
                }
                1 => ShardEventKind::Completed,
                2 => ShardEventKind::Lost,
                _ => ShardEventKind::Evicted,
            };
            out.push(ShardEvent {
                time,
                site: (w & LOW_MASK) as usize,
                tag,
                kind,
            });
        }
        out
    }
}

/// One site range's slice of the run's site-level trace: the range and
/// its sites' events, in the order they were recorded. The log stores
/// events run-encoded, at about 20 bytes per clone for its dispatch and
/// terminal event together; a segment holds 32-byte [`ShardEvent`]s,
/// decoded only when a shard-invariance check or a traced benchmark
/// asks for them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSegment {
    /// The segment's index, in site order.
    pub shard: usize,
    /// The half-open global site range `[lo, hi)` it covers.
    pub sites: (usize, usize),
    /// Recorded events; times are non-decreasing only per site, not
    /// globally (lazy catch-up can append an older-stamped completion
    /// after a newer event on another site).
    pub events: Vec<ShardEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, site: usize, tag: usize, kind: ShardEventKind) -> ShardEvent {
        ShardEvent {
            time,
            site,
            tag,
            kind,
        }
    }

    /// Pushes `events` into a fresh log and checks that it decodes to
    /// exactly them, in a list of exact capacity, with matching counts.
    fn round_trip(events: &[ShardEvent]) -> EventLog {
        let mut log = EventLog::default();
        for &e in events {
            log.push(e);
        }
        let decoded = log.to_vec();
        assert_eq!(decoded, events);
        assert_eq!(decoded.capacity(), events.len());
        assert_eq!(log.counts(), EventCounts::of(events));
        log
    }

    /// The log's footprint in bytes.
    fn bytes(log: &EventLog) -> usize {
        log.chunks.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Cell>()
    }

    /// SplitMix64, for seeded event sequences.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A runtime-shaped sequence: phases dispatch runs of consecutive
    /// tags at one instant (some clones going to another shard, some
    /// finishing inline), completions and crash losses of earlier
    /// clones come in between, and the tag counter sometimes sits just
    /// below a multiple of 2^32.
    fn seeded_events(seed: u64, len: usize) -> Vec<ShardEvent> {
        use ShardEventKind::*;
        let mut rng = Rng(seed);
        let mut events = Vec::with_capacity(len);
        let mut time = 0.0f64;
        let mut tag = 0usize;
        let mut resident: Vec<(usize, usize)> = Vec::new();
        let site = |rng: &mut Rng| match rng.below(8) {
            0 => MAX_SITES - 1,
            _ => rng.below(140) as usize,
        };
        while events.len() < len {
            match rng.below(10) {
                0 => tag = ((rng.below(3) + 1) << 32) as usize - rng.below(4) as usize,
                1..=4 => {
                    for _ in 0..=rng.below(40) {
                        let s = site(&mut rng);
                        match rng.below(12) {
                            0 => {}
                            1 => {
                                events.push(ev(time, s, tag, Dispatched));
                                events.push(ev(time, s, tag, Completed));
                            }
                            _ => {
                                events.push(ev(time, s, tag, Dispatched));
                                resident.push((s, tag));
                            }
                        }
                        tag += 1;
                    }
                }
                5..=8 if !resident.is_empty() => {
                    let (s, t) = resident.swap_remove(rng.below(resident.len() as u64) as usize);
                    let kind = [Completed, Completed, Lost, Evicted][rng.below(4) as usize];
                    events.push(ev(time, s, t, kind));
                }
                _ => time += rng.below(1000) as f64 / 7.0,
            }
        }
        events
    }

    #[test]
    fn event_log_keeps_push_order_across_chunks() {
        use ShardEventKind::*;
        // One cell per terminal event: two full chunks and five cells.
        let events: Vec<ShardEvent> = (0..2 * EventLog::CHUNK + 5)
            .map(|i| ev(i as f64, i % 7, i, [Completed, Lost, Evicted][i % 3]))
            .collect();
        assert!(EventLog::default().to_vec().is_empty());
        let log = round_trip(&events);
        assert_eq!(log.chunks.len(), 3);
        assert!(
            log.chunks.iter().all(|c| c.capacity() == EventLog::CHUNK),
            "full chunks are never grown"
        );
    }

    #[test]
    fn seeded_sequences_round_trip() {
        for seed in 0..24 {
            let events = seeded_events(seed, 20_000);
            let log = round_trip(&events);
            let counts = EventCounts::of(&events);
            assert!(counts.dispatched > 0 && counts.lost > 0 && counts.evicted > 0);
            assert!(
                bytes(&log) < events.len() * 16,
                "seed {seed}: runs share headers"
            );
        }
    }

    #[test]
    fn runs_break_on_a_new_instant_a_tag_gap_and_a_terminal() {
        use ShardEventKind::*;
        let events = [
            ev(0.0, 3, 0, Dispatched),
            ev(0.0, 4, 1, Dispatched),
            ev(0.0, 5, 2, Dispatched),
            // A new instant, then a tag gap: tag 4 went to another shard.
            ev(1.0, 3, 3, Dispatched),
            ev(1.0, 6, 5, Dispatched),
            // A terminal in between, then the tag the run would take.
            ev(1.0, 0, 0, Completed),
            ev(1.0, 7, 6, Dispatched),
            // Negative zero has other bits than zero.
            ev(-0.0, 1, 7, Dispatched),
        ];
        let log = round_trip(&events);
        // Five runs of a header and one site cell each, and one terminal.
        assert_eq!(bytes(&log), (5 * 2 + 1) * 16);
    }

    #[test]
    fn a_zero_duration_clone_round_trips() {
        use ShardEventKind::*;
        // Dispatched and completed at one instant with one tag, between
        // its phase's other dispatches.
        round_trip(&[
            ev(2.5, 1, 8, Dispatched),
            ev(2.5, 2, 9, Dispatched),
            ev(2.5, 2, 9, Completed),
            ev(2.5, 3, 10, Dispatched),
            ev(2.5, 4, 11, Dispatched),
        ]);
    }

    #[test]
    fn a_run_crosses_chunk_boundaries() {
        use ShardEventKind::*;
        for fill in EventLog::CHUNK - 3..=EventLog::CHUNK {
            let mut events: Vec<ShardEvent> = (0..fill)
                .map(|i| ev(i as f64, i % 5, i, Completed))
                .collect();
            events.extend(
                (0..4 * EventLog::CHUNK + 3).map(|i| ev(9e9, i % 140, fill + i, Dispatched)),
            );
            // The header sits at cell `fill`, near the end of the first
            // chunk (or first in the second), and its sites fill the next.
            let log = round_trip(&events);
            assert_eq!(
                log.chunks.len(),
                (fill + EventLog::CHUNK + 2).div_ceil(EventLog::CHUNK)
            );
        }
    }

    #[test]
    fn tags_on_both_sides_of_2_pow_32_round_trip() {
        use ShardEventKind::*;
        let edge = 1usize << 32;
        // One dispatch instant across the edge, terminals alternating
        // between its sides, and the largest tag.
        let mut events: Vec<ShardEvent> = (edge - 3..edge + 3)
            .map(|tag| ev(1.0, tag % 11, tag, Dispatched))
            .collect();
        for (i, tag) in [edge - 1, edge, edge - 3, edge + 2, 5, 3 * edge + 1]
            .into_iter()
            .enumerate()
        {
            events.push(ev(2.0, i, tag, [Completed, Lost, Evicted][i % 3]));
        }
        events.push(ev(3.0, 2, usize::MAX - 1, Dispatched));
        events.push(ev(3.0, 0, usize::MAX, Dispatched));
        events.push(ev(3.0, 1, 0, Dispatched));
        events.push(ev(3.0, 0, usize::MAX, Evicted));
        round_trip(&events);
    }

    #[test]
    fn a_dispatch_instant_costs_about_four_bytes_per_clone() {
        use ShardEventKind::*;
        for k in (1..=64).chain([1000, 3 * EventLog::CHUNK]) {
            let events: Vec<ShardEvent> = (0..k)
                .map(|i| ev(4.0, i % 140, 100 + i, Dispatched))
                .collect();
            let log = round_trip(&events);
            assert!(
                bytes(&log) <= 4 * k + 32,
                "{k} clones: {} bytes",
                bytes(&log)
            );
        }
    }
}
