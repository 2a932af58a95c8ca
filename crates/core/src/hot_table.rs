//! The hot table of Fig. 4: two LRU counter queues per remapping set.
//!
//! One queue tracks pages resident in HBM (cHBM and mHBM alike, at most one
//! entry per HBM frame), the other the most recently accessed off-chip DRAM
//! pages (the paper evaluates a depth of eight). Each entry carries an
//! access counter; the smallest counter among HBM entries is the paper's
//! hotness threshold `T`.
//!
//! # Layout
//!
//! Each queue is a `Vec<HotEntry>` in recency order, most recently used
//! first, reserved one entry past its capacity at construction so the
//! access path never allocates. No evaluated configuration queues more than
//! 16 HBM or 32 off-chip entries, so every operation is a scan of one short
//! queue, and `T` is computed when read.

/// One queue entry: an original PLE (slot id) and its hotness counter.
///
/// The counter records **re-references**: a touch increments it only when
/// the page was not already at the MRU position. A page streamed through
/// once — even for thousands of consecutive lines — therefore stays at
/// hotness 1, while genuinely re-visited pages accumulate hotness. This is
/// the temporal-locality signal the paper's threshold `T` needs: "data
/// with a low access frequency is not brought into HBM" (§III-E), and raw
/// access counts cannot distinguish one long sequential sweep from real
/// reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotEntry {
    /// Original slot id of the page in its remapping set.
    pub ple: u16,
    /// Re-references observed while the entry has been tracked.
    pub counter: u32,
}

/// Takes `ple`'s entry out of `queue`, if present.
fn take(queue: &mut Vec<HotEntry>, ple: u16) -> Option<HotEntry> {
    let pos = queue.iter().position(|e| e.ple == ple)?;
    Some(queue.remove(pos))
}

/// Rotates `ple`'s entry to the front of `queue`, counting a re-reference
/// unless it was already there; returns its counter, or `None` if `ple` is
/// not queued.
fn touch(queue: &mut [HotEntry], ple: u16) -> Option<u32> {
    let pos = queue.iter().position(|e| e.ple == ple)?;
    if pos != 0 {
        queue[pos].counter = queue[pos].counter.saturating_add(1);
        queue[..=pos].rotate_right(1);
    }
    Some(queue[0].counter)
}

/// Inserts `entry` at the front of `queue`, first dropping the LRU entry
/// when the queue holds `cap`; returns the dropped entry.
fn push_front(queue: &mut Vec<HotEntry>, cap: usize, entry: HotEntry) -> Option<HotEntry> {
    let popped = if queue.len() == cap { queue.pop() } else { None };
    queue.insert(0, entry);
    popped
}

/// The counter of `ple` in `queue` (0 if untracked).
fn hotness(queue: &[HotEntry], ple: u16) -> u32 {
    queue.iter().find(|e| e.ple == ple).map_or(0, |e| e.counter)
}

/// The per-set hot table; see the [module documentation](self).
///
/// Entries are kept in recency order, queue front = most recently used.
#[derive(Debug, Clone)]
pub struct HotTable {
    hbm: Vec<HotEntry>,
    dram: Vec<HotEntry>,
    hbm_cap: usize,
    dram_cap: usize,
}

impl HotTable {
    /// Creates a table tracking up to `hbm_cap` HBM pages (= the set's
    /// HBM frames) and `dram_cap` recent off-chip pages.
    pub fn new(hbm_cap: usize, dram_cap: usize) -> HotTable {
        HotTable {
            hbm: Vec::with_capacity(hbm_cap + 1),
            dram: Vec::with_capacity(dram_cap + 1),
            hbm_cap,
            dram_cap,
        }
    }

    /// Records an access to off-chip page `ple`, inserting it at the MRU
    /// position; returns its updated counter. Re-reference counting: a
    /// touch while already at MRU does not increment (see [`HotEntry`]).
    /// A pre-existing entry keeps its counter; the LRU entry is silently
    /// dropped when the queue overflows.
    pub fn touch_dram(&mut self, ple: u16) -> u32 {
        touch(&mut self.dram, ple).unwrap_or_else(|| {
            push_front(&mut self.dram, self.dram_cap, HotEntry { ple, counter: 1 });
            1
        })
    }

    /// Records an access to HBM-resident page `ple`; returns its updated
    /// counter (re-reference counting, as for
    /// [`touch_dram`](Self::touch_dram)). Inserts the page if it is
    /// somehow untracked, without a capacity check.
    pub fn touch_hbm(&mut self, ple: u16) -> u32 {
        touch(&mut self.hbm, ple).unwrap_or_else(|| {
            self.hbm.insert(0, HotEntry { ple, counter: 1 });
            1
        })
    }

    /// Moves `ple` from the DRAM queue (if present) into the HBM queue,
    /// carrying its counter — used when a page is cached or migrated into
    /// HBM. Returns the LRU HBM entry popped out if the HBM queue was full;
    /// per the paper that popped page must be evicted from HBM.
    pub fn promote(&mut self, ple: u16) -> Option<HotEntry> {
        take(&mut self.hbm, ple); // defensive: a promoted page is never HBM-tracked
        let counter = take(&mut self.dram, ple).map_or(1, |e| e.counter);
        push_front(&mut self.hbm, self.hbm_cap, HotEntry { ple, counter })
    }

    /// Removes `ple` from the HBM queue and pushes it onto the DRAM queue
    /// front (the paper's "popped-out HBM page entries are pushed back into
    /// the off-chip DRAM queue"). No-op if absent.
    pub fn demote(&mut self, ple: u16) {
        if let Some(e) = take(&mut self.hbm, ple) {
            self.push_dram_front(e);
        }
    }

    /// Re-inserts an entry at the MRU position of the HBM queue (used when
    /// a popped mHBM page takes the buffered cHBM second chance and thus
    /// stays resident in HBM).
    pub fn push_hbm_front(&mut self, entry: HotEntry) {
        take(&mut self.hbm, entry.ple);
        push_front(&mut self.hbm, self.hbm_cap, entry);
    }

    /// Re-inserts an entry at the LRU end of the HBM queue (restoring an
    /// entry that was popped but could not be processed); a full queue
    /// drops it.
    pub fn push_lru_hbm(&mut self, entry: HotEntry) {
        take(&mut self.hbm, entry.ple);
        if self.hbm.len() < self.hbm_cap {
            self.hbm.push(entry);
        }
    }

    /// Pushes an entry (typically one popped from the HBM queue) onto the
    /// DRAM queue front, dropping the DRAM LRU entry if full.
    pub fn push_dram_front(&mut self, entry: HotEntry) {
        take(&mut self.dram, entry.ple);
        push_front(&mut self.dram, self.dram_cap, entry);
    }

    /// Removes `ple` from both queues (page freed / swapped out).
    pub fn remove(&mut self, ple: u16) {
        take(&mut self.hbm, ple);
        take(&mut self.dram, ple);
    }

    /// The hotness counter of `ple` in the DRAM queue (0 if untracked).
    pub fn dram_hotness(&self, ple: u16) -> u32 {
        hotness(&self.dram, ple)
    }

    /// The hotness counter of `ple` in the HBM queue (0 if untracked).
    pub fn hbm_hotness(&self, ple: u16) -> u32 {
        hotness(&self.hbm, ple)
    }

    /// Whether `ple` is tracked in the HBM queue.
    pub fn in_hbm(&self, ple: u16) -> bool {
        self.hbm.iter().any(|e| e.ple == ple)
    }

    /// The paper's threshold `T`: the smallest counter among HBM entries
    /// (0 when the queue is empty).
    pub fn threshold(&self) -> u32 {
        self.hbm.iter().map(|e| e.counter).min().unwrap_or(0)
    }

    /// The LRU HBM entry (the next pop-out candidate), if any.
    pub fn lru_hbm(&self) -> Option<HotEntry> {
        self.hbm.last().copied()
    }

    /// Pops the LRU HBM entry.
    pub fn pop_lru_hbm(&mut self) -> Option<HotEntry> {
        self.hbm.pop()
    }

    /// Number of HBM entries.
    pub fn hbm_len(&self) -> usize {
        self.hbm.len()
    }

    /// Number of DRAM entries.
    pub fn dram_len(&self) -> usize {
        self.dram.len()
    }

    /// Iterates the HBM-queue entries, MRU first.
    pub fn iter_hbm(&self) -> impl Iterator<Item = &HotEntry> {
        self.hbm.iter()
    }

    /// Iterates the DRAM-queue entries, MRU first.
    pub fn iter_dram(&self) -> impl Iterator<Item = &HotEntry> {
        self.dram.iter()
    }
}

/// Invariant validation, swept by [`BumblebeeController`](crate::BumblebeeController)
/// every 4096 accesses in debug builds.
impl HotTable {
    /// Verifies that each queue stays within its capacity and holds a page
    /// at most once.
    pub fn validate(&self) -> Result<(), String> {
        let queues = [(&self.hbm, self.hbm_cap, "HBM"), (&self.dram, self.dram_cap, "DRAM")];
        for (queue, cap, name) in queues {
            if queue.len() > cap {
                return Err(format!("{name} queue holds {} > cap {cap}", queue.len()));
            }
            for (i, e) in queue.iter().enumerate() {
                if queue[..i].iter().any(|f| f.ple == e.ple) {
                    return Err(format!("{name} queue holds page {} twice", e.ple));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_dram_counts_rereferences_and_orders() {
        let mut t = HotTable::new(4, 2);
        assert_eq!(t.touch_dram(1), 1);
        // Consecutive touches while at MRU do not count (streaming).
        assert_eq!(t.touch_dram(1), 1);
        assert_eq!(t.touch_dram(2), 1);
        // Page 1 is re-referenced after an intervening page: counts.
        assert_eq!(t.touch_dram(1), 2);
        assert_eq!(t.dram_hotness(1), 2);
        // Queue depth 2: touching a third page drops the LRU (page 2).
        t.touch_dram(3);
        assert_eq!(t.dram_hotness(2), 0, "LRU page dropped");
        assert_eq!(t.dram_hotness(1), 2);
    }

    #[test]
    fn promote_carries_counter() {
        let mut t = HotTable::new(2, 4);
        // Three re-references interleaved with another page.
        t.touch_dram(5);
        t.touch_dram(9);
        t.touch_dram(5);
        t.touch_dram(9);
        t.touch_dram(5);
        assert!(t.promote(5).is_none());
        assert!(t.in_hbm(5));
        assert_eq!(t.dram_hotness(5), 0);
        assert_eq!(t.threshold(), 3);
    }

    #[test]
    fn promote_pops_lru_when_full() {
        let mut t = HotTable::new(2, 4);
        t.promote(1);
        t.promote(2);
        let popped = t.promote(3).expect("queue was full");
        assert_eq!(popped.ple, 1);
        assert!(!t.in_hbm(1));
        assert!(t.in_hbm(2) && t.in_hbm(3));
    }

    #[test]
    fn demote_moves_to_dram_front() {
        let mut t = HotTable::new(2, 2);
        t.promote(1);
        t.promote(2);
        t.touch_hbm(1);
        t.touch_hbm(2);
        t.touch_hbm(1);
        t.demote(1);
        assert!(!t.in_hbm(1));
        assert_eq!(t.dram_hotness(1), 3);
    }

    #[test]
    fn threshold_is_min_hbm_counter() {
        let mut t = HotTable::new(4, 4);
        assert_eq!(t.threshold(), 0);
        t.promote(1); // counter 1
        t.promote(2); // counter 1
        assert_eq!(t.threshold(), 1);
        // Re-reference both pages alternately to raise the minimum.
        t.touch_hbm(1);
        t.touch_hbm(2);
        assert_eq!(t.threshold(), 2);
    }

    #[test]
    fn lru_order_follows_recency_not_counter() {
        let mut t = HotTable::new(3, 4);
        t.promote(1);
        for _ in 0..10 {
            t.touch_hbm(1);
        }
        t.promote(2);
        t.touch_hbm(1); // page 1 most recent again
        assert_eq!(t.lru_hbm().unwrap().ple, 2, "page 2 is least recent despite page 1's history");
    }

    #[test]
    fn remove_clears_both_queues() {
        let mut t = HotTable::new(2, 2);
        t.touch_dram(7);
        t.promote(8);
        t.remove(7);
        t.remove(8);
        assert_eq!(t.dram_hotness(7), 0);
        assert!(!t.in_hbm(8));
    }

    #[test]
    fn counters_saturate() {
        let mut t = HotTable::new(2, 4);
        t.push_dram_front(HotEntry { ple: 1, counter: u32::MAX });
        t.touch_dram(2);
        assert_eq!(t.touch_dram(1), u32::MAX, "a re-reference at the maximum saturates");
    }

    #[test]
    fn threshold_recomputes_when_last_min_entry_leaves() {
        let mut t = HotTable::new(4, 4);
        t.promote(1);
        t.promote(2);
        t.promote(3);
        t.touch_hbm(2); // 2 → counter 2
        t.touch_hbm(3); // 3 → counter 2
        assert_eq!(t.threshold(), 1, "page 1 still at 1");
        t.remove(1);
        assert_eq!(t.threshold(), 2, "the next minimum once the last minimal entry left");
        t.pop_lru_hbm();
        t.pop_lru_hbm();
        assert_eq!(t.threshold(), 0, "empty queue reports 0");
    }

    #[test]
    fn push_lru_hbm_respects_capacity() {
        let mut t = HotTable::new(2, 2);
        t.promote(1);
        t.promote(2);
        t.push_lru_hbm(HotEntry { ple: 3, counter: 9 });
        assert!(!t.in_hbm(3), "full queue refuses an LRU re-insert");
        t.pop_lru_hbm();
        t.push_lru_hbm(HotEntry { ple: 3, counter: 9 });
        assert_eq!(t.lru_hbm().unwrap().ple, 3);
        assert_eq!(t.threshold(), 1, "counter-9 LRU insert does not lower the min");
    }

    #[test]
    fn validate_accepts_a_worked_table() {
        let mut t = HotTable::new(2, 2);
        assert_eq!(t.validate(), Ok(()));
        t.touch_dram(1);
        t.touch_dram(2);
        t.touch_dram(1);
        t.promote(1);
        t.promote(2);
        t.promote(3); // pops LRU
        t.touch_hbm(2);
        t.demote(3);
        t.remove(2);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_corruption() {
        // A page queued twice.
        let mut t = HotTable::new(4, 4);
        t.touch_dram(3);
        t.touch_dram(5);
        t.dram.push(HotEntry { ple: 3, counter: 1 });
        assert!(t.validate().unwrap_err().contains("DRAM queue holds page 3 twice"));

        // A queue over capacity (an untracked touch inserts unchecked).
        let mut t = HotTable::new(2, 4);
        t.promote(1);
        t.promote(2);
        t.touch_hbm(3);
        assert!(t.validate().unwrap_err().contains("HBM queue holds 3 > cap 2"));
    }
}
