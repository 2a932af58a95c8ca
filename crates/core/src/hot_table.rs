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
//! Both queues are intrusive doubly-linked lists threaded through one fixed
//! node arena, with a per-PLE slot map giving the arena index of a page's
//! node (or `NIL`). Every queue operation — touch, promote, demote,
//! remove, pop-LRU — is O(1) and allocation-free once the arena has warmed
//! up; the earlier `Vec<HotEntry>` representation paid O(n) `position`
//! scans, front-inserts and `retain` removals on every access. The
//! threshold `T` is tracked incrementally as `(min counter, multiplicity)`
//! and only rescanned (over at most `hbm_cap` nodes) when the last
//! minimal-counter entry disappears.

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

/// Arena index sentinel: "no node".
const NIL: u16 = u16::MAX;

/// One arena node: a queue entry plus its intrusive list links.
#[derive(Debug, Clone, Copy)]
struct Node {
    entry: HotEntry,
    prev: u16,
    next: u16,
}

/// Head/tail/length of one intrusive list.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u16,
    tail: u16,
    len: usize,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL, len: 0 };
}

/// Unlinks `idx` from `list` (the node stays allocated).
fn unlink(nodes: &mut [Node], list: &mut List, idx: u16) {
    let (prev, next) = {
        let n = &nodes[idx as usize];
        (n.prev, n.next)
    };
    if prev == NIL {
        list.head = next;
    } else {
        nodes[prev as usize].next = next;
    }
    if next == NIL {
        list.tail = prev;
    } else {
        nodes[next as usize].prev = prev;
    }
    list.len -= 1;
}

/// Links `idx` at the front (MRU end) of `list`.
fn link_front(nodes: &mut [Node], list: &mut List, idx: u16) {
    let old = list.head;
    {
        let n = &mut nodes[idx as usize];
        n.prev = NIL;
        n.next = old;
    }
    if old == NIL {
        list.tail = idx;
    } else {
        nodes[old as usize].prev = idx;
    }
    list.head = idx;
    list.len += 1;
}

/// Links `idx` at the back (LRU end) of `list`.
fn link_back(nodes: &mut [Node], list: &mut List, idx: u16) {
    let old = list.tail;
    {
        let n = &mut nodes[idx as usize];
        n.prev = old;
        n.next = NIL;
    }
    if old == NIL {
        list.head = idx;
    } else {
        nodes[old as usize].next = idx;
    }
    list.tail = idx;
    list.len += 1;
}

/// The per-set hot table; see the [module documentation](self).
///
/// Entries are kept in recency order, queue front = most recently used.
#[derive(Debug, Clone)]
pub struct HotTable {
    nodes: Vec<Node>,
    /// Recycled arena indices.
    free: Vec<u16>,
    hbm: List,
    dram: List,
    hbm_cap: usize,
    dram_cap: usize,
    /// PLE → arena index of its HBM-queue node, or `NIL`.
    hbm_slot: Vec<u16>,
    /// PLE → arena index of its DRAM-queue node, or `NIL`.
    dram_slot: Vec<u16>,
    /// Smallest counter among HBM entries (0 when the queue is empty)…
    hbm_min: u32,
    /// …and how many HBM entries carry exactly that counter.
    hbm_min_count: usize,
}

impl HotTable {
    /// Creates a table tracking up to `hbm_cap` HBM pages (= the set's
    /// HBM frames) and `dram_cap` recent off-chip pages. The slot map
    /// grows lazily with the largest PLE seen; use
    /// [`with_slots`](Self::with_slots) to pre-size it.
    pub fn new(hbm_cap: usize, dram_cap: usize) -> HotTable {
        Self::with_slots(hbm_cap, dram_cap, 0)
    }

    /// As [`new`](Self::new), but pre-sizes the PLE slot map for PLEs in
    /// `0..slots` so steady-state operation never allocates.
    pub fn with_slots(hbm_cap: usize, dram_cap: usize, slots: usize) -> HotTable {
        HotTable {
            nodes: Vec::with_capacity(hbm_cap + dram_cap + 2),
            free: Vec::with_capacity(hbm_cap + dram_cap + 2),
            hbm: List::EMPTY,
            dram: List::EMPTY,
            hbm_cap,
            dram_cap,
            hbm_slot: vec![NIL; slots],
            dram_slot: vec![NIL; slots],
            hbm_min: 0,
            hbm_min_count: 0,
        }
    }

    /// Grows the slot maps to cover `ple` (no-op once warmed up).
    fn ensure_ple(&mut self, ple: u16) {
        let need = ple as usize + 1;
        if self.hbm_slot.len() < need {
            self.hbm_slot.resize(need, NIL);
            self.dram_slot.resize(need, NIL);
        }
    }

    fn alloc(&mut self, entry: HotEntry) -> u16 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize].entry = entry;
            i
        } else {
            let i = self.nodes.len();
            assert!(i < NIL as usize, "hot-table arena overflow"); // arena capacity is sized at construction; overflow means metadata corruption, fail fast
            self.nodes.push(Node { entry, prev: NIL, next: NIL });
            i as u16
        }
    }

    /// Rescans the HBM queue for the minimum counter (rare: only when the
    /// last minimal entry left; the queue holds at most `hbm_cap` nodes).
    fn recompute_hbm_min(&mut self) {
        self.hbm_min = u32::MAX;
        self.hbm_min_count = 0;
        let mut cur = self.hbm.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            match n.entry.counter.cmp(&self.hbm_min) {
                std::cmp::Ordering::Less => {
                    self.hbm_min = n.entry.counter;
                    self.hbm_min_count = 1;
                }
                std::cmp::Ordering::Equal => self.hbm_min_count += 1,
                std::cmp::Ordering::Greater => {}
            }
            cur = n.next;
        }
        if self.hbm.len == 0 {
            self.hbm_min = 0;
        }
    }

    /// Min-tracking hook: an entry with counter `c` joined the HBM queue.
    fn note_hbm_insert(&mut self, c: u32) {
        if self.hbm.len == 1 || c < self.hbm_min {
            self.hbm_min = c;
            self.hbm_min_count = 1;
        } else if c == self.hbm_min {
            self.hbm_min_count += 1;
        }
    }

    /// Min-tracking hook: an entry that had counter `c` left the HBM queue
    /// (call after unlinking).
    fn note_hbm_remove(&mut self, c: u32) {
        if self.hbm.len == 0 {
            self.hbm_min = 0;
            self.hbm_min_count = 0;
        } else if c == self.hbm_min {
            self.hbm_min_count -= 1;
            if self.hbm_min_count == 0 {
                self.recompute_hbm_min();
            }
        }
    }

    /// Min-tracking hook: an HBM entry's counter rose from `old` (call
    /// after the node holds the new counter). A counter can only grow, so
    /// the minimum needs attention only when the last `old == min` entry
    /// moved up.
    fn note_hbm_increment(&mut self, old: u32) {
        if old == self.hbm_min {
            self.hbm_min_count -= 1;
            if self.hbm_min_count == 0 {
                self.recompute_hbm_min();
            }
        }
    }

    /// Unlinks and frees the DRAM-queue LRU node, returning its entry.
    fn pop_dram_lru(&mut self) -> Option<HotEntry> {
        let idx = self.dram.tail;
        if idx == NIL {
            return None;
        }
        unlink(&mut self.nodes, &mut self.dram, idx);
        let entry = self.nodes[idx as usize].entry;
        self.dram_slot[entry.ple as usize] = NIL;
        self.free.push(idx);
        Some(entry)
    }

    /// Unlinks and frees `ple`'s HBM node if present, with min upkeep.
    fn take_hbm(&mut self, ple: u16) -> Option<HotEntry> {
        let idx = *self.hbm_slot.get(ple as usize)?;
        if idx == NIL {
            return None;
        }
        unlink(&mut self.nodes, &mut self.hbm, idx);
        let entry = self.nodes[idx as usize].entry;
        self.hbm_slot[ple as usize] = NIL;
        self.free.push(idx);
        self.note_hbm_remove(entry.counter);
        Some(entry)
    }

    /// Unlinks and frees `ple`'s DRAM node if present.
    fn take_dram(&mut self, ple: u16) -> Option<HotEntry> {
        let idx = *self.dram_slot.get(ple as usize)?;
        if idx == NIL {
            return None;
        }
        unlink(&mut self.nodes, &mut self.dram, idx);
        let entry = self.nodes[idx as usize].entry;
        self.dram_slot[ple as usize] = NIL;
        self.free.push(idx);
        Some(entry)
    }

    /// Records an access to off-chip page `ple`, inserting it at the MRU
    /// position; returns its updated counter. Re-reference counting: a
    /// touch while already at MRU does not increment (see [`HotEntry`]).
    /// A pre-existing entry keeps its counter; the LRU entry is silently
    /// dropped when the queue overflows.
    pub fn touch_dram(&mut self, ple: u16) -> u32 {
        self.ensure_ple(ple);
        let idx = self.dram_slot[ple as usize];
        if idx != NIL {
            if self.dram.head != idx {
                unlink(&mut self.nodes, &mut self.dram, idx);
                let n = &mut self.nodes[idx as usize];
                n.entry.counter = n.entry.counter.saturating_add(1);
                link_front(&mut self.nodes, &mut self.dram, idx);
            }
            self.nodes[idx as usize].entry.counter
        } else {
            if self.dram.len == self.dram_cap {
                self.pop_dram_lru();
            }
            let i = self.alloc(HotEntry { ple, counter: 1 });
            link_front(&mut self.nodes, &mut self.dram, i);
            self.dram_slot[ple as usize] = i;
            1
        }
    }

    /// Records an access to HBM-resident page `ple`; returns its updated
    /// counter (re-reference counting, as for
    /// [`touch_dram`](Self::touch_dram)). Inserts the page if it is
    /// somehow untracked.
    pub fn touch_hbm(&mut self, ple: u16) -> u32 {
        self.ensure_ple(ple);
        let idx = self.hbm_slot[ple as usize];
        if idx != NIL {
            if self.hbm.head != idx {
                unlink(&mut self.nodes, &mut self.hbm, idx);
                let old = self.nodes[idx as usize].entry.counter;
                self.nodes[idx as usize].entry.counter = old.saturating_add(1);
                link_front(&mut self.nodes, &mut self.hbm, idx);
                self.note_hbm_increment(old);
            }
            self.nodes[idx as usize].entry.counter
        } else {
            let i = self.alloc(HotEntry { ple, counter: 1 });
            link_front(&mut self.nodes, &mut self.hbm, i);
            self.hbm_slot[ple as usize] = i;
            self.note_hbm_insert(1);
            1
        }
    }

    /// Moves `ple` from the DRAM queue (if present) into the HBM queue,
    /// carrying its counter — used when a page is cached or migrated into
    /// HBM. Returns the LRU HBM entry popped out if the HBM queue was full;
    /// per the paper that popped page must be evicted from HBM.
    pub fn promote(&mut self, ple: u16) -> Option<HotEntry> {
        self.ensure_ple(ple);
        self.take_hbm(ple); // defensive: a promoted page is never HBM-tracked
        let counter = self.take_dram(ple).map_or(1, |e| e.counter);
        let popped = if self.hbm.len == self.hbm_cap { self.pop_lru_hbm() } else { None };
        let i = self.alloc(HotEntry { ple, counter });
        link_front(&mut self.nodes, &mut self.hbm, i);
        self.hbm_slot[ple as usize] = i;
        self.note_hbm_insert(counter);
        popped
    }

    /// Removes `ple` from the HBM queue and pushes it onto the DRAM queue
    /// front (the paper's "popped-out HBM page entries are pushed back into
    /// the off-chip DRAM queue"). No-op if absent.
    pub fn demote(&mut self, ple: u16) {
        if let Some(e) = self.take_hbm(ple) {
            self.take_dram(ple); // defensive: never tracked in both queues
            if self.dram.len == self.dram_cap {
                self.pop_dram_lru();
            }
            let i = self.alloc(e);
            link_front(&mut self.nodes, &mut self.dram, i);
            self.dram_slot[ple as usize] = i;
        }
    }

    /// Re-inserts an entry at the MRU position of the HBM queue (used when
    /// a popped mHBM page takes the buffered cHBM second chance and thus
    /// stays resident in HBM).
    pub fn push_hbm_front(&mut self, entry: HotEntry) {
        self.ensure_ple(entry.ple);
        self.take_hbm(entry.ple);
        if self.hbm.len == self.hbm_cap {
            self.pop_lru_hbm();
        }
        let i = self.alloc(entry);
        link_front(&mut self.nodes, &mut self.hbm, i);
        self.hbm_slot[entry.ple as usize] = i;
        self.note_hbm_insert(entry.counter);
    }

    /// Re-inserts an entry at the LRU end of the HBM queue (restoring an
    /// entry that was popped but could not be processed).
    pub fn push_lru_hbm(&mut self, entry: HotEntry) {
        self.ensure_ple(entry.ple);
        self.take_hbm(entry.ple);
        if self.hbm.len < self.hbm_cap {
            let i = self.alloc(entry);
            link_back(&mut self.nodes, &mut self.hbm, i);
            self.hbm_slot[entry.ple as usize] = i;
            self.note_hbm_insert(entry.counter);
        }
    }

    /// Pushes an entry (typically one popped from the HBM queue) onto the
    /// DRAM queue front, dropping the DRAM LRU entry if full.
    pub fn push_dram_front(&mut self, entry: HotEntry) {
        self.ensure_ple(entry.ple);
        self.take_dram(entry.ple);
        if self.dram.len == self.dram_cap {
            self.pop_dram_lru();
        }
        let i = self.alloc(entry);
        link_front(&mut self.nodes, &mut self.dram, i);
        self.dram_slot[entry.ple as usize] = i;
    }

    /// Removes `ple` from both queues (page freed / swapped out).
    pub fn remove(&mut self, ple: u16) {
        self.take_hbm(ple);
        self.take_dram(ple);
    }

    /// The hotness counter of `ple` in the DRAM queue (0 if untracked).
    pub fn dram_hotness(&self, ple: u16) -> u32 {
        match self.dram_slot.get(ple as usize) {
            Some(&idx) if idx != NIL => self.nodes[idx as usize].entry.counter,
            _ => 0,
        }
    }

    /// The hotness counter of `ple` in the HBM queue (0 if untracked).
    pub fn hbm_hotness(&self, ple: u16) -> u32 {
        match self.hbm_slot.get(ple as usize) {
            Some(&idx) if idx != NIL => self.nodes[idx as usize].entry.counter,
            _ => 0,
        }
    }

    /// Whether `ple` is tracked in the HBM queue.
    pub fn in_hbm(&self, ple: u16) -> bool {
        matches!(self.hbm_slot.get(ple as usize), Some(&idx) if idx != NIL)
    }

    /// The paper's threshold `T`: the smallest counter among HBM entries
    /// (0 when the queue is empty). O(1): tracked incrementally.
    pub fn threshold(&self) -> u32 {
        self.hbm_min
    }

    /// The LRU HBM entry (the next pop-out candidate), if any.
    pub fn lru_hbm(&self) -> Option<HotEntry> {
        if self.hbm.tail == NIL {
            None
        } else {
            Some(self.nodes[self.hbm.tail as usize].entry)
        }
    }

    /// Pops the LRU HBM entry.
    pub fn pop_lru_hbm(&mut self) -> Option<HotEntry> {
        let idx = self.hbm.tail;
        if idx == NIL {
            return None;
        }
        unlink(&mut self.nodes, &mut self.hbm, idx);
        let entry = self.nodes[idx as usize].entry;
        self.hbm_slot[entry.ple as usize] = NIL;
        self.free.push(idx);
        self.note_hbm_remove(entry.counter);
        Some(entry)
    }

    /// Number of HBM entries.
    pub fn hbm_len(&self) -> usize {
        self.hbm.len
    }

    /// Number of DRAM entries.
    pub fn dram_len(&self) -> usize {
        self.dram.len
    }

    /// Iterates the HBM-queue entries, MRU first.
    pub fn iter_hbm(&self) -> impl Iterator<Item = &HotEntry> {
        ListIter { table: self, cur: self.hbm.head }
    }

    /// Iterates the DRAM-queue entries, MRU first.
    pub fn iter_dram(&self) -> impl Iterator<Item = &HotEntry> {
        ListIter { table: self, cur: self.dram.head }
    }

    /// The hottest (highest-counter) DRAM entry, if any — used by the
    /// all-memory-used swap rule. Counter ties resolve to the least
    /// recently used entry (matching the original `max_by_key` over a
    /// MRU-first queue, which kept the last maximum).
    pub fn hottest_dram(&self) -> Option<HotEntry> {
        let mut best: Option<HotEntry> = None;
        let mut cur = self.dram.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if best.is_none_or(|b| n.entry.counter >= b.counter) {
                best = Some(n.entry);
            }
            cur = n.next;
        }
        best
    }
}

/// Invariant validation, swept by [`BumblebeeController`](crate::BumblebeeController)
/// every 4096 accesses in debug builds.
impl HotTable {
    /// Verifies the table's structural invariants: both intrusive lists are
    /// acyclic with consistent back-links and accurate lengths, every arena
    /// node is on exactly one list or the free list, the PLE slot maps
    /// mirror list membership exactly, queue lengths respect their
    /// capacities, and the incremental `(min, multiplicity)` threshold
    /// tracking agrees with a full rescan.
    pub fn validate(&self) -> Result<(), String> {
        // 0 = unlinked, 1 = HBM list, 2 = DRAM list.
        let mut membership = vec![0u8; self.nodes.len()];
        for (list, name, tag) in [(&self.hbm, "HBM", 1u8), (&self.dram, "DRAM", 2u8)] {
            let mut cur = list.head;
            let mut prev = NIL;
            let mut count = 0usize;
            while cur != NIL {
                let Some(node) = self.nodes.get(usize::from(cur)) else {
                    return Err(format!("{name} list links to node {cur} beyond the arena"));
                };
                if node.prev != prev {
                    return Err(format!("{name} node {cur}: prev-link broken"));
                }
                if membership[usize::from(cur)] != 0 {
                    return Err(format!("node {cur} linked more than once"));
                }
                membership[usize::from(cur)] = tag;
                count += 1;
                if count > self.nodes.len() {
                    return Err(format!("{name} list cycles"));
                }
                prev = cur;
                cur = node.next;
            }
            if list.tail != prev {
                return Err(format!("{name} tail is {} but the walk ended at {prev}", list.tail));
            }
            if list.len != count {
                return Err(format!("{name} len {} but the walk found {count} nodes", list.len));
            }
        }
        if self.hbm.len > self.hbm_cap {
            return Err(format!("HBM queue holds {} > cap {}", self.hbm.len, self.hbm_cap));
        }
        if self.dram.len > self.dram_cap {
            return Err(format!("DRAM queue holds {} > cap {}", self.dram.len, self.dram_cap));
        }
        // Arena population: linked + free = allocated, with no overlap.
        let mut freed = vec![false; self.nodes.len()];
        for &i in &self.free {
            let Some(slot) = freed.get_mut(usize::from(i)) else {
                return Err(format!("free list holds node {i} beyond the arena"));
            };
            if membership[usize::from(i)] != 0 {
                return Err(format!("node {i} is both linked and on the free list"));
            }
            if *slot {
                return Err(format!("node {i} is on the free list twice"));
            }
            *slot = true;
        }
        if self.free.len() + self.hbm.len + self.dram.len != self.nodes.len() {
            return Err(format!(
                "arena population mismatch: {} free + {} HBM + {} DRAM != {} nodes",
                self.free.len(),
                self.hbm.len,
                self.dram.len,
                self.nodes.len()
            ));
        }
        // Slot maps mirror list membership exactly (both directions, by
        // counting: every non-NIL map entry hits a matching node of the
        // right list, and entry counts equal list lengths).
        for (maps, name, tag, len) in [
            (&self.hbm_slot, "HBM", 1u8, self.hbm.len),
            (&self.dram_slot, "DRAM", 2u8, self.dram.len),
        ] {
            let mut mapped = 0usize;
            for (ple, &idx) in maps.iter().enumerate() {
                if idx == NIL {
                    continue;
                }
                mapped += 1;
                if membership.get(usize::from(idx)) != Some(&tag) {
                    return Err(format!("{name} slot map: PLE {ple} points at node {idx} not on the {name} list"));
                }
                let got = self.nodes[usize::from(idx)].entry.ple;
                if usize::from(got) != ple {
                    return Err(format!("{name} slot map: PLE {ple} points at a node for PLE {got}"));
                }
            }
            if mapped != len {
                return Err(format!("{name} slot map names {mapped} nodes but the list holds {len}"));
            }
        }
        // Incremental threshold tracking vs a full rescan.
        let (mut min, mut mult) = (u32::MAX, 0usize);
        for e in self.iter_hbm() {
            match e.counter.cmp(&min) {
                std::cmp::Ordering::Less => (min, mult) = (e.counter, 1),
                std::cmp::Ordering::Equal => mult += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
        if self.hbm.len == 0 {
            (min, mult) = (0, 0);
        }
        if (self.hbm_min, self.hbm_min_count) != (min, mult) {
            return Err(format!(
                "threshold tracking says (min {}, x{}) but the queue holds (min {min}, x{mult})",
                self.hbm_min, self.hbm_min_count
            ));
        }
        Ok(())
    }
}

struct ListIter<'a> {
    table: &'a HotTable,
    cur: u16,
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a HotEntry;

    fn next(&mut self) -> Option<&'a HotEntry> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.table.nodes[self.cur as usize];
        self.cur = n.next;
        Some(&n.entry)
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
    fn hottest_dram_picks_max_counter() {
        let mut t = HotTable::new(2, 4);
        t.touch_dram(2);
        t.touch_dram(1);
        t.touch_dram(2);
        t.touch_dram(1);
        t.touch_dram(2); // page 2 re-referenced twice: counter 3
        t.touch_dram(3);
        assert_eq!(t.hottest_dram().unwrap().ple, 2);
    }

    #[test]
    fn counters_saturate() {
        // Direct saturation check via many touches is too slow; emulate:
        let mut e = HotEntry { ple: 0, counter: u32::MAX };
        e.counter = e.counter.saturating_add(1);
        assert_eq!(e.counter, u32::MAX);
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
        assert_eq!(t.threshold(), 2, "min rescanned after last minimal entry left");
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
    fn hottest_dram_tie_breaks_toward_lru() {
        let mut t = HotTable::new(2, 4);
        t.push_dram_front(HotEntry { ple: 1, counter: 5 });
        t.push_dram_front(HotEntry { ple: 2, counter: 5 });
        // Both carry counter 5; the LRU-most (ple 1) wins the tie.
        assert_eq!(t.hottest_dram().unwrap().ple, 1);
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
        // Broken back-link.
        let mut t = HotTable::new(4, 4);
        t.promote(1);
        t.promote(2);
        let head = t.hbm.head;
        t.nodes[usize::from(head)].prev = head;
        assert!(t.validate().unwrap_err().contains("prev-link"));

        // Stale slot map entry.
        let mut t = HotTable::new(4, 4);
        t.touch_dram(3);
        t.dram_slot[3] = NIL;
        assert!(t.validate().unwrap_err().contains("slot map"));

        // Length drift.
        let mut t = HotTable::new(4, 4);
        t.promote(1);
        t.hbm.len = 2;
        assert!(t.validate().unwrap_err().contains("the walk found"));

        // Threshold tracking drift.
        let mut t = HotTable::new(4, 4);
        t.promote(1);
        t.hbm_min = 7;
        assert!(t.validate().unwrap_err().contains("threshold tracking"));
    }
}
