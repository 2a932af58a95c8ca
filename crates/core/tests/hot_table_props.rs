//! Differential property test for the hot table.
//!
//! Drives [`HotTable`] and a deliberately naive `Vec`-based reference model
//! through the same random operation sequences, at every queue capacity the
//! figures sweep (up to 16 HBM frames and 32 off-chip entries), and asserts
//! the observable state — queue order, counters, threshold, pop-out
//! candidate and every per-operation return value — is identical at each
//! step.

use bumblebee_core::{HotEntry, HotTable};
use proptest::prelude::*;

/// Naive reference model: two MRU-first `Vec` queues, recomputing every
/// derived quantity by scanning.
#[derive(Debug, Clone, Default)]
struct Naive {
    hbm: Vec<HotEntry>,
    dram: Vec<HotEntry>,
    hbm_cap: usize,
    dram_cap: usize,
}

impl Naive {
    fn new(hbm_cap: usize, dram_cap: usize) -> Naive {
        Naive { hbm_cap, dram_cap, ..Naive::default() }
    }

    fn take(queue: &mut Vec<HotEntry>, ple: u16) -> Option<HotEntry> {
        let pos = queue.iter().position(|e| e.ple == ple)?;
        Some(queue.remove(pos))
    }

    fn touch_dram(&mut self, ple: u16) -> u32 {
        if let Some(pos) = self.dram.iter().position(|e| e.ple == ple) {
            if pos != 0 {
                let mut e = self.dram.remove(pos);
                e.counter = e.counter.saturating_add(1);
                self.dram.insert(0, e);
            }
            self.dram[0].counter
        } else {
            if self.dram.len() == self.dram_cap {
                self.dram.pop();
            }
            self.dram.insert(0, HotEntry { ple, counter: 1 });
            1
        }
    }

    fn touch_hbm(&mut self, ple: u16) -> u32 {
        if let Some(pos) = self.hbm.iter().position(|e| e.ple == ple) {
            if pos != 0 {
                let mut e = self.hbm.remove(pos);
                e.counter = e.counter.saturating_add(1);
                self.hbm.insert(0, e);
            }
            self.hbm[0].counter
        } else {
            // Untracked HBM pages are inserted unconditionally.
            self.hbm.insert(0, HotEntry { ple, counter: 1 });
            1
        }
    }

    fn promote(&mut self, ple: u16) -> Option<HotEntry> {
        Naive::take(&mut self.hbm, ple);
        let counter = Naive::take(&mut self.dram, ple).map_or(1, |e| e.counter);
        let popped = if self.hbm.len() == self.hbm_cap { self.hbm.pop() } else { None };
        self.hbm.insert(0, HotEntry { ple, counter });
        popped
    }

    fn demote(&mut self, ple: u16) {
        if let Some(e) = Naive::take(&mut self.hbm, ple) {
            Naive::take(&mut self.dram, ple);
            if self.dram.len() == self.dram_cap {
                self.dram.pop();
            }
            self.dram.insert(0, e);
        }
    }

    fn push_hbm_front(&mut self, entry: HotEntry) {
        Naive::take(&mut self.hbm, entry.ple);
        if self.hbm.len() == self.hbm_cap {
            self.hbm.pop();
        }
        self.hbm.insert(0, entry);
    }

    fn push_lru_hbm(&mut self, entry: HotEntry) {
        Naive::take(&mut self.hbm, entry.ple);
        if self.hbm.len() < self.hbm_cap {
            self.hbm.push(entry);
        }
    }

    fn push_dram_front(&mut self, entry: HotEntry) {
        Naive::take(&mut self.dram, entry.ple);
        if self.dram.len() == self.dram_cap {
            self.dram.pop();
        }
        self.dram.insert(0, entry);
    }

    fn remove(&mut self, ple: u16) {
        Naive::take(&mut self.hbm, ple);
        Naive::take(&mut self.dram, ple);
    }

    fn pop_lru_hbm(&mut self) -> Option<HotEntry> {
        self.hbm.pop()
    }

    fn threshold(&self) -> u32 {
        self.hbm.iter().map(|e| e.counter).min().unwrap_or(0)
    }
}

/// One random hot-table operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    TouchDram(u16),
    TouchHbm(u16),
    Promote(u16),
    Demote(u16),
    PushHbmFront(HotEntry),
    PushLruHbm(HotEntry),
    PushDramFront(HotEntry),
    Remove(u16),
    PopLruHbm,
}

/// A PLE universe just large enough to fill both queues at their widest
/// (16 + 32 entries) and small enough that collisions (re-touch,
/// promote-of-tracked, demote-of-tracked) are frequent.
const PLES: u16 = 48;

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..9, 0u16..PLES, 0u32..6).prop_map(|(kind, ple, counter)| match kind {
        0 => Op::TouchDram(ple),
        1 => Op::TouchHbm(ple),
        2 => Op::Promote(ple),
        3 => Op::Demote(ple),
        4 => Op::PushHbmFront(HotEntry { ple, counter }),
        5 => Op::PushLruHbm(HotEntry { ple, counter }),
        6 => Op::PushDramFront(HotEntry { ple, counter }),
        7 => Op::Remove(ple),
        _ => Op::PopLruHbm,
    });
    proptest::collection::vec(op, 1..250)
}

fn check_equal(table: &HotTable, naive: &Naive) -> Result<(), TestCaseError> {
    let hbm: Vec<HotEntry> = table.iter_hbm().copied().collect();
    let dram: Vec<HotEntry> = table.iter_dram().copied().collect();
    prop_assert_eq!(&hbm, &naive.hbm, "HBM queue order/counters diverged");
    prop_assert_eq!(&dram, &naive.dram, "DRAM queue order/counters diverged");
    prop_assert_eq!(table.hbm_len(), naive.hbm.len());
    prop_assert_eq!(table.dram_len(), naive.dram.len());
    prop_assert_eq!(table.threshold(), naive.threshold(), "threshold T diverged");
    prop_assert_eq!(table.lru_hbm(), naive.hbm.last().copied());
    for ple in 0..PLES {
        let n_hbm = naive.hbm.iter().find(|e| e.ple == ple);
        let n_dram = naive.dram.iter().find(|e| e.ple == ple);
        prop_assert_eq!(table.in_hbm(ple), n_hbm.is_some());
        prop_assert_eq!(table.hbm_hotness(ple), n_hbm.map_or(0, |e| e.counter));
        prop_assert_eq!(table.dram_hotness(ple), n_dram.map_or(0, |e| e.counter));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_matches_naive_model(
        hbm_cap in 1usize..17,
        dram_cap in 1usize..33,
        ops in ops(),
    ) {
        let mut table = HotTable::new(hbm_cap, dram_cap);
        let mut naive = Naive::new(hbm_cap, dram_cap);
        for op in ops {
            match op {
                Op::TouchDram(p) => {
                    prop_assert_eq!(table.touch_dram(p), naive.touch_dram(p));
                }
                Op::TouchHbm(p) => {
                    prop_assert_eq!(table.touch_hbm(p), naive.touch_hbm(p));
                }
                Op::Promote(p) => {
                    prop_assert_eq!(table.promote(p), naive.promote(p));
                }
                Op::Demote(p) => {
                    table.demote(p);
                    naive.demote(p);
                }
                Op::PushHbmFront(e) => {
                    table.push_hbm_front(e);
                    naive.push_hbm_front(e);
                }
                Op::PushLruHbm(e) => {
                    table.push_lru_hbm(e);
                    naive.push_lru_hbm(e);
                }
                Op::PushDramFront(e) => {
                    table.push_dram_front(e);
                    naive.push_dram_front(e);
                }
                Op::Remove(p) => {
                    table.remove(p);
                    naive.remove(p);
                }
                Op::PopLruHbm => {
                    prop_assert_eq!(table.pop_lru_hbm(), naive.pop_lru_hbm());
                }
            }
            check_equal(&table, &naive)?;
        }
    }
}
