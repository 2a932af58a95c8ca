//! Hybrid-memory geometry and all derived index math.
//!
//! A [`Geometry`] describes the physical organization the paper's §III-B
//! assumes:
//!
//! * off-chip DRAM of `dram_bytes`, divided into pages of `page_bytes`;
//! * die-stacked HBM of `hbm_bytes`, divided into the same page size;
//! * pages are grouped into *remapping sets*: each set holds `m` off-chip
//!   page slots and `n = hbm_ways` HBM page frames, and an off-chip page may
//!   only be cached or migrated to an HBM frame of its own set;
//! * pages are split into blocks of `block_bytes` (the cHBM fetch
//!   granularity).
//!
//! Pages are interleaved across sets (`set = index % num_sets`), matching the
//! uniform-utilization argument of the paper. Page sizes need not be powers
//! of two (the paper's design-space exploration includes 96 KB pages): each
//! divisor caches a shift amount at build time, so the per-access index math
//! runs as shift/mask in the power-of-two common case and falls back to real
//! division otherwise — identical results either way. HBM pages that do not
//! fill a complete set (possible with non-power-of-two page sizes) are left
//! unused, exactly as real hardware would waste the tail of the stack.

use crate::addr::{Addr, BlockIndex, PageIndex};
use crate::error::GeometryError;
use crate::fastdiv::QuickDiv;

/// Where a page slot lives inside a remapping set.
///
/// Slots `0..m` are off-chip DRAM pages, slots `m..m+n` are HBM frames; the
/// PLE ("page location entry") of the paper is exactly this slot number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSlot {
    /// An off-chip DRAM page slot (0-based among the set's DRAM slots).
    OffChip(u32),
    /// An HBM frame slot (0-based among the set's `n` HBM frames).
    Hbm(u32),
}

/// The hybrid-memory geometry; see the [module documentation](self).
///
/// Construct via [`Geometry::builder`]; all invariants are validated once at
/// build time so the hot-path index math can stay branch-light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    block_bytes: u64,
    page_bytes: u64,
    hbm_bytes: u64,
    dram_bytes: u64,
    hbm_ways: u32,
    // Derived.
    blocks_per_page: u32,
    dram_pages: u64,
    usable_hbm_pages: u64,
    num_sets: u64,
    // Derived hot-path caches (deterministic functions of the fields
    // above, so the derived `PartialEq` stays meaningful). The QuickDiv
    // fields strength-reduce the per-access div/mod to shift/mask when
    // the divisor is a power of two — the common case — and fall back to
    // real division otherwise (non-power-of-two page sizes are allowed).
    flat_bytes: u64,
    m_base: u64,
    m_rem: u64,
    page_div: QuickDiv,
    block_div: QuickDiv,
    set_div: QuickDiv,
}

impl Geometry {
    /// Starts building a geometry.
    pub fn builder() -> GeometryBuilder {
        GeometryBuilder::default()
    }

    /// The paper's evaluated configuration (Table I + §IV-B best point),
    /// scaled by `1/scale` in every capacity: 2 KB blocks, 64 KB pages,
    /// 1 GB HBM, 10 GB off-chip DRAM, 8-way remapping sets.
    ///
    /// `scale = 1` is paper scale; the experiment binaries default to
    /// `scale = 16` which keeps every capacity *ratio* intact.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or does not divide the capacities into a
    /// valid geometry (powers of two up to 1024 are always valid).
    pub fn paper(scale: u64) -> Geometry {
        assert!(scale > 0, "scale must be positive");
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes((1 << 30) / scale)
            .dram_bytes((10 << 30) / scale)
            .hbm_ways(8)
            .build()
            .expect("paper geometry must be valid at this scale")
    }

    /// Block size in bytes (cHBM fetch granularity).
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Page size in bytes (mHBM migration granularity).
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Die-stacked HBM capacity in bytes.
    #[inline]
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_bytes
    }

    /// Off-chip DRAM capacity in bytes.
    #[inline]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// HBM frames per remapping set (the paper's `n`).
    #[inline]
    pub fn hbm_ways(&self) -> u32 {
        self.hbm_ways
    }

    /// Number of blocks in one page.
    #[inline]
    pub fn blocks_per_page(&self) -> u32 {
        self.blocks_per_page
    }

    /// Total off-chip DRAM pages.
    #[inline]
    pub fn dram_pages(&self) -> u64 {
        self.dram_pages
    }

    /// HBM pages actually usable (complete sets only).
    #[inline]
    pub fn hbm_pages(&self) -> u64 {
        self.usable_hbm_pages
    }

    /// Number of remapping sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Off-chip DRAM slots in remapping set `set` (the paper's `m`; may vary
    /// by one across sets when `dram_pages % num_sets != 0`).
    #[inline]
    pub fn dram_slots_in_set(&self, set: u64) -> u32 {
        debug_assert!(set < self.num_sets);
        (self.m_base + u64::from(set < self.m_rem)) as u32
    }

    /// The largest `m` over all sets.
    #[inline]
    pub fn max_dram_slots(&self) -> u32 {
        (self.m_base + u64::from(self.m_rem != 0)) as u32
    }

    /// Total slots (`m + n`) in remapping set `set`.
    #[inline]
    pub fn slots_in_set(&self, set: u64) -> u32 {
        self.dram_slots_in_set(set) + self.hbm_ways
    }

    /// Bits needed to store one PLE (`⌈log2(m + n)⌉`, paper §III-B).
    pub fn ple_bits(&self) -> u32 {
        let max_slots = self.max_dram_slots() + self.hbm_ways;
        (max_slots.max(2)).next_power_of_two().trailing_zeros()
    }

    /// Global page index of `addr`.
    ///
    /// Off-chip addresses (below `dram_bytes`) map to pages
    /// `[0, dram_pages)`; HBM addresses map to `[dram_pages, ..)`.
    #[inline]
    pub fn page_of(&self, addr: Addr) -> PageIndex {
        PageIndex(self.page_div.div(addr.0))
    }

    /// Block index of `addr` within its page.
    #[inline]
    pub fn block_of(&self, addr: Addr) -> BlockIndex {
        let in_page = self.page_div.rem(addr.0);
        BlockIndex(self.block_div.div(in_page) as u32)
    }

    /// 64-byte line index of `addr` within its cHBM block.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> u64 {
        self.block_div.rem(addr.0) / 64
    }

    /// First byte address of `page`.
    #[inline]
    pub fn page_base(&self, page: PageIndex) -> Addr {
        Addr(page.0 * self.page_bytes)
    }

    /// Whether `page` is an HBM page (OS-visible HBM range).
    #[inline]
    pub fn is_hbm_page(&self, page: PageIndex) -> bool {
        page.0 >= self.dram_pages
    }

    /// Whether `addr` falls in the usable flat physical space.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.page_of(addr).0 < self.dram_pages + self.usable_hbm_pages
    }

    /// Total OS-visible bytes when HBM is part of memory (POM / hybrid).
    #[inline]
    pub fn flat_bytes(&self) -> u64 {
        self.flat_bytes
    }

    /// `addr` wrapped into the flat physical space (`addr % flat_bytes`),
    /// with a branch fast path for the common already-in-range case.
    #[inline]
    pub fn wrap_flat(&self, addr: Addr) -> Addr {
        if addr.0 < self.flat_bytes {
            addr
        } else {
            Addr(addr.0 % self.flat_bytes)
        }
    }

    /// Remapping set of `page`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `page` is out of range.
    #[inline]
    pub fn set_of_page(&self, page: PageIndex) -> u64 {
        if self.is_hbm_page(page) {
            let h = page.0 - self.dram_pages;
            debug_assert!(h < self.usable_hbm_pages, "HBM page out of range");
            self.set_div.rem(h)
        } else {
            self.set_div.rem(page.0)
        }
    }

    /// Remapping set of `addr`.
    #[inline]
    pub fn set_of_addr(&self, addr: Addr) -> u64 {
        self.set_of_page(self.page_of(addr))
    }

    /// Slot of `page` within its remapping set (the original PLE).
    #[inline]
    pub fn slot_of_page(&self, page: PageIndex) -> PageSlot {
        if self.is_hbm_page(page) {
            let h = page.0 - self.dram_pages;
            PageSlot::Hbm(self.set_div.div(h) as u32)
        } else {
            PageSlot::OffChip(self.set_div.div(page.0) as u32)
        }
    }

    /// Inverse of [`slot_of_page`](Self::slot_of_page): the global page index
    /// for `slot` of remapping set `set`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the slot is out of range for the set.
    #[inline]
    pub fn page_of_slot(&self, set: u64, slot: PageSlot) -> PageIndex {
        debug_assert!(set < self.num_sets);
        match slot {
            PageSlot::OffChip(i) => {
                debug_assert!(i < self.dram_slots_in_set(set), "off-chip slot out of range");
                PageIndex(u64::from(i) * self.num_sets + set)
            }
            PageSlot::Hbm(i) => {
                debug_assert!(i < self.hbm_ways, "HBM slot out of range");
                PageIndex(self.dram_pages + u64::from(i) * self.num_sets + set)
            }
        }
    }

    /// HBM-device frame number (0-based within the HBM device) for the HBM
    /// frame `way` of remapping set `set`.
    #[inline]
    pub fn hbm_frame(&self, set: u64, way: u32) -> u64 {
        debug_assert!(set < self.num_sets && way < self.hbm_ways);
        u64::from(way) * self.num_sets + set
    }

    /// HBM-device byte address of `block` within HBM frame (`set`, `way`).
    #[inline]
    pub fn hbm_device_addr(&self, set: u64, way: u32, block: BlockIndex) -> Addr {
        Addr(self.hbm_frame(set, way) * self.page_bytes + u64::from(block.0) * self.block_bytes)
    }

    /// Off-chip-device byte address of `block` within off-chip page `page`.
    ///
    /// Off-chip device addresses coincide with flat physical addresses
    /// because off-chip DRAM starts at 0.
    #[inline]
    pub fn dram_device_addr(&self, page: PageIndex, block: BlockIndex) -> Addr {
        debug_assert!(!self.is_hbm_page(page));
        Addr(page.0 * self.page_bytes + u64::from(block.0) * self.block_bytes)
    }
}

/// Builder for [`Geometry`]; see [`Geometry::builder`].
///
/// ```
/// use memsim_types::Geometry;
/// # fn main() -> Result<(), memsim_types::GeometryError> {
/// let g = Geometry::builder()
///     .block_bytes(2048)
///     .page_bytes(65536)
///     .hbm_bytes(1 << 26)
///     .dram_bytes(10 << 26)
///     .hbm_ways(8)
///     .build()?;
/// assert_eq!(g.blocks_per_page(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GeometryBuilder {
    block_bytes: Option<u64>,
    page_bytes: Option<u64>,
    hbm_bytes: Option<u64>,
    dram_bytes: Option<u64>,
    hbm_ways: Option<u32>,
}

impl GeometryBuilder {
    /// Sets the block size in bytes (must divide the page size).
    pub fn block_bytes(mut self, v: u64) -> Self {
        self.block_bytes = Some(v);
        self
    }

    /// Sets the page size in bytes.
    pub fn page_bytes(mut self, v: u64) -> Self {
        self.page_bytes = Some(v);
        self
    }

    /// Sets the HBM capacity in bytes.
    pub fn hbm_bytes(mut self, v: u64) -> Self {
        self.hbm_bytes = Some(v);
        self
    }

    /// Sets the off-chip DRAM capacity in bytes.
    pub fn dram_bytes(mut self, v: u64) -> Self {
        self.dram_bytes = Some(v);
        self
    }

    /// Sets the remapping-set HBM associativity (the paper's `n`).
    pub fn hbm_ways(mut self, v: u32) -> Self {
        self.hbm_ways = Some(v);
        self
    }

    /// Validates and builds the [`Geometry`].
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when a field is missing or zero, the block
    /// size does not divide the page size, the HBM cannot hold a single
    /// complete remapping set, or off-chip DRAM has fewer pages than there
    /// are sets.
    pub fn build(self) -> Result<Geometry, GeometryError> {
        let block_bytes = self.block_bytes.ok_or(GeometryError::Missing("block_bytes"))?;
        let page_bytes = self.page_bytes.ok_or(GeometryError::Missing("page_bytes"))?;
        let hbm_bytes = self.hbm_bytes.ok_or(GeometryError::Missing("hbm_bytes"))?;
        let dram_bytes = self.dram_bytes.ok_or(GeometryError::Missing("dram_bytes"))?;
        let hbm_ways = self.hbm_ways.ok_or(GeometryError::Missing("hbm_ways"))?;
        if block_bytes == 0 || page_bytes == 0 || hbm_bytes == 0 || dram_bytes == 0 {
            return Err(GeometryError::Zero);
        }
        if hbm_ways == 0 {
            return Err(GeometryError::Zero);
        }
        if page_bytes % block_bytes != 0 {
            return Err(GeometryError::BlockPageMismatch { block_bytes, page_bytes });
        }
        let raw_hbm_pages = hbm_bytes / page_bytes;
        let num_sets = raw_hbm_pages / u64::from(hbm_ways);
        if num_sets == 0 {
            return Err(GeometryError::HbmTooSmall { hbm_bytes, page_bytes, hbm_ways });
        }
        let dram_pages = dram_bytes / page_bytes;
        if dram_pages < num_sets {
            return Err(GeometryError::DramTooSmall { dram_pages, num_sets });
        }
        let usable_hbm_pages = num_sets * u64::from(hbm_ways);
        Ok(Geometry {
            block_bytes,
            page_bytes,
            hbm_bytes,
            dram_bytes,
            hbm_ways,
            blocks_per_page: (page_bytes / block_bytes) as u32,
            dram_pages,
            usable_hbm_pages,
            num_sets,
            flat_bytes: dram_bytes + usable_hbm_pages * page_bytes,
            m_base: dram_pages / num_sets,
            m_rem: dram_pages % num_sets,
            page_div: QuickDiv::new(page_bytes),
            block_div: QuickDiv::new(block_bytes),
            set_div: QuickDiv::new(num_sets),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        // 2 KB blocks, 64 KB pages, 4 MB HBM (64 pages, 8 sets), 40 MB DRAM.
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes(4 << 20)
            .dram_bytes(40 << 20)
            .hbm_ways(8)
            .build()
            .unwrap()
    }

    #[test]
    fn derived_counts_match_hand_math() {
        let g = small();
        assert_eq!(g.blocks_per_page(), 32);
        assert_eq!(g.hbm_pages(), 64);
        assert_eq!(g.num_sets(), 8);
        assert_eq!(g.dram_pages(), 640);
        assert_eq!(g.dram_slots_in_set(0), 80);
        assert_eq!(g.slots_in_set(0), 88);
        // ⌈log2(88)⌉ = 7
        assert_eq!(g.ple_bits(), 7);
    }

    #[test]
    fn paper_geometry_matches_section_iv() {
        let g = Geometry::paper(1);
        assert_eq!(g.hbm_pages(), 16384);
        assert_eq!(g.num_sets(), 2048);
        assert_eq!(g.dram_slots_in_set(0), 80);
        assert_eq!(g.ple_bits(), 7);
        // Scaled geometry keeps ratios.
        let s = Geometry::paper(16);
        assert_eq!(s.dram_slots_in_set(0), 80);
        assert_eq!(s.hbm_ways(), 8);
    }

    #[test]
    fn page_and_block_math() {
        let g = small();
        let a = Addr(3 * 65536 + 5 * 2048 + 17);
        assert_eq!(g.page_of(a), PageIndex(3));
        assert_eq!(g.block_of(a), BlockIndex(5));
        assert_eq!(g.page_base(PageIndex(3)), Addr(3 * 65536));
    }

    #[test]
    fn hbm_page_detection() {
        let g = small();
        assert!(!g.is_hbm_page(PageIndex(639)));
        assert!(g.is_hbm_page(PageIndex(640)));
        assert!(g.contains(Addr(g.flat_bytes() - 1)));
        assert!(!g.contains(Addr(g.flat_bytes())));
    }

    #[test]
    fn slot_round_trips_offchip() {
        let g = small();
        for p in [0u64, 1, 7, 8, 9, 100, 639] {
            let page = PageIndex(p);
            let set = g.set_of_page(page);
            let slot = g.slot_of_page(page);
            assert_eq!(g.page_of_slot(set, slot), page, "page {p}");
        }
    }

    #[test]
    fn slot_round_trips_hbm() {
        let g = small();
        for p in 640u64..704 {
            let page = PageIndex(p);
            let set = g.set_of_page(page);
            let slot = g.slot_of_page(page);
            assert!(matches!(slot, PageSlot::Hbm(_)));
            assert_eq!(g.page_of_slot(set, slot), page, "page {p}");
        }
    }

    #[test]
    fn hbm_frames_are_distinct_and_in_range() {
        let g = small();
        let mut seen = std::collections::BTreeSet::new();
        for set in 0..g.num_sets() {
            for way in 0..g.hbm_ways() {
                let f = g.hbm_frame(set, way);
                assert!(f < g.hbm_pages());
                assert!(seen.insert(f), "duplicate frame {f}");
            }
        }
        assert_eq!(seen.len() as u64, g.hbm_pages());
    }

    #[test]
    fn device_addrs_in_range() {
        let g = small();
        let a = g.hbm_device_addr(7, 7, BlockIndex(31));
        assert!(a.0 + g.block_bytes() <= g.hbm_bytes());
        let d = g.dram_device_addr(PageIndex(639), BlockIndex(31));
        assert!(d.0 + g.block_bytes() <= g.dram_bytes());
    }

    #[test]
    fn non_power_of_two_pages_work() {
        // 96 KB pages as in Fig. 6.
        let g = Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(96 << 10)
            .hbm_bytes(64 << 20)
            .dram_bytes(640 << 20)
            .hbm_ways(8)
            .build()
            .unwrap();
        assert_eq!(g.blocks_per_page(), 48);
        // 64 MB / 96 KB = 682.67 → 682 raw pages → 85 sets → 680 usable.
        assert_eq!(g.num_sets(), 85);
        assert_eq!(g.hbm_pages(), 680);
        // DRAM slots may vary by one across sets; totals must match.
        let total: u64 = (0..g.num_sets()).map(|s| u64::from(g.dram_slots_in_set(s))).sum();
        assert_eq!(total, g.dram_pages());
        // Round-trip still holds for every set's extremes.
        for p in [0u64, 84, 85, g.dram_pages() - 1] {
            let page = PageIndex(p);
            assert_eq!(g.page_of_slot(g.set_of_page(page), g.slot_of_page(page)), page);
        }
    }

    #[test]
    fn builder_errors() {
        let base = || {
            Geometry::builder()
                .block_bytes(2048)
                .page_bytes(65536)
                .hbm_bytes(4 << 20)
                .dram_bytes(40 << 20)
                .hbm_ways(8)
        };
        assert!(matches!(
            Geometry::builder().build(),
            Err(GeometryError::Missing("block_bytes"))
        ));
        assert!(matches!(base().block_bytes(0).build(), Err(GeometryError::Zero)));
        assert!(matches!(
            base().block_bytes(3000).build(),
            Err(GeometryError::BlockPageMismatch { .. })
        ));
        assert!(matches!(
            base().hbm_bytes(65536).build(),
            Err(GeometryError::HbmTooSmall { .. })
        ));
        assert!(matches!(
            base().dram_bytes(65536).build(),
            Err(GeometryError::DramTooSmall { .. })
        ));
    }

    #[test]
    fn ple_bits_has_floor_of_one() {
        let g = Geometry::builder()
            .block_bytes(64)
            .page_bytes(64)
            .hbm_bytes(64)
            .dram_bytes(64)
            .hbm_ways(1)
            .build()
            .unwrap();
        assert!(g.ple_bits() >= 1);
    }
}
