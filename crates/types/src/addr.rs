//! Strongly-typed addresses and indices.
//!
//! The simulator works on a *flat physical address space*: off-chip DRAM
//! occupies `[0, dram_bytes)` and die-stacked HBM occupies
//! `[dram_bytes, dram_bytes + hbm_bytes)`. OS-visible capacity depends on the
//! design (cache-only designs expose just the off-chip range; POM and hybrid
//! designs expose both).

use std::fmt;

/// A byte address in the flat physical address space.
///
/// ```
/// use memsim_types::Addr;
/// let a = Addr(0x1000);
/// assert_eq!(a.0 + 0x40, Addr(0x1040).0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Aligns the address down to a multiple of `align` (a power of two).
    ///
    /// # Panics
    ///
    /// Debug-panics if `align` is not a power of two.
    #[inline]
    pub fn align_down(self, align: u64) -> Addr {
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        Addr(self.0 & !(align - 1))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A global page number: `addr / page_bytes` in the flat physical space.
///
/// Page indices below the off-chip page count denote off-chip DRAM pages;
/// those at or above it denote HBM pages (see
/// [`Geometry`](crate::geometry::Geometry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageIndex(pub u64);

impl fmt::Display for PageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A block number *within a page*: `offset_in_page / block_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockIndex(pub u32);

impl fmt::Display for BlockIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_down_masks_low_bits() {
        assert_eq!(Addr(0x12345).align_down(0x1000), Addr(0x12000));
        assert_eq!(Addr(0x12000).align_down(0x1000), Addr(0x12000));
        assert_eq!(Addr(0).align_down(64), Addr(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(0x40).to_string(), "0x40");
        assert_eq!(PageIndex(7).to_string(), "page#7");
        assert_eq!(BlockIndex(3).to_string(), "block#3");
        assert_eq!(format!("{:x}", Addr(255)), "ff");
    }

    #[test]
    fn conversions_round_trip() {
        let a: Addr = 42u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 42);
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(Addr(1) < Addr(2));
        assert!(PageIndex(9) > PageIndex(3));
    }
}
