//! Doctored: an allow directive with no reason — unauditable, so the
//! directive itself becomes the finding (and suppresses nothing).

/// Picks an arbitrary element.
pub fn any_key(xs: &[u64]) -> Option<u64> {
    xs.first().copied() // audit: allow(det-unordered-iter) //~ audit-syntax
}
