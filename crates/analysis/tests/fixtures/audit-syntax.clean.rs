//! Clean: a well-formed audited exception — rule id, `--` separator and a
//! reason the report can carry.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Deterministic hasher: the map is fixed, its bucket order is not.
pub type Det = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Sums all values; addition commutes, so bucket order is never observed.
pub fn total(m: &HashMap<u64, u64, Det>) -> u64 {
    m.values().sum() // audit: allow(det-unordered-iter) -- fixture: a sum is independent of iteration order
}
