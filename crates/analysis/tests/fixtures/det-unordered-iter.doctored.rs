//! Doctored: iterating a hash map leaks hash order downstream — even a
//! deterministic hasher yields an order that is fragile under insertions.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Deterministic hasher: no RandomState, but no fixed iteration order either.
pub type Det = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Sums all keys — in whatever order the buckets yield them.
pub fn key_sum(m: &HashMap<u64, u64, Det>) -> u64 {
    m.keys().sum() //~ det-unordered-iter
}
