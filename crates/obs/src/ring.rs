//! The bounded ring buffer that holds the event trace and the sampled
//! latency records.

/// A bounded ring: the newest `capacity` items are kept, older ones are
/// dropped (and counted), so tracing a long run costs fixed memory.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl<T> Ring<T> {
    /// A ring keeping the newest `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        Ring { buf: Vec::with_capacity(capacity), head: 0, dropped: 0, capacity }
    }

    /// Appends an item, evicting (and counting) the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Items currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Items held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Items dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<T> {
        let mut v = self.buf;
        v.rotate_left(self.head);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = Ring::new(3);
        for s in 0..5u64 {
            r.push(s);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_keeps_all() {
        let mut r = Ring::new(8);
        r.push(1u64);
        r.push(2);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().count(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = Ring::new(0);
        r.push(1u64);
        r.push(2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next(), Some(&2));
    }
}
