//! A stable 64-bit hash for digesting simulator output.
//!
//! [`std::hash::Hash`] is unsuitable for digests that are compared
//! across runs and builds, because its output is not guaranteed stable
//! across Rust releases or processes; [`Fnv64`] is a fixed algorithm
//! whose digests stay valid as long as the hashed bytes do.

/// A 64-bit FNV-1a hasher with a stable, process-independent digest.
///
/// # Examples
///
/// ```
/// use event_sim::hash::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_bytes(b"hello");
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write_bytes(b"hello");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (so `"ab" + "c"` differs from
    /// `"a" + "bc"`). The length is widened to `u64` so 32- and 64-bit
    /// hosts agree.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far (the hasher remains usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_pins_the_algorithm() {
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn string_prefixing_avoids_concatenation_collisions() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
