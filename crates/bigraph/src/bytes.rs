//! Fail-closed little-endian reads and the FNV-1a checksum for the
//! durable formats.
//!
//! Every decode in the durable modules (`bigraph::binfmt`,
//! `receipt::wal`, `receipt::version`) must surface a short or torn
//! input as a typed error, never a panic (FORMATS.md §2). These helpers
//! make the fallible read the only ergonomic option: they return `None`
//! on any out-of-range access — including offset overflow — and the
//! caller maps that into its module's corruption error.

/// Copies `N` bytes at `pos`, or `None` if the slice is too short (or
/// `pos + N` overflows).
pub fn array_at<const N: usize>(bytes: &[u8], pos: usize) -> Option<[u8; N]> {
    let chunk = bytes.get(pos..pos.checked_add(N)?)?;
    let mut out = [0u8; N];
    out.copy_from_slice(chunk);
    Some(out)
}

/// Little-endian `u32` at `pos`, or `None` past the end.
pub fn le_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    array_at(bytes, pos).map(u32::from_le_bytes)
}

/// Little-endian `u64` at `pos`, or `None` past the end.
pub fn le_u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    array_at(bytes, pos).map(u64::from_le_bytes)
}

/// Streaming 64-bit FNV-1a over little-endian `u64` words: the checksum
/// of every durable format (`.bgr` header and body, WAL records,
/// `checkpoint.meta`, `versions.meta`) and the tip-number digests in
/// reports (`receipt::dynamic::fnv1a_u64` folds a slice through it).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest at the FNV-1a offset basis (the hash of no words).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `value`'s eight little-endian bytes into the digest.
    #[inline]
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every word folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_range() {
        let b = 0x1122_3344_5566_7788u64.to_le_bytes();
        assert_eq!(le_u64_at(&b, 0), Some(0x1122_3344_5566_7788));
        assert_eq!(le_u32_at(&b, 4), Some(0x1122_3344));
        assert_eq!(array_at::<2>(&b, 6), Some([0x22, 0x11]));
    }

    #[test]
    fn short_reads_fail_closed() {
        let b = [1u8, 2, 3];
        assert_eq!(le_u32_at(&b, 0), None);
        assert_eq!(le_u32_at(&b, 3), None);
        assert_eq!(le_u64_at(&[], 0), None);
        assert_eq!(array_at::<1>(&b, usize::MAX), None);
    }
}
