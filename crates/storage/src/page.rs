//! Fixed-size pages and little-endian field access helpers.

/// Size of every page in the store.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// A heap-allocated page buffer.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Page {
    /// A zeroed page.
    pub fn new() -> Self {
        Page { data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("exact size") }
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw bytes, mutable.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Read a little-endian u16 at `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    /// Write a little-endian u16 at `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u32 at `off`.
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("in bounds"))
    }

    /// Write a little-endian u32 at `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u64 at `off`.
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.data[off..off + 8].try_into().expect("in bounds"))
    }

    /// Write a little-endian u64 at `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Byte slice `[off, off+len)`.
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Copy `src` into the page at `off`.
    pub fn write_at(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_access_roundtrip() {
        let mut p = Page::new();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, 0x0123_4567_89AB_CDEF);
        p.write_at(100, b"hello");
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), 0x0123_4567_89AB_CDEF);
        assert_eq!(p.slice(100, 5), b"hello");
    }

    #[test]
    fn new_page_zeroed() {
        let p = Page::new();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }
}
