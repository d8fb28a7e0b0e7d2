//! Flat, sparse, little-endian byte-addressable memory.

use std::collections::HashMap;

use flexprot_isa::Image;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: u32 = PAGE_SIZE as u32 - 1;

/// Sparse memory backed by 4 KiB pages allocated on first touch.
///
/// Reads from never-written locations return zero, mimicking zero-initialised
/// RAM. All accesses are little-endian. Halfword and word accesses go byte
/// by byte, one page lookup per byte (wrapping at the top of the address
/// space); loading and resetting copy each segment a page at a time.
///
/// # Example
///
/// ```
/// use flexprot_sim::mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u16(0x1000), 0xBEEF);
/// assert_eq!(mem.read_u8(0x1003), 0xDE);
/// assert_eq!(mem.read_u32(0x9999_0000), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory pre-loaded with an image's text and data segments.
    pub fn load(image: &Image) -> Memory {
        let mut mem = Memory::new();
        mem.load_segments(image);
        mem
    }

    fn load_segments(&mut self, image: &Image) {
        let mut addr = image.text_base;
        let mut bytes = [0u8; PAGE_SIZE];
        for words in image.text.chunks(PAGE_SIZE / 4) {
            for (dst, word) in bytes.chunks_exact_mut(4).zip(words) {
                dst.copy_from_slice(&word.to_le_bytes());
            }
            let len = 4 * words.len();
            self.write_slice(addr, &bytes[..len]);
            addr = addr.wrapping_add(len as u32);
        }
        self.write_slice(image.data_base, &image.data);
    }

    /// Copies `bytes` to `addr` onward, one page lookup per page touched.
    fn write_slice(&mut self, mut addr: u32, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let offset = (addr & PAGE_MASK) as usize;
            let len = bytes.len().min(PAGE_SIZE - offset);
            self.page_mut(addr)[offset..offset + len].copy_from_slice(&bytes[..len]);
            addr = addr.wrapping_add(len as u32);
            bytes = &bytes[len..];
        }
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_BITS)).map(|p| &**p)
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian halfword. The address may be unaligned; the
    /// caller enforces alignment policy.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let [a, b] = value.to_le_bytes();
        self.write_u8(addr, a);
        self.write_u8(addr.wrapping_add(1), b);
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), byte);
        }
    }

    /// Reads a NUL-terminated string of at most `max_len` bytes.
    pub fn read_cstr(&self, addr: u32, max_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..max_len {
            let byte = self.read_u8(addr.wrapping_add(i as u32));
            if byte == 0 {
                break;
            }
            out.push(byte);
        }
        out
    }

    /// Zeroes every resident page in place and reloads `image`'s segments —
    /// functionally identical to a fresh [`Memory::load`], but page
    /// allocations from the previous run are reused instead of freed and
    /// reallocated. Batch drivers lean on this to run many images through
    /// one machine.
    pub fn reset(&mut self, image: &Image) {
        for page in self.pages.values_mut() {
            page.fill(0);
        }
        self.load_segments(image);
    }

    /// Number of resident pages, for footprint diagnostics.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_isa::Image;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn word_round_trip_across_page_boundary() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        mem.write_u32(addr, 0x1122_3344);
        assert_eq!(mem.read_u32(addr), 0x1122_3344);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn halfword_endianness() {
        let mut mem = Memory::new();
        mem.write_u16(0x100, 0xABCD);
        assert_eq!(mem.read_u8(0x100), 0xCD);
        assert_eq!(mem.read_u8(0x101), 0xAB);
    }

    #[test]
    fn load_places_segments() {
        let mut img = Image::from_text(vec![0x1234_5678]);
        img.data = vec![9, 8, 7];
        let mem = Memory::load(&img);
        assert_eq!(mem.read_u32(img.text_base), 0x1234_5678);
        assert_eq!(mem.read_u8(img.data_base), 9);
        assert_eq!(mem.read_u8(img.data_base + 2), 7);
    }

    #[test]
    fn reset_reuses_pages_and_matches_fresh_load() {
        let mut img = Image::from_text(vec![0xAABB_CCDD]);
        img.data = vec![1, 2, 3];
        let mut mem = Memory::load(&img);
        // Dirty some unrelated memory (the stack, say) before resetting.
        mem.write_u32(0x7FFF_F000, 0xDEAD_BEEF);
        let pages_before = mem.resident_pages();
        mem.reset(&img);
        assert_eq!(mem.resident_pages(), pages_before, "allocations reused");
        let fresh = Memory::load(&img);
        assert_eq!(mem.read_u32(img.text_base), fresh.read_u32(img.text_base));
        assert_eq!(mem.read_u8(img.data_base + 2), 3);
        assert_eq!(mem.read_u32(0x7FFF_F000), 0, "stale state cleared");
    }

    #[test]
    fn cstr_stops_at_nul_and_cap() {
        let mut mem = Memory::new();
        for (i, b) in b"hello\0world".iter().enumerate() {
            mem.write_u8(0x200 + i as u32, *b);
        }
        assert_eq!(mem.read_cstr(0x200, 64), b"hello");
        assert_eq!(mem.read_cstr(0x200, 3), b"hel");
    }
}
