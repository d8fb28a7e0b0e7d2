//! `Memory` against a byte-map model.
//!
//! Random mixed-width reads and writes, biased toward page boundaries and
//! the last bytes of the address space, must read back exactly what a
//! plain `address -> byte` map holds (little-endian, wrapping at the top of
//! the address space, zero where never written). `reset(image)` must leave
//! the same state as a fresh `Memory::load(image)`.

use std::collections::HashMap;

use flexprot_isa::{Image, Rng64};
use flexprot_sim::mem::Memory;

const PAGE: u32 = 4096;

#[derive(Default)]
struct Model(HashMap<u32, u8>);

impl Model {
    fn read(&self, addr: u32, width: u32) -> u32 {
        (0..width).fold(0, |acc, i| {
            let byte = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            acc | u32::from(byte) << (8 * i)
        })
    }

    fn write(&mut self, addr: u32, width: u32, value: u32) {
        for i in 0..width {
            self.0
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }
}

fn read(mem: &Memory, addr: u32, width: u32) -> u32 {
    match width {
        1 => u32::from(mem.read_u8(addr)),
        2 => u32::from(mem.read_u16(addr)),
        _ => mem.read_u32(addr),
    }
}

fn write(mem: &mut Memory, addr: u32, width: u32, value: u32) {
    match width {
        1 => mem.write_u8(addr, value as u8),
        2 => mem.write_u16(addr, value as u16),
        _ => mem.write_u32(addr, value),
    }
}

/// An address in a small pool of hot pages, straddling a page boundary,
/// at the top of the address space, or anywhere; any alignment.
fn address(rng: &mut Rng64) -> u32 {
    match rng.below(4) {
        0 => (rng.below(4) as u32) * PAGE + rng.below(u64::from(PAGE)) as u32,
        1 => (1 + rng.below(6) as u32) * PAGE - 1 - rng.below(4) as u32,
        2 => u32::MAX - rng.below(8) as u32,
        _ => rng.next_u32(),
    }
}

#[test]
fn mixed_width_accesses_match_a_byte_map() {
    for seed in 0..20u64 {
        let mut rng = Rng64::new(0x3E30_0000 + seed);
        let mut mem = Memory::new();
        let mut model = Model::default();
        let mut written = Vec::new();
        for _ in 0..4000 {
            let width = [1, 2, 4][rng.below(3) as usize];
            // Re-read earlier writes often, so reads hit resident pages.
            let addr = if !written.is_empty() && rng.below(3) == 0 {
                written[rng.below(written.len() as u64) as usize]
            } else {
                address(&mut rng)
            };
            if rng.below(2) == 0 {
                let value = rng.next_u32();
                write(&mut mem, addr, width, value);
                model.write(addr, width, value);
                written.push(addr);
            } else {
                assert_eq!(
                    read(&mem, addr, width),
                    model.read(addr, width),
                    "seed {seed}: {width}-byte read at {addr:#010x}"
                );
            }
        }
        for (&addr, &byte) in &model.0 {
            assert_eq!(mem.read_u8(addr), byte, "seed {seed}: byte {addr:#010x}");
        }
    }
}

fn image(rng: &mut Rng64, text_base: u32, data_base: u32) -> Image {
    let mut image = Image::from_text((0..rng.below(3000)).map(|_| rng.next_u32()).collect());
    image.text_base = text_base;
    image.entry = text_base;
    image.data_base = data_base;
    image.data = (0..rng.below(9000)).map(|_| rng.next_u32() as u8).collect();
    image
}

/// Every byte the two memories could differ in: both images' segments,
/// plus the scribbled addresses.
fn assert_same(a: &Memory, b: &Memory, images: &[&Image], extra: &[u32]) {
    for image in images {
        let text_bytes = 4 * image.text.len() as u32;
        let data_bytes = image.data.len() as u32;
        for addr in (0..text_bytes).map(|i| image.text_base.wrapping_add(i)) {
            assert_eq!(a.read_u8(addr), b.read_u8(addr), "text byte {addr:#010x}");
        }
        for addr in (0..data_bytes).map(|i| image.data_base.wrapping_add(i)) {
            assert_eq!(a.read_u8(addr), b.read_u8(addr), "data byte {addr:#010x}");
        }
    }
    for &addr in extra {
        assert_eq!(a.read_u32(addr), b.read_u32(addr), "word {addr:#010x}");
    }
}

#[test]
fn reset_gives_the_state_of_a_fresh_load() {
    for seed in 0..12u64 {
        let mut rng = Rng64::new(0x4E5E_7000 + seed);
        // Segment bases: the usual layout, unaligned and page-straddling
        // bases, and a data segment that wraps past the top of memory.
        let (text_base, data_base) = match seed % 3 {
            0 => (0x0040_0000, 0x1001_0000),
            1 => (0x0040_0FFE, 0x1001_0FFF),
            _ => (0x0040_0000 + 4 * rng.below(2048) as u32, u32::MAX - 100),
        };
        let first = image(&mut rng, text_base, data_base);
        let second_base = text_base + 4 * rng.below(512) as u32;
        let second = image(&mut rng, second_base, data_base);

        let mut mem = Memory::load(&first);
        let scribbled: Vec<u32> = (0..500).map(|_| address(&mut rng)).collect();
        for &addr in &scribbled {
            mem.write_u32(addr, rng.next_u32());
        }
        mem.reset(&second);
        let fresh = Memory::load(&second);
        assert_same(&mem, &fresh, &[&first, &second], &scribbled);

        // The fresh load itself matches the byte model of the image.
        for (i, &word) in second.text.iter().enumerate() {
            let addr = second.text_base.wrapping_add(4 * i as u32);
            assert_eq!(fresh.read_u32(addr), word, "text word {addr:#010x}");
        }
        for (i, &byte) in second.data.iter().enumerate() {
            let addr = second.data_base.wrapping_add(i as u32);
            assert_eq!(fresh.read_u8(addr), byte, "data byte {addr:#010x}");
        }
    }
}
