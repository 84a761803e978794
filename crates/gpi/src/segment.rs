//! A partition of global memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::interconnect::Interconnect;

/// A fixed-size word array in global memory, accessible by every worker.
///
/// Local accesses (same node, shared memory) use the `*_local` methods;
/// accesses from another node use the `*_remote` methods, which perform the
/// same memory operation after charging the [`Interconnect`]. Data words
/// move with `Relaxed` ordering — one-sided RDMA guarantees no ordering
/// either — so protocols built on a segment publish data with
/// [`Segment::store_notify`] / [`Segment::load_notify`] (release/acquire),
/// mirroring how GPI applications pair payload writes with notification
/// writes.
#[derive(Debug)]
pub struct Segment {
    /// Backing allocation, [`LINE_WORDS`]` - 1` words longer than the
    /// segment so that a line-aligned window of `len` words always fits.
    alloc: Box<[AtomicU64]>,
    /// Index in `alloc` of word 0: the first word on a 64-byte boundary.
    base: usize,
    len: usize,
}

/// Words per cache line (64 bytes). Word `k * LINE_WORDS` of any segment
/// starts a line, so a layout that places two words `LINE_WORDS` apart
/// has placed them on different lines.
pub const LINE_WORDS: usize = 8;

impl Segment {
    /// Allocate a zeroed segment of `words` 64-bit words whose word 0 is
    /// 64-byte aligned.
    pub fn new(words: usize) -> Self {
        let mut v = Vec::with_capacity(words + LINE_WORDS - 1);
        v.resize_with(words + LINE_WORDS - 1, || AtomicU64::new(0));
        let alloc = v.into_boxed_slice();
        // The heap block never moves, so the offset found here holds for
        // the segment's life. `AtomicU64` is 8-aligned: the distance to
        // the next line boundary is a whole number of words.
        let misalign = alloc.as_ptr() as usize % (LINE_WORDS * 8);
        let base = (LINE_WORDS * 8 - misalign) % (LINE_WORDS * 8) / 8;
        Segment {
            alloc,
            base,
            len: words,
        }
    }

    /// Word `off`. One add on top of the slice's own bounds check; an
    /// index into the alignment slack past `len` is a caller bug that
    /// only debug builds name.
    #[inline]
    fn word(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off < self.len, "word {off} of a {}-word segment", self.len);
        &self.alloc[self.base + off]
    }

    /// Words `[off, off + n)`: one bounds check for the whole run.
    #[inline]
    fn run(&self, off: usize, n: usize) -> &[AtomicU64] {
        debug_assert!(off + n <= self.len);
        &self.alloc[self.base + off..self.base + off + n]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of word `off` (layout tests: which cache line a word is
    /// on).
    pub fn word_addr(&self, off: usize) -> usize {
        self.word(off) as *const AtomicU64 as usize
    }

    // ----- local (shared-memory) access ------------------------------------

    /// Copy `dst.len()` words starting at `off` out of the segment.
    #[inline]
    pub fn read_local(&self, off: usize, dst: &mut [u64]) {
        let src = self.run(off, dst.len());
        for (d, w) in dst.iter_mut().zip(src) {
            *d = w.load(Ordering::Relaxed);
        }
    }

    /// Copy `src` into the segment at `off`.
    #[inline]
    pub fn write_local(&self, off: usize, src: &[u64]) {
        for (&s, w) in src.iter().zip(self.run(off, src.len())) {
            w.store(s, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn load(&self, off: usize) -> u64 {
        self.word(off).load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, off: usize, v: u64) {
        self.word(off).store(v, Ordering::Relaxed);
    }

    /// Acquire-load of a notification word: everything written before the
    /// matching [`Segment::store_notify`] is visible after this returns a
    /// matching value.
    #[inline]
    pub fn load_notify(&self, off: usize) -> u64 {
        self.word(off).load(Ordering::Acquire)
    }

    /// Release-store of a notification word (publishes preceding payload
    /// writes).
    #[inline]
    pub fn store_notify(&self, off: usize, v: u64) {
        self.word(off).store(v, Ordering::Release);
    }

    /// Compare-and-swap (acquire-release), local flavour.
    #[inline]
    pub fn cas(&self, off: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.word(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    #[inline]
    pub fn fetch_add(&self, off: usize, delta: u64) -> u64 {
        self.word(off).fetch_add(delta, Ordering::AcqRel)
    }

    /// Signed fetch-add on a cell interpreted as `i64`.
    #[inline]
    pub fn fetch_add_i64(&self, off: usize, delta: i64) -> i64 {
        self.word(off).fetch_add(delta as u64, Ordering::AcqRel) as i64
    }

    /// Atomically lower a cell interpreted as `i64` to `min(current, v)`;
    /// returns the previous value.
    pub fn fetch_min_i64(&self, off: usize, v: i64) -> i64 {
        let cell = self.word(off);
        let mut cur = cell.load(Ordering::Acquire) as i64;
        while v < cur {
            match cell.compare_exchange_weak(
                cur as u64,
                v as u64,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return cur,
                Err(now) => cur = now as i64,
            }
        }
        cur
    }

    // ----- remote (one-sided, charged) access -------------------------------

    /// One-sided remote read (synchronous: the caller spins for the
    /// modelled latency, then sees the data).
    #[inline]
    pub fn read_remote(&self, ic: &Interconnect, off: usize, dst: &mut [u64]) {
        ic.charge_read(dst.len() * 8);
        self.read_local(off, dst);
    }

    /// One-sided remote write, synchronous flavour.
    #[inline]
    pub fn write_remote(&self, ic: &Interconnect, off: usize, src: &[u64]) {
        ic.charge_write(src.len() * 8);
        self.write_local(off, src);
    }

    /// One-sided remote write, *queued* flavour: the caller pays only the
    /// posting overhead and continues computing while the (simulated) DMA
    /// engine moves the data. The paper's victims use exactly this to
    /// overlap steal responses with their own work.
    #[inline]
    pub fn write_remote_queued(&self, ic: &Interconnect, off: usize, src: &[u64]) {
        ic.charge_queued_write(src.len() * 8);
        self.write_local(off, src);
    }

    #[inline]
    pub fn load_remote(&self, ic: &Interconnect, off: usize) -> u64 {
        ic.charge_read(8);
        self.load(off)
    }

    #[inline]
    pub fn load_notify_remote(&self, ic: &Interconnect, off: usize) -> u64 {
        ic.charge_read(8);
        self.load_notify(off)
    }

    #[inline]
    pub fn store_notify_remote(&self, ic: &Interconnect, off: usize, v: u64) {
        ic.charge_write(8);
        self.store_notify(off, v);
    }

    /// Remote CAS (GPI exposes atomics over the fabric).
    #[inline]
    pub fn cas_remote(
        &self,
        ic: &Interconnect,
        off: usize,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        ic.charge_atomic();
        self.cas(off, current, new)
    }

    #[inline]
    pub fn fetch_add_remote(&self, ic: &Interconnect, off: usize, delta: u64) -> u64 {
        ic.charge_atomic();
        self.fetch_add(off, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::LatencyModel;
    use std::sync::Arc;

    #[test]
    fn word_zero_is_line_aligned_and_lines_are_eight_words() {
        // Odd sizes included: the allocator is free to hand back any
        // 8-aligned block, the segment must find the boundary itself.
        for words in [1, 7, 8, 9, 64, 1000] {
            let s = Segment::new(words);
            assert_eq!(s.len(), words);
            assert_eq!(s.word_addr(0) % 64, 0, "{words}-word segment");
            assert_eq!(s.word_addr(words - 1), s.word_addr(0) + 8 * (words - 1));
        }
        let s = Segment::new(2 * LINE_WORDS);
        assert_eq!(s.word_addr(LINE_WORDS) / 64, s.word_addr(0) / 64 + 1);
    }

    #[test]
    fn read_write_round_trip() {
        let s = Segment::new(16);
        s.write_local(3, &[7, 8, 9]);
        let mut buf = [0u64; 3];
        s.read_local(3, &mut buf);
        assert_eq!(buf, [7, 8, 9]);
        assert_eq!(s.load(4), 8);
    }

    #[test]
    fn remote_ops_count_traffic() {
        let s = Segment::new(8);
        let ic = Interconnect::new(LatencyModel::zero());
        s.write_remote(&ic, 0, &[1, 2]);
        let mut buf = [0u64; 2];
        s.read_remote(&ic, 0, &mut buf);
        assert_eq!(buf, [1, 2]);
        let snap = ic.counters.snapshot();
        assert_eq!(snap.remote_writes, 1);
        assert_eq!(snap.remote_reads, 1);
        assert_eq!(snap.bytes_written, 16);
    }

    #[test]
    fn cas_succeeds_once() {
        let s = Segment::new(1);
        assert_eq!(s.cas(0, 0, 42), Ok(0));
        assert_eq!(s.cas(0, 0, 43), Err(42));
        assert_eq!(s.load(0), 42);
    }

    #[test]
    fn fetch_min_is_monotone() {
        let s = Segment::new(1);
        s.store(0, i64::MAX as u64);
        assert_eq!(s.fetch_min_i64(0, 100), i64::MAX);
        assert_eq!(s.fetch_min_i64(0, 200), 100); // no effect
        assert_eq!(s.load(0) as i64, 100);
        assert_eq!(s.fetch_min_i64(0, -5), 100);
        assert_eq!(s.load(0) as i64, -5);
    }

    #[test]
    fn signed_fetch_add() {
        let s = Segment::new(1);
        s.fetch_add_i64(0, 10);
        s.fetch_add_i64(0, -25);
        assert_eq!(s.load(0) as i64, -15);
    }

    #[test]
    fn notify_publishes_payload_across_threads() {
        // Writer fills a payload then raises the flag; readers that observe
        // the flag must observe the payload (release/acquire pairing).
        let s = Arc::new(Segment::new(64));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for round in 1..=1000u64 {
                    for i in 1..=8 {
                        s.store(i, round * 100 + i as u64);
                    }
                    s.store_notify(0, round);
                    while s.load_notify(0) == round {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        for round in 1..=1000u64 {
            while s.load_notify(0) != round {
                std::hint::spin_loop();
            }
            for i in 1..=8 {
                assert_eq!(s.load(i), round * 100 + i as u64);
            }
            s.store_notify(0, 0); // ack
        }
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        let s = Arc::new(Segment::new(1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.fetch_add(0, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.load(0), 40_000);
    }
}
