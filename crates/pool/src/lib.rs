//! The MaCS **worker pool**: a split private/shared work queue placed in
//! GPI global memory (paper §IV, Fig. 2).
//!
//! Each worker owns one [`SplitPool`]. The pool is a ring of fixed-size
//! slots (one work item — a store — per slot) addressed by three monotone
//! positions:
//!
//! ```text
//!        tail              split              head
//!         │    shared        │     private     │
//!         ▼  (stealable)     ▼  (owner only)   ▼
//!   ──────┼──────────────────┼─────────────────┼──────
//! ```
//!
//! * the **private region** `[split, head)` is manipulated *only by the
//!   owner*, so push/pop touch nothing but the head pointer — "without
//!   mutual exclusion or conditional statements", as the paper puts it;
//! * the **shared region** `[tail, split)` is visible to thieves;
//! * **release** moves `split` towards `head` (sharing the oldest private
//!   work), **reacquire** moves it back towards `tail`, and a **steal**
//!   advances `tail` (taking the oldest shared work — the largest
//!   sub-trees);
//! * the steal-request mailbox lives in the pool metadata, so a thief on
//!   another node can *read* a pool's state and *post* a request with
//!   one-sided operations only, and a victim can write stolen work **in
//!   place, directly to the head of the thief's pool** — the paper's
//!   zero-copy response. Its capacity is fixed at construction: a MaCS
//!   mailbox holds one request (a second thief looks elsewhere), a PaCCS
//!   one holds a request from every other agent, served first come, first
//!   served.
//!
//! # Lock-freedom
//!
//! The pool is lock-free: there is no mutex anywhere on it. `tail` and
//! `split` are packed into **one** 64-bit word (`tail` low, `split` high),
//! so every mutation of a shared-region boundary — release, reacquire,
//! steal — is a single compare-and-swap on that word and the
//! reacquire-vs-steal race (both shrinking the shared region from opposite
//! ends) cannot double-grant a slot: whichever CAS lands second observes a
//! changed word and retries. The owner's push/pop path touches only `head`
//! (plain load + release store; no CAS, no fences beyond the store) —
//! matching the paper's "no mutual exclusion" owner path. A thief copies
//! the candidate slots into a private buffer *before* its CAS and delivers
//! them only on success: once `tail` has moved past a slot the owner may
//! reuse it, so reading after the claim would race the owner's next push.
//! The full happens-before argument is spelled out in ARCHITECTURE.md.
//!
//! Positions are monotone and must stay below `2^32` over a pool's
//! lifetime (4.3 G items per worker pool per run) so that the packed
//! halves never wrap. The budget is enforced in every build: at
//! [`POSITION_BUDGET`] `push` refuses (the caller spills, exactly as for a
//! full ring) and [`SplitPool::room`] reports no room for in-place
//! writes, so an exhausted pool degrades to its owner's private overflow
//! stack instead of wrapping a packed half.
//!
//! The slots and metadata live in a [`Segment`], i.e. in simulated GPI
//! global memory; all remote accesses go through the [`Interconnect`] cost
//! model.
//!
//! # Cache lines
//!
//! The segment is 64-byte aligned and the metadata words sit on three
//! lines by who writes them — `head` and the owner's two published
//! termination counts (owner: every push/pop, and the counts before each
//! release and idle check), the packed `tail|split` (CAS by owner and
//! thieves; read by every idle thief's scan), the mailbox (its thieves,
//! its owner and the victim answering the owner) — with the slots
//! starting on the next line after it (the fourth, for a mailbox of up to
//! five requests).
//! Moving a word changes which line an access pulls, not its ordering.
//! The full map, with readers, is in ARCHITECTURE.md beside the
//! happens-before argument.

use macs_gpi::{Interconnect, Segment, LINE_WORDS};

/// Metadata word offsets inside the pool segment: one cache line per
/// writer (see the module docs).
const META_HEAD: usize = 0;
/// The owner's published termination counts, on `head`'s line: the
/// owner writes that line anyway, and nobody else writes it.
const META_CREATED: usize = 1;
const META_FINISHED: usize = 2;
/// Packed `tail` (low 32 bits) | `split` (high 32 bits).
const META_TS: usize = LINE_WORDS;
/// The mailbox: the response word a victim writes for this pool's owner,
/// the requests ever posted into this pool (thieves CAS it) and served
/// (the owner stores it), then one cell per request it can hold, each a
/// thief id + 1 or 0. Request `t` sits in cell `t % requests`.
const META_RESP: usize = 2 * LINE_WORDS;
const META_POSTED: usize = 2 * LINE_WORDS + 1;
const META_SERVED: usize = 2 * LINE_WORDS + 2;
const META_REQ: usize = 2 * LINE_WORDS + 3;

/// Positions handed out over a pool's lifetime stay below this, so the
/// packed 32-bit halves never wrap.
pub const POSITION_BUDGET: u64 = u32::MAX as u64;

/// `RESP` value meaning "no response yet".
pub const RESP_PENDING: u64 = 0;
/// `RESP` value meaning "steal failed, no work".
pub const RESP_FAIL: u64 = u64::MAX;

#[inline]
const fn pack(tail: u64, split: u64) -> u64 {
    tail | (split << 32)
}

#[inline]
const fn unpack(ts: u64) -> (u64, u64) {
    (ts & 0xffff_ffff, ts >> 32)
}

/// A snapshot of a pool's pointers and its oldest request cell (0: the
/// mailbox is empty).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolMeta {
    pub head: u64,
    pub split: u64,
    pub tail: u64,
    pub req: u64,
}

impl PoolMeta {
    #[inline]
    pub fn private_len(&self) -> u64 {
        self.head - self.split
    }

    #[inline]
    pub fn shared_len(&self) -> u64 {
        self.split - self.tail
    }

    #[inline]
    pub fn len(&self) -> u64 {
        self.head - self.tail
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }
}

/// The split private/shared work pool of one worker (lock-free).
#[derive(Debug)]
pub struct SplitPool {
    seg: Segment,
    capacity: u64,
    mask: u64,
    slot_words: usize,
    /// Requests the mailbox holds at once.
    requests: u64,
    /// First slot word: the line after the mailbox.
    slots: usize,
}

impl SplitPool {
    /// A pool of at least `capacity` slots of `slot_words` words each
    /// (capacity is rounded up to a power of two), with a one-request
    /// mailbox.
    pub fn new(capacity: usize, slot_words: usize) -> Self {
        SplitPool::with_mailbox(capacity, slot_words, 1)
    }

    /// [`SplitPool::new`] with a mailbox that holds `requests` requests
    /// at once.
    pub fn with_mailbox(capacity: usize, slot_words: usize, requests: usize) -> Self {
        assert!(capacity > 0 && slot_words > 0 && requests > 0);
        let capacity = capacity.next_power_of_two() as u64;
        assert!(
            capacity < u32::MAX as u64,
            "capacity must fit the packed positions"
        );
        let slots = (META_REQ + requests).next_multiple_of(LINE_WORDS);
        let seg = Segment::new(slots + capacity as usize * slot_words);
        SplitPool {
            seg,
            capacity,
            mask: capacity - 1,
            slot_words,
            requests: requests as u64,
            slots,
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    #[inline]
    pub fn slot_words(&self) -> usize {
        self.slot_words
    }

    #[inline]
    fn slot_off(&self, pos: u64) -> usize {
        self.slots + (pos & self.mask) as usize * self.slot_words
    }

    // ----- pointer accessors ------------------------------------------------

    #[inline]
    fn head(&self) -> u64 {
        self.seg.load_notify(META_HEAD)
    }

    /// Acquire-load of the packed `(tail, split)` word: a matching
    /// release-CAS (the owner's `release`) publishes the slot contents of
    /// everything it shared.
    #[inline]
    fn ts(&self) -> (u64, u64) {
        unpack(self.seg.load_notify(META_TS))
    }

    /// Snapshot the pool pointers (local shared-memory read; `tail`/`split`
    /// are mutually consistent because they live in one word, `head` may be
    /// momentarily newer — callers use the snapshot for heuristics and the
    /// CAS protocol re-validates for correctness-critical decisions).
    pub fn meta(&self) -> PoolMeta {
        let (tail, split) = self.ts();
        PoolMeta {
            head: self.head(),
            split,
            tail,
            req: self.seg.load_notify(self.front()),
        }
    }

    /// Snapshot the pool pointers from another node: a one-sided read of
    /// the metadata words, charged to `via` (`None`: a co-located reader,
    /// uncharged). This is how a remote thief inspects victims "without
    /// disturbing" them.
    pub fn meta_remote<'i>(&self, via: impl Into<Option<&'i Interconnect>>) -> PoolMeta {
        if let Some(ic) = via.into() {
            ic.charge_read(4 * 8);
        }
        self.meta()
    }

    /// Number of stealable items (cheap, may be momentarily stale).
    #[inline]
    pub fn shared_len(&self) -> u64 {
        let (tail, split) = self.ts();
        split - tail
    }

    /// Number of owner-private items.
    #[inline]
    pub fn private_len(&self) -> u64 {
        self.lens().0
    }

    /// `(private, shared)` item counts from one load of the packed word
    /// and one of `head` — what a release decision needs, without the
    /// mailbox word [`SplitPool::meta`] also reads.
    #[inline]
    pub fn lens(&self) -> (u64, u64) {
        let (tail, split) = self.ts();
        (self.head().saturating_sub(split), split - tail)
    }

    /// Slots a victim may write in place at this pool's head, given the
    /// snapshot `m` of it: the free ring space, cut to what is left of
    /// the position budget.
    #[inline]
    pub fn room(&self, m: &PoolMeta) -> u64 {
        (self.capacity - m.len()).min(POSITION_BUDGET.saturating_sub(m.head))
    }

    /// Total items in the pool.
    #[inline]
    pub fn len(&self) -> u64 {
        let m = self.meta();
        m.head.saturating_sub(m.tail)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- termination counts (owner writes, idle workers read) -------------

    /// Publish the owner's count of work items created (a release store
    /// on `head`'s line). Owner only.
    #[inline]
    pub fn publish_created(&self, n: u64) {
        self.seg.store_notify(META_CREATED, n);
    }

    /// Publish the owner's count of work items finished. Owner only.
    #[inline]
    pub fn publish_finished(&self, n: u64) {
        self.seg.store_notify(META_FINISHED, n);
    }

    /// The owner's last published `created` count (acquire load).
    #[inline]
    pub fn published_created(&self) -> u64 {
        self.seg.load_notify(META_CREATED)
    }

    /// The owner's last published `finished` count (acquire load).
    #[inline]
    pub fn published_finished(&self) -> u64 {
        self.seg.load_notify(META_FINISHED)
    }

    // ----- owner operations (no CAS, no lock) --------------------------------

    /// Push one item at the head (owner only). Returns `false` if the ring
    /// is full or the position budget is spent; the caller keeps the item
    /// (the runtime spills to a local overflow stack).
    ///
    /// A momentarily stale `tail` is conservative (`≤` the true tail), so
    /// the capacity check can refuse a push that would have fit but never
    /// admits one that would overwrite an unstolen slot.
    pub fn push(&self, item: &[u64]) -> bool {
        debug_assert_eq!(item.len(), self.slot_words);
        let head = self.head();
        let (tail, _) = self.ts();
        if head - tail >= self.capacity || head >= POSITION_BUDGET {
            return false;
        }
        self.seg.write_local(self.slot_off(head), item);
        // Publishing through head is enough for the owner; thieves only see
        // items after `release` publishes them through the packed word.
        self.seg.store_notify(META_HEAD, head + 1);
        true
    }

    /// Pop the newest private item into `dst` (owner only, CAS-free:
    /// `split` is written only by the owner itself, so the private region
    /// cannot shrink under it).
    pub fn pop_private(&self, dst: &mut [u64]) -> bool {
        debug_assert_eq!(dst.len(), self.slot_words);
        let head = self.head();
        let (_, split) = self.ts();
        if head == split {
            return false;
        }
        self.seg.read_local(self.slot_off(head - 1), dst);
        self.seg.store_notify(META_HEAD, head - 1);
        true
    }

    // ----- split management (owner, CAS) -----------------------------------

    /// Share up to `k` of the oldest private items: move `split` towards
    /// `head`. Returns how many items became shared. This is the paper's
    /// *release* operation, whose frequency ("work release interval") is
    /// the main tuning knob behind the MaCS(best) results.
    ///
    /// The release-ordered CAS publishes the slot contents written by the
    /// owner's preceding pushes; a thief's acquire-load of the packed word
    /// therefore sees complete items.
    pub fn release(&self, k: u64) -> u64 {
        loop {
            let ts = self.seg.load_notify(META_TS);
            let (tail, split) = unpack(ts);
            let head = self.head();
            let m = k.min(head - split);
            if m == 0 {
                return 0;
            }
            if self.seg.cas(META_TS, ts, pack(tail, split + m)).is_ok() {
                return m;
            }
            // A thief moved tail concurrently; retry against the new word.
            std::hint::spin_loop();
        }
    }

    /// Take back up to `k` of the newest shared items: move `split` towards
    /// `tail`. Returns how many items became private again. Serialised
    /// against concurrent steals by the CAS on the packed word: a steal
    /// that claimed these slots first changes the word and this CAS
    /// retries against the smaller shared region.
    pub fn reacquire(&self, k: u64) -> u64 {
        loop {
            let ts = self.seg.load_notify(META_TS);
            let (tail, split) = unpack(ts);
            let m = k.min(split - tail);
            if m == 0 {
                return 0;
            }
            if self.seg.cas(META_TS, ts, pack(tail, split - m)).is_ok() {
                return m;
            }
            std::hint::spin_loop();
        }
    }

    // ----- stealing (thief side, CAS) ---------------------------------------

    /// Steal up to `max` of the *oldest* shared items, feeding each to
    /// `sink`. Returns the number stolen (0 = failed steal). Local thieves
    /// call this directly; victims call it on their own pool to reserve
    /// work for a remote thief.
    ///
    /// The slots are copied out *before* the claiming CAS: once `tail`
    /// moves, the owner's capacity check may admit pushes that reuse the
    /// ring positions, so a post-claim read could tear. A failed CAS
    /// discards the buffered copy and retries (nothing was claimed). The
    /// copy cannot be stale on success: any overwrite of `[tail, tail+m)`
    /// requires `tail` to advance first, which makes the CAS fail.
    pub fn steal(&self, max: u64, mut sink: impl FnMut(&[u64])) -> u64 {
        if max == 0 {
            return 0;
        }
        let mut buf: Vec<u64> = Vec::new();
        loop {
            let ts = self.seg.load_notify(META_TS);
            let (tail, split) = unpack(ts);
            let m = max.min(split - tail);
            if m == 0 {
                return 0;
            }
            buf.resize(m as usize * self.slot_words, 0);
            for i in 0..m {
                let off = (i as usize) * self.slot_words;
                self.seg.read_local(
                    self.slot_off(tail + i),
                    &mut buf[off..off + self.slot_words],
                );
            }
            if self.seg.cas(META_TS, ts, pack(tail + m, split)).is_ok() {
                for chunk in buf.chunks_exact(self.slot_words) {
                    sink(chunk);
                }
                return m;
            }
            std::hint::spin_loop();
        }
    }

    // ----- steal-request mailbox ----------------------------------------------

    /// The cell of request `ticket`.
    #[inline]
    fn req_cell(&self, ticket: u64) -> usize {
        META_REQ + (ticket % self.requests) as usize
    }

    /// The cell of the oldest unserved request. A one-request mailbox has
    /// one cell, so its empty poll stays one load.
    #[inline]
    fn front(&self) -> usize {
        if self.requests == 1 {
            META_REQ
        } else {
            self.req_cell(self.seg.load(META_SERVED))
        }
    }

    /// Thief side: post `thief_id`'s request — read both counts, claim the
    /// next ticket with a CAS, write the id into its cell — one-sided and
    /// charged to `via` (`None`: a co-located thief, uncharged). `false`
    /// when the mailbox already holds as many requests as it can: a second
    /// thief at a one-request mailbox looks elsewhere.
    ///
    /// `posted` is read before `served`: a served request happens-before
    /// its thief's next post, so the counts never show a mailbox fuller
    /// than it is.
    pub fn try_post_request_remote<'i>(
        &self,
        via: impl Into<Option<&'i Interconnect>>,
        thief_id: usize,
    ) -> bool {
        let via = via.into();
        loop {
            if let Some(ic) = via {
                ic.charge_read(2 * 8);
            }
            let posted = self.seg.load_notify(META_POSTED);
            let served = self.seg.load_notify(META_SERVED);
            if posted.saturating_sub(served) >= self.requests {
                return false;
            }
            if let Some(ic) = via {
                ic.charge_atomic();
            }
            if self.seg.cas(META_POSTED, posted, posted + 1).is_ok() {
                if let Some(ic) = via {
                    ic.charge_write(8);
                }
                self.seg
                    .store_notify(self.req_cell(posted), thief_id as u64 + 1);
                return true;
            }
            std::hint::spin_loop();
        }
    }

    /// Victim side: the oldest unserved request, if any (polled in the
    /// main work loop).
    #[inline]
    pub fn pending_request(&self) -> Option<usize> {
        match self.seg.load_notify(self.front()) {
            0 => None,
            id1 => Some(id1 as usize - 1),
        }
    }

    /// Victim side: retire the oldest request after serving it. Its cell is
    /// cleared before the count is published, so a thief that reads the
    /// new count finds the cell free.
    #[inline]
    pub fn clear_request(&self) {
        let served = self.seg.load(META_SERVED);
        self.seg.store(self.req_cell(served), 0);
        self.seg.store_notify(META_SERVED, served + 1);
    }

    /// Thief side: poll the response word of *this* (own) pool.
    #[inline]
    pub fn response(&self) -> u64 {
        self.seg.load_notify(META_RESP)
    }

    /// Thief side: reset the response word before posting a request.
    #[inline]
    pub fn reset_response(&self) {
        self.seg.store_notify(META_RESP, RESP_PENDING);
    }

    /// Victim side: write the response word of the thief's pool (one-sided,
    /// release-ordered so the in-place slot writes below are published),
    /// charged to `via`.
    pub fn write_response_remote<'i>(&self, via: impl Into<Option<&'i Interconnect>>, resp: u64) {
        if let Some(ic) = via.into() {
            ic.charge_write(8);
        }
        self.seg.store_notify(META_RESP, resp);
    }

    /// Victim side: write `items` (a flat array of `n × slot_words` words)
    /// in place at positions `[pos, pos + n)` of the thief's ring — the
    /// paper's zero-copy write "directly to the head of the thief's pool".
    /// Queued (non-blocking) flavour: the victim pays only posting
    /// overhead, to `via`.
    pub fn write_slots_remote<'i>(
        &self,
        via: impl Into<Option<&'i Interconnect>>,
        pos: u64,
        items: &[u64],
    ) {
        debug_assert_eq!(items.len() % self.slot_words, 0);
        if let Some(ic) = via.into() {
            ic.charge_queued_write(items.len() * 8);
        }
        for (i, chunk) in items.chunks_exact(self.slot_words).enumerate() {
            self.seg.write_local(self.slot_off(pos + i as u64), chunk);
        }
    }

    /// Thief side: after a successful response of `n` items written in
    /// place at the head, adopt them (owner-only head bump).
    pub fn adopt_written(&self, n: u64) {
        let head = self.head();
        self.seg.store_notify(META_HEAD, head + n);
    }

    /// Read one slot by absolute position (diagnostics / tests).
    pub fn read_slot(&self, pos: u64, dst: &mut [u64]) {
        self.seg.read_local(self.slot_off(pos), dst);
    }

    /// Addresses of `[head, tail|split, REQ, RESP, slot 0]` (layout
    /// tests).
    pub fn word_addrs(&self) -> [usize; 5] {
        [META_HEAD, META_TS, META_REQ, META_RESP, self.slots].map(|w| self.seg.word_addr(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_gpi::LatencyModel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn item(v: u64, words: usize) -> Vec<u64> {
        let mut it = vec![0u64; words];
        it[0] = v;
        it[words - 1] = v ^ 0xdead_beef;
        it
    }

    #[test]
    fn push_pop_lifo() {
        let p = SplitPool::new(8, 3);
        assert!(p.push(&item(1, 3)));
        assert!(p.push(&item(2, 3)));
        let mut buf = vec![0u64; 3];
        assert!(p.pop_private(&mut buf));
        assert_eq!(buf, item(2, 3));
        assert!(p.pop_private(&mut buf));
        assert_eq!(buf, item(1, 3));
        assert!(!p.pop_private(&mut buf));
    }

    #[test]
    fn capacity_is_enforced() {
        let p = SplitPool::new(4, 1);
        for i in 0..4 {
            assert!(p.push(&[i]));
        }
        assert!(!p.push(&[99]));
        let mut buf = [0u64];
        assert!(p.pop_private(&mut buf));
        assert!(p.push(&[100]));
    }

    #[test]
    fn metadata_words_and_slots_lie_on_separate_cache_lines() {
        // Odd slot widths and capacities: alignment must not depend on
        // the segment's size.
        for (cap, words) in [(4, 1), (8, 3), (4096, 13)] {
            let p = SplitPool::new(cap, words);
            let [head, ts, req, resp, slot0] = p.word_addrs();
            assert_eq!(head % 64, 0, "segment base is line-aligned");
            let mut lines = [head / 64, ts / 64, req / 64, slot0 / 64];
            lines.sort_unstable();
            assert!(lines.windows(2).all(|w| w[0] != w[1]), "{lines:?}");
            assert_eq!(req / 64, resp / 64, "the mailbox is one line");
            let counts = [META_CREATED, META_FINISHED].map(|w| p.seg.word_addr(w) / 64);
            assert_eq!(
                counts,
                [head / 64; 2],
                "the owner's counts share head's line"
            );
        }
    }

    #[test]
    fn published_counts_leave_the_positions_alone() {
        let p = SplitPool::new(4, 1);
        assert!(p.push(&[7]));
        p.publish_created(5);
        p.publish_finished(3);
        assert_eq!((p.published_created(), p.published_finished()), (5, 3));
        assert_eq!(p.lens(), (1, 0));
        let mut buf = [0u64];
        assert!(p.pop_private(&mut buf) && buf == [7]);
        assert!(p.is_empty());
    }

    /// A pool whose positions all sit at `pos` (empty), as if `pos` items
    /// had already passed through it.
    fn pool_at(pos: u64, capacity: usize, slot_words: usize) -> SplitPool {
        let p = SplitPool::new(capacity, slot_words);
        p.seg.store_notify(META_HEAD, pos);
        p.seg.store_notify(META_TS, pack(pos, pos));
        p
    }

    #[test]
    fn position_budget_refuses_pushes_instead_of_wrapping() {
        // Three positions short of the budget: three pushes land, the
        // fourth is refused although the ring has room (a checked
        // refusal, so it holds in release builds).
        let p = pool_at(POSITION_BUDGET - 3, 8, 1);
        for v in 0..3 {
            assert!(p.push(&[v]));
        }
        assert!(!p.push(&[99]), "budget spent");
        assert_eq!(p.meta().head, POSITION_BUDGET);
        // Nothing wrapped: release publishes all three, a thief gets the
        // oldest, the owner pops the rest, and the refusal is permanent
        // only for positions — a pop frees one to be handed out again.
        assert_eq!(p.release(2), 2);
        let mut got = vec![];
        assert_eq!(p.steal(1, |s| got.push(s[0])), 1);
        assert_eq!(got, vec![0]);
        assert_eq!(p.lens(), (1, 1));
        let mut buf = [0u64];
        assert!(p.pop_private(&mut buf));
        assert_eq!(buf[0], 2);
        assert!(p.push(&[7]));
        assert!(!p.push(&[8]));
        // In-place writes see the same wall.
        let m = p.meta();
        assert_eq!(p.room(&m), 0);
        let near = pool_at(POSITION_BUDGET - 2, 8, 1);
        assert_eq!(near.room(&near.meta()), 2);
        assert_eq!(SplitPool::new(8, 1).room(&PoolMeta::default()), 8);
    }

    #[test]
    fn lens_agree_with_the_single_counts() {
        let p = SplitPool::new(8, 1);
        for i in 0..5 {
            p.push(&[i]);
        }
        p.release(2);
        assert_eq!(p.lens(), (3, 2));
        assert_eq!(p.lens(), (p.private_len(), p.shared_len()));
    }

    #[test]
    fn private_items_are_not_stealable() {
        let p = SplitPool::new(8, 1);
        p.push(&[1]);
        p.push(&[2]);
        assert_eq!(p.private_len(), 2);
        assert_eq!(p.shared_len(), 0);
        let mut got = vec![];
        assert_eq!(p.steal(10, |s| got.push(s[0])), 0);
        assert!(got.is_empty());
    }

    #[test]
    fn release_then_steal_takes_oldest() {
        let p = SplitPool::new(8, 1);
        for i in 1..=4 {
            p.push(&[i]);
        }
        assert_eq!(p.release(2), 2);
        assert_eq!(p.shared_len(), 2);
        assert_eq!(p.private_len(), 2);
        let mut got = vec![];
        assert_eq!(p.steal(10, |s| got.push(s[0])), 2);
        assert_eq!(got, vec![1, 2], "steal takes the oldest items");
        // Owner still pops its private items LIFO.
        let mut buf = [0u64];
        assert!(p.pop_private(&mut buf));
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn reacquire_restores_private_work() {
        let p = SplitPool::new(8, 1);
        for i in 1..=4 {
            p.push(&[i]);
        }
        p.release(4);
        assert_eq!(p.private_len(), 0);
        assert_eq!(p.reacquire(3), 3);
        assert_eq!(p.private_len(), 3);
        assert_eq!(p.shared_len(), 1);
        // Pop order after reacquire is still newest-first.
        let mut buf = [0u64];
        assert!(p.pop_private(&mut buf));
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn release_more_than_private_is_clamped() {
        let p = SplitPool::new(8, 1);
        p.push(&[1]);
        assert_eq!(p.release(100), 1);
        assert_eq!(p.release(100), 0);
        assert_eq!(p.reacquire(100), 1);
        assert_eq!(p.reacquire(100), 0);
    }

    #[test]
    fn ring_wraparound_preserves_items() {
        let p = SplitPool::new(4, 2);
        let mut buf = vec![0u64; 2];
        // Cycle many times through a capacity-4 ring.
        for round in 0..50u64 {
            for i in 0..3 {
                assert!(p.push(&item(round * 10 + i, 2)));
            }
            for i in (0..3).rev() {
                assert!(p.pop_private(&mut buf));
                assert_eq!(buf, item(round * 10 + i, 2));
            }
        }
    }

    #[test]
    fn request_mailbox_single_claim() {
        let p = SplitPool::new(4, 1);
        let ic = Interconnect::new(LatencyModel::zero());
        assert!(p.try_post_request_remote(&ic, 7));
        assert!(!p.try_post_request_remote(&ic, 9));
        assert_eq!(p.pending_request(), Some(7));
        p.clear_request();
        assert_eq!(p.pending_request(), None);
        assert!(p.try_post_request_remote(&ic, 9));
        assert_eq!(p.pending_request(), Some(9));
    }

    #[test]
    fn a_mailbox_of_capacity_k_takes_k_posts_and_serves_them_in_post_order() {
        let ic = Interconnect::new(LatencyModel::zero());
        for k in [2usize, 3, 7, 12] {
            let p = SplitPool::with_mailbox(4, 1, k);
            // Three rounds, so the tickets wrap the cells.
            for round in 0..3 {
                let thieves: Vec<usize> = (0..k).map(|i| 100 * round + i * 3 + 1).collect();
                for &t in &thieves {
                    assert!(p.try_post_request_remote(&ic, t), "k {k}: post {t}");
                }
                assert!(!p.try_post_request_remote(&ic, 999), "k {k}: full");
                for &t in &thieves {
                    assert_eq!(p.pending_request(), Some(t), "k {k}: FIFO");
                    p.clear_request();
                }
                assert_eq!(p.pending_request(), None);
            }
            // A served request frees its cell for the next post at once.
            assert!(p.try_post_request_remote(None, 5));
            assert!(p.try_post_request_remote(None, 6));
            p.clear_request();
            assert_eq!(p.pending_request(), Some(6));
        }
        // Only the fabric-charged posts moved bytes.
        assert!(ic.counters.snapshot().remote_atomics > 0);
        let free = SplitPool::with_mailbox(4, 1, 3);
        let quiet = Interconnect::new(LatencyModel::zero());
        assert!(free.try_post_request_remote(None, 1));
        assert_eq!(free.pending_request(), Some(1));
        assert_eq!(quiet.counters.snapshot(), Default::default());
    }

    #[test]
    fn a_large_mailbox_keeps_the_slots_off_its_lines() {
        for k in [1usize, 5, 6, 40] {
            let p = SplitPool::with_mailbox(4, 3, k);
            let [_, _, req, resp, slot0] = p.word_addrs();
            assert_eq!(
                req / 64,
                resp / 64,
                "k {k}: the first cell shares the response line"
            );
            let last_cell = p.seg.word_addr(META_REQ + k - 1);
            assert!(slot0 / 64 > last_cell / 64, "k {k}");
            assert_eq!(slot0 % 64, 0);
            assert_eq!(p.slots == 3 * LINE_WORDS, k <= 5, "k {k}: one mailbox line");
        }
    }

    #[test]
    fn remote_in_place_write_protocol() {
        // Victim writes two items at the thief's head, then the response;
        // thief adopts and pops them.
        let thief = SplitPool::new(8, 2);
        let ic = Interconnect::new(LatencyModel::zero());
        thief.reset_response();
        let head = thief.meta().head;
        let flat: Vec<u64> = [item(41, 2), item(42, 2)].concat();
        thief.write_slots_remote(&ic, head, &flat);
        thief.write_response_remote(&ic, 2);
        assert_eq!(thief.response(), 2);
        thief.adopt_written(2);
        assert_eq!(thief.private_len(), 2);
        let mut buf = vec![0u64; 2];
        assert!(thief.pop_private(&mut buf));
        assert_eq!(buf, item(42, 2));
        assert!(thief.pop_private(&mut buf));
        assert_eq!(buf, item(41, 2));
    }

    #[test]
    fn reacquire_races_steal_without_duplication() {
        // One owner repeatedly releases then immediately reacquires while a
        // thief hammers steal: every item must surface exactly once.
        const ITEMS: u64 = 30_000;
        let p = Arc::new(SplitPool::new(256, 1));
        let stolen_sum = Arc::new(AtomicU64::new(0));
        let stolen_cnt = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let thief = {
            let p = Arc::clone(&p);
            let sum = Arc::clone(&stolen_sum);
            let cnt = Arc::clone(&stolen_cnt);
            let done = Arc::clone(&done);
            std::thread::spawn(move || loop {
                let n = p.steal(3, |s| {
                    sum.fetch_add(s[0], Ordering::Relaxed);
                    cnt.fetch_add(1, Ordering::Relaxed);
                });
                if n == 0 && done.load(Ordering::Acquire) == 1 && p.shared_len() == 0 {
                    break;
                }
                std::hint::spin_loop();
            })
        };
        let mut buf = [0u64];
        let (mut sum, mut cnt) = (0u64, 0u64);
        let mut next = 0u64;
        while next < ITEMS {
            while next < ITEMS && p.push(&[next]) {
                next += 1;
            }
            // Churn the split from both sides to race the thief's CAS.
            p.release(8);
            p.reacquire(4);
            while p.pop_private(&mut buf) {
                sum += buf[0];
                cnt += 1;
            }
        }
        p.release(u64::MAX);
        done.store(1, Ordering::Release);
        thief.join().unwrap();
        while p.steal(64, |s| {
            sum += s[0];
            cnt += 1;
        }) > 0
        {}
        assert_eq!(cnt + stolen_cnt.load(Ordering::Relaxed), ITEMS);
        assert_eq!(
            sum + stolen_sum.load(Ordering::Relaxed),
            ITEMS * (ITEMS - 1) / 2
        );
    }

    #[test]
    fn concurrent_stealing_conserves_items() {
        // One owner pushes and releases; three thieves steal; every item
        // must be seen exactly once across owner pops + steals.
        const ITEMS: u64 = 20_000;
        let p = Arc::new(SplitPool::new(1024, 2));
        let seen_sum = Arc::new(AtomicU64::new(0));
        let seen_count = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));

        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let p = Arc::clone(&p);
                let sum = Arc::clone(&seen_sum);
                let cnt = Arc::clone(&seen_count);
                let done = Arc::clone(&done);
                std::thread::spawn(move || loop {
                    let n = p.steal(4, |s| {
                        assert_eq!(s[1], s[0] ^ 0xdead_beef, "torn item");
                        sum.fetch_add(s[0], Ordering::Relaxed);
                        cnt.fetch_add(1, Ordering::Relaxed);
                    });
                    if n == 0 && done.load(Ordering::Acquire) == 1 && p.shared_len() == 0 {
                        break;
                    }
                    std::hint::spin_loop();
                })
            })
            .collect();

        let mut buf = vec![0u64; 2];
        let mut pushed = 0u64;
        while pushed < ITEMS {
            // Push a burst, share some of it, pop a little back.
            for _ in 0..8 {
                if pushed < ITEMS && p.push(&item(pushed, 2)) {
                    pushed += 1;
                }
            }
            p.release(6);
            if p.pop_private(&mut buf) {
                assert_eq!(buf[1], buf[0] ^ 0xdead_beef);
                seen_sum.fetch_add(buf[0], Ordering::Relaxed);
                seen_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Drain what is left: share everything, then pop the remainder as a
        // thief would (owner may also steal from its own pool).
        p.release(u64::MAX);
        done.store(1, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }
        while p.steal(64, |s| {
            seen_sum.fetch_add(s[0], Ordering::Relaxed);
            seen_count.fetch_add(1, Ordering::Relaxed);
        }) > 0
        {}

        assert_eq!(seen_count.load(Ordering::Relaxed), ITEMS);
        assert_eq!(seen_sum.load(Ordering::Relaxed), ITEMS * (ITEMS - 1) / 2);
    }
}
