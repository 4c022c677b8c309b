//! Protection domains, memory regions, and the per-node address space.
//!
//! MRs can be *backed* (a real `Vec<u8>`, so writes/reads move actual bytes
//! — used by integrity tests and traced messages) or *unbacked* (size-only,
//! the fast path for large-scale performance runs). Either way rkey/lkey
//! lookup, bounds and access checking are enforced, because the paper's
//! memory-cache-isolation scheme (§VI-C) exists precisely to catch
//! out-of-bounds access to RDMA-enabled memory.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;

use xrdma_sim::inthash::IntMap;
use xrdma_sim::invariant;

use crate::config::PageKind;
use crate::verbs::VerbsError;

/// Access permissions on a memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessFlags {
    pub local_write: bool,
    pub remote_read: bool,
    pub remote_write: bool,
    pub remote_atomic: bool,
}

impl AccessFlags {
    pub const LOCAL_ONLY: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: false,
        remote_write: false,
        remote_atomic: false,
    };
    pub const FULL: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: true,
        remote_write: true,
        remote_atomic: true,
    };
    pub const REMOTE_READ: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: true,
        remote_write: false,
        remote_atomic: false,
    };
    pub const REMOTE_WRITE: AccessFlags = AccessFlags {
        local_write: true,
        remote_read: false,
        remote_write: true,
        remote_atomic: false,
    };
}

/// A protection domain. MRs and QPs belong to exactly one PD; cross-PD use
/// is rejected like real verbs would.
#[derive(Debug)]
pub struct Pd {
    pub id: u32,
    pub node: u32,
}

/// Sparse byte store: only written ranges occupy memory, so a 4 MiB
/// arena that ever sees nothing but 56-byte headers costs 56 bytes. Reads
/// of unwritten ranges return zeroes (fresh registered memory).
///
/// A sorted extent index: `data[i]` holds the bytes from `starts[i]` on,
/// starts ascend and extents never overlap. Every operation is one
/// `partition_point` over `starts` plus O(bytes touched), and opening or
/// absorbing an extent shifts the entries after it: a write lands in the
/// extent that reaches its start — overwriting in place, growing it in
/// place past its end — and only otherwise opens a new extent (DESIGN.md
/// design note 13).
#[derive(Default)]
struct SparseBytes {
    starts: Vec<u64>,
    data: Vec<Vec<u8>>,
}

impl SparseBytes {
    fn end_of(&self, i: usize) -> u64 {
        self.starts[i] + self.data[i].len() as u64
    }

    fn write(&mut self, off: u64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let end = off + bytes.len() as u64;
        let at = self.starts.partition_point(|&s| s <= off);
        let i = match at.checked_sub(1) {
            Some(i) if self.end_of(i) >= off => {
                let v = &mut self.data[i];
                let o = (off - self.starts[i]) as usize;
                let n = bytes.len().min(v.len() - o);
                v[o..o + n].copy_from_slice(&bytes[..n]);
                v.extend_from_slice(&bytes[n..]); // amortised growth, no rebuild
                i
            }
            _ => {
                self.starts.insert(at, off);
                // xrdma-lint: allow(hot-path-alloc) -- first touch of a fresh range (one per recv slot / arena), later writes extend or overwrite it
                self.data.insert(at, bytes.to_vec());
                at
            }
        };
        // Extents that begin inside the written range are shadowed up to
        // `end`, and only the last of them can reach past it: move that
        // tail onto the grown extent, once, and drop them all. One that
        // merely starts at `end` is left alone, so descending writes stay
        // O(len) too.
        let mut j = i + 1;
        while self.starts.get(j).is_some_and(|&s| s < end) {
            j += 1;
        }
        if j > i + 1 {
            let last = std::mem::take(&mut self.data[j - 1]);
            let tail = last.get((end - self.starts[j - 1]) as usize..);
            self.data[i].extend_from_slice(tail.unwrap_or_default());
            self.starts.drain(i + 1..j);
            self.data.drain(i + 1..j);
        }
        // Local, not a full scan, so the `debug_invariants` legs stay fast.
        for k in i.saturating_sub(1)..(i + 1).min(self.starts.len() - 1) {
            invariant!(
                self.starts[k] < self.starts[k + 1] && self.end_of(k) <= self.starts[k + 1],
                "MR extent index out of order: [{}, {}) before [{}, ..)",
                self.starts[k],
                self.end_of(k),
                self.starts[k + 1]
            );
        }
    }

    /// Fill `out` with the bytes at `[off, off + out.len())`, zeroes where
    /// nothing was written; every byte of `out` is stored exactly once.
    fn read_into(&self, off: u64, out: &mut [u8]) {
        let end = off + out.len() as u64;
        let mut pos = off;
        // The last extent starting before `off` may reach into the range.
        let first = self.starts.partition_point(|&s| s < off).saturating_sub(1);
        for (&k, v) in self.starts[first..].iter().zip(&self.data[first..]) {
            if k >= end {
                break;
            }
            let (lo, hi) = (k.max(pos), end.min(k + v.len() as u64));
            if lo >= hi {
                continue;
            }
            out[(pos - off) as usize..(lo - off) as usize].fill(0);
            out[(lo - off) as usize..(hi - off) as usize]
                .copy_from_slice(&v[(lo - k) as usize..(hi - k) as usize]);
            pos = hi;
        }
        out[(pos - off) as usize..].fill(0);
    }

    /// The little-endian u64 at `off` (the atomics' operand).
    fn word(&self, off: u64) -> u64 {
        let mut w = [0u8; 8];
        self.read_into(off, &mut w);
        u64::from_le_bytes(w)
    }

    fn stored_bytes(&self) -> u64 {
        self.data.iter().map(|v| v.len() as u64).sum()
    }

    /// Any real bytes materialized in [off, off+len)? Only the last extent
    /// starting before `off + len` can hold some; an empty range holds none.
    fn overlaps(&self, off: u64, len: u64) -> bool {
        let n = self.starts.partition_point(|&s| s < off + len);
        len > 0 && n > 0 && self.end_of(n - 1) > off
    }
}

/// A registered memory region.
pub struct Mr {
    pub pd_id: u32,
    pub addr: u64,
    pub len: u64,
    pub lkey: u32,
    pub rkey: u32,
    pub access: AccessFlags,
    pub page_kind: PageKind,
    /// Sparse real bytes when backed; `None` models a size-only region.
    backing: RefCell<Option<SparseBytes>>,
    /// Set on deregistration; all later access fails.
    revoked: Cell<bool>,
}

impl Mr {
    /// Relative offset of `addr` inside this region, or an access error.
    fn offset_of(&self, addr: u64, len: u64) -> Result<usize, VerbsError> {
        if self.revoked.get() {
            return Err(VerbsError::Gone("MR deregistered"));
        }
        if addr < self.addr || addr.saturating_add(len) > self.addr + self.len {
            return Err(VerbsError::AccessError("out of MR bounds"));
        }
        Ok((addr - self.addr) as usize)
    }

    /// Copy bytes into the region (no-op beyond bounds checks if unbacked).
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), VerbsError> {
        let off = self.offset_of(addr, data.len() as u64)?;
        if let Some(buf) = self.backing.borrow_mut().as_mut() {
            buf.write(off as u64, data);
        }
        Ok(())
    }

    /// Read `out.len()` bytes of the region into the caller's buffer
    /// (zeroes if unbacked or unwritten) — the per-message path, no
    /// allocation.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) -> Result<(), VerbsError> {
        let off = self.offset_of(addr, out.len() as u64)?;
        match self.backing.borrow().as_ref() {
            Some(buf) => buf.read_into(off as u64, out),
            None => out.fill(0),
        }
        Ok(())
    }

    /// Read bytes out of the region into a fresh buffer.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, VerbsError> {
        // Bounds first: `len` is the caller's and the next line allocates it.
        self.check(addr, len)?;
        // xrdma-lint: allow(hot-path-alloc) -- the owning-read API (tests, setup, the one-per-message gather of `read_bytes`); per-message callers use `read_into`
        let mut out = vec![0; len as usize];
        self.read_into(addr, &mut out).map(|()| out)
    }

    /// Read bytes out as a shared, refcounted buffer: one gather copy for
    /// the whole range, after which callers slice per MTU fragment without
    /// further allocation (the engine's zero-copy segmentation path).
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<Bytes, VerbsError> {
        // The single per-message gather copy; fragments slice this buffer.
        self.read(addr, len).map(Bytes::from)
    }

    /// Bytes actually materialized by the sparse backing (diagnostics).
    pub fn stored_bytes(&self) -> u64 {
        self.backing
            .borrow()
            .as_ref()
            .map_or(0, |b| b.stored_bytes())
    }

    /// Bounds/validity check without data movement (used for Zero payloads).
    pub fn check(&self, addr: u64, len: u64) -> Result<(), VerbsError> {
        self.offset_of(addr, len).map(|_| ())
    }

    /// 8-byte atomic fetch-add; returns the old value.
    pub fn fetch_add(&self, addr: u64, operand: u64) -> Result<u64, VerbsError> {
        let off = self.offset_of(addr, 8)? as u64;
        let mut b = self.backing.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                let old = buf.word(off);
                buf.write(off, &old.wrapping_add(operand).to_le_bytes());
                Ok(old)
            }
            None => Ok(0),
        }
    }

    /// 8-byte compare-and-swap; returns the old value.
    pub fn compare_swap(&self, addr: u64, expect: u64, swap: u64) -> Result<u64, VerbsError> {
        let off = self.offset_of(addr, 8)? as u64;
        let mut b = self.backing.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                let old = buf.word(off);
                if old == expect {
                    buf.write(off, &swap.to_le_bytes());
                }
                Ok(old)
            }
            None => Ok(0),
        }
    }

    /// Whether any real bytes were ever written into `[addr, addr+len)`.
    /// Lets the engine stream size-only fragments for untouched ranges —
    /// the zero-copy fast path of large performance experiments.
    pub fn has_data_in(&self, addr: u64, len: u64) -> bool {
        if self.check(addr, len).is_err() {
            return false;
        }
        match self.backing.borrow().as_ref() {
            Some(b) => b.overlaps(addr - self.addr, len),
            None => false,
        }
    }
}

/// Per-node registered-memory table: allocation, registration, key lookup.
///
/// Addresses come from two bump allocators: the normal heap region and a
/// *high* region near the top of the address space — the paper's memory
/// cache isolation trick (§VI-C) maps the cache "to a higher address space
/// near the stack" so stray pointers fault instead of corrupting.
pub struct MemTable {
    node: u32,
    next_key: Cell<u32>,
    next_pd: Cell<u32>,
    heap_brk: Cell<u64>,
    high_brk: Cell<u64>,
    by_rkey: RefCell<IntMap<u32, Rc<Mr>>>,
    by_lkey: RefCell<IntMap<u32, Rc<Mr>>>,
    registered_bytes: Cell<u64>,
    mr_count: Cell<usize>,
}

/// Heap allocations start here.
pub const HEAP_BASE: u64 = 0x0000_1000_0000;
/// "High" (isolated) allocations grow downward from here.
pub const HIGH_BASE: u64 = 0x7FFF_0000_0000;

impl MemTable {
    pub fn new(node: u32) -> MemTable {
        MemTable {
            node,
            next_key: Cell::new(1),
            next_pd: Cell::new(1),
            heap_brk: Cell::new(HEAP_BASE),
            high_brk: Cell::new(HIGH_BASE),
            by_rkey: RefCell::default(),
            by_lkey: RefCell::default(),
            registered_bytes: Cell::new(0),
            mr_count: Cell::new(0),
        }
    }

    pub fn alloc_pd(&self) -> Rc<Pd> {
        let id = self.next_pd.get();
        self.next_pd.set(id + 1);
        Rc::new(Pd {
            id,
            node: self.node,
        })
    }

    /// Allocate `len` bytes of virtual address space. `high` selects the
    /// isolated region near the top of the address space.
    pub fn alloc(&self, len: u64, high: bool) -> u64 {
        // Keep a guard gap between allocations so out-of-bounds access
        // never silently lands in a neighbouring region.
        let gap = 4096;
        if high {
            let addr = self.high_brk.get() - len - gap;
            self.high_brk.set(addr);
            addr
        } else {
            let addr = self.heap_brk.get();
            self.heap_brk.set(addr + len + gap);
            addr
        }
    }

    /// Register a region at a caller-chosen address. `backed` materializes
    /// real bytes.
    pub fn reg_mr_at(
        &self,
        pd: &Pd,
        addr: u64,
        len: u64,
        access: AccessFlags,
        page_kind: PageKind,
        backed: bool,
    ) -> Rc<Mr> {
        let key = self.next_key.get();
        self.next_key.set(key + 2);
        let mr = Rc::new(Mr {
            pd_id: pd.id,
            addr,
            len,
            lkey: key,
            rkey: key + 1,
            access,
            page_kind,
            backing: RefCell::new(if backed {
                Some(SparseBytes::default())
            } else {
                None
            }),
            revoked: Cell::new(false),
        });
        self.by_rkey.borrow_mut().insert(mr.rkey, mr.clone());
        self.by_lkey.borrow_mut().insert(mr.lkey, mr.clone());
        self.registered_bytes.set(self.registered_bytes.get() + len);
        self.mr_count.set(self.mr_count.get() + 1);
        mr
    }

    /// Allocate + register in one step.
    pub fn reg_mr(
        &self,
        pd: &Pd,
        len: u64,
        access: AccessFlags,
        page_kind: PageKind,
        backed: bool,
        high: bool,
    ) -> Rc<Mr> {
        let addr = self.alloc(len, high);
        self.reg_mr_at(pd, addr, len, access, page_kind, backed)
    }

    /// Deregister: keys become invalid, backing is dropped.
    pub fn dereg_mr(&self, mr: &Rc<Mr>) {
        mr.revoked.set(true);
        *mr.backing.borrow_mut() = None;
        self.by_rkey.borrow_mut().remove(&mr.rkey);
        self.by_lkey.borrow_mut().remove(&mr.lkey);
        self.registered_bytes
            .set(self.registered_bytes.get().saturating_sub(mr.len));
        self.mr_count.set(self.mr_count.get().saturating_sub(1));
    }

    pub fn by_rkey(&self, rkey: u32) -> Option<Rc<Mr>> {
        self.by_rkey.borrow().get(&rkey).cloned()
    }

    pub fn by_lkey(&self, lkey: u32) -> Option<Rc<Mr>> {
        self.by_lkey.borrow().get(&lkey).cloned()
    }

    /// Resolve an rkey for a remote operation, checking access rights.
    pub fn resolve_remote(
        &self,
        rkey: u32,
        addr: u64,
        len: u64,
        write: bool,
        atomic: bool,
    ) -> Result<Rc<Mr>, VerbsError> {
        let mr = self
            .by_rkey(rkey)
            .ok_or(VerbsError::AccessError("unknown rkey"))?;
        if atomic && !mr.access.remote_atomic {
            return Err(VerbsError::AccessError("no remote-atomic permission"));
        }
        if write && !atomic && !mr.access.remote_write {
            return Err(VerbsError::AccessError("no remote-write permission"));
        }
        if !write && !atomic && !mr.access.remote_read {
            return Err(VerbsError::AccessError("no remote-read permission"));
        }
        mr.check(addr, len)?;
        Ok(mr)
    }

    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes.get()
    }

    pub fn mr_count(&self) -> usize {
        self.mr_count.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (MemTable, Rc<Pd>) {
        let t = MemTable::new(0);
        let pd = t.alloc_pd();
        (t, pd)
    }

    #[test]
    fn backed_roundtrip() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        mr.write(mr.addr + 100, b"hello").unwrap();
        assert_eq!(mr.read(mr.addr + 100, 5).unwrap(), b"hello");
    }

    #[test]
    fn unbacked_reads_zero() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            64,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        mr.write(mr.addr, b"data").unwrap();
        assert_eq!(mr.read(mr.addr, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (t, pd) = table();
        let mr = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(mr.write(mr.addr + 96, b"hello").is_err());
        assert!(mr.read(mr.addr.wrapping_sub(1), 1).is_err());
        assert!(mr.check(mr.addr, 101).is_err());
        assert!(mr.check(mr.addr, 100).is_ok());
    }

    #[test]
    fn access_flags_enforced() {
        let (t, pd) = table();
        let ro = t.reg_mr(
            &pd,
            64,
            AccessFlags::REMOTE_READ,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, false, false).is_ok());
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, true, false).is_err());
        assert!(t.resolve_remote(ro.rkey, ro.addr, 8, false, true).is_err());
        let wo = t.reg_mr(
            &pd,
            64,
            AccessFlags::REMOTE_WRITE,
            PageKind::Anonymous,
            true,
            false,
        );
        assert!(t.resolve_remote(wo.rkey, wo.addr, 8, true, false).is_ok());
        assert!(t.resolve_remote(wo.rkey, wo.addr, 8, false, false).is_err());
    }

    #[test]
    fn unknown_rkey() {
        let (t, _pd) = table();
        assert!(matches!(
            t.resolve_remote(999, 0, 8, false, false),
            Err(VerbsError::AccessError(_))
        ));
    }

    #[test]
    fn dereg_revokes() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 64, AccessFlags::FULL, PageKind::Anonymous, true, false);
        let rkey = mr.rkey;
        assert_eq!(t.mr_count(), 1);
        assert_eq!(t.registered_bytes(), 64);
        t.dereg_mr(&mr);
        assert!(t.by_rkey(rkey).is_none());
        assert!(mr.read(mr.addr, 1).is_err());
        assert_eq!(t.mr_count(), 0);
        assert_eq!(t.registered_bytes(), 0);
    }

    #[test]
    fn high_allocations_isolated() {
        let (t, pd) = table();
        let low = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        let high = t.reg_mr(
            &pd,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            true,
        );
        assert!(high.addr > low.addr + (1 << 40), "high region far away");
        // A pointer overrun from the low region cannot land in the high one.
        assert!(low.check(high.addr, 1).is_err());
    }

    #[test]
    fn guard_gap_between_allocations() {
        let (t, pd) = table();
        let a = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        let b = t.reg_mr(
            &pd,
            100,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        assert!(b.addr >= a.addr + a.len + 4096);
    }

    #[test]
    fn atomics() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 64, AccessFlags::FULL, PageKind::Anonymous, true, false);
        assert_eq!(mr.fetch_add(mr.addr, 5).unwrap(), 0);
        assert_eq!(mr.fetch_add(mr.addr, 3).unwrap(), 5);
        assert_eq!(mr.compare_swap(mr.addr, 8, 100).unwrap(), 8);
        assert_eq!(
            mr.compare_swap(mr.addr, 8, 200).unwrap(),
            100,
            "CAS failed, old returned"
        );
        assert_eq!(mr.fetch_add(mr.addr, 0).unwrap(), 100);
    }

    fn backed(len: u64) -> Rc<Mr> {
        let (t, pd) = table();
        t.reg_mr(
            &pd,
            len,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        )
    }

    /// `(start, len)` of every extent of a backed MR, ascending.
    fn extents(mr: &Mr) -> Vec<(u64, usize)> {
        let backing = mr.backing.borrow();
        let store = backing.as_ref().expect("backed MR");
        store
            .starts
            .iter()
            .zip(&store.data)
            .map(|(&k, v)| (k, v.len()))
            .collect()
    }

    /// Every shape of write against a flat reference, with the extent
    /// layout each one must leave (the complexity contract is structural:
    /// a write lands in the extent that reaches it, never in a rebuilt one).
    #[test]
    fn writes_grow_extents_in_place() {
        let mr = backed(1024);
        let mut flat = vec![0u8; 1024];
        let mut stamp = 0u8;
        let mut put = |off: usize, len: usize, want: &[(u64, usize)]| {
            stamp += 1;
            let data = vec![stamp; len];
            mr.write(mr.addr + off as u64, &data).unwrap();
            flat[off..off + len].copy_from_slice(&data);
            assert_eq!(extents(&mr), want, "after write [{off}, {})", off + len);
            assert_eq!(mr.read(mr.addr, 1024).unwrap(), flat);
            let stored: usize = want.iter().map(|&(_, n)| n).sum();
            assert_eq!(mr.stored_bytes(), stored as u64);
        };
        put(100, 10, &[(100, 10)]); // fresh range
        put(110, 10, &[(100, 20)]); // adjacent, ascending: grows
        put(115, 15, &[(100, 30)]); // overlaps the tail: grows
        put(105, 3, &[(100, 30)]); // contained: overwritten in place
        put(500, 0, &[(100, 30)]); // zero-length: nothing
        put(90, 10, &[(90, 10), (100, 30)]); // adjacent, descending: touches, stays apart
        put(95, 10, &[(90, 40)]); // overlaps both: successor's tail moves over
        put(200, 10, &[(90, 40), (200, 10)]);
        put(220, 10, &[(90, 40), (200, 10), (220, 10)]);
        put(240, 10, &[(90, 40), (200, 10), (220, 10), (240, 10)]);
        put(205, 40, &[(90, 40), (200, 50)]); // bridges two holes, spans three extents
        put(260, 10, &[(90, 40), (200, 50), (260, 10)]);
        put(250, 10, &[(90, 40), (200, 60), (260, 10)]); // fills the hole exactly
        put(255, 10, &[(90, 40), (200, 70)]);
        put(398, 4, &[(90, 40), (200, 70), (398, 4)]);
        put(396, 12, &[(90, 40), (200, 70), (396, 12)]); // swallows a successor whole
        assert!(mr.has_data_in(mr.addr + 129, 71) && !mr.has_data_in(mr.addr + 130, 70));
    }

    #[test]
    fn zero_len_range_has_no_data() {
        let mr = backed(64);
        mr.write(mr.addr, &[7; 10]).unwrap();
        assert!(mr.has_data_in(mr.addr + 5, 1));
        assert!(
            !mr.has_data_in(mr.addr + 5, 0),
            "an empty range holds no bytes"
        );
        assert!(!mr.has_data_in(mr.addr + 10, 0));
    }

    /// The post-write check sees a broken neighbourhood (here an extent
    /// overlapping its successor) even when the write itself is in place.
    #[test]
    #[should_panic(expected = "MR extent index out of order")]
    fn overlapping_neighbour_trips_the_checker() {
        let mut store = SparseBytes {
            starts: vec![0, 5],
            data: vec![vec![1; 10], vec![2; 10]],
        };
        store.write(0, &[3]);
    }

    /// The memcache pattern at full size: 65 536 adjacent 64 B writes fill
    /// a 4 MiB arena as one extent, moving 4 MiB in all. Rebuilding the
    /// extent per write (what this store replaced) moves ~137 GB here, so
    /// the wall bound only has to tell seconds from minutes.
    #[test]
    fn adjacent_writes_are_linear() {
        const ARENA: usize = 4 << 20;
        let mr = backed(ARENA as u64);
        let flat: Vec<u8> = (0..ARENA).map(|i| (i / 64 * 31 + i % 64) as u8).collect();
        let t = std::time::Instant::now();
        for (i, slot) in flat.chunks(64).enumerate() {
            mr.write(mr.addr + 64 * i as u64, slot).unwrap();
        }
        let wall = t.elapsed();
        assert_eq!(extents(&mr), [(0, ARENA)]);
        assert_eq!(mr.stored_bytes(), ARENA as u64);
        assert_eq!(mr.read(mr.addr, ARENA as u64).unwrap(), flat);
        assert!(wall.as_secs() < 5, "65 536 adjacent writes took {wall:?}");
    }

    #[test]
    fn atomic_requires_8_byte_room() {
        let (t, pd) = table();
        let mr = t.reg_mr(&pd, 8, AccessFlags::FULL, PageKind::Anonymous, true, false);
        assert!(mr.fetch_add(mr.addr + 4, 1).is_err());
    }
}
