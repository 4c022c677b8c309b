//! The per-context memory cache (§IV-E) with the isolation scheme of
//! §VI-C.
//!
//! RDMA-enabled memory is pooled as a set of identically sized MRs
//! (4 MiB each — large enough to avoid the many-small-MRs slowdown LITE
//! observed). Allocation is arena-style inside each MR: a bump pointer and
//! a live-allocation count; when the count drops to zero the arena resets.
//! If no arena has room, a new MR is registered (grow); idle arenas beyond
//! `keep_idle` are deregistered by the context timer (shrink). The
//! occupy/in-use split is exactly what Figure 11c plots.
//!
//! Isolation mode places every arena in the high address range with guard
//! gaps, so out-of-bounds access from application bugs faults in the
//! simulated MR bounds check rather than corrupting a neighbour (§VI-C).

use std::cell::RefCell;
use std::rc::Rc;

use xrdma_rnic::mem::Pd;
use xrdma_rnic::{AccessFlags, Mr, Rnic, VerbsError};

use crate::config::MemCacheConfig;
use crate::error::XrdmaError;

/// One pooled MR with bump-allocation state.
struct Arena {
    mr: Rc<Mr>,
    bump: u64,
    live: u32,
}

impl Arena {
    fn fits(&self, len: u64) -> bool {
        self.bump + len <= self.mr.len
    }
}

/// A buffer handed out by the cache. Return it with
/// [`MemCache::release`]; the pool tracks arenas by MR key.
#[derive(Clone, Copy, Debug)]
pub struct McBuf {
    pub addr: u64,
    pub len: u64,
    pub lkey: u32,
    pub rkey: u32,
}

/// The memory cache.
pub struct MemCache {
    rnic: Rc<Rnic>,
    pd: Rc<Pd>,
    cfg: MemCacheConfig,
    page_kind: xrdma_rnic::PageKind,
    arenas: RefCell<Vec<Arena>>,
    /// Bytes handed out and not yet released.
    in_use: std::cell::Cell<u64>,
    /// Cumulative registrations (stats).
    grows: std::cell::Cell<u64>,
    shrinks: std::cell::Cell<u64>,
    /// Host CPU cost incurred by registrations (charged by the caller).
    pending_reg_cost: std::cell::Cell<u64>,
    /// Bounce buffer of [`MemCache::copy`], grown to the largest eager body.
    scratch: RefCell<Vec<u8>>,
}

impl MemCache {
    pub fn new(
        rnic: Rc<Rnic>,
        pd: Rc<Pd>,
        cfg: MemCacheConfig,
        page_kind: xrdma_rnic::PageKind,
    ) -> MemCache {
        let mc = MemCache {
            rnic,
            pd,
            cfg,
            page_kind,
            arenas: RefCell::new(Vec::new()),
            in_use: std::cell::Cell::new(0),
            grows: std::cell::Cell::new(0),
            shrinks: std::cell::Cell::new(0),
            pending_reg_cost: std::cell::Cell::new(0),
            scratch: RefCell::new(Vec::new()),
        };
        // Warm pool: register the first arena at context startup so the
        // first connection's buffers don't pay registration on the data
        // path (production middlewares pre-register at init).
        if mc.cfg.mr_bytes > 0 {
            if let Ok(b) = mc.alloc(1) {
                mc.release(&b);
            }
        }
        mc
    }

    /// Allocate an RDMA-enabled buffer of `len` bytes.
    ///
    /// Oversized requests (> one arena) get a dedicated right-sized MR —
    /// it participates in release/shrink like any arena.
    pub fn alloc(&self, len: u64) -> Result<McBuf, XrdmaError> {
        if len == 0 {
            return Err(XrdmaError::BadConfig("zero-length allocation"));
        }
        let mut arenas = self.arenas.borrow_mut();
        // First fit among existing arenas.
        for a in arenas.iter_mut() {
            if a.fits(len) {
                let addr = a.mr.addr + a.bump;
                a.bump += len;
                a.live += 1;
                self.in_use.set(self.in_use.get() + len);
                return Ok(McBuf {
                    addr,
                    len,
                    lkey: a.mr.lkey,
                    rkey: a.mr.rkey,
                });
            }
        }
        // Grow: register a new arena.
        if self.cfg.max_mrs > 0 && arenas.len() >= self.cfg.max_mrs {
            return Err(XrdmaError::OutOfMemory);
        }
        let mr_len = self.cfg.mr_bytes.max(len);
        let mr = self.rnic.reg_mr(
            &self.pd,
            mr_len,
            AccessFlags::FULL,
            self.page_kind,
            self.cfg.backed,
            self.cfg.isolation,
        );
        self.pending_reg_cost.set(
            self.pending_reg_cost.get() + self.rnic.reg_mr_cost(mr_len, self.page_kind).as_nanos(),
        );
        self.grows.set(self.grows.get() + 1);
        let addr = mr.addr;
        let (lkey, rkey) = (mr.lkey, mr.rkey);
        arenas.push(Arena {
            mr,
            bump: len,
            live: 1,
        });
        self.in_use.set(self.in_use.get() + len);
        Ok(McBuf {
            addr,
            len,
            lkey,
            rkey,
        })
    }

    /// Return a buffer. Its bytes leave the arena's sparse backing (the
    /// range reads as zeroes again). When an arena's live count reaches
    /// zero its bump pointer resets, making the whole arena reusable.
    pub fn release(&self, buf: &McBuf) {
        let mut arenas = self.arenas.borrow_mut();
        let Some(a) = arenas.iter_mut().find(|a| a.mr.lkey == buf.lkey) else {
            // Arena already shrunk away; just fix accounting.
            self.in_use.set(self.in_use.get().saturating_sub(buf.len));
            return;
        };
        debug_assert!(a.live > 0, "double release");
        let discarded = a.mr.discard(buf.addr, buf.len);
        debug_assert!(discarded.is_ok(), "a cache buffer lies in its arena");
        a.live = a.live.saturating_sub(1);
        if a.live == 0 {
            a.bump = 0;
        }
        self.in_use.set(self.in_use.get().saturating_sub(buf.len));
    }

    /// Shrink pass (run from the context timer): deregister idle arenas
    /// beyond `keep_idle`. Returns the number reclaimed.
    pub fn shrink(&self) -> usize {
        let mut arenas = self.arenas.borrow_mut();
        let mut idle: Vec<usize> = arenas
            .iter()
            .enumerate()
            .filter(|(_, a)| a.live == 0)
            .map(|(i, _)| i)
            .collect();
        if idle.len() <= self.cfg.keep_idle {
            return 0;
        }
        let excess = idle.len() - self.cfg.keep_idle;
        let mut reclaimed = 0;
        // Remove from the back to keep indices valid.
        idle.reverse();
        for &i in idle.iter().take(excess) {
            let a = arenas.remove(i);
            self.rnic.dereg_mr(&a.mr);
            reclaimed += 1;
        }
        self.shrinks.set(self.shrinks.get() + reclaimed as u64);
        reclaimed
    }

    /// Registered ("occupy") bytes — the outer line of Fig 11c.
    pub fn occupied_bytes(&self) -> u64 {
        self.arenas.borrow().iter().map(|a| a.mr.len).sum()
    }

    /// Handed-out ("in-use") bytes — the inner line of Fig 11c.
    pub fn in_use_bytes(&self) -> u64 {
        self.in_use.get()
    }

    pub fn arena_count(&self) -> usize {
        self.arenas.borrow().len()
    }

    pub fn grow_count(&self) -> u64 {
        self.grows.get()
    }

    pub fn shrink_count(&self) -> u64 {
        self.shrinks.get()
    }

    /// Drain the host-CPU registration cost accumulated since the last
    /// call (the context charges it to its thread).
    pub fn take_reg_cost(&self) -> xrdma_sim::Dur {
        xrdma_sim::Dur::nanos(self.pending_reg_cost.replace(0))
    }

    /// The arena MR a cache buffer lives in.
    fn mr_of(&self, buf: &McBuf) -> Result<Rc<Mr>, XrdmaError> {
        let arenas = self.arenas.borrow();
        let a = arenas.iter().find(|a| a.mr.lkey == buf.lkey);
        a.map(|a| a.mr.clone()).ok_or(XrdmaError::OutOfMemory)
    }

    /// Write real bytes into a cache buffer (backed mode only; bounds are
    /// enforced by the MR).
    pub fn write(&self, buf: &McBuf, off: u64, data: &[u8]) -> Result<(), XrdmaError> {
        debug_assert!(off + data.len() as u64 <= buf.len, "write past buffer");
        Ok(self.mr_of(buf)?.write(buf.addr + off, data)?)
    }

    /// Read `out.len()` bytes of a cache buffer into the caller's buffer
    /// (the per-message path: no allocation).
    pub fn read_into(&self, buf: &McBuf, off: u64, out: &mut [u8]) -> Result<(), XrdmaError> {
        Ok(self.mr_of(buf)?.read_into(buf.addr + off, out)?)
    }

    /// Read bytes back out of a cache buffer into a fresh one.
    pub fn read(&self, buf: &McBuf, off: u64, len: u64) -> Result<Vec<u8>, XrdmaError> {
        Ok(self.mr_of(buf)?.read(buf.addr + off, len)?)
    }

    /// Copy `len` bytes from `src[src_off..]` to the start of `dst` through
    /// the cache's one reused scratch buffer (eager receive: slot → staged
    /// body; the two may share an MR, so there is no borrowing one into
    /// the other). `len` comes off the wire: it is held to both buffers
    /// before the scratch grows to it.
    ///
    /// Zeroes onto zeroes is a no-op: when neither range holds written
    /// bytes the destination already reads as what it would receive, so a
    /// size-only body materialises nothing. Only that case may skip — a
    /// destination reused after an arena reset can hold stale bytes, and
    /// those must still be overwritten (DESIGN.md design note 13). A
    /// receive slot holds none: the core [`MemCache::discard`]s it before
    /// every repost.
    pub fn copy(&self, src: &McBuf, src_off: u64, dst: &McBuf, len: u64) -> Result<(), XrdmaError> {
        if src_off.saturating_add(len) > src.len || len > dst.len {
            return Err(VerbsError::AccessError("copy past cache buffer").into());
        }
        let (from, to) = (src.addr + src_off, dst.addr);
        let src_mr = self.mr_of(src)?;
        src_mr.check(from, len)?;
        let dst_mr = self.mr_of(dst)?;
        dst_mr.check(to, len)?;
        if !src_mr.has_data_in(from, len) && !dst_mr.has_data_in(to, len) {
            return Ok(());
        }
        let mut scratch = self.scratch.borrow_mut();
        scratch.resize(len as usize, 0);
        src_mr.read_into(from, &mut scratch)?;
        Ok(dst_mr.write(to, &scratch)?)
    }

    /// Forget a buffer's bytes: it reads as zeroes again and its arena's
    /// sparse backing gives them back. The core calls this when it re-arms
    /// a consumed receive slot, after the message has been copied out.
    pub fn discard(&self, buf: &McBuf) -> Result<(), XrdmaError> {
        Ok(self.mr_of(buf)?.discard(buf.addr, buf.len)?)
    }

    /// Bytes the arenas' sparse backing actually holds (diagnostics).
    pub fn stored_bytes(&self) -> u64 {
        self.arenas
            .borrow()
            .iter()
            .map(|a| a.mr.stored_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrdma_fabric::{Fabric, FabricConfig, NodeId};
    use xrdma_rnic::{PageKind, RnicConfig};
    use xrdma_sim::{SimRng, World};

    fn cache(cfg: MemCacheConfig) -> MemCache {
        let w = World::new();
        let rng = SimRng::new(1);
        let fabric = Fabric::new(w, FabricConfig::pair(), &rng);
        let rnic = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("n"));
        let pd = rnic.alloc_pd();
        MemCache::new(rnic, pd, cfg, PageKind::Anonymous)
    }

    fn small_cfg() -> MemCacheConfig {
        MemCacheConfig {
            mr_bytes: 1024,
            keep_idle: 1,
            max_mrs: 0,
            isolation: true,
            backed: true,
        }
    }

    #[test]
    fn alloc_release_accounting() {
        let mc = cache(small_cfg());
        let a = mc.alloc(100).unwrap();
        let b = mc.alloc(200).unwrap();
        assert_eq!(mc.in_use_bytes(), 300);
        assert_eq!(mc.occupied_bytes(), 1024, "one (warm) arena");
        assert_eq!(mc.arena_count(), 1);
        mc.release(&a);
        assert_eq!(mc.in_use_bytes(), 200);
        mc.release(&b);
        assert_eq!(mc.in_use_bytes(), 0);
        // Arena resets: full capacity available again.
        let c = mc.alloc(1024).unwrap();
        assert_eq!(mc.arena_count(), 1, "reused the reset arena");
        mc.release(&c);
    }

    #[test]
    fn grows_when_full() {
        let mc = cache(small_cfg());
        let a = mc.alloc(800).unwrap();
        let _b = mc.alloc(800).unwrap();
        // Warm arena holds the first 800; the second needed a grow.
        assert_eq!(mc.arena_count(), 2);
        assert_eq!(mc.grow_count(), 2);
        assert!(mc.take_reg_cost().as_nanos() > 0, "registration cost owed");
        mc.release(&a);
    }

    #[test]
    fn oversized_gets_dedicated_mr() {
        let mc = cache(small_cfg());
        let big = mc.alloc(10_000).unwrap();
        assert_eq!(big.len, 10_000);
        // Warm arena (1024) + the dedicated oversized MR.
        assert_eq!(mc.occupied_bytes(), 1024 + 10_000);
        assert_eq!(mc.arena_count(), 2);
        mc.release(&big);
    }

    #[test]
    fn shrink_reclaims_idle_arenas() {
        let mc = cache(small_cfg());
        let bufs: Vec<_> = (0..4).map(|_| mc.alloc(900).unwrap()).collect();
        assert_eq!(mc.arena_count(), 4);
        for b in &bufs {
            mc.release(b);
        }
        let reclaimed = mc.shrink();
        assert_eq!(reclaimed, 3, "keep_idle = 1");
        assert_eq!(mc.arena_count(), 1);
        assert_eq!(mc.shrink_count(), 3);
        assert_eq!(mc.shrink(), 0, "second pass is a no-op");
    }

    #[test]
    fn shrink_spares_live_arenas() {
        let mc = cache(small_cfg());
        let keep = mc.alloc(900).unwrap();
        let tmp = mc.alloc(900).unwrap();
        let tmp2 = mc.alloc(900).unwrap();
        mc.release(&tmp);
        mc.release(&tmp2);
        mc.shrink();
        assert!(mc.arena_count() >= 2, "live arena + keep_idle");
        // The kept buffer is still usable.
        mc.write(&keep, 0, b"still here").unwrap();
        assert_eq!(mc.read(&keep, 0, 10).unwrap(), b"still here");
        mc.release(&keep);
    }

    #[test]
    fn max_mrs_cap() {
        let mut cfg = small_cfg();
        cfg.max_mrs = 2;
        let mc = cache(cfg);
        let _a = mc.alloc(900).unwrap();
        let _b = mc.alloc(900).unwrap();
        assert!(matches!(mc.alloc(900), Err(XrdmaError::OutOfMemory)));
    }

    #[test]
    fn isolation_places_high() {
        let mc = cache(small_cfg());
        let b = mc.alloc(64).unwrap();
        assert!(b.addr > 0x7000_0000_0000, "high address range (§VI-C)");
    }

    #[test]
    fn data_roundtrip() {
        let mc = cache(small_cfg());
        let b = mc.alloc(64).unwrap();
        mc.write(&b, 8, b"cached-bytes").unwrap();
        assert_eq!(mc.read(&b, 8, 12).unwrap(), b"cached-bytes");
        mc.release(&b);
    }

    #[test]
    fn copy_between_buffers_of_one_arena() {
        let mc = cache(small_cfg());
        let (slot, staged) = (mc.alloc(64).unwrap(), mc.alloc(12).unwrap());
        mc.write(&slot, 24, b"eager-body..").unwrap();
        mc.copy(&slot, 24, &staged, 12).unwrap();
        assert_eq!(mc.read(&staged, 0, 12).unwrap(), b"eager-body..");
        // A wire length that overruns either buffer is refused, not staged.
        assert!(mc.copy(&slot, 60, &staged, 12).is_err());
        assert!(mc.copy(&slot, 0, &staged, 13).is_err());
        assert!(mc.copy(&slot, 24, &staged, u64::MAX).is_err());
    }

    /// A released buffer's bytes leave the arena: the reset arena hands
    /// the same address out again, reading as zeroes. The zero-skip's
    /// trap: a destination that holds bytes must still be overwritten,
    /// so an empty source alone must not skip the copy.
    #[test]
    fn copy_onto_reused_buffer_clears_stale_bytes() {
        let mc = cache(small_cfg());
        let dirty = mc.alloc(64).unwrap();
        mc.write(&dirty, 0, &[0xAB; 64]).unwrap();
        mc.release(&dirty);
        assert_eq!(mc.stored_bytes(), 0, "release discards the bytes");
        let dst = mc.alloc(64).unwrap();
        assert_eq!(
            dst.addr, dirty.addr,
            "the reset arena hands out the same address"
        );
        assert_eq!(mc.read(&dst, 0, 64).unwrap(), vec![0; 64]);
        mc.write(&dst, 0, &[0xCD; 64]).unwrap();
        let never_written = mc.alloc(64).unwrap();
        mc.copy(&never_written, 0, &dst, 64).unwrap();
        assert_eq!(mc.read(&dst, 0, 64).unwrap(), vec![0; 64]);
    }

    /// Size-only eager RPCs materialise only their headers: each receive
    /// slot stores at most one header, and the staged bodies store nothing.
    #[test]
    fn size_only_eager_rpcs_store_only_headers() {
        use crate::channel::CTRL_SLACK;
        use crate::proto::{BASE_LEN, LARGE_LEN, MUX_LEN, TRACE_LEN};
        use crate::{XrdmaChannel, XrdmaConfig, XrdmaContext};
        use std::cell::Cell;
        use xrdma_rnic::{CmConfig, ConnManager};
        use xrdma_sim::Dur;

        const RPCS: u32 = 5_000;
        const DEPTH: u32 = 8;
        let w = World::new();
        let rng = SimRng::new(3);
        let fabric = Fabric::new(w.clone(), FabricConfig::pair(), &rng);
        let cm = ConnManager::new(w.clone(), CmConfig::default(), rng.fork("cm"));
        let cfg = XrdmaConfig::default();
        let node = |n| {
            let cfg = cfg.clone();
            XrdmaContext::on_new_node(&fabric, &cm, NodeId(n), RnicConfig::default(), cfg, &rng)
        };
        let (client, server) = (node(0), node(1));
        server.listen(7, |ch| {
            ch.set_on_request(|ch, msg, tok| ch.respond_size(tok, msg.len).unwrap())
        });
        let chan: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::default();
        let c2 = chan.clone();
        client.connect(NodeId(1), 7, move |r| *c2.borrow_mut() = Some(r.unwrap()));
        w.run_for(Dur::millis(20));
        let ch = chan.borrow().clone().expect("connected");

        // Closed loop, DEPTH outstanding: each reply sends the next request.
        fn call(ch: &Rc<XrdmaChannel>, left: Rc<Cell<u32>>, done: Rc<Cell<u32>>) {
            if left.get() == 0 {
                return;
            }
            left.set(left.get() - 1);
            ch.send_request_size(64, move |ch, _| {
                done.set(done.get() + 1);
                call(ch, left, done);
            })
            .unwrap();
        }
        let (left, done) = (Rc::new(Cell::new(RPCS)), Rc::new(Cell::new(0)));
        for _ in 0..DEPTH {
            call(&ch, left.clone(), done.clone());
        }
        w.run_for(Dur::millis(200));
        assert_eq!(done.get(), RPCS);

        let slots = (cfg.inflight_depth + CTRL_SLACK) as u64;
        let max_hdr = (BASE_LEN + LARGE_LEN + TRACE_LEN + MUX_LEN) as u64;
        for side in [&client, &server] {
            let stored = side.memcache().stored_bytes();
            assert!(
                stored <= slots * max_hdr,
                "{stored} B stored for {slots} receive slots of ≤ {max_hdr} B headers"
            );
        }
    }

    #[test]
    fn zero_len_rejected() {
        let mc = cache(small_cfg());
        assert!(mc.alloc(0).is_err());
    }

    #[test]
    fn conservation_invariant_under_churn() {
        // in_use <= occupied at every step; everything released → in_use 0.
        let mc = cache(MemCacheConfig {
            mr_bytes: 4096,
            keep_idle: 2,
            max_mrs: 0,
            isolation: false,
            backed: false,
        });
        let mut rng = SimRng::new(99);
        let mut live: Vec<McBuf> = Vec::new();
        for _ in 0..500 {
            if live.is_empty() || rng.chance(0.6) {
                let len = rng.range(1, 3000);
                live.push(mc.alloc(len).unwrap());
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                let b = live.swap_remove(i);
                mc.release(&b);
            }
            assert!(mc.in_use_bytes() <= mc.occupied_bytes());
            if rng.chance(0.05) {
                mc.shrink();
            }
        }
        for b in live.drain(..) {
            mc.release(&b);
        }
        assert_eq!(mc.in_use_bytes(), 0);
    }
}
