//! Pangu model: block servers fan each front-end write out to [`REPLICAS`]
//! chunk servers over full-mesh X-RDMA channels and acknowledge when all
//! replicas persist — the Ceph-like structure of §II-C, and the source of
//! the full-mesh memory-footprint math of §III Issue 1
//! (`N*M*blockserver_number*depth*message_size`).

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, NodeId};
use xrdma_rnic::{ConnManager, RnicConfig};
use xrdma_sim::stats::{Histogram, SeriesKind, TimeSeries};
use xrdma_sim::{Dur, SimRng};

/// Copies per write (paper: "two or three copies").
pub const REPLICAS: usize = 3;
/// CM service number for the block→chunk mesh.
pub const SVC: u16 = 100;
/// IOPS time-series bucket.
pub const SERIES_BUCKET: Dur = Dur::millis(100);

/// Cluster shape and service parameters.
#[derive(Clone, Debug)]
pub struct PanguConfig {
    pub block_servers: u32,
    pub chunk_servers: u32,
    /// Chunk-server persistence time per write (media + checksum).
    pub chunk_service: Dur,
    /// Channels each block server opens to each chunk server (models the
    /// per-thread meshes behind the paper's thousands of connections per
    /// machine: N block threads × M chunk threads).
    pub channels_per_peer: u32,
}

impl Default for PanguConfig {
    fn default() -> Self {
        PanguConfig {
            block_servers: 4,
            chunk_servers: 8,
            chunk_service: Dur::micros(12),
            channels_per_peer: 1,
        }
    }
}

/// One block server: owns a context and channels to every chunk server.
pub struct BlockServer {
    pub ctx: Rc<XrdmaContext>,
    chunks: RefCell<Vec<Rc<XrdmaChannel>>>,
    rr: Cell<usize>,
    /// Completed front-end writes.
    pub completed: Cell<u64>,
    /// Failed writes (channel loss mid-replication).
    pub failed: Cell<u64>,
    pub latency: RefCell<Histogram>,
    pub iops_series: RefCell<TimeSeries>,
    me: RefCell<Weak<BlockServer>>,
}

impl BlockServer {
    fn new(ctx: Rc<XrdmaContext>) -> Rc<BlockServer> {
        let bs = Rc::new(BlockServer {
            ctx,
            chunks: RefCell::new(Vec::new()),
            rr: Cell::new(0),
            completed: Cell::new(0),
            failed: Cell::new(0),
            latency: RefCell::new(Histogram::new()),
            iops_series: RefCell::new(TimeSeries::new(SERIES_BUCKET.as_nanos(), SeriesKind::Sum)),
            me: RefCell::new(Weak::new()),
        });
        *bs.me.borrow_mut() = Rc::downgrade(&bs);
        bs
    }

    /// Channels currently connected to chunk servers.
    pub fn chunk_channels(&self) -> usize {
        self.chunks
            .borrow()
            .iter()
            .filter(|c| !c.is_closed())
            .count()
    }

    /// Submit one front-end write of `size` bytes; `done(ok)` fires when
    /// all replicas acknowledged (or the write failed).
    pub fn submit_write(self: &Rc<Self>, size: u64, done: impl FnOnce(bool) + 'static) {
        let chunks = self.chunks.borrow();
        let live: Vec<_> = chunks.iter().filter(|c| !c.is_closed()).cloned().collect();
        drop(chunks);
        if live.is_empty() {
            self.failed.set(self.failed.get() + 1);
            done(false);
            return;
        }
        // Pick up to REPLICAS channels on distinct peers, round-robin.
        let mut picked: Vec<Rc<XrdmaChannel>> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        for k in 0..live.len() {
            let ch = &live[(self.rr.get() + k) % live.len()];
            if !seen.contains(&ch.peer.0) {
                seen.push(ch.peer.0);
                picked.push(ch.clone());
                if picked.len() == REPLICAS {
                    break;
                }
            }
        }
        let replicas = picked.len();
        let world = self.ctx.world().clone();
        let t0 = world.now();
        let remaining = Rc::new(Cell::new(replicas as u32));
        let any_failed = Rc::new(Cell::new(false));
        let done = Rc::new(RefCell::new(Some(done)));
        let me = self.me.borrow().clone();
        for ch in &picked {
            let remaining = remaining.clone();
            let any_failed = any_failed.clone();
            let done2 = done.clone();
            let world = world.clone();
            let me = me.clone();
            let r = ch.send_request_size(size, move |_, resp| {
                let done = done2;
                if resp.is_error() {
                    any_failed.set(true);
                }
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    let ok = !any_failed.get();
                    if let Some(bs) = me.upgrade() {
                        if ok {
                            bs.completed.set(bs.completed.get() + 1);
                            let lat = world.now().since(t0);
                            bs.latency.borrow_mut().record(lat.as_nanos());
                            bs.iops_series.borrow_mut().record(world.now().nanos(), 1.0);
                        } else {
                            bs.failed.set(bs.failed.get() + 1);
                        }
                    }
                    if let Some(cb) = done.borrow_mut().take() {
                        cb(ok);
                    }
                }
            });
            if r.is_err() {
                self.failed.set(self.failed.get() + 1);
                if let Some(cb) = done.borrow_mut().take() {
                    cb(false);
                }
                return;
            }
        }
        self.rr.set(self.rr.get() + 1);
    }

    /// Tear down all chunk channels (restart simulation).
    pub fn disconnect_all(&self) {
        for ch in self.chunks.borrow().iter() {
            ch.close();
        }
        self.chunks.borrow_mut().clear();
    }

    /// (Re-)connect to the given chunk-server nodes, sequentially — one
    /// connect at a time, as a single recovery thread would; `dup`
    /// channels per peer (peer-major order, like per-peer recovery).
    /// `done` fires when the mesh is complete.
    pub fn connect_all_dup(
        self: &Rc<Self>,
        chunk_nodes: Vec<NodeId>,
        svc: u16,
        dup: u32,
        done: impl FnOnce() + 'static,
    ) {
        let mut queue = std::collections::VecDeque::new();
        for node in chunk_nodes {
            for _ in 0..dup.max(1) {
                queue.push_back(node);
            }
        }
        fn step(
            bs: Rc<BlockServer>,
            mut nodes: std::collections::VecDeque<NodeId>,
            svc: u16,
            done: Box<dyn FnOnce()>,
        ) {
            let Some(node) = nodes.pop_front() else {
                done();
                return;
            };
            let bs2 = bs.clone();
            bs.ctx.connect(node, svc, move |r| {
                if let Ok(ch) = r {
                    bs2.chunks.borrow_mut().push(ch);
                }
                step(bs2, nodes, svc, done);
            });
        }
        step(
            self.me.borrow().upgrade().expect("self"),
            queue,
            svc,
            Box::new(done),
        );
    }

    /// One channel per peer (the common case).
    pub fn connect_all(
        self: &Rc<Self>,
        chunk_nodes: Vec<NodeId>,
        svc: u16,
        done: impl FnOnce() + 'static,
    ) {
        self.connect_all_dup(chunk_nodes, svc, 1, done);
    }
}

/// The deployed cluster.
pub struct Pangu {
    pub cfg: PanguConfig,
    pub blocks: Vec<Rc<BlockServer>>,
    pub chunk_ctxs: Vec<Rc<XrdmaContext>>,
    pub chunk_nodes: Vec<NodeId>,
    /// Writes served by each chunk server.
    pub chunk_writes: Rc<Cell<u64>>,
}

impl Pangu {
    /// Deploy block servers on nodes `[0, B)` and chunk servers on
    /// `[B, B+C)`, wire the full mesh, and return once connects are
    /// *issued* (run the world to let them land).
    pub fn deploy(
        fabric: &Rc<Fabric>,
        cm: &Rc<ConnManager>,
        cfg: PanguConfig,
        rnic_cfg: RnicConfig,
        xcfg: XrdmaConfig,
        rng: &SimRng,
    ) -> Pangu {
        let chunk_writes = Rc::new(Cell::new(0u64));
        let chunk_service = cfg.chunk_service;

        // Chunk servers.
        let mut chunk_ctxs = Vec::new();
        let mut chunk_nodes = Vec::new();
        for i in 0..cfg.chunk_servers {
            let node = NodeId(cfg.block_servers + i);
            let ctx =
                XrdmaContext::on_new_node(fabric, cm, node, rnic_cfg.clone(), xcfg.clone(), rng);
            let writes = chunk_writes.clone();
            // The context owns both handlers, so they hold it weakly: a
            // strong capture is a cycle that outlives the world.
            let cctx = Rc::downgrade(&ctx);
            ctx.listen(SVC, move |ch| {
                let writes = writes.clone();
                let cctx = cctx.clone();
                ch.set_on_request(move |ch2, msg, token| {
                    // Persist: media service time, then acknowledge.
                    writes.set(writes.get() + 1);
                    let _ = msg.len;
                    if let Some(cctx) = cctx.upgrade() {
                        cctx.thread().charge(chunk_service);
                    }
                    ch2.respond_size(token, 32).ok();
                });
            });
            chunk_ctxs.push(ctx);
            chunk_nodes.push(node);
        }

        // Block servers, meshed to every chunk server.
        let mut blocks = Vec::new();
        for b in 0..cfg.block_servers {
            let node = NodeId(b);
            let ctx =
                XrdmaContext::on_new_node(fabric, cm, node, rnic_cfg.clone(), xcfg.clone(), rng);
            let bs = BlockServer::new(ctx);
            bs.connect_all_dup(chunk_nodes.clone(), SVC, cfg.channels_per_peer, || {});
            blocks.push(bs);
        }

        Pangu {
            cfg,
            blocks,
            chunk_ctxs,
            chunk_nodes,
            chunk_writes,
        }
    }

    /// Whole-cluster completed writes.
    pub fn total_completed(&self) -> u64 {
        self.blocks.iter().map(|b| b.completed.get()).sum()
    }

    /// Aggregate IOPS rows (`(t_secs, completed_in_bucket)`), summed over
    /// block servers — the Fig 8 series.
    pub fn aggregate_iops_rows(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for b in &self.blocks {
            for (i, (t, v)) in b.iops_series.borrow().rows().into_iter().enumerate() {
                if i >= out.len() {
                    out.push((t, v));
                } else {
                    out[i].1 += v;
                }
            }
        }
        out
    }

    /// p99 write latency across the cluster, µs.
    pub fn p99_write_us(&self) -> f64 {
        let mut h = Histogram::new();
        for b in &self.blocks {
            h.merge(&b.latency.borrow());
        }
        h.percentile(99.0) as f64 / 1e3
    }

    /// Mesh fully connected?
    pub fn mesh_complete(&self) -> bool {
        let want = (self.cfg.chunk_servers * self.cfg.channels_per_peer.max(1)) as usize;
        self.blocks.iter().all(|b| b.chunk_channels() == want)
    }

    /// Total QPs across all block-server NICs (Fig 11a's gauge).
    pub fn block_qp_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ctx.rnic().qp_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrdma_fabric::FabricConfig;
    use xrdma_rnic::CmConfig;
    use xrdma_sim::World;

    fn deploy(cfg: PanguConfig) -> (Rc<World>, Pangu) {
        let world = World::new();
        let rng = SimRng::new(9);
        let fabric = Fabric::new(world.clone(), FabricConfig::pod(4, 4, 2), &rng);
        let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
        let pangu = Pangu::deploy(
            &fabric,
            &cm,
            cfg,
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        );
        (world, pangu)
    }

    #[test]
    fn mesh_comes_up() {
        let (world, pangu) = deploy(PanguConfig {
            block_servers: 4,
            chunk_servers: 8,
            ..Default::default()
        });
        world.run_for(Dur::millis(200));
        assert!(pangu.mesh_complete(), "4×8 full mesh established");
        // Each block server: 8 QPs; each chunk server: 4.
        assert_eq!(pangu.block_qp_count(), 32);
    }

    #[test]
    fn three_way_replication_write() {
        let (world, pangu) = deploy(PanguConfig::default());
        world.run_for(Dur::millis(200));
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        pangu.blocks[0].submit_write(128 * 1024, move |ok| {
            assert!(ok);
            d.set(true);
        });
        world.run_for(Dur::millis(50));
        assert!(done.get());
        assert_eq!(pangu.chunk_writes.get(), 3, "three replicas persisted");
        assert_eq!(pangu.total_completed(), 1);
        let p99 = pangu.p99_write_us();
        assert!(p99 > 40.0 && p99 < 2000.0, "write p99 {p99} µs");
    }

    #[test]
    fn sustained_load_all_blocks() {
        let (world, pangu) = deploy(PanguConfig::default());
        world.run_for(Dur::millis(200));
        for b in &pangu.blocks {
            for _ in 0..50 {
                b.submit_write(64 * 1024, |_| {});
            }
        }
        world.run_for(Dur::secs(2));
        assert_eq!(pangu.total_completed(), 200);
        assert_eq!(pangu.chunk_writes.get(), 600);
        let rows = pangu.aggregate_iops_rows();
        assert!(rows.iter().map(|&(_, v)| v).sum::<f64>() >= 200.0);
    }

    #[test]
    fn disconnect_then_reconnect_storm() {
        let (world, pangu) = deploy(PanguConfig::default());
        world.run_for(Dur::millis(200));
        assert!(pangu.mesh_complete());
        for b in &pangu.blocks {
            b.disconnect_all();
        }
        world.run_for(Dur::millis(10));
        assert!(!pangu.mesh_complete());
        let nodes = pangu.chunk_nodes.clone();
        for b in &pangu.blocks {
            b.connect_all(nodes.clone(), SVC, || {});
        }
        // Warm path: QP caches + resolution cache → fast recovery.
        world.run_for(Dur::millis(100));
        assert!(pangu.mesh_complete(), "mesh recovered");
        // Writes work again.
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        pangu.blocks[1].submit_write(128 * 1024, move |ok| {
            assert!(ok);
            d.set(true);
        });
        world.run_for(Dur::millis(50));
        assert!(done.get());
    }
}
