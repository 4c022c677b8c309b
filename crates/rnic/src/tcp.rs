//! A deliberately small TCP model.
//!
//! Three consumers, none of which need full TCP fidelity:
//!
//! * the **establishment-time comparison** (§III Issue 3: ~100 µs TCP vs
//!   ~4 ms `rdma_cm`),
//! * X-RDMA's **Mock** fallback (§VI-C: "temporarily switch to TCP" when
//!   the RDMA path misbehaves),
//! * XR-Ping's cross-stack reference measurements.
//!
//! The model: message-oriented connections over the fabric's lossy TCP
//! priority class, chunked at an MSS, with per-chunk kernel CPU cost and a
//! fixed stack-traversal delay each way. Loss recovery is not modelled
//! (documented simplification — the consumers above never congest the TCP
//! class); in-order delivery per connection comes from per-flow ECMP.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use bytes::Bytes;
use serde::Serialize;
use xrdma_fabric::packet::PRIO_TCP;
use xrdma_fabric::{Fabric, NodeId, Packet};
use xrdma_sim::{Dur, World};

use crate::engine::Rnic;

/// TCP model parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TcpConfig {
    /// Connect handshake latency (client-observed; §III: ~100 µs).
    pub connect_latency: Dur,
    /// OS kernel stack traversal per message, each way.
    pub stack_delay: Dur,
    /// Per-chunk CPU cost (copies, interrupts) at each end.
    pub per_chunk_cpu: Dur,
    /// Segment size on the wire.
    pub mss: u32,
    /// Wire header overhead per segment.
    pub hdr_bytes: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_latency: Dur::micros(100),
            stack_delay: Dur::micros(8),
            per_chunk_cpu: Dur::micros(2),
            mss: 16 * 1024,
            hdr_bytes: 66,
        }
    }
}

/// Wire segment for the TCP model.
#[derive(Debug)]
enum TcpSeg {
    Syn {
        svc: u16,
        client_conn: u64,
        src: NodeId,
    },
    SynAck {
        client_conn: u64,
        server_conn: u64,
    },
    Data {
        dst_conn: u64,
        msg_id: u64,
        off: u64,
        /// Bytes in this chunk (explicit because `data` may be size-only).
        len: u64,
        total: u64,
        last: bool,
        data: Option<Bytes>,
    },
}

/// One endpoint of an established TCP connection.
pub struct TcpConn {
    stack: Weak<TcpStack>,
    pub local_id: u64,
    remote_node: Cell<NodeId>,
    remote_conn: Cell<u64>,
    on_msg: RefCell<Option<Box<dyn Fn(u64, Option<Bytes>)>>>,
    /// Reassembly: (msg_id → received bytes).
    assembling: RefCell<HashMap<u64, u64>>,
    next_msg_id: Cell<u64>,
    pub established: Cell<bool>,
}

impl TcpConn {
    /// Register the message-arrival callback `(len, payload)`.
    pub fn set_on_msg(&self, f: impl Fn(u64, Option<Bytes>) + 'static) {
        *self.on_msg.borrow_mut() = Some(Box::new(f));
    }

    /// Send a message of `len` bytes (optionally with real payload bytes).
    pub fn send_msg(&self, len: u64, data: Option<Bytes>) {
        let Some(stack) = self.stack.upgrade() else {
            return;
        };
        let msg_id = self.next_msg_id.get();
        self.next_msg_id.set(msg_id + 1);
        stack.send_message(
            self.remote_node.get(),
            self.remote_conn.get(),
            msg_id,
            len,
            data,
        );
    }
}

/// Per-node TCP stack, piggybacking on the RNIC's fabric attachment via the
/// alternate-traffic sink.
pub struct TcpStack {
    world: Rc<World>,
    rnic: Rc<Rnic>,
    fabric: Rc<Fabric>,
    pub cfg: TcpConfig,
    listeners: RefCell<HashMap<u16, Box<dyn Fn(Rc<TcpConn>)>>>,
    conns: RefCell<HashMap<u64, Rc<TcpConn>>>,
    pending_connects: RefCell<HashMap<u64, Box<dyn FnOnce(Rc<TcpConn>)>>>,
    next_conn: Cell<u64>,
    me: RefCell<Weak<TcpStack>>,
    /// Messages delivered / bytes received (stats).
    pub msgs_received: Cell<u64>,
    pub bytes_received: Cell<u64>,
}

impl TcpStack {
    pub fn new(fabric: &Rc<Fabric>, rnic: &Rc<Rnic>, cfg: TcpConfig) -> Rc<TcpStack> {
        let stack = Rc::new(TcpStack {
            world: fabric.world().clone(),
            rnic: rnic.clone(),
            fabric: fabric.clone(),
            cfg,
            listeners: RefCell::new(HashMap::new()),
            conns: RefCell::new(HashMap::new()),
            pending_connects: RefCell::new(HashMap::new()),
            next_conn: Cell::new(1),
            me: RefCell::new(Weak::new()),
            msgs_received: Cell::new(0),
            bytes_received: Cell::new(0),
        });
        *stack.me.borrow_mut() = Rc::downgrade(&stack);
        let s = stack.clone();
        rnic.set_alt_sink(move |pkt| s.deliver(pkt));
        stack
    }

    pub fn node(&self) -> NodeId {
        self.rnic.node()
    }

    fn new_conn(&self) -> Rc<TcpConn> {
        let id = self.next_conn.get();
        self.next_conn.set(id + 1);
        let conn = Rc::new(TcpConn {
            stack: self.me.borrow().clone(),
            local_id: id,
            remote_node: Cell::new(NodeId(0)),
            remote_conn: Cell::new(0),
            on_msg: RefCell::new(None),
            assembling: RefCell::new(HashMap::new()),
            next_msg_id: Cell::new(0),
            established: Cell::new(false),
        });
        self.conns.borrow_mut().insert(id, conn.clone());
        conn
    }

    /// Listen for connections on a service number.
    pub fn listen(&self, svc: u16, on_conn: impl Fn(Rc<TcpConn>) + 'static) {
        self.listeners.borrow_mut().insert(svc, Box::new(on_conn));
    }

    /// Connect to `(server, svc)`; `done` fires with the connected conn
    /// after the handshake (~100 µs).
    pub fn connect(&self, server: NodeId, svc: u16, done: impl FnOnce(Rc<TcpConn>) + 'static) {
        let conn = self.new_conn();
        conn.remote_node.set(server);
        self.pending_connects
            .borrow_mut()
            .insert(conn.local_id, Box::new(done));
        // SYN carries 1/2 the handshake budget; SYN-ACK the rest. The extra
        // RTTs of a real 3-way handshake are folded into connect_latency.
        let seg = TcpSeg::Syn {
            svc,
            client_conn: conn.local_id,
            src: self.node(),
        };
        self.emit(server, seg, 64, self.cfg.connect_latency / 2);
    }

    fn emit(&self, dst: NodeId, seg: TcpSeg, payload: u32, extra_delay: Dur) {
        let pkt = Packet {
            src: self.node(),
            dst,
            prio: PRIO_TCP,
            size_bytes: payload + self.cfg.hdr_bytes,
            ecn_capable: false,
            ecn_marked: false,
            flow_hash: (self.node().0 as u64) << 32 | dst.0 as u64,
            span: xrdma_telemetry::SpanToken::NONE,
            hop_started_ns: 0,
            body: Box::new(seg) as Box<dyn Any>,
        };
        let fabric = self.fabric.clone();
        if extra_delay == Dur::ZERO {
            fabric.send(pkt);
        } else {
            self.world.schedule_in(extra_delay, move || {
                fabric.send(pkt);
            });
        }
    }

    fn send_message(&self, dst: NodeId, dst_conn: u64, msg_id: u64, len: u64, data: Option<Bytes>) {
        let mss = self.cfg.mss as u64;
        let nchunks = if len == 0 { 1 } else { len.div_ceil(mss) };
        // Stack delay once + per-chunk CPU serialization on the send side.
        let mut delay = self.cfg.stack_delay;
        for i in 0..nchunks {
            let off = i * mss;
            let chunk = (len - off).min(mss);
            let last = i == nchunks - 1;
            let chunk_data = data
                .as_ref()
                .map(|b| b.slice(off as usize..(off + chunk) as usize));
            delay += self.cfg.per_chunk_cpu;
            self.emit(
                dst,
                TcpSeg::Data {
                    dst_conn,
                    msg_id,
                    off,
                    len: chunk,
                    total: len,
                    last,
                    data: chunk_data,
                },
                chunk as u32,
                delay,
            );
        }
    }

    fn deliver(&self, pkt: Packet) {
        let Ok(seg) = pkt.body.downcast::<TcpSeg>() else {
            return;
        };
        match *seg {
            TcpSeg::Syn {
                svc,
                client_conn,
                src,
            } => {
                let has = self.listeners.borrow().contains_key(&svc);
                if !has {
                    return; // silently dropped; connect() never completes
                }
                let conn = self.new_conn();
                conn.remote_node.set(src);
                conn.remote_conn.set(client_conn);
                conn.established.set(true);
                if let Some(l) = self.listeners.borrow().get(&svc) {
                    l(conn.clone());
                }
                self.emit(
                    src,
                    TcpSeg::SynAck {
                        client_conn,
                        server_conn: conn.local_id,
                    },
                    64,
                    self.cfg.connect_latency / 2,
                );
            }
            TcpSeg::SynAck {
                client_conn,
                server_conn,
            } => {
                let conn = self.conns.borrow().get(&client_conn).cloned();
                if let Some(conn) = conn {
                    conn.remote_conn.set(server_conn);
                    conn.established.set(true);
                    if let Some(done) = self.pending_connects.borrow_mut().remove(&client_conn) {
                        done(conn);
                    }
                }
            }
            TcpSeg::Data {
                dst_conn,
                msg_id,
                off,
                len,
                total,
                last,
                data,
            } => {
                let conn = self.conns.borrow().get(&dst_conn).cloned();
                let Some(conn) = conn else { return };
                {
                    let mut asm = conn.assembling.borrow_mut();
                    let got = asm.entry(msg_id).or_insert(0);
                    if *got != off {
                        return; // out-of-phase (lossy class) — drop message
                    }
                    *got = off + len;
                }
                if last {
                    conn.assembling.borrow_mut().remove(&msg_id);
                    self.msgs_received.set(self.msgs_received.get() + 1);
                    self.bytes_received.set(self.bytes_received.get() + total);
                    // Receive-side stack delay before the app sees it.
                    let conn2 = conn.clone();
                    self.world.schedule_in(self.cfg.stack_delay, move || {
                        if let Some(f) = conn2.on_msg.borrow().as_ref() {
                            f(total, data.clone());
                        }
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RnicConfig;
    use xrdma_fabric::FabricConfig;
    use xrdma_sim::{SimRng, Time};

    fn setup() -> (Rc<World>, Rc<TcpStack>, Rc<TcpStack>) {
        let w = World::new();
        let rng = SimRng::new(5);
        let fabric = Fabric::new(w.clone(), FabricConfig::pair(), &rng);
        let a = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("a"));
        let b = Rnic::new(&fabric, NodeId(1), RnicConfig::default(), rng.fork("b"));
        let ta = TcpStack::new(&fabric, &a, TcpConfig::default());
        let tb = TcpStack::new(&fabric, &b, TcpConfig::default());
        (w, ta, tb)
    }

    #[test]
    fn connect_about_100us() {
        let (w, ta, tb) = setup();
        tb.listen(9, |_conn| {});
        let done_at = Rc::new(Cell::new(Time::ZERO));
        let d = done_at.clone();
        let w2 = w.clone();
        ta.connect(NodeId(1), 9, move |conn| {
            assert!(conn.established.get());
            d.set(w2.now());
        });
        w.run();
        let us = done_at.get().nanos() / 1000;
        assert!((90..160).contains(&us), "TCP connect took {us} µs");
    }

    #[test]
    fn message_roundtrip_with_payload() {
        let (w, ta, tb) = setup();
        let got: Rc<RefCell<Vec<(u64, Option<Bytes>)>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        tb.listen(9, move |conn| {
            let g2 = g.clone();
            conn.set_on_msg(move |len, data| {
                g2.borrow_mut().push((len, data));
            });
        });
        ta.connect(NodeId(1), 9, move |conn| {
            conn.send_msg(5, Some(Bytes::from_static(b"hello")));
            conn.send_msg(100_000, None); // multi-chunk, size-only
        });
        w.run();
        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 5);
        assert_eq!(got[0].1.as_ref().unwrap().as_ref(), b"hello");
        assert_eq!(got[1].0, 100_000);
        assert_eq!(tb.msgs_received.get(), 2);
        assert_eq!(tb.bytes_received.get(), 100_005);
    }

    #[test]
    fn bidirectional_messages() {
        let (w, ta, tb) = setup();
        let server_got = Rc::new(Cell::new(0u64));
        let client_got = Rc::new(Cell::new(0u64));
        let sg = server_got.clone();
        tb.listen(9, move |conn| {
            let sg2 = sg.clone();
            let c2 = conn.clone();
            conn.set_on_msg(move |len, _| {
                sg2.set(sg2.get() + len);
                c2.send_msg(len * 2, None); // echo double
            });
        });
        let cg = client_got.clone();
        ta.connect(NodeId(1), 9, move |conn| {
            let cg2 = cg.clone();
            conn.set_on_msg(move |len, _| cg2.set(len));
            conn.send_msg(64, None);
        });
        w.run();
        assert_eq!(server_got.get(), 64);
        assert_eq!(client_got.get(), 128);
    }

    #[test]
    fn connect_to_missing_service_never_completes() {
        let (w, ta, _tb) = setup();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        ta.connect(NodeId(1), 42, move |_| f.set(true));
        w.run();
        assert!(!fired.get());
    }
}
