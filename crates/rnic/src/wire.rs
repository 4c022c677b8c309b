//! The RoCE-style wire protocol between simulated RNICs: packet bodies and
//! payload fragments.
//!
//! These structs travel inside `xrdma_fabric::Packet::body` (as a
//! `Box<dyn Any>`); only RNIC engines construct or interpret them.

use bytes::Bytes;

use crate::verbs::Qpn;

/// Data bytes of one fragment: real bytes or size-only.
#[derive(Clone, Debug)]
pub enum FragData {
    Bytes(Bytes),
    Zero(u32),
    /// Real bytes followed by simulated padding (see `Payload::Padded`).
    Padded {
        head: Bytes,
        pad: u32,
    },
}

impl FragData {
    pub fn len(&self) -> u32 {
        match self {
            FragData::Bytes(b) => b.len() as u32,
            FragData::Zero(n) => *n,
            FragData::Padded { head, pad } => head.len() as u32 + pad,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real bytes this fragment carries to place (none when size-only).
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            FragData::Bytes(b) | FragData::Padded { head: b, .. } => Some(b),
            FragData::Zero(_) => None,
        }
    }
}

/// A BTH plus the connection token it was sent under. This is what
/// actually travels in `Packet::body`; receivers drop token mismatches
/// (stale packets from a recycled QP's previous connection).
#[derive(Clone, Debug)]
pub struct TokenedBth {
    pub token: u64,
    pub bth: Bth,
}

/// The requester-side operation code carried on data packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOp {
    Send,
    Write,
    WriteImm,
}

/// A packet body on the responder-bound (request) direction.
#[derive(Clone, Debug)]
pub enum Bth {
    /// One MTU fragment of a Send/Write/WriteImm message.
    Data {
        dst_qpn: Qpn,
        src_qpn: Qpn,
        /// Message sequence number within the QP's request stream.
        msg_seq: u64,
        op: WireOp,
        /// Byte offset of this fragment in the message.
        frag_off: u64,
        /// Total message length.
        total_len: u64,
        /// True on the final fragment.
        last: bool,
        /// Remote placement for Write/WriteImm (addr, rkey).
        remote: Option<(u64, u32)>,
        imm: Option<u32>,
        data: FragData,
    },
    /// RDMA Read request (single packet; the response streams back).
    ReadReq {
        dst_qpn: Qpn,
        src_qpn: Qpn,
        msg_seq: u64,
        remote_addr: u64,
        rkey: u32,
        len: u64,
    },
    /// 8-byte atomic request.
    AtomicReq {
        dst_qpn: Qpn,
        src_qpn: Qpn,
        msg_seq: u64,
        remote_addr: u64,
        rkey: u32,
        /// None => fetch-add(operand); Some(expect) => CAS(expect, operand).
        compare: Option<u64>,
        operand: u64,
    },
    /// Positive acknowledgment: everything `<= msg_seq` arrived and was
    /// accepted at the responder.
    Ack { dst_qpn: Qpn, msg_seq: u64 },
    /// Negative acknowledgment.
    Nak {
        dst_qpn: Qpn,
        /// The message the responder is waiting for.
        expected_seq: u64,
        kind: NakKind,
    },
    /// One fragment of a Read response.
    ReadResp {
        dst_qpn: Qpn,
        /// The msg_seq of the originating ReadReq.
        msg_seq: u64,
        frag_off: u64,
        total_len: u64,
        last: bool,
        data: FragData,
    },
    /// Atomic response carrying the old value.
    AtomicResp {
        dst_qpn: Qpn,
        msg_seq: u64,
        old_value: u64,
    },
    /// DCQCN congestion notification packet.
    Cnp { dst_qpn: Qpn },
}

/// Why a NAK was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NakKind {
    /// Receiver not ready: no receive WR posted. Retry after the RNR timer.
    Rnr,
    /// Sequence error (a fragment went missing); go-back-N.
    SeqError,
    /// Remote access violation; fatal for the offending WR.
    RemoteAccess,
}

impl Bth {
    /// The QP this packet is addressed to at the receiving node.
    pub fn dst_qpn(&self) -> Qpn {
        match self {
            Bth::Data { dst_qpn, .. }
            | Bth::ReadReq { dst_qpn, .. }
            | Bth::AtomicReq { dst_qpn, .. }
            | Bth::Ack { dst_qpn, .. }
            | Bth::Nak { dst_qpn, .. }
            | Bth::ReadResp { dst_qpn, .. }
            | Bth::AtomicResp { dst_qpn, .. }
            | Bth::Cnp { dst_qpn } => *dst_qpn,
        }
    }

    /// Is this a data-bearing packet (subject to ECN-based CNP generation)?
    pub fn is_data(&self) -> bool {
        matches!(self, Bth::Data { .. } | Bth::ReadResp { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_qpn_extraction() {
        let b = Bth::Ack {
            dst_qpn: Qpn(7),
            msg_seq: 3,
        };
        assert_eq!(b.dst_qpn(), Qpn(7));
        let b = Bth::Cnp { dst_qpn: Qpn(9) };
        assert_eq!(b.dst_qpn(), Qpn(9));
        assert!(!b.is_data());
    }

    #[test]
    fn frag_data_len() {
        assert_eq!(FragData::Zero(100).len(), 100);
        assert_eq!(FragData::Bytes(Bytes::from_static(b"xy")).len(), 2);
        assert!(FragData::Zero(0).is_empty());
    }
}
