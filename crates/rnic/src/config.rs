//! RNIC timing and behaviour configuration.

use serde::Serialize;
use xrdma_sim::Dur;

/// Wire header overhead per data packet (Eth+IP+UDP+BTH+ICRC ≈ 58 B).
pub const HDR_BYTES: u32 = 58;

/// Page-allocation mode for RDMA-enabled memory (§VII-F "Avoid to use
/// continuous physical memory"). The modes trade registration cost against
/// NIC translation-cache pressure and host fragmentation risk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PageKind {
    /// 4 KiB anonymous pages — one MPT/MTT entry per page, cheap to get.
    Anonymous,
    /// Physically continuous allocation — a single translation entry but
    /// allocation can fail / trigger reclaim under fragmentation.
    Continuous,
    /// 2 MiB huge pages — few entries, moderate allocation cost.
    Huge,
}

/// RNIC configuration with defaults calibrated to the paper's
/// ConnectX-4 Lx / 25 Gb/s testbed (see DESIGN.md §1). The fixed NIC
/// timings are constants: [`HDR_BYTES`] here, the WQE/RX processing,
/// MR-cache, in-flight and injector limits in [`crate::engine`], DCQCN's
/// in [`crate::dcqcn`].
#[derive(Clone, Debug)]
pub struct RnicConfig {
    /// Path MTU: data payload per packet.
    pub mtu: u32,
    /// Number of QP contexts the on-NIC SRAM holds; beyond this, touching a
    /// cold QP pays `qp_cache_miss`.
    pub qp_cache_entries: usize,
    /// Extra latency on touching a QP whose context fell out of SRAM.
    pub qp_cache_miss: Dur,
    /// ACK timeout before go-back-N retransmission.
    pub retx_timeout: Dur,
    /// RNR NAK retry delay (receiver not ready).
    pub rnr_timer: Dur,
    /// Retries before the QP transitions to error (7 = effectively the
    /// verbs default behaviour; keepalive tests lower it).
    pub retry_count: u32,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            mtu: 4096,
            qp_cache_entries: 1024,
            // Calibrated so a fully-cold QP context costs <10% of the
            // end-to-end small-message latency (§VII-F).
            qp_cache_miss: Dur::nanos(250),
            // Real verbs default is ~67 ms (4.096 µs × 2^14); PFC pause
            // rotations under deep incast legitimately stall a QP for
            // milliseconds, so the timeout must sit well above them.
            retx_timeout: Dur::millis(64),
            rnr_timer: Dur::micros(200),
            retry_count: 7,
        }
    }
}

impl RnicConfig {
    /// Wire size of a data packet carrying `payload` bytes.
    pub fn packet_size(&self, payload: u32) -> u32 {
        payload + HDR_BYTES
    }

    /// Number of MTU segments a message of `len` bytes needs (at least 1 —
    /// zero-byte messages still emit one packet, see the keepalive probe).
    pub fn segments(&self, len: u64) -> u64 {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.mtu as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_math() {
        let c = RnicConfig::default();
        assert_eq!(c.segments(0), 1, "zero-byte keepalive probe");
        assert_eq!(c.segments(1), 1);
        assert_eq!(c.segments(4096), 1);
        assert_eq!(c.segments(4097), 2);
        assert_eq!(c.segments(128 * 1024), 32);
    }

    #[test]
    fn packet_overhead() {
        let c = RnicConfig::default();
        assert_eq!(c.packet_size(0), 58);
        assert_eq!(c.packet_size(4096), 4154);
    }
}
