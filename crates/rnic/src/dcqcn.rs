//! DCQCN rate control — the congestion-control protocol the paper's
//! production fabric runs (§II-C, fine-tuned per [Zhu et al., SIGCOMM'15]).
//!
//! Three roles:
//!
//! * **CP (congestion point)** — the switch, which ECN-marks packets; lives
//!   in `xrdma-fabric`.
//! * **NP (notification point)** — the receiving RNIC: on an ECN-marked
//!   arrival it sends a CNP back to the sender, rate-limited to one CNP per
//!   QP per `cnp_interval`.
//! * **RP (reaction point)** — the sending RNIC, implemented here: on a CNP
//!   it cuts its rate multiplicatively (by `alpha/2`) and remembers the
//!   current rate as the target; rate recovery then climbs back through
//!   fast recovery → additive increase → hyper increase.
//!
//! X-RDMA's complaint (§V-C) is that DCQCN is *reactive*: under a deep
//! incast the damage (queues, PFC pauses) is done before the first CNP
//! lands, and heavy incast generates CNP storms. The middleware's own flow
//! control coexists with — and is evaluated against — this implementation.

use xrdma_fabric::LINK_GBPS;
use xrdma_sim::{invariant, Dur, Time};
use xrdma_telemetry::tele;

// DCQCN tunables (reaction point unless noted). The line rate — initial
// rate and rate cap — is the fabric's `LINK_GBPS`.

/// Minimum rate the RP will cut to, in Gb/s.
pub const MIN_RATE_GBPS: f64 = 0.1;
/// `g`: gain for the alpha EWMA.
pub const G: f64 = 1.0 / 16.0;
/// Alpha-update timer (no-CNP decay interval).
pub const ALPHA_TIMER: Dur = Dur::micros(55);
/// Rate-increase timer period.
pub const INCREASE_TIMER: Dur = Dur::micros(300);
/// Bytes per byte-counter increase stage.
pub const BYTE_COUNTER: u64 = 10 * 1024 * 1024;
/// Additive-increase step (Gb/s).
pub const RAI_GBPS: f64 = 0.5;
/// Hyper-increase step (Gb/s per stage).
pub const RHAI_GBPS: f64 = 2.5;
/// Stage threshold F separating fast recovery from AI/HI.
pub const F_THRESHOLD: u32 = 5;
/// NP: minimum spacing between CNPs for one QP.
pub const CNP_INTERVAL: Dur = Dur::micros(50);

/// Reaction-point state for one QP.
#[derive(Clone, Debug)]
pub struct DcqcnRp {
    /// Current sending rate (Gb/s).
    rate: f64,
    /// Target rate to recover toward.
    target: f64,
    /// Congestion estimate in [0, 1].
    alpha: f64,
    /// Timer-driven increase stage count since last cut.
    t_stage: u32,
    /// Byte-counter-driven increase stage count since last cut.
    b_stage: u32,
    bytes_since_stage: u64,
    /// Last time a CNP arrived (drives alpha decay).
    last_cnp: Option<Time>,
    last_alpha_update: Time,
    last_increase: Time,
    /// Total CNPs seen (stats).
    pub cnp_count: u64,
    /// Total rate cuts performed.
    pub cut_count: u64,
}

impl Default for DcqcnRp {
    fn default() -> DcqcnRp {
        DcqcnRp::new()
    }
}

impl DcqcnRp {
    pub fn new() -> DcqcnRp {
        DcqcnRp {
            rate: LINK_GBPS,
            target: LINK_GBPS,
            alpha: 1.0,
            t_stage: 0,
            b_stage: 0,
            bytes_since_stage: 0,
            last_cnp: None,
            last_alpha_update: Time::ZERO,
            last_increase: Time::ZERO,
            cnp_count: 0,
            cut_count: 0,
        }
    }

    /// Current allowed rate in Gb/s.
    pub fn rate_gbps(&self) -> f64 {
        self.rate
    }

    /// Has this RP recovered to (effectively) line rate? The engine's
    /// shared DCQCN tick drops recovered QPs from its congested set so the
    /// timer can disarm instead of ticking idle flows forever.
    pub fn recovered(&self) -> bool {
        self.rate >= LINK_GBPS * 0.999
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// A CNP arrived: multiplicative decrease and alpha bump.
    pub fn on_cnp(&mut self, now: Time) {
        self.cnp_count += 1;
        self.last_cnp = Some(now);
        self.target = self.rate;
        self.rate = (self.rate * (1.0 - self.alpha / 2.0)).max(MIN_RATE_GBPS);
        self.alpha = ((1.0 - G) * self.alpha + G).min(1.0);
        self.t_stage = 0;
        self.b_stage = 0;
        self.bytes_since_stage = 0;
        self.last_alpha_update = now;
        self.last_increase = now;
        self.cut_count += 1;
        self.check_bounds();
        tele!(DcqcnRate {
            rate_gbps: self.rate,
            alpha: self.alpha,
            cnps: self.cnp_count,
        });
    }

    /// Rate/alpha bounds (checked under `debug_invariants`): the RP must
    /// keep `rate` within `[min_rate, line_rate]` and the congestion
    /// estimate within `[0, 1]` — a rate outside the envelope would let a
    /// single mis-ordered CNP stall a QP forever or burst past the line.
    fn check_bounds(&self) {
        invariant!(
            self.rate >= MIN_RATE_GBPS && self.rate <= LINK_GBPS,
            "DCQCN rate {} outside [{}, {}]",
            self.rate,
            MIN_RATE_GBPS,
            LINK_GBPS
        );
        invariant!(
            (0.0..=1.0).contains(&self.alpha),
            "DCQCN alpha {} outside [0, 1]",
            self.alpha
        );
        invariant!(
            self.target >= MIN_RATE_GBPS && self.target <= LINK_GBPS,
            "DCQCN target {} outside [{}, {}]",
            self.target,
            MIN_RATE_GBPS,
            LINK_GBPS
        );
    }

    /// Account transmitted bytes (drives the byte-counter stage).
    pub fn on_bytes_sent(&mut self, now: Time, bytes: u64) {
        self.bytes_since_stage += bytes;
        if self.bytes_since_stage >= BYTE_COUNTER {
            self.bytes_since_stage = 0;
            self.b_stage += 1;
            self.increase(now);
        }
    }

    /// Periodic tick; call at least every [`ALPHA_TIMER`]. Handles alpha decay
    /// and timer-driven rate increase.
    pub fn on_timer(&mut self, now: Time) {
        // Alpha decays when no CNP arrived within the alpha timer.
        if now.since(self.last_alpha_update) >= ALPHA_TIMER {
            let quiet = match self.last_cnp {
                Some(t) => now.since(t) >= ALPHA_TIMER,
                None => true,
            };
            if quiet {
                self.alpha *= 1.0 - G;
            }
            self.last_alpha_update = now;
        }
        if now.since(self.last_increase) >= INCREASE_TIMER {
            self.last_increase = now;
            self.t_stage += 1;
            self.increase(now);
        }
        self.check_bounds();
    }

    /// One increase step; the stage counts select the phase.
    fn increase(&mut self, _now: Time) {
        let stage = self.t_stage.max(self.b_stage);
        if stage < F_THRESHOLD {
            // Fast recovery: halve the distance to target.
            self.rate = (self.rate + self.target) / 2.0;
        } else if self.t_stage >= F_THRESHOLD && self.b_stage >= F_THRESHOLD {
            // Hyper increase.
            let i = (self.t_stage.min(self.b_stage) - F_THRESHOLD + 1) as f64;
            self.target += i * RHAI_GBPS;
            self.target = self.target.min(LINK_GBPS);
            self.rate = (self.rate + self.target) / 2.0;
        } else {
            // Additive increase.
            self.target += RAI_GBPS;
            self.target = self.target.min(LINK_GBPS);
            self.rate = (self.rate + self.target) / 2.0;
        }
        self.rate = self.rate.min(LINK_GBPS);
        self.check_bounds();
    }
}

/// Notification-point state for one QP: CNP pacing.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcqcnNp {
    last_cnp_sent: Option<Time>,
}

impl DcqcnNp {
    /// An ECN-marked packet arrived; should a CNP be emitted now?
    pub fn should_send_cnp(&mut self, now: Time) -> bool {
        match self.last_cnp_sent {
            Some(t) if now.since(t) < CNP_INTERVAL => false,
            _ => {
                self.last_cnp_sent = Some(now);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_line_rate() {
        let rp = DcqcnRp::new();
        assert_eq!(rp.rate_gbps(), 25.0);
        assert_eq!(rp.alpha(), 1.0);
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut rp = DcqcnRp::new();
        rp.on_cnp(Time(0));
        // alpha=1 → cut by 1/2.
        assert!((rp.rate_gbps() - 12.5).abs() < 1e-9);
        assert_eq!(rp.cnp_count, 1);
        assert_eq!(rp.cut_count, 1);
    }

    #[test]
    fn repeated_cnps_floor_at_min_rate() {
        let mut rp = DcqcnRp::new();
        for i in 0..100 {
            rp.on_cnp(Time(i * 1000));
        }
        assert!(rp.rate_gbps() >= MIN_RATE_GBPS);
        assert!(rp.rate_gbps() < 0.2);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut rp = DcqcnRp::new();
        rp.on_cnp(Time(0));
        let a0 = rp.alpha();
        let mut t = Time(0);
        for _ in 0..20 {
            t += Dur::micros(55);
            rp.on_timer(t);
        }
        assert!(
            rp.alpha() < a0 * 0.5,
            "alpha {} !< {}",
            rp.alpha(),
            a0 * 0.5
        );
    }

    #[test]
    fn fast_recovery_returns_toward_target() {
        let mut rp = DcqcnRp::new();
        rp.on_cnp(Time(0));
        let cut = rp.rate_gbps();
        let mut t = Time(0);
        for _ in 0..5 {
            t += Dur::micros(300);
            rp.on_timer(t);
        }
        assert!(rp.rate_gbps() > cut, "recovering");
        // After 5 FR stages the rate is within ~3% of the target (25 Gb/s
        // was the pre-cut rate → the recovery target).
        assert!(rp.rate_gbps() > 24.0, "rate {}", rp.rate_gbps());
    }

    #[test]
    fn rate_never_exceeds_line() {
        let mut rp = DcqcnRp::new();
        rp.on_cnp(Time(0));
        let mut t = Time(0);
        for _ in 0..1000 {
            t += Dur::micros(300);
            rp.on_timer(t);
            rp.on_bytes_sent(t, 20 * 1024 * 1024);
        }
        assert!(rp.rate_gbps() <= 25.0 + 1e-9);
    }

    #[test]
    fn byte_counter_stages() {
        let mut rp = DcqcnRp::new();
        rp.on_cnp(Time(0));
        let r0 = rp.rate_gbps();
        rp.on_bytes_sent(Time(1), 10 * 1024 * 1024);
        assert!(rp.rate_gbps() > r0, "byte counter triggered an increase");
    }

    #[test]
    fn np_paces_cnps() {
        let mut np = DcqcnNp::default();
        assert!(np.should_send_cnp(Time(0)));
        assert!(!np.should_send_cnp(Time(10_000)), "within 50us window");
        assert!(np.should_send_cnp(Time(51_000)));
    }

    #[test]
    #[should_panic(expected = "DCQCN rate")]
    fn invariant_rejects_rate_outside_envelope() {
        // A rate planted far above the line survives the CNP cut above
        // the line: the bounds checker must catch it.
        let mut rp = DcqcnRp::new();
        rp.rate = LINK_GBPS * 4.0;
        rp.on_cnp(Time(0));
    }
}
