//! Seeded fault plans for the phone → proxy proof channel.
//!
//! A [`FaultPlan`] is the single source of randomness and accounting for
//! one chaos run: per-frame fault rates (drop, duplicate, delay,
//! corrupt), an extra-delay [`LatencyProfile`], phone-offline windows,
//! sensor-unavailable intervals and control-plane outages. The
//! [`ProofChannel`](crate::ProofChannel) consumes it, rolling one fate
//! per sealed frame.
//!
//! Determinism: one seeded `StdRng`, rolls happen in a fixed order, and
//! a zero-rate roll never touches the RNG — so over [`FaultPlan::none`]
//! the channel draws nothing but its base-latency samples (tested).

use fiat_net::{SimDuration, SimTime};
use fiat_simnet::LatencyProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The taxonomy of injected faults, used as metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Frame silently lost.
    Drop,
    /// Frame delivered twice.
    Duplicate,
    /// Frame delayed by an extra latency sample.
    Delay,
    /// Frame delivered with flipped bits.
    Corrupt,
    /// Phone offline: every frame in the window is lost.
    Offline,
    /// IMU unavailable: no evidence can be produced at all.
    SensorUnavailable,
    /// Control plane unreachable: the proxy serves in degraded mode for
    /// the window (key lifecycle paused, last-known-good epochs only).
    ControlOutage,
}

/// All kinds, in stable reporting order.
pub const FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Delay,
    FaultKind::Corrupt,
    FaultKind::Offline,
    FaultKind::SensorUnavailable,
    FaultKind::ControlOutage,
];

impl FaultKind {
    /// Stable label (`fiat_chaos_faults_total{kind=}`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Offline => "offline",
            FaultKind::SensorUnavailable => "sensor_unavailable",
            FaultKind::ControlOutage => "control_outage",
        }
    }
}

/// A seeded, counting fault model for one run. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    /// Per-frame loss probability.
    pub drop_rate: f64,
    /// Per-frame duplication probability.
    pub dup_rate: f64,
    /// Per-frame extra-delay probability.
    pub delay_rate: f64,
    /// Per-frame corruption probability.
    pub corrupt_rate: f64,
    /// Extra delay drawn when a delay fault fires.
    pub delay: LatencyProfile,
    /// Phone-offline windows (inclusive start, exclusive end).
    pub offline: Vec<(SimTime, SimTime)>,
    /// Sensor-unavailable windows (inclusive start, exclusive end).
    pub sensor_unavailable: Vec<(SimTime, SimTime)>,
    /// Control-plane-outage windows (inclusive start, exclusive end).
    pub control_outage: Vec<(SimTime, SimTime)>,
    rng: StdRng,
    counts: [u64; FAULT_KINDS.len()],
}

impl FaultPlan {
    /// The identity plan: nothing ever fires and no fault roll consults
    /// the RNG, so a channel over it draws only base latencies.
    pub fn none(seed: u64) -> Self {
        Self::with_rates(seed, 0.0, 0.0, 0.0, 0.0)
    }

    /// A plan with the given per-frame fault rates and no extra windows.
    pub fn with_rates(
        seed: u64,
        drop_rate: f64,
        dup_rate: f64,
        delay_rate: f64,
        corrupt_rate: f64,
    ) -> Self {
        FaultPlan {
            drop_rate,
            dup_rate,
            delay_rate,
            corrupt_rate,
            delay: LatencyProfile::from_millis(20, 80),
            offline: Vec::new(),
            sensor_unavailable: Vec::new(),
            control_outage: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            counts: [0; FAULT_KINDS.len()],
        }
    }

    /// Roll one fault with probability `p`. Zero-probability rolls never
    /// touch the RNG, keeping [`FaultPlan::none`] identity exact.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// Whether the phone is offline at `t`.
    pub fn offline_at(&self, t: SimTime) -> bool {
        self.offline.iter().any(|&(a, b)| a <= t && t < b)
    }

    /// Whether the IMU is unavailable at `t`.
    pub fn sensor_unavailable_at(&self, t: SimTime) -> bool {
        self.sensor_unavailable
            .iter()
            .any(|&(a, b)| a <= t && t < b)
    }

    /// Whether the control plane is unreachable at `t`.
    pub fn control_outage_at(&self, t: SimTime) -> bool {
        self.control_outage.iter().any(|&(a, b)| a <= t && t < b)
    }

    /// Count one injected fault.
    pub fn record(&mut self, kind: FaultKind) {
        self.counts[kind as usize] += 1;
    }

    /// Faults injected so far of one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts[kind as usize]
    }

    /// `(kind, count)` pairs in stable order, including zero rows.
    pub fn counts(&self) -> Vec<(FaultKind, u64)> {
        FAULT_KINDS.iter().map(|&k| (k, self.count(k))).collect()
    }

    /// Total faults injected so far.
    pub fn total_faults(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Expose the plan's RNG for channel-level draws (base latency),
    /// keeping the whole run on one seeded stream.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Channel-frame fate at `sent_at`: one roll each for offline, drop,
    /// delay, corrupt, duplicate, in that fixed order.
    pub(crate) fn frame_fate(&mut self, sent_at: SimTime) -> FrameFate {
        if self.offline_at(sent_at) {
            self.record(FaultKind::Offline);
            return FrameFate::Lost;
        }
        if self.roll(self.drop_rate) {
            self.record(FaultKind::Drop);
            return FrameFate::Lost;
        }
        let mut extra = SimDuration::ZERO;
        if self.roll(self.delay_rate) {
            extra = self.delay.sample(&mut self.rng);
            self.record(FaultKind::Delay);
        }
        let corrupted = self.roll(self.corrupt_rate);
        if corrupted {
            self.record(FaultKind::Corrupt);
        }
        let duplicated = self.roll(self.dup_rate);
        if duplicated {
            self.record(FaultKind::Duplicate);
        }
        FrameFate::Delivered {
            extra_delay: extra,
            corrupted,
            duplicated,
        }
    }
}

/// What the channel did to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// Never arrives.
    Lost,
    /// Arrives (possibly late, corrupted, or twice).
    Delivered {
        /// Extra delay beyond the base latency sample.
        extra_delay: SimDuration,
        /// Bits flipped in flight.
        corrupted: bool,
        /// A second copy follows.
        duplicated: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelVerdict, ProofChannel};

    fn channel(plan: FaultPlan) -> ProofChannel {
        ProofChannel::new(plan, LatencyProfile::from_millis(5, 15))
    }

    #[test]
    fn zero_rate_plan_draws_only_base_latency() {
        // The zero-cost default: no fault roll touches the RNG, so every
        // arrival is `sent_at` plus the next base-latency sample of a
        // fresh RNG on the same seed.
        let mut ch = channel(FaultPlan::none(7));
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 10_000);
            assert_eq!(
                ch.transmit(t),
                ChannelVerdict::Delivered {
                    arrival: t + ch.base.sample(&mut rng),
                    corrupted: false,
                    duplicated: false,
                }
            );
        }
        assert_eq!(ch.plan.total_faults(), 0);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ch = channel(FaultPlan::with_rates(seed, 0.2, 0.1, 0.2, 0.1));
            let out: Vec<ChannelVerdict> = (0..500u64)
                .map(|i| ch.transmit(SimTime::from_micros(i * 1000)))
                .collect();
            (out, ch.plan.counts())
        };
        let (a, ca) = run(42);
        let (b, cb) = run(42);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn rates_are_roughly_honored_and_counted() {
        let mut ch = channel(FaultPlan::with_rates(1, 0.3, 0.0, 0.0, 0.0));
        let n = 2000u64;
        let survived = (0..n)
            .filter(|&i| ch.transmit(SimTime::from_micros(i * 1000)) != ChannelVerdict::Lost)
            .count() as u64;
        let dropped = ch.plan.count(FaultKind::Drop);
        assert_eq!(survived + dropped, n);
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn offline_window_swallows_everything_inside_it() {
        let mut plan = FaultPlan::none(3);
        plan.offline = vec![(SimTime::from_secs(10), SimTime::from_secs(20))];
        let mut ch = channel(plan);
        assert_eq!(ch.transmit(SimTime::from_secs(15)), ChannelVerdict::Lost);
        assert!(
            matches!(
                ch.transmit(SimTime::from_secs(20)),
                ChannelVerdict::Delivered { .. }
            ),
            "window end is exclusive"
        );
        assert_eq!(ch.plan.count(FaultKind::Offline), 1);
        assert!(ch.plan.sensor_unavailable.is_empty());
        assert!(!ch.plan.sensor_unavailable_at(SimTime::from_secs(15)));
    }

    #[test]
    fn control_outage_windows_are_half_open_and_counted() {
        let mut plan = FaultPlan::none(4);
        plan.control_outage = vec![(SimTime::from_secs(30), SimTime::from_secs(60))];
        assert!(!plan.control_outage_at(SimTime::from_secs(29)));
        assert!(plan.control_outage_at(SimTime::from_secs(30)));
        assert!(plan.control_outage_at(SimTime::from_secs(59)));
        assert!(
            !plan.control_outage_at(SimTime::from_secs(60)),
            "end exclusive"
        );
        // An outage does not touch the data path: frames still flow.
        let mut ch = channel(plan);
        assert!(matches!(
            ch.transmit(SimTime::from_secs(45)),
            ChannelVerdict::Delivered { .. }
        ));
        ch.plan.record(FaultKind::ControlOutage);
        assert_eq!(ch.plan.count(FaultKind::ControlOutage), 1);
        assert_eq!(ch.plan.counts().len(), FAULT_KINDS.len());
        assert_eq!(FaultKind::ControlOutage.as_str(), "control_outage");
    }

    #[test]
    fn corrupt_and_duplicate_flags_are_set_and_counted() {
        let mut ch = channel(FaultPlan::with_rates(5, 0.0, 1.0, 0.0, 1.0));
        let ChannelVerdict::Delivered {
            arrival,
            corrupted,
            duplicated,
        } = ch.transmit(SimTime::from_secs(1))
        else {
            panic!("zero drop rate lost a frame");
        };
        assert!(corrupted, "corrupt rate 1.0 must flip the frame");
        assert!(duplicated, "dup rate 1.0 must double it");
        assert_eq!(ch.plan.count(FaultKind::Corrupt), 1);
        assert_eq!(ch.plan.count(FaultKind::Duplicate), 1);
        assert_eq!(ch.plan.total_faults(), 2);
        assert!(
            ProofChannel::duplicate_arrival(arrival) > arrival,
            "the duplicate trails"
        );
    }
}
