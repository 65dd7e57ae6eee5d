//! Ticket-epoch key lifecycle: scheduled rotation, bounded-window
//! retirement, and the degraded mode that freezes both during a
//! control-plane outage.
//!
//! The quic layer keys its anti-replay state by epoch and can rotate,
//! retire, and report; this module supplies the *policy*. Every
//! [`LifecyclePolicy::rotation_interval`], the manager rotates the
//! issuing epoch; after each rotation it retires every epoch older than
//! the newest [`LifecyclePolicy::max_live_epochs`], which is what keeps
//! replay-store memory bounded (the DESIGN §14 memory-pressure risk, at
//! the replay layer). A 0-RTT proof under a retired epoch is answered
//! with `RetiredEpoch` and the client falls back to 1-RTT — rotation is
//! never a hard failure.
//!
//! During an outage ([`KeyLifecycle::tick`] called with
//! `control_reachable = false`) the ZKPAS-style sliding window applies:
//! the proxy enters degraded mode (audited + gauged), rotation *and*
//! retirement pause, and the live-epoch window freezes — it cannot grow
//! (no rotations) so memory stays bounded, and it cannot shrink (no
//! retirement) so every ticket that worked when the control plane was
//! last seen keeps working. On reconnect the proxy exits degraded mode
//! and the normal schedule resumes, retiring the window back down.
//! [`LifecyclePolicy::freeze_on_outage`] = `false` is the unsafe
//! baseline the experiment contrasts against: the proxy blindly follows
//! its local schedule through the outage, killing 0-RTT for clients
//! whose epochs retire mid-outage.

use crate::metrics::ControlMetrics;
use fiat_core::FiatProxy;
use fiat_net::{SimDuration, SimTime};

/// Rotation/retirement policy for one home.
#[derive(Debug, Clone, Copy)]
pub struct LifecyclePolicy {
    /// How often the issuing epoch rotates.
    pub rotation_interval: SimDuration,
    /// Epochs kept live after retirement (newest inclusive); ≥ 1.
    pub max_live_epochs: u32,
    /// Degraded mode: freeze rotation and retirement during an outage
    /// (`true` is the shipped behavior; `false` the unsafe baseline).
    pub freeze_on_outage: bool,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy {
            rotation_interval: SimDuration::from_mins(60),
            max_live_epochs: 2,
            freeze_on_outage: true,
        }
    }
}

/// Per-home lifecycle state driven by [`KeyLifecycle::tick`].
#[derive(Debug)]
pub struct KeyLifecycle {
    policy: LifecyclePolicy,
    next_rotation: SimTime,
    /// Rotations performed.
    pub rotations: u64,
    /// Epochs retired.
    pub retired: u64,
    /// Outage windows entered (degraded-mode transitions in).
    pub outages: u64,
}

impl KeyLifecycle {
    /// Manager whose first rotation is due one interval after `start`.
    pub fn new(policy: LifecyclePolicy, start: SimTime) -> Self {
        KeyLifecycle {
            policy,
            next_rotation: start + policy.rotation_interval,
            rotations: 0,
            retired: 0,
            outages: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LifecyclePolicy {
        self.policy
    }

    /// Live epochs on the proxy right now (window width).
    pub fn live_epochs(proxy: &FiatProxy) -> u32 {
        proxy.ticket_epoch() - proxy.oldest_live_epoch() + 1
    }

    /// Advance the lifecycle to `now`. Call at any cadence; rotation
    /// fires at most once per tick (a long gap slips the schedule rather
    /// than storming rotations).
    pub fn tick(
        &mut self,
        now: SimTime,
        proxy: &mut FiatProxy,
        control_reachable: bool,
        metrics: Option<&ControlMetrics>,
    ) {
        if !control_reachable && self.policy.freeze_on_outage {
            if !proxy.is_degraded() {
                proxy.set_degraded(now, true);
                self.outages += 1;
                if let Some(m) = metrics {
                    m.record_outage();
                    m.record_degraded(true);
                }
            }
            return;
        }
        if proxy.is_degraded() {
            proxy.set_degraded(now, false);
            if let Some(m) = metrics {
                m.record_degraded(false);
            }
        }
        if now >= self.next_rotation {
            proxy.rotate_ticket_epoch();
            self.rotations += 1;
            if let Some(m) = metrics {
                m.record_rotation();
            }
            self.next_rotation = now + self.policy.rotation_interval;
        }
        let min_live = proxy
            .ticket_epoch()
            .saturating_sub(self.policy.max_live_epochs.saturating_sub(1));
        let n = proxy.retire_ticket_epochs_below(min_live);
        if n > 0 {
            self.retired += u64::from(n);
            if let Some(m) = metrics {
                m.record_retired(u64::from(n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        CONTROL_EPOCHS_RETIRED_TOTAL, CONTROL_EPOCH_ROTATIONS_TOTAL, CONTROL_OUTAGES_TOTAL,
    };
    use fiat_core::{FiatProxy, ProxyConfig};
    use fiat_sensors::HumannessValidator;

    const SECRET: [u8; 32] = [0xC7; 32];

    fn proxy() -> FiatProxy {
        let mut p = FiatProxy::new(
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
        );
        p.start(SimTime::ZERO);
        p
    }

    fn policy(mins: u64) -> LifecyclePolicy {
        LifecyclePolicy {
            rotation_interval: SimDuration::from_mins(mins),
            max_live_epochs: 2,
            freeze_on_outage: true,
        }
    }

    #[test]
    fn rotates_on_schedule_and_bounds_the_window() {
        let mut p = proxy();
        let mut lc = KeyLifecycle::new(policy(10), SimTime::ZERO);
        for min in 0..=60u64 {
            lc.tick(SimTime::from_secs(min * 60), &mut p, true, None);
            assert!(
                KeyLifecycle::live_epochs(&p) <= 2,
                "window must stay bounded at minute {min}"
            );
        }
        assert_eq!(lc.rotations, 6, "one rotation per 10-minute interval");
        assert_eq!(p.ticket_epoch(), 6);
        assert_eq!(lc.retired, 5, "all but the newest 2 epochs retired");
        assert_eq!(p.oldest_live_epoch(), 5);
    }

    #[test]
    fn outage_freezes_the_window_and_recovery_resumes() {
        let mut p = proxy();
        let mut lc = KeyLifecycle::new(policy(10), SimTime::ZERO);
        // Two healthy rotations.
        lc.tick(SimTime::from_secs(10 * 60), &mut p, true, None);
        lc.tick(SimTime::from_secs(20 * 60), &mut p, true, None);
        let (epoch, oldest) = (p.ticket_epoch(), p.oldest_live_epoch());
        // A 40-minute outage: nothing rotates, nothing retires, the
        // proxy is flagged degraded.
        for min in [25u64, 30, 40, 50, 60] {
            lc.tick(SimTime::from_secs(min * 60), &mut p, false, None);
            assert!(p.is_degraded());
            assert_eq!(p.ticket_epoch(), epoch, "frozen at minute {min}");
            assert_eq!(p.oldest_live_epoch(), oldest, "frozen at minute {min}");
        }
        assert_eq!(lc.outages, 1, "one outage window, not one per tick");
        // Reconnect: degraded exits, the schedule resumes (one rotation
        // this tick — slipped, not stormed), the window retires back.
        lc.tick(SimTime::from_secs(61 * 60), &mut p, true, None);
        assert!(!p.is_degraded());
        assert_eq!(p.ticket_epoch(), epoch + 1);
        assert!(KeyLifecycle::live_epochs(&p) <= 2);
    }

    #[test]
    fn unsafe_baseline_keeps_retiring_through_the_outage() {
        let mut p = proxy();
        let mut lc = KeyLifecycle::new(
            LifecyclePolicy {
                freeze_on_outage: false,
                ..policy(10)
            },
            SimTime::ZERO,
        );
        lc.tick(SimTime::from_secs(10 * 60), &mut p, false, None);
        lc.tick(SimTime::from_secs(20 * 60), &mut p, false, None);
        assert!(!p.is_degraded(), "baseline never flags degradation");
        assert_eq!(p.ticket_epoch(), 2, "schedule ran through the outage");
        assert_eq!(p.oldest_live_epoch(), 1, "old epochs retired mid-outage");
    }

    #[test]
    fn metrics_track_the_lifecycle() {
        let registry = fiat_telemetry::MetricRegistry::new();
        let metrics = ControlMetrics::new(&registry);
        let mut p = proxy();
        let mut lc = KeyLifecycle::new(policy(10), SimTime::ZERO);
        lc.tick(SimTime::from_secs(10 * 60), &mut p, true, Some(&metrics));
        lc.tick(SimTime::from_secs(20 * 60), &mut p, true, Some(&metrics));
        lc.tick(SimTime::from_secs(25 * 60), &mut p, false, Some(&metrics));
        lc.tick(SimTime::from_secs(30 * 60), &mut p, true, Some(&metrics));
        let count = |name| registry.counter(name, &[]).get();
        assert_eq!(count(CONTROL_EPOCH_ROTATIONS_TOTAL), lc.rotations);
        assert_eq!(count(CONTROL_EPOCHS_RETIRED_TOTAL), lc.retired);
        assert_eq!(count(CONTROL_OUTAGES_TOTAL), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_control_degraded_transitions_total{state=\"entered\"} 1"));
        assert!(text.contains("fiat_control_degraded_transitions_total{state=\"exited\"} 1"));
    }
}
