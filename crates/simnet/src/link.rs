//! Link latency profiles with seeded jitter.
//!
//! Profiles are calibrated so the composed paths land in the ranges Table 7
//! reports: LAN QUIC 1-RTT ≈ 27 ms, 0-RTT ≈ 21 ms; mobile RTTs of hundreds
//! of ms with high variance; WAN cloud detours making the IoT command's
//! time-to-first-packet 600–2000 ms.

use fiat_net::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// One-way latency distribution of a link: base plus uniform jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Minimum one-way latency.
    pub base: SimDuration,
    /// Maximum additional jitter (uniform in `[0, jitter]`).
    pub jitter: SimDuration,
}

impl LatencyProfile {
    /// Construct from milliseconds.
    pub const fn from_millis(base_ms: u64, jitter_ms: u64) -> Self {
        LatencyProfile {
            base: SimDuration::from_millis(base_ms),
            jitter: SimDuration::from_millis(jitter_ms),
        }
    }

    /// Home WiFi hop (phone ↔ proxy ↔ device on the same LAN).
    pub const fn lan_wifi() -> Self {
        Self::from_millis(3, 5)
    }

    /// LTE radio access hop (phone on mobile network).
    pub const fn lte() -> Self {
        Self::from_millis(35, 60)
    }

    /// WAN hop to a same-region cloud.
    pub const fn wan_regional() -> Self {
        Self::from_millis(20, 15)
    }

    /// WAN hop traversing a VPN detour (Germany/Japan experiments).
    pub const fn wan_vpn_detour() -> Self {
        Self::from_millis(90, 40)
    }

    /// Vendor-cloud internal processing before the command is pushed to
    /// the device (measured time-to-first-packet in the paper includes
    /// substantial cloud-side work).
    pub const fn cloud_processing() -> Self {
        Self::from_millis(350, 500)
    }

    /// Sample a one-way latency.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        let j = self.jitter.as_micros();
        let extra = if j == 0 { 0 } else { rng.gen_range(0..=j) };
        self.base + SimDuration::from_micros(extra)
    }

    /// Expected (mean) one-way latency.
    pub fn mean(&self) -> SimDuration {
        self.base + self.jitter / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_within_bounds() {
        let p = LatencyProfile::from_millis(10, 20);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let s = p.sample(&mut rng);
            assert!(s >= SimDuration::from_millis(10));
            assert!(s <= SimDuration::from_millis(30));
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let p = LatencyProfile::from_millis(7, 0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(p.sample(&mut rng), SimDuration::from_millis(7));
        }
    }

    #[test]
    fn mean_is_midpoint() {
        let p = LatencyProfile::from_millis(10, 20);
        assert_eq!(p.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn profiles_are_ordered_sensibly() {
        assert!(LatencyProfile::lan_wifi().mean() < LatencyProfile::lte().mean());
        assert!(LatencyProfile::wan_regional().mean() < LatencyProfile::wan_vpn_detour().mean());
        assert!(LatencyProfile::cloud_processing().mean() > LatencyProfile::lte().mean());
    }

    #[test]
    fn empirical_mean_close_to_analytic() {
        let p = LatencyProfile::lte();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.sample(&mut rng).as_micros()).sum();
        let emp = total as f64 / n as f64;
        let ana = p.mean().as_micros() as f64;
        assert!((emp - ana).abs() / ana < 0.02, "emp {emp} vs {ana}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every sample of every profile lands in `[base, base+jitter]`.
            #[test]
            fn sample_always_within_base_plus_jitter(
                base_ms in 0u64..10_000,
                jitter_ms in 0u64..10_000,
                seed in any::<u64>(),
                n in 1usize..64,
            ) {
                let p = LatencyProfile::from_millis(base_ms, jitter_ms);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    let s = p.sample(&mut rng);
                    prop_assert!(s >= p.base);
                    prop_assert!(s <= p.base + p.jitter);
                }
            }

            /// Two RNGs from the same seed yield identical sample streams.
            #[test]
            fn same_seed_same_stream(
                base_ms in 0u64..10_000,
                jitter_ms in 0u64..10_000,
                seed in any::<u64>(),
            ) {
                let p = LatencyProfile::from_millis(base_ms, jitter_ms);
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                for _ in 0..32 {
                    prop_assert_eq!(p.sample(&mut a), p.sample(&mut b));
                }
            }

            /// `from_millis` round-trips through the stored durations
            /// (millisecond inputs stay exact at microsecond resolution).
            #[test]
            fn from_millis_round_trips(
                base_ms in 0u64..1_000_000,
                jitter_ms in 0u64..1_000_000,
            ) {
                let p = LatencyProfile::from_millis(base_ms, jitter_ms);
                prop_assert_eq!(p.base.as_millis(), base_ms);
                prop_assert_eq!(p.jitter.as_millis(), jitter_ms);
                prop_assert_eq!(
                    p,
                    LatencyProfile::from_millis(p.base.as_millis(), p.jitter.as_millis())
                );
            }
        }
    }
}
