//! Testbed locations (§3.1): New Jersey (US) plus VPN exits in Japan and
//! Germany. §3.3 found devices keep their communication models across
//! locations but talk to geolocated endpoints — different IPs and even
//! different domains (google.com → google.co.jp).

use std::net::Ipv4Addr;

/// Where the testbed's uplink egresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// United States (native, New Jersey / Illinois).
    Us,
    /// Japan via VPN.
    Japan,
    /// Germany via VPN.
    Germany,
}

impl Location {
    /// All locations in paper order.
    pub const ALL: [Location; 3] = [Location::Us, Location::Japan, Location::Germany];

    /// Short suffix used in the paper's tables (US/JP/DE).
    pub fn suffix(self) -> &'static str {
        match self {
            Location::Us => "US",
            Location::Japan => "JP",
            Location::Germany => "DE",
        }
    }

    /// Country-code TLD rewrite applied to geolocating vendors.
    pub fn localize_domain(self, domain: &str) -> String {
        match self {
            Location::Us => domain.to_string(),
            Location::Japan => domain.replace(".com", ".co.jp"),
            Location::Germany => domain.replace(".com", ".de"),
        }
    }

    /// First octet of the cloud IP space for this location; endpoints at
    /// different locations never share IPs.
    pub fn ip_base(self) -> u8 {
        match self {
            Location::Us => 34,
            Location::Japan => 126,
            Location::Germany => 85,
        }
    }

    /// Deterministic cloud IP for (location, endpoint index, replica).
    pub fn cloud_ip(self, endpoint: u16, replica: u8) -> Ipv4Addr {
        let [hi, lo] = endpoint.to_be_bytes();
        Ipv4Addr::new(self.ip_base(), hi, lo, replica)
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_localization() {
        assert_eq!(Location::Us.localize_domain("google.com"), "google.com");
        assert_eq!(
            Location::Japan.localize_domain("google.com"),
            "google.co.jp"
        );
        assert_eq!(Location::Germany.localize_domain("google.com"), "google.de");
        // Non-.com domains unchanged.
        assert_eq!(
            Location::Japan.localize_domain("wyze.example.net"),
            "wyze.example.net"
        );
    }

    #[test]
    fn ip_spaces_disjoint() {
        let ips: Vec<Ipv4Addr> = Location::ALL.iter().map(|l| l.cloud_ip(7, 1)).collect();
        assert_ne!(ips[0].octets()[0], ips[1].octets()[0]);
        assert_ne!(ips[1].octets()[0], ips[2].octets()[0]);
    }

    #[test]
    fn cloud_ip_deterministic_and_distinct_per_endpoint() {
        let a = Location::Us.cloud_ip(1, 0);
        let b = Location::Us.cloud_ip(2, 0);
        assert_ne!(a, b);
        assert_eq!(a, Location::Us.cloud_ip(1, 0));
        assert_ne!(Location::Us.cloud_ip(1, 0), Location::Us.cloud_ip(1, 1));
    }

    #[test]
    fn suffixes() {
        assert_eq!(Location::Us.suffix(), "US");
        assert_eq!(Location::Japan.to_string(), "JP");
        assert_eq!(Location::Germany.to_string(), "DE");
    }
}
