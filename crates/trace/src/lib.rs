//! IoT traffic synthesis: the paper's testbed and public-dataset stand-ins.
//!
//! The original evaluation drew on a 10-device physical testbed (Table 1)
//! and two public captures (YourThings, Mon(IoT)r). Neither hardware nor
//! captures are available here, so this crate generates traffic from
//! parametric per-device models calibrated to what the paper reports:
//! flow structure (periodic control flows, port churn, multi-IP domains),
//! event shapes (a smart plug's single 235 B command packet, a camera's
//! 41-packet constant-rate stream, a smart speaker's hundred-packet app
//! bursts), routine schedules, and manual-interaction cadence.
//!
//! - [`device`]: the generative device model (periodic flows + event
//!   shapes per traffic class).
//! - [`testbed`]: the 10 Table 1 devices and full labeled trace synthesis.
//! - [`location`]: US / Japan / Germany VPN variants (domains and IPs
//!   change; behaviour does not — §3.3 "Location").
//! - [`datasets`]: YourThings-like and Mon(IoT)r-like corpora, the Bose
//!   SoundTouch flows of Figure 1(a), and IoT-Inspector-style 5-second
//!   aggregation.
//! - [`mod@fingerprint_corpus`]: labeled per-class training corpora and a
//!   spoofed-device generator for `fiat-fingerprint`.

pub mod datasets;
pub mod device;
pub mod fingerprint_corpus;
pub mod location;
pub mod testbed;

pub use device::{DeviceModel, EventShape, PeriodicFlow};
pub use fingerprint_corpus::{
    class_trace, fingerprint_corpus, spoofed_trace, CLASS_TRACE_DURATION, CORPUS_CLASSES,
};
pub use location::Location;
pub use testbed::{testbed_devices, TestbedConfig, TestbedTrace};
