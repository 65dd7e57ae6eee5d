//! IMU sensing and humanness verification for FIAT.
//!
//! When a user interacts with an IoT companion app, the touch force leaves
//! a motion signature in the phone's accelerometer and gyroscope. FIAT's
//! client app samples both at 250 Hz while an IoT app is in the foreground
//! (§5.3), extracts 48 features, and the proxy classifies the evidence as
//! human or not with a 9-layer decision tree (§5.4, following zkSENSE).
//!
//! The paper trains on the zkSENSE dataset, which is not public; we build
//! a synthetic-but-physical substitute in [`imu`]: human traces combine
//! gravity, hand tremor (8–12 Hz), orientation drift, and damped touch
//! impulses; attacker traces are a phone resting on a table (software
//! injection leaves no motion) or replay-like smooth noise. The classifier
//! operating point is tuned to land near the paper's reported recalls
//! (0.934 human / 0.982 non-human), which is what the Table 6 composition
//! depends on.

pub mod features;
pub mod humanness;
pub mod imu;

pub use features::{extract_features, feature_names, FEATURE_COUNT};
pub use humanness::{HumannessValidator, ValidatorReport};
pub use imu::{ImuTrace, MotionKind, SAMPLE_RATE_HZ};
