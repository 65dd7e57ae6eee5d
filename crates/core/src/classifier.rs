//! Per-device unpredictable-event classification (§4, §5.4).
//!
//! Simple devices (SP10, WP3, Nest-E) get a size rule: a distinctive
//! first-packet size marks manual traffic. Complex devices get an ML
//! model over the 66 event features: BernoulliNB, "given its high
//! accuracy overall and better transferability than NCC" (§6, footnote
//! 2). The Table 2/3 model comparisons run on `fiat-ml` directly.
//!
//! [`ModelRegistry`] holds the trained models per device type and
//! version (§7 "Road to Production": "one model per IoT device and
//! software version which is downloaded and applied automatically as
//! FIAT identifies a new device").

use crate::events::UnpredictableEvent;
use crate::features::{
    event_feature_names, event_features, event_features_into, EVENT_FEATURE_COUNT,
};
use fiat_ml::naive_bayes::BernoulliNB;
use fiat_ml::{Classifier, Dataset, StandardScaler};
use fiat_net::{PacketRecord, TrafficClass};
use std::collections::BTreeMap;

/// Event class labels, aligned with [`TrafficClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Unpredictable control chatter.
    Control,
    /// Routine-triggered.
    Automated,
    /// Human-triggered.
    Manual,
}

impl EventClass {
    /// Integer label used by the ML layer.
    pub fn label(self) -> usize {
        match self {
            EventClass::Control => 0,
            EventClass::Automated => 1,
            EventClass::Manual => 2,
        }
    }

    /// Inverse of [`EventClass::label`].
    pub fn from_label(l: usize) -> EventClass {
        match l {
            0 => EventClass::Control,
            1 => EventClass::Automated,
            _ => EventClass::Manual,
        }
    }

    /// Conversion from ground-truth labels.
    pub fn from_traffic(c: TrafficClass) -> EventClass {
        match c {
            TrafficClass::Control => EventClass::Control,
            TrafficClass::Automated => EventClass::Automated,
            TrafficClass::Manual => EventClass::Manual,
        }
    }

    /// Whether this class requires humanness validation.
    pub fn is_manual(self) -> bool {
        matches!(self, EventClass::Manual)
    }
}

/// Index of the `pkt1-len` feature in the 66-vector.
const PKT1_LEN_IDX: usize = 4;

/// A per-device event classifier.
#[derive(Clone)]
pub enum EventClassifier {
    /// §4 size rule: first packet of `manual_size` bytes ⇒ manual.
    SimpleRule {
        /// The distinctive manual notification size (235 or 267 B).
        manual_size: u16,
    },
    /// Bernoulli Naive Bayes over scaled features (the deployed model).
    Bernoulli {
        /// Scaler fitted on training features.
        scaler: StandardScaler,
        /// The fitted model.
        model: BernoulliNB,
    },
}

impl EventClassifier {
    /// Build the size rule.
    pub fn simple_rule(manual_size: u16) -> Self {
        EventClassifier::SimpleRule { manual_size }
    }

    /// Train the BernoulliNB variant on an event dataset.
    pub fn train_bernoulli(data: &Dataset) -> Self {
        let (scaler, x) = StandardScaler::fit_transform(&data.x);
        let scaled = Dataset {
            x,
            y: data.y.clone(),
            n_classes: 3,
            feature_names: data.feature_names.clone(),
        };
        let mut model = BernoulliNB::new();
        model.fit(&scaled);
        EventClassifier::Bernoulli { scaler, model }
    }

    /// Classify a 66-feature vector. The Bernoulli model scales a copy
    /// on the stack, so classifying touches no heap.
    pub fn classify(&self, features: &[f64; EVENT_FEATURE_COUNT]) -> EventClass {
        match self {
            EventClassifier::SimpleRule { manual_size } => {
                if features[PKT1_LEN_IDX] == *manual_size as f64 {
                    EventClass::Manual
                } else {
                    EventClass::Control
                }
            }
            EventClassifier::Bernoulli { scaler, model } => {
                let mut f = *features;
                scaler.transform_row(&mut f);
                EventClass::from_label(model.predict_one(&f))
            }
        }
    }

    /// Classify an event from its packets in time order (the first
    /// [`crate::features::FEATURE_PACKETS`] are read), without touching
    /// the heap: what the proxy runs on its event buffer.
    pub(crate) fn classify_packets<'a>(
        &self,
        packets: impl IntoIterator<Item = &'a PacketRecord>,
    ) -> EventClass {
        let mut features = [0.0; EVENT_FEATURE_COUNT];
        event_features_into(&mut features, packets);
        self.classify(&features)
    }

    /// Classify an event over the original packet slice.
    pub fn classify_event(
        &self,
        event: &UnpredictableEvent,
        packets: &[PacketRecord],
    ) -> EventClass {
        self.classify_packets(event.packets.iter().map(|&i| &packets[i]))
    }
}

/// Build a labeled event dataset from grouped events and the packet slice
/// (labels from each event's majority ground truth).
pub fn event_dataset(events: &[UnpredictableEvent], packets: &[PacketRecord]) -> Dataset {
    let x: Vec<Vec<f64>> = events.iter().map(|e| event_features(e, packets)).collect();
    let y: Vec<usize> = events
        .iter()
        .map(|e| EventClass::from_traffic(e.majority_label(packets)).label())
        .collect();
    Dataset::new(x, y)
        .with_n_classes(3)
        .with_feature_names(event_feature_names())
}

/// A versioned, per-device-type model registry.
#[derive(Default)]
pub struct ModelRegistry {
    // (device type) -> version -> classifier.
    entries: BTreeMap<String, BTreeMap<u32, EventClassifier>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a model for a device type and version (later publishes of
    /// the same version overwrite).
    pub fn publish(
        &mut self,
        device_type: impl Into<String>,
        version: u32,
        model: EventClassifier,
    ) {
        self.entries
            .entry(device_type.into())
            .or_default()
            .insert(version, model);
    }

    /// Resolve the newest model for a device type.
    pub fn latest(&self, device_type: &str) -> Option<(u32, &EventClassifier)> {
        self.entries
            .get(device_type)
            .and_then(|v| v.last_key_value())
            .map(|(&ver, m)| (ver, m))
    }

    /// Resolve a specific version.
    pub fn get(&self, device_type: &str, version: u32) -> Option<&EventClassifier> {
        self.entries.get(device_type)?.get(&version)
    }

    /// Number of (type, version) models published.
    pub fn len(&self) -> usize {
        self.entries.values().map(|v| v.len()).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{Direction, SimTime, TcpFlags, TlsVersion, Transport};
    use std::net::Ipv4Addr;

    fn pkt(ts_ms: u64, size: u16, label: TrafficClass, tls: TlsVersion) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            device: 0,
            direction: Direction::ToDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 5000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls,
            size,
            label,
        }
    }

    fn event(packets: &[PacketRecord], idx: Vec<usize>) -> UnpredictableEvent {
        UnpredictableEvent {
            device: 0,
            packets: idx.clone(),
            start: packets[idx[0]].ts,
            end: packets[*idx.last().unwrap()].ts,
        }
    }

    #[test]
    fn simple_rule_matches_exact_size() {
        let c = EventClassifier::simple_rule(235);
        let packets = vec![
            pkt(0, 235, TrafficClass::Manual, TlsVersion::Tls12),
            pkt(100, 235, TrafficClass::Manual, TlsVersion::Tls12),
        ];
        let ev = event(&packets, vec![0, 1]);
        assert_eq!(c.classify_event(&ev, &packets), EventClass::Manual);

        let other = vec![pkt(0, 219, TrafficClass::Automated, TlsVersion::Tls12)];
        let ev2 = event(&other, vec![0]);
        assert_eq!(c.classify_event(&ev2, &other), EventClass::Control);
    }

    /// Synthesize a separable event dataset: manual events are TLS 1.3
    /// big-packet bursts, automated are mid TLS 1.2, control small no-TLS.
    fn toy_event_data(n: usize) -> (Vec<PacketRecord>, Vec<UnpredictableEvent>) {
        let mut packets = Vec::new();
        let mut events = Vec::new();
        let mut t = 0u64;
        for k in 0..n {
            let (size, label, tls) = match k % 3 {
                0 => (900, TrafficClass::Manual, TlsVersion::Tls13),
                1 => (400, TrafficClass::Automated, TlsVersion::Tls12),
                _ => (150, TrafficClass::Control, TlsVersion::None),
            };
            let start = packets.len();
            for j in 0..3 {
                packets.push(pkt(t + j * 100, size + (k % 5) as u16, label, tls));
            }
            events.push(UnpredictableEvent {
                device: 0,
                packets: (start..start + 3).collect(),
                start: SimTime::from_millis(t),
                end: SimTime::from_millis(t + 200),
            });
            t += 60_000;
        }
        (packets, events)
    }

    #[test]
    fn bernoulli_classifier_learns_classes() {
        let (packets, events) = toy_event_data(30);
        let data = event_dataset(&events, &packets);
        assert_eq!(data.n_classes, 3);
        let c = EventClassifier::train_bernoulli(&data);
        let correct = events
            .iter()
            .filter(|e| {
                c.classify_event(e, &packets)
                    == EventClass::from_traffic(e.majority_label(&packets))
            })
            .count();
        assert!(correct >= 28, "correct {correct}/30");
    }

    #[test]
    fn event_dataset_shape() {
        let (packets, events) = toy_event_data(9);
        let d = event_dataset(&events, &packets);
        assert_eq!(d.len(), 9);
        assert_eq!(d.n_features(), 66);
        assert_eq!(d.class_counts(), vec![3, 3, 3]);
        assert_eq!(d.feature_names[PKT1_LEN_IDX], "pkt1-len");
    }

    #[test]
    fn testbed_event_features_are_pinned() {
        // Every feature bit of a seeded one-day testbed capture's event
        // dataset, as Tables 2–5 and training read it.
        use crate::events::{group_events, EVENT_GAP};
        use crate::predict::PredictabilityEngine;
        use fiat_net::FlowDef;
        use fiat_trace::{TestbedConfig, TestbedTrace};
        let capture = TestbedTrace::generate(TestbedConfig {
            days: 1.0,
            seed: 1,
            ..TestbedConfig::default()
        });
        let packets = &capture.trace.packets;
        let flags =
            PredictabilityEngine::new(FlowDef::PortLess).analyze(packets, &capture.trace.dns);
        let data = event_dataset(&group_events(packets, &flags, EVENT_GAP), packets);
        let mut h = fiat_crypto::Sha256::new();
        for row in &data.x {
            for f in row {
                h.update(&f.to_bits().to_le_bytes());
            }
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(data.len(), 150);
        assert_eq!(
            hex,
            "9e3b9de40144162f10ee90db25637023cc3f8f916c6bf481813859de4023bd44"
        );
    }

    #[test]
    fn class_conversions_roundtrip() {
        for c in [
            EventClass::Control,
            EventClass::Automated,
            EventClass::Manual,
        ] {
            assert_eq!(EventClass::from_label(c.label()), c);
        }
        assert!(EventClass::Manual.is_manual());
        assert!(!EventClass::Automated.is_manual());
        assert_eq!(
            EventClass::from_traffic(TrafficClass::Manual),
            EventClass::Manual
        );
    }

    #[test]
    fn registry_resolves_latest_version() {
        let mut reg = ModelRegistry::new();
        reg.publish("SP10", 1, EventClassifier::simple_rule(200));
        reg.publish("SP10", 3, EventClassifier::simple_rule(235));
        reg.publish("SP10", 2, EventClassifier::simple_rule(210));
        reg.publish("Nest-E", 1, EventClassifier::simple_rule(267));
        assert_eq!(reg.len(), 4);
        let (ver, model) = reg.latest("SP10").unwrap();
        assert_eq!(ver, 3);
        assert!(matches!(
            model,
            EventClassifier::SimpleRule { manual_size: 235 }
        ));
        assert!(reg.get("SP10", 2).is_some());
        assert!(reg.latest("Unknown").is_none());
    }
}
