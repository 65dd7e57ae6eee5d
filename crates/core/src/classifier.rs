//! Per-device unpredictable-event classification (§4, §5.4).
//!
//! Simple devices (SP10, WP3, Nest-E) get a size rule: a distinctive
//! first-packet size marks manual traffic. Complex devices get an ML
//! model over the 66 event features: BernoulliNB, "given its high
//! accuracy overall and better transferability than NCC" (§6, footnote
//! 2). The Table 2/3 model comparisons run on `fiat-ml` directly.

use crate::events::UnpredictableEvent;
use crate::features::{event_feature_names, event_features};
use fiat_ml::naive_bayes::BernoulliNB;
use fiat_ml::{Classifier, Dataset, StandardScaler};
use fiat_net::{PacketRecord, TrafficClass};
use serde::{Deserialize, Serialize};

/// Event class labels, aligned with [`TrafficClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Classify a 66-feature vector.
    pub fn classify(&self, features: &[f64]) -> EventClass {
        match self {
            EventClassifier::SimpleRule { manual_size } => {
                if features[PKT1_LEN_IDX] == *manual_size as f64 {
                    EventClass::Manual
                } else {
                    EventClass::Control
                }
            }
            EventClassifier::Bernoulli { scaler, model } => {
                let mut f = features.to_vec();
                scaler.transform_row(&mut f);
                EventClass::from_label(model.predict_one(&f))
            }
        }
    }

    /// Classify an event directly.
    pub fn classify_event(
        &self,
        event: &UnpredictableEvent,
        packets: &[PacketRecord],
    ) -> EventClass {
        self.classify(&event_features(event, packets))
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
}
