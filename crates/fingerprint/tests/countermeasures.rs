//! Countermeasure robustness: a *genuine* device running traffic-privacy
//! countermeasures — size padding, length quantization ("shaping"),
//! timing jitter — may lose its confident match, but the matcher must
//! degrade to the explicit no-confident-match, never flip it to another
//! class (which would brand a legitimate device a spoofer).

use fiat_core::{FingerprintGate, FingerprintVerdict};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{DnsTable, PacketRecord};
use fiat_trace::{class_trace, fingerprint_corpus, testbed_devices, CORPUS_CLASSES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Train once; every proptest case builds a fresh engine from a clone.
fn trained() -> &'static (SignatureSet, DnsTable) {
    static TRAINED: OnceLock<(SignatureSet, DnsTable)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let corpus = fingerprint_corpus(1);
        let sigs = SignatureSet::learn(&corpus, MatcherConfig::default().evidence_window);
        let mut dns = DnsTable::new();
        for (_, trace) in &corpus {
            dns.merge(&trace.dns);
        }
        (sigs, dns)
    })
}

/// Run a transformed genuine trace of class `ci` through a fresh engine
/// and assert the sealed verdict is the honest set: the correct class or
/// an explicit no-match — never another class, never a spoof flag.
fn assert_no_cross_class_flip(
    ci: usize,
    seed: u64,
    case: &str,
    transform: impl Fn(&mut PacketRecord),
) -> Result<(), TestCaseError> {
    let (sigs, dns) = trained();
    let mut engine = FingerprintEngine::new(sigs.clone(), MatcherConfig::default());
    let mut dns = dns.clone();
    let devices = testbed_devices();
    let mut trace = class_trace(&devices[CORPUS_CLASSES[ci].1], 600, seed);
    dns.merge(&trace.dns);
    let window = MatcherConfig::default().evidence_window as usize;
    trace.packets.truncate(2 * window);
    for pkt in &mut trace.packets {
        transform(pkt);
    }
    let mut sealed = None;
    for pkt in &trace.packets {
        let obs = engine.observe(pkt, &dns);
        if obs.just_sealed {
            sealed = Some(obs.verdict);
        }
    }
    let verdict = sealed.expect("two windows of packets must seal");
    match verdict {
        FingerprintVerdict::Match(b) => prop_assert_eq!(
            b as usize,
            ci,
            "genuine {} ({case}, seed {seed}) matched as {:?}",
            CORPUS_CLASSES[ci].0,
            verdict
        ),
        FingerprintVerdict::NoMatch => {}
        other => prop_assert!(
            false,
            "genuine {} ({case}, seed {seed}) got {:?} — cross-class flip",
            CORPUS_CLASSES[ci].0,
            other
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn padding_never_flips_class(ci in 0usize..5, seed in 0u64..1_000, pad in 0u16..=300) {
        assert_no_cross_class_flip(ci, seed, &format!("pad {pad}"), |pkt| {
            pkt.size = pkt.size.saturating_add(pad).min(1500);
        })?;
    }

    #[test]
    fn shaping_never_flips_class(ci in 0usize..5, seed in 0u64..1_000, quantum in 1u16..=128) {
        assert_no_cross_class_flip(ci, seed, &format!("quantum {quantum}"), |pkt| {
            pkt.size = (pkt.size.div_ceil(quantum) * quantum).min(1500);
        })?;
    }

    #[test]
    fn jitter_never_flips_class(ci in 0usize..5, seed in 0u64..1_000, num in 3u64..=5) {
        // Scale every timestamp by num/4: 0.75x to 1.25x cadence jitter.
        assert_no_cross_class_flip(ci, seed, &format!("scale {num}/4"), |pkt| {
            pkt.ts = fiat_net::SimTime::from_millis(pkt.ts.as_millis() * num / 4);
        })?;
    }

    #[test]
    fn combined_countermeasures_never_flip_class(
        ci in 0usize..5,
        seed in 0u64..1_000,
        pad in 0u16..=200,
        quantum in 1u16..=64,
        num in 3u64..=5,
    ) {
        let case = format!("pad {pad} quantum {quantum} scale {num}/4");
        assert_no_cross_class_flip(ci, seed, &case, |pkt| {
            pkt.size = (pkt.size.saturating_add(pad).div_ceil(quantum) * quantum).min(1500);
            pkt.ts = fiat_net::SimTime::from_millis(pkt.ts.as_millis() * num / 4);
        })?;
    }
}
