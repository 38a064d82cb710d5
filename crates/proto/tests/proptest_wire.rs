//! Property-based tests for the wire formats and estimators.

use dmc_proto::wire::{Ack, DataHeader, NoticeKind, PathNotice, ACK_BITMAP_BITS};
use dmc_proto::{LossEstimator, RttEstimator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Header encode/decode is the identity.
    #[test]
    fn data_header_round_trips(
        seq in any::<u64>(),
        created in any::<u64>(),
        sent in any::<u64>(),
        path in any::<u8>(),
        stage in any::<u8>(),
    ) {
        let h = DataHeader { seq, created_ns: created, sent_ns: sent, path, stage };
        prop_assert_eq!(DataHeader::decode(&h.encode()), Some(h));
    }

    /// Ack encode/decode preserves the full received-set semantics.
    #[test]
    fn ack_round_trips(
        just in any::<u64>(),
        echo in any::<u64>(),
        path in any::<u8>(),
        start in 0u64..u64::MAX / 2,
        offsets in proptest::collection::vec(0u64..ACK_BITMAP_BITS as u64, 0..40),
    ) {
        let mut a = Ack::new(just, echo, path, start);
        for &off in &offsets {
            a.set_received(start + off);
        }
        let b = Ack::decode(&a.encode()).expect("decodes");
        prop_assert_eq!(&b, &a);
        for &off in &offsets {
            prop_assert!(b.is_received(start + off));
        }
        let claimed: Vec<u64> = b.received_seqs().collect();
        let mut expected: Vec<u64> = offsets.iter().map(|&o| start + o).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(claimed, expected);
    }

    /// `received_seqs` walks exactly the seqs `is_received` reports, in
    /// ascending order, for any window start and any bitmap — including
    /// forged ones whose window runs past `u64::MAX`.
    #[test]
    fn received_seqs_is_the_ascending_is_received_scan(
        start in any::<u64>(),
        top in any::<bool>(),
        low in any::<u64>(),
        high in any::<u64>(),
    ) {
        let start = if top { u64::MAX - start % ACK_BITMAP_BITS as u64 } else { start };
        let mut a = Ack::new(0, 0, 0, start);
        a.bitmap = (u128::from(low) | u128::from(high) << 64).to_le_bytes();
        let scan: Vec<u64> = (0..ACK_BITMAP_BITS as u64)
            .filter_map(|off| start.checked_add(off))
            .filter(|&seq| a.is_received(seq))
            .collect();
        prop_assert_eq!(a.received_seqs().collect::<Vec<_>>(), scan);
    }

    /// The failure-notification frame round-trips for every valid value,
    /// and never decodes as one of the other frame types.
    #[test]
    fn path_notice_round_trips(
        path in any::<u8>(),
        down in any::<bool>(),
        seq in any::<u8>(),
        at in any::<u64>(),
    ) {
        let n = PathNotice {
            path,
            kind: if down { NoticeKind::Down } else { NoticeKind::Up },
            seq,
            at_ns: at,
        };
        let wire = n.encode();
        prop_assert_eq!(wire.len(), PathNotice::WIRE_BYTES);
        prop_assert_eq!(PathNotice::decode(&wire), Some(n));
        // Distinct magics: a notice is never misparsed as data or ack.
        prop_assert_eq!(DataHeader::decode(&wire), None);
        prop_assert_eq!(Ack::decode(&wire), None);
        prop_assert_eq!(PathNotice::decode(&wire[..PathNotice::WIRE_BYTES - 1]), None);
    }

    /// No random byte string panics a decoder, and anything a decoder
    /// does accept re-encodes to a frame that decodes identically (the
    /// checksum makes blind acceptance of random bytes vanishingly
    /// unlikely, but the property holds either way).
    #[test]
    fn garbage_is_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        match DataHeader::decode(&bytes) {
            None => {}
            Some(h) => prop_assert_eq!(DataHeader::decode(&h.encode()), Some(h)),
        }
        match Ack::decode(&bytes) {
            None => {}
            Some(a) => {
                let again = Ack::decode(&a.encode()).expect("re-decodes");
                prop_assert_eq!(again, a);
            }
        }
        match PathNotice::decode(&bytes) {
            None => {}
            Some(n) => prop_assert_eq!(PathNotice::decode(&n.encode()), Some(n)),
        }
    }

    /// Flipping any single bit of a valid frame makes its decoder reject
    /// it (checksum coverage is total).
    #[test]
    fn corrupted_frames_are_rejected(
        path in any::<u8>(),
        seq in any::<u8>(),
        at in any::<u64>(),
        byte in any::<usize>(),
        bit in any::<u8>(),
    ) {
        let n = PathNotice { path, kind: NoticeKind::Down, seq, at_ns: at };
        let mut wire = n.encode().to_vec();
        wire[byte % PathNotice::WIRE_BYTES] ^= 1 << (bit % 8);
        prop_assert_eq!(PathNotice::decode(&wire), None);
    }

    /// SRTT stays inside the observed sample range (convexity of EWMA).
    #[test]
    fn srtt_bounded_by_samples(samples in proptest::collection::vec(0.001f64..2.0, 1..200)) {
        let mut e = RttEstimator::new();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &s in &samples {
            e.record(s);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let srtt = e.srtt().expect("samples fed");
        prop_assert!(srtt >= lo - 1e-12 && srtt <= hi + 1e-12,
            "srtt {srtt} outside [{lo}, {hi}]");
        prop_assert!(e.rto(0.0).expect("defined") >= srtt);
    }

    /// Windowed loss rate equals the exact rate over the last W samples.
    #[test]
    fn loss_window_is_exact(outcomes in proptest::collection::vec(any::<bool>(), 1..300),
                            window in 1usize..64) {
        let mut e = LossEstimator::new(window);
        for &lost in &outcomes {
            e.record(lost);
        }
        let tail: Vec<bool> = outcomes.iter().rev().take(window).copied().collect();
        let want = tail.iter().filter(|&&l| l).count() as f64 / tail.len() as f64;
        prop_assert!((e.rate() - want).abs() < 1e-12);
        let lifetime = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        prop_assert!((e.lifetime_rate() - lifetime).abs() < 1e-12);
    }
}
