//! Property-based tests for the wire formats and estimators.

use dmc_obs::fnv1a;
use dmc_proto::wire::{Ack, DataHeader, NoticeKind, PathNotice, ACK_BITMAP_BITS};
use dmc_proto::{LossEstimator, RttEstimator};
use dmc_stats::rng::run_cases;

/// Header encode/decode is the identity.
#[test]
fn data_header_round_trips() {
    run_cases(fnv1a(b"data_header_round_trips"), 128, |rng| {
        let seq = rng.next_u64();
        let created = rng.next_u64();
        let sent = rng.next_u64();
        let path = rng.next_u64() as u8;
        let stage = rng.next_u64() as u8;
        let h = DataHeader {
            seq,
            created_ns: created,
            sent_ns: sent,
            path,
            stage,
        };
        assert_eq!(DataHeader::decode(&h.encode()), Some(h));
    });
}

/// Ack encode/decode preserves the full received-set semantics.
#[test]
fn ack_round_trips() {
    run_cases(fnv1a(b"ack_round_trips"), 128, |rng| {
        let just = rng.next_u64();
        let echo = rng.next_u64();
        let path = rng.next_u64() as u8;
        let start = rng.int(0u64..u64::MAX / 2);
        let offsets = (0..rng.int(0usize..40))
            .map(|_| rng.int(0u64..ACK_BITMAP_BITS as u64))
            .collect::<Vec<_>>();
        let mut a = Ack::new(just, echo, path, start);
        for &off in &offsets {
            a.set_received(start + off);
        }
        let b = Ack::decode(&a.encode()).expect("decodes");
        assert_eq!(&b, &a);
        for &off in &offsets {
            assert!(b.is_received(start + off));
        }
        let claimed: Vec<u64> = b.received_seqs().collect();
        let mut expected: Vec<u64> = offsets.iter().map(|&o| start + o).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(claimed, expected);
    });
}

/// `received_seqs` walks exactly the seqs `is_received` reports, in
/// ascending order, for any window start and any bitmap — including
/// forged ones whose window runs past `u64::MAX`.
#[test]
fn received_seqs_is_the_ascending_is_received_scan() {
    let stream = fnv1a(b"received_seqs_is_the_ascending_is_received_scan");
    run_cases(stream, 128, |rng| {
        let start = rng.next_u64();
        let top = rng.bool();
        let low = rng.next_u64();
        let high = rng.next_u64();
        let start = if top {
            u64::MAX - start % ACK_BITMAP_BITS as u64
        } else {
            start
        };
        let mut a = Ack::new(0, 0, 0, start);
        a.bitmap = (u128::from(low) | u128::from(high) << 64).to_le_bytes();
        let scan: Vec<u64> = (0..ACK_BITMAP_BITS as u64)
            .filter_map(|off| start.checked_add(off))
            .filter(|&seq| a.is_received(seq))
            .collect();
        assert_eq!(a.received_seqs().collect::<Vec<_>>(), scan);
    });
}

/// The failure-notification frame round-trips for every valid value,
/// and never decodes as one of the other frame types.
#[test]
fn path_notice_round_trips() {
    run_cases(fnv1a(b"path_notice_round_trips"), 128, |rng| {
        let path = rng.next_u64() as u8;
        let down = rng.bool();
        let seq = rng.next_u64() as u8;
        let at = rng.next_u64();
        let n = PathNotice {
            path,
            kind: if down {
                NoticeKind::Down
            } else {
                NoticeKind::Up
            },
            seq,
            at_ns: at,
        };
        let wire = n.encode();
        assert_eq!(wire.len(), PathNotice::WIRE_BYTES);
        assert_eq!(PathNotice::decode(&wire), Some(n));
        // Distinct magics: a notice is never misparsed as data or ack.
        assert_eq!(DataHeader::decode(&wire), None);
        assert_eq!(Ack::decode(&wire), None);
        assert_eq!(
            PathNotice::decode(&wire[..PathNotice::WIRE_BYTES - 1]),
            None
        );
    });
}

/// No random byte string panics a decoder, and anything a decoder
/// does accept re-encodes to a frame that decodes identically (the
/// checksum makes blind acceptance of random bytes vanishingly
/// unlikely, but the property holds either way).
#[test]
fn garbage_is_rejected() {
    run_cases(fnv1a(b"garbage_is_rejected"), 128, |rng| {
        let bytes = (0..rng.int(0usize..96))
            .map(|_| rng.next_u64() as u8)
            .collect::<Vec<_>>();
        match DataHeader::decode(&bytes) {
            None => {}
            Some(h) => assert_eq!(DataHeader::decode(&h.encode()), Some(h)),
        }
        match Ack::decode(&bytes) {
            None => {}
            Some(a) => {
                let again = Ack::decode(&a.encode()).expect("re-decodes");
                assert_eq!(again, a);
            }
        }
        match PathNotice::decode(&bytes) {
            None => {}
            Some(n) => assert_eq!(PathNotice::decode(&n.encode()), Some(n)),
        }
    });
}

/// Flipping any single bit of a valid frame makes its decoder reject
/// it (checksum coverage is total).
#[test]
fn corrupted_frames_are_rejected() {
    run_cases(fnv1a(b"corrupted_frames_are_rejected"), 128, |rng| {
        let path = rng.next_u64() as u8;
        let seq = rng.next_u64() as u8;
        let at = rng.next_u64();
        let byte = rng.next_u64() as usize;
        let bit = rng.next_u64() as u8;
        let n = PathNotice {
            path,
            kind: NoticeKind::Down,
            seq,
            at_ns: at,
        };
        let mut wire = n.encode().to_vec();
        wire[byte % PathNotice::WIRE_BYTES] ^= 1 << (bit % 8);
        assert_eq!(PathNotice::decode(&wire), None);
    });
}

/// SRTT stays inside the observed sample range (convexity of EWMA).
#[test]
fn srtt_bounded_by_samples() {
    run_cases(fnv1a(b"srtt_bounded_by_samples"), 128, |rng| {
        let samples = (0..rng.int(1usize..200))
            .map(|_| rng.f64(0.001..2.0))
            .collect::<Vec<_>>();
        let mut e = RttEstimator::new();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &s in &samples {
            e.record(s);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let srtt = e.srtt().expect("samples fed");
        assert!(
            srtt >= lo - 1e-12 && srtt <= hi + 1e-12,
            "srtt {srtt} outside [{lo}, {hi}]"
        );
        assert!(e.rto(0.0).expect("defined") >= srtt);
    });
}

/// Windowed loss rate equals the exact rate over the last W samples.
#[test]
fn loss_window_is_exact() {
    run_cases(fnv1a(b"loss_window_is_exact"), 128, |rng| {
        let outcomes = (0..rng.int(1usize..300))
            .map(|_| rng.bool())
            .collect::<Vec<_>>();
        let window = rng.int(1usize..64);
        let mut e = LossEstimator::new(window);
        for &lost in &outcomes {
            e.record(lost);
        }
        let tail: Vec<bool> = outcomes.iter().rev().take(window).copied().collect();
        let want = tail.iter().filter(|&&l| l).count() as f64 / tail.len() as f64;
        assert!((e.rate() - want).abs() < 1e-12);
        let lifetime = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        assert!((e.lifetime_rate() - lifetime).abs() < 1e-12);
    });
}
