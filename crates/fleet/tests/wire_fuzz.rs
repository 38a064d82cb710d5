//! Seeded fuzz of the wire surface: the seven decoders of
//! `dmc_proto::wire`, and `FleetService::handle_frame` + `tick_frames`
//! behind them.
//!
//! Two kinds of input: random bytes of random length (0–256), and valid
//! frames with 1–8 bytes overwritten **and the checksum recomputed** by
//! an independent textbook RFC 1071 loop —
//! the only inputs that get past a checksum to the field parsing, the
//! unknown-verdict/kind arms and the service's semantic validation
//! (`proptest_wire.rs` flips bits under a stale checksum, so everything
//! it generates dies at the first check). Nothing may panic; whatever a
//! decoder accepts re-encodes to a frame that decodes to the same value;
//! and the service answers every offer it accepted with exactly one
//! verdict, never a failed tick.

use dmc_core::ScenarioPath;
use dmc_fleet::{FleetService, ServiceConfig};
use dmc_proto::wire::{
    Ack, DataHeader, DecisionFrame, DepartFrame, LinkChangeFrame, LinkChangeKind, NoticeKind,
    OfferFrame, PathNotice, Verdict,
};
use dmc_stats::rng::SplitMix64;
use std::collections::BTreeSet;

/// `len` bytes from the stream, one draw each.
fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Where each frame type keeps its checksum (offset, width), by magic —
/// written out again here, independently of `wire.rs`.
fn checksum_field(magic: u8) -> (usize, usize) {
    match magic {
        0xD7 | 0x5E | 0x17 => (4, 4),
        _ => (2, 2),
    }
}

/// Recomputes a frame's checksum in place with RFC 1071's textbook
/// loop, one word of the field's width at a time (16-bit words for a
/// two-byte field, 32-bit words for a four-byte one): the
/// ones'-complement sum of the frame with the field zeroed and the tail
/// zero-padded, folded, complemented. `wire.rs` takes the same sum 64
/// bits at a time; this loop is its oracle.
fn reseal(frame: &mut [u8]) {
    let (at, width) = checksum_field(frame[0]);
    frame[at..at + width].fill(0);
    let bits = 8 * width as u32;
    let low = (1u64 << bits) - 1;
    let mut sum = 0u64;
    for chunk in frame.chunks(width) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        sum += u64::from_le_bytes(word);
    }
    while sum > low {
        sum = (sum & low) + (sum >> bits);
    }
    frame[at..at + width].copy_from_slice(&(!sum & low).to_le_bytes()[..width]);
}

/// One valid frame of each type, seeded.
fn valid_frames(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut ack = Ack::new(rng.next_u64(), rng.next_u64(), rng.next_u64() as u8, 400);
    ack.set_received(400 + rng.next_u64() % 128);
    vec![
        DataHeader {
            seq: rng.next_u64(),
            created_ns: rng.next_u64(),
            sent_ns: rng.next_u64(),
            path: rng.next_u64() as u8,
            stage: rng.next_u64() as u8,
        }
        .encode()
        .to_vec(),
        ack.encode().to_vec(),
        PathNotice {
            path: rng.next_u64() as u8,
            kind: [NoticeKind::Down, NoticeKind::Up][rng.int(0usize..2)],
            seq: rng.next_u64() as u8,
            at_ns: rng.next_u64(),
        }
        .encode()
        .to_vec(),
        offer(rng).encode().to_vec(),
        DecisionFrame {
            seq: rng.next_u64(),
            flow: rng.next_u64(),
            verdict: [Verdict::Rejected, Verdict::Admitted, Verdict::Invalid][rng.int(0usize..3)],
            predicted_quality: 0.9875,
        }
        .encode()
        .to_vec(),
        DepartFrame {
            seq: rng.next_u64(),
            flow: rng.next_u64() % 64,
        }
        .encode()
        .to_vec(),
        link(rng).encode().to_vec(),
    ]
}

fn offer(rng: &mut SplitMix64) -> OfferFrame {
    let masks = [vec![], vec![0], vec![1, 2], vec![0, 3], vec![2]];
    OfferFrame {
        seq: rng.next_u64(),
        data_rate: 2e6 + rng.int(0usize..20) as f64 * 1e6,
        lifetime: 0.3 + rng.int(0usize..8) as f64 * 0.1,
        // Floors stay clear of what the paths deliver (0.8 … 1.0): one
        // within 1e-7 *above* what a flow can reach passes the solver's
        // phase 1 and comes back as a vertex that breaks a capacity row
        // (ROADMAP, LP engine) — a mantissa-level mutant of 0.9 did.
        min_quality: [0.0, 0.5, 0.75][rng.int(0usize..3)],
        cost_budget: [f64::INFINITY, 1.0][rng.int(0usize..2)],
        priority: 1.0 + rng.int(0usize..3) as f64,
        transmissions: 1 + rng.int(0usize..2) as u8,
        path_mask: OfferFrame::mask_for(&masks[rng.int(0usize..masks.len())]).unwrap(),
    }
}

fn link(rng: &mut SplitMix64) -> LinkChangeFrame {
    let kinds = [
        (LinkChangeKind::Fail, 0.0),
        (LinkChangeKind::Recover, 0.0),
        (LinkChangeKind::SetBandwidth, 25e6),
        (LinkChangeKind::SetLoss, 0.1),
    ];
    let (kind, value) = kinds[rng.int(0usize..kinds.len())];
    LinkChangeFrame {
        seq: rng.next_u64(),
        path: rng.int(0usize..4) as u16,
        kind,
        value,
    }
}

/// A valid frame with 1–8 bytes overwritten, resealed.
fn mutated(rng: &mut SplitMix64, mut frame: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.int(0usize..8) {
        let at = 1 + rng.int(0usize..frame.len() - 1);
        frame[at] = rng.next_u64() as u8;
    }
    reseal(&mut frame);
    frame
}

/// Every decoder on `bytes`: no panic, and an accepted frame survives a
/// second trip through its own encoder.
fn decode_all(bytes: &[u8]) -> usize {
    macro_rules! stable {
        ($($frame:ty),*) => {
            0 $(+ <$frame>::decode(bytes).map_or(0, |accepted| {
                let wire = accepted.encode();
                let again = <$frame>::decode(&wire).expect("an encoded frame decodes");
                assert_eq!(again.encode(), wire, "{}", stringify!($frame));
                1
            }))*
        };
    }
    stable!(
        DataHeader,
        Ack,
        PathNotice,
        OfferFrame,
        DecisionFrame,
        DepartFrame,
        LinkChangeFrame
    )
}

#[test]
fn decoders_never_panic_and_what_they_accept_round_trips() {
    let mut rng = SplitMix64::new(0xF0_22);
    let (mut random_accepted, mut mutated_accepted) = (0, 0);
    for _ in 0..4_000 {
        let len = rng.int(0usize..257);
        random_accepted += decode_all(&bytes(&mut rng, len));
        for frame in valid_frames(&mut rng) {
            assert_eq!(decode_all(&frame), 1, "a valid frame is one type's");
            let mut resealed = frame.clone();
            reseal(&mut resealed);
            assert_eq!(
                resealed, frame,
                "the textbook loop seals what wire.rs seals"
            );
            mutated_accepted += decode_all(&mutated(&mut rng, frame));
        }
    }
    // Random bytes have to guess a checksum; resealed mutants mostly get
    // through, short of an unknown verdict or kind byte.
    assert!(random_accepted < 10, "{random_accepted}");
    assert!(mutated_accepted > 20_000, "{mutated_accepted}");
}

/// Whether the service fuzz feeds `frame` to the service. Everything
/// goes in except a rate, priority, budget or bandwidth that is *valid*
/// yet more than 1e140-fold off the script's nominal values, which only
/// keeps the script's numbers inside the LP's scalable range often
/// enough to reach the other verdicts. Giants inside the band are the
/// point: of a best-effort flow of 1e74 bit/s, no 1e7 bit/s path can
/// carry more than a tolerance-sized fraction, so the core leaves every
/// path out of its block and admits it at quality 0 —
/// before that door rule its coefficient swamped the capacity rows, the
/// flows beside it were admitted against rows that read `0 ≤ 0`, and its
/// departure failed the tick. NaN, ±∞, zero, negative, subnormal and
/// out-of-range values all stay in: they must come back `Invalid`.
fn in_the_fuzzed_domain(frame: &[u8]) -> bool {
    let wild = |v: f64, nominal: f64| {
        let tame = v > nominal * 1e-140 && v < nominal * 1e140;
        v > 0.0 && v.is_finite() && !tame
    };
    let offer = OfferFrame::decode(frame);
    let link = LinkChangeFrame::decode(frame);
    !offer.is_some_and(|o| {
        wild(o.data_rate, 1e7) || wild(o.priority, 1.0) || wild(o.cost_budget, 1.0)
    }) && !link.is_some_and(|l| l.kind == LinkChangeKind::SetBandwidth && wild(l.value, 25e6))
}

#[test]
fn the_service_answers_every_accepted_offer_exactly_once() {
    let costed = |bps, delay, loss| ScenarioPath::constant_with_cost(bps, delay, loss, 1e-9);
    let paths = vec![
        costed(80e6, 0.450, 0.2).unwrap(),
        costed(20e6, 0.150, 0.0).unwrap(),
        costed(30e6, 0.250, 0.05).unwrap(),
        costed(40e6, 0.350, 0.1).unwrap(),
    ];
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let mut service = FleetService::new(paths, &[vec![0, 1], vec![2, 3]], config).unwrap();
    let mut rng = SplitMix64::new(0x5E_ED);
    let mut pending = BTreeSet::new();
    let mut resident: Vec<u64> = Vec::new();
    let (mut answered, mut invalid, mut admitted) = (0, 0, 0);
    for round in 0..600 {
        for _ in 0..1 + rng.int(0usize..6) {
            let frame = match rng.int(0usize..8) {
                0 => {
                    let len = rng.int(0usize..257);
                    bytes(&mut rng, len)
                }
                1 => offer(&mut rng).encode().to_vec(),
                // Tenants leave — some twice (a retransmitted frame) —
                // so a region holds a handful of flows, not hundreds.
                2 | 3 if resident.len() > rng.int(0usize..8) => {
                    let flow = resident[rng.int(0usize..resident.len())];
                    if rng.int(0usize..4) > 0 {
                        resident.retain(|&f| f != flow);
                    }
                    DepartFrame { seq: 1, flow }.encode().to_vec()
                }
                2 | 3 => {
                    let base = if rng.int(0usize..2) == 0 {
                        link(&mut rng).encode().to_vec()
                    } else {
                        let flow = rng.next_u64() % (service.submissions() + 1);
                        DepartFrame { seq: 1, flow }.encode().to_vec()
                    };
                    mutated(&mut rng, base)
                }
                _ => {
                    let base = offer(&mut rng).encode();
                    mutated(&mut rng, base.to_vec())
                }
            };
            if !in_the_fuzzed_domain(&frame) {
                continue;
            }
            let is_offer = OfferFrame::decode(&frame).is_some();
            if let Some(seq) = service.handle_frame(&frame) {
                if is_offer {
                    assert!(pending.insert(seq), "seq {seq} handed out twice");
                }
            }
        }
        let (frames, _) = service
            .tick_frames()
            .unwrap_or_else(|e| panic!("round {round}: the tick failed: {e}"));
        for frame in &frames {
            let decision = DecisionFrame::decode(frame).expect("a decision frame");
            assert!(pending.remove(&decision.flow), "unasked: {decision:?}");
            answered += 1;
            invalid += usize::from(decision.verdict == Verdict::Invalid);
            if decision.verdict == Verdict::Admitted {
                admitted += 1;
                resident.push(decision.flow);
            }
        }
        assert!(pending.is_empty(), "round {round}: unanswered {pending:?}");
    }
    // The script reaches all three verdicts, in bulk.
    assert!(answered > 1_000, "{answered}");
    assert!(invalid > 200 && admitted > 200, "{invalid} / {admitted}");
}
