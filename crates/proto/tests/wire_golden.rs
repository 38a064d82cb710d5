//! Golden byte vectors: one encoded frame per type of `dmc_proto::wire`,
//! recorded before the seven frames came to share one seal/open routine.
//! The layout, the magics and the checksums are the wire contract; a
//! change that moves a byte here is a protocol change, not a refactor.
//!
//! Re-pinned once, on purpose, when RFC 1071's ones'-complement sum
//! replaced the FNV-1a checksum: in every literal only the checksum
//! bytes moved (FNV-1a → RFC 1071, little-endian) —
//! `header` bytes 4–7 `31f59f15` → `64bf7d83`, `ack` bytes 2–3 `674c` →
//! `94d6`, `notice` bytes 4–7 `e38dc8e9` → `9e24fef6`, `offer` bytes 2–3
//! `eaf0` → `db1c`, `decision` bytes 2–3 `90a1` → `35f1`, `depart` bytes
//! 2–3 `9236` → `0dff`, `link` bytes 4–7 `bc2f3662` → `07c474bc`. Each new
//! value was checked against a textbook 16-/32-bit-word RFC 1071 loop
//! written apart from `wire.rs`.

use dmc_proto::wire::{
    Ack, DataHeader, DecisionFrame, DepartFrame, LinkChangeFrame, LinkChangeKind, NoticeKind,
    OfferFrame, PathNotice, Verdict,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_frame_type_encodes_to_its_recorded_bytes() {
    let header = DataHeader {
        seq: 0x0102_0304_0506_0708,
        created_ns: 987_654_321,
        sent_ns: 1_000_000_007,
        path: 3,
        stage: 1,
    };
    let mut ack = Ack::new(500, 42_000, 1, 400);
    for seq in [400, 401, 405, 500, 527] {
        ack.set_received(seq);
    }
    let notice = PathNotice {
        path: 2,
        kind: NoticeKind::Up,
        seq: 9,
        at_ns: 55_555,
    };
    let offer = OfferFrame {
        seq: 42,
        data_rate: 20e6,
        lifetime: 0.6,
        min_quality: 0.95,
        cost_budget: f64::INFINITY,
        priority: 4.0,
        transmissions: 2,
        path_mask: OfferFrame::mask_for(&[0, 3, 127]).unwrap(),
    };
    let decision = DecisionFrame {
        seq: 42,
        flow: 7,
        verdict: Verdict::Admitted,
        predicted_quality: 0.9875,
    };
    let depart = DepartFrame { seq: 4, flow: 17 };
    let link = LinkChangeFrame {
        seq: 3,
        path: 513,
        kind: LinkChangeKind::SetBandwidth,
        value: 55e6,
    };
    let check =
        |name: &str, encoded: &[u8], golden: &str| assert_eq!(hex(encoded), golden, "{name}");
    check(
        "header",
        &header.encode(),
        "d703010064bf7d830807060504030201b168de3a0000000007ca9a3b00000000",
    );
    check(
        "ack",
        &ack.encode(),
        "a30194d6f40100000000000010a4000000000000900100000000000023000000000000000000000010000080",
    );
    check(
        "notice",
        &notice.encode(),
        "5e0201099e24fef603d9000000000000",
    );
    check("offer", &offer.encode(), "0f02db1c2a0000000000000000000000d0127341333333333333e33f666666666666ee3f000000000000f07f000000000000104009000000000000000000000000000080");
    check(
        "decision",
        &decision.encode(),
        "dc0135f12a0000000000000007000000000000009a9999999999ef3f",
    );
    check(
        "depart",
        &depart.encode(),
        "dd000dff04000000000000001100000000000000",
    );
    check(
        "link",
        &link.encode(),
        "1702010207c474bc030000000000000000000000de398a41",
    );
}
