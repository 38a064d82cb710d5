//! Wire formats: the data header and the acknowledgment encoding of
//! §VIII-C.
//!
//! The paper's messages are 1024 bytes "including the application-level
//! header … composed of a timestamp and a sequence number" (§VII-A); acks
//! carry (a) the range of packet numbers the receiver is expecting, (b) a
//! bit vector of what was received in a window of consecutive packets,
//! and (c) the packet that was just received, for RTT estimation
//! (§VIII-C's three components).
//!
//! Every frame carries a checksum in its formerly reserved bytes, so a
//! bit-flipped frame decodes to `None` (and is counted as malformed by
//! the receiver) instead of silently parsing into wrong field values.
//! The frame sizes are unchanged.
//!
//! The checksum is RFC 1071's, the one TCP and UDP carry: the
//! ones'-complement sum of the frame (checksum field read as zeros),
//! complemented. It is taken a 64-bit word at a time (RFC 1071 §2(C))
//! and folded to the field's width: 16 bits in the two-byte fields
//! ([`Ack`], [`OfferFrame`], [`DecisionFrame`], [`DepartFrame`]), 32
//! bits in the four-byte ones ([`DataHeader`], [`PathNotice`],
//! [`LinkChangeFrame`]). Number a frame's bits `8·byte + bit`, least
//! significant bit first. Whatever the frame holds, the checksum then
//! catches
//!
//! - every single-bit error, and
//! - every error confined to 15 consecutive bits (31 in the four-byte
//!   fields),
//!
//! because such an error moves the sum by a nonzero amount smaller than
//! the fold's modulus (`2^16 − 1` or `2^32 − 1`), checksum field
//! included. It can miss
//!
//! - words that trade places: two aligned 16-bit words whose bit
//!   numbers agree modulo the fold width, swapped (a sum does not see
//!   order), and
//! - two flips at the same bit position modulo the fold width that go in
//!   opposite directions (one bit 0 → 1, the other 1 → 0), whose moves
//!   can cancel.

/// One frame type's envelope: the magic byte that tags it, its fixed
/// length `N` and where its checksum sits (offset and width, 2 or 4
/// bytes). Sealing and opening are written here, once; a frame type keeps
/// only its field list.
struct Frame<const N: usize> {
    magic: u8,
    sum_at: usize,
    sum_len: usize,
}

// Inlined into each frame's `encode`/`decode`, so the constants below
// fold into straight-line code over the frame's words (a shared FNV-1a
// copy decoded an ack in 48 ns where the hand-rolled ones took 29; with
// the word-wide sum it takes 8–11).
impl<const N: usize> Frame<N> {
    const fn new(magic: u8, sum_at: usize, sum_len: usize) -> Self {
        Frame {
            magic,
            sum_at,
            sum_len,
        }
    }

    /// RFC 1071's checksum of `frame`, little-endian: the
    /// ones'-complement sum of its little-endian 64-bit words (the
    /// checksum field read as zeros, the tail zero-padded), folded to
    /// the field's width and complemented.
    #[inline(always)]
    fn checksum(&self, frame: &[u8; N]) -> [u8; 4] {
        // The field sits in the first word (offset 2 or 4).
        let field = (u64::MAX >> (64 - 8 * self.sum_len)) << (8 * self.sum_at);
        let mut wide = 0u128;
        for (i, chunk) in frame.chunks(8).enumerate() {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            wide += u128::from(if i == 0 { word & !field } else { word });
        }
        // End-around carries: 2^64, 2^32 and 2^16 are each 1 modulo the
        // all-ones value below them, so each fold keeps the sum's
        // residue, and the second of a pair absorbs the first's carry.
        let fold = |sum: u64, bits: u32| {
            let low = u64::MAX >> (64 - bits);
            let sum = (sum & low) + (sum >> bits);
            (sum & low) + (sum >> bits)
        };
        let (low, carry) = (wide as u64).overflowing_add((wide >> 64) as u64);
        let sum = fold(low + u64::from(carry), 32);
        let sum = if self.sum_len == 2 {
            fold(sum, 16)
        } else {
            sum
        };
        (!sum as u32).to_le_bytes()
    }

    /// The magic, then whatever `fields` writes (the checksum field
    /// included, as zeros), sealed with the checksum.
    #[inline(always)]
    fn seal(&self, fields: impl FnOnce(&mut Writer)) -> [u8; N] {
        let mut frame = [0; N];
        let mut w = Writer(&mut frame[..]);
        w.put_u8(self.magic);
        fields(&mut w);
        debug_assert!(w.0.is_empty(), "fields fill the frame exactly");
        let sum = self.checksum(&frame);
        frame[self.sum_at..][..self.sum_len].copy_from_slice(&sum[..self.sum_len]);
        frame
    }

    /// A reader over the frame's bytes after the magic, or `None` on
    /// truncation, wrong magic or a bad checksum.
    #[inline(always)]
    fn open<'a>(&self, buf: &'a [u8]) -> Option<Reader<'a>> {
        let frame = buf.first_chunk::<N>().filter(|f| f[0] == self.magic)?;
        let sum = self.checksum(frame);
        (frame[self.sum_at..][..self.sum_len] == sum[..self.sum_len]).then_some(Reader(&frame[1..]))
    }
}

/// Little-endian writer over the unwritten tail of a frame.
struct Writer<'a>(&'a mut [u8]);

impl Writer<'_> {
    #[inline(always)]
    fn put_slice(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = rest;
    }

    #[inline(always)]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline(always)]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline(always)]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline(always)]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Little-endian reader over the unread tail of a frame that
/// [`Frame::open`] has checked, so every read is in bounds.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    #[inline(always)]
    fn take<const K: usize>(&mut self) -> [u8; K] {
        let (head, rest) = (self.0)
            .split_first_chunk()
            .expect("an opened frame holds every field its decoder reads");
        self.0 = rest;
        *head
    }

    #[inline(always)]
    fn advance(&mut self, n: usize) {
        self.0 = &self.0[n..];
    }

    #[inline(always)]
    fn get_u8(&mut self) -> u8 {
        u8::from_le_bytes(self.take())
    }

    #[inline(always)]
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    #[inline(always)]
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
}

/// Data packets.
const DATA: Frame<DATA_HEADER_BYTES> = Frame::new(0xD7, 4, 4);
/// Acknowledgments.
const ACK: Frame<{ Ack::WIRE_BYTES }> = Frame::new(0xA3, 2, 2);
/// Path-state notifications.
const NOTICE: Frame<{ PathNotice::WIRE_BYTES }> = Frame::new(0x5E, 4, 4);
/// Whether `frame` carries the [`PathNotice`] magic: the receiver reads
/// it once to pick its decoder (the magics are distinct, so no frame
/// both decoders would take exists).
pub(crate) fn is_notice(frame: &[u8]) -> bool {
    frame.first() == Some(&NOTICE.magic)
}

/// Fleet-service admission offers.
const OFFER: Frame<{ OfferFrame::WIRE_BYTES }> = Frame::new(0x0F, 2, 2);
/// Fleet-service admission decisions.
const DECISION: Frame<{ DecisionFrame::WIRE_BYTES }> = Frame::new(0xDC, 2, 2);
/// Fleet-service flow departures.
const DEPART: Frame<{ DepartFrame::WIRE_BYTES }> = Frame::new(0xDD, 2, 2);
/// Fleet-service link-change commands.
const LINK: Frame<{ LinkChangeFrame::WIRE_BYTES }> = Frame::new(0x17, 4, 4);

/// Size of the serialized [`DataHeader`] in bytes.
pub const DATA_HEADER_BYTES: usize = 32;

/// Number of sequence numbers covered by the ack bitmap.
pub const ACK_BITMAP_BITS: usize = 128;

/// Application-level header of a data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// Global message sequence number.
    pub seq: u64,
    /// Message creation time (deadline = created + lifetime), ns.
    pub created_ns: u64,
    /// Time this *transmission* left the sender (distinguishes
    /// retransmissions for unambiguous RTT sampling, avoiding Karn's
    /// problem), ns.
    pub sent_ns: u64,
    /// Path index (0-based) this transmission used.
    pub path: u8,
    /// Stage within the path combination (0 = initial transmission).
    pub stage: u8,
}

impl DataHeader {
    /// Serializes to exactly [`DATA_HEADER_BYTES`] bytes.
    pub fn encode(&self) -> [u8; DATA_HEADER_BYTES] {
        DATA.seal(|b| {
            b.put_u8(self.path);
            b.put_u8(self.stage);
            b.put_u8(0); // reserved
            b.put_u32_le(0); // checksum
            b.put_u64_le(self.seq);
            b.put_u64_le(self.created_ns);
            b.put_u64_le(self.sent_ns);
        })
    }

    /// Parses a header; `None` on wrong magic, bad checksum, or
    /// truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = DATA.open(buf)?;
        let path = buf.get_u8();
        let stage = buf.get_u8();
        buf.advance(1 + 4); // reserved, checksum
        let seq = buf.get_u64_le();
        let created_ns = buf.get_u64_le();
        let sent_ns = buf.get_u64_le();
        Some(DataHeader {
            seq,
            created_ns,
            sent_ns,
            path,
            stage,
        })
    }
}

/// An acknowledgment (§VIII-C): echo of the packet just received plus a
/// windowed bitmap of recently received sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// (c) The packet that was just received — for RTT estimation.
    pub just_received: u64,
    /// Echo of the acked transmission's `sent_ns`.
    pub echo_sent_ns: u64,
    /// Echo of the path the acked transmission used.
    pub echo_path: u8,
    /// (a)/(b) Start of the bitmap window (lowest covered seq).
    pub window_start: u64,
    /// (b) Bit `i` set ⇔ `window_start + i` was received. Covers
    /// [`ACK_BITMAP_BITS`] sequence numbers.
    pub bitmap: [u8; ACK_BITMAP_BITS / 8],
}

impl Ack {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 2 + 8 + 8 + 8 + ACK_BITMAP_BITS / 8;

    /// Creates an ack with an empty bitmap.
    pub fn new(just_received: u64, echo_sent_ns: u64, echo_path: u8, window_start: u64) -> Self {
        Ack {
            just_received,
            echo_sent_ns,
            echo_path,
            window_start,
            bitmap: [0; ACK_BITMAP_BITS / 8],
        }
    }

    /// Marks `seq` as received if it falls inside the window.
    pub fn set_received(&mut self, seq: u64) {
        if seq < self.window_start {
            return;
        }
        let off = (seq - self.window_start) as usize;
        if off >= ACK_BITMAP_BITS {
            return;
        }
        self.bitmap[off / 8] |= 1 << (off % 8);
    }

    /// Whether the bitmap marks `seq` as received.
    pub fn is_received(&self, seq: u64) -> bool {
        if seq < self.window_start {
            return false;
        }
        let off = (seq - self.window_start) as usize;
        if off >= ACK_BITMAP_BITS {
            return false;
        }
        self.bitmap[off / 8] & (1 << (off % 8)) != 0
    }

    /// Iterates, in ascending order, over every seq the bitmap marks as
    /// received. Bits that would name a seq past `u64::MAX` (a forged
    /// `window_start` near the top) are not seqs and end the walk.
    pub fn received_seqs(&self) -> impl Iterator<Item = u64> {
        let start = self.window_start;
        let mut bits = u128::from_le_bytes(self.bitmap);
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let off = bits.trailing_zeros();
            bits &= bits - 1;
            start.checked_add(u64::from(off))
        })
    }

    /// Serializes to exactly [`Ack::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        ACK.seal(|b| {
            b.put_u8(self.echo_path);
            b.put_u16_le(0); // checksum
            b.put_u64_le(self.just_received);
            b.put_u64_le(self.echo_sent_ns);
            b.put_u64_le(self.window_start);
            b.put_slice(&self.bitmap);
        })
    }

    /// Parses an ack; `None` on wrong magic, bad checksum, or
    /// truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = ACK.open(buf)?;
        let echo_path = buf.get_u8();
        buf.advance(2); // checksum
        let just_received = buf.get_u64_le();
        let echo_sent_ns = buf.get_u64_le();
        let window_start = buf.get_u64_le();
        let bitmap = buf.take();
        Some(Ack {
            just_received,
            echo_sent_ns,
            echo_path,
            window_start,
            bitmap,
        })
    }
}

/// What a [`PathNotice`] reports about a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeKind {
    /// The path has gone silent (presumed failed).
    Down = 0,
    /// The path is delivering again.
    Up = 1,
}

/// A path-state notification: the receiver observes per-path arrivals
/// directly, so it is the natural detector of a mid-transfer path
/// failure — it reports the outage (and later the recovery) to the
/// sender on a surviving path, letting the sender re-plan immediately
/// instead of waiting for its loss estimators to drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNotice {
    /// The path (0-based) whose state changed.
    pub path: u8,
    /// Down or up.
    pub kind: NoticeKind,
    /// Per-path notice sequence number (wrapping). Consumers use it,
    /// together with `at_ns`, to drop duplicated and stale-reordered
    /// notices instead of re-triggering outage handling.
    pub seq: u8,
    /// Receiver-side time of the determination, ns.
    pub at_ns: u64,
}

impl PathNotice {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 1 + 1 + 4 + 8;

    /// Serializes to exactly [`PathNotice::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        NOTICE.seal(|b| {
            b.put_u8(self.path);
            b.put_u8(self.kind as u8);
            b.put_u8(self.seq);
            b.put_u32_le(0); // checksum
            b.put_u64_le(self.at_ns);
        })
    }

    /// Parses a notice; `None` on wrong magic, unknown kind, bad
    /// checksum, or truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = NOTICE.open(buf)?;
        let path = buf.get_u8();
        let kind = match buf.get_u8() {
            0 => NoticeKind::Down,
            1 => NoticeKind::Up,
            _ => return None,
        };
        let seq = buf.get_u8();
        buf.advance(4); // checksum
        let at_ns = buf.get_u64_le();
        Some(PathNotice {
            path,
            kind,
            seq,
            at_ns,
        })
    }
}

/// Maximum shared-path index addressable by [`OfferFrame`]'s path mask.
pub const OFFER_PATH_BITS: usize = 128;

/// A tenant's admission request on the fleet-service control plane:
/// rate, deadline, quality floor, spend cap and priority, plus a 128-bit
/// mask of the shared paths the flow may use (all-zero = every path).
///
/// The `f64` fields travel as raw IEEE-754 bits, so a round trip is
/// bitwise — the service validates semantics (finite, positive, floor in
/// `[0, 1]`) on receipt and answers an invalid offer with a
/// [`Verdict::Invalid`] decision rather than dropping the frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferFrame {
    /// Client-chosen request tag, echoed by the matching
    /// [`DecisionFrame`].
    pub seq: u64,
    /// Application data rate λ, bits/second.
    pub data_rate: f64,
    /// Data lifetime δ, seconds.
    pub lifetime: f64,
    /// Required in-time delivery fraction (0 = best effort).
    pub min_quality: f64,
    /// Cost budget per second (+∞ = unconstrained).
    pub cost_budget: f64,
    /// Priority weight.
    pub priority: f64,
    /// Transmissions per data unit.
    pub transmissions: u8,
    /// Bit `k` (low word first) set ⇔ shared path `k` is usable;
    /// all-zero means every shared path.
    pub path_mask: [u64; 2],
}

impl OfferFrame {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 2 + 8 + 5 * 8 + 16;

    /// The mask naming exactly `paths` (0-based indices); `None` if an
    /// index exceeds [`OFFER_PATH_BITS`].
    pub fn mask_for(paths: &[usize]) -> Option<[u64; 2]> {
        let mut mask = [0u64; 2];
        for &k in paths {
            if k >= OFFER_PATH_BITS {
                return None;
            }
            mask[k / 64] |= 1u64 << (k % 64);
        }
        Some(mask)
    }

    /// The path subset the mask names (sorted), or `None` for an
    /// all-zero mask (every shared path).
    pub fn path_subset(&self) -> Option<Vec<usize>> {
        if self.path_mask == [0, 0] {
            return None;
        }
        let mut paths = Vec::new();
        for k in 0..OFFER_PATH_BITS {
            if self.path_mask[k / 64] & (1u64 << (k % 64)) != 0 {
                paths.push(k);
            }
        }
        Some(paths)
    }

    /// Serializes to exactly [`OfferFrame::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        OFFER.seal(|b| {
            b.put_u8(self.transmissions);
            b.put_u16_le(0); // checksum
            b.put_u64_le(self.seq);
            b.put_u64_le(self.data_rate.to_bits());
            b.put_u64_le(self.lifetime.to_bits());
            b.put_u64_le(self.min_quality.to_bits());
            b.put_u64_le(self.cost_budget.to_bits());
            b.put_u64_le(self.priority.to_bits());
            b.put_u64_le(self.path_mask[0]);
            b.put_u64_le(self.path_mask[1]);
        })
    }

    /// Parses an offer; `None` on wrong magic, bad checksum, or
    /// truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = OFFER.open(buf)?;
        let transmissions = buf.get_u8();
        buf.advance(2); // checksum
        let seq = buf.get_u64_le();
        let data_rate = f64::from_bits(buf.get_u64_le());
        let lifetime = f64::from_bits(buf.get_u64_le());
        let min_quality = f64::from_bits(buf.get_u64_le());
        let cost_budget = f64::from_bits(buf.get_u64_le());
        let priority = f64::from_bits(buf.get_u64_le());
        let path_mask = [buf.get_u64_le(), buf.get_u64_le()];
        Some(OfferFrame {
            seq,
            data_rate,
            lifetime,
            min_quality,
            cost_budget,
            priority,
            transmissions,
            path_mask,
        })
    }
}

/// Outcome carried by a [`DecisionFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The joint LP with this flow's floor is infeasible.
    Rejected = 0,
    /// The flow is in; `predicted_quality` is its in-time fraction.
    Admitted = 1,
    /// The offer's parameters were malformed (non-finite rate, floor
    /// outside `[0, 1]`, zero transmissions, out-of-range path mask…).
    Invalid = 2,
}

/// The service's answer to an [`OfferFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionFrame {
    /// Echo of the offer's client-chosen tag.
    pub seq: u64,
    /// The service-assigned flow id (offer-ordered; every offer consumes
    /// one, rejected and invalid offers included). [`DepartFrame`]s name
    /// flows by this id.
    pub flow: u64,
    /// Admitted / rejected / invalid.
    pub verdict: Verdict,
    /// Predicted in-time delivery fraction (0 unless admitted; for a
    /// flow spanning capacity regions, the rate-weighted mean over its
    /// legs).
    pub predicted_quality: f64,
}

impl DecisionFrame {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 2 + 8 + 8 + 8;

    /// Serializes to exactly [`DecisionFrame::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        DECISION.seal(|b| {
            b.put_u8(self.verdict as u8);
            b.put_u16_le(0); // checksum
            b.put_u64_le(self.seq);
            b.put_u64_le(self.flow);
            b.put_u64_le(self.predicted_quality.to_bits());
        })
    }

    /// Parses a decision; `None` on wrong magic, unknown verdict, bad
    /// checksum, or truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = DECISION.open(buf)?;
        let verdict = match buf.get_u8() {
            0 => Verdict::Rejected,
            1 => Verdict::Admitted,
            2 => Verdict::Invalid,
            _ => return None,
        };
        buf.advance(2); // checksum
        let seq = buf.get_u64_le();
        let flow = buf.get_u64_le();
        let predicted_quality = f64::from_bits(buf.get_u64_le());
        Some(DecisionFrame {
            seq,
            flow,
            verdict,
            predicted_quality,
        })
    }
}

/// A tenant withdraws a flow (admitted or waiting in a re-admission
/// queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartFrame {
    /// Client-chosen request tag.
    pub seq: u64,
    /// The service-assigned flow id (from the admission
    /// [`DecisionFrame`]).
    pub flow: u64,
}

impl DepartFrame {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 2 + 8 + 8;

    /// Serializes to exactly [`DepartFrame::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        DEPART.seal(|b| {
            b.put_u8(0); // reserved
            b.put_u16_le(0); // checksum
            b.put_u64_le(self.seq);
            b.put_u64_le(self.flow);
        })
    }

    /// Parses a departure; `None` on wrong magic, bad checksum, or
    /// truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = DEPART.open(buf)?;
        buf.advance(1 + 2); // reserved, checksum
        let seq = buf.get_u64_le();
        let flow = buf.get_u64_le();
        Some(DepartFrame { seq, flow })
    }
}

/// A link-state command on the fleet-service control plane, mirroring
/// [`dmc_sim::LinkChange`]. Loss travels as a stationary Bernoulli rate
/// (the joint LP plans against stationary loss either way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChangeFrame {
    /// Client-chosen request tag.
    pub seq: u64,
    /// The shared path (0-based) the change applies to.
    pub path: u16,
    /// Fail / recover / set-bandwidth / set-loss.
    pub kind: LinkChangeKind,
    /// Bandwidth in bits/second for [`LinkChangeKind::SetBandwidth`],
    /// loss probability for [`LinkChangeKind::SetLoss`], ignored (encode
    /// as 0) otherwise.
    pub value: f64,
}

/// Discriminant of a [`LinkChangeFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkChangeKind {
    /// The path is down.
    Fail = 0,
    /// The path is back.
    Recover = 1,
    /// New bandwidth (bits/second) in `value`.
    SetBandwidth = 2,
    /// New Bernoulli loss probability in `value`.
    SetLoss = 3,
}

impl LinkChangeFrame {
    /// Serialized size in bytes (fixed).
    pub const WIRE_BYTES: usize = 1 + 1 + 2 + 4 + 8 + 8;

    /// The frame encoding `change` for `path`. Gilbert–Elliott loss
    /// models travel as their stationary rate — exactly what the joint
    /// LP plans against.
    pub fn from_change(seq: u64, path: u16, change: &dmc_sim::LinkChange) -> Self {
        let (kind, value) = match change {
            dmc_sim::LinkChange::Fail => (LinkChangeKind::Fail, 0.0),
            dmc_sim::LinkChange::Recover => (LinkChangeKind::Recover, 0.0),
            dmc_sim::LinkChange::SetBandwidth(bps) => (LinkChangeKind::SetBandwidth, *bps),
            dmc_sim::LinkChange::SetLoss(model) => {
                (LinkChangeKind::SetLoss, model.stationary_loss())
            }
        };
        LinkChangeFrame {
            seq,
            path,
            kind,
            value,
        }
    }

    /// The [`dmc_sim::LinkChange`] this frame encodes.
    pub fn change(&self) -> dmc_sim::LinkChange {
        match self.kind {
            LinkChangeKind::Fail => dmc_sim::LinkChange::Fail,
            LinkChangeKind::Recover => dmc_sim::LinkChange::Recover,
            LinkChangeKind::SetBandwidth => dmc_sim::LinkChange::SetBandwidth(self.value),
            LinkChangeKind::SetLoss => {
                dmc_sim::LinkChange::SetLoss(dmc_sim::LossModel::Bernoulli(self.value))
            }
        }
    }

    /// Serializes to exactly [`LinkChangeFrame::WIRE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        LINK.seal(|b| {
            b.put_u8(self.kind as u8);
            b.put_u16_le(self.path);
            b.put_u32_le(0); // checksum
            b.put_u64_le(self.seq);
            b.put_u64_le(self.value.to_bits());
        })
    }

    /// Parses a link change; `None` on wrong magic, unknown kind, bad
    /// checksum, or truncation.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut buf = LINK.open(buf)?;
        let kind = match buf.get_u8() {
            0 => LinkChangeKind::Fail,
            1 => LinkChangeKind::Recover,
            2 => LinkChangeKind::SetBandwidth,
            3 => LinkChangeKind::SetLoss,
            _ => return None,
        };
        let path = buf.get_u16_le();
        buf.advance(4); // checksum
        let seq = buf.get_u64_le();
        let value = f64::from_bits(buf.get_u64_le());
        Some(LinkChangeFrame {
            seq,
            path,
            kind,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_obs::fnv1a;
    use dmc_stats::rng::{run_cases, SplitMix64};

    #[test]
    fn path_notice_round_trip() {
        for kind in [NoticeKind::Down, NoticeKind::Up] {
            let n = PathNotice {
                path: 3,
                kind,
                seq: 42,
                at_ns: 123_456_789,
            };
            let wire = n.encode();
            assert_eq!(wire.len(), PathNotice::WIRE_BYTES);
            assert_eq!(PathNotice::decode(&wire), Some(n));
        }
    }

    #[test]
    fn path_notice_rejects_garbage() {
        assert_eq!(PathNotice::decode(&[]), None);
        assert_eq!(PathNotice::decode(&[0xFF; 16]), None);
        let n = PathNotice {
            path: 0,
            kind: NoticeKind::Down,
            seq: 0,
            at_ns: 1,
        };
        let wire = n.encode();
        assert_eq!(
            PathNotice::decode(&wire[..PathNotice::WIRE_BYTES - 1]),
            None
        );
        let mut bad_kind = wire.to_vec();
        bad_kind[2] = 7;
        assert_eq!(PathNotice::decode(&bad_kind), None);
        // The three magics are distinct, so frames cannot be confused.
        assert_eq!(Ack::decode(&wire), None);
        assert_eq!(DataHeader::decode(&wire), None);
    }

    /// Whether `bytes` passes the decoder of the frame type whose magic
    /// is `magic`.
    fn accepted(magic: u8, bytes: &[u8]) -> bool {
        match magic {
            m if m == DATA.magic => DataHeader::decode(bytes).is_some(),
            m if m == ACK.magic => Ack::decode(bytes).is_some(),
            m if m == NOTICE.magic => PathNotice::decode(bytes).is_some(),
            m if m == OFFER.magic => OfferFrame::decode(bytes).is_some(),
            m if m == DECISION.magic => DecisionFrame::decode(bytes).is_some(),
            m if m == DEPART.magic => DepartFrame::decode(bytes).is_some(),
            m if m == LINK.magic => LinkChangeFrame::decode(bytes).is_some(),
            _ => false,
        }
    }

    fn random_ack(rng: &mut SplitMix64) -> Ack {
        let mut ack = Ack::new(
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64() as u8,
            rng.next_u64(),
        );
        ack.bitmap = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())).to_le_bytes();
        ack
    }

    fn random_header(rng: &mut SplitMix64) -> DataHeader {
        DataHeader {
            seq: rng.next_u64(),
            created_ns: rng.next_u64(),
            sent_ns: rng.next_u64(),
            path: rng.next_u64() as u8,
            stage: rng.next_u64() as u8,
        }
    }

    /// One frame of each of the seven types, every field drawn from
    /// `rng` (the `f64` fields as raw bits).
    fn random_frames(rng: &mut SplitMix64) -> [Vec<u8>; 7] {
        let mut float = || f64::from_bits(rng.next_u64());
        let (data_rate, lifetime, min_quality) = (float(), float(), float());
        let (cost_budget, priority, quality, value) = (float(), float(), float(), float());
        [
            random_header(rng).encode().to_vec(),
            random_ack(rng).encode().to_vec(),
            PathNotice {
                path: rng.next_u64() as u8,
                kind: [NoticeKind::Down, NoticeKind::Up][rng.int(0usize..2)],
                seq: rng.next_u64() as u8,
                at_ns: rng.next_u64(),
            }
            .encode()
            .to_vec(),
            OfferFrame {
                seq: rng.next_u64(),
                data_rate,
                lifetime,
                min_quality,
                cost_budget,
                priority,
                transmissions: rng.next_u64() as u8,
                path_mask: [rng.next_u64(), rng.next_u64()],
            }
            .encode()
            .to_vec(),
            DecisionFrame {
                seq: rng.next_u64(),
                flow: rng.next_u64(),
                verdict: [Verdict::Rejected, Verdict::Admitted, Verdict::Invalid]
                    [rng.int(0usize..3)],
                predicted_quality: quality,
            }
            .encode()
            .to_vec(),
            DepartFrame {
                seq: rng.next_u64(),
                flow: rng.next_u64(),
            }
            .encode()
            .to_vec(),
            LinkChangeFrame {
                seq: rng.next_u64(),
                path: rng.next_u64() as u16,
                kind: [
                    LinkChangeKind::Fail,
                    LinkChangeKind::Recover,
                    LinkChangeKind::SetBandwidth,
                    LinkChangeKind::SetLoss,
                ][rng.int(0usize..4)],
                value,
            }
            .encode()
            .to_vec(),
        ]
    }

    #[test]
    fn checksums_reject_any_single_bit_flip() {
        run_cases(fnv1a(b"checksums_reject_any_single_bit_flip"), 64, |rng| {
            for wire in random_frames(rng) {
                assert!(
                    accepted(wire[0], &wire),
                    "a sealed frame opens: {wire:02x?}"
                );
                for bit in 0..8 * wire.len() {
                    let mut bad = wire.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        !accepted(wire[0], &bad),
                        "flip of bit {bit} accepted: {wire:02x?}"
                    );
                }
            }
        });
    }

    #[test]
    fn flips_the_folded_fnv1a_accepted_are_rejected() {
        // The 16-bit fold of the FNV-1a checksum that sealed these frames
        // before RFC 1071's sum took each of these one-bit flips for a
        // valid frame, with the field changed as noted.
        let mut ack = Ack::new(37, 42_000, 1, 400);
        ack.set_received(405);
        let mut wire = ack.encode();
        wire[11] ^= 1 << 1; // just_received 37 → 37 + 2^57
        assert_eq!(Ack::decode(&wire), None);
        let mut wire = OfferFrame {
            seq: 255,
            ..sample_offer()
        }
        .encode();
        wire[33] ^= 1 << 2; // min_quality 0.95 → 0.94951171875
        assert_eq!(OfferFrame::decode(&wire), None);
    }

    /// Bit `bit` (numbered `8·byte + bit`, LSB first) of `frame`.
    fn bit_of(frame: &[u8], bit: usize) -> u8 {
        frame[bit / 8] >> (bit % 8) & 1
    }

    /// Every two-bit error on a seeded ack: 352 bits, 61 776 pairs. A
    /// pair survives exactly when it is in the class the module docs
    /// name (the same bit position modulo 16, flipped in opposite
    /// directions) and spares the magic: then the two moves of the sum
    /// cancel. About 0.05 s in a debug build.
    #[test]
    fn every_two_bit_flip_an_ack_survives_is_in_the_stated_class() {
        let wire = random_ack(&mut SplitMix64::new(fnv1a(b"two_bit_flips"))).encode();
        let bits = 8 * wire.len();
        let (mut pairs, mut survivors) = (0, 0);
        for i in 0..bits {
            for j in i + 1..bits {
                let mut bad = wire;
                bad[i / 8] ^= 1 << (i % 8);
                bad[j / 8] ^= 1 << (j % 8);
                let survives = Ack::decode(&bad).is_some();
                let in_class = (j - i) % 16 == 0 && bit_of(&wire, i) != bit_of(&wire, j);
                assert_eq!(survives, in_class && i >= 8, "bits {i} and {j}");
                pairs += 1;
                survivors += usize::from(survives);
            }
        }
        assert_eq!((pairs, survivors), (61_776, 1_759));
    }

    /// Every error confined to 15 consecutive bits of `wire`: for each
    /// first bit, the 2^14 patterns of the 14 bits after it (cut at the
    /// frame's end). `decode` must reject each one; returns how many.
    fn assert_bursts_caught<const N: usize>(
        wire: [u8; N],
        decode: impl Fn(&[u8; N]) -> bool,
    ) -> usize {
        let bits = 8 * N;
        let mut caught = 0;
        for first in 0..bits {
            let tail = (bits - first - 1).min(14);
            for pattern in 0..1u32 << tail {
                let error = (1 | pattern << 1) << (first % 8);
                let mut bad = wire;
                for (k, byte) in error.to_le_bytes().into_iter().enumerate() {
                    if let Some(b) = bad.get_mut(first / 8 + k) {
                        *b ^= byte;
                    }
                }
                assert!(!decode(&bad), "burst {pattern:#x} at bit {first} survives");
                caught += 1;
            }
        }
        caught
    }

    /// 16-bit fold: 5.6 million bursts, about 4 s in a debug build.
    #[test]
    fn every_burst_of_up_to_15_bits_on_an_ack_is_caught() {
        let wire = random_ack(&mut SplitMix64::new(fnv1a(b"ack_bursts"))).encode();
        let caught = assert_bursts_caught(wire, |b| Ack::decode(b).is_some());
        assert_eq!(caught, 5_554_175);
    }

    /// 32-bit fold: 4.0 million bursts, about 3 s in a debug build.
    #[test]
    fn every_burst_of_up_to_15_bits_on_a_data_header_is_caught() {
        let wire = random_header(&mut SplitMix64::new(fnv1a(b"header_bursts"))).encode();
        let caught = assert_bursts_caught(wire, |b| DataHeader::decode(b).is_some());
        assert_eq!(caught, 3_981_311);
    }

    fn sample_offer() -> OfferFrame {
        OfferFrame {
            seq: 42,
            data_rate: 20e6,
            lifetime: 0.6,
            min_quality: 0.95,
            cost_budget: f64::INFINITY,
            priority: 4.0,
            transmissions: 2,
            path_mask: OfferFrame::mask_for(&[0, 3, 127]).unwrap(),
        }
    }

    fn sample_decision() -> DecisionFrame {
        DecisionFrame {
            seq: 42,
            flow: 7,
            verdict: Verdict::Admitted,
            predicted_quality: 0.9875,
        }
    }

    fn sample_link() -> LinkChangeFrame {
        LinkChangeFrame {
            seq: 3,
            path: 513,
            kind: LinkChangeKind::SetBandwidth,
            value: 55e6,
        }
    }

    #[test]
    fn fleet_service_frames_round_trip() {
        let offer = sample_offer();
        let wire = offer.encode();
        assert_eq!(wire.len(), OfferFrame::WIRE_BYTES);
        assert_eq!(OfferFrame::decode(&wire), Some(offer));
        assert_eq!(offer.path_subset(), Some(vec![0, 3, 127]));

        for verdict in [Verdict::Rejected, Verdict::Admitted, Verdict::Invalid] {
            let d = DecisionFrame {
                verdict,
                ..sample_decision()
            };
            let wire = d.encode();
            assert_eq!(wire.len(), DecisionFrame::WIRE_BYTES);
            assert_eq!(DecisionFrame::decode(&wire), Some(d));
        }

        let depart = DepartFrame { seq: 9, flow: 123 };
        let wire = depart.encode();
        assert_eq!(wire.len(), DepartFrame::WIRE_BYTES);
        assert_eq!(DepartFrame::decode(&wire), Some(depart));

        for kind in [
            LinkChangeKind::Fail,
            LinkChangeKind::Recover,
            LinkChangeKind::SetBandwidth,
            LinkChangeKind::SetLoss,
        ] {
            let l = LinkChangeFrame {
                kind,
                ..sample_link()
            };
            let wire = l.encode();
            assert_eq!(wire.len(), LinkChangeFrame::WIRE_BYTES);
            assert_eq!(LinkChangeFrame::decode(&wire), Some(l));
        }
    }

    #[test]
    fn offer_masks_cover_128_paths_and_all_zero_means_every_path() {
        assert_eq!(OfferFrame::mask_for(&[]), Some([0, 0]));
        assert_eq!(OfferFrame::mask_for(&[128]), None);
        let all_paths = OfferFrame {
            path_mask: [0, 0],
            ..sample_offer()
        };
        assert_eq!(all_paths.path_subset(), None);
        let mask = OfferFrame::mask_for(&[0, 63, 64, 127]).unwrap();
        let subset = OfferFrame {
            path_mask: mask,
            ..sample_offer()
        };
        assert_eq!(subset.path_subset(), Some(vec![0, 63, 64, 127]));
    }

    #[test]
    fn link_change_frames_mirror_sim_link_changes() {
        use dmc_sim::LinkChange;
        let cases = [
            LinkChange::Fail,
            LinkChange::Recover,
            LinkChange::SetBandwidth(40e6),
            LinkChange::SetLoss(dmc_sim::LossModel::Bernoulli(0.125)),
        ];
        for change in &cases {
            let frame = LinkChangeFrame::from_change(5, 2, change);
            let back = LinkChangeFrame::decode(&frame.encode()).unwrap().change();
            match (change, &back) {
                (LinkChange::SetLoss(a), LinkChange::SetLoss(b)) => {
                    assert_eq!(a.stationary_loss().to_bits(), b.stationary_loss().to_bits());
                }
                _ => assert_eq!(format!("{change:?}"), format!("{back:?}")),
            }
        }
        // A Gilbert–Elliott model travels as its stationary rate.
        let ge = dmc_sim::GilbertElliott::classic(0.2, 0.2).unwrap();
        let frame = LinkChangeFrame::from_change(0, 0, &LinkChange::SetLoss(ge.into()));
        assert_eq!(frame.kind, LinkChangeKind::SetLoss);
        assert!((frame.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fleet_service_frames_reject_garbage_and_cross_magics() {
        assert_eq!(OfferFrame::decode(&[]), None);
        assert_eq!(DecisionFrame::decode(&[0xFF; 64]), None);
        let offer = sample_offer().encode();
        assert_eq!(
            OfferFrame::decode(&offer[..OfferFrame::WIRE_BYTES - 1]),
            None
        );
        let mut bad_verdict = sample_decision().encode().to_vec();
        bad_verdict[1] = 9;
        assert_eq!(DecisionFrame::decode(&bad_verdict), None);
        let mut bad_kind = sample_link().encode().to_vec();
        bad_kind[1] = 9;
        assert_eq!(LinkChangeFrame::decode(&bad_kind), None);
        // The magics stay distinct across the whole frame family.
        assert_eq!(DecisionFrame::decode(&offer), None);
        assert_eq!(DepartFrame::decode(&offer), None);
        assert_eq!(Ack::decode(&offer), None);
        assert_eq!(DataHeader::decode(&offer), None);
    }

    #[test]
    fn data_header_round_trip() {
        let h = DataHeader {
            seq: 123_456,
            created_ns: 987_654_321,
            sent_ns: 1_000_000_007,
            path: 3,
            stage: 1,
        };
        let wire = h.encode();
        assert_eq!(wire.len(), DATA_HEADER_BYTES);
        assert_eq!(DataHeader::decode(&wire), Some(h));
    }

    #[test]
    fn data_header_rejects_garbage() {
        assert_eq!(DataHeader::decode(&[]), None);
        assert_eq!(DataHeader::decode(&[0xFF; 32]), None);
        let h = DataHeader {
            seq: 1,
            created_ns: 2,
            sent_ns: 3,
            path: 0,
            stage: 0,
        };
        let wire = h.encode();
        assert_eq!(DataHeader::decode(&wire[..31]), None); // truncated
    }

    #[test]
    fn ack_round_trip_with_bitmap() {
        let mut a = Ack::new(500, 42_000, 1, 400);
        for seq in [400, 401, 405, 500, 527] {
            a.set_received(seq);
        }
        let wire = a.encode();
        assert_eq!(wire.len(), Ack::WIRE_BYTES);
        let back = Ack::decode(&wire).unwrap();
        assert_eq!(back, a);
        assert!(back.is_received(400));
        assert!(back.is_received(527));
        assert!(!back.is_received(402));
        assert_eq!(
            back.received_seqs().collect::<Vec<_>>(),
            vec![400, 401, 405, 500, 527]
        );
    }

    #[test]
    fn ack_window_bounds() {
        let mut a = Ack::new(10, 0, 0, 100);
        a.set_received(99); // below window: ignored
        a.set_received(100 + ACK_BITMAP_BITS as u64); // beyond: ignored
        assert_eq!(a.received_seqs().count(), 0);
        assert!(!a.is_received(99));
        a.set_received(100);
        a.set_received(100 + ACK_BITMAP_BITS as u64 - 1);
        assert_eq!(a.received_seqs().count(), 2);
    }

    #[test]
    fn a_forged_window_start_near_the_top_stops_the_walk_at_u64_max() {
        // A valid-checksum ack whose window runs past u64::MAX: the bits
        // beyond it name no seq and must neither wrap nor overflow.
        let mut a = Ack::new(0, 0, 0, u64::MAX - 3);
        a.set_received(u64::MAX);
        let mut back = Ack::decode(&a.encode()).expect("a sealed ack decodes");
        assert_eq!(back.received_seqs().collect::<Vec<_>>(), vec![u64::MAX]);
        back.bitmap = [0xFF; ACK_BITMAP_BITS / 8];
        assert_eq!(
            back.received_seqs().collect::<Vec<_>>(),
            vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX]
        );
    }

    #[test]
    fn ack_stays_small() {
        // §VIII-C: acks must be cheap; ~40 B covers 128 packets. Measure
        // the actual encoding so the bound tracks the real wire format.
        let encoded = Ack::new(1, 2, 3, 4).encode();
        assert_eq!(encoded.len(), Ack::WIRE_BYTES);
        assert!(encoded.len() <= 48, "ack is {} bytes", encoded.len());
    }

    #[test]
    fn ack_rejects_garbage() {
        assert_eq!(Ack::decode(&[0u8; 4]), None);
        let a = Ack::new(1, 2, 0, 0);
        let wire = a.encode();
        assert_eq!(Ack::decode(&wire[..Ack::WIRE_BYTES - 1]), None);
        let mut bad = wire.to_vec();
        bad[0] = DATA.magic;
        assert_eq!(Ack::decode(&bad), None);
    }
}
