//! A deadline-aware multipath transport protocol.
//!
//! The paper's evaluation (§VII) runs a UDP client/server pair whose
//! sender assigns each packet to a *path combination* from the solved LP
//! (Algorithm 1), retransmits on timeout along the combination's next
//! path, and discards data older than its lifetime. This crate is that
//! protocol as composable state machines over the [`dmc_sim`] simulator:
//!
//! * [`DmcSender`] — constant-rate generation, Algorithm-1 combination
//!   assignment, per-stage retransmission timers ([`TimeoutPlan`]), ack
//!   processing with Karn-safe RTT sampling, optional fast retransmit
//!   (§VIII-D);
//! * [`DmcReceiver`] — deadline verification against the embedded
//!   creation timestamp, deduplication, and the §VIII-C acknowledgment
//!   scheme (echo + expected range + received bitmap) on the lowest-delay
//!   path;
//! * [`AdaptiveSender`] — the closed loop of §VIII-A/B: online estimators
//!   (EWMA RTT, windowed loss) feed periodic re-solving and retargeting,
//!   plus immediate re-planning on path-failure notices;
//! * [`wire`] — the on-the-wire header/ack/notice formats (1024-byte
//!   messages, ~40-byte acks, 16-byte path notices).
//!
//! Failure awareness: the receiver watches per-path arrivals
//! ([`FailureDetection`]) and reports an outage with a
//! [`wire::PathNotice`] on a surviving path; the [`AdaptiveSender`]
//! reacts by re-solving with the failed path's loss pinned to 1, steering
//! traffic (and the retransmissions of in-flight data) onto live paths
//! within one planning round instead of waiting for estimator drift.
//!
//! What an ack costs: the sender numbers its messages densely from 0,
//! so both endpoints keep their per-message state indexed by sequence
//! number, not hashed. The receiver's record of every seq it has seen is
//! a bitset (one bit per seq, plus an ordered overflow for seqs far
//! beyond it), and an ack's 128-bit window is three of its words shifted
//! into place. The sender's in-flight messages sit in a ring indexed by
//! `seq − oldest live seq`, and consuming an ack walks only the bitmap's
//! set bits, each an indexed lookup. Memory follows what is held — the
//! distinct seqs seen, the live messages — so a forged header or ack
//! cannot make either endpoint allocate for the seq it names.
//!
//! The state machines are I/O-free: they interact with the world only
//! through [`dmc_sim::SimApi`], so they can be unit-tested directly and
//! rehosted on a real datagram socket by implementing the same calls.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod adaptive;
mod estimator;
mod notice;
mod receiver;
mod sender;
mod seqs;
pub mod wire;

pub use adaptive::{AdaptiveConfig, AdaptiveSender, LadderEvent, LadderRung};
pub use estimator::{LossEstimator, PathEstimator, RateEstimator, RttEstimator};
pub use notice::{NoticeGuard, NoticeSeq};
pub use receiver::{DmcReceiver, FailureDetection, ReceiverConfig, ReceiverStats};
pub use sender::{DmcSender, SenderConfig, SenderStats, TimeoutPlan, MAX_STAGES};
