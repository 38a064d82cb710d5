//! Deterministic discrete-event network simulator for deadline-aware
//! multipath experiments.
//!
//! The paper evaluates its model with ns-3 (§VII-A): two nodes joined by
//! point-to-point channels, one per path, each configured with the three
//! knobs the model cares about — **bandwidth**, **delay**, **loss**. This
//! crate is that substrate in pure Rust:
//!
//! * [`TwoHostSim`] — a client and a server joined by `n` bidirectional
//!   path pairs; endpoints implement [`Agent`];
//! * [`Link`] — serialization (`bits/bandwidth`), drop-tail queueing
//!   (bounded bytes; overflow drops, queueing delay emerges naturally —
//!   the +50 ms effect the paper measures in Exp. 1), Bernoulli or
//!   Gilbert–Elliott bursty erasure ([`LossModel`]), and constant
//!   (FIFO) or random ([`dmc_stats::Delay`], i.i.d. per packet, so
//!   packets may overtake) propagation;
//! * [`scenario`] — scheduled link dynamics ([`Dynamics`]): mid-transfer
//!   path failure/recovery, piecewise time-varying bandwidth, and
//!   loss-process changes;
//! * [`FaultPlan`] — seeded chaos: payload corruption, frame
//!   duplication, bounded reordering, link flapping and correlated
//!   multi-link fault domains, bit-identical in replay
//!   ([`TwoHostSim::apply_faults`]);
//! * [`EventQueue`] — integer-nanosecond virtual time with FIFO
//!   tie-breaking, so runs are bit-for-bit reproducible for a given seed:
//!   events pop in exact `(time, seq)` order from a heap of 24-byte keys
//!   over a slab of events, or from FIFO lanes of the same keys beside
//!   it, which the simulator fills with each constant-delay link's
//!   arrivals and each fixed-delay timer series (a key goes to the heap
//!   when its lane would fall out of order). A link's serialization ends
//!   never enter the queue; they wait in a FIFO beside the link.
//!
//! # Example: measuring a path RTT
//!
//! ```
//! use dmc_sim::{Agent, LinkConfig, Packet, SimApi, SimTime, TwoHostSim};
//! use dmc_stats::ConstantDelay;
//! use std::sync::Arc;
//!
//! struct Ping(Option<SimTime>);
//! impl Agent for Ping {
//!     fn on_start(&mut self, api: &mut SimApi<'_>) {
//!         api.send(0, Packet::new(1000, []));
//!     }
//!     fn on_packet(&mut self, _path: usize, _p: Packet, api: &mut SimApi<'_>) {
//!         self.0 = Some(api.now());
//!     }
//!     fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
//! }
//! struct Echo;
//! impl Agent for Echo {
//!     fn on_start(&mut self, _api: &mut SimApi<'_>) {}
//!     fn on_packet(&mut self, path: usize, p: Packet, api: &mut SimApi<'_>) {
//!         api.send(path, p);
//!     }
//!     fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
//! }
//!
//! let link = LinkConfig {
//!     bandwidth_bps: 1e6,
//!     propagation: Arc::new(ConstantDelay::new(0.1)),
//!     loss: 0.0.into(),
//!     queue_capacity_bytes: 1 << 20,
//! };
//! let mut sim = TwoHostSim::new(
//!     vec![link.clone()], vec![link], Ping(None), Echo, 0,
//! ).unwrap();
//! sim.run_to_completion();
//! assert_eq!(sim.client().0.unwrap().as_nanos(), 216_000_000);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod event;
mod fault;
mod link;
mod packet;
#[cfg(test)]
mod reference;
pub mod scenario;
mod sim;
mod time;

pub use event::EventQueue;
pub use fault::{FaultPlan, FaultStats};
pub use link::{GilbertElliott, Link, LinkChange, LinkConfig, LinkStats, LossModel, SendOutcome};
pub use packet::Packet;
pub use scenario::{Dynamics, LinkEvent};
pub use sim::{Agent, Dir, HostId, SimApi, TwoHostSim};
pub use time::{SimDuration, SimTime};
