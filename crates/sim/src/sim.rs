//! Two-host simulation: a client and a server joined by `n` bidirectional
//! path pairs — the paper's ns-3 topology (§VII-A: "multiple UDP sockets
//! between two network nodes … each socket corresponds to a different
//! path").
//!
//! # Departures
//!
//! A packet's serialization end frees its bytes in the link's queue. It
//! is not a heap event: [`SimApi::send`] reserves its sequence number
//! from the [`EventQueue`] where it would have scheduled it (before the
//! arrival and any duplicate), and pushes `(time, seq, bytes)` onto a
//! FIFO beside the directed link. A link's departures never go back in
//! time and their seqs rise, so the FIFO is in key order. The credit is
//! applied lazily, exactly where a popped event with that key would have
//! been:
//!
//! * before each send on a link, every entry whose `(time, seq)` is below
//!   the key of the event being dispatched — the only read of the
//!   queue's occupancy;
//! * when [`TwoHostSim::run_until`] returns, every entry at or before its
//!   `end`, each counted in [`TwoHostSim::events_processed`] and moving
//!   the clock as a popped event did.
//!
//! Every callback, counter and clock reading is therefore the one an
//! engine with a departure event in the heap produces.
//!
//! # Lanes
//!
//! Most events are scheduled in key order of their own kind, so they wait
//! in the [`EventQueue`]'s FIFO lanes rather than on its heap (the queue
//! appends a key to its lane only when that keeps the lane in key order,
//! and heaps it otherwise, so the choice of lane never changes what is
//! dispatched when):
//!
//! * an arrival goes to the lane of its directed link: on a constant-delay
//!   link, arrivals leave in send order, so they are FIFO by construction.
//!   A random-delay link's arrivals fall back to the heap whenever one
//!   overtakes another;
//! * a timer goes to the lane keyed by its host and its delay `at − now`,
//!   one of [`TIMER_LANES`] whose key is re-set when the lane is empty. A
//!   fixed delay is FIFO because `now` never decreases;
//! * a link change, a packet a [`FaultPlan`] held back or duplicated, and
//!   a timer that finds no lane keyed for it and none empty go to the heap.
//!
//! [`TwoHostSim::run_until`] takes the next event with one call that pops
//! it only if it is due at or before `end`.

use crate::event::EventQueue;
use crate::fault::{FaultPlan, FaultStats, FaultStream, FAULT_SALT_BACKWARD, FAULT_SALT_FORWARD};
use crate::link::{Link, LinkChange, LinkConfig, LinkStats, SendOutcome};
use crate::packet::Packet;
use crate::scenario::Dynamics;
use crate::time::{SimDuration, SimTime};
use dmc_stats::rng::{mix64, GOLDEN_GAMMA};
use std::collections::VecDeque;

/// Which endpoint an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostId {
    /// The sender application (generates data).
    Client,
    /// The receiver application (checks deadlines, acknowledges).
    Server,
}

/// Link direction: `Forward` carries client→server traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Client → server.
    Forward,
    /// Server → client.
    Backward,
}

/// Events the simulation dispatches (a departure is not one; see the
/// module docs).
#[derive(Debug)]
enum NetEvent {
    /// A packet reached the far end of a link.
    Arrival {
        dir: Dir,
        path: usize,
        packet: Packet,
    },
    /// A protocol timer fired.
    Timer { host: HostId, key: u64 },
    /// A scheduled link change (failure/recovery/retune) takes effect.
    /// Boxed: it is rare, and unboxed it would widen every event.
    LinkChange {
        dir: Dir,
        path: usize,
        change: Box<LinkChange>,
    },
}

/// One directed link and the departures it has not been credited for.
#[derive(Debug)]
struct Egress {
    link: Link,
    /// `(time, seq, bytes)` of each serialization end not yet credited,
    /// in key order.
    departures: VecDeque<(SimTime, u64, usize)>,
}

impl Egress {
    fn new(link: Link) -> Self {
        Egress {
            link,
            departures: VecDeque::new(),
        }
    }

    /// Credits the front departures while `due(time, seq)` holds. Returns
    /// how many it credited and the last one's time.
    fn credit_while(&mut self, due: impl Fn(SimTime, u64) -> bool) -> (u64, Option<SimTime>) {
        let (mut credited, mut last) = (0, None);
        while let Some(&(time, seq, bytes)) = self.departures.front() {
            if !due(time, seq) {
                break;
            }
            self.departures.pop_front();
            self.link.on_departure(bytes);
            credited += 1;
            last = Some(time);
        }
        (credited, last)
    }
}

/// The number of timer lanes (see the module docs).
pub(crate) const TIMER_LANES: usize = 16;

/// The keys of the timer lanes: lane `first + j` holds the timers that
/// `keys[j]`'s host armed `keys[j]`'s delay ahead.
#[derive(Debug)]
struct TimerLanes {
    first: usize,
    keys: [Option<(HostId, SimDuration)>; TIMER_LANES],
}

impl TimerLanes {
    /// The lane for a timer `host` arms `delay` ahead: the lane keyed so,
    /// else an empty lane, re-keyed so; `None` if every lane is keyed
    /// otherwise and busy.
    fn lane(
        &mut self,
        queue: &EventQueue<NetEvent>,
        host: HostId,
        delay: SimDuration,
    ) -> Option<usize> {
        let key = Some((host, delay));
        let j = match self.keys.iter().position(|k| *k == key) {
            Some(j) => j,
            None => {
                let j = (0..TIMER_LANES).find(|&j| queue.lane_is_empty(self.first + j))?;
                self.keys[j] = key;
                j
            }
        };
        Some(self.first + j)
    }
}

/// What an endpoint implementation can do during a callback.
///
/// Handed to [`Agent`] methods; sending consumes bandwidth on this host's
/// outgoing links and timers come back via [`Agent::on_timer`].
#[derive(Debug)]
pub struct SimApi<'a> {
    now: SimTime,
    /// Seq of the event being dispatched (0 in `on_start`, before any).
    seq: u64,
    host: HostId,
    outgoing: &'a mut [Egress],
    /// The lane of `outgoing[0]`'s arrivals; path `p`'s is `p` higher.
    arrival_lanes: usize,
    queue: &'a mut EventQueue<NetEvent>,
    timer_lanes: &'a mut TimerLanes,
    faults: Option<&'a mut FaultStream>,
    /// The simulation's dispatched-event count; credited departures add
    /// to it.
    events: &'a mut u64,
}

impl SimApi<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of paths available.
    pub fn num_paths(&self) -> usize {
        self.outgoing.len()
    }

    /// Sends `packet` on path `path`. Returns `false` if the link queue
    /// was full and the packet was dropped at the NIC.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range.
    pub fn send(&mut self, path: usize, mut packet: Packet) -> bool {
        let dir = match self.host {
            HostId::Client => Dir::Forward,
            HostId::Server => Dir::Backward,
        };
        let egress = &mut self.outgoing[path];
        let key = (self.now, self.seq);
        let (credited, _) = egress.credit_while(|time, seq| (time, seq) < key);
        *self.events += credited;
        let size = packet.size_bytes();
        match egress.link.send(self.now, &mut packet) {
            SendOutcome::DroppedQueueFull | SendOutcome::DroppedLinkDown => false,
            SendOutcome::Transmitted { departure, arrival } => {
                let seq = self.queue.reserve_seq();
                egress.departures.push_back((departure, seq, size));
                if let Some(at) = arrival {
                    let lane = self.arrival_lanes + path;
                    match self.faults.as_deref_mut() {
                        Some(stream) => {
                            let mut packet = packet;
                            let injection = stream.inject(at, &mut packet);
                            if let Some(dup_at) = injection.duplicate_at {
                                self.queue.schedule(
                                    dup_at,
                                    NetEvent::Arrival {
                                        dir,
                                        path,
                                        packet: packet.clone(),
                                    },
                                );
                            }
                            let arrival = NetEvent::Arrival { dir, path, packet };
                            if injection.deliver_at == at {
                                self.queue.schedule_in(lane, at, arrival);
                            } else {
                                self.queue.schedule(injection.deliver_at, arrival);
                            }
                        }
                        None => {
                            self.queue.schedule_in(
                                lane,
                                at,
                                NetEvent::Arrival { dir, path, packet },
                            );
                        }
                    }
                }
                true
            }
        }
    }

    /// Arms a timer that fires at absolute time `at` with `key`
    /// (delivered to this host's [`Agent::on_timer`]). Timers cannot be
    /// cancelled — implement lazy cancellation by ignoring stale keys.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer(&mut self, at: SimTime, key: u64) {
        let host = self.host;
        let timer = NetEvent::Timer { host, key };
        match self.timer_lanes.lane(self.queue, host, at.since(self.now)) {
            Some(lane) => self.queue.schedule_in(lane, at, timer),
            None => self.queue.schedule(at, timer),
        }
    }
}

/// An endpoint implementation (protocol + application logic).
pub trait Agent {
    /// Called once before the first event; schedule initial work here.
    fn on_start(&mut self, api: &mut SimApi<'_>);

    /// A packet arrived on `path`.
    fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>);

    /// A timer armed via [`SimApi::set_timer`] fired.
    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>);
}

/// The assembled two-host simulation.
#[derive(Debug)]
pub struct TwoHostSim<C, S> {
    net: Net,
    client: C,
    server: S,
    started: bool,
}

/// Everything of the simulation but its endpoints: the queue, the links
/// and the counters a callback's [`SimApi`] reaches.
#[derive(Debug)]
struct Net {
    /// Lanes `0..n` hold the forward links' arrivals, `n..2n` the
    /// backward links', and `2n..` the timers (see [`TimerLanes`]).
    queue: EventQueue<NetEvent>,
    forward: Vec<Egress>,
    backward: Vec<Egress>,
    timer_lanes: TimerLanes,
    events_processed: u64,
    faults: Option<PacketFaults>,
}

impl Net {
    /// The API `host` acts through while the event `(now, seq)` is
    /// dispatched.
    fn api(&mut self, host: HostId, now: SimTime, seq: u64) -> SimApi<'_> {
        let (outgoing, arrival_lanes, faults) = match host {
            HostId::Client => (
                &mut self.forward,
                0,
                self.faults.as_mut().map(|f| &mut f.forward),
            ),
            HostId::Server => (
                &mut self.backward,
                self.forward.len(),
                self.faults.as_mut().map(|f| &mut f.backward),
            ),
        };
        SimApi {
            now,
            seq,
            host,
            outgoing,
            arrival_lanes,
            queue: &mut self.queue,
            timer_lanes: &mut self.timer_lanes,
            faults,
            events: &mut self.events_processed,
        }
    }

    fn egress(&self, dir: Dir, path: usize) -> &Egress {
        match dir {
            Dir::Forward => &self.forward[path],
            Dir::Backward => &self.backward[path],
        }
    }
}

/// Per-direction packet-fault streams (installed by
/// [`TwoHostSim::apply_faults`]).
#[derive(Debug)]
struct PacketFaults {
    forward: FaultStream,
    backward: FaultStream,
}

impl<C: Agent, S: Agent> TwoHostSim<C, S> {
    /// Builds the topology: `forward[i]`/`backward[i]` are the two
    /// directions of path `i`. Links are seeded deterministically from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message if the direction vectors have different lengths,
    /// are empty, or a link config is invalid.
    pub fn new(
        forward: Vec<LinkConfig>,
        backward: Vec<LinkConfig>,
        client: C,
        server: S,
        seed: u64,
    ) -> Result<Self, String> {
        if forward.is_empty() {
            return Err("need at least one path".into());
        }
        if forward.len() != backward.len() {
            return Err(format!(
                "direction mismatch: {} forward vs {} backward links",
                forward.len(),
                backward.len()
            ));
        }
        for cfg in forward.iter().chain(&backward) {
            cfg.validate()?;
        }
        let mk = |configs: Vec<LinkConfig>, salt: u64| -> Vec<Egress> {
            configs
                .into_iter()
                .enumerate()
                .map(|(i, cfg)| Egress::new(Link::new(cfg, mix_seed(seed, salt, i as u64))))
                .collect()
        };
        let links = 2 * forward.len();
        Ok(TwoHostSim {
            net: Net {
                queue: EventQueue::with_lanes(links + TIMER_LANES),
                forward: mk(forward, 1),
                backward: mk(backward, 2),
                timer_lanes: TimerLanes {
                    first: links,
                    keys: [None; TIMER_LANES],
                },
                events_processed: 0,
                faults: None,
            },
            client,
            server,
            started: false,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.queue.now()
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed
    }

    /// The client endpoint (for extracting results).
    pub fn client(&self) -> &C {
        &self.client
    }

    /// The server endpoint (for extracting results).
    pub fn server(&self) -> &S {
        &self.server
    }

    /// Consumes the simulation, returning both endpoints (for extracting
    /// owned results after the run).
    pub fn into_agents(self) -> (C, S) {
        (self.client, self.server)
    }

    /// Stats of one link.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range.
    pub fn link_stats(&self, dir: Dir, path: usize) -> LinkStats {
        self.net.egress(dir, path).link.stats()
    }

    /// Whether the directed link is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range.
    pub fn link_is_up(&self, dir: Dir, path: usize) -> bool {
        self.net.egress(dir, path).link.is_up()
    }

    /// Schedules a [`Dynamics`] script (path failures, bandwidth steps,
    /// loss changes). Call before running; events earlier than the
    /// current virtual time are rejected.
    ///
    /// # Errors
    ///
    /// Returns a message if an event references a path outside the
    /// topology or lies in the simulated past.
    pub fn apply_dynamics(&mut self, dynamics: &Dynamics) -> Result<(), String> {
        let queue = &mut self.net.queue;
        if let Some(max) = dynamics.max_path() {
            if max >= self.net.forward.len() {
                return Err(format!(
                    "dynamics reference path {max}, topology has {} paths",
                    self.net.forward.len()
                ));
            }
        }
        for e in dynamics.events() {
            if e.at < queue.now() {
                return Err(format!(
                    "dynamics event at {} lies in the past (now {})",
                    e.at,
                    queue.now()
                ));
            }
            queue.schedule(
                e.at,
                NetEvent::LinkChange {
                    dir: e.dir,
                    path: e.path,
                    change: Box::new(e.change.clone()),
                },
            );
        }
        Ok(())
    }

    /// Installs a [`FaultPlan`]: schedules its link-level dynamics (flaps
    /// and correlated fault domains) and arms the per-direction
    /// packet-fault streams (corruption, duplication, bounded
    /// reordering). Call before running; composes with
    /// [`Self::apply_dynamics`].
    ///
    /// # Errors
    ///
    /// Returns a message if the plan's link events reference a path
    /// outside the topology or lie in the simulated past.
    pub fn apply_faults(&mut self, plan: &FaultPlan) -> Result<(), String> {
        self.apply_dynamics(plan.dynamics())?;
        if plan.has_packet_faults() {
            self.net.faults = Some(PacketFaults {
                forward: plan.stream(FAULT_SALT_FORWARD),
                backward: plan.stream(FAULT_SALT_BACKWARD),
            });
        }
        Ok(())
    }

    /// Packet-fault counters for one direction (zeros when no
    /// [`FaultPlan`] is installed).
    pub fn fault_stats(&self, dir: Dir) -> FaultStats {
        match &self.net.faults {
            Some(f) => match dir {
                Dir::Forward => f.forward.stats(),
                Dir::Backward => f.backward.stats(),
            },
            None => FaultStats::default(),
        }
    }

    /// Publishes the run's simulator-side telemetry into a registry:
    /// the per-direction packet-fault counters under `sim.fwd.*` /
    /// `sim.bwd.*`, the dispatched-event total as `sim.events`, and the
    /// event total folded into the registry's logical clock (via
    /// [`dmc_obs::Obs::advance_to`], so re-publishing is clock-idempotent).
    ///
    /// MIGRATION: this is the registry-facing face of
    /// [`TwoHostSim::fault_stats`]; the per-direction accessor remains
    /// the source of truth for a single simulation. Counters are
    /// cumulative — call this once per simulation per registry.
    pub fn publish_obs(&self, obs: &dmc_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        let fwd = self.fault_stats(Dir::Forward);
        obs.counter("sim.fwd.corrupted").add(fwd.corrupted);
        obs.counter("sim.fwd.duplicated").add(fwd.duplicated);
        obs.counter("sim.fwd.reordered").add(fwd.reordered);
        let bwd = self.fault_stats(Dir::Backward);
        obs.counter("sim.bwd.corrupted").add(bwd.corrupted);
        obs.counter("sim.bwd.duplicated").add(bwd.duplicated);
        obs.counter("sim.bwd.reordered").add(bwd.reordered);
        obs.counter("sim.events").add(self.net.events_processed);
        obs.advance_to(self.net.events_processed);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // No event has been dispatched yet: the key (0, 0) lies at or
        // below every key, so nothing is credited.
        let now = self.net.queue.now();
        self.client
            .on_start(&mut self.net.api(HostId::Client, now, 0));
        self.server
            .on_start(&mut self.net.api(HostId::Server, now, 0));
    }

    /// Runs until the event queue drains or `end` is reached (events at
    /// exactly `end` still run). Returns the number of events processed
    /// by this call.
    pub fn run_until(&mut self, end: SimTime) -> u64 {
        self.start_if_needed();
        let net = &mut self.net;
        let before = net.events_processed;
        while let Some((now, seq, event)) = net.queue.pop_until(end) {
            net.events_processed += 1;
            match event {
                // Forward traffic arrives at the server.
                NetEvent::Arrival {
                    dir: Dir::Forward,
                    path,
                    packet,
                } => self
                    .server
                    .on_packet(path, packet, &mut net.api(HostId::Server, now, seq)),
                NetEvent::Arrival {
                    dir: Dir::Backward,
                    path,
                    packet,
                } => self
                    .client
                    .on_packet(path, packet, &mut net.api(HostId::Client, now, seq)),
                NetEvent::Timer {
                    host: HostId::Client,
                    key,
                } => self
                    .client
                    .on_timer(key, &mut net.api(HostId::Client, now, seq)),
                NetEvent::Timer {
                    host: HostId::Server,
                    key,
                } => self
                    .server
                    .on_timer(key, &mut net.api(HostId::Server, now, seq)),
                NetEvent::LinkChange { dir, path, change } => {
                    let egress = match dir {
                        Dir::Forward => &mut net.forward[path],
                        Dir::Backward => &mut net.backward[path],
                    };
                    egress.link.apply(&change);
                }
            }
        }
        // Every serialization end at or before `end` would have been
        // dispatched by now.
        for egress in net.forward.iter_mut().chain(&mut net.backward) {
            let (credited, last) = egress.credit_while(|time, _| time <= end);
            net.events_processed += credited;
            if let Some(last) = last {
                net.queue.advance_to(last);
            }
        }
        net.events_processed - before
    }

    /// Runs until the event queue is empty.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::from_nanos(u64::MAX))
    }

    /// Pending events that wait in lanes.
    #[cfg(test)]
    pub(crate) fn pending_in_lanes(&self) -> usize {
        self.net.queue.in_lanes()
    }
}

/// SplitMix64-style seed derivation so each link gets an independent,
/// reproducible stream.
pub(crate) fn mix_seed(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(
        seed.wrapping_add(salt.wrapping_mul(GOLDEN_GAMMA))
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_stats::ConstantDelay;
    use std::sync::Arc;

    #[test]
    fn mix_seed_known_answer() {
        // Known answer: every link's loss and delay stream is seeded by
        // this derivation, so no bit of it may move.
        assert_eq!(mix_seed(1, 2, 3), 0xF8A4_509D_A00F_A65D);
    }

    fn link(bw: f64, delay: f64, loss: f64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: bw,
            propagation: Arc::new(ConstantDelay::new(delay)),
            loss: loss.into(),
            queue_capacity_bytes: 1 << 20,
        }
    }

    #[test]
    fn a_net_event_stays_small() {
        // The heap and the lanes hold 24-byte `(time, seq, slot)` keys
        // (`event::tests::a_heap_key_stays_small`, `a_lane_entry_stays_small`);
        // each pending event sits in one slab slot, so the rare link
        // change is boxed and an arrival (a 32-byte packet) sets the
        // slot's width.
        assert!(std::mem::size_of::<Option<NetEvent>>() <= 48);
    }

    /// Arms timers at the last instant of the clock and counts them.
    #[derive(Default)]
    struct LastInstant {
        fired: Vec<u64>,
    }
    impl Agent for LastInstant {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            api.set_timer(SimTime::from_nanos(u64::MAX), 1);
            api.set_timer(SimTime::from_nanos(u64::MAX), 2);
        }
        fn on_packet(&mut self, _path: usize, _p: Packet, _api: &mut SimApi<'_>) {}
        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            assert_eq!(api.now(), SimTime::from_nanos(u64::MAX));
            self.fired.push(key);
        }
    }

    #[test]
    fn timers_at_the_end_of_time_wait_in_a_lane_and_fire() {
        let mut sim = TwoHostSim::new(
            vec![link(1e6, 0.1, 0.0)],
            vec![link(1e6, 0.1, 0.0)],
            LastInstant::default(),
            CountingServer::default(),
            0,
        )
        .unwrap();
        sim.start_if_needed();
        assert_eq!(sim.pending_in_lanes(), 2, "one delay, one timer lane");
        assert_eq!(sim.run_to_completion(), 2);
        assert_eq!(sim.client().fired, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_nanos(u64::MAX));
    }

    /// Client: sends one packet at start, records the echo's arrival.
    #[derive(Default)]
    struct PingClient {
        echo_at: Option<SimTime>,
    }
    impl Agent for PingClient {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            assert!(api.send(0, Packet::new(1000, [])));
        }
        fn on_packet(&mut self, _path: usize, _p: Packet, api: &mut SimApi<'_>) {
            self.echo_at = Some(api.now());
        }
        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    /// Server: echoes everything back on the same path.
    struct EchoServer;
    impl Agent for EchoServer {
        fn on_start(&mut self, _api: &mut SimApi<'_>) {}
        fn on_packet(&mut self, path: usize, p: Packet, api: &mut SimApi<'_>) {
            api.send(path, p);
        }
        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    #[test]
    fn ping_pong_rtt_is_exact() {
        // 1000 B at 1 Mbps = 8 ms serialization each way, 100 ms
        // propagation each way → echo at 216 ms.
        let mut sim = TwoHostSim::new(
            vec![link(1e6, 0.1, 0.0)],
            vec![link(1e6, 0.1, 0.0)],
            PingClient::default(),
            EchoServer,
            0,
        )
        .unwrap();
        sim.run_to_completion();
        let echo = sim.client().echo_at.expect("echo received");
        assert_eq!(echo.as_nanos(), 216_000_000);
        assert_eq!(sim.link_stats(Dir::Forward, 0).delivered, 1);
        assert_eq!(sim.link_stats(Dir::Backward, 0).delivered, 1);
    }

    /// Client that uses a periodic timer to send packets.
    struct TickerClient {
        sent: u64,
        limit: u64,
    }
    impl Agent for TickerClient {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            api.set_timer(SimTime::from_millis_helper(10), 1);
        }
        fn on_packet(&mut self, _path: usize, _p: Packet, _api: &mut SimApi<'_>) {}
        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            assert_eq!(key, 1);
            self.sent += 1;
            api.send(0, Packet::new(100, []));
            if self.sent < self.limit {
                api.set_timer(api.now() + crate::time::SimDuration::from_millis(10), 1);
            }
        }
    }
    impl SimTime {
        fn from_millis_helper(ms: u64) -> SimTime {
            SimTime::from_nanos(ms * 1_000_000)
        }
    }

    /// Server that counts arrivals.
    #[derive(Default)]
    struct CountingServer {
        received: u64,
    }
    impl Agent for CountingServer {
        fn on_start(&mut self, _api: &mut SimApi<'_>) {}
        fn on_packet(&mut self, _path: usize, _p: Packet, _api: &mut SimApi<'_>) {
            self.received += 1;
        }
        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    #[test]
    fn timers_drive_periodic_sending() {
        let mut sim = TwoHostSim::new(
            vec![link(1e7, 0.01, 0.0)],
            vec![link(1e7, 0.01, 0.0)],
            TickerClient { sent: 0, limit: 50 },
            CountingServer::default(),
            0,
        )
        .unwrap();
        sim.run_to_completion();
        assert_eq!(sim.client().sent, 50);
        assert_eq!(sim.server().received, 50);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = TwoHostSim::new(
            vec![link(1e7, 0.01, 0.0)],
            vec![link(1e7, 0.01, 0.0)],
            TickerClient {
                sent: 0,
                limit: 1000,
            },
            CountingServer::default(),
            0,
        )
        .unwrap();
        // Ticks at 10, 20, …; horizon 105 ms → 10 ticks.
        sim.run_until(SimTime::from_secs_f64(0.105));
        assert_eq!(sim.client().sent, 10);
    }

    #[test]
    fn construction_validation() {
        assert!(TwoHostSim::new(vec![], vec![], PingClient::default(), EchoServer, 0).is_err());
        assert!(TwoHostSim::new(
            vec![link(1e6, 0.1, 0.0)],
            vec![],
            PingClient::default(),
            EchoServer,
            0
        )
        .is_err());
    }

    #[test]
    fn dynamics_fail_and_recover_mid_run() {
        // Ticker sends every 10 ms for 1 s; the single path is down
        // between 300 ms and 600 ms, so ~30 of the 100 packets vanish at
        // the NIC and the rest arrive.
        let dynamics = Dynamics::new().path_failure(0, 0.300, 0.600).unwrap();
        let mut sim = TwoHostSim::new(
            vec![link(1e7, 0.001, 0.0)],
            vec![link(1e7, 0.001, 0.0)],
            TickerClient {
                sent: 0,
                limit: 100,
            },
            CountingServer::default(),
            0,
        )
        .unwrap();
        sim.apply_dynamics(&dynamics).unwrap();
        assert!(sim.link_is_up(Dir::Forward, 0));
        sim.run_to_completion();
        assert!(sim.link_is_up(Dir::Forward, 0), "recovered by the end");
        let received = sim.server().received;
        assert!(
            (65..=75).contains(&received),
            "received {received}, expected ~70 (30 ticks fall in the outage)"
        );
        assert_eq!(sim.link_stats(Dir::Forward, 0).dropped_down, 100 - received);
    }

    #[test]
    fn dynamics_validation_against_topology() {
        let dynamics = Dynamics::new().path_failure(3, 0.1, 0.2).unwrap();
        let mut sim = TwoHostSim::new(
            vec![link(1e7, 0.001, 0.0)],
            vec![link(1e7, 0.001, 0.0)],
            PingClient::default(),
            EchoServer,
            0,
        )
        .unwrap();
        assert!(sim.apply_dynamics(&dynamics).is_err());
        assert!(sim.apply_dynamics(&Dynamics::new()).is_ok());
    }

    #[test]
    fn fault_plan_duplication_doubles_deliveries() {
        let plan = crate::fault::FaultPlan::new(5)
            .with_duplication(1.0)
            .unwrap();
        let mut sim = TwoHostSim::new(
            vec![link(1e7, 0.01, 0.0)],
            vec![link(1e7, 0.01, 0.0)],
            TickerClient { sent: 0, limit: 40 },
            CountingServer::default(),
            0,
        )
        .unwrap();
        sim.apply_faults(&plan).unwrap();
        sim.run_to_completion();
        assert_eq!(sim.client().sent, 40);
        assert_eq!(sim.server().received, 80, "every frame delivered twice");
        assert_eq!(sim.fault_stats(Dir::Forward).duplicated, 40);
        assert_eq!(sim.fault_stats(Dir::Backward).duplicated, 0);
    }

    /// Client that sends payload-carrying packets; server collects them.
    struct PayloadClient {
        sent: u64,
        limit: u64,
    }
    impl Agent for PayloadClient {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            api.set_timer(SimTime::from_millis_helper(10), 1);
        }
        fn on_packet(&mut self, _path: usize, _p: Packet, _api: &mut SimApi<'_>) {}
        fn on_timer(&mut self, _key: u64, api: &mut SimApi<'_>) {
            self.sent += 1;
            api.send(0, Packet::new(100, [0xAAu8; 16]));
            if self.sent < self.limit {
                api.set_timer(api.now() + crate::time::SimDuration::from_millis(10), 1);
            }
        }
    }
    #[derive(Default)]
    struct CollectingServer {
        payloads: Vec<Vec<u8>>,
    }
    impl Agent for CollectingServer {
        fn on_start(&mut self, _api: &mut SimApi<'_>) {}
        fn on_packet(&mut self, _path: usize, p: Packet, _api: &mut SimApi<'_>) {
            self.payloads.push(p.payload().to_vec());
        }
        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    #[test]
    fn fault_plan_corruption_flips_exactly_one_bit_reproducibly() {
        let run = || {
            let plan = crate::fault::FaultPlan::new(0xFA17)
                .with_corruption(1.0)
                .unwrap();
            let mut sim = TwoHostSim::new(
                vec![link(1e7, 0.01, 0.0)],
                vec![link(1e7, 0.01, 0.0)],
                PayloadClient { sent: 0, limit: 30 },
                CollectingServer::default(),
                0,
            )
            .unwrap();
            sim.apply_faults(&plan).unwrap();
            sim.run_to_completion();
            assert_eq!(sim.fault_stats(Dir::Forward).corrupted, 30);
            sim.server().payloads.clone()
        };
        let a = run();
        assert_eq!(a.len(), 30);
        for p in &a {
            let flipped: u32 = p.iter().map(|b| (b ^ 0xAAu8).count_ones()).sum();
            assert_eq!(flipped, 1, "exactly one bit flipped per frame");
        }
        assert_eq!(a, run(), "same seed, same corrupted bytes");
    }

    #[test]
    fn fault_plan_reordering_stays_within_window() {
        // With a 5 ms window and 10 ms inter-send spacing, frames can be
        // delayed but never leapfrogged by more than one slot; deliveries
        // stay deterministic.
        let run = || {
            let plan = crate::fault::FaultPlan::new(0x0DD)
                .with_reordering(0.8, crate::time::SimDuration::from_millis(5))
                .unwrap();
            let mut sim = TwoHostSim::new(
                vec![link(1e7, 0.01, 0.0)],
                vec![link(1e7, 0.01, 0.0)],
                TickerClient {
                    sent: 0,
                    limit: 100,
                },
                CountingServer::default(),
                0,
            )
            .unwrap();
            sim.apply_faults(&plan).unwrap();
            sim.run_to_completion();
            (sim.server().received, sim.fault_stats(Dir::Forward))
        };
        let (received, stats) = run();
        assert_eq!(received, 100, "reordering delays but never drops");
        assert!(stats.reordered > 50, "~80 of 100 reordered, got {stats:?}");
        assert_eq!((received, stats), run());
    }

    #[test]
    fn lossy_path_loses_packets_deterministically() {
        let run = |seed| {
            let mut sim = TwoHostSim::new(
                vec![link(1e7, 0.01, 0.5)],
                vec![link(1e7, 0.01, 0.0)],
                TickerClient {
                    sent: 0,
                    limit: 200,
                },
                CountingServer::default(),
                seed,
            )
            .unwrap();
            sim.run_to_completion();
            sim.server().received
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same outcome");
        // Roughly half arrive.
        assert!(a > 60 && a < 140, "received {a} of 200 at 50% loss");
    }
}
