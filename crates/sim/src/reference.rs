//! The differential test of the departure FIFO and the event lanes: a
//! reference engine that keeps every event, serialization ends included,
//! on one ordered map of `(time, seq)` keys (the engine before departures
//! left the heap and lanes were added beside it), and seeded two-host
//! scripts run through both engines.
//!
//! The scripts aim at the edges of both: queues that hold one to four
//! packets, so the NIC drops; bandwidths at which serialization rounds to
//! 0 ns; packet sizes and timer delays on one nanosecond grid, so sends
//! land on a departure's exact instant and events of several lanes and
//! the heap fall due at one instant; `ShiftedGamma` delays, whose
//! overtaking arrivals fall back from their lane to the heap; link
//! changes; and a [`FaultPlan`] with duplication and reordering. A second
//! family of scripts puts a constant-delay and a `ShiftedGamma` path in
//! one topology under reordering and duplication, arms timers with more
//! distinct delays on each host than there are timer lanes, and splits
//! its runs while events wait in lanes. Both engines must give the same
//! callbacks, link and fault counters, dispatched-event counts and clock,
//! after every `run_until` of a split run.
//!
//! Mutations that fail this test: crediting a departure on `time <= now`
//! while ignoring its seq (a departure due at the current instant but
//! scheduled after the current event would free its bytes too early);
//! comparing lane heads by time alone, ignoring seq; and appending a key
//! to a lane when its time is below the lane's last key.

use crate::fault::{FaultPlan, FaultStats, FaultStream, FAULT_SALT_BACKWARD, FAULT_SALT_FORWARD};
use crate::link::{GilbertElliott, Link, LinkChange, LinkConfig, SendOutcome};
use crate::packet::Packet;
use crate::scenario::Dynamics;
use crate::sim::{mix_seed, Agent, Dir, HostId, SimApi, TwoHostSim, TIMER_LANES};
use crate::time::{SimDuration, SimTime};
use dmc_stats::rng::Xoshiro256;
use dmc_stats::{ConstantDelay, Delay, ShiftedGamma};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a script may do in a callback, on either engine.
trait Host {
    fn now(&self) -> SimTime;
    fn num_paths(&self) -> usize;
    fn send(&mut self, path: usize, packet: Packet) -> bool;
    fn set_timer(&mut self, at: SimTime, key: u64);
}

impl Host for SimApi<'_> {
    fn now(&self) -> SimTime {
        SimApi::now(self)
    }
    fn num_paths(&self) -> usize {
        SimApi::num_paths(self)
    }
    fn send(&mut self, path: usize, packet: Packet) -> bool {
        SimApi::send(self, path, packet)
    }
    fn set_timer(&mut self, at: SimTime, key: u64) {
        SimApi::set_timer(self, at, key);
    }
}

/// On-wire sizes: each at least the 5-byte payload, and at 8 Gbit/s each
/// takes as many nanoseconds as it has bytes.
const SIZES: [usize; 5] = [5, 8, 64, 125, 1000];
/// Timer delays (ns): zero, the sizes' serialization times at 8 Gbit/s,
/// and a few longer ones.
const TIMER_DELAYS_NS: [u64; 9] = [0, 1, 5, 8, 64, 125, 1000, 1500, 3000];
/// More distinct timer delays (ns) than there are timer lanes.
const WIDE_TIMER_DELAYS_NS: [u64; 24] = [
    0, 1, 2, 3, 5, 7, 8, 13, 21, 34, 55, 64, 89, 100, 125, 144, 233, 377, 610, 987, 1000, 1500,
    2584, 3000,
];
/// Bandwidths: 8 Gbit/s (1 ns per byte) twice as often; 10 Tbit/s, at
/// which a packet of 5–64 bytes serializes in 0 ns; and two slower ones.
const BANDWIDTHS: [f64; 5] = [8e9, 8e9, 1e13, 1e9, 8e10];

/// What a callback was.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Start,
    Packet { path: usize, packet: Packet },
    Timer { key: u64 },
}

/// One callback as its agent saw it, with the outcome of each send it
/// made.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Call {
    time: SimTime,
    host: HostId,
    kind: Kind,
    sent: Vec<bool>,
}

/// A seeded agent: in each callback, while its budget lasts, it may send
/// a burst on random paths and arm timers. What it does depends only on
/// its seed and the callbacks it has seen, so two engines that dispatch
/// the same callbacks drive it identically.
#[derive(Debug)]
struct Script {
    host: HostId,
    rng: Xoshiro256,
    budget: u32,
    next_id: u32,
    timer_delays: &'static [u64],
    /// Which of `timer_delays` it armed a timer with, one bit each.
    delays_used: u64,
    calls: Vec<Call>,
}

impl Script {
    fn new(host: HostId, seed: u64, timer_delays: &'static [u64]) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let budget = 20 + (rng.next_u64() % 60) as u32;
        Script {
            host,
            rng,
            budget,
            next_id: 0,
            timer_delays,
            delays_used: 0,
            calls: Vec::new(),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn act(&mut self, kind: Kind, api: &mut dyn Host) {
        let mut sent = Vec::new();
        if self.budget > 0 {
            self.budget -= 1;
            if self.pick(4) != 0 {
                for _ in 0..=self.pick(5) {
                    let path = self.pick(api.num_paths());
                    let size = SIZES[self.pick(SIZES.len())];
                    let mut payload = vec![self.host as u8];
                    payload.extend_from_slice(&self.next_id.to_le_bytes());
                    self.next_id += 1;
                    sent.push(api.send(path, Packet::new(size, payload)));
                }
            }
            for _ in 0..self.pick(3) {
                let i = self.pick(self.timer_delays.len());
                self.delays_used |= 1 << i;
                let delay = self.timer_delays[i];
                let key = self.rng.next_u64() % 16;
                api.set_timer(api.now() + SimDuration::from_nanos(delay), key);
            }
        }
        self.calls.push(Call {
            time: api.now(),
            host: self.host,
            kind,
            sent,
        });
    }
}

impl Agent for Script {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        self.act(Kind::Start, api);
    }
    fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>) {
        self.act(Kind::Packet { path, packet }, api);
    }
    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        self.act(Kind::Timer { key }, api);
    }
}

/// The reference engine's events: a departure is one.
#[derive(Debug)]
enum RefEvent {
    Departure {
        dir: Dir,
        path: usize,
        size: usize,
    },
    Arrival {
        dir: Dir,
        path: usize,
        packet: Packet,
    },
    Timer {
        host: HostId,
        key: u64,
    },
    LinkChange {
        dir: Dir,
        path: usize,
        change: LinkChange,
    },
}

/// An ordered map of `(time, seq)` keys: the reference for the event
/// queue's heap and slab too.
#[derive(Debug, Default)]
struct RefQueue {
    events: BTreeMap<(SimTime, u64), RefEvent>,
    next_seq: u64,
    now: SimTime,
    /// Sends made while an undispatched departure of the same link was
    /// due at the current instant: the key ties the FIFO must order by
    /// seq.
    ties: u64,
    /// Departures due at the instant of their send (0 ns serialization).
    instant: u64,
}

impl RefQueue {
    fn schedule(&mut self, at: SimTime, event: RefEvent) {
        assert!(at >= self.now, "scheduling into the past");
        self.events.insert((at, self.next_seq), event);
        self.next_seq += 1;
    }
}

struct RefApi<'a> {
    now: SimTime,
    host: HostId,
    outgoing: &'a mut [Link],
    queue: &'a mut RefQueue,
    faults: Option<&'a mut FaultStream>,
}

impl RefApi<'_> {
    fn dir(&self) -> Dir {
        match self.host {
            HostId::Client => Dir::Forward,
            HostId::Server => Dir::Backward,
        }
    }
}

impl Host for RefApi<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn num_paths(&self) -> usize {
        self.outgoing.len()
    }
    fn send(&mut self, path: usize, mut packet: Packet) -> bool {
        let dir = self.dir();
        let tie = self
            .queue
            .events
            .range((self.now, 0)..=(self.now, u64::MAX))
            .any(|(_, e)| matches!(e, RefEvent::Departure { dir: d, path: p, .. } if *d == dir && *p == path));
        self.queue.ties += u64::from(tie);
        let size = packet.size_bytes();
        match self.outgoing[path].send(self.now, &mut packet) {
            SendOutcome::DroppedQueueFull | SendOutcome::DroppedLinkDown => false,
            SendOutcome::Transmitted { departure, arrival } => {
                self.queue.instant += u64::from(departure == self.now);
                self.queue
                    .schedule(departure, RefEvent::Departure { dir, path, size });
                if let Some(at) = arrival {
                    match self.faults.as_deref_mut() {
                        Some(stream) => {
                            let injection = stream.inject(at, &mut packet);
                            if let Some(dup_at) = injection.duplicate_at {
                                self.queue.schedule(
                                    dup_at,
                                    RefEvent::Arrival {
                                        dir,
                                        path,
                                        packet: packet.clone(),
                                    },
                                );
                            }
                            self.queue.schedule(
                                injection.deliver_at,
                                RefEvent::Arrival { dir, path, packet },
                            );
                        }
                        None => self
                            .queue
                            .schedule(at, RefEvent::Arrival { dir, path, packet }),
                    }
                }
                true
            }
        }
    }
    fn set_timer(&mut self, at: SimTime, key: u64) {
        let host = self.host;
        self.queue.schedule(at, RefEvent::Timer { host, key });
    }
}

/// The two-host engine with every departure on the queue.
struct RefSim {
    queue: RefQueue,
    forward: Vec<Link>,
    backward: Vec<Link>,
    client: Script,
    server: Script,
    started: bool,
    events_processed: u64,
    faults: Option<[FaultStream; 2]>,
    /// When each dispatched departure was due, in dispatch order.
    departures: Vec<SimTime>,
}

impl RefSim {
    fn new(setup: &Setup) -> Self {
        let mk = |configs: &[LinkConfig], salt: u64| -> Vec<Link> {
            configs
                .iter()
                .enumerate()
                .map(|(i, cfg)| Link::new(cfg.clone(), mix_seed(setup.seed, salt, i as u64)))
                .collect()
        };
        let mut sim = RefSim {
            queue: RefQueue::default(),
            forward: mk(&setup.forward, 1),
            backward: mk(&setup.backward, 2),
            client: Script::new(HostId::Client, setup.seed, setup.timer_delays),
            server: Script::new(HostId::Server, !setup.seed, setup.timer_delays),
            started: false,
            events_processed: 0,
            faults: None,
            departures: Vec::new(),
        };
        for e in setup
            .dynamics
            .events()
            .iter()
            .chain(setup.faults.dynamics().events())
        {
            let (dir, path, change) = (e.dir, e.path, e.change.clone());
            sim.queue
                .schedule(e.at, RefEvent::LinkChange { dir, path, change });
        }
        if setup.faults.has_packet_faults() {
            sim.faults = Some([
                setup.faults.stream(FAULT_SALT_FORWARD),
                setup.faults.stream(FAULT_SALT_BACKWARD),
            ]);
        }
        sim
    }

    fn api(&mut self, host: HostId, now: SimTime) -> (RefApi<'_>, &mut Script) {
        let (outgoing, faults, agent) = match host {
            HostId::Client => (&mut self.forward, 0, &mut self.client),
            HostId::Server => (&mut self.backward, 1, &mut self.server),
        };
        let api = RefApi {
            now,
            host,
            outgoing,
            queue: &mut self.queue,
            faults: self.faults.as_mut().map(|f| &mut f[faults]),
        };
        (api, agent)
    }

    fn run_until(&mut self, end: SimTime) -> u64 {
        if !self.started {
            self.started = true;
            for host in [HostId::Client, HostId::Server] {
                let (mut api, agent) = self.api(host, self.queue.now);
                agent.act(Kind::Start, &mut api);
            }
        }
        let before = self.events_processed;
        while let Some(entry) = self.queue.events.first_entry() {
            let (now, _) = *entry.key();
            if now > end {
                break;
            }
            let event = entry.remove();
            self.queue.now = now;
            self.events_processed += 1;
            match event {
                RefEvent::Departure { dir, path, size } => {
                    self.departures.push(now);
                    match dir {
                        Dir::Forward => self.forward[path].on_departure(size),
                        Dir::Backward => self.backward[path].on_departure(size),
                    }
                }
                RefEvent::Arrival { dir, path, packet } => {
                    let host = match dir {
                        Dir::Forward => HostId::Server,
                        Dir::Backward => HostId::Client,
                    };
                    let (mut api, agent) = self.api(host, now);
                    agent.act(Kind::Packet { path, packet }, &mut api);
                }
                RefEvent::Timer { host, key } => {
                    let (mut api, agent) = self.api(host, now);
                    agent.act(Kind::Timer { key }, &mut api);
                }
                RefEvent::LinkChange { dir, path, change } => match dir {
                    Dir::Forward => self.forward[path].apply(&change),
                    Dir::Backward => self.backward[path].apply(&change),
                },
            }
        }
        self.events_processed - before
    }

    fn link(&self, dir: Dir, path: usize) -> &Link {
        match dir {
            Dir::Forward => &self.forward[path],
            Dir::Backward => &self.backward[path],
        }
    }

    fn fault_stats(&self, dir: Dir) -> FaultStats {
        match (&self.faults, dir) {
            (Some(f), Dir::Forward) => f[0].stats(),
            (Some(f), Dir::Backward) => f[1].stats(),
            (None, _) => FaultStats::default(),
        }
    }
}

/// Which family a script belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One to three paths of any delay, faults half the time.
    Any,
    /// A constant-delay path 0 and a `ShiftedGamma` path 1 (and maybe a
    /// third of any delay), always under reordering and duplication,
    /// timers on [`WIDE_TIMER_DELAYS_NS`], and more splits.
    Lanes,
}

/// One script's topology, link changes and faults.
struct Setup {
    seed: u64,
    timer_delays: &'static [u64],
    forward: Vec<LinkConfig>,
    backward: Vec<LinkConfig>,
    dynamics: Dynamics,
    faults: FaultPlan,
    /// `run_until` instants before the final run to completion: random
    /// ones, and some at which a departure is due.
    splits: Vec<SimTime>,
}

impl Setup {
    fn new(seed: u64, shape: Shape) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED_D1FF);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let lanes = shape == Shape::Lanes;
        let paths = if lanes { 2 + pick(2) } else { 1 + pick(3) };
        // Path 0 of the lane family has a constant delay, path 1 a random
        // one.
        let link = |path: usize, pick: &mut dyn FnMut(usize) -> usize| {
            let delay = match path {
                0 if lanes => pick(3),
                1 if lanes => 3,
                _ => pick(4),
            };
            let propagation: Arc<dyn Delay> = match delay {
                0 => Arc::new(ConstantDelay::new(0.0)),
                1 => Arc::new(ConstantDelay::new(7e-9)),
                2 => Arc::new(ConstantDelay::new(100e-9)),
                _ => Arc::new(
                    ShiftedGamma::new(2.0, 30e-9, 5e-9).expect("the gamma parameters are valid"),
                ),
            };
            let loss = match pick(4) {
                0 => 0.1.into(),
                1 => GilbertElliott::classic(0.2, 0.4)
                    .expect("the chain parameters are valid")
                    .into(),
                _ => 0.0.into(),
            };
            LinkConfig {
                bandwidth_bps: BANDWIDTHS[pick(BANDWIDTHS.len())],
                propagation,
                loss,
                queue_capacity_bytes: (1 + pick(4)) * SIZES[pick(SIZES.len())],
            }
        };
        let forward = (0..paths).map(|path| link(path, &mut pick)).collect();
        let backward = (0..paths).map(|path| link(path, &mut pick)).collect();
        let mut dynamics = Dynamics::new();
        for _ in 0..pick(5) {
            let dir = if pick(2) == 0 {
                Dir::Forward
            } else {
                Dir::Backward
            };
            let change = match pick(4) {
                0 => LinkChange::Fail,
                1 => LinkChange::Recover,
                2 => LinkChange::SetBandwidth(BANDWIDTHS[pick(BANDWIDTHS.len())]),
                _ => LinkChange::SetLoss(0.3.into()),
            };
            let at = pick(20_000) as f64 * 1e-9;
            dynamics = dynamics
                .event(dir, pick(paths), at, change)
                .expect("a valid link change");
        }
        let mut faults = FaultPlan::new(seed);
        if lanes || pick(2) == 0 {
            faults = faults
                .with_duplication(0.3)
                .and_then(|f| f.with_reordering(0.2, SimDuration::from_nanos(50)))
                .and_then(|f| f.with_corruption(0.1))
                .expect("valid probabilities");
        }
        if pick(4) == 0 {
            faults = faults
                .flap(pick(paths), pick(20_000) as f64 * 1e-9, 4e-6, 1e-6, 2)
                .expect("a valid flap");
        }
        let mut setup = Setup {
            seed,
            timer_delays: if lanes {
                &WIDE_TIMER_DELAYS_NS
            } else {
                &TIMER_DELAYS_NS
            },
            forward,
            backward,
            dynamics,
            faults,
            splits: Vec::new(),
        };
        // A first run of the reference finds the departure instants.
        let mut probe = RefSim::new(&setup);
        probe.run_until(SimTime::from_nanos(u64::MAX));
        for _ in 0..pick(4) + 3 * usize::from(lanes) {
            setup.splits.push(SimTime::from_nanos(pick(30_000) as u64));
            if !probe.departures.is_empty() {
                setup
                    .splits
                    .push(probe.departures[pick(probe.departures.len())]);
            }
        }
        setup.splits.sort();
        setup
    }
}

/// What one script exercised, summed over the run.
#[derive(Debug, Default)]
struct Coverage {
    ties: u64,
    instant: u64,
    nic_drops: u64,
    duplicates: u64,
    reordered: u64,
    /// `run_until` splits at which events waited in lanes.
    lane_splits: u64,
    /// Hosts that armed timers with more distinct delays than there are
    /// timer lanes.
    wide_timers: u64,
}

/// Runs one script through both engines, asserting they agree after every
/// `run_until`.
fn differential(seed: u64, shape: Shape, coverage: &mut Coverage) {
    let setup = Setup::new(seed, shape);
    let mut live = TwoHostSim::new(
        setup.forward.clone(),
        setup.backward.clone(),
        Script::new(HostId::Client, setup.seed, setup.timer_delays),
        Script::new(HostId::Server, !setup.seed, setup.timer_delays),
        setup.seed,
    )
    .expect("a valid topology");
    live.apply_dynamics(&setup.dynamics)
        .expect("the dynamics fit the topology");
    live.apply_faults(&setup.faults)
        .expect("the fault plan fits the topology");
    let mut reference = RefSim::new(&setup);
    let ends = setup
        .splits
        .iter()
        .copied()
        .chain([SimTime::from_nanos(u64::MAX)]);
    for end in ends {
        let at = format!("{shape:?} seed {seed}, run_until({})", end.as_nanos());
        assert_eq!(live.run_until(end), reference.run_until(end), "{at}");
        coverage.lane_splits += u64::from(live.pending_in_lanes() > 0);
        assert_eq!(live.now(), reference.queue.now, "{at}");
        assert_eq!(live.events_processed(), reference.events_processed, "{at}");
        assert_eq!(live.client().calls, reference.client.calls, "{at}");
        assert_eq!(live.server().calls, reference.server.calls, "{at}");
        for dir in [Dir::Forward, Dir::Backward] {
            assert_eq!(live.fault_stats(dir), reference.fault_stats(dir), "{at}");
            for path in 0..setup.forward.len() {
                let link = reference.link(dir, path);
                assert_eq!(
                    live.link_stats(dir, path),
                    link.stats(),
                    "{at} {dir:?} {path}"
                );
                assert_eq!(live.link_is_up(dir, path), link.is_up(), "{at}");
            }
        }
    }
    for dir in [Dir::Forward, Dir::Backward] {
        coverage.duplicates += reference.fault_stats(dir).duplicated;
        coverage.reordered += reference.fault_stats(dir).reordered;
        for path in 0..setup.forward.len() {
            coverage.nic_drops += reference.link(dir, path).stats().dropped_overflow;
        }
    }
    coverage.ties += reference.queue.ties;
    coverage.instant += reference.queue.instant;
    for script in [live.client(), live.server()] {
        coverage.wide_timers += u64::from(script.delays_used.count_ones() as usize > TIMER_LANES);
    }
}

#[test]
fn the_departure_fifo_dispatches_what_an_all_in_heap_engine_does() {
    let mut coverage = Coverage::default();
    for seed in 0..256 {
        differential(seed, Shape::Any, &mut coverage);
    }
    // The scripts reach the edges they are written for.
    assert!(coverage.ties > 100, "{coverage:?}");
    assert!(coverage.instant > 100, "{coverage:?}");
    assert!(coverage.nic_drops > 1_000, "{coverage:?}");
    assert!(coverage.duplicates > 100, "{coverage:?}");
}

#[test]
fn the_lanes_dispatch_what_an_all_in_heap_engine_does() {
    let mut coverage = Coverage::default();
    for seed in 0..256 {
        differential(seed, Shape::Lanes, &mut coverage);
    }
    // Timers outnumber the lanes, random-delay and faulted arrivals fall
    // back to the heap, and runs stop while lanes hold events.
    assert!(coverage.wide_timers > 200, "{coverage:?}");
    assert!(coverage.lane_splits > 500, "{coverage:?}");
    assert!(coverage.reordered > 1_000, "{coverage:?}");
    assert!(coverage.duplicates > 1_000, "{coverage:?}");
    assert!(coverage.ties > 1_000, "{coverage:?}");
}
