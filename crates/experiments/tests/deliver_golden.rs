//! Golden pins for the protocol endpoints (tier-1): the paper's
//! scenarios planned once and run through `runner::run_plan` — the
//! sender and receiver of `dmc-proto` on the `dmc-sim` event engine —
//! with every field of both endpoints' counters held to a literal.
//!
//! The literals were recorded before the endpoints' per-message state
//! moved from hash tables to windows indexed by sequence number. That
//! change swaps lookup structures only: every callback does the same
//! things in the same order, so every RNG draw, timer, packet and
//! counter — and therefore every literal below — stays as it was. A
//! change to the endpoints that moves one of them changed behaviour.
//!
//! Each pin also holds `sim.events`, the simulator's dispatched-event
//! count, recorded while a serialization end was still an event on the
//! heap. Departures now wait in a FIFO beside their link and are credited
//! lazily; the count proves each is still counted exactly once.

use dmc_core::{Objective, Plan, Planner};
use dmc_experiments::runner::{run_plan, RunConfig, TrueNetwork};
use dmc_experiments::scenarios;
use dmc_obs::Obs;
use dmc_proto::{ReceiverStats, SenderStats};

/// Messages per run: the benchmark's `flow_deliver` step.
const MESSAGES: u64 = 2_500;

/// One run's expected counters.
struct Pin {
    case: &'static str,
    seed: u64,
    /// `Some(3)` drives §VIII-D fast retransmit, TCP's threshold, which
    /// exercises the sender's per-path outstanding walk on every ack.
    fast_retransmit: Option<u32>,
    sender: SenderStats,
    receiver: ReceiverStats,
    /// `sim.events`: every event the simulator dispatched, departures
    /// included.
    events: u64,
}

/// Every run, recorded on the hash-table endpoints.
const PINS: [Pin; 12] = [
    Pin {
        case: "table3@90",
        seed: 1,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 167,
            transmissions: 2761,
            retransmissions: 428,
            nic_dropped: 0,
            acked: 2333,
            expired: 0,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2333,
            unique_in_time: 2333,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2333,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15020,
    },
    Pin {
        case: "table3@90",
        seed: 2,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 167,
            transmissions: 2811,
            retransmissions: 478,
            nic_dropped: 0,
            acked: 2333,
            expired: 0,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2333,
            unique_in_time: 2333,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2333,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15120,
    },
    Pin {
        case: "table3@90",
        seed: 1,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 167,
            transmissions: 2761,
            retransmissions: 428,
            nic_dropped: 0,
            acked: 2333,
            expired: 0,
            fast_retransmits: 427,
        },
        receiver: ReceiverStats {
            transmissions_received: 2333,
            unique_in_time: 2333,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2333,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15020,
    },
    Pin {
        case: "table3@90",
        seed: 2,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 167,
            transmissions: 2811,
            retransmissions: 478,
            nic_dropped: 0,
            acked: 2333,
            expired: 0,
            fast_retransmits: 478,
        },
        receiver: ReceiverStats {
            transmissions_received: 2333,
            unique_in_time: 2333,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2333,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15120,
    },
    Pin {
        case: "table5",
        seed: 1,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2761,
            retransmissions: 261,
            nic_dropped: 0,
            acked: 2358,
            expired: 142,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2358,
            unique_in_time: 2357,
            unique_late: 1,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2358,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15095,
    },
    Pin {
        case: "table5",
        seed: 2,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2794,
            retransmissions: 294,
            nic_dropped: 0,
            acked: 2325,
            expired: 175,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2327,
            unique_in_time: 2325,
            unique_late: 0,
            duplicates: 2,
            malformed: 0,
            acks_sent: 2327,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 15068,
    },
    Pin {
        case: "table5",
        seed: 1,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 3755,
            retransmissions: 1255,
            nic_dropped: 335,
            acked: 675,
            expired: 1825,
            fast_retransmits: 3073,
        },
        receiver: ReceiverStats {
            transmissions_received: 3017,
            unique_in_time: 2292,
            unique_late: 0,
            duplicates: 725,
            malformed: 0,
            acks_sent: 3017,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 18725,
    },
    Pin {
        case: "table5",
        seed: 2,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 3757,
            retransmissions: 1257,
            nic_dropped: 344,
            acked: 634,
            expired: 1866,
            fast_retransmits: 3123,
        },
        receiver: ReceiverStats {
            transmissions_received: 2946,
            unique_in_time: 2250,
            unique_late: 0,
            duplicates: 696,
            malformed: 0,
            acks_sent: 2946,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 18507,
    },
    Pin {
        case: "figure1",
        seed: 1,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2500,
            retransmissions: 0,
            nic_dropped: 0,
            acked: 2293,
            expired: 207,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2293,
            unique_in_time: 2293,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2293,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 14378,
    },
    Pin {
        case: "figure1",
        seed: 2,
        fast_retransmit: None,
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2500,
            retransmissions: 0,
            nic_dropped: 0,
            acked: 2250,
            expired: 250,
            fast_retransmits: 0,
        },
        receiver: ReceiverStats {
            transmissions_received: 2250,
            unique_in_time: 2250,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2250,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 14249,
    },
    Pin {
        case: "figure1",
        seed: 1,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2500,
            retransmissions: 0,
            nic_dropped: 0,
            acked: 2293,
            expired: 207,
            fast_retransmits: 206,
        },
        receiver: ReceiverStats {
            transmissions_received: 2293,
            unique_in_time: 2293,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2293,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 14378,
    },
    Pin {
        case: "figure1",
        seed: 2,
        fast_retransmit: Some(3),
        sender: SenderStats {
            generated: 2500,
            blackholed: 0,
            transmissions: 2500,
            retransmissions: 0,
            nic_dropped: 0,
            acked: 2250,
            expired: 250,
            fast_retransmits: 250,
        },
        receiver: ReceiverStats {
            transmissions_received: 2250,
            unique_in_time: 2250,
            unique_late: 0,
            duplicates: 0,
            malformed: 0,
            acks_sent: 2250,
            acks_nic_dropped: 0,
            failure_notices_sent: 0,
            recovery_notices_sent: 0,
            stale_probes_dropped: 0,
        },
        events: 14249,
    },
];

/// One scenario's plan with the network it runs on, as the benchmark's
/// `flow_deliver` builds them.
fn cases() -> Vec<(&'static str, Plan, TrueNetwork)> {
    let mut planner = Planner::new();
    let table3 = scenarios::table3_scenario(90e6, 0.8);
    let table5 = scenarios::table5_scenario(90e6, 0.75);
    let figure1 = scenarios::figure1_scenario();
    vec![
        (
            "table3@90",
            planner
                .plan_with_margin(&table3, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
                .expect("Table III plans"),
            TrueNetwork::from_scenario(&table3),
        ),
        (
            "table5",
            planner
                .plan(&table5, Objective::MaxQuality)
                .expect("Table V plans"),
            TrueNetwork::from_scenario(&table5).over_provisioned(1.5),
        ),
        (
            "figure1",
            planner
                .plan_with_margin(&figure1, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
                .expect("Figure 1 plans"),
            TrueNetwork::from_scenario(&figure1),
        ),
    ]
}

fn run(
    plan: &Plan,
    truth: &TrueNetwork,
    seed: u64,
    fast_retransmit: Option<u32>,
) -> (SenderStats, ReceiverStats, u64) {
    let cfg = RunConfig {
        messages: MESSAGES,
        seed,
        fast_retransmit,
        obs: Obs::enabled(),
        ..RunConfig::default()
    };
    let outcome = run_plan(plan, truth, &cfg).expect("the plan runs on its network");
    let events = cfg
        .obs
        .snapshot()
        .counter("sim.events")
        .expect("an enabled registry holds the simulator's event count");
    (outcome.sender, outcome.receiver, events)
}

#[test]
fn every_endpoint_counter_matches_its_pin() {
    let cases = cases();
    for pin in &PINS {
        let (_, plan, truth) = cases
            .iter()
            .find(|(label, ..)| *label == pin.case)
            .expect("every pin names a case");
        let (sender, receiver, events) = run(plan, truth, pin.seed, pin.fast_retransmit);
        let at = format!(
            "{} seed {} fast retransmit {:?}",
            pin.case, pin.seed, pin.fast_retransmit
        );
        assert_eq!(sender, pin.sender, "sender counters moved: {at}");
        assert_eq!(receiver, pin.receiver, "receiver counters moved: {at}");
        assert_eq!(events, pin.events, "dispatched events moved: {at}");
    }
}
