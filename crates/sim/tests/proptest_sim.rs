//! Property-based tests for the simulator substrate.

use dmc_sim::{EventQueue, Link, LinkConfig, Packet, SendOutcome, SimTime};
use dmc_stats::{ConstantDelay, Delay, ShiftedGamma};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always pop in non-decreasing time order, FIFO within ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            if let Some((pt, pi)) = prev {
                prop_assert!(t > pt || (t == pt && i > pi), "not stable: ({pt},{pi}) then ({t},{i})");
            }
            prev = Some((t, i));
        }
    }

    /// Arrival time = max(now, busy) + size/bandwidth + propagation, for
    /// any lossless constant-delay link, and departures never precede
    /// sends.
    #[test]
    fn link_timing_is_exact(
        bw_mbps in 1.0f64..1000.0,
        delay_ms in 0.0f64..500.0,
        sizes in proptest::collection::vec(64usize..2000, 1..50),
    ) {
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: bw_mbps * 1e6,
                propagation: Arc::new(ConstantDelay::new(delay_ms / 1e3)),
                loss: 0.0.into(),
                queue_capacity_bytes: usize::MAX / 2,
            },
            0,
        );
        let mut busy_ns = 0u64;
        for (k, &size) in sizes.iter().enumerate() {
            let now = SimTime::from_nanos(k as u64 * 1000);
            let mut pkt = Packet::new(size, []);
            match link.send(now, &mut pkt) {
                SendOutcome::Transmitted { departure, arrival: Some(arrival) } => {
                    let tx_ns = (size as f64 * 8.0 / (bw_mbps * 1e6) * 1e9).round() as u64;
                    let start = busy_ns.max(now.as_nanos());
                    let want_dep = start + tx_ns;
                    prop_assert!(departure.as_nanos().abs_diff(want_dep) <= 2,
                        "departure {} want {want_dep}", departure.as_nanos());
                    let prop_ns = (delay_ms / 1e3 * 1e9).round() as u64;
                    prop_assert!(arrival.as_nanos().abs_diff(want_dep + prop_ns) <= 3);
                    busy_ns = departure.as_nanos();
                    link.on_departure(size);
                }
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }
    }

    /// On a jittery link delays are i.i.d. (arrivals ≥ departure, mean at
    /// the spec) and the measured loss rate concentrates around τ.
    #[test]
    fn lossy_jittery_link_invariants(seed in any::<u64>(), loss in 0.0f64..0.9) {
        let spec = ShiftedGamma::new(3.0, 0.004, 0.020).expect("valid");
        let spec_mean = spec.mean();
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Arc::new(spec),
                loss: loss.into(),
                queue_capacity_bytes: usize::MAX / 2,
            },
            seed,
        );
        let n = 4_000u64;
        let mut lost = 0u64;
        let mut delay_sum = 0.0;
        let mut delivered = 0u64;
        for k in 0..n {
            let now = SimTime::from_nanos(k * 10_000);
            let mut pkt = Packet::new(200, []);
            match link.send(now, &mut pkt) {
                SendOutcome::Transmitted { departure, arrival: Some(a) } => {
                    prop_assert!(a >= departure, "arrival before departure");
                    delay_sum += a.since(departure).as_secs_f64();
                    delivered += 1;
                }
                SendOutcome::Transmitted { arrival: None, .. } => lost += 1,
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
            link.on_departure(200);
        }
        let rate = lost as f64 / n as f64;
        // 4σ binomial band.
        let sigma = (loss * (1.0 - loss) / n as f64).sqrt();
        prop_assert!((rate - loss).abs() <= 4.0 * sigma + 1e-3,
            "measured {rate} vs τ={loss}");
        if delivered > 500 {
            let mean = delay_sum / delivered as f64;
            prop_assert!((mean - spec_mean).abs() < 2e-3,
                "mean delay {mean} vs spec {spec_mean}");
        }
    }

    /// Queue occupancy accounting: sends minus departures, never negative,
    /// and overflow drops exactly when occupancy would exceed capacity.
    #[test]
    fn queue_accounting(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let cap = 10 * 100;
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: 1e6,
                propagation: Arc::new(ConstantDelay::new(0.0)),
                loss: 0.0.into(),
                queue_capacity_bytes: cap,
            },
            1,
        );
        let mut outstanding: Vec<usize> = Vec::new();
        let mut t = 0u64;
        for &send in &ops {
            t += 1;
            if send {
                let mut pkt = Packet::new(100, []);
                let before = link.queued_bytes();
                match link.send(SimTime::from_nanos(t * 1_000_000), &mut pkt) {
                    SendOutcome::Transmitted { .. } => {
                        prop_assert!(before + 100 <= cap);
                        outstanding.push(100);
                    }
                    SendOutcome::DroppedQueueFull => {
                        prop_assert!(before + 100 > cap, "dropped with room: {before}");
                    }
                    other => prop_assert!(false, "unexpected outcome {other:?}"),
                }
            } else if let Some(size) = outstanding.pop() {
                link.on_departure(size);
            }
            prop_assert_eq!(link.queued_bytes(), outstanding.iter().sum::<usize>());
        }
    }
}
