//! The open loop's *virtual arrival clock*.
//!
//! Arrivals are due on a fixed schedule (`i × period`), whatever the
//! server does. The driver serves everything due by virtual *now*,
//! advances *now* by the measured service time of that batch, and jumps
//! forward when nothing is due — so it never sleeps or spins, the
//! generator is never late, and a stall still makes later arrivals wait
//! exactly as long as it would on a wall clock. Latency is counted from
//! the due time, not from when the server got round to the request.

use std::collections::BTreeMap;

/// Something that became due.
#[derive(Debug, Clone, PartialEq)]
pub enum Due<E> {
    /// The `index`-th periodic arrival.
    Arrival { index: u64, due_ns: u64 },
    /// An event the workload scheduled itself (e.g. a departure).
    Event { due_ns: u64, event: E },
}

/// Periodic arrivals plus workload-scheduled events on one virtual clock.
#[derive(Debug)]
pub struct OpenLoop<E> {
    now_ns: u64,
    period_ns: u64,
    next_arrival: u64,
    /// Scheduled events by (due time, insertion order).
    events: BTreeMap<(u64, u64), E>,
    scheduled: u64,
}

impl<E> OpenLoop<E> {
    /// Arrival `i` is due at `i × period_ns` (`period_ns > 0`).
    pub fn new(period_ns: u64) -> Self {
        OpenLoop {
            now_ns: 0,
            period_ns: period_ns.max(1),
            next_arrival: 0,
            events: BTreeMap::new(),
            scheduled: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Schedules `event` at virtual time `due_ns`.
    pub fn schedule(&mut self, due_ns: u64, event: E) {
        self.events.insert((due_ns, self.scheduled), event);
        self.scheduled += 1;
    }

    /// Moves everything due by *now* into `out`, in due-time order
    /// (arrivals before events at equal times). When nothing is due the
    /// clock first jumps to the earliest due time, so `out` is never
    /// left empty.
    pub fn take_due(&mut self, out: &mut Vec<Due<E>>) {
        let next_arrival_ns = self.next_arrival * self.period_ns;
        let next_event_ns = self.events.keys().next().map(|&(due, _)| due);
        let earliest = next_event_ns.map_or(next_arrival_ns, |e| e.min(next_arrival_ns));
        if earliest > self.now_ns {
            self.now_ns = earliest;
        }
        loop {
            let arrival_ns = self.next_arrival * self.period_ns;
            let event_ns = self.events.keys().next().map(|&(due, _)| due);
            let arrival_first = event_ns.is_none_or(|e| arrival_ns <= e);
            if arrival_first && arrival_ns <= self.now_ns {
                out.push(Due::Arrival {
                    index: self.next_arrival,
                    due_ns: arrival_ns,
                });
                self.next_arrival += 1;
            } else if event_ns.is_some_and(|e| e <= self.now_ns) {
                if let Some(((due_ns, _), event)) = self.events.pop_first() {
                    out.push(Due::Event { due_ns, event });
                }
            } else {
                return;
            }
        }
    }

    /// The server was busy for `service_ns`: virtual time moves on by
    /// exactly that much.
    pub fn advance(&mut self, service_ns: u64) {
        self.now_ns += service_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy server: one batch takes `service_ns` whatever is in it.
    /// Returns the latency (completion − due) of the first `n` arrivals.
    fn drive(period_ns: u64, service_ns: u64, n: usize) -> Vec<u64> {
        let mut clock: OpenLoop<()> = OpenLoop::new(period_ns);
        let mut latencies = Vec::new();
        let mut due = Vec::new();
        while latencies.len() < n {
            due.clear();
            clock.take_due(&mut due);
            assert!(!due.is_empty(), "take_due always yields work");
            clock.advance(service_ns);
            for d in &due {
                if let Due::Arrival { due_ns, .. } = d {
                    latencies.push(clock.now_ns() - due_ns);
                }
            }
        }
        latencies.truncate(n);
        latencies
    }

    #[test]
    fn an_idle_server_answers_in_its_service_time() {
        // Service 30 < period 100: every arrival finds the server idle,
        // the clock jumps from completion to the next due time, and
        // nobody waits.
        assert_eq!(drive(100, 30, 50), vec![30; 50]);
    }

    #[test]
    fn an_overloaded_server_makes_later_arrivals_wait_the_known_time() {
        // Service 150 > period 100, batches of whatever is due:
        //   t=0    serve {0}     → 150           latency 150
        //   t=150  serve {1}     → 300           latency 200
        //   t=300  serve {2, 3}  → 450           latencies 250, 150
        //   t=450  serve {4}     → 600           latency 200
        //   t=600  serve {5, 6}  → 750           latencies 250, 150 …
        let got = drive(100, 150, 10);
        assert_eq!(got, vec![150, 200, 250, 150, 200, 250, 150, 200, 250, 150]);
        // Waiting counts from the due time: the mean settles at 200,
        // i.e. service time plus a 50 ns mean wait.
        let steady = &got[1..10];
        assert_eq!(steady.iter().sum::<u64>() / steady.len() as u64, 200);
    }

    #[test]
    fn scheduled_events_interleave_with_arrivals_in_due_order() {
        let mut clock: OpenLoop<&str> = OpenLoop::new(100);
        clock.schedule(250, "late");
        clock.schedule(50, "early");
        let mut due = Vec::new();
        clock.take_due(&mut due); // arrival 0 at t=0
        assert_eq!(
            due,
            vec![Due::Arrival {
                index: 0,
                due_ns: 0
            }]
        );
        clock.advance(260);
        due.clear();
        clock.take_due(&mut due);
        assert_eq!(
            due,
            vec![
                Due::Event {
                    due_ns: 50,
                    event: "early"
                },
                Due::Arrival {
                    index: 1,
                    due_ns: 100
                },
                Due::Arrival {
                    index: 2,
                    due_ns: 200
                },
                Due::Event {
                    due_ns: 250,
                    event: "late"
                },
            ]
        );
    }
}
