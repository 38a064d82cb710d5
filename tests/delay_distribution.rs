//! Deep validation of Experiment 2's substrate: the *distribution* of
//! simulated one-way delays must match the configured shifted gamma
//! (Table V), not just produce the right aggregate quality.

use deadline_multipath::experiments::scenarios;
use deadline_multipath::prelude::*;
use dmc_proto::{DmcReceiver, DmcSender, ReceiverConfig, SenderConfig};
use dmc_sim::LinkConfig;
use std::sync::Arc;

#[test]
fn simulated_delays_follow_the_configured_gamma() {
    // Build the Table V network and run the full protocol on links whose
    // propagation is the gamma spec; links are over-provisioned so
    // queueing does not contaminate the distribution (the paper does the
    // same in Exp. 2).
    let net = scenarios::table5_scenario(90e6, 0.750);
    let model = Planner::new().plan(&net, Objective::MaxQuality).unwrap();
    let mk_links = || -> Vec<LinkConfig> {
        net.paths()
            .iter()
            .map(|p| LinkConfig {
                bandwidth_bps: p.bandwidth() * 2.0, // over-provisioned
                propagation: Arc::clone(p.delay()),
                loss: p.loss().into(),
                queue_capacity_bytes: 1 << 22,
            })
            .collect()
    };
    let sender = DmcSender::new(SenderConfig::from_plan(&model, SimDuration::ZERO, 20_000));
    let receiver = DmcReceiver::new(ReceiverConfig::new(
        SimDuration::from_secs_f64(0.750),
        model.ack_path(),
    ));
    let mut sim = TwoHostSim::new(mk_links(), mk_links(), sender, receiver, 4242).unwrap();
    sim.run_to_completion();

    for (k, spec) in net.paths().iter().enumerate() {
        let observed = sim.server().delay_moments(k);
        if observed.count() < 500 {
            continue; // path barely used by the optimal strategy
        }
        // Serialization adds 8192 bits / (2·b) on top of propagation.
        let ser = 8192.0 / (spec.bandwidth() * 2.0);
        let want_mean = spec.delay().mean() + ser;
        let want_var = spec.delay().variance();
        assert!(
            (observed.mean() - want_mean).abs() < 0.002,
            "path {k}: observed mean {:.4}s vs spec {:.4}s",
            observed.mean(),
            want_mean
        );
        assert!(
            (observed.population_variance() - want_var).abs() < want_var * 0.2 + 1e-6,
            "path {k}: observed var {:.2e} vs spec {:.2e}",
            observed.population_variance(),
            want_var
        );
        // The support floor is the gamma's shift.
        assert!(
            observed.min() >= spec.delay().min_delay() - 1e-9,
            "path {k}: min {:.4} below shift",
            observed.min()
        );
    }
}
