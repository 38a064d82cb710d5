//! The wire front end: drive a [`FleetService`] with the checksummed
//! [`dmc_proto::wire`] control-plane frames instead of typed calls.

use dmc_proto::wire::{DecisionFrame, DepartFrame, LinkChangeFrame, OfferFrame, Verdict};

use super::router::{FleetService, ServiceEvent};
use crate::error::FleetError;
use crate::flow::FlowRequest;

impl FleetService {
    /// Feeds one encoded control-plane frame to the service.
    ///
    /// Returns the submission seq the frame consumed, or `None` when the
    /// frame was dropped: unknown magic, truncation, a failed checksum
    /// (the wire contract: a corrupt frame is indistinguishable from a
    /// lost one), or a link change with invalid parameters.
    ///
    /// An [`OfferFrame`] whose *parameters* are semantically invalid
    /// (non-positive rate, floor outside `[0, 1]`, zero or absurdly many
    /// transmissions, out-of-range path mask, a rate, budget or priority
    /// of a magnitude the joint LP cannot scale…) still consumes a seq
    /// and is answered at the next [`FleetService::tick_frames`] with a
    /// [`Verdict::Invalid`] decision, so the client can tell "malformed
    /// request" from "lost frame".
    pub fn handle_frame(&mut self, frame: &[u8]) -> Option<u64> {
        if let Some(offer) = OfferFrame::decode(frame) {
            let submitted = self
                .validated_request(&offer)
                .and_then(|request| self.submit(request).map_err(|e| e.to_string()));
            let seq = match submitted {
                Ok(seq) => seq,
                Err(reason) => {
                    let seq = self.alloc_seq();
                    self.push_invalid(seq, reason);
                    seq
                }
            };
            self.record_echo(seq, offer.seq);
            return Some(seq);
        }
        if let Some(depart) = DepartFrame::decode(frame) {
            let seq = self.submit_depart(depart.flow);
            self.record_echo(seq, depart.seq);
            return Some(seq);
        }
        if let Some(link) = LinkChangeFrame::decode(frame) {
            return match self.submit_link(usize::from(link.path), link.change()) {
                Ok(seq) => {
                    self.record_echo(seq, link.seq);
                    Some(seq)
                }
                Err(_) => None,
            };
        }
        None
    }

    /// Runs one [`FleetService::tick`] and encodes the answers that have
    /// a wire form: one [`DecisionFrame`] per decision (admitted,
    /// rejected or invalid), with the client's offer tag echoed in `seq`
    /// and the service-assigned global flow id in `flow`. The full typed
    /// event stream rides along for callers that also want departures
    /// and capacity events.
    ///
    /// # Errors
    ///
    /// Same as [`FleetService::tick`].
    pub fn tick_frames(
        &mut self,
    ) -> Result<(Vec<[u8; DecisionFrame::WIRE_BYTES]>, Vec<ServiceEvent>), FleetError> {
        let events = self.tick()?;
        let echoes = self.take_echoes();
        let mut frames = Vec::new();
        for event in &events {
            let (seq, verdict, predicted_quality) = match event {
                ServiceEvent::Decision {
                    seq,
                    admitted,
                    predicted_quality,
                } => (
                    *seq,
                    if *admitted {
                        Verdict::Admitted
                    } else {
                        Verdict::Rejected
                    },
                    *predicted_quality,
                ),
                ServiceEvent::InvalidOffer { seq, .. } => (*seq, Verdict::Invalid, 0.0),
                _ => continue,
            };
            let client_tag = echoes.get(&seq).copied().unwrap_or(seq);
            frames.push(
                DecisionFrame {
                    seq: client_tag,
                    flow: seq,
                    verdict,
                    predicted_quality,
                }
                .encode(),
            );
        }
        Ok((frames, events))
    }

    /// Semantic validation of a decoded offer (the frame's checksum only
    /// proves integrity, not sense). The builders on [`FlowRequest`]
    /// assert on bad values, so everything they take is checked here
    /// first; what the joint LP cannot take is
    /// [`FleetService::submit`]'s to refuse.
    fn validated_request(&self, offer: &OfferFrame) -> Result<FlowRequest, String> {
        let mut request =
            FlowRequest::new(offer.data_rate, offer.lifetime).map_err(|e| e.to_string())?;
        if !offer.min_quality.is_finite() || !(0.0..=1.0).contains(&offer.min_quality) {
            return Err(format!(
                "min quality must be in [0, 1], got {}",
                offer.min_quality
            ));
        }
        request = request.with_min_quality(offer.min_quality);
        if !offer.priority.is_finite() || !(offer.priority > 0.0) {
            return Err(format!(
                "priority must be finite and > 0, got {}",
                offer.priority
            ));
        }
        request = request.with_priority(offer.priority);
        if offer.transmissions == 0 {
            return Err("transmissions must be ≥ 1".into());
        }
        request = request.with_transmissions(usize::from(offer.transmissions));
        if offer.cost_budget.is_nan() || offer.cost_budget <= 0.0 {
            return Err(format!(
                "cost budget must be > 0 (or +∞), got {}",
                offer.cost_budget
            ));
        }
        if offer.cost_budget.is_finite() {
            request = request.with_cost_budget(offer.cost_budget);
        }
        if let Some(paths) = offer.path_subset() {
            let n = self.num_paths();
            if let Some(&bad) = paths.iter().find(|&&k| k >= n) {
                return Err(format!(
                    "path mask names path {bad}, but there are only {n} shared paths"
                ));
            }
            request = request.with_paths(paths);
        }
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use crate::{FleetError, FlowRequest};
    use dmc_core::ScenarioPath;
    use dmc_proto::wire::{DecisionFrame, LinkChangeFrame, OfferFrame, Verdict};
    use dmc_sim::LinkChange;

    use crate::service::{FleetService, ServiceConfig};

    fn two_path_service() -> FleetService {
        grouped_service(&[])
    }

    fn grouped_service(groups: &[Vec<usize>]) -> FleetService {
        FleetService::new(
            vec![
                ScenarioPath::constant(50e6, 0.200, 0.1).unwrap(),
                ScenarioPath::constant(20e6, 0.100, 0.0).unwrap(),
            ],
            groups,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    fn offer(tag: u64, rate: f64, paths: &[usize]) -> OfferFrame {
        OfferFrame {
            seq: tag,
            data_rate: rate,
            lifetime: 0.800,
            min_quality: 0.5,
            cost_budget: f64::INFINITY,
            priority: 1.0,
            transmissions: 2,
            path_mask: OfferFrame::mask_for(paths).unwrap(),
        }
    }

    #[test]
    fn frames_drive_the_service_end_to_end() {
        let mut service = two_path_service();
        let seq = service
            .handle_frame(&offer(77, 10e6, &[0]).encode())
            .unwrap();
        let (frames, events) = service.tick_frames().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(events.len(), 1);
        let decision = DecisionFrame::decode(&frames[0]).unwrap();
        assert_eq!(decision.seq, 77, "the client tag must be echoed");
        assert_eq!(decision.flow, seq);
        assert_eq!(decision.verdict, Verdict::Admitted);
        assert!(decision.predicted_quality >= 0.5);

        // A link failure over the wire answers with a capacity event.
        let link = LinkChangeFrame::from_change(78, 0, &LinkChange::Fail);
        assert!(service.handle_frame(&link.encode()).is_some());
        let (frames, events) = service.tick_frames().unwrap();
        assert!(frames.is_empty(), "capacity events have no decision frame");
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn invalid_offers_get_an_invalid_verdict_and_garbage_is_dropped() {
        let mut service = two_path_service();
        // Structurally sound frame, semantically absurd rate.
        let mut bad = offer(9, 10e6, &[0]);
        bad.data_rate = -5.0;
        assert!(service.handle_frame(&bad.encode()).is_some());
        // Path mask past the fleet's two paths.
        let masked = offer(10, 10e6, &[1, 7]);
        assert!(service.handle_frame(&masked.encode()).is_some());
        let (frames, _) = service.tick_frames().unwrap();
        assert_eq!(frames.len(), 2);
        for frame in &frames {
            let decision = DecisionFrame::decode(frame).unwrap();
            assert_eq!(decision.verdict, Verdict::Invalid);
        }

        // Corrupt and truncated frames are dropped without consuming a
        // seq — indistinguishable from loss.
        let before = service.submissions();
        let mut corrupt = offer(11, 10e6, &[0]).encode().to_vec();
        corrupt[20] ^= 0x40;
        assert_eq!(service.handle_frame(&corrupt), None);
        assert_eq!(service.handle_frame(&corrupt[..10]), None);
        assert_eq!(service.handle_frame(&[]), None);
        assert_eq!(service.submissions(), before);
    }

    #[test]
    fn absurd_transmission_counts_are_invalid_not_fatal() {
        // `transmissions` is a raw byte of the frame and the model has
        // `(paths + 1)^m` columns: 3^24 columns used to abort on
        // allocation, 3^255 overflowed the count itself.
        let mut service = grouped_service(&[vec![0, 1]]);
        for (tag, transmissions) in [(1, 24), (2, 255)] {
            let mut hostile = offer(tag, 10e6, &[0, 1]);
            hostile.transmissions = transmissions;
            assert!(service.handle_frame(&hostile.encode()).is_some());
        }
        assert_eq!(
            service.submissions(),
            2,
            "each hostile offer consumed a seq"
        );
        service.handle_frame(&offer(3, 10e6, &[0, 1]).encode());
        let (frames, _) = service.tick_frames().unwrap();
        let verdicts: Vec<Verdict> = frames
            .iter()
            .map(|f| DecisionFrame::decode(f).unwrap().verdict)
            .collect();
        assert_eq!(
            verdicts,
            [Verdict::Invalid, Verdict::Invalid, Verdict::Admitted]
        );
        // The typed path meets the same check at `submit`, which refuses
        // the request without taking a seq.
        let typed = FlowRequest::new(10e6, 0.8).unwrap().with_transmissions(24);
        assert!(matches!(service.submit(typed), Err(FleetError::Invalid(_))));
        assert_eq!(service.submissions(), 3);
    }

    #[test]
    fn numbers_that_overflow_the_lp_are_invalid_not_a_panic_or_an_admission() {
        // `µ/λ` is the cost row's bound and `λ·usage` a flow's capacity
        // coefficient: a rate or budget that drives one to ∞ or to 0 is
        // invalid — not a non-finite coefficient that aborts the service,
        // nor a zero one that admits the flow for free.
        let costed = |bps, delay| ScenarioPath::constant_with_cost(bps, delay, 0.0, 1e-9).unwrap();
        let paths = vec![costed(50e6, 0.2), costed(20e6, 0.1)];
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let mut service = FleetService::new(paths, &[vec![0, 1]], config).unwrap();
        let hostile = [
            (1e-310, 1.0),
            (1e-3, 1e308),
            (1e308, f64::INFINITY),
            (1e308, f64::INFINITY),
            (1e-310, f64::INFINITY),
        ];
        for (tag, (data_rate, cost_budget)) in hostile.into_iter().enumerate() {
            let frame = OfferFrame {
                data_rate,
                cost_budget,
                ..offer(tag as u64, 10e6, &[])
            };
            assert!(service.handle_frame(&frame.encode()).is_some());
        }
        let wide = LinkChangeFrame::from_change(9, 0, &LinkChange::SetBandwidth(1e300));
        assert_eq!(service.handle_frame(&wide.encode()), None);
        let (frames, _) = service.tick_frames().unwrap();
        assert_eq!(frames.len(), hostile.len());
        for frame in &frames {
            let decision = DecisionFrame::decode(frame).unwrap();
            assert_eq!(decision.verdict, Verdict::Invalid, "offer {}", decision.seq);
        }
        // The typed path meets the same refusal at `submit`.
        let typed = FlowRequest::new(1e-310, 0.8).unwrap().with_cost_budget(1.0);
        assert!(matches!(service.submit(typed), Err(FleetError::Invalid(_))));
    }
}
