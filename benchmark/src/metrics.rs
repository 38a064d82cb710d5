//! The benchmark's vocabulary: workload names and every metric's name,
//! unit and direction. `BENCHMARK.json` at the repository root carries
//! the same tables (a unit test keeps the two in step) plus the bounds.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The six workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "svc_wire_churn",
    "svc_wire_paced",
    "svc_contended",
    "sched_horizon",
    "flow_replan",
    "flow_deliver",
];

/// What a user of the system sees — the same seven on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    hi("ops_per_s", "1/s"),
    lo("op_p50_us", "us"),
    lo("op_p95_us", "us"),
    lo("cpu_us_per_op", "us"),
    hi("served_share", "ratio"),
    lo("peak_rss_mb", "MB"),
    lo("setup_s", "s"),
];

/// Single layers, from the traced run. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 56] = [
    lo("proto.wire.encode_ns", "ns"),
    lo("proto.wire.decode_ns", "ns"),
    hi("proto.wire.frames", "count"),
    lo("proto.wire.dropped", "count"),
    lo("fleet.service.ingest_ns", "ns"),
    lo("fleet.service.tick_us", "us"),
    lo("fleet.service.wire_share", "ratio"),
    lo("fleet.service.self_share", "ratio"),
    hi("fleet.service.batch_mean", "count"),
    lo("fleet.service.queue_depth_mean", "count"),
    hi("fleet.service.spanning_offers", "count"),
    lo("fleet.service.spanning_refusals", "count"),
    lo("fleet.service.invalid", "count"),
    lo("fleet.planner.batch_us", "us"),
    lo("fleet.planner.per_flow_us", "us"),
    lo("fleet.planner.joint_share", "ratio"),
    hi("fleet.planner.warm_hit_ratio", "ratio"),
    hi("fleet.planner.admits", "count"),
    lo("fleet.planner.refusals", "count"),
    lo("fleet.planner.sheds", "count"),
    hi("fleet.planner.revives", "count"),
    hi("fleet.planner.resident_mean", "count"),
    lo("fleet.schedule.offer_us", "us"),
    lo("fleet.schedule.advance_us", "us"),
    lo("fleet.schedule.reserved_share", "ratio"),
    lo("fleet.schedule.rejected_share", "ratio"),
    lo("fleet.schedule.wait_slots_mean", "count"),
    lo("fleet.schedule.self_share", "ratio"),
    lo("core.model_us.det2", "us"),
    lo("core.model_us.det6m3", "us"),
    lo("core.model_us.rand2", "us"),
    lo("core.plan_for_us", "us"),
    lo("core.plan_us", "us"),
    lo("core.per_flow_us", "us"),
    lo("core.share", "ratio"),
    lo("core.combos_mean", "count"),
    hi("core.warm_hit_ratio", "ratio"),
    lo("core.unaccounted_share", "ratio"),
    lo("lp.solve_us.det2", "us"),
    lo("lp.solve_us.det6m3", "us"),
    lo("lp.solve_us.rand2", "us"),
    lo("lp.solves", "count"),
    lo("lp.pivots_per_solve", "count"),
    lo("lp.refactorizations", "count"),
    hi("lp.warm_used_ratio", "ratio"),
    lo("lp.errors", "count"),
    lo("proto.endpoint.callback_ns", "ns"),
    lo("proto.endpoint.share", "ratio"),
    lo("proto.retx_ratio", "ratio"),
    hi("proto.in_time_share", "ratio"),
    lo("proto.gap_pp_max", "pp"),
    lo("sim.event_ns", "ns"),
    lo("sim.events_per_msg", "count"),
    lo("sim.share", "ratio"),
    hi("obs.overhead_ratio", "ratio"),
    lo("harness.gen_share", "ratio"),
];

/// Unit of a metric by name (either table).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the acceptance driver reads; this table
    /// is what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is valid JSON");

        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric tables are arrays")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("metric entries carry name, unit and better")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads is an array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("each workload is named")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        // Every end-to-end metric is bounded, by at most a quarter.
        for m in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("checked above")
        {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .expect("bounded metric");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(unit_of("op_p95_us"), Some("us"));
        assert_eq!(unit_of("nope"), None);
    }
}
