//! The unified scenario description: one type for both the deterministic
//! model (§V) and the random-delay extension (§VI-B).
//!
//! The paper presents one optimization problem in two delay regimes. A
//! [`Scenario`] covers both: every path carries a *delay distribution*
//! ([`dmc_stats::Delay`]), and a constant distribution **is** the
//! deterministic case — [`Planner`] detects it and uses the exact
//! closed-form coefficients of Eq. 12 instead of the discretized
//! Eq. 28/34 machinery.
//!
//! [`Planner`]: crate::Planner

use crate::combo::check_combos;
use crate::path::{PathSpec, SpecError};
use dmc_stats::{ConstantDelay, Delay};
use std::sync::Arc;

/// One end-to-end path of a [`Scenario`]: bandwidth `b_i`, a one-way
/// delay *distribution* `D_i`, loss `τ_i` and cost `c_i`.
///
/// A path whose delay distribution is constant is a deterministic path
/// (§V); any other distribution puts the scenario in the §VI-B regime.
#[derive(Debug, Clone)]
pub struct ScenarioPath {
    bandwidth: f64,
    delay: Arc<dyn Delay>,
    loss: f64,
    cost: f64,
}

impl ScenarioPath {
    /// Creates a path with an arbitrary delay distribution.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite bandwidth, loss outside `[0, 1]`,
    /// negative cost, or a delay distribution with non-finite mean.
    pub fn new(
        bandwidth_bps: f64,
        delay: Arc<dyn Delay>,
        loss: f64,
        cost_per_bit: f64,
    ) -> Result<Self, SpecError> {
        if !delay.mean().is_finite() || delay.mean() < 0.0 {
            return Err(SpecError(
                "delay distribution must have a finite non-negative mean".into(),
            ));
        }
        Self::validated(bandwidth_bps, delay, loss, cost_per_bit)
    }

    /// Creates a deterministic (constant-delay) path with zero cost —
    /// the `PathSpec::new` equivalent.
    ///
    /// Infinite delay is allowed, like [`PathSpec`]: it models a dead
    /// path that can carry no in-time data.
    ///
    /// # Errors
    ///
    /// Same bandwidth/loss validation as [`ScenarioPath::new`].
    pub fn constant(bandwidth_bps: f64, delay_s: f64, loss: f64) -> Result<Self, SpecError> {
        Self::constant_with_cost(bandwidth_bps, delay_s, loss, 0.0)
    }

    /// Creates a deterministic path with an explicit per-bit cost.
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioPath::constant`], plus rejects negative or
    /// non-finite cost.
    pub fn constant_with_cost(
        bandwidth_bps: f64,
        delay_s: f64,
        loss: f64,
        cost_per_bit: f64,
    ) -> Result<Self, SpecError> {
        if !(delay_s >= 0.0) || delay_s.is_nan() {
            return Err(SpecError(format!("delay must be ≥ 0, got {delay_s}")));
        }
        Self::validated(
            bandwidth_bps,
            Arc::new(ConstantDelay::new(delay_s)),
            loss,
            cost_per_bit,
        )
    }

    /// Converts a deterministic [`PathSpec`].
    pub fn from_spec(spec: &PathSpec) -> Self {
        ScenarioPath {
            bandwidth: spec.bandwidth(),
            delay: Arc::new(ConstantDelay::new(spec.delay())),
            loss: spec.loss(),
            cost: spec.cost(),
        }
    }

    fn validated(
        bandwidth_bps: f64,
        delay: Arc<dyn Delay>,
        loss: f64,
        cost_per_bit: f64,
    ) -> Result<Self, SpecError> {
        if !(bandwidth_bps > 0.0) || !bandwidth_bps.is_finite() {
            return Err(SpecError(format!(
                "bandwidth must be finite and > 0, got {bandwidth_bps}"
            )));
        }
        if !(0.0..=1.0).contains(&loss) || loss.is_nan() {
            return Err(SpecError(format!("loss must be in [0, 1], got {loss}")));
        }
        if !(cost_per_bit >= 0.0) || !cost_per_bit.is_finite() {
            return Err(SpecError(format!(
                "cost must be finite and ≥ 0, got {cost_per_bit}"
            )));
        }
        Ok(ScenarioPath {
            bandwidth: bandwidth_bps,
            delay,
            loss,
            cost: cost_per_bit,
        })
    }

    /// Bandwidth `b_i` in bits/second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The delay distribution `D_i`.
    pub fn delay(&self) -> &Arc<dyn Delay> {
        &self.delay
    }

    /// Loss probability `τ_i`.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Cost per bit `c_i`.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The constant delay in seconds when this path is deterministic
    /// (its delay distribution has zero spread), else `None`.
    pub fn constant_delay(&self) -> Option<f64> {
        let (lo, hi) = (self.delay.min_delay(), self.delay.max_delay());
        (lo == hi).then_some(lo)
    }

    /// The deterministic [`PathSpec`] equivalent, when this path is
    /// deterministic.
    pub fn as_spec(&self) -> Option<PathSpec> {
        self.constant_delay()
            .and_then(|d| PathSpec::with_cost(self.bandwidth, d, self.loss, self.cost).ok())
    }
}

/// The unified scenario: paths (with delay distributions), application
/// data rate `λ`, lifetime `δ`, cost budget `µ` and the number of
/// transmissions `m` per data unit.
///
/// Feed it to a [`Planner`](crate::Planner) with an
/// [`Objective`](crate::Objective) to obtain a [`Plan`](crate::Plan).
/// [`NetworkSpec`](crate::NetworkSpec), the all-constant-delay estimate
/// an adaptive sender refits, converts with [`Scenario::from_network`].
///
/// ```
/// use dmc_core::{Scenario, ScenarioPath};
///
/// # fn main() -> Result<(), dmc_core::SpecError> {
/// // The paper's Figure 1 scenario.
/// let scenario = Scenario::builder()
///     .path(ScenarioPath::constant(10e6, 0.600, 0.10)?)
///     .path(ScenarioPath::constant(1e6, 0.200, 0.0)?)
///     .data_rate(10e6)
///     .lifetime(1.0)
///     .build()?;
/// assert!(scenario.is_deterministic());
/// assert_eq!(scenario.transmissions(), 2); // paper default: 1 retransmission
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    paths: Vec<ScenarioPath>,
    data_rate: f64,
    lifetime: f64,
    cost_budget: f64,
    transmissions: usize,
}

impl Scenario {
    /// Starts building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Converts a deterministic [`NetworkSpec`](crate::NetworkSpec)
    /// (with the paper-default `m = 2` transmissions).
    pub fn from_network(net: &crate::NetworkSpec) -> Self {
        Scenario {
            paths: net.paths().iter().map(ScenarioPath::from_spec).collect(),
            data_rate: net.data_rate(),
            lifetime: net.lifetime(),
            cost_budget: net.cost_budget(),
            transmissions: 2,
        }
    }

    /// The paths, 0-based.
    pub fn paths(&self) -> &[ScenarioPath] {
        &self.paths
    }

    /// Number of real paths `n`.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Application data rate `λ` in bits/second.
    pub fn data_rate(&self) -> f64 {
        self.data_rate
    }

    /// Data lifetime `δ` in seconds.
    pub fn lifetime(&self) -> f64 {
        self.lifetime
    }

    /// Cost budget `µ` per second (∞ when unconstrained).
    pub fn cost_budget(&self) -> f64 {
        self.cost_budget
    }

    /// Number of transmissions `m` per data unit (initial + `m − 1`
    /// retransmissions; the paper's base model is 2).
    pub fn transmissions(&self) -> usize {
        self.transmissions
    }

    /// Whether every path has a constant delay — the §V regime, solved
    /// with exact closed-form coefficients.
    pub fn is_deterministic(&self) -> bool {
        self.paths.iter().all(|p| p.constant_delay().is_some())
    }

    /// The acknowledgment path (Eq. 25): smallest *expected* delay. For
    /// deterministic scenarios this is `d_min`'s path (Eq. 1).
    pub fn ack_path(&self) -> usize {
        crate::random_delay::ack_path_of(&self.paths)
    }

    /// `d_min` for deterministic scenarios: the smallest constant delay.
    /// For random scenarios this is the smallest *expected* delay.
    pub fn min_delay(&self) -> f64 {
        self.paths
            .iter()
            .map(|p| p.constant_delay().unwrap_or_else(|| p.delay().mean()))
            .fold(f64::INFINITY, f64::min)
    }

    /// The deterministic [`NetworkSpec`](crate::NetworkSpec) equivalent,
    /// when every path is constant-delay.
    pub fn to_network_spec(&self) -> Option<crate::NetworkSpec> {
        let mut b = crate::NetworkSpec::builder()
            .data_rate(self.data_rate)
            .lifetime(self.lifetime);
        if self.cost_budget.is_finite() {
            b = b.cost_budget(self.cost_budget);
        }
        for p in &self.paths {
            b = b.path(p.as_spec()?);
        }
        b.build().ok()
    }

    /// Returns a copy with a different data rate `λ` (for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `data_rate` is not finite and positive.
    #[must_use]
    pub fn with_data_rate(&self, data_rate: f64) -> Self {
        assert!(data_rate > 0.0 && data_rate.is_finite());
        let mut c = self.clone();
        c.data_rate = data_rate;
        c
    }

    /// Returns a copy with a different lifetime `δ` (for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `lifetime` is not finite and positive.
    #[must_use]
    pub fn with_lifetime(&self, lifetime: f64) -> Self {
        assert!(lifetime > 0.0 && lifetime.is_finite());
        let mut c = self.clone();
        c.lifetime = lifetime;
        c
    }

    /// Returns a copy with a different cost budget `µ` (for
    /// quality/spend frontier sweeps).
    ///
    /// # Panics
    ///
    /// Panics unless `per_second > 0` (∞ = unconstrained is allowed).
    #[must_use]
    pub fn with_cost_budget(&self, per_second: f64) -> Self {
        assert!(per_second > 0.0, "budget must be > 0");
        let mut c = self.clone();
        c.cost_budget = per_second;
        c
    }

    /// Returns a copy with a different transmission count `m`. The
    /// combination count is not checked here: [`Planner::plan`] reports
    /// an `m` too large to model as a typed error.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    ///
    /// [`Planner::plan`]: crate::Planner::plan
    #[must_use]
    pub fn with_transmissions(&self, m: usize) -> Self {
        assert!(m > 0, "need at least one transmission");
        let mut c = self.clone();
        c.transmissions = m;
        c
    }

    /// Returns a copy with one path replaced.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn with_path_replaced(&self, index: usize, path: ScenarioPath) -> Self {
        let mut c = self.clone();
        c.paths[index] = path;
        c
    }

    /// Returns a copy keeping only path `index` — the single-path
    /// baseline of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn restricted_to_path(&self, index: usize) -> Self {
        let mut c = self.clone();
        c.paths = vec![self.paths[index].clone()];
        c
    }
}

impl From<&crate::NetworkSpec> for Scenario {
    fn from(net: &crate::NetworkSpec) -> Self {
        Scenario::from_network(net)
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    paths: Vec<ScenarioPath>,
    data_rate: Option<f64>,
    lifetime: Option<f64>,
    cost_budget: Option<f64>,
    transmissions: Option<usize>,
}

impl ScenarioBuilder {
    /// Adds one path.
    pub fn path(mut self, path: ScenarioPath) -> Self {
        self.paths.push(path);
        self
    }

    /// Adds several paths.
    pub fn paths<I: IntoIterator<Item = ScenarioPath>>(mut self, paths: I) -> Self {
        self.paths.extend(paths);
        self
    }

    /// Sets the application data rate `λ` (bits/second). Required.
    pub fn data_rate(mut self, bps: f64) -> Self {
        self.data_rate = Some(bps);
        self
    }

    /// Sets the data lifetime `δ` (seconds). Required.
    pub fn lifetime(mut self, seconds: f64) -> Self {
        self.lifetime = Some(seconds);
        self
    }

    /// Sets the cost budget `µ` (cost units per second). Defaults to ∞
    /// (unconstrained), as the paper allows (§V-A).
    pub fn cost_budget(mut self, per_second: f64) -> Self {
        self.cost_budget = Some(per_second);
        self
    }

    /// Sets the number of transmissions `m` per data unit. Defaults to 2
    /// (one transmission + one retransmission, the paper's base model).
    pub fn transmissions(mut self, m: usize) -> Self {
        self.transmissions = Some(m);
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Requires at least one path, a positive finite `λ` and `δ`, a
    /// positive (possibly infinite) `µ`, `m ≥ 1` with at most
    /// [`ComboTable::MAX_COMBOS`](crate::ComboTable::MAX_COMBOS) path
    /// combinations (blackhole included), and at least one path whose
    /// delay distribution has a finite mean (otherwise no data can ever
    /// arrive).
    pub fn build(self) -> Result<Scenario, SpecError> {
        if self.paths.is_empty() {
            return Err(SpecError("at least one path is required".into()));
        }
        let data_rate = self
            .data_rate
            .ok_or_else(|| SpecError("data_rate (λ) is required".into()))?;
        if !(data_rate > 0.0) || !data_rate.is_finite() {
            return Err(SpecError(format!(
                "data rate must be finite and > 0, got {data_rate}"
            )));
        }
        let lifetime = self
            .lifetime
            .ok_or_else(|| SpecError("lifetime (δ) is required".into()))?;
        if !(lifetime > 0.0) || !lifetime.is_finite() {
            return Err(SpecError(format!(
                "lifetime must be finite and > 0, got {lifetime}"
            )));
        }
        let cost_budget = self.cost_budget.unwrap_or(f64::INFINITY);
        if !(cost_budget > 0.0) {
            return Err(SpecError(format!(
                "cost budget must be > 0, got {cost_budget}"
            )));
        }
        let transmissions = self.transmissions.unwrap_or(2);
        if transmissions == 0 {
            return Err(SpecError("at least one transmission is required".into()));
        }
        check_combos(self.paths.len(), transmissions, true)?;
        if self.paths.iter().all(|p| !p.delay().mean().is_finite()) {
            return Err(SpecError(
                "all paths have infinite delay; no data can arrive".into(),
            ));
        }
        Ok(Scenario {
            paths: self.paths,
            data_rate,
            lifetime,
            cost_budget,
            transmissions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkSpec;
    use dmc_stats::ShiftedGamma;

    fn gamma_path() -> ScenarioPath {
        ScenarioPath::new(
            80e6,
            Arc::new(ShiftedGamma::new(10.0, 0.004, 0.400).unwrap()),
            0.2,
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn constant_paths_are_detected_as_deterministic() {
        let s = Scenario::builder()
            .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
            .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        assert!(s.is_deterministic());
        assert_eq!(s.ack_path(), 1);
        assert_eq!(s.min_delay(), 0.150);
        let net = s.to_network_spec().expect("deterministic");
        assert_eq!(net.num_paths(), 2);
        assert_eq!(net.paths()[1].cost(), 1e-9);
    }

    #[test]
    fn gamma_path_makes_scenario_random() {
        let s = Scenario::builder()
            .path(gamma_path())
            .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
            .data_rate(90e6)
            .lifetime(0.75)
            .build()
            .unwrap();
        assert!(!s.is_deterministic());
        assert!(s.to_network_spec().is_none());
        assert_eq!(s.ack_path(), 1);
        assert!(s.paths()[0].constant_delay().is_none());
        assert_eq!(s.paths()[1].constant_delay(), Some(0.150));
    }

    #[test]
    fn network_spec_round_trip() {
        let net = NetworkSpec::builder()
            .path(crate::PathSpec::new(10e6, 0.6, 0.1).unwrap())
            .path(crate::PathSpec::new(1e6, 0.2, 0.0).unwrap())
            .data_rate(10e6)
            .lifetime(1.0)
            .build()
            .unwrap();
        let s = Scenario::from_network(&net);
        assert!(s.is_deterministic());
        assert_eq!(s.transmissions(), 2);
        let back = s.to_network_spec().unwrap();
        assert_eq!(back.paths(), net.paths());
        assert_eq!(back.data_rate(), net.data_rate());
        assert_eq!(back.lifetime(), net.lifetime());
    }

    #[test]
    fn builder_validation() {
        let p = ScenarioPath::constant(1e6, 0.1, 0.0).unwrap();
        assert!(Scenario::builder()
            .data_rate(1e6)
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .path(p.clone())
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .path(p.clone())
            .data_rate(1e6)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .path(p.clone())
            .data_rate(1e6)
            .lifetime(1.0)
            .transmissions(0)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .path(p.clone())
            .data_rate(1e6)
            .lifetime(1.0)
            .cost_budget(-1.0)
            .build()
            .is_err());
        let dead = ScenarioPath::constant(1e6, f64::INFINITY, 0.0).unwrap();
        assert!(Scenario::builder()
            .path(dead)
            .data_rate(1e6)
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(
            Scenario::builder()
                .path(p)
                .data_rate(1e6)
                .lifetime(1.0)
                .transmissions(3)
                .build()
                .unwrap()
                .transmissions()
                == 3
        );
    }

    #[test]
    fn path_validation() {
        assert!(ScenarioPath::constant(0.0, 0.1, 0.0).is_err());
        assert!(ScenarioPath::constant(1e6, -0.1, 0.0).is_err());
        assert!(ScenarioPath::constant(1e6, 0.1, 1.5).is_err());
        assert!(ScenarioPath::constant_with_cost(1e6, 0.1, 0.0, -1.0).is_err());
        // Infinite constant delay is allowed (dead path), matching PathSpec.
        assert!(ScenarioPath::constant(1e6, f64::INFINITY, 0.0).is_ok());
        // ...but a non-finite *mean* is rejected for distribution paths.
        let inf = Arc::new(dmc_stats::ConstantDelay::new(f64::INFINITY));
        assert!(ScenarioPath::new(1e6, inf, 0.0, 0.0).is_err());
    }

    #[test]
    fn sweep_helpers() {
        let s = Scenario::builder()
            .path(ScenarioPath::constant(1e6, 0.1, 0.0).unwrap())
            .data_rate(1e6)
            .lifetime(1.0)
            .build()
            .unwrap();
        assert_eq!(s.with_data_rate(2e6).data_rate(), 2e6);
        assert_eq!(s.with_lifetime(0.5).lifetime(), 0.5);
        assert_eq!(s.with_transmissions(4).transmissions(), 4);
        assert_eq!(s.restricted_to_path(0).num_paths(), 1);
        let swapped = s.with_path_replaced(0, ScenarioPath::constant(5e6, 0.2, 0.1).unwrap());
        assert_eq!(swapped.paths()[0].bandwidth(), 5e6);
    }
}
