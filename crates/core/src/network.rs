//! The network + application scenario (paper Table I: `n`, `λ`, `δ`, `µ`).

use crate::path::{PathSpec, SpecError};

/// A complete deterministic scenario: the set of end-to-end paths plus the
/// application parameters (data rate `λ`, lifetime `δ`) and the cost
/// budget `µ`.
///
/// Paths are exposed with **1-based** indices in user-facing output,
/// matching the paper's Table IV where index 0 denotes the blackhole;
/// internally the `paths()` slice is 0-based.
///
/// ```
/// use dmc_core::{NetworkSpec, PathSpec};
///
/// // The paper's Figure 1 scenario.
/// let net = NetworkSpec::builder()
///     .path(PathSpec::new(10e6, 0.600, 0.10).unwrap())
///     .path(PathSpec::new(1e6, 0.200, 0.0).unwrap())
///     .data_rate(10e6)
///     .lifetime(1.0)
///     .build()
///     .unwrap();
/// assert_eq!(net.num_paths(), 2);
/// assert_eq!(net.min_delay(), 0.200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    paths: Vec<PathSpec>,
    data_rate: f64,
    lifetime: f64,
    cost_budget: f64,
}

impl NetworkSpec {
    /// Starts building a scenario.
    pub fn builder() -> NetworkSpecBuilder {
        NetworkSpecBuilder::default()
    }

    /// The real paths (excluding any blackhole), 0-based.
    pub fn paths(&self) -> &[PathSpec] {
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

    /// `d_min` (Eq. 1): the shortest one-way delay across the real paths;
    /// acknowledgments travel back along this path (§VIII-C).
    pub fn min_delay(&self) -> f64 {
        self.paths
            .iter()
            .map(PathSpec::delay)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total bandwidth across paths, bits/second.
    pub fn total_bandwidth(&self) -> f64 {
        self.paths.iter().map(PathSpec::bandwidth).sum()
    }

    /// Returns a copy with one path replaced (used by the sensitivity
    /// experiment to inject estimation errors into a single path).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn with_path_replaced(&self, index: usize, path: PathSpec) -> Self {
        let mut c = self.clone();
        c.paths[index] = path;
        c
    }

    /// Returns a copy with a different data rate `λ`.
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

    /// Returns a copy with a different lifetime `δ`.
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

    /// Returns a copy keeping only the single path `index` (0-based):
    /// the "single-path theory" baseline of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn restricted_to_path(&self, index: usize) -> Self {
        let mut c = self.clone();
        c.paths = vec![self.paths[index]];
        c
    }
}

/// Builder for [`NetworkSpec`].
#[derive(Debug, Clone, Default)]
pub struct NetworkSpecBuilder {
    paths: Vec<PathSpec>,
    data_rate: Option<f64>,
    lifetime: Option<f64>,
    cost_budget: Option<f64>,
}

impl NetworkSpecBuilder {
    /// Adds one path.
    pub fn path(mut self, path: PathSpec) -> Self {
        self.paths.push(path);
        self
    }

    /// Adds several paths.
    pub fn paths<I: IntoIterator<Item = PathSpec>>(mut self, paths: I) -> Self {
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

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Requires at least one path, a positive finite `λ` and `δ`, and a
    /// positive (possibly infinite) `µ`. At least one path must have
    /// finite delay (otherwise no data can ever arrive).
    pub fn build(self) -> Result<NetworkSpec, SpecError> {
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
        if self.paths.iter().all(|p| !p.delay().is_finite()) {
            return Err(SpecError(
                "all paths have infinite delay; no data can arrive".into(),
            ));
        }
        Ok(NetworkSpec {
            paths: self.paths,
            data_rate,
            lifetime,
            cost_budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_paths() -> (PathSpec, PathSpec) {
        (
            PathSpec::new(80e6, 0.450, 0.2).unwrap(),
            PathSpec::new(20e6, 0.150, 0.0).unwrap(),
        )
    }

    #[test]
    fn builder_happy_path() {
        let (p1, p2) = two_paths();
        let net = NetworkSpec::builder()
            .path(p1)
            .path(p2)
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        assert_eq!(net.num_paths(), 2);
        assert_eq!(net.min_delay(), 0.150);
        assert_eq!(net.total_bandwidth(), 100e6);
        assert_eq!(net.cost_budget(), f64::INFINITY);
    }

    #[test]
    fn builder_requires_fields() {
        let (p1, _) = two_paths();
        assert!(NetworkSpec::builder()
            .data_rate(1e6)
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(NetworkSpec::builder()
            .path(p1)
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(NetworkSpec::builder()
            .path(p1)
            .data_rate(1e6)
            .build()
            .is_err());
        assert!(NetworkSpec::builder()
            .path(p1)
            .data_rate(-1.0)
            .lifetime(1.0)
            .build()
            .is_err());
        assert!(NetworkSpec::builder()
            .path(p1)
            .data_rate(1e6)
            .lifetime(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn all_infinite_delay_rejected() {
        let dead = PathSpec::new(1e6, f64::INFINITY, 0.0).unwrap();
        assert!(NetworkSpec::builder()
            .path(dead)
            .data_rate(1e6)
            .lifetime(1.0)
            .build()
            .is_err());
    }

    #[test]
    fn restriction_and_replacement() {
        let (p1, p2) = two_paths();
        let net = NetworkSpec::builder()
            .paths([p1, p2])
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        let only2 = net.restricted_to_path(1);
        assert_eq!(only2.num_paths(), 1);
        assert_eq!(only2.paths()[0], p2);
        let perturbed = net.with_path_replaced(0, p1.scaled_bandwidth(0.5));
        assert_eq!(perturbed.paths()[0].bandwidth(), 40e6);
        assert_eq!(perturbed.paths()[1], p2);
        assert_eq!(net.with_data_rate(50e6).data_rate(), 50e6);
        assert_eq!(net.with_lifetime(0.5).lifetime(), 0.5);
    }
}
