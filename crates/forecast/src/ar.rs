//! Autoregressive AR(p) baseline, fitted with Yule-Walker equations via
//! the Levinson-Durbin recursion — one of the classical network-traffic
//! predictors the paper's related-work section cites (ARIMA family).
//!
//! Fitting routes through `ArStats`, a streaming sufficient-statistics
//! accumulator over *raw* (not demeaned) lagged product sums. Batch `fit`
//! pushes the history point by point into a fresh accumulator and
//! [`Forecaster::update`] pushes only the appended points into the
//! retained one, so the two paths perform the identical float operations
//! and Levinson-Durbin re-runs over O(p) recovered autocovariances
//! instead of re-scanning the series.

use crate::streaming::{GapStats, KahanSum};
use crate::{clean, DataPoint, ForecastError, ForecastPoint, Forecaster, UpdateOutcome};

/// AR(p) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArConfig {
    /// Model order (number of lags).
    pub order: usize,
    /// Central coverage of the uncertainty interval.
    pub interval_width: f64,
}

/// The AR(p) forecaster; see the module docs.
#[derive(Debug, Clone)]
pub struct ArModel {
    config: ArConfig,
    stats: Option<ArStats>,
    fitted: Option<FittedAr>,
}

#[derive(Debug, Clone)]
struct FittedAr {
    mean: f64,
    /// AR coefficients φ₁..φₚ.
    phi: Vec<f64>,
    /// Innovation standard deviation.
    sigma: f64,
    /// The last `p` demeaned observations, newest last.
    tail: Vec<f64>,
    last_ts: i64,
    step_ms: i64,
}

/// Streaming sufficient statistics for an AR(p) Yule-Walker fit.
///
/// Keeps `n`, the compensated value sum `S₁`, the raw lagged product sums
/// `R_lag = Σ yᵢ·yᵢ₊lag` for `lag ∈ 0..=p`, the first and last `p` raw
/// values and the inter-sample gap counts. The sample autocovariances of
/// the demeaned series are recovered exactly from these:
///
/// `γ_lag = [R_lag − m·(2·S₁ − head_lag − tail_lag) + (n−lag)·m²] / n`
///
/// where `m = S₁/n`, `head_lag` is the sum of the first `lag` values and
/// `tail_lag` the sum of the last `lag` values.
#[derive(Debug, Clone)]
struct ArStats {
    order: usize,
    n: usize,
    s1: KahanSum,
    /// `r[lag]` = Σ yᵢ·yᵢ₊lag for lag 0..=p.
    r: Vec<KahanSum>,
    /// First `order` raw values, oldest first.
    head: Vec<f64>,
    /// Last `order` raw values, newest last.
    tail: Vec<f64>,
    gaps: GapStats,
    last_ts: i64,
}

impl ArStats {
    fn new(order: usize) -> Self {
        Self {
            order,
            n: 0,
            s1: KahanSum::new(),
            r: vec![KahanSum::new(); order + 1],
            head: Vec::with_capacity(order),
            tail: Vec::with_capacity(order + 1),
            gaps: GapStats::new(),
            last_ts: 0,
        }
    }

    fn push(&mut self, ts: i64, y: f64) {
        if self.n > 0 {
            self.gaps.record(ts - self.last_ts);
        }
        self.s1.add(y);
        self.r[0].add(y * y);
        for lag in 1..=self.order.min(self.n) {
            self.r[lag].add(self.tail[self.tail.len() - lag] * y);
        }
        if self.head.len() < self.order {
            self.head.push(y);
        }
        self.tail.push(y);
        if self.tail.len() > self.order {
            self.tail.remove(0);
        }
        self.n += 1;
        self.last_ts = ts;
    }

    /// Sample autocovariances γ₀..γ_p recovered from the raw sums.
    fn autocovariances(&self) -> Vec<f64> {
        let n = self.n as f64;
        let m = self.s1.value() / n;
        (0..=self.order)
            .map(|lag| {
                let head_lag: f64 = self.head.iter().take(lag).sum();
                let tail_lag: f64 = self.tail.iter().rev().take(lag).sum();
                let centred = self.r[lag].value()
                    - m * (2.0 * self.s1.value() - head_lag - tail_lag)
                    + (n - lag as f64) * m * m;
                centred / n
            })
            .collect()
    }
}

impl ArModel {
    /// Creates an AR(p) model.
    pub fn new(order: usize, interval_width: f64) -> Self {
        Self {
            config: ArConfig {
                order,
                interval_width,
            },
            stats: None,
            fitted: None,
        }
    }

    /// Rebuilds the fitted state from the current sufficient statistics.
    fn refresh(&mut self) {
        let stats = self.stats.as_ref().expect("refresh requires stats");
        let p = self.config.order;
        let gamma = stats.autocovariances();
        let (phi, var) = Self::levinson_durbin(&gamma).unwrap_or((vec![0.0; p], 0.0));
        let mean = stats.s1.value() / stats.n as f64;
        self.fitted = Some(FittedAr {
            mean,
            sigma: var.max(0.0).sqrt(),
            tail: stats.tail.iter().map(|v| v - mean).collect(),
            phi,
            last_ts: stats.last_ts,
            step_ms: stats.gaps.median().unwrap_or(60_000).max(1),
        });
    }

    /// Levinson-Durbin recursion: solves the Yule-Walker system, returning
    /// `(phi, innovation variance)`.
    fn levinson_durbin(gamma: &[f64]) -> Option<(Vec<f64>, f64)> {
        let p = gamma.len() - 1;
        if gamma[0] <= 0.0 {
            return None; // zero-variance series
        }
        let mut phi = vec![0.0; p];
        let mut prev = vec![0.0; p];
        let mut err = gamma[0];
        for k in 0..p {
            let mut acc = gamma[k + 1];
            for j in 0..k {
                acc -= prev[j] * gamma[k - j];
            }
            let reflection = acc / err;
            phi[k] = reflection;
            for j in 0..k {
                phi[j] = prev[j] - reflection * prev[k - 1 - j];
            }
            err *= 1.0 - reflection * reflection;
            if err <= 0.0 {
                err = f64::EPSILON;
            }
            prev[..=k].copy_from_slice(&phi[..=k]);
        }
        Some((phi, err))
    }
}

impl Forecaster for ArModel {
    fn fit(&mut self, history: &[DataPoint]) -> Result<(), ForecastError> {
        if self.config.order == 0 {
            return Err(ForecastError::InvalidParameter("order must be >= 1".into()));
        }
        let mut data = clean(history);
        data.sort_by_key(|p| p.ts);
        let p = self.config.order;
        let needed = p * 3 + 1;
        if data.len() < needed {
            return Err(ForecastError::NotEnoughData {
                needed,
                got: data.len(),
            });
        }
        let mut stats = ArStats::new(p);
        for d in &data {
            stats.push(d.ts, d.y);
        }
        self.stats = Some(stats);
        self.refresh();
        Ok(())
    }

    fn update(&mut self, new_points: &[DataPoint]) -> Result<UpdateOutcome, ForecastError> {
        let Some(stats) = self.stats.as_mut() else {
            return Ok(UpdateOutcome::FullRefitNeeded);
        };
        let mut pts = clean(new_points);
        pts.sort_by_key(|p| p.ts);
        if pts.is_empty() {
            return Ok(UpdateOutcome::Incremental);
        }
        if pts[0].ts <= stats.last_ts {
            return Ok(UpdateOutcome::FullRefitNeeded);
        }
        for p in &pts {
            stats.push(p.ts, p.y);
        }
        self.refresh();
        Ok(UpdateOutcome::Incremental)
    }

    fn predict(&self, timestamps: &[i64]) -> Result<Vec<ForecastPoint>, ForecastError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or(ForecastError::NotEnoughData { needed: 1, got: 0 })?;
        let z = crate::prophet::normal_quantile(0.5 + self.config.interval_width / 2.0);
        let max_h = timestamps
            .iter()
            .map(|ts| (((ts - f.last_ts) as f64 / f.step_ms as f64).round() as i64).max(1))
            .max()
            .unwrap_or(1) as usize;

        // Iterate the recursion once up to the furthest horizon.
        let p = f.phi.len();
        let mut window = f.tail.clone();
        let mut path = Vec::with_capacity(max_h);
        for _ in 0..max_h {
            let next: f64 = f
                .phi
                .iter()
                .enumerate()
                .map(|(j, c)| c * window[window.len() - 1 - j])
                .sum();
            window.push(next);
            if window.len() > p {
                window.remove(0);
            }
            path.push(next);
        }

        Ok(timestamps
            .iter()
            .map(|ts| {
                let h =
                    (((ts - f.last_ts) as f64 / f.step_ms as f64).round() as i64).max(1) as usize;
                let yhat = f.mean + path[h - 1];
                let sd = f.sigma * (h as f64).sqrt();
                ForecastPoint {
                    ts: *ts,
                    yhat,
                    lower: yhat - z * sd,
                    upper: yhat + z * sd,
                }
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "ar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINUTE: i64 = 60_000;

    /// Simulates a stationary AR(1) with coefficient `phi`.
    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<DataPoint> {
        let mut state = seed;
        let mut next_noise = move || {
            // xorshift* pseudo-noise in [-0.5, 0.5)
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut x = 0.0;
        (0..n)
            .map(|i| {
                x = phi * x + next_noise();
                DataPoint::new(i as i64 * MINUTE, 100.0 + x)
            })
            .collect()
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let hist = ar1_series(5000, 0.7, 12345);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let phi = m.fitted.as_ref().unwrap().phi[0];
        assert!((phi - 0.7).abs() < 0.08, "estimated phi = {phi}");
    }

    #[test]
    fn forecast_decays_to_mean() {
        let hist = ar1_series(2000, 0.9, 999);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let last = hist.last().unwrap().ts;
        let far = m.predict(&[last + 500 * MINUTE]).unwrap()[0];
        let mean = m.fitted.as_ref().unwrap().mean;
        assert!(
            (far.yhat - mean).abs() < 0.05,
            "long-run forecast must approach the mean"
        );
    }

    #[test]
    fn higher_order_fits() {
        let hist = ar1_series(1000, 0.5, 7);
        let mut m = ArModel::new(5, 0.9);
        m.fit(&hist).unwrap();
        let pred = m.predict(&[hist.last().unwrap().ts + MINUTE]).unwrap();
        assert!(pred[0].yhat.is_finite());
        assert!(pred[0].lower < pred[0].upper);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let hist: Vec<DataPoint> = (0..100).map(|i| DataPoint::new(i * MINUTE, 42.0)).collect();
        let mut m = ArModel::new(2, 0.9);
        m.fit(&hist).unwrap();
        let p = m.predict(&[101 * MINUTE]).unwrap()[0];
        assert!((p.yhat - 42.0).abs() < 1e-9);
    }

    #[test]
    fn order_zero_rejected() {
        let mut m = ArModel::new(0, 0.9);
        assert!(matches!(
            m.fit(&[]),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn too_little_data_rejected() {
        let mut m = ArModel::new(10, 0.9);
        let hist = ar1_series(20, 0.5, 1);
        assert!(matches!(
            m.fit(&hist),
            Err(ForecastError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let hist = ar1_series(1000, 0.6, 3);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let last = hist.last().unwrap().ts;
        let near = m.predict(&[last + MINUTE]).unwrap()[0];
        let far = m.predict(&[last + 50 * MINUTE]).unwrap()[0];
        assert!(far.upper - far.lower > near.upper - near.lower);
    }

    #[test]
    fn incremental_update_matches_batch_exactly() {
        let hist = ar1_series(2000, 0.6, 42);
        for split in [1500, 1900, 1999] {
            let mut incremental = ArModel::new(5, 0.9);
            incremental.fit(&hist[..split]).unwrap();
            assert_eq!(
                incremental.update(&hist[split..]).unwrap(),
                UpdateOutcome::Incremental
            );
            let mut batch = ArModel::new(5, 0.9);
            batch.fit(&hist).unwrap();
            let (fi, fb) = (
                incremental.fitted.as_ref().unwrap(),
                batch.fitted.as_ref().unwrap(),
            );
            assert_eq!(fi.mean.to_bits(), fb.mean.to_bits(), "split {split}");
            assert_eq!(fi.sigma.to_bits(), fb.sigma.to_bits(), "split {split}");
            assert_eq!(fi.step_ms, fb.step_ms);
            assert_eq!(fi.last_ts, fb.last_ts);
            for (a, b) in fi.phi.iter().zip(&fb.phi) {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split}");
            }
            for (a, b) in fi.tail.iter().zip(&fb.tail) {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split}");
            }
        }
    }

    #[test]
    fn update_before_fit_needs_full_refit() {
        let mut m = ArModel::new(2, 0.9);
        assert_eq!(
            m.update(&[DataPoint::new(0, 1.0)]).unwrap(),
            UpdateOutcome::FullRefitNeeded
        );
    }

    #[test]
    fn out_of_order_update_needs_full_refit() {
        let hist = ar1_series(100, 0.5, 9);
        let mut m = ArModel::new(2, 0.9);
        m.fit(&hist).unwrap();
        let before = m.fitted.clone().unwrap();
        let stale = DataPoint::new(hist[50].ts, 1.0);
        assert_eq!(m.update(&[stale]).unwrap(), UpdateOutcome::FullRefitNeeded);
        // Fitted state untouched by the refused update.
        assert_eq!(m.fitted.as_ref().unwrap().mean, before.mean);
        assert_eq!(m.fitted.as_ref().unwrap().last_ts, before.last_ts);
    }

    #[test]
    fn empty_update_is_a_noop() {
        let hist = ar1_series(100, 0.5, 9);
        let mut m = ArModel::new(2, 0.9);
        m.fit(&hist).unwrap();
        assert_eq!(m.update(&[]).unwrap(), UpdateOutcome::Incremental);
        assert_eq!(
            m.update(&[DataPoint::new(hist.last().unwrap().ts + MINUTE, f64::NAN)])
                .unwrap(),
            UpdateOutcome::Incremental
        );
    }

    #[test]
    fn levinson_durbin_known_system() {
        // For AR(1) with phi=0.5, sigma^2=1: gamma0 = 1/(1-0.25), gamma1 = 0.5*gamma0.
        let g0 = 1.0 / 0.75;
        let (phi, var) = ArModel::levinson_durbin(&[g0, 0.5 * g0]).unwrap();
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }
}
