//! Order statistics over timing samples.

/// Fewest samples a reported percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The tail percentile every per-step latency is reported at.
pub const TAIL_P: f64 = 0.95;

/// Fewest timed steps a window takes, so that [`TAIL_P`] always has
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub const MIN_TIMED_STEPS: usize = 200;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN-free).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p` quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    ((n as f64) * (1.0 - p)).floor() as usize
}

/// The `p` quantile, refused unless at least [`MIN_TAIL_SAMPLES`] samples
/// lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(values.len(), p);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {} samples leaves {beyond} beyond it (need {MIN_TAIL_SAMPLES})",
            p * 100.0,
            values.len()
        ));
    }
    Ok(quantile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn the_minimum_window_leaves_ten_samples_beyond_the_tail() {
        assert!(samples_beyond(MIN_TIMED_STEPS, TAIL_P) >= MIN_TAIL_SAMPLES);
        let v: Vec<f64> = (0..MIN_TIMED_STEPS).map(|i| i as f64).collect();
        assert!(tail(&v, TAIL_P).is_ok());
    }

    #[test]
    fn a_short_window_is_refused_a_tail() {
        let v: Vec<f64> = (0..199).map(|i| i as f64).collect();
        assert!(tail(&v, TAIL_P).is_err());
        assert!(tail(&v, 0.99).is_err());
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(tail(&v, 0.99).is_ok());
    }
}
