//! Summary statistics over timing samples.

/// Fastest sample (`+inf` when empty).
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linearly interpolated `q`-quantile (`NaN` when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x.ln();
        n += 1;
    }
    (sum / n as f64).exp()
}

/// Timing samples per catalog query type, indexed by catalog position.
#[derive(Debug, Clone)]
pub struct PerQuery {
    samples: Vec<Vec<f64>>,
}

impl PerQuery {
    /// Empty sample sets for `types` query types.
    pub fn new(types: usize) -> Self {
        PerQuery {
            samples: vec![Vec::new(); types],
        }
    }

    /// Record one repetition of query type `i`.
    pub fn push(&mut self, i: usize, v: f64) {
        self.samples[i].push(v);
    }

    /// Whether every type has at least one sample.
    pub fn complete(&self) -> bool {
        self.samples.iter().all(|s| !s.is_empty())
    }

    /// Each type's fastest repetition.
    pub fn bests(&self) -> Vec<f64> {
        self.samples.iter().map(|s| best(s)).collect()
    }

    /// Geometric mean over types of each type's fastest repetition.
    pub fn best_geomean(&self) -> f64 {
        geomean(self.bests())
    }

    /// Sum over types of each type's fastest repetition.
    pub fn best_sum(&self) -> f64 {
        self.bests().iter().sum()
    }

    /// Geometric mean over types of each type's `q`-quantile.
    pub fn quantile_geomean(&self, q: f64) -> f64 {
        geomean(self.samples.iter().map(|s| quantile(s, q)))
    }

    /// Every sample of every type.
    pub fn pooled(&self) -> Vec<f64> {
        self.samples.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(best(&v), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
