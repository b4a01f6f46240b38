//! Sample summaries and the named-metric record every output is made
//! of.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    /// `None` when the benchmark refuses to report the number; `note`
    /// then says why.
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a ratio).
    pub samples: usize,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value: Some(value),
            unit,
            samples,
            note: None,
        }
    }

    /// A tail latency in ms, refused when the run held too few samples
    /// for it (see [`Sorted::tail`]).
    pub fn tail(name: &str, value: Option<f64>, samples: usize) -> Metric {
        match value {
            Some(v) => Metric::new(name, v, "ms", samples),
            None => Metric::refused(name, "ms", format!("only {samples} samples")),
        }
    }

    pub fn refused(name: impl Into<String>, unit: &'static str, why: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value: None,
            unit,
            samples: 0,
            note: Some(why.into()),
        }
    }
}

/// A latency sample set. Values are kept as `f64` in the unit the
/// caller chose; summaries sort a copy once.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    pub fn sorted(&self) -> Sorted {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Sorted(v)
    }

    pub fn median(&self) -> f64 {
        self.sorted().median()
    }
}

/// Sorted samples, ready for percentiles.
#[derive(Clone, Debug)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// The median (mean of the two middle samples when even); 0 for an
    /// empty set.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank percentile `p` in `(0, 1)`, reported only when
    /// at least ten samples lie beyond it: a tail estimated from fewer
    /// is one scheduler hiccup, not a property of the program.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= 10).then(|| self.0[rank - 1])
    }
}

/// Converts a duration in nanoseconds to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Converts a duration in nanoseconds to microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        // Reverse order: summaries must not depend on arrival order.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(samples(5).median(), 3.0);
        assert_eq!(samples(4).median(), 2.5);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples: rank 990, ten beyond — reported.
        assert_eq!(samples(1000).sorted().tail(0.99), Some(990.0));
        // One sample fewer leaves nine beyond — refused.
        assert_eq!(samples(999).sorted().tail(0.99), None);
        // p75 needs 40 samples, p50 needs 20.
        assert_eq!(samples(40).sorted().tail(0.75), Some(30.0));
        assert_eq!(samples(39).sorted().tail(0.75), None);
        assert_eq!(samples(20).sorted().tail(0.50), Some(10.0));
        assert_eq!(samples(19).sorted().tail(0.50), None);
        assert_eq!(Samples::new().sorted().tail(0.5), None);
    }
}
