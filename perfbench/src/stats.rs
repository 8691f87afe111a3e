//! Percentiles as the benchmark reports them: the median, and the
//! highest percentile that still has at least [`TAIL_BEYOND`] samples
//! above it, with the sample count.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the middle two for an even count).
    pub p50: f64,
    /// The tail value, when `n > TAIL_BEYOND`.
    pub tail: Option<Tail>,
}

/// The highest nearest-rank percentile with `TAIL_BEYOND` samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Its value.
    pub value: f64,
    /// Which percentile it is: `100 · (n − TAIL_BEYOND) / n`.
    pub pct: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = (n > TAIL_BEYOND).then(|| {
        let rank = n - TAIL_BEYOND; // 1-based nearest rank
        Tail {
            value: v[rank - 1],
            pct: 100.0 * rank as f64 / n as f64,
            beyond: n - rank,
        }
    });
    Some(Summary {
        n,
        p50: median_sorted(&v),
        tail,
    })
}

/// Windows a measured phase is cut into; a phase reports the median
/// over its windows, so a burst of outside load on the machine moves
/// one window rather than the whole result.
pub const WINDOWS: usize = 6;

/// The median, over `WINDOWS` consecutive runs of `samples`, of each
/// run's mean.
pub fn median_of_means(samples: &[f64]) -> f64 {
    let per = samples.len().div_ceil(WINDOWS).max(1);
    let means: Vec<f64> = samples
        .chunks(per)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

/// The smallest of `samples` (0 for an empty set). Used for repeated
/// timings of the same work: load from other tenants of the machine
/// (CPU steal) only ever adds time, and on a shared machine it comes
/// and goes, so the fastest repetition is the one closest to the
/// program's own cost.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Checks the helper on data whose answer is known; run at the start
/// of every benchmark run so a broken helper cannot report numbers.
pub fn self_test() -> Result<(), String> {
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = summarize(&hundred).ok_or("no summary of 1..=100")?;
    let t = s.tail.ok_or("no tail of 1..=100")?;
    let want = (100, 50.5, 90.0, 90.0, 10);
    if (s.n, s.p50, t.value, t.pct, t.beyond) != want {
        return Err(format!("summary of 1..=100 is {s:?}, want {want:?}"));
    }
    let ten: Vec<f64> = (0..10).map(f64::from).collect();
    let s = summarize(&ten).ok_or("no summary of 0..10")?;
    if s.tail.is_some() || s.p50 != 4.5 {
        return Err(format!(
            "10 samples must have no tail and median 4.5: {s:?}"
        ));
    }
    let eleven: Vec<f64> = (0..11).map(f64::from).collect();
    let t = summarize(&eleven)
        .and_then(|s| s.tail)
        .ok_or("no tail of 11")?;
    if t.value != 0.0 || t.beyond != 10 {
        return Err(format!("11 samples: tail must be the minimum: {t:?}"));
    }
    let burst: Vec<f64> = (0..60)
        .map(|i| if i < 10 { 100.0 } else { f64::from(i % 2) })
        .collect();
    if median_of_means(&burst) != 0.5 {
        return Err(format!(
            "a burst in one of six windows moved the result: {}",
            median_of_means(&burst)
        ));
    }
    if fastest(&[3.0, 1.0, 2.0]) != 1.0 || fastest(&[]) != 0.0 {
        return Err("fastest of 3, 1, 2 must be 1, of nothing 0".to_string());
    }
    if summarize(&[]).is_some() || median(&[3.0, 1.0, 2.0]) != 2.0 {
        return Err("empty set or odd median wrong".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_data() {
        self_test().unwrap();
    }

    #[test]
    fn tail_of_a_thousand_is_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = summarize(&v).unwrap().tail.unwrap();
        assert_eq!((t.value, t.pct, t.beyond), (990.0, 99.0, 10));
    }
}
