//! Order statistics for timings: medians, quartiles and supported tail
//! percentiles.

/// The median of `values` (the mean of the middle pair for an even
/// count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile of `values` by nearest rank, provided at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise an error naming how
/// many samples a run needs.
///
/// # Errors
///
/// When `values` is too small to support the percentile.
pub fn supported_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = nearest_rank(n, p);
    if n == 0 || n - rank < MIN_BEYOND {
        let need = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil();
        return Err(format!(
            "p{p} needs at least {need} samples so that {MIN_BEYOND} lie beyond it, got {n}"
        ));
    }
    Ok(sorted(values)[rank - 1])
}

/// The highest of the standard percentiles (99.9, 99, 95, 90, 50) that
/// has at least [`MIN_BEYOND`] samples beyond it, with its value.
#[must_use]
pub fn highest_supported(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| supported_percentile(values, p).ok().map(|v| (p, v)))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
