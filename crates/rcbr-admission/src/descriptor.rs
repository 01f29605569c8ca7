//! Traffic-descriptor utilities.
//!
//! The Section VI descriptor of a call is its empirical bandwidth
//! distribution (`Schedule::empirical_distribution` computes it). The
//! controllers build it from observed level counts.

use rcbr_sim::stats::DiscreteDistribution;

/// Build a distribution from raw observed rate values (e.g. the snapshot
/// of current reservations), grouping exactly equal values.
///
/// Returns `None` when `values` is empty (no measurement available).
pub fn distribution_from_observations(values: &[f64]) -> Option<DiscreteDistribution> {
    if values.is_empty() {
        return None;
    }
    let mut acc: Vec<(f64, f64)> = Vec::new();
    for &v in values {
        match acc.iter_mut().find(|(r, _)| *r == v) {
            Some((_, w)) => *w += 1.0,
            None => acc.push((v, 1.0)),
        }
    }
    acc.sort_by(|a, b| a.0.total_cmp(&b.0));
    Some(DiscreteDistribution::from_weights(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_group_equal_values() {
        let d = distribution_from_observations(&[100.0, 200.0, 100.0, 100.0]).unwrap();
        assert_eq!(d.levels(), &[100.0, 200.0]);
        assert_eq!(d.probs(), &[0.75, 0.25]);
        assert!(distribution_from_observations(&[]).is_none());
    }
}
