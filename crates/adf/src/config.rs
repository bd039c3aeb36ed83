use serde::{Deserialize, Serialize};

use crate::FilterReference;

/// Configuration of the adaptive distance filter.
///
/// The paper fixes some of these (1 s sampling, DTH factors 0.75/1.0/1.25)
/// and leaves others unspecified; the defaults here are the values used for
/// the reproduced figures, and every knob is exposed for the design
/// ablations.
///
/// # Examples
///
/// ```
/// let cfg = mobigrid_adf::AdfConfig::new(1.0);
/// assert_eq!(cfg.dth_factor, 1.0);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdfConfig {
    /// DTH = `dth_factor` × cluster average velocity (the paper's
    /// 0.75 av / 1.0 av / 1.25 av).
    pub dth_factor: f64,
    /// Sequential-clustering similarity bound α on the velocity feature,
    /// in m/s.
    pub alpha: f64,
    /// Maximum walking velocity (Figure 2's `V_walk`), in m/s.
    pub v_walk: f64,
    /// Sliding window of motion steps used by the classifier.
    pub classifier_window: usize,
    /// Reclustering period, in observation ticks ("classification and
    /// clustering of MNs are repeatedly executed").
    pub recluster_interval: u64,
    /// Ticks of motion history gathered before the initial clustering.
    pub warmup_ticks: u64,
    /// Classifier: heading change (radians) counted as a direction change.
    pub direction_change_threshold: f64,
    /// Classifier: relative speed jump counted as a velocity change.
    pub speed_change_fraction: f64,
    /// Classifier: fraction of changing steps that makes changes "frequent".
    pub frequent_fraction: f64,
    /// Which reference the moving distance is measured from (the paper:
    /// previous observation).
    pub reference: FilterReference,
}

impl AdfConfig {
    /// A configuration with the evaluation defaults and the given DTH
    /// factor.
    #[must_use]
    pub fn new(dth_factor: f64) -> Self {
        AdfConfig {
            dth_factor,
            alpha: 1.0,
            v_walk: 2.0,
            classifier_window: 10,
            recluster_interval: 30,
            warmup_ticks: 5,
            direction_change_threshold: crate::MobilityClassifier::DEFAULT_DIRECTION_CHANGE,
            speed_change_fraction: crate::MobilityClassifier::DEFAULT_SPEED_CHANGE_FRACTION,
            frequent_fraction: crate::MobilityClassifier::DEFAULT_FREQUENT_FRACTION,
            reference: FilterReference::PreviousObservation,
        }
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.dth_factor.is_finite() && self.dth_factor >= 0.0) {
            return Err(format!("dth_factor must be >= 0, got {}", self.dth_factor));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!("alpha must be > 0, got {}", self.alpha));
        }
        if !(self.v_walk.is_finite() && self.v_walk > 0.0) {
            return Err(format!("v_walk must be > 0, got {}", self.v_walk));
        }
        if self.classifier_window < 2 {
            return Err(format!(
                "classifier_window must be >= 2, got {}",
                self.classifier_window
            ));
        }
        if self.recluster_interval == 0 {
            return Err("recluster_interval must be >= 1".to_string());
        }
        Ok(())
    }
}

impl Default for AdfConfig {
    fn default() -> Self {
        AdfConfig::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AdfConfig::default().validate().unwrap();
        AdfConfig::new(0.75).validate().unwrap();
        AdfConfig::new(1.25).validate().unwrap();
    }

    #[test]
    fn invalid_fields_are_reported() {
        let c = AdfConfig {
            alpha: 0.0,
            ..AdfConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("alpha"));
        let c = AdfConfig {
            dth_factor: f64::NAN,
            ..AdfConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("dth_factor"));
        let c = AdfConfig {
            classifier_window: 1,
            ..AdfConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("classifier_window"));
        let c = AdfConfig {
            recluster_interval: 0,
            ..AdfConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
