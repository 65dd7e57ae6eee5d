//! From-scratch machine learning for FIAT.
//!
//! §4 of the paper evaluates nine classifiers on unpredictable-event
//! features and §5 uses a decision tree for humanness validation. All of
//! them are implemented here against a small, uniform API:
//!
//! - [`data::Dataset`] holds a feature matrix, integer labels, and feature
//!   names; [`data`] also provides seeded train/test splits and stratified
//!   k-fold indices.
//! - [`scaler::StandardScaler`] scales features to zero mean / unit
//!   variance (the paper's preprocessing).
//! - [`Classifier`] is the common fit/predict trait.
//! - Classifiers: [`nearest_centroid`] (Euclidean / Manhattan / Chebyshev),
//!   [`naive_bayes`] (Bernoulli and Gaussian), [`knn`], [`tree`] (CART),
//!   [`forest`] (bagged random forest), [`adaboost`] (SAMME on stumps),
//!   [`svm`] (linear SVC, one-vs-rest hinge SGD), [`mlp`] (ReLU MLP).
//! - [`metrics`]: confusion matrix, precision/recall/F1, balanced accuracy.
//! - [`cv`]: stratified k-fold cross-validation.
//! - [`permutation`]: permutation feature importance (§4.3).
//!
//! Everything is seeded and deterministic: the same seed produces the same
//! model, fold assignment, and importance scores.

pub mod adaboost;
pub mod cv;
pub mod data;
pub mod forest;
pub mod knn;
pub mod metrics;
pub mod mlp;
pub mod naive_bayes;
pub mod nearest_centroid;
pub mod permutation;
pub mod scaler;
pub mod svm;
pub mod tree;

pub use data::Dataset;
pub use metrics::{ClassMetrics, ConfusionMatrix};
pub use scaler::StandardScaler;

/// A trained (or trainable) classifier over dense `f64` features with
/// integer class labels `0..n_classes`.
pub trait Classifier {
    /// Fit the model to a dataset. Implementations must be deterministic
    /// given their configured seed.
    fn fit(&mut self, data: &Dataset);

    /// Predict the class of a single sample.
    fn predict_one(&self, x: &[f64]) -> usize;

    /// Predict classes for a batch of samples.
    fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }
}

/// Distance metrics shared by nearest-centroid and k-NN (§4.1 tests
/// Euclidean, Manhattan, and Chebyshev).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// L2 distance.
    Euclidean,
    /// L1 distance.
    Manhattan,
    /// L∞ distance.
    Chebyshev,
}

impl Distance {
    /// Compute the distance between two equal-length vectors.
    pub fn compute(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Distance::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Distance::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Distance;

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((Distance::Euclidean.compute(&a, &b) - 5.0).abs() < 1e-12);
        assert!((Distance::Manhattan.compute(&a, &b) - 7.0).abs() < 1e-12);
        assert!((Distance::Chebyshev.compute(&a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = [1.5, -2.5, 3.5];
        for d in [
            Distance::Euclidean,
            Distance::Manhattan,
            Distance::Chebyshev,
        ] {
            assert_eq!(d.compute(&v, &v), 0.0);
        }
    }
}
