//! Stratified k-fold cross-validation (§4: "results refer to the mean from
//! five-fold cross-validation"), with per-fold standard scaling fitted on
//! the training folds only.

use crate::data::{fold_complement, stratified_kfold};
use crate::metrics::ConfusionMatrix;
use crate::scaler::StandardScaler;
use crate::{Classifier, Dataset};

/// Aggregated cross-validation result.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// One confusion matrix per fold (on that fold's test split).
    pub folds: Vec<ConfusionMatrix>,
}

impl CvResult {
    /// Mean balanced accuracy across folds.
    pub fn mean_balanced_accuracy(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.balanced_accuracy()))
    }

    /// Mean precision for one class across folds.
    pub fn mean_precision(&self, class: usize) -> f64 {
        mean(self.folds.iter().map(|f| f.precision(class)))
    }

    /// Mean recall for one class across folds.
    pub fn mean_recall(&self, class: usize) -> f64 {
        mean(self.folds.iter().map(|f| f.recall(class)))
    }

    /// Mean F1 for one class across folds.
    pub fn mean_f1(&self, class: usize) -> f64 {
        mean(self.folds.iter().map(|f| f.f1(class)))
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run stratified k-fold CV. `make_model` builds a fresh classifier per
/// fold. Scaling is fitted on the training folds and applied to both splits,
/// mirroring a leak-free sklearn pipeline.
pub fn cross_validate<C, F>(data: &Dataset, k: usize, seed: u64, make_model: F) -> CvResult
where
    C: Classifier,
    F: Fn() -> C,
{
    let folds_idx = stratified_kfold(&data.y, k, seed);
    let mut folds = Vec::with_capacity(k);
    for test_idx in &folds_idx {
        let train_idx = fold_complement(test_idx, data.len());
        let train = data.subset(&train_idx);
        let test = data.subset(test_idx);
        let (scaler, train_x) = StandardScaler::fit_transform(&train.x);
        let train_scaled = Dataset {
            x: train_x,
            y: train.y.clone(),
            n_classes: data.n_classes,
            feature_names: data.feature_names.clone(),
        };
        let mut model = make_model();
        model.fit(&train_scaled);
        let test_x = scaler.transform(&test.x);
        let pred = model.predict(&test_x);
        folds.push(ConfusionMatrix::from_predictions(
            &test.y,
            &pred,
            data.n_classes,
        ));
    }
    CvResult { folds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest_centroid::NearestCentroid;
    use crate::Distance;

    fn blobs(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let j = (i % 7) as f64 * 0.1;
            x.push(vec![0.0 + j, 0.0 - j]);
            y.push(0);
            x.push(vec![100.0 + j, 100.0 - j]);
            y.push(1);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn separable_data_scores_perfectly() {
        let d = blobs(25);
        let r = cross_validate(&d, 5, 0, || NearestCentroid::new(Distance::Euclidean));
        assert_eq!(r.folds.len(), 5);
        assert!((r.mean_balanced_accuracy() - 1.0).abs() < 1e-12);
        assert!((r.mean_f1(0) - 1.0).abs() < 1e-12);
        assert!((r.mean_f1(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn folds_cover_all_samples_once() {
        let d = blobs(10);
        let r = cross_validate(&d, 5, 1, NearestCentroid::default);
        let total: usize = r.folds.iter().map(|f| f.total()).sum();
        assert_eq!(total, d.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(20);
        let a = cross_validate(&d, 5, 3, NearestCentroid::default);
        let b = cross_validate(&d, 5, 3, NearestCentroid::default);
        assert_eq!(a.mean_balanced_accuracy(), b.mean_balanced_accuracy());
    }

    #[test]
    fn random_labels_score_near_chance() {
        // Features carry no signal: balanced accuracy should hover near 0.5.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            x.push(vec![(i % 13) as f64, (i % 7) as f64]);
            y.push((i / 3 + i / 7) % 2);
        }
        let d = Dataset::new(x, y);
        let r = cross_validate(&d, 5, 0, NearestCentroid::default);
        let ba = r.mean_balanced_accuracy();
        assert!((0.3..0.7).contains(&ba), "balanced accuracy {ba}");
    }
}
