//! Human-readable classification reports: a per-class breakdown table
//! for examples and the CLI.

use crate::ConfusionMatrix;

/// A per-class precision/recall/F1/support table plus the overall
/// accuracy and macro averages — the sklearn-style classification report.
pub fn classification_report(cm: &ConfusionMatrix, labels: &[&str]) -> String {
    assert_eq!(
        labels.len(),
        cm.n_classes(),
        "classification_report: {} labels for {} classes",
        labels.len(),
        cm.n_classes()
    );
    let name_width = labels.iter().map(|l| l.len()).max().unwrap_or(5).max(9);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$} {:>9} {:>9} {:>9} {:>9}\n",
        "class", "precision", "recall", "f1", "support",
        name_width = name_width
    ));
    for (c, label) in labels.iter().enumerate() {
        let support: u64 = (0..labels.len()).map(|p| cm.count(c, p)).sum();
        out.push_str(&format!(
            "{:<name_width$} {:>9.3} {:>9.3} {:>9.3} {:>9}\n",
            label,
            cm.precision(c),
            cm.recall(c),
            cm.f1(c),
            support,
            name_width = name_width
        ));
    }
    out.push_str(&format!(
        "\naccuracy {:.3} | macro precision {:.3} | macro recall {:.3} | macro f1 {:.3} | n = {}\n",
        cm.accuracy(),
        cm.macro_precision(),
        cm.macro_recall(),
        cm.macro_f1(),
        cm.total()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        ConfusionMatrix::from_pairs(2, &[1, 1, 1, 0, 0], &[1, 0, 1, 1, 0])
    }

    #[test]
    fn report_contains_per_class_rows_and_summary() {
        let s = classification_report(&sample(), &["fake", "real"]);
        assert!(s.contains("precision"));
        assert!(s.contains("fake"));
        assert!(s.contains("accuracy 0.600"));
        assert!(s.contains("n = 5"));
    }

    #[test]
    #[should_panic(expected = "labels for")]
    fn report_rejects_wrong_label_count() {
        let _ = classification_report(&sample(), &["a", "b", "c"]);
    }
}
