//! The parameter store: named weight matrices that persist across
//! training steps and (de)serialise to JSON.

use fd_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stable handle to one parameter in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index; exposed so optimisers can keep dense state vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable matrices.
///
/// Layers allocate parameters once via [`Params::get_or_insert`]; each
/// training step a [`crate::Binding`] registers the *current* values as
/// tape leaves, and the optimiser writes updates back through
/// [`Params::value_mut`].
#[derive(Default, Clone, Serialize, Deserialize)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Matrix>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the handle for `name`, inserting `init()` on first use.
    ///
    /// # Panics
    /// Panics if a parameter with this name exists with a different shape
    /// than `init` would produce — that is always a wiring bug.
    pub fn get_or_insert(&mut self, name: &str, init: impl FnOnce() -> Matrix) -> ParamId {
        if let Some(&i) = self.index.get(name) {
            return ParamId(i);
        }
        let i = self.values.len();
        self.names.push(name.to_string());
        self.values.push(init());
        self.index.insert(name.to_string(), i);
        ParamId(i)
    }

    /// Looks up an existing parameter by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied().map(ParamId)
    }

    /// The parameter's name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Current value, mutably (used by optimisers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// All values, mutably, in [`ParamId::index`] order. Lets optimisers
    /// build disjoint per-tensor `&mut` views and fan updates across
    /// threads instead of going through one lookup per id.
    pub fn values_mut(&mut self) -> &mut [Matrix] {
        &mut self.values
    }

    /// Number of parameters (matrices, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Iterates `(id, name, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.names
            .iter()
            .zip(&self.values)
            .enumerate()
            .map(|(i, (n, v))| (ParamId(i), n.as_str(), v))
    }

    /// Serialises the store to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Params serialisation cannot fail")
    }

    /// Restores a store from [`Params::to_json`] output, rebuilding the
    /// name index.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let mut p: Params = serde_json::from_str(json)?;
        p.index = p
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Ok(p)
    }
}

impl std::fmt::Debug for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Params");
        d.field("count", &self.len());
        d.field("scalars", &self.scalar_count());
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut p = Params::new();
        let a = p.get_or_insert("w", || Matrix::zeros(2, 2));
        let b = p.get_or_insert("w", || panic!("init must not rerun"));
        assert_eq!(a, b);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn lookup_and_names() {
        let mut p = Params::new();
        let id = p.get_or_insert("layer.w", || Matrix::ones(1, 3));
        assert_eq!(p.id_of("layer.w"), Some(id));
        assert_eq!(p.id_of("missing"), None);
        assert_eq!(p.name(id), "layer.w");
        assert_eq!(p.value(id), &Matrix::ones(1, 3));
    }

    #[test]
    fn value_mut_updates_in_place() {
        let mut p = Params::new();
        let id = p.get_or_insert("w", || Matrix::zeros(1, 2));
        p.value_mut(id).add_assign(&Matrix::ones(1, 2));
        assert_eq!(p.value(id), &Matrix::ones(1, 2));
    }

    #[test]
    fn scalar_count_counts_every_entry() {
        let mut p = Params::new();
        p.get_or_insert("a", || Matrix::filled(2, 2, 2.0));
        p.get_or_insert("b", || Matrix::filled(1, 3, -1.0));
        assert_eq!(p.scalar_count(), 7);
    }

    #[test]
    fn json_roundtrip_preserves_lookup() {
        let mut p = Params::new();
        let id = p.get_or_insert("enc.w", || Matrix::from_rows(&[&[1.5, -2.0]]));
        p.get_or_insert("enc.b", || Matrix::zeros(1, 2));
        let json = p.to_json();
        let q = Params::from_json(&json).unwrap();
        assert_eq!(q.len(), 2);
        let qid = q.id_of("enc.w").unwrap();
        assert_eq!(qid, id);
        assert_eq!(q.value(qid), p.value(id));
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut p = Params::new();
        p.get_or_insert("first", || Matrix::zeros(1, 1));
        p.get_or_insert("second", || Matrix::zeros(1, 1));
        let names: Vec<&str> = p.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
