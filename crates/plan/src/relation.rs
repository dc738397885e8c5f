//! Base relations and the system catalog.

use std::fmt;

/// Identifier of a base relation in a [`Catalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub usize);

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A base relation: name plus the statistics the cost model needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    /// Human-readable name.
    pub name: String,
    /// Cardinality in tuples (`‖R‖`).
    pub tuples: f64,
}

impl Relation {
    /// Creates a relation.
    ///
    /// # Panics
    /// Panics on a non-finite or negative cardinality.
    pub fn new(name: impl Into<String>, tuples: f64) -> Self {
        assert!(
            tuples.is_finite() && tuples >= 0.0,
            "relation cardinality must be finite and non-negative, got {tuples}"
        );
        Relation {
            name: name.into(),
            tuples,
        }
    }
}

/// The catalog: the set of base relations a query may reference.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Catalog {
    relations: Vec<Relation>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a relation and returns its id.
    pub fn add(&mut self, relation: Relation) -> RelationId {
        self.relations.push(relation);
        RelationId(self.relations.len() - 1)
    }

    /// Convenience: add a relation by name and cardinality.
    pub fn add_relation(&mut self, name: impl Into<String>, tuples: f64) -> RelationId {
        self.add(Relation::new(name, tuples))
    }

    /// Looks a relation up.
    ///
    /// # Panics
    /// Panics on an unknown id — ids are only minted by this catalog, so
    /// a miss is a programming error.
    pub fn get(&self, id: RelationId) -> &Relation {
        &self.relations[id.0]
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates `(id, relation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelationId(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Catalog::new();
        let a = c.add_relation("orders", 10_000.0);
        let b = c.add_relation("lineitem", 60_000.0);
        assert_eq!(a, RelationId(0));
        assert_eq!(b, RelationId(1));
        assert_eq!(c.get(a).name, "orders");
        assert_eq!(c.get(b).tuples, 60_000.0);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let mut c = Catalog::new();
        c.add_relation("a", 1.0);
        c.add_relation("b", 2.0);
        let ids: Vec<_> = c.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![RelationId(0), RelationId(1)]);
    }

    #[test]
    #[should_panic(expected = "cardinality")]
    fn negative_cardinality_rejected() {
        Relation::new("bad", -5.0);
    }

    #[test]
    fn display() {
        assert_eq!(RelationId(3).to_string(), "R3");
    }
}
