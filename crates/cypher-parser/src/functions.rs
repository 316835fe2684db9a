//! The single source of truth for the built-in scalar functions GraphQE-rs
//! models.
//!
//! The semantic check (stage ①), the static analyzer (stage ⓪) and
//! `property-graph`'s evaluator all dispatch on [`BuiltinFunction`], so the
//! supported set can never drift between the three: adding a function here
//! makes it known to the checker and forces the evaluator's `match` (which
//! is exhaustive over this enum) to handle it.

/// A built-in scalar function of the supported Cypher fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BuiltinFunction {
    /// `id(node_or_relationship)` — the entity id.
    Id,
    /// `labels(node)` — the list of node labels.
    Labels,
    /// `type(relationship)` — the relationship label.
    Type,
    /// `size(list_or_string)` — element / character count.
    Size,
    /// `length(path_or_list_or_string)` — path length (in relationships),
    /// list length or character count.
    Length,
    /// `head(list)` — first element.
    Head,
    /// `last(list)` — last element.
    Last,
    /// `abs(number)` — absolute value.
    Abs,
    /// `toUpper(string)` — uppercase conversion.
    ToUpper,
    /// `toLower(string)` — lowercase conversion.
    ToLower,
    /// `coalesce(v1, v2, ...)` — first non-null argument.
    Coalesce,
    /// `exists(value)` — `true` iff the argument is non-null.
    Exists,
    /// `startNode(relationship)` — source node.
    StartNode,
    /// `endNode(relationship)` — target node.
    EndNode,
    /// `index(list, i)` — list element access.
    Index,
}

impl BuiltinFunction {
    /// Every supported built-in, in canonical order.
    pub const ALL: &'static [BuiltinFunction] = &[
        BuiltinFunction::Id,
        BuiltinFunction::Labels,
        BuiltinFunction::Type,
        BuiltinFunction::Size,
        BuiltinFunction::Length,
        BuiltinFunction::Head,
        BuiltinFunction::Last,
        BuiltinFunction::Abs,
        BuiltinFunction::ToUpper,
        BuiltinFunction::ToLower,
        BuiltinFunction::Coalesce,
        BuiltinFunction::Exists,
        BuiltinFunction::StartNode,
        BuiltinFunction::EndNode,
        BuiltinFunction::Index,
    ];

    /// Resolves a function name case-insensitively (`toUpper`, `TOUPPER` and
    /// `toupper` are all the same function). Returns `None` for names outside
    /// the supported set.
    pub fn from_name(name: &str) -> Option<BuiltinFunction> {
        BuiltinFunction::ALL.iter().copied().find(|f| f.name().eq_ignore_ascii_case(name))
    }

    /// The canonical (all-lowercase) name of the function.
    pub fn name(&self) -> &'static str {
        match self {
            BuiltinFunction::Id => "id",
            BuiltinFunction::Labels => "labels",
            BuiltinFunction::Type => "type",
            BuiltinFunction::Size => "size",
            BuiltinFunction::Length => "length",
            BuiltinFunction::Head => "head",
            BuiltinFunction::Last => "last",
            BuiltinFunction::Abs => "abs",
            BuiltinFunction::ToUpper => "toupper",
            BuiltinFunction::ToLower => "tolower",
            BuiltinFunction::Coalesce => "coalesce",
            BuiltinFunction::Exists => "exists",
            BuiltinFunction::StartNode => "startnode",
            BuiltinFunction::EndNode => "endnode",
            BuiltinFunction::Index => "index",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_case_insensitively() {
        for f in BuiltinFunction::ALL {
            assert_eq!(BuiltinFunction::from_name(f.name()), Some(*f));
            assert_eq!(BuiltinFunction::from_name(&f.name().to_uppercase()), Some(*f));
        }
        assert_eq!(BuiltinFunction::from_name("toUpper"), Some(BuiltinFunction::ToUpper));
        assert_eq!(BuiltinFunction::from_name("startNode"), Some(BuiltinFunction::StartNode));
        assert_eq!(BuiltinFunction::from_name("nosuchfn"), None);
    }
}
