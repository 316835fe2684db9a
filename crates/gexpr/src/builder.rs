//! Construction of G-expressions from Cypher ASTs (stage ③ of the GraphQE
//! workflow, §IV-B of the paper).
//!
//! The builder walks the clauses of each single query, accumulating
//! * the set of summation variables (one per node / relationship pattern and
//!   per projected value),
//! * the multiplicative factors describing the graph pattern, predicates and
//!   projections, and
//! * an environment mapping Cypher variable names to terms.
//!
//! It builds straight into a hash-consed [`GStore`] through the arena's
//! smart constructors (the mirrors of [`GExpr::mul`], [`GExpr::add`],
//! [`GExpr::squash`], [`GExpr::not`] and [`GExpr::sum`]), so the prover
//! decides on the ids it returns without ever holding a tree;
//! [`build_query`] externalizes the same build for callers that want one.
//!
//! Features the paper models with uninterpreted functions (arbitrary-length
//! paths, built-in functions, `COLLECT`, sorting with truncation at the top
//! level) are represented with uninterpreted [`GTerm::App`] /
//! [`GAtom::Pred`] symbols; features the paper cannot handle (nested
//! aggregates, `ORDER BY ... LIMIT` inside `WITH`) produce an
//! [`UnsupportedFeature`](BuildError) error so the prover can report the same
//! failure categories as the paper's evaluation.
//!
//! [`GTerm::App`]: crate::GTerm::App
//! [`GAtom::Pred`]: crate::GAtom::Pred

use std::collections::BTreeMap;

use cypher_parser::ast::{
    Aggregate, BinaryOp, Clause, Expr, Literal, MatchClause, NodePattern, PathPattern, Projection,
    ProjectionItems, Query, RelDirection, RelationshipPattern, SingleQuery, UnaryOp, UnionKind,
    UnwindClause, WithClause,
};

use crate::arena::{AAtom, ANode, ATerm, GStore, NodeId, TermId};
use crate::expr::GExpr;
use crate::term::{CmpOp, GAggKind, GConst, VarId};

/// The paper's unsupported-feature classes, as a closed enum so downstream
/// failure categorization is compiler-checked instead of string-matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnsupportedFeature {
    /// `ORDER BY ... LIMIT`/`SKIP` inside `WITH` (§IV-B sorting with
    /// truncation), outside the divide-and-conquer fragment.
    SortingTruncation,
    /// Aggregates nested inside other aggregates' arguments.
    NestedAggregate,
}

impl UnsupportedFeature {
    /// The stable wire name of this feature class.
    pub fn as_str(self) -> &'static str {
        match self {
            UnsupportedFeature::SortingTruncation => "sorting-truncation",
            UnsupportedFeature::NestedAggregate => "nested-aggregate",
        }
    }
}

impl std::fmt::Display for UnsupportedFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An error raised while constructing a G-expression.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildError {
    /// Human readable message.
    pub message: String,
    /// The unsupported feature class, when the error mirrors one of the
    /// paper's failure classes.
    pub feature: Option<UnsupportedFeature>,
}

impl BuildError {
    fn new(message: impl Into<String>) -> Self {
        BuildError { message: message.into(), feature: None }
    }

    fn unsupported(feature: UnsupportedFeature, message: impl Into<String>) -> Self {
        BuildError { message: message.into(), feature: Some(feature) }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.feature {
            Some(feature) => write!(f, "unsupported feature `{feature}`: {}", self.message),
            None => write!(f, "G-expression construction error: {}", self.message),
        }
    }
}

impl std::error::Error for BuildError {}

/// The kind of value a result column carries — used by the prover to map
/// returned elements across two queries (§IV-C "mapping returned elements").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnKind {
    /// A node variable.
    Node,
    /// A relationship variable.
    Relationship,
    /// A property access, tagged with the property key.
    Property(String),
    /// An aggregate, tagged with the aggregate name.
    Aggregate(String),
    /// Any other expression.
    Value,
}

/// The result of constructing a G-expression for a query: by default the
/// root id in the [`GStore`] it was built in ([`build_into`]), or the
/// externalized tree ([`build_query`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOutput<E = NodeId> {
    /// The G-expression `g(t)`. An id is valid only in the store it was
    /// built in, and only until that store's next epoch reset.
    pub expr: E,
    /// Number of output columns of the query.
    pub columns: usize,
    /// Per-column kind information for return-element mapping.
    pub column_kinds: Vec<ColumnKind>,
}

/// What kind of entity a Cypher variable denotes (used for column kinds and
/// the `null` padding of `OPTIONAL MATCH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Node,
    Relationship,
    Value,
}

/// Builds the G-expression of a (normalized) Cypher query into `store`.
pub fn build_into(store: &mut GStore, query: &Query) -> Result<BuildOutput, BuildError> {
    Builder { store, next_var: 0 }.build_query(query)
}

/// Builds the G-expression of a (normalized) Cypher query as a tree: the
/// [`build_into`] build in a store of its own, externalized.
pub fn build_query(query: &Query) -> Result<BuildOutput<GExpr>, BuildError> {
    let mut store = GStore::new();
    let built = build_into(&mut store, query)?;
    Ok(BuildOutput {
        expr: store.extern_expr(built.expr),
        columns: built.columns,
        column_kinds: built.column_kinds,
    })
}

/// The G-expression builder. Owns the variable counter so that every
/// constructed variable is unique across the whole query (including
/// subqueries and the emptiness tests of `OPTIONAL MATCH`).
struct Builder<'a> {
    store: &'a mut GStore,
    next_var: u32,
}

/// Per-single-query accumulation state.
#[derive(Debug, Clone, Default)]
struct State {
    vars: Vec<VarId>,
    factors: Vec<NodeId>,
    env: BTreeMap<String, TermId>,
    kinds: BTreeMap<String, VarKind>,
}

impl Builder<'_> {
    fn fresh(&mut self) -> VarId {
        let id = VarId(self.next_var);
        self.next_var += 1;
        id
    }

    // -- arena shorthands ----------------------------------------------------

    fn var(&mut self, var: VarId) -> TermId {
        self.store.term(ATerm::Var(var))
    }

    fn konst(&mut self, c: GConst) -> TermId {
        let c = self.store.konst(&c);
        self.store.term(ATerm::Const(c))
    }

    fn int(&mut self, v: i64) -> TermId {
        self.konst(GConst::Integer(v))
    }

    fn string(&mut self, s: &str) -> TermId {
        self.konst(GConst::String(s.to_string()))
    }

    fn prop(&mut self, base: TermId, key: &str) -> TermId {
        let key = self.store.sym(key);
        self.store.term(ATerm::Prop(base, key))
    }

    fn app(&mut self, name: &str, args: Vec<TermId>) -> TermId {
        let name = self.store.sym(name);
        self.store.term(ATerm::App(name, args.into()))
    }

    fn atom(&mut self, atom: AAtom) -> NodeId {
        self.store.node(ANode::Atom(atom))
    }

    fn cmp(&mut self, op: CmpOp, lhs: TermId, rhs: TermId) -> NodeId {
        self.atom(AAtom::Cmp(op, lhs, rhs))
    }

    /// An equality bracket `[lhs = rhs]`.
    fn eq(&mut self, lhs: TermId, rhs: TermId) -> NodeId {
        self.cmp(CmpOp::Eq, lhs, rhs)
    }

    fn pred(&mut self, name: &str, args: Vec<TermId>) -> NodeId {
        let name = self.store.sym(name);
        self.atom(AAtom::Pred(name, args.into()))
    }

    fn lab(&mut self, term: TermId, label: &str) -> NodeId {
        let label = self.store.sym(label);
        self.store.node(ANode::Lab(term, label))
    }

    /// `Σ_vars Π factors`, through the smart constructors.
    fn sum_of_product(&mut self, vars: Vec<VarId>, factors: Vec<NodeId>) -> NodeId {
        let product = self.store.mk_mul(factors);
        self.store.mk_sum(vars, product)
    }

    /// Builds the G-expression of a full query (handling `UNION [ALL]`).
    fn build_query(&mut self, query: &Query) -> Result<BuildOutput, BuildError> {
        let mut parts = Vec::new();
        let mut columns = None;
        let mut kinds = None;
        let mut any_distinct_union = false;
        for (i, part) in query.parts.iter().enumerate() {
            let output = self.build_single_query(part, &State::default())?;
            match columns {
                None => {
                    columns = Some(output.columns);
                    kinds = Some(output.column_kinds);
                }
                Some(c) if c != output.columns => {
                    return Err(BuildError::new(format!(
                        "UNION sub-queries return {c} and {} columns",
                        output.columns
                    )));
                }
                Some(_) => {}
            }
            if i > 0 && query.unions[i - 1] == UnionKind::Distinct {
                any_distinct_union = true;
            }
            parts.push(output.expr);
        }
        let combined = self.store.mk_add(parts);
        let expr = if any_distinct_union { self.store.mk_squash(combined) } else { combined };
        Ok(BuildOutput {
            expr,
            columns: columns.unwrap_or(0),
            column_kinds: kinds.unwrap_or_default(),
        })
    }

    /// Builds a single (non-union) query.
    fn build_single_query(
        &mut self,
        query: &SingleQuery,
        outer: &State,
    ) -> Result<BuildOutput, BuildError> {
        let mut state = outer.clone();
        for (index, clause) in query.clauses.iter().enumerate() {
            let is_last = index + 1 == query.clauses.len();
            match clause {
                Clause::Match(m) => self.build_match(&mut state, m)?,
                Clause::Unwind(u) => self.build_unwind(&mut state, u)?,
                Clause::With(w) => self.build_with(&mut state, w)?,
                Clause::Return(p) => {
                    if !is_last {
                        return Err(BuildError::new("RETURN must be the final clause"));
                    }
                    return self.build_return(&mut state, p);
                }
            }
        }
        Err(BuildError::new("query does not end with a RETURN clause"))
    }

    // -- MATCH ---------------------------------------------------------------

    fn build_match(&mut self, state: &mut State, clause: &MatchClause) -> Result<(), BuildError> {
        if clause.optional {
            return self.build_optional_match(state, clause);
        }
        let mut rel_terms = Vec::new();
        for pattern in &clause.patterns {
            self.build_path_pattern(state, pattern, &mut rel_terms)?;
        }
        self.add_injectivity(state, &rel_terms);
        if let Some(predicate) = &clause.where_clause {
            self.add_predicate(state, predicate)?;
        }
        Ok(())
    }

    /// Adds a `WHERE` predicate to `state`'s factors, one factor per
    /// conjunct: the enclosing product flattens a product of the conjuncts
    /// away, so building it would only leave it in the arena.
    fn add_predicate(&mut self, state: &mut State, predicate: &Expr) -> Result<(), BuildError> {
        let mut conjuncts = Vec::new();
        collect_conjuncts(predicate, &mut conjuncts);
        for conjunct in conjuncts {
            let factor = self.build_predicate(state, conjunct)?;
            state.factors.push(factor);
        }
        Ok(())
    }

    /// Relationship-injective semantics: distinct relationship patterns in one
    /// `MATCH` clause must bind distinct relationships, modeled as
    /// `not([e_i = e_j])` for every pair (§IV-B).
    fn add_injectivity(&mut self, state: &mut State, rel_terms: &[TermId]) {
        for i in 0..rel_terms.len() {
            for j in (i + 1)..rel_terms.len() {
                let same = self.eq(rel_terms[i], rel_terms[j]);
                state.factors.push(self.store.mk_not(same));
            }
        }
    }

    /// `OPTIONAL MATCH` (left outer join, Table I):
    /// `G(q1) × G(q2) + G(q1) × not(G(q2)) × isNULL(G(q2))`.
    fn build_optional_match(
        &mut self,
        state: &mut State,
        clause: &MatchClause,
    ) -> Result<(), BuildError> {
        // Build the optional part in a sub-state that sees the current
        // bindings but accumulates its own variables and factors.
        let mut optional = State {
            vars: Vec::new(),
            factors: Vec::new(),
            env: state.env.clone(),
            kinds: state.kinds.clone(),
        };
        let mut rel_terms = Vec::new();
        for pattern in &clause.patterns {
            self.build_path_pattern(&mut optional, pattern, &mut rel_terms)?;
        }
        self.add_injectivity(&mut optional, &rel_terms);
        if let Some(predicate) = &clause.where_clause {
            self.add_predicate(&mut optional, predicate)?;
        }

        let present = self.store.mk_mul(optional.factors);

        // Emptiness test over a fresh copy of the optional variables so the
        // `not(...)` factor does not capture the row's own bindings.
        let mut renaming = BTreeMap::new();
        let mut fresh_vars = Vec::new();
        for var in &optional.vars {
            let fresh = self.fresh();
            renaming.insert(*var, fresh);
            fresh_vars.push(fresh);
        }
        let emptiness_body =
            self.store.rename_node(present, &|v| renaming.get(&v).copied().unwrap_or(v));
        let emptiness = self.store.mk_sum(fresh_vars, emptiness_body);
        let nonempty = self.store.mk_squash(emptiness);
        let absent_guard = self.store.mk_not(nonempty);

        // In the absent branch every newly bound variable is NULL.
        let mut null_factors = vec![absent_guard];
        for var in &optional.vars {
            let (var, null) = (self.var(*var), self.konst(GConst::Null));
            null_factors.push(self.eq(var, null));
        }
        let absent = self.store.mk_mul(null_factors);

        state.vars.extend(optional.vars.iter().copied());
        state.factors.push(self.store.mk_add(vec![present, absent]));
        state.env = optional.env;
        state.kinds = optional.kinds;
        Ok(())
    }

    fn build_path_pattern(
        &mut self,
        state: &mut State,
        pattern: &PathPattern,
        rel_terms: &mut Vec<TermId>,
    ) -> Result<(), BuildError> {
        let mut trace = Vec::new();
        let mut left = self.build_node_pattern(state, &pattern.start)?;
        trace.push(left);
        for segment in &pattern.segments {
            let right = self.build_node_pattern(state, &segment.node)?;
            let rel = self.build_relationship_pattern(state, &segment.relationship, left, right)?;
            if !segment.relationship.is_var_length() {
                rel_terms.push(rel);
            }
            trace.push(rel);
            trace.push(right);
            left = right;
        }
        if let Some(path_var) = &pattern.variable {
            let term = self.app("path", trace);
            state.env.insert(path_var.clone(), term);
            state.kinds.insert(path_var.clone(), VarKind::Value);
        }
        Ok(())
    }

    /// The term of a pattern variable: its existing binding, or a fresh
    /// summation variable (bound under `name` with `kind` when named).
    fn pattern_term(&mut self, state: &mut State, name: Option<&String>, kind: VarKind) -> TermId {
        if let Some(term) = name.and_then(|name| state.env.get(name)) {
            return *term;
        }
        let var = self.fresh();
        state.vars.push(var);
        let term = self.var(var);
        if let Some(name) = name {
            state.env.insert(name.clone(), term);
            state.kinds.insert(name.clone(), kind);
        }
        term
    }

    fn build_node_pattern(
        &mut self,
        state: &mut State,
        pattern: &NodePattern,
    ) -> Result<TermId, BuildError> {
        let term = self.pattern_term(state, pattern.variable.as_ref(), VarKind::Node);
        state.factors.push(self.store.node(ANode::NodeFn(term)));
        for label in &pattern.labels {
            state.factors.push(self.lab(term, label));
        }
        for (key, value) in &pattern.properties {
            let value_term = self.build_term(state, value)?;
            let property = self.prop(term, key);
            state.factors.push(self.eq(property, value_term));
        }
        Ok(term)
    }

    fn build_relationship_pattern(
        &mut self,
        state: &mut State,
        pattern: &RelationshipPattern,
        left: TermId,
        right: TermId,
    ) -> Result<TermId, BuildError> {
        let term = self.pattern_term(state, pattern.variable.as_ref(), VarKind::Relationship);
        state.factors.push(self.store.node(ANode::RelFn(term)));

        // A relationship has exactly one label, so alternatives combine with
        // `+` rather than `×` (§IV-B).
        match pattern.labels.len() {
            0 => {}
            1 => state.factors.push(self.lab(term, &pattern.labels[0])),
            _ => {
                let alternatives =
                    pattern.labels.iter().map(|label| self.lab(term, label)).collect();
                state.factors.push(self.store.mk_add(alternatives));
            }
        }
        for (key, value) in &pattern.properties {
            let value_term = self.build_term(state, value)?;
            let property = self.prop(term, key);
            state.factors.push(self.eq(property, value_term));
        }

        // Arbitrary-length paths: treat the pattern as a single relationship
        // entity marked UNBOUNDED (Table I); a bounded range keeps its bounds
        // as an uninterpreted predicate so differing bounds never unify.
        if let Some(length) = &pattern.length {
            state.factors.push(self.store.node(ANode::Unbounded(term)));
            if length.min.is_some() || length.max.is_some() {
                let min = self.int(length.min.map(i64::from).unwrap_or(1));
                let max = self.int(length.max.map(i64::from).unwrap_or(-1));
                state.factors.push(self.pred("varlen", vec![term, min, max]));
            }
        }

        let src = self.app("src", vec![term]);
        let tgt = self.app("tgt", vec![term]);
        match pattern.direction {
            RelDirection::Outgoing => {
                state.factors.push(self.eq(src, left));
                state.factors.push(self.eq(tgt, right));
            }
            RelDirection::Incoming => {
                state.factors.push(self.eq(src, right));
                state.factors.push(self.eq(tgt, left));
            }
            RelDirection::Undirected => {
                let forward = vec![self.eq(src, left), self.eq(tgt, right)];
                let forward = self.store.mk_mul(forward);
                let backward = vec![self.eq(src, right), self.eq(tgt, left)];
                let backward = self.store.mk_mul(backward);
                state.factors.push(self.store.mk_add(vec![forward, backward]));
            }
        }
        Ok(term)
    }

    // -- UNWIND ---------------------------------------------------------------

    fn build_unwind(&mut self, state: &mut State, clause: &UnwindClause) -> Result<(), BuildError> {
        let row_var = self.fresh();
        state.vars.push(row_var);
        let row_term = self.var(row_var);

        // Resolve aliases introduced by WITH so `WITH [..] AS tmp UNWIND tmp`
        // sees the underlying list literal.
        let source = match &clause.expr {
            Expr::Variable(name) => match state.env.get(name).map(|t| self.store.term_of(*t)) {
                Some(ATerm::App(app, args)) if self.store.str_of(*app) == "list" => {
                    Some(ListSource::Terms(args.to_vec()))
                }
                _ => None,
            },
            Expr::List(items) => {
                let mut terms = Vec::new();
                for item in items {
                    terms.push(self.build_term(state, item)?);
                }
                Some(ListSource::Terms(terms))
            }
            // UNWIND(COLLECT(x)) undoes the aggregation (§IV-B "Unwinding");
            // the normalizer rewrites this form, but handle it here as well.
            Expr::AggregateCall { func: Aggregate::Collect, arg, .. } => {
                let term = self.build_term(state, arg)?;
                Some(ListSource::Passthrough(term))
            }
            _ => None,
        };

        match source {
            Some(ListSource::Terms(terms)) => {
                // Constant list: the concatenation of one product per element
                // (Table I, "Unwinding").
                let mut alternatives = Vec::new();
                for term in terms {
                    alternatives.push(self.unwind_element(row_term, term));
                }
                state.factors.push(self.store.mk_add(alternatives));
            }
            Some(ListSource::Passthrough(term)) => {
                state.factors.push(self.eq(row_term, term));
            }
            None => {
                // Arbitrary list expression: uninterpreted membership.
                let list_term = self.build_term(state, &clause.expr)?;
                state.factors.push(self.pred("unwind", vec![row_term, list_term]));
            }
        }
        state.env.insert(clause.alias.clone(), row_term);
        state.kinds.insert(clause.alias.clone(), VarKind::Value);
        Ok(())
    }

    fn unwind_element(&mut self, row: TermId, element: TermId) -> NodeId {
        match self.store.term_of(element).clone() {
            // A map literal pins each property of the row variable.
            ATerm::App(name, args) if self.store.str_of(name) == "map" => {
                let mut factors = Vec::new();
                let mut iter = args.iter();
                while let (Some(key), Some(value)) = (iter.next(), iter.next()) {
                    let key = match self.store.term_of(*key) {
                        ATerm::Const(c) => match self.store.const_of(*c) {
                            GConst::String(key) => key.clone(),
                            _ => continue,
                        },
                        _ => continue,
                    };
                    let property = self.prop(row, &key);
                    factors.push(self.eq(property, *value));
                }
                self.store.mk_mul(factors)
            }
            _ => self.eq(row, element),
        }
    }

    // -- WITH -----------------------------------------------------------------

    fn build_with(&mut self, state: &mut State, clause: &WithClause) -> Result<(), BuildError> {
        let projection = &clause.projection;
        if projection.skip.is_some() || projection.limit.is_some() {
            // §IV-B "Sorting with truncation": LIMIT/SKIP inside a subquery
            // cannot be modeled directly; the prover's divide-and-conquer
            // splits the query at this point instead.
            return Err(BuildError::unsupported(
                UnsupportedFeature::SortingTruncation,
                "ORDER BY ... LIMIT/SKIP inside WITH requires divide-and-conquer proving",
            ));
        }
        // A bare ORDER BY inside WITH is ignored: its order is not guaranteed
        // to survive the following clauses (§IV-B case (1)).

        let items = self.projection_items(state, projection)?;
        let has_aggregate = items.iter().any(|(_, expr)| expr.contains_aggregate());

        if !has_aggregate && !projection.distinct {
            // Pure renaming: bind the projected names directly to their terms
            // (this is the temp-variable elimination of §IV-B applied during
            // construction). The previous bindings go out of scope.
            let mut new_env = BTreeMap::new();
            let mut new_kinds = BTreeMap::new();
            for (name, expr) in &items {
                let term = self.build_term(state, expr)?;
                new_kinds.insert(name.clone(), self.expr_kind(state, expr));
                new_env.insert(name.clone(), term);
            }
            state.env = new_env;
            state.kinds = new_kinds;
        } else {
            self.project_with_grouping(state, &items)?;
        }

        if let Some(predicate) = &clause.where_clause {
            self.add_predicate(state, predicate)?;
        }
        Ok(())
    }

    /// Shared handling of `WITH DISTINCT ...` and `WITH`-level aggregation:
    /// the current pattern is folded into a squashed group per combination of
    /// grouping keys, and aggregate items become aggregate terms.
    fn project_with_grouping(
        &mut self,
        state: &mut State,
        items: &[(String, Expr)],
    ) -> Result<(), BuildError> {
        let mut new_vars = Vec::new();
        let mut key_equalities = Vec::new();
        let mut agg_bindings = Vec::new();
        let mut new_env = BTreeMap::new();
        let mut new_kinds = BTreeMap::new();

        for (name, expr) in items {
            let var = self.fresh();
            new_vars.push(var);
            let var_term = self.var(var);
            if expr.contains_aggregate() {
                let agg_term = self.build_aggregate_term(state, expr, &key_equalities)?;
                agg_bindings.push(self.eq(var_term, agg_term));
                new_kinds.insert(name.clone(), VarKind::Value);
            } else {
                let term = self.build_term(state, expr)?;
                key_equalities.push(self.eq(var_term, term));
                new_kinds.insert(name.clone(), self.expr_kind(state, expr));
            }
            new_env.insert(name.clone(), var_term);
        }

        let mut group_factors = std::mem::take(&mut state.factors);
        group_factors.extend(key_equalities);
        let old_vars = std::mem::take(&mut state.vars);
        let group = self.sum_of_product(old_vars, group_factors);
        let group = self.store.mk_squash(group);

        state.vars = new_vars;
        state.factors = vec![group];
        state.factors.extend(agg_bindings);
        state.env = new_env;
        state.kinds = new_kinds;
        Ok(())
    }

    // -- RETURN ---------------------------------------------------------------

    fn build_return(
        &mut self,
        state: &mut State,
        projection: &Projection,
    ) -> Result<BuildOutput, BuildError> {
        let items = self.projection_items(state, projection)?;
        let column_kinds: Vec<ColumnKind> =
            items.iter().map(|(_, expr)| self.column_kind(state, expr)).collect();
        let columns = items.len();
        let has_aggregate = items.iter().any(|(_, expr)| expr.contains_aggregate());

        // Sorting with truncation at the outermost level (§IV-B): conditions
        // on every output tuple via the order/limit/skip markers.
        let mut ordering_factors = Vec::new();
        for (index, order) in projection.order_by.iter().enumerate() {
            let key = self.build_term(state, &order.expr)?;
            let position = self.int(index as i64);
            let direction = self.string(if order.ascending { "asc" } else { "desc" });
            ordering_factors.push(self.pred("order", vec![position, direction, key]));
        }
        if let Some(limit) = &projection.limit {
            let term = self.build_term(state, limit)?;
            ordering_factors.push(self.pred("limit", vec![term]));
        }
        if let Some(skip) = &projection.skip {
            let term = self.build_term(state, skip)?;
            ordering_factors.push(self.pred("skip", vec![term]));
        }

        let expr = if has_aggregate {
            // Group keys pin output columns through a squashed group; each
            // aggregate column is pinned to its aggregate term.
            let mut key_equalities = Vec::new();
            let mut agg_equalities = Vec::new();
            for (index, (_, item)) in items.iter().enumerate() {
                if item.contains_aggregate() {
                    let agg = self.build_aggregate_term(state, item, &key_equalities)?;
                    let col = self.store.term(ATerm::OutCol(index));
                    agg_equalities.push(self.eq(col, agg));
                } else {
                    let term = self.build_term(state, item)?;
                    let col = self.store.term(ATerm::OutCol(index));
                    key_equalities.push(self.eq(col, term));
                }
            }
            let mut final_factors = Vec::new();
            if key_equalities.is_empty() {
                // A global aggregate always returns exactly one row: the
                // product of its column equalities alone (a unit factor
                // would only be interned for `mk_mul` to drop).
                final_factors.extend(agg_equalities);
                final_factors.extend(ordering_factors);
            } else {
                let mut group_factors = state.factors.clone();
                group_factors.extend(key_equalities);
                group_factors.extend(ordering_factors);
                let group = self.sum_of_product(state.vars.clone(), group_factors);
                final_factors.push(self.store.mk_squash(group));
                final_factors.extend(agg_equalities);
            }
            self.store.mk_mul(final_factors)
        } else {
            let mut factors = state.factors.clone();
            for (index, (_, item)) in items.iter().enumerate() {
                let term = self.build_term(state, item)?;
                let col = self.store.term(ATerm::OutCol(index));
                factors.push(self.eq(col, term));
            }
            factors.extend(ordering_factors);
            let body = self.sum_of_product(state.vars.clone(), factors);
            if projection.distinct {
                self.store.mk_squash(body)
            } else {
                body
            }
        };

        Ok(BuildOutput { expr, columns, column_kinds })
    }

    /// Expands `*` and attaches output names to projection items.
    fn projection_items(
        &mut self,
        state: &State,
        projection: &Projection,
    ) -> Result<Vec<(String, Expr)>, BuildError> {
        match &projection.items {
            ProjectionItems::Star => Ok(state
                .env
                .keys()
                .map(|name| (name.clone(), Expr::Variable(name.clone())))
                .collect()),
            ProjectionItems::Items(items) => {
                Ok(items.iter().map(|item| (item.output_name(), item.expr.clone())).collect())
            }
        }
    }

    /// Builds the aggregate term for a projection item that *is* an aggregate
    /// call. Compound aggregate expressions (e.g. `SUM(x)/COUNT(x)`,
    /// `COUNT(SUM(x))`) are not supported — the same limitation as GraphQE.
    fn build_aggregate_term(
        &mut self,
        state: &State,
        expr: &Expr,
        key_equalities: &[NodeId],
    ) -> Result<TermId, BuildError> {
        let (kind, distinct, arg) = match expr {
            Expr::AggregateCall { func, distinct, arg } => {
                if arg.contains_aggregate() {
                    return Err(BuildError::unsupported(
                        UnsupportedFeature::NestedAggregate,
                        format!("nested aggregate `{expr}` cannot be modeled"),
                    ));
                }
                let kind = match func {
                    Aggregate::Count => GAggKind::Count,
                    Aggregate::Sum => GAggKind::Sum,
                    Aggregate::Min => GAggKind::Min,
                    Aggregate::Max => GAggKind::Max,
                    Aggregate::Avg => GAggKind::Avg,
                    Aggregate::Collect => GAggKind::Collect,
                };
                (kind, *distinct, self.build_term(state, arg)?)
            }
            Expr::CountStar { distinct } => (GAggKind::Count, *distinct, self.app("star", vec![])),
            other => {
                return Err(BuildError::unsupported(
                    UnsupportedFeature::NestedAggregate,
                    format!("aggregate computation `{other}` cannot be modeled"),
                ));
            }
        };
        // The group of the aggregate: the current pattern constrained to the
        // same grouping keys as the output row.
        let mut group_factors = state.factors.clone();
        group_factors.extend_from_slice(key_equalities);
        let group = self.sum_of_product(state.vars.clone(), group_factors);
        Ok(self.store.term(ATerm::Agg { kind, distinct, arg, group }))
    }

    // -- expressions ------------------------------------------------------------

    /// Compiles a boolean Cypher expression into a 0/1-valued G-expression.
    fn build_predicate(&mut self, state: &State, expr: &Expr) -> Result<NodeId, BuildError> {
        Ok(match expr {
            Expr::Binary(BinaryOp::And, ..) => {
                // The whole conjunct chain becomes one product: building
                // `a AND b AND c` as a product of `a AND b` and `c` would
                // intern the inner product only for `mk_mul` to flatten it
                // away, leaving it in the arena until the next epoch reset.
                let mut conjuncts = Vec::new();
                collect_conjuncts(expr, &mut conjuncts);
                let factors = conjuncts
                    .into_iter()
                    .map(|conjunct| self.build_predicate(state, conjunct))
                    .collect::<Result<Vec<_>, _>>()?;
                self.store.mk_mul(factors)
            }
            Expr::Binary(BinaryOp::Or, lhs, rhs) => {
                let terms =
                    vec![self.build_predicate(state, lhs)?, self.build_predicate(state, rhs)?];
                let either = self.store.mk_add(terms);
                self.store.mk_squash(either)
            }
            Expr::Binary(BinaryOp::Xor, lhs, rhs) => {
                let left = self.build_predicate(state, lhs)?;
                let right = self.build_predicate(state, rhs)?;
                let not_right = self.store.mk_not(right);
                let left_only = self.store.mk_mul(vec![left, not_right]);
                let not_left = self.store.mk_not(left);
                let right_only = self.store.mk_mul(vec![not_left, right]);
                self.store.mk_add(vec![left_only, right_only])
            }
            Expr::Unary(UnaryOp::Not, inner) => {
                let inner = self.build_predicate(state, inner)?;
                self.store.mk_not(inner)
            }
            Expr::Binary(op, lhs, rhs) if op.is_comparison() => {
                let cmp = match op {
                    BinaryOp::Eq => CmpOp::Eq,
                    BinaryOp::Neq => CmpOp::Neq,
                    BinaryOp::Lt => CmpOp::Lt,
                    BinaryOp::Le => CmpOp::Le,
                    BinaryOp::Gt => CmpOp::Gt,
                    BinaryOp::Ge => CmpOp::Ge,
                    _ => unreachable!("is_comparison"),
                };
                let lhs = self.build_term(state, lhs)?;
                let rhs = self.build_term(state, rhs)?;
                self.cmp(cmp, lhs, rhs)
            }
            Expr::Binary(
                op
                @ (BinaryOp::In | BinaryOp::StartsWith | BinaryOp::EndsWith | BinaryOp::Contains),
                lhs,
                rhs,
            ) => {
                let name = match op {
                    BinaryOp::In => "in",
                    BinaryOp::StartsWith => "startsWith",
                    BinaryOp::EndsWith => "endsWith",
                    BinaryOp::Contains => "contains",
                    _ => unreachable!(),
                };
                let args = vec![self.build_term(state, lhs)?, self.build_term(state, rhs)?];
                self.pred(name, args)
            }
            Expr::IsNull { expr, negated } => {
                let term = self.build_term(state, expr)?;
                self.atom(AAtom::IsNull(term, *negated))
            }
            Expr::Literal(Literal::Boolean(true)) => self.store.node(ANode::One),
            Expr::Literal(Literal::Boolean(false)) => self.store.node(ANode::Zero),
            Expr::Literal(Literal::Null) => self.store.node(ANode::Zero),
            Expr::Exists(query) => self.build_exists(state, query)?,
            other => {
                // Any other expression used as a predicate: uninterpreted
                // truthiness test.
                let term = self.build_term(state, other)?;
                self.pred("truthy", vec![term])
            }
        })
    }

    /// `EXISTS { subquery }`: the squashed multiplicity of the subquery's
    /// pattern, with the outer bindings visible.
    fn build_exists(&mut self, state: &State, query: &Query) -> Result<NodeId, BuildError> {
        let mut parts = Vec::new();
        for part in &query.parts {
            let mut sub = State {
                vars: Vec::new(),
                factors: Vec::new(),
                env: state.env.clone(),
                kinds: state.kinds.clone(),
            };
            for clause in &part.clauses {
                match clause {
                    Clause::Match(m) => self.build_match(&mut sub, m)?,
                    Clause::Unwind(u) => self.build_unwind(&mut sub, u)?,
                    Clause::With(w) => self.build_with(&mut sub, w)?,
                    // The projection of an EXISTS subquery is irrelevant; only
                    // the existence of a matching row matters.
                    Clause::Return(_) => {}
                }
            }
            parts.push(self.sum_of_product(sub.vars, sub.factors));
        }
        let any = self.store.mk_add(parts);
        Ok(self.store.mk_squash(any))
    }

    /// Compiles a scalar Cypher expression into a term.
    fn build_term(&mut self, state: &State, expr: &Expr) -> Result<TermId, BuildError> {
        Ok(match expr {
            Expr::Literal(Literal::Integer(v)) => self.int(*v),
            Expr::Literal(Literal::Float(v)) => self.konst(GConst::Float(*v)),
            Expr::Literal(Literal::String(s)) => self.string(s),
            Expr::Literal(Literal::Boolean(b)) => self.konst(GConst::Boolean(*b)),
            Expr::Literal(Literal::Null) => self.konst(GConst::Null),
            Expr::Variable(name) => *state.env.get(name).ok_or_else(|| {
                BuildError::new(format!("reference to unbound variable `{name}`"))
            })?,
            Expr::Parameter(name) => {
                let name = self.string(name);
                self.app("param", vec![name])
            }
            Expr::Property(base, key) => {
                let base = self.build_term(state, base)?;
                self.prop(base, key)
            }
            Expr::FunctionCall { name, args } => {
                let mut terms = Vec::new();
                for arg in args {
                    terms.push(self.build_term(state, arg)?);
                }
                self.app(name, terms)
            }
            Expr::Unary(UnaryOp::Neg, inner) => {
                let inner = self.build_term(state, inner)?;
                self.app("neg", vec![inner])
            }
            Expr::Unary(UnaryOp::Pos, inner) => self.build_term(state, inner)?,
            Expr::Unary(UnaryOp::Not, inner) => {
                let inner = self.build_term(state, inner)?;
                self.app("not", vec![inner])
            }
            Expr::Binary(op, lhs, rhs) => {
                let name = match op {
                    BinaryOp::Add => "add",
                    BinaryOp::Sub => "sub",
                    BinaryOp::Mul => "mul",
                    BinaryOp::Div => "div",
                    BinaryOp::Mod => "mod",
                    BinaryOp::Pow => "pow",
                    BinaryOp::Eq => "eq",
                    BinaryOp::Neq => "neq",
                    BinaryOp::Lt => "lt",
                    BinaryOp::Le => "le",
                    BinaryOp::Gt => "gt",
                    BinaryOp::Ge => "ge",
                    BinaryOp::And => "and",
                    BinaryOp::Or => "or",
                    BinaryOp::Xor => "xor",
                    BinaryOp::In => "in",
                    BinaryOp::StartsWith => "startsWith",
                    BinaryOp::EndsWith => "endsWith",
                    BinaryOp::Contains => "contains",
                };
                let args = vec![self.build_term(state, lhs)?, self.build_term(state, rhs)?];
                self.app(name, args)
            }
            Expr::IsNull { expr, negated } => {
                let inner = self.build_term(state, expr)?;
                self.app(if *negated { "isNotNull" } else { "isNull" }, vec![inner])
            }
            Expr::List(items) => {
                let mut terms = Vec::new();
                for item in items {
                    terms.push(self.build_term(state, item)?);
                }
                self.app("list", terms)
            }
            Expr::Map(entries) => {
                let mut terms = Vec::new();
                for (key, value) in entries {
                    terms.push(self.string(key));
                    terms.push(self.build_term(state, value)?);
                }
                self.app("map", terms)
            }
            Expr::AggregateCall { .. } | Expr::CountStar { .. } => {
                return Err(BuildError::unsupported(
                    UnsupportedFeature::NestedAggregate,
                    "aggregates may only appear as whole projection items",
                ));
            }
            Expr::Exists(query) => {
                // EXISTS as a value: encode the squashed subquery multiplicity
                // as an uninterpreted term over its display form.
                let inner = self.build_exists(state, query)?;
                let text = self.store.node_string(inner);
                let text = self.string(&text);
                self.app("existsValue", vec![text])
            }
            Expr::Case { branches, otherwise } => {
                let mut terms = Vec::new();
                for (cond, value) in branches {
                    let predicate = self.build_predicate(state, cond)?;
                    let text = self.store.node_string(predicate);
                    terms.push(self.string(&text));
                    terms.push(self.build_term(state, value)?);
                }
                if let Some(e) = otherwise {
                    terms.push(self.build_term(state, e)?);
                }
                self.app("case", terms)
            }
        })
    }

    fn expr_kind(&self, state: &State, expr: &Expr) -> VarKind {
        match expr {
            Expr::Variable(name) => state.kinds.get(name).copied().unwrap_or(VarKind::Value),
            _ => VarKind::Value,
        }
    }

    fn column_kind(&self, state: &State, expr: &Expr) -> ColumnKind {
        match expr {
            Expr::Variable(name) => match state.kinds.get(name) {
                Some(VarKind::Node) => ColumnKind::Node,
                Some(VarKind::Relationship) => ColumnKind::Relationship,
                _ => ColumnKind::Value,
            },
            Expr::Property(_, key) => ColumnKind::Property(key.clone()),
            Expr::AggregateCall { func, .. } => ColumnKind::Aggregate(func.name().to_string()),
            Expr::CountStar { .. } => ColumnKind::Aggregate("COUNT".to_string()),
            _ => ColumnKind::Value,
        }
    }
}

enum ListSource {
    Terms(Vec<TermId>),
    Passthrough(TermId),
}

/// The operands of a chain of `AND`s, left to right: the order in which
/// building them one `AND` at a time would visit them.
fn collect_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Binary(BinaryOp::And, lhs, rhs) => {
            collect_conjuncts(lhs, out);
            collect_conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    fn build(text: &str) -> BuildOutput<GExpr> {
        build_query(&parse_query(text).unwrap()).unwrap()
    }

    fn build_err(text: &str) -> BuildError {
        build_query(&parse_query(text).unwrap()).unwrap_err()
    }

    #[test]
    fn builds_the_overview_example() {
        // §III-B: MATCH (n1)-[r]->(n2) WHERE n1.age=59 RETURN n1
        let output = build("MATCH (n1)-[r]->(n2) WHERE n1.age = 59 RETURN n1");
        assert_eq!(output.columns, 1);
        assert_eq!(output.column_kinds, vec![ColumnKind::Node]);
        let text = output.expr.to_string();
        assert!(text.contains("Node(e0)"), "{text}");
        assert!(text.contains("Rel("), "{text}");
        assert!(text.contains("src("), "{text}");
        assert!(text.contains("tgt("), "{text}");
        assert!(text.contains("[e0.age = 59]"), "{text}");
        assert!(text.contains("t.col1"), "{text}");
    }

    #[test]
    fn node_pattern_with_labels_and_properties() {
        let output = build("MATCH (n:Person:Author {age: 59}) RETURN n");
        let text = output.expr.to_string();
        assert!(text.contains("Lab(e0, Person)"));
        assert!(text.contains("Lab(e0, Author)"));
        assert!(text.contains("[e0.age = 59]"));
    }

    #[test]
    fn relationship_multi_labels_use_disjunction() {
        let output = build("MATCH (a)-[r:READ|WRITE]->(b) RETURN a");
        let text = output.expr.to_string();
        assert!(text.contains("Lab(e2, READ) + Lab(e2, WRITE)"), "{text}");
    }

    #[test]
    fn injectivity_constraints_are_added_within_one_match() {
        let output = build("MATCH (a)-[x]->(b)<-[y]-(c) RETURN a");
        let text = output.expr.to_string();
        assert!(text.contains("not([e2 = e4])"), "{text}");
        // Across separate MATCH clauses there is no injectivity constraint.
        let output = build("MATCH (a)-[x]->(b) MATCH (c)-[y]->(d) RETURN a");
        assert!(!output.expr.to_string().contains("not(["));
    }

    #[test]
    fn where_predicates_use_semiring_connectives() {
        let output = build("MATCH (n) WHERE n.age > 29 OR n.age < 59 RETURN n");
        let text = output.expr.to_string();
        assert!(text.contains("‖"), "OR must be squashed: {text}");
        let output = build("MATCH (n) WHERE n.a = 1 AND n.b = 2 RETURN n");
        let text = output.expr.to_string();
        assert!(text.contains("[e0.a = 1]"));
        assert!(text.contains("[e0.b = 2]"));
        let output = build("MATCH (n) WHERE NOT n.a = 1 RETURN n");
        assert!(output.expr.to_string().contains("not([e0.a = 1])"));
    }

    #[test]
    fn union_all_adds_and_union_squashes() {
        let all = build("MATCH (a) RETURN a UNION ALL MATCH (b) RETURN b");
        match &all.expr {
            GExpr::Add(items) => assert_eq!(items.len(), 2),
            other => panic!("expected Add, got {other}"),
        }
        let distinct = build("MATCH (a) RETURN a UNION MATCH (b) RETURN b");
        assert!(matches!(distinct.expr, GExpr::Squash(_)));
    }

    #[test]
    fn return_distinct_squashes() {
        let output = build("MATCH (n) RETURN DISTINCT n.name");
        assert!(matches!(output.expr, GExpr::Squash(_)));
    }

    #[test]
    fn optional_match_produces_left_outer_join_shape() {
        let output = build("MATCH (a) OPTIONAL MATCH (a)-[r]->(b) RETURN a, b");
        let text = output.expr.to_string();
        assert!(text.contains("not(‖"), "{text}");
        assert!(text.contains("= null]"), "{text}");
    }

    #[test]
    fn variable_length_paths_use_unbounded() {
        let output = build("MATCH (a)-[*]->(b) RETURN a");
        assert!(output.expr.to_string().contains("UNBOUNDED("));
        let bounded = build("MATCH (a)-[*1..3]->(b) RETURN a");
        assert!(bounded.expr.to_string().contains("varlen("));
    }

    #[test]
    fn aggregates_become_aggregate_terms() {
        let output = build("MATCH (n:Person) RETURN SUM(n.age)");
        let text = output.expr.to_string();
        assert!(text.contains("SUM("), "{text}");
        assert_eq!(output.column_kinds, vec![ColumnKind::Aggregate("SUM".into())]);
        let grouped = build("MATCH (n:Person) RETURN n.name, COUNT(*)");
        let text = grouped.expr.to_string();
        assert!(text.contains("COUNT("), "{text}");
        assert!(text.contains("‖"), "grouped aggregates squash the group: {text}");
    }

    #[test]
    fn order_limit_skip_at_top_level_are_markers() {
        let output = build("MATCH (n) RETURN n.name ORDER BY n.age DESC SKIP 2 LIMIT 5");
        let text = output.expr.to_string();
        assert!(text.contains("order("), "{text}");
        assert!(text.contains("limit("), "{text}");
        assert!(text.contains("skip("), "{text}");
    }

    #[test]
    fn with_renaming_is_eliminated() {
        // Rule ④-style WITH is folded away during construction, so both forms
        // produce literally identical expressions (up to variable numbering).
        let direct = build("MATCH (x) RETURN x.name");
        let via_with = build("MATCH (x) WITH x.name AS name RETURN name");
        assert_eq!(direct.expr.to_string(), via_with.expr.to_string());
    }

    #[test]
    fn with_distinct_introduces_group_squash() {
        let output = build("MATCH (p) WITH DISTINCT p.name AS name RETURN name");
        let text = output.expr.to_string();
        assert!(text.contains("‖"), "{text}");
    }

    #[test]
    fn unwind_constant_list_enumerates_elements() {
        let output =
            build("WITH [{c1: 0, c2: 1}, {c1: 2, c2: 3}] AS tmp UNWIND tmp AS row RETURN row.c1");
        let text = output.expr.to_string();
        assert!(text.contains("[e0.c1 = 0] × [e0.c2 = 1]"), "{text}");
        assert!(text.contains("[e0.c1 = 2] × [e0.c2 = 3]"), "{text}");
    }

    #[test]
    fn unwind_scalar_list() {
        let output = build("UNWIND [1, 2, 3] AS x RETURN x");
        let text = output.expr.to_string();
        assert!(text.contains("[e0 = 1]"), "{text}");
        assert!(text.contains("[e0 = 3]"), "{text}");
    }

    #[test]
    fn exists_subquery_becomes_squashed_sum() {
        let output = build("MATCH (n) WHERE EXISTS { MATCH (n)-[:KNOWS]->(m) RETURN m } RETURN n");
        let text = output.expr.to_string();
        assert!(text.contains("‖"), "{text}");
        assert!(text.contains("Lab(e2, KNOWS)"), "{text}");
    }

    #[test]
    fn with_limit_is_unsupported() {
        let err = build_err("MATCH (n) WITH n ORDER BY n.p1 LIMIT 1 MATCH (n)-[]->(m) RETURN m");
        assert_eq!(err.feature, Some(UnsupportedFeature::SortingTruncation));
    }

    #[test]
    fn nested_aggregates_are_unsupported() {
        let err = build_err("MATCH (n) RETURN SUM(n.a) / COUNT(n)");
        assert_eq!(err.feature, Some(UnsupportedFeature::NestedAggregate));
        let err = build_err("MATCH (n) RETURN COUNT(SUM(n.a))");
        assert_eq!(err.feature, Some(UnsupportedFeature::NestedAggregate));
    }

    #[test]
    fn union_arity_mismatch_is_an_error() {
        let err = build_err("MATCH (n) RETURN n UNION ALL MATCH (n) RETURN n, n.name");
        assert!(err.message.contains("columns"));
    }

    #[test]
    fn renamed_queries_produce_isomorphic_shapes() {
        // Structural check used heavily by the prover: renaming Cypher
        // variables must not change anything except entity variable numbers.
        let a = build("MATCH (person)-[r:READ]->(book) RETURN person.name");
        let b = build("MATCH (x)-[y:READ]->(z) RETURN x.name");
        assert_eq!(a.expr.to_string(), b.expr.to_string());
    }

    #[test]
    fn return_star_projects_all_bindings_alphabetically() {
        let output = build("MATCH (x)-[z]->()-[y]->() RETURN *");
        assert_eq!(output.columns, 3);
        assert_eq!(
            output.column_kinds,
            vec![ColumnKind::Node, ColumnKind::Relationship, ColumnKind::Relationship]
        );
    }
}
