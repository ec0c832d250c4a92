// Unit tests for the extended meta-relation operators (paper Section 4),
// including a parameterized sweep over the paper's own four-case
// selection scenario (budgets 300k-600k versus four query ranges).

#include "meta/ops.h"

#include <gtest/gtest.h>

#include "meta/meta_tuple.h"

namespace viewauth {
namespace {

std::vector<Attribute> IntColumns(std::initializer_list<const char*> names) {
  std::vector<Attribute> out;
  for (const char* name : names) {
    out.push_back(Attribute{name, ValueType::kInt64});
  }
  return out;
}

// A meta-relation over one int column, holding one tuple whose variable
// is constrained to [lo, hi] — the paper's "projects whose budgets are
// between $300,000 and $600,000".
MetaRelation RangeView(int64_t lo, int64_t hi) {
  MetaRelation rel(IntColumns({"BUDGET"}));
  MetaTuple tuple;
  tuple.cells().push_back(MetaCell::Var(1, /*starred=*/true));
  tuple.constraints().DeclareTermType(1, ValueType::kInt64);
  tuple.constraints().AddTermConst(1, Comparator::kGe, Value::Int64(lo));
  tuple.constraints().AddTermConst(1, Comparator::kLe, Value::Int64(hi));
  tuple.views().insert("V");
  tuple.var_atoms()[1] = {1};
  tuple.origin_atoms().insert(1);
  rel.Add(std::move(tuple));
  return rel;
}

MetaOpOptions Refined() { return MetaOpOptions{}; }
MetaOpOptions Base() {
  MetaOpOptions options;
  options.padding = false;
  options.four_case = false;
  return options;
}

// --- The paper's four selection cases (Section 4.2). -------------------

struct FourCaseParam {
  const char* label;
  // Query range [query_lo, query_hi] applied as two selections.
  int64_t query_lo;
  int64_t query_hi;
  // Expected state of the surviving tuple; empty label "discard" means
  // the tuple must vanish.
  bool survives;
  bool cleared;  // the budget cell became blank
  // Expected residual bounds when not cleared.
  int64_t expect_lo;
  int64_t expect_hi;
};

// Prints the case label, so the test names CTest discovers (which carry
// the printed parameter) do not depend on where the label string lives.
void PrintTo(const FourCaseParam& param, std::ostream* os) {
  *os << param.label;
}

class FourCaseTest : public ::testing::TestWithParam<FourCaseParam> {};

TEST_P(FourCaseTest, PaperScenario) {
  const FourCaseParam& param = GetParam();
  MetaRelation view = RangeView(300000, 600000);
  VarAllocator alloc;
  MetaRelation after = MetaSelect(
      view,
      MetaSelection::ColumnConst(0, Comparator::kGe,
                                 Value::Int64(param.query_lo)),
      Refined(), &alloc);
  after = MetaSelect(after,
                     MetaSelection::ColumnConst(
                         0, Comparator::kLe, Value::Int64(param.query_hi)),
                     Refined(), &alloc);
  // The authorizer's four-case post-pass: the conjunction of both query
  // predicates may imply the tuple's restriction even when neither does
  // alone.
  ConstraintSet lambda;
  lambda.DeclareTermType(-1, ValueType::kInt64);
  lambda.AddTermConst(-1, Comparator::kGe, Value::Int64(param.query_lo));
  lambda.AddTermConst(-1, Comparator::kLe, Value::Int64(param.query_hi));
  ClearImpliedRestrictions(&after, lambda,
                           [](int col) -> TermId { return -(col + 1); });
  if (!param.survives) {
    EXPECT_TRUE(after.empty()) << param.label;
    return;
  }
  ASSERT_EQ(after.size(), 1) << param.label;
  const MetaTuple& tuple = after.tuples()[0];
  if (param.cleared) {
    EXPECT_TRUE(tuple.cells()[0].is_blank()) << param.label;
    EXPECT_TRUE(tuple.cells()[0].projected);
    EXPECT_EQ(tuple.constraints().atom_count(), 0) << param.label;
    return;
  }
  ASSERT_EQ(tuple.cells()[0].kind, CellKind::kVar) << param.label;
  const ConstraintSet& constraints = tuple.constraints();
  TermId var = tuple.cells()[0].var;
  EXPECT_EQ(constraints.Implies(ConstraintAtom::TermConst(
                var, Comparator::kGe, Value::Int64(param.expect_lo))),
            Truth::kTrue)
      << param.label;
  EXPECT_EQ(constraints.Implies(ConstraintAtom::TermConst(
                var, Comparator::kLe, Value::Int64(param.expect_hi))),
            Truth::kTrue)
      << param.label;
  EXPECT_EQ(constraints.Implies(ConstraintAtom::TermConst(
                var, Comparator::kGe,
                Value::Int64(param.expect_lo + 1))),
            Truth::kUnknown)
      << param.label << " (lower bound too tight)";
}

INSTANTIATE_TEST_SUITE_P(
    PaperRanges, FourCaseTest,
    ::testing::Values(
        // (1) 200k-400k overlaps: modified to 300k-400k.
        FourCaseParam{"overlap", 200000, 400000, true, false, 300000,
                      400000},
        // (2) 200k-700k contains the view: retained as 300k-600k.
        FourCaseParam{"contained", 200000, 700000, true, false, 300000,
                      600000},
        // (3) 400k-500k inside the view: cleared entirely.
        FourCaseParam{"clears", 400000, 500000, true, true, 0, 0},
        // (4) under 300k: contradictory, discarded. (0..299,999)
        FourCaseParam{"discard", 0, 299999, false, false, 0, 0}),
    [](const ::testing::TestParamInfo<FourCaseParam>& info) {
      return info.param.label;
    });

// --- Definition 2 basics. ----------------------------------------------

TEST(MetaSelect, RequiresProjectedCell) {
  MetaRelation rel(IntColumns({"A"}));
  MetaTuple tuple;
  tuple.cells().push_back(MetaCell::Blank(/*starred=*/false));
  rel.Add(tuple);
  VarAllocator alloc;
  MetaRelation after =
      MetaSelect(rel, MetaSelection::ColumnConst(0, Comparator::kGe,
                                                 Value::Int64(5)),
                 Refined(), &alloc);
  EXPECT_TRUE(after.empty());
}

TEST(MetaSelect, UnprojectedConstantRetainedWhenImplied) {
  MetaRelation rel(
      {Attribute{"WARD", ValueType::kString},
       Attribute{"NAME", ValueType::kString}});
  MetaTuple tuple;
  tuple.cells().push_back(
      MetaCell::Const(Value::String("cardiology"), /*starred=*/false));
  tuple.cells().push_back(MetaCell::Blank(/*starred=*/true));
  rel.Add(tuple);
  VarAllocator alloc;
  // Equivalent predicate: retained AND cleared (survives projections).
  MetaRelation same =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kEq,
                                            Value::String("cardiology")),
                 Refined(), &alloc);
  ASSERT_EQ(same.size(), 1);
  EXPECT_TRUE(same.tuples()[0].cells()[0].is_blank());
  EXPECT_FALSE(same.tuples()[0].cells()[0].projected);
  // Conflicting predicate: discarded.
  MetaRelation other =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kEq,
                                            Value::String("oncology")),
                 Refined(), &alloc);
  EXPECT_TRUE(other.empty());
  // In base mode even the equivalent predicate discards (Definition 2).
  MetaRelation base =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kEq,
                                            Value::String("cardiology")),
                 Base(), &alloc);
  EXPECT_TRUE(base.empty());
}

TEST(MetaSelect, ConstCellAgainstConstant) {
  MetaRelation rel({Attribute{"SPONSOR", ValueType::kString}});
  MetaTuple tuple;
  tuple.cells().push_back(
      MetaCell::Const(Value::String("Acme"), /*starred=*/true));
  rel.Add(tuple);
  VarAllocator alloc;
  // Same constant with equality: cleared (paper: lambda implies mu).
  MetaRelation cleared =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kEq,
                                            Value::String("Acme")),
                 Refined(), &alloc);
  ASSERT_EQ(cleared.size(), 1);
  EXPECT_TRUE(cleared.tuples()[0].cells()[0].is_blank());
  EXPECT_TRUE(cleared.tuples()[0].cells()[0].projected);
  // Implied inequality: retained unmodified.
  MetaRelation kept =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kLt,
                                            Value::String("Apex")),
                 Refined(), &alloc);
  ASSERT_EQ(kept.size(), 1);
  EXPECT_EQ(kept.tuples()[0].cells()[0].kind, CellKind::kConst);
  // Contradiction: discarded.
  MetaRelation dropped =
      MetaSelect(rel,
                 MetaSelection::ColumnConst(0, Comparator::kEq,
                                            Value::String("Apex")),
                 Refined(), &alloc);
  EXPECT_TRUE(dropped.empty());
}

TEST(MetaSelect, BaseModeConjoinsOntoBlank) {
  MetaRelation rel(IntColumns({"A"}));
  MetaTuple tuple;
  tuple.cells().push_back(MetaCell::Blank(/*starred=*/true));
  rel.Add(tuple);
  VarAllocator alloc;
  MetaRelation eq = MetaSelect(
      rel, MetaSelection::ColumnConst(0, Comparator::kEq, Value::Int64(7)),
      Base(), &alloc);
  ASSERT_EQ(eq.size(), 1);
  EXPECT_EQ(eq.tuples()[0].cells()[0].kind, CellKind::kConst);
  EXPECT_EQ(eq.tuples()[0].cells()[0].constant, Value::Int64(7));

  MetaRelation range = MetaSelect(
      rel, MetaSelection::ColumnConst(0, Comparator::kGe, Value::Int64(7)),
      Base(), &alloc);
  ASSERT_EQ(range.size(), 1);
  ASSERT_EQ(range.tuples()[0].cells()[0].kind, CellKind::kVar);
  EXPECT_EQ(range.tuples()[0].constraints().Implies(
                ConstraintAtom::TermConst(range.tuples()[0].cells()[0].var,
                                          Comparator::kGe, Value::Int64(7))),
            Truth::kTrue);
}

TEST(MetaSelect, ColumnColumnEqualityOnSharedVariableClears) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple tuple;
  tuple.cells().push_back(MetaCell::Var(3, /*starred=*/true));
  tuple.cells().push_back(MetaCell::Var(3, /*starred=*/true));
  tuple.var_atoms()[3] = {1};
  tuple.origin_atoms().insert(1);
  rel.Add(tuple);
  VarAllocator alloc;
  MetaRelation after = MetaSelect(
      rel, MetaSelection::ColumnColumn(0, Comparator::kEq, 1), Refined(),
      &alloc);
  ASSERT_GE(after.size(), 1);
  bool found_cleared = false;
  for (const MetaTuple& t : after.tuples()) {
    if (t.cells()[0].is_blank() && t.cells()[1].is_blank()) {
      found_cleared = true;
      EXPECT_TRUE(t.cells()[0].projected);
    }
  }
  EXPECT_TRUE(found_cleared);
}

TEST(MetaSelect, ColumnColumnContradictionDiscards) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple tuple;
  tuple.cells().push_back(MetaCell::Var(3, /*starred=*/true));
  tuple.cells().push_back(MetaCell::Var(3, /*starred=*/true));
  rel.Add(tuple);
  VarAllocator alloc;
  EXPECT_TRUE(MetaSelect(rel,
                         MetaSelection::ColumnColumn(0, Comparator::kLt, 1),
                         Refined(), &alloc)
                  .empty());
  EXPECT_TRUE(MetaSelect(rel,
                         MetaSelection::ColumnColumn(0, Comparator::kNe, 1),
                         Refined(), &alloc)
                  .empty());
  EXPECT_EQ(MetaSelect(rel,
                       MetaSelection::ColumnColumn(0, Comparator::kLe, 1),
                       Refined(), &alloc)
                .size(),
            1);
}

TEST(MetaSelect, EqualityVariantsSurviveEitherProjection) {
  // Cells (Const sales*, Const sales*) with lambda: col0 = col1. Either
  // column may later be projected away; a variant must survive both.
  MetaRelation rel({Attribute{"DEPT", ValueType::kString},
                    Attribute{"DNAME", ValueType::kString}});
  MetaTuple tuple;
  tuple.cells().push_back(
      MetaCell::Const(Value::String("sales"), /*starred=*/true));
  tuple.cells().push_back(
      MetaCell::Const(Value::String("sales"), /*starred=*/true));
  rel.Add(tuple);
  VarAllocator alloc;
  MetaRelation after = MetaSelect(
      rel, MetaSelection::ColumnColumn(0, Comparator::kEq, 1), Refined(),
      &alloc);
  EXPECT_GE(after.size(), 3);
  EXPECT_FALSE(MetaProject(after, {0}).empty());
  EXPECT_FALSE(MetaProject(after, {1}).empty());
}

// --- Product and padding. ----------------------------------------------

TEST(MetaProduct, ConcatenatesAndPads) {
  MetaRelation left(IntColumns({"A"}));
  MetaTuple l;
  l.cells().push_back(MetaCell::Const(Value::Int64(1), true));
  l.views().insert("V1");
  left.Add(l);
  MetaRelation right(IntColumns({"B"}));
  MetaTuple r;
  r.cells().push_back(MetaCell::Const(Value::Int64(2), true));
  r.views().insert("V2");
  right.Add(r);

  MetaRelation padded = MetaProduct(left, right, Refined());
  EXPECT_EQ(padded.size(), 3);  // pair + two padded
  MetaRelation bare = MetaProduct(left, right, Base());
  ASSERT_EQ(bare.size(), 1);
  EXPECT_EQ(bare.tuples()[0].arity(), 2);
  EXPECT_EQ(bare.tuples()[0].views().size(), 2u);
}

TEST(MetaProduct, PaddingPreservesFactorViewsThroughProjection) {
  // The paper's motivating case: Q = pi_R(R x S) is equivalent to R, so
  // R's subviews must survive. Without padding they are lost when the
  // S-side tuple restricts S's attributes.
  MetaRelation left(IntColumns({"A"}));
  MetaTuple l;
  l.cells().push_back(MetaCell::Blank(/*starred=*/true));
  l.views().insert("VR");
  left.Add(l);
  MetaRelation right(IntColumns({"B"}));
  MetaTuple r;
  r.cells().push_back(MetaCell::Const(Value::Int64(9), true));
  r.views().insert("VS");
  right.Add(r);

  MetaRelation with_padding =
      MetaProject(MetaProduct(left, right, Refined()), {0});
  bool vr_survives = false;
  for (const MetaTuple& t : with_padding.tuples()) {
    if (t.views().contains("VR") && t.cells()[0].projected) {
      vr_survives = true;
    }
  }
  EXPECT_TRUE(vr_survives);

  MetaRelation without_padding =
      MetaProject(MetaProduct(left, right, Base()), {0});
  EXPECT_TRUE(without_padding.empty());
}

// --- Projection (Definition 3). ----------------------------------------

TEST(MetaProject, DropsTuplesRestrictingRemovedColumns) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple restricted;
  restricted.cells().push_back(MetaCell::Blank(true));
  restricted.cells().push_back(MetaCell::Const(Value::Int64(5), false));
  rel.Add(restricted);
  MetaTuple free;
  free.cells().push_back(MetaCell::Blank(true));
  free.cells().push_back(MetaCell::Blank(false));
  rel.Add(free);

  MetaRelation projected = MetaProject(rel, {0});
  ASSERT_EQ(projected.size(), 1);
  EXPECT_TRUE(projected.tuples()[0].cells()[0].is_blank());
  // Keeping both columns keeps both tuples, reordered.
  MetaRelation reordered = MetaProject(rel, {1, 0});
  EXPECT_EQ(reordered.size(), 2);
  EXPECT_EQ(reordered.columns()[0].name, "B");
}

// --- Dangling pruning, duplicates, subsumption. -------------------------

TEST(PruneDangling, RemovesPartialViewCombinations) {
  // A view with two atoms sharing x: a lone tuple dangles, the pair does
  // not.
  MetaTuple lone;
  lone.cells().push_back(MetaCell::Var(1, true));
  lone.var_atoms()[1] = {10, 11};
  lone.origin_atoms().insert(10);

  MetaTuple pair = lone;
  pair.cells().push_back(MetaCell::Var(1, true));
  pair.origin_atoms().insert(11);

  MetaRelation rel(IntColumns({"A"}));
  rel.Add(lone);
  MetaRelation rel2(IntColumns({"A", "B"}));
  rel2.Add(pair);

  EXPECT_TRUE(PruneDanglingTuples(rel).empty());
  EXPECT_EQ(PruneDanglingTuples(rel2).size(), 1);
}

TEST(RemoveDuplicates, CollapsesAlphaEquivalentTuples) {
  MetaRelation rel(IntColumns({"A"}));
  for (VarId var : {5, 9}) {
    MetaTuple t;
    t.cells().push_back(MetaCell::Var(var, true));
    t.constraints().AddTermConst(var, Comparator::kGe, Value::Int64(3));
    t.var_atoms()[var] = {1};
    t.origin_atoms().insert(1);
    rel.Add(t);
  }
  EXPECT_EQ(RemoveDuplicates(rel).size(), 1);
}

TEST(RemoveDuplicates, KeepsTuplesWithDifferentProvenance) {
  MetaRelation rel(IntColumns({"A"}));
  for (AtomId atom : {1, 2}) {
    MetaTuple t;
    t.cells().push_back(MetaCell::Var(7, true));
    t.var_atoms()[7] = {1, 2};
    t.origin_atoms().insert(atom);
    rel.Add(t);
  }
  // Same cells, but covering different atoms: both must survive (one may
  // dangle in a later product where the other does not).
  EXPECT_EQ(RemoveDuplicates(rel).size(), 2);
}

// --- Hopeless pruning commutes with duplicate elimination. ------------

// Atom 1 is view V's R atom, atom 2 its S atom (both mention x1); atom 3
// is view W's only atom, over R.
std::map<AtomId, AtomInfo> TwoViewAtoms() {
  return {{1, AtomInfo{"V", "R"}},
          {2, AtomInfo{"V", "S"}},
          {3, AtomInfo{"W", "R"}}};
}

// R' x S' with padding: V's R tuple (under two variable names), W's tuple
// twice, and V's S tuple. The product holds duplicates (W's two copies
// pair alike; V's two R tuples pad to alpha-equivalent tuples) and tuples
// missing an atom of V, some of them both.
MetaRelation ProductWithDuplicatesAndHopeless() {
  MetaRelation left(IntColumns({"R.A"}));
  for (VarId var : {1, 5}) {
    MetaTuple v;
    v.cells().push_back(MetaCell::Var(var, true));
    v.views().insert("V");
    v.var_atoms()[var] = {1, 2};
    v.origin_atoms().insert(1);
    left.Add(std::move(v));
  }
  for (int copy = 0; copy < 2; ++copy) {
    MetaTuple w;
    w.cells().push_back(MetaCell::Blank(true));
    w.views().insert("W");
    w.origin_atoms().insert(3);
    left.Add(std::move(w));
  }
  MetaRelation right(IntColumns({"S.B"}));
  MetaTuple s;
  s.cells().push_back(MetaCell::Var(1, true));
  s.views().insert("V");
  s.var_atoms()[1] = {1, 2};
  s.origin_atoms().insert(2);
  right.Add(std::move(s));
  return MetaProduct(left, right, Refined());
}

std::vector<std::string> Rendered(const MetaRelation& rel) {
  std::vector<std::string> out;
  for (const MetaTuple& tuple : rel.tuples()) {
    out.push_back(tuple.ViewLabel() + " " + tuple.ToString(DefaultVarName) +
                  " " + tuple.StructuralKey());
  }
  return out;
}

TEST(PruneHopeless, CommutesWithRemoveDuplicates) {
  const MetaRelation product = ProductWithDuplicatesAndHopeless();
  const std::map<AtomId, AtomInfo> atoms = TwoViewAtoms();
  // After the last product no operand remains; with one S operand still
  // to come, V's R tuple padded with blanks keeps its hope.
  for (const std::map<std::string, int>& remaining :
       {std::map<std::string, int>{}, std::map<std::string, int>{{"S", 1}}}) {
    SCOPED_TRACE(remaining.empty() ? "no operand left" : "one S left");
    // Vacuity: the product really holds both kinds of tuple.
    ASSERT_LT(RemoveDuplicates(product).size(), product.size());
    ASSERT_LT(PruneHopeless(product, remaining, atoms).size(),
              product.size());
    const MetaRelation prune_first =
        RemoveDuplicates(PruneHopeless(product, remaining, atoms));
    const MetaRelation dedup_first =
        PruneHopeless(RemoveDuplicates(product), remaining, atoms);
    EXPECT_FALSE(prune_first.empty());
    EXPECT_EQ(Rendered(prune_first), Rendered(dedup_first));
  }
}

TEST(PruneHopeless, DropsOnlyTuplesThatCannotComplete) {
  const MetaRelation product = ProductWithDuplicatesAndHopeless();
  const MetaRelation last =
      RemoveDuplicates(PruneHopeless(product, {}, TwoViewAtoms()));
  // V's two complete joins (x1 = x1, and the alpha-renamed x5 against x1)
  // and W's padded tuple survive; everything missing a V atom goes.
  ASSERT_EQ(last.size(), 3);
  EXPECT_EQ(last.tuples()[0].ToString(DefaultVarName), "(x1*, x1*)");
  EXPECT_EQ(last.tuples()[1].ToString(DefaultVarName), "(x5*, x1*)");
  EXPECT_EQ(last.tuples()[2].ToString(DefaultVarName), "(*, )");
  const MetaRelation one_left =
      PruneHopeless(product, {{"S", 1}}, TwoViewAtoms());
  EXPECT_GT(one_left.size(), last.size());
}

TEST(RemoveSubsumed, ProjectionSubsetWithSameSelection) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple wide;
  wide.cells().push_back(MetaCell::Blank(true));
  wide.cells().push_back(MetaCell::Blank(true));
  rel.Add(wide);
  MetaTuple narrow;
  narrow.cells().push_back(MetaCell::Blank(true));
  narrow.cells().push_back(MetaCell::Blank(false));
  rel.Add(narrow);
  MetaRelation out = RemoveSubsumed(rel);
  ASSERT_EQ(out.size(), 1);
  EXPECT_TRUE(out.tuples()[0].cells()[1].projected);
}

TEST(RemoveSubsumed, UnrestrictedTupleAbsorbsRestrictedOnes) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple full;
  full.cells().push_back(MetaCell::Blank(true));
  full.cells().push_back(MetaCell::Blank(true));
  rel.Add(full);
  MetaTuple conditional;
  conditional.cells().push_back(MetaCell::Const(Value::Int64(3), true));
  conditional.cells().push_back(MetaCell::Blank(false));
  rel.Add(conditional);
  EXPECT_EQ(RemoveSubsumed(rel).size(), 1);
}

TEST(RemoveSubsumed, KeepsIncomparableTuples) {
  MetaRelation rel(IntColumns({"A", "B"}));
  MetaTuple left;
  left.cells().push_back(MetaCell::Const(Value::Int64(3), true));
  left.cells().push_back(MetaCell::Blank(true));
  rel.Add(left);
  MetaTuple right;
  right.cells().push_back(MetaCell::Blank(true));
  right.cells().push_back(MetaCell::Const(Value::Int64(4), true));
  rel.Add(right);
  EXPECT_EQ(RemoveSubsumed(rel).size(), 2);
}

}  // namespace
}  // namespace viewauth
