// Unit tests for MetaCell / MetaTuple / MetaRelation representation.

#include "meta/meta_tuple.h"

#include <gtest/gtest.h>

namespace viewauth {
namespace {

TEST(MetaCell, PaperNotation) {
  auto namer = DefaultVarName;
  EXPECT_EQ(MetaCell::Blank().ToString(namer), "");
  EXPECT_EQ(MetaCell::Blank(true).ToString(namer), "*");
  EXPECT_EQ(MetaCell::Const(Value::String("Acme"), false).ToString(namer),
            "Acme");
  EXPECT_EQ(MetaCell::Const(Value::String("Acme"), true).ToString(namer),
            "Acme*");
  EXPECT_EQ(MetaCell::Var(1, false).ToString(namer), "x1");
  EXPECT_EQ(MetaCell::Var(1, true).ToString(namer), "x1*");
}

TEST(MetaCell, Equality) {
  EXPECT_EQ(MetaCell::Blank(), MetaCell::Blank());
  EXPECT_FALSE(MetaCell::Blank() == MetaCell::Blank(true));
  EXPECT_EQ(MetaCell::Var(3, true), MetaCell::Var(3, true));
  EXPECT_FALSE(MetaCell::Var(3, true) == MetaCell::Var(4, true));
  EXPECT_FALSE(MetaCell::Const(Value::Int64(1), true) ==
               MetaCell::Var(1, true));
}

MetaTuple ElpEmployeeTuple() {
  // (x1*, *, _) with x1 defined over atoms {1, 3} and origin {1}.
  MetaTuple t;
  t.cells().push_back(MetaCell::Var(1, true));
  t.cells().push_back(MetaCell::Blank(true));
  t.cells().push_back(MetaCell::Blank(false));
  t.views().insert("ELP");
  t.var_atoms()[1] = {1, 3};
  t.origin_atoms().insert(1);
  return t;
}

TEST(MetaTuple, CellVarsAndPositions) {
  MetaTuple t = ElpEmployeeTuple();
  EXPECT_EQ(t.CellVars(), std::set<VarId>{1});
  EXPECT_EQ(t.CellsOfVar(1), std::vector<int>{0});
  EXPECT_TRUE(t.CellsOfVar(99).empty());
}

TEST(MetaTuple, DanglingDetection) {
  MetaTuple t = ElpEmployeeTuple();
  EXPECT_TRUE(t.HasDanglingVariable());  // atom 3 uncovered
  t.origin_atoms().insert(3);
  EXPECT_FALSE(t.HasDanglingVariable());
  // Synthetic variables (no var_atoms entry) never dangle.
  MetaTuple synth;
  synth.cells().push_back(MetaCell::Var(1000001, true));
  EXPECT_FALSE(synth.HasDanglingVariable());
}

TEST(MetaTuple, ClearVariableRemovesEverything) {
  MetaTuple t = ElpEmployeeTuple();
  t.constraints().AddTermConst(1, Comparator::kGe, Value::Int64(5));
  t.ClearVariable(1);
  EXPECT_TRUE(t.cells()[0].is_blank());
  EXPECT_TRUE(t.cells()[0].projected);  // star preserved
  EXPECT_EQ(t.constraints().atom_count(), 0);
  EXPECT_FALSE(t.var_atoms().contains(1));
  EXPECT_FALSE(t.HasDanglingVariable());
}

TEST(MetaTuple, ViewLabelJoinsSorted) {
  MetaTuple t;
  t.views().insert("SAE");
  t.views().insert("EST");
  EXPECT_EQ(t.ViewLabel(), "EST,SAE");
}

TEST(MetaTuple, StructuralKeyAlphaEquivalence) {
  MetaTuple a = ElpEmployeeTuple();
  MetaTuple b = ElpEmployeeTuple();
  // Rename variable 1 -> 7 consistently in b.
  b.cells()[0] = MetaCell::Var(7, true);
  b.var_atoms().clear();
  b.var_atoms()[7] = {1, 3};
  EXPECT_EQ(a.StructuralKey(), b.StructuralKey());

  // Different constraints break equivalence.
  b.constraints().AddTermConst(7, Comparator::kGe, Value::Int64(10));
  EXPECT_NE(a.StructuralKey(), b.StructuralKey());
}

TEST(MetaTuple, StructuralKeyProvenanceToggle) {
  MetaTuple a = ElpEmployeeTuple();
  MetaTuple b = ElpEmployeeTuple();
  b.origin_atoms().clear();
  b.origin_atoms().insert(3);
  EXPECT_NE(a.StructuralKey(true), b.StructuralKey(true));
  EXPECT_EQ(a.StructuralKey(false), b.StructuralKey(false));
}

TEST(MetaTuple, StructuralKeyIsPrintable) {
  // Cells, then '#' and the constraints, then '@' origins '@' per-variable
  // atom sets; variables by first-occurrence index.
  MetaTuple t = ElpEmployeeTuple();
  EXPECT_EQ(t.StructuralKey(), "v0*|*||#@1,@v0:1,3,;");
  EXPECT_EQ(t.StructuralKey(false), "v0*|*||#");
  t.constraints().AddTermConst(1, Comparator::kGe, Value::Int64(10));
  EXPECT_EQ(t.StructuralKey(false), "v0*|*||#v0 >= i10");
}

TEST(MetaTuple, StructuralKeyTellsStringConstantFromVariable) {
  // A string constant spelled like a local variable name must not render
  // like the variable: the final, provenance-free duplicate elimination
  // would otherwise drop a different permitted subview.
  MetaTuple constant;
  constant.cells().push_back(MetaCell::Const(Value::String("v0"), true));
  constant.cells().push_back(MetaCell::Const(Value::String("v0"), true));
  MetaTuple variable;
  variable.cells().push_back(MetaCell::Var(1, true));
  variable.cells().push_back(MetaCell::Var(1, true));
  EXPECT_NE(constant.StructuralKey(false), variable.StructuralKey(false));
  EXPECT_NE(constant.StructuralKey(true), variable.StructuralKey(true));
  EXPECT_NE(constant.SelectionKey(), variable.SelectionKey());
}

TEST(MetaTuple, StructuralKeyIsTyped) {
  MetaTuple number;
  number.cells().push_back(MetaCell::Const(Value::Int64(5), true));
  MetaTuple text;
  text.cells().push_back(MetaCell::Const(Value::String("5"), true));
  EXPECT_NE(number.StructuralKey(false), text.StructuralKey(false));

  // The same holds inside constraints.
  MetaTuple a = ElpEmployeeTuple();
  MetaTuple b = ElpEmployeeTuple();
  a.constraints().AddTermConst(1, Comparator::kEq, Value::Int64(5));
  b.constraints().AddTermConst(1, Comparator::kEq, Value::String("5"));
  EXPECT_NE(a.StructuralKey(), b.StructuralKey());
}

TEST(MetaTuple, SelectionKeyIgnoresStarsAndProvenance) {
  MetaTuple a = ElpEmployeeTuple();
  MetaTuple b = ElpEmployeeTuple();
  b.cells()[1].projected = false;
  b.origin_atoms().clear();
  b.origin_atoms().insert(3);
  EXPECT_NE(a.StructuralKey(false), b.StructuralKey(false));
  EXPECT_EQ(a.SelectionKey(), b.SelectionKey());
  b.constraints().AddTermConst(1, Comparator::kLt, Value::Int64(3));
  EXPECT_NE(a.SelectionKey(), b.SelectionKey());
}

TEST(MetaTuple, ToStringMatchesPaperStyle) {
  MetaTuple t = ElpEmployeeTuple();
  EXPECT_EQ(t.ToString(DefaultVarName), "(x1*, *, )");
}

TEST(MetaRelation, TableRendering) {
  MetaRelation rel({Attribute{"NAME", ValueType::kString},
                    Attribute{"SALARY", ValueType::kInt64}});
  MetaTuple t;
  t.cells().push_back(MetaCell::Blank(true));
  t.cells().push_back(MetaCell::Blank(true));
  t.views().insert("SAE");
  rel.Add(t);
  std::string rendered = rel.ToString(DefaultVarName);
  EXPECT_NE(rendered.find("VIEW"), std::string::npos);
  EXPECT_NE(rendered.find("SAE"), std::string::npos);
  EXPECT_NE(rendered.find("NAME"), std::string::npos);
  EXPECT_EQ(rel.arity(), 2);
  EXPECT_EQ(rel.size(), 1);
}

}  // namespace
}  // namespace viewauth
