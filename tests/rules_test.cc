#include <gtest/gtest.h>

#include <memory>

#include "rules/analysis.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// Schemas of the paper's Example 1 (id is implicit tuple identity).
class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_.AddRelation(Schema("Customers", {{"cno", ValueType::kString},
                                              {"name", ValueType::kString},
                                              {"phone", ValueType::kString},
                                              {"addr", ValueType::kString},
                                              {"pref", ValueType::kString}}));
    dataset_.AddRelation(Schema("Shops", {{"sno", ValueType::kString},
                                          {"sname", ValueType::kString},
                                          {"owner", ValueType::kString},
                                          {"email", ValueType::kString},
                                          {"loc", ValueType::kString}}));
    dataset_.AddRelation(Schema("Products", {{"pno", ValueType::kString},
                                             {"pname", ValueType::kString},
                                             {"price", ValueType::kInt},
                                             {"desc", ValueType::kString}}));
    dataset_.AddRelation(Schema("Orders", {{"ono", ValueType::kString},
                                           {"buyer", ValueType::kString},
                                           {"seller", ValueType::kString},
                                           {"item", ValueType::kString},
                                           {"IP", ValueType::kString}}));
    registry_.Register(std::make_unique<EmbeddingCosineClassifier>("M1", 0.7));
    registry_.Register(std::make_unique<EditSimilarityClassifier>("M2", 0.6));
    registry_.Register(std::make_unique<EditSimilarityClassifier>("M3", 0.6));
    registry_.Register(std::make_unique<TokenJaccardClassifier>("M4", 0.3));
  }

  Dataset dataset_;
  MlRegistry registry_;
};

TEST_F(RulesTest, ParsePlainMdRule) {
  Rule r;
  Status s = ParseRule(
      "phi1: Customers(t) ^ Customers(s) ^ t.name = s.name ^ "
      "t.phone = s.phone ^ t.addr = s.addr -> t.id = s.id",
      dataset_, registry_, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.name(), "phi1");
  EXPECT_EQ(r.num_vars(), 2u);
  EXPECT_EQ(r.var_relation(0), 0);
  EXPECT_EQ(r.preconditions().size(), 3u);
  EXPECT_EQ(r.consequence().kind, PredicateKind::kIdEq);
  EXPECT_FALSE(r.HasIdPrecondition());
  EXPECT_FALSE(r.HasMlPredicate());
  EXPECT_EQ(r.num_predicates(), 4u);
}

TEST_F(RulesTest, ParseMlPredicateDottedAndVectorForms) {
  Rule r;
  ASSERT_TRUE(ParseRule("Products(t) ^ Products(s) ^ t.pname = s.pname ^ "
                        "M1(t.desc, s.desc) -> t.id = s.id",
                        dataset_, registry_, &r)
                  .ok());
  ASSERT_EQ(r.preconditions().size(), 2u);
  const Predicate& ml = r.preconditions()[1];
  EXPECT_EQ(ml.kind, PredicateKind::kMl);
  EXPECT_EQ(ml.ml_name, "M1");
  EXPECT_EQ(ml.lhs_ml_attrs, std::vector<int>{3});

  Rule r2;
  ASSERT_TRUE(ParseRule("Products(t) ^ Products(s) ^ "
                        "M1(t[pname,desc], s[pname,desc]) -> t.id = s.id",
                        dataset_, registry_, &r2)
                  .ok());
  EXPECT_EQ(r2.preconditions()[0].lhs_ml_attrs, (std::vector<int>{1, 3}));
}

TEST_F(RulesTest, ParseCollectiveRuleWithIdPrecondition) {
  // The paper's phi4 (8 tuple variables, deep + collective).
  Rule r;
  Status s = ParseRule(
      "phi4: Customers(tc) ^ Customers(tc2) ^ Orders(to) ^ Orders(to2) ^ "
      "Products(tp) ^ Products(tp2) ^ Shops(ts) ^ Shops(ts2) ^ "
      "tc.cno = to.buyer ^ tc2.cno = to2.buyer ^ to.item = tp.pno ^ "
      "to2.item = tp2.pno ^ to.seller = ts.sno ^ to2.seller = ts2.sno ^ "
      "M3(tc.name, tc2.name) ^ tc.addr = tc2.addr ^ to.IP = to2.IP ^ "
      "tp.id = tp2.id ^ ts.id = ts2.id -> tc.id = tc2.id",
      dataset_, registry_, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.num_vars(), 8u);
  EXPECT_TRUE(r.HasIdPrecondition());
  EXPECT_TRUE(r.HasMlPredicate());
}

TEST_F(RulesTest, ParseMlConsequence) {
  // phi5: consequence is an ML predicate (validated prediction).
  Rule r;
  Status s = ParseRule(
      "phi5: Customers(tc) ^ Customers(tc2) ^ Orders(to) ^ Orders(to2) ^ "
      "tc.cno = to.buyer ^ tc2.cno = to2.buyer ^ to.item = to2.item "
      "-> M4(tc.pref, tc2.pref)",
      dataset_, registry_, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.consequence().kind, PredicateKind::kMl);
}

TEST_F(RulesTest, ParseConstantPredicates) {
  Rule r;
  ASSERT_TRUE(ParseRule("Products(t) ^ Products(s) ^ t.price = 0 ^ "
                        "t.pname = \"Disney\" ^ t.desc = s.desc -> t.id = s.id",
                        dataset_, registry_, &r)
                  .ok());
  EXPECT_EQ(r.preconditions()[0].kind, PredicateKind::kConstEq);
  EXPECT_EQ(r.preconditions()[0].constant, Value(int64_t{0}));
  EXPECT_EQ(r.preconditions()[1].constant, Value("Disney"));
}

TEST_F(RulesTest, ParserErrors) {
  Rule r;
  // Unknown relation.
  EXPECT_FALSE(ParseRule("Nope(t) -> t.id = t.id", dataset_, registry_, &r)
                   .ok());
  // Unbound variable.
  EXPECT_FALSE(ParseRule("Customers(t) ^ s.name = t.name -> t.id = t.id",
                         dataset_, registry_, &r)
                   .ok());
  // Unknown attribute.
  EXPECT_FALSE(ParseRule("Customers(t) ^ Customers(s) ^ t.nope = s.name -> "
                         "t.id = s.id",
                         dataset_, registry_, &r)
                   .ok());
  // Type-incompatible equality.
  EXPECT_FALSE(ParseRule("Products(t) ^ Products(s) ^ t.price = s.desc -> "
                         "t.id = s.id",
                         dataset_, registry_, &r)
                   .ok());
  // Consequence must be id or ML.
  EXPECT_FALSE(ParseRule("Customers(t) ^ Customers(s) ^ t.name = s.name -> "
                         "t.phone = s.phone",
                         dataset_, registry_, &r)
                   .ok());
  // Duplicate variable name.
  EXPECT_FALSE(ParseRule("Customers(t) ^ Customers(t) ^ t.name = t.name -> "
                         "t.id = t.id",
                         dataset_, registry_, &r)
                   .ok());
  // id compared with constant.
  EXPECT_FALSE(ParseRule("Customers(t) ^ Customers(s) ^ t.id = \"x\" -> "
                         "t.id = s.id",
                         dataset_, registry_, &r)
                   .ok());
  // Unknown classifier.
  EXPECT_FALSE(ParseRule("Customers(t) ^ Customers(s) ^ M9(t.name, s.name) -> "
                         "t.id = s.id",
                         dataset_, registry_, &r)
                   .ok());
}

// The joiner keys its binding plans by a 64-bit variable mask, so a rule
// with a 65th tuple variable is refused at parse time instead of reaching it.
TEST_F(RulesTest, ParserRefusesMoreThan64TupleVariables) {
  auto rule_with = [](size_t vars) {
    std::string text = "Customers(u) ^ Customers(w)";
    for (size_t i = 2; i < vars; ++i) {
      text += " ^ Customers(t" + std::to_string(i) + ")";
    }
    return text + " -> u.id = w.id";
  };
  Rule r;
  Status s = ParseRule(rule_with(Rule::kMaxVars), dataset_, registry_, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.num_vars(), 64u);

  Rule over;
  s = ParseRule(rule_with(Rule::kMaxVars + 1), dataset_, registry_, &over);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("more than 64 tuple variables"),
            std::string::npos)
      << s.message();
}

// Each malformed-predicate class must name the source position and the
// offending token in the Status message.
TEST_F(RulesTest, ParserDiagnosticsCarryLineColumnAndToken) {
  auto expect_diag = [&](const std::string& text, const std::string& substr) {
    Rule r;
    Status s = ParseRule(text, dataset_, registry_, &r);
    ASSERT_FALSE(s.ok()) << "expected failure for: " << text;
    EXPECT_NE(s.message().find(substr), std::string::npos)
        << "message '" << s.message() << "' lacks '" << substr << "'";
    EXPECT_NE(s.message().find("line 1"), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("column"), std::string::npos) << s.message();
  };
  // Unknown relation/classifier: head token at column 1.
  expect_diag("Nope(t) -> t.id = t.id",
              "unknown relation or classifier 'Nope' at line 1, column 1");
  // Unbound variable.
  expect_diag("Customers(t) ^ s.name = t.name -> t.id = t.id",
              "unbound variable 's'");
  // Unknown attribute names the token and its column.
  expect_diag("Customers(t) ^ Customers(s) ^ t.nope = s.name -> t.id = s.id",
              "unknown attribute 'nope' of Customers at line 1, column 33");
  // Type-incompatible equality.
  expect_diag("Products(t) ^ Products(s) ^ t.price = s.desc -> t.id = s.id",
              "incompatible attribute types");
  // Consequence must be an id or ML predicate.
  expect_diag(
      "Customers(t) ^ Customers(s) ^ t.name = s.name -> t.phone = s.phone",
      "consequence must be an id predicate or an ML predicate");
  // Duplicate variable points at the second binding.
  expect_diag("Customers(t) ^ Customers(t) ^ t.name = t.name -> t.id = t.id",
              "duplicate variable 't' at line 1, column 26");
  // .id compared with a constant.
  expect_diag("Customers(t) ^ Customers(s) ^ t.id = \"x\" -> t.id = s.id",
              "cannot compare .id with a constant");
  // ML predicate arity mismatch points at the classifier name.
  expect_diag(
      "Customers(t) ^ Customers(s) ^ M1(t[name,addr], s.name) -> t.id = s.id",
      "ML predicate sides must have the same arity");
  // Missing ')' in a relation atom.
  expect_diag("Customers(t ^ Customers(s) -> t.id = s.id",
              "expected ')' in relation atom");
  // Lexer: unexpected character, with its exact column.
  expect_diag("Customers(t) @ t.name -> t.id = t.id",
              "unexpected character '@' at line 1, column 14");
  // Lexer: unterminated string literal.
  expect_diag("Customers(t) ^ t.name = \"oops -> t.id = t.id",
              "unterminated string literal");
}

TEST_F(RulesTest, ParserDiagnosticsEndOfInput) {
  Rule r;
  Status s = ParseRule("Customers(t) ^ Customers(s) ^ t.name = s.name ->",
                       dataset_, registry_, &r);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("(end of input)"), std::string::npos)
      << s.message();
}

TEST_F(RulesTest, ParseRuleSetReportsTrueLineNumbers) {
  RuleSet rules;
  Status s = ParseRuleSet(
      "# header comment\n"
      "Customers(t) ^ Customers(s) ^ t.phone = s.phone -> t.id = s.id\n"
      "\n"
      "Customers(t) ^ Customers(s) ^ t.nope = s.name -> t.id = s.id\n",
      dataset_, registry_, &rules);
  ASSERT_FALSE(s.ok());
  // The bad attribute is on physical line 4, column 33.
  EXPECT_NE(s.message().find("at line 4, column 33 near 'nope'"),
            std::string::npos)
      << s.message();
}

TEST_F(RulesTest, ToStringParsesBack) {
  const std::string text =
      "phi2: Products(t) ^ Products(s) ^ t.pname = s.pname ^ "
      "M1(t.desc, s.desc) -> t.id = s.id";
  Rule r;
  ASSERT_TRUE(ParseRule(text, dataset_, registry_, &r).ok());
  std::string printed = r.ToString(dataset_);
  Rule r2;
  ASSERT_TRUE(ParseRule(printed, dataset_, registry_, &r2).ok())
      << "re-parse failed for: " << printed;
  EXPECT_EQ(r2.ToString(dataset_), printed);
}

TEST_F(RulesTest, ParseRuleSetSkipsCommentsAndBlankLines) {
  RuleSet rules;
  Status s = ParseRuleSet(
      "# comment\n"
      "\n"
      "Customers(t) ^ Customers(s) ^ t.phone = s.phone -> t.id = s.id\n"
      "Products(t) ^ Products(s) ^ M1(t.desc, s.desc) -> t.id = s.id\n",
      dataset_, registry_, &rules);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules.MaxVars(), 2u);
  EXPECT_DOUBLE_EQ(rules.AvgPredicates(), 2.0);
}

TEST_F(RulesTest, SignatureSharingAcrossRules) {
  // phi1 and phi4-style rules share the phone/addr predicates (the basis of
  // MQO sharing, Example 5 of the paper).
  Rule a;
  Rule b;
  ASSERT_TRUE(ParseRule("Customers(t) ^ Customers(s) ^ t.phone = s.phone -> "
                        "t.id = s.id",
                        dataset_, registry_, &a)
                  .ok());
  ASSERT_TRUE(ParseRule("Customers(x) ^ Customers(y) ^ x.phone = y.phone ^ "
                        "x.addr = y.addr -> x.id = y.id",
                        dataset_, registry_, &b)
                  .ok());
  EXPECT_EQ(a.preconditions()[0].Signature(a.var_relations()),
            b.preconditions()[0].Signature(b.var_relations()));
  EXPECT_NE(a.preconditions()[0].Signature(a.var_relations()),
            b.preconditions()[1].Signature(b.var_relations()));
  // Symmetry: t.A = s.B has the same signature as s.B = t.A.
  Rule c;
  ASSERT_TRUE(ParseRule("Customers(p) ^ Customers(q) ^ q.phone = p.phone -> "
                        "p.id = q.id",
                        dataset_, registry_, &c)
                  .ok());
  EXPECT_EQ(a.preconditions()[0].Signature(a.var_relations()),
            c.preconditions()[0].Signature(c.var_relations()));
}

TEST_F(RulesTest, ClassifyRuleSetFragments) {
  auto parse = [&](const std::string& text) {
    Rule r;
    Status s = ParseRule(text, dataset_, registry_, &r);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return r;
  };
  Rule basic = parse(
      "Customers(t) ^ Customers(s) ^ t.phone = s.phone -> t.id = s.id");
  Rule deep = parse(
      "Shops(a) ^ Shops(b) ^ Customers(c) ^ Customers(d) ^ a.owner = c.cno ^ "
      "b.owner = d.cno ^ c.id = d.id -> a.id = b.id");
  Rule collective = parse(
      "phiC: Customers(t1) ^ Customers(t2) ^ Orders(o1) ^ Orders(o2) ^ "
      "Shops(s1) ^ Shops(s2) ^ t1.cno = o1.buyer ^ t2.cno = o2.buyer ^ "
      "o1.seller = s1.sno ^ o2.seller = s2.sno ^ s1.email = s2.email -> "
      "t1.id = t2.id");

  RuleSet only_basic;
  only_basic.Add(basic);
  EXPECT_EQ(ClassifyRuleSet(only_basic), ErFragment::kBasic);

  RuleSet deep_set;
  deep_set.Add(basic);
  deep_set.Add(deep);
  EXPECT_EQ(ClassifyRuleSet(deep_set), ErFragment::kDeep);

  RuleSet coll_set;
  coll_set.Add(collective);
  EXPECT_EQ(ClassifyRuleSet(coll_set), ErFragment::kCollective);

  RuleSet both;
  both.Add(deep);
  both.Add(collective);
  EXPECT_EQ(ClassifyRuleSet(both), ErFragment::kDeepCollective);
  EXPECT_STREQ(ErFragmentName(ErFragment::kDeepCollective),
               "deep+collective");
}

TEST_F(RulesTest, AcyclicityOfChainVsCycle) {
  // Chain join customers-orders-shops: acyclic.
  Rule chain;
  ASSERT_TRUE(ParseRule(
                  "Customers(c) ^ Orders(o) ^ Shops(s) ^ c.cno = o.buyer ^ "
                  "o.seller = s.sno ^ s.email = c.addr -> c.id = c.id",
                  dataset_, registry_, &chain)
                  .ok());
  // Note: the above closes a triangle c-o-s; expect cyclic.
  EXPECT_FALSE(IsAcyclic(chain));

  Rule path;
  ASSERT_TRUE(ParseRule("Customers(c) ^ Orders(o) ^ Shops(s) ^ "
                        "c.cno = o.buyer ^ o.seller = s.sno -> c.id = c.id",
                        dataset_, registry_, &path)
                  .ok());
  EXPECT_TRUE(IsAcyclic(path));

  // Two-variable MD-style rules are always acyclic.
  Rule md;
  ASSERT_TRUE(ParseRule("Customers(t) ^ Customers(s) ^ t.name = s.name ^ "
                        "t.phone = s.phone -> t.id = s.id",
                        dataset_, registry_, &md)
                  .ok());
  EXPECT_TRUE(IsAcyclic(md));

  RuleSet set;
  set.Add(path);
  set.Add(md);
  EXPECT_TRUE(AllAcyclic(set));
  set.Add(chain);
  EXPECT_FALSE(AllAcyclic(set));
}

TEST_F(RulesTest, MaxMatchesBoundFormula) {
  RuleSet rules;
  Rule r;
  ASSERT_TRUE(ParseRule("Customers(t) ^ Customers(s) ^ t.phone = s.phone -> "
                        "t.id = s.id",
                        dataset_, registry_, &r)
                  .ok());
  rules.Add(r);
  // ||Sigma|| * (|Sigma|+1) * |D|^2 = 1 * 3 * 100.
  EXPECT_EQ(MaxMatchesBound(rules, 10), 300u);
}

}  // namespace
}  // namespace dcer
