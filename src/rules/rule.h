#ifndef DCER_RULES_RULE_H_
#define DCER_RULES_RULE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "rules/predicate.h"

namespace dcer {

/// An MRL φ = X -> l (Sec. II): tuple variables bound by relation atoms, a
/// conjunction X of predicates, and a consequence l that is either an id
/// predicate or an ML predicate.
class Rule {
 public:
  /// Most tuple variables a rule may declare: the joiner keys its binding
  /// plans by a 64-bit mask of bound variables. ParseRule refuses more.
  static constexpr size_t kMaxVars = 64;

  Rule() = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a tuple variable bound by relation atom R(var); returns its index.
  int AddVariable(std::string var_name, int relation);

  size_t num_vars() const { return var_relation_.size(); }
  int var_relation(int var) const { return var_relation_[var]; }
  const std::vector<int>& var_relations() const { return var_relation_; }
  const std::string& var_name(int var) const { return var_names_[var]; }
  const std::vector<std::string>& var_names() const { return var_names_; }

  /// Index of the variable with this name, or -1.
  int VarIndex(std::string_view var_name) const;

  void AddPrecondition(Predicate p) { preconditions_.push_back(std::move(p)); }
  const std::vector<Predicate>& preconditions() const { return preconditions_; }

  void set_consequence(Predicate p) { consequence_ = std::move(p); }
  const Predicate& consequence() const { return consequence_; }

  /// Number of predicates |φ| (preconditions + consequence), the knob of
  /// Fig. 6(e)-(f).
  size_t num_predicates() const { return preconditions_.size() + 1; }

  /// True if some precondition is an id predicate (the "deep"/recursive
  /// ingredient; DMatch_C excludes such rules).
  bool HasIdPrecondition() const;

  /// True if some precondition or the consequence is an ML predicate.
  bool HasMlPredicate() const;

  std::string ToString(const Dataset& dataset) const;

 private:
  std::string name_;
  std::vector<int> var_relation_;       // var index -> relation index
  std::vector<std::string> var_names_;  // var index -> display name
  std::vector<Predicate> preconditions_;
  Predicate consequence_;
};

/// A set Σ of MRLs plus the aggregate quantities the paper's complexity
/// bounds use: ‖Σ‖ (number of rules) and |Σ| (max tuple variables per rule).
class RuleSet {
 public:
  RuleSet() = default;

  void Add(Rule rule) { rules_.push_back(std::move(rule)); }
  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const Rule& rule(size_t i) const { return rules_[i]; }
  const std::vector<Rule>& rules() const { return rules_; }

  /// |Σ|: maximum number of tuple variables over all rules.
  size_t MaxVars() const;

  /// Average number of predicates per rule (the |φ| knob).
  double AvgPredicates() const;

  std::string ToString(const Dataset& dataset) const;

 private:
  std::vector<Rule> rules_;
};

}  // namespace dcer

#endif  // DCER_RULES_RULE_H_
