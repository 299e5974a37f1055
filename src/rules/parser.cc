#include "rules/parser.h"

#include <cctype>

#include "common/string_util.h"

namespace dcer {

namespace {

enum class TokKind { kIdent, kNumber, kString, kSymbol, kArrow, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  int line = 1;  // 1-based source position of the token's first character
  int col = 1;
};

/// "<msg> at line L, column C near '<tok>'" — every parse error carries the
/// source position and the offending token, so a bad rule in a multi-line
/// rule set is locatable without bisection.
Status Err(const Token& tok, const std::string& msg) {
  std::string where =
      " at line " + std::to_string(tok.line) + ", column " +
      std::to_string(tok.col);
  if (tok.kind == TokKind::kEnd) {
    where += " (end of input)";
  } else {
    where += " near '" + tok.text + "'";
  }
  return Status::InvalidArgument(msg + where);
}

class Lexer {
 public:
  /// `first_line` is the 1-based line number of the first character of
  /// `text` in the enclosing document (rule sets lex per physical line).
  explicit Lexer(std::string_view text, int first_line = 1)
      : text_(text), line_(first_line) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (c == '\n') {
        ++line_;
        line_start_ = i + 1;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      const int col = ColAt(i);
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        out->push_back({TokKind::kIdent,
                        std::string(text_.substr(start, i - start)), line_,
                        col});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        size_t start = i;
        ++i;
        while (i < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '.')) {
          ++i;
        }
        out->push_back({TokKind::kNumber,
                        std::string(text_.substr(start, i - start)), line_,
                        col});
        continue;
      }
      if (c == '"') {
        ++i;
        std::string s;
        while (i < text_.size() && text_[i] != '"') {
          s += text_[i];
          ++i;
        }
        if (i >= text_.size()) {
          return Err({TokKind::kString, "\"" + s, line_, col},
                     "unterminated string literal");
        }
        ++i;
        out->push_back({TokKind::kString, std::move(s), line_, col});
        continue;
      }
      if (c == '-' && i + 1 < text_.size() && text_[i + 1] == '>') {
        out->push_back({TokKind::kArrow, "->", line_, col});
        i += 2;
        continue;
      }
      if (c == '(' || c == ')' || c == '[' || c == ']' || c == ',' ||
          c == '.' || c == '=' || c == '^' || c == '&' || c == ':') {
        out->push_back({TokKind::kSymbol, std::string(1, c), line_, col});
        ++i;
        continue;
      }
      return Err({TokKind::kSymbol, std::string(1, c), line_, col},
                 std::string("unexpected character '") + c + "'");
    }
    out->push_back({TokKind::kEnd, "", line_, ColAt(text_.size())});
    return Status::OK();
  }

 private:
  int ColAt(size_t i) const { return static_cast<int>(i - line_start_) + 1; }

  std::string_view text_;
  int line_;
  size_t line_start_ = 0;
};

// Recursive-descent parser over the token stream.
class RuleParser {
 public:
  RuleParser(std::vector<Token> toks, const Dataset& dataset,
             const MlRegistry& registry)
      : toks_(std::move(toks)), dataset_(dataset), registry_(registry) {}

  Status Parse(Rule* rule) {
    rule_ = rule;
    // Optional "name :" prefix: Ident followed by ':'.
    if (Peek().kind == TokKind::kIdent && Peek(1).text == ":") {
      rule_->set_name(Next().text);
      Next();  // ':'
    }
    // Precondition conjuncts.
    for (;;) {
      Status s = ParseTerm(/*is_consequence=*/false);
      if (!s.ok()) return s;
      if (Peek().kind == TokKind::kArrow) {
        Next();
        break;
      }
      if (Peek().text == "^" || Peek().text == "&") {
        Next();
        continue;
      }
      return Err(Peek(), "expected '^' or '->' after conjunct");
    }
    // Consequence.
    const Token& consequence_tok = Peek();
    Status s = ParseTerm(/*is_consequence=*/true);
    if (!s.ok()) return s;
    if (Peek().kind != TokKind::kEnd) {
      return Err(Peek(), "trailing input after consequence");
    }
    if (rule_->consequence().kind != PredicateKind::kIdEq &&
        rule_->consequence().kind != PredicateKind::kMl) {
      return Err(consequence_tok,
                 "consequence must be an id predicate or an ML predicate");
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Next() { return toks_[pos_++]; }

  // A term is a relation atom R(t), an equality predicate, an id predicate,
  // or an ML predicate.
  Status ParseTerm(bool is_consequence) {
    if (Peek().kind != TokKind::kIdent) {
      return Err(Peek(), "expected identifier, got '" + Peek().text + "'");
    }
    // Ident '(' ... : relation atom or ML predicate.
    if (Peek(1).text == "(") {
      const std::string head = Peek().text;
      int rel = dataset_.RelationIndex(head);
      int ml = registry_.Lookup(head);
      if (rel >= 0) {
        if (is_consequence) {
          return Err(Peek(), "relation atom cannot be a consequence");
        }
        return ParseRelationAtom(rel);
      }
      if (ml >= 0) return ParseMlPredicate(ml, is_consequence);
      return Err(Peek(), "unknown relation or classifier '" + head + "'");
    }
    // Otherwise: attr_ref '=' (attr_ref | const) or id predicate.
    return ParseEquality(is_consequence);
  }

  Status ParseRelationAtom(int rel) {
    Next();  // relation name
    Next();  // '('
    if (Peek().kind != TokKind::kIdent) {
      return Err(Peek(), "expected variable name in relation atom");
    }
    const Token& var_tok = Next();
    std::string var = var_tok.text;
    if (Peek().text != ")") {
      return Err(Peek(), "expected ')' in relation atom");
    }
    Next();
    if (rule_->VarIndex(var) >= 0) {
      return Err(var_tok, "duplicate variable '" + var + "'");
    }
    if (rule_->num_vars() == Rule::kMaxVars) {
      return Err(var_tok, "more than " + std::to_string(Rule::kMaxVars) +
                              " tuple variables");
    }
    rule_->AddVariable(std::move(var), rel);
    return Status::OK();
  }

  // Parses "var.attr" or "var [ a, b, ... ]". Sets *attrs; for the dotted
  // form, attrs has one element. `allow_id`: ".id" yields attr = -1.
  Status ParseVarAttrs(int* var, std::vector<int>* attrs, bool allow_id) {
    if (Peek().kind != TokKind::kIdent) {
      return Err(Peek(), "expected variable name");
    }
    const Token& var_tok = Next();
    const std::string& vname = var_tok.text;
    *var = rule_->VarIndex(vname);
    if (*var < 0) {
      return Err(var_tok,
                 "unbound variable '" + vname + "' (no relation atom)");
    }
    const Schema& schema =
        dataset_.relation(rule_->var_relation(*var)).schema();
    if (Peek().text == ".") {
      Next();
      if (Peek().kind != TokKind::kIdent) {
        return Err(Peek(), "expected attribute after '.'");
      }
      const Token& attr_tok = Next();
      const std::string& aname = attr_tok.text;
      if (aname == "id") {
        if (!allow_id) {
          return Err(attr_tok, "'.id' not allowed here");
        }
        attrs->assign(1, -1);
        return Status::OK();
      }
      int a = schema.AttrIndex(aname);
      if (a < 0) {
        return Err(attr_tok,
                   "unknown attribute '" + aname + "' of " + schema.name());
      }
      attrs->assign(1, a);
      return Status::OK();
    }
    if (Peek().text == "[") {
      Next();
      attrs->clear();
      for (;;) {
        if (Peek().kind != TokKind::kIdent) {
          return Err(Peek(), "expected attribute in vector");
        }
        const Token& attr_tok = Next();
        const std::string& aname = attr_tok.text;
        int a = schema.AttrIndex(aname);
        if (a < 0) {
          return Err(attr_tok,
                     "unknown attribute '" + aname + "' of " + schema.name());
        }
        attrs->push_back(a);
        if (Peek().text == ",") {
          Next();
          continue;
        }
        if (Peek().text == "]") {
          Next();
          return Status::OK();
        }
        return Err(Peek(), "expected ',' or ']' in vector");
      }
    }
    return Err(Peek(), "expected '.' or '[' after variable");
  }

  Status ParseMlPredicate(int ml, bool is_consequence) {
    Predicate p;
    p.kind = PredicateKind::kMl;
    p.ml_id = ml;
    const Token& name_tok = Next();  // classifier name
    p.ml_name = name_tok.text;
    Next();  // '('
    Status s = ParseVarAttrs(&p.lhs.var, &p.lhs_ml_attrs, /*allow_id=*/false);
    if (!s.ok()) return s;
    if (Peek().text != ",") {
      return Err(Peek(), "expected ',' in ML predicate");
    }
    Next();
    s = ParseVarAttrs(&p.rhs.var, &p.rhs_ml_attrs, /*allow_id=*/false);
    if (!s.ok()) return s;
    if (Peek().text != ")") {
      return Err(Peek(), "expected ')' in ML predicate");
    }
    Next();
    if (p.lhs_ml_attrs.size() != p.rhs_ml_attrs.size()) {
      return Err(name_tok, "ML predicate sides must have the same arity");
    }
    if (is_consequence) {
      rule_->set_consequence(std::move(p));
    } else {
      rule_->AddPrecondition(std::move(p));
    }
    return Status::OK();
  }

  Status ParseEquality(bool is_consequence) {
    int lvar = -1;
    std::vector<int> lattrs;
    const Token& lhs_tok = Peek();
    Status s = ParseVarAttrs(&lvar, &lattrs, /*allow_id=*/true);
    if (!s.ok()) return s;
    if (lattrs.size() != 1) {
      return Err(lhs_tok, "vector attrs only valid in ML predicate");
    }
    if (Peek().text != "=") {
      return Err(Peek(), "expected '=' in predicate");
    }
    Next();

    Predicate p;
    p.lhs = {lvar, lattrs[0]};

    if (Peek().kind == TokKind::kNumber || Peek().kind == TokKind::kString) {
      if (lattrs[0] < 0) {
        return Err(Peek(), "cannot compare .id with a constant");
      }
      const Schema& schema =
          dataset_.relation(rule_->var_relation(lvar)).schema();
      Token tok = Next();
      ValueType type = schema.attr(lattrs[0]).type;
      if (tok.kind == TokKind::kString && type != ValueType::kString) {
        return Err(tok, "string constant for non-string attr");
      }
      p.kind = PredicateKind::kConstEq;
      p.constant = Value::Parse(tok.text, type);
    } else {
      int rvar = -1;
      std::vector<int> rattrs;
      const Token& rhs_tok = Peek();
      s = ParseVarAttrs(&rvar, &rattrs, /*allow_id=*/true);
      if (!s.ok()) return s;
      if (rattrs.size() != 1) {
        return Err(rhs_tok, "vector attrs only valid in ML predicate");
      }
      bool lhs_id = lattrs[0] < 0;
      bool rhs_id = rattrs[0] < 0;
      if (lhs_id != rhs_id) {
        return Err(rhs_tok, ".id can only be compared with .id");
      }
      if (lhs_id) {
        p.kind = PredicateKind::kIdEq;
        p.rhs = {rvar, -1};
        p.lhs = {lvar, -1};
      } else {
        const Schema& ls =
            dataset_.relation(rule_->var_relation(lvar)).schema();
        const Schema& rs =
            dataset_.relation(rule_->var_relation(rvar)).schema();
        if (!ls.Compatible(lattrs[0], rs, rattrs[0])) {
          return Err(rhs_tok, "incompatible attribute types in '" +
                                  ls.attr(lattrs[0]).name + " = " +
                                  rs.attr(rattrs[0]).name + "'");
        }
        p.kind = PredicateKind::kAttrEq;
        p.rhs = {rvar, rattrs[0]};
      }
    }
    if (is_consequence) {
      rule_->set_consequence(std::move(p));
    } else {
      rule_->AddPrecondition(std::move(p));
    }
    return Status::OK();
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  const Dataset& dataset_;
  const MlRegistry& registry_;
  Rule* rule_ = nullptr;
};

// Parses one rule whose text begins at 1-based `first_line` of the
// enclosing document, so rule-set errors report true file positions.
Status ParseRuleAt(const std::string& text, int first_line,
                   const Dataset& dataset, const MlRegistry& registry,
                   Rule* rule) {
  std::vector<Token> toks;
  Status s = Lexer(text, first_line).Tokenize(&toks);
  if (!s.ok()) return s;
  *rule = Rule();
  s = RuleParser(std::move(toks), dataset, registry).Parse(rule);
  if (!s.ok()) {
    return Status::InvalidArgument(s.message() + " in rule: " + text);
  }
  return Status::OK();
}

}  // namespace

Status ParseRule(const std::string& text, const Dataset& dataset,
                 const MlRegistry& registry, Rule* rule) {
  return ParseRuleAt(text, /*first_line=*/1, dataset, registry, rule);
}

Status ParseRuleSet(const std::string& text, const Dataset& dataset,
                    const MlRegistry& registry, RuleSet* rules) {
  int line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    Rule rule;
    // Parse the untrimmed line so reported columns match the source.
    Status s = ParseRuleAt(line, line_no, dataset, registry, &rule);
    if (!s.ok()) return s;
    rules->Add(std::move(rule));
  }
  return Status::OK();
}

}  // namespace dcer
