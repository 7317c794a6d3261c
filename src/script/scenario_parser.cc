#include "script/scenario_parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/strings.h"

namespace wvm {

namespace {

// Splits a line into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

Status LineError(int line, const std::string& message) {
  return Status::InvalidArgument(StrCat("line ", line, ": ", message));
}

// Parses the whole of `token` as a decimal integer in int64 range.
Result<int64_t> ParseInt(const std::string& token, int line) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return LineError(line, StrCat("bad int literal '", token, "'"));
  }
  if (errno == ERANGE) {
    return LineError(line, StrCat("int literal '", token, "' out of range"));
  }
  return static_cast<int64_t>(v);
}

Result<ValueType> ParseType(const std::string& name, int line) {
  if (name == "int") {
    return ValueType::kInt;
  }
  if (name == "double") {
    return ValueType::kDouble;
  }
  if (name == "string") {
    return ValueType::kString;
  }
  return LineError(line, StrCat("unknown type '", name, "'"));
}

// Parses "W:int" or "W:int:key".
Result<Attribute> ParseAttribute(const std::string& spec, int line) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : spec) {
    if (c == ':') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
    return LineError(line,
                     StrCat("bad attribute spec '", spec,
                            "' (want name:type or name:type:key)"));
  }
  WVM_ASSIGN_OR_RETURN(ValueType type, ParseType(parts[1], line));
  bool is_key = false;
  if (parts.size() == 3) {
    if (parts[2] != "key") {
      return LineError(line, StrCat("bad attribute flag '", parts[2], "'"));
    }
    is_key = true;
  }
  return Attribute{parts[0], type, is_key};
}

Result<Value> ParseValue(const std::string& token, ValueType type, int line) {
  switch (type) {
    case ValueType::kInt: {
      WVM_ASSIGN_OR_RETURN(int64_t v, ParseInt(token, line));
      return Value(v);
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(token.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return LineError(line, StrCat("bad double literal '", token, "'"));
      }
      return Value(v);
    }
    case ValueType::kString:
      return Value(token);
  }
  return LineError(line, "unknown type");
}

Result<Tuple> ParseTuple(const std::vector<std::string>& tokens, size_t begin,
                         const Schema& schema, int line) {
  if (tokens.size() - begin != schema.size()) {
    return LineError(line, StrCat("expected ", schema.size(), " values, got ",
                                  tokens.size() - begin));
  }
  std::vector<Value> values;
  for (size_t i = 0; i < schema.size(); ++i) {
    WVM_ASSIGN_OR_RETURN(
        Value v,
        ParseValue(tokens[begin + i], schema.attribute(i).type, line));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

Result<CompareOp> ParseOp(const std::string& token, int line) {
  if (token == "=") return CompareOp::kEq;
  if (token == "!=") return CompareOp::kNe;
  if (token == "<") return CompareOp::kLt;
  if (token == "<=") return CompareOp::kLe;
  if (token == ">") return CompareOp::kGt;
  if (token == ">=") return CompareOp::kGe;
  return LineError(line, StrCat("unknown comparison '", token, "'"));
}

// A condition operand: an int constant if it starts like a number, else an
// attribute name.
Result<Operand> ParseOperand(const std::string& token, int line) {
  if (std::isdigit(static_cast<unsigned char>(token[0])) == 0 &&
      token[0] != '-') {
    return Operand::Attr(token);
  }
  WVM_ASSIGN_OR_RETURN(int64_t v, ParseInt(token, line));
  return Operand::ConstInt(v);
}

// Parses "A > B and X = 3 ..." starting at tokens[begin].
Result<Predicate> ParseCondition(const std::vector<std::string>& tokens,
                                 size_t begin, int line) {
  Predicate cond = Predicate::True();
  size_t i = begin;
  while (i < tokens.size()) {
    if (i + 3 > tokens.size()) {
      return LineError(line, "dangling condition (want LHS OP RHS)");
    }
    WVM_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(tokens[i], line));
    WVM_ASSIGN_OR_RETURN(CompareOp op, ParseOp(tokens[i + 1], line));
    WVM_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(tokens[i + 2], line));
    cond = Predicate::And(std::move(cond),
                          Predicate::Compare(lhs, op, rhs));
    i += 3;
    if (i < tokens.size()) {
      if (tokens[i] != "and") {
        return LineError(line, StrCat("expected 'and', got '", tokens[i],
                                      "'"));
      }
      ++i;
    }
  }
  return cond;
}

// Parses one "insert r1 1 2" / "delete r1 1 2" clause.
Result<Update> ParseUpdateClause(const std::vector<std::string>& tokens,
                                 size_t begin, size_t end,
                                 const ScenarioSpec& spec, int line) {
  if (end - begin < 2) {
    return LineError(line, "update wants: insert|delete RELATION values...");
  }
  const std::string& kind = tokens[begin];
  if (kind != "insert" && kind != "delete") {
    return LineError(line, StrCat("unknown update kind '", kind, "'"));
  }
  const std::string& relation = tokens[begin + 1];
  const Schema* schema = nullptr;
  for (const BaseRelationDef& def : spec.defs) {
    if (def.name == relation) {
      schema = &def.schema;
      break;
    }
  }
  if (schema == nullptr) {
    return LineError(line, StrCat("unknown relation '", relation, "'"));
  }
  std::vector<std::string> slice(tokens.begin() + begin + 2,
                                 tokens.begin() + end);
  WVM_ASSIGN_OR_RETURN(Tuple t, ParseTuple(slice, 0, *schema, line));
  return kind == "insert" ? Update::Insert(relation, std::move(t))
                          : Update::Delete(relation, std::move(t));
}

// Parses "[1,4]" against `schema`.
Result<Tuple> ParseBracketTuple(const std::string& token,
                                const Schema& schema, int line) {
  if (token.size() < 2 || token.front() != '[' || token.back() != ']') {
    return LineError(line, StrCat("bad tuple literal '", token, "'"));
  }
  std::vector<std::string> parts;
  std::string current;
  for (size_t i = 1; i + 1 < token.size(); ++i) {
    if (token[i] == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current += token[i];
    }
  }
  parts.push_back(current);
  return ParseTuple(parts, 0, schema, line);
}

}  // namespace

Result<ScenarioSpec> ParseScenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream is(text);
  std::string raw_line;
  int line = 0;

  while (std::getline(is, raw_line)) {
    ++line;
    const size_t hash = raw_line.find('#');
    if (hash != std::string::npos) {
      raw_line.resize(hash);
    }
    std::vector<std::string> tokens = Tokenize(raw_line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& keyword = tokens[0];

    if (keyword == "relation") {
      if (spec.view != nullptr) {
        return LineError(line, "relations must precede the view");
      }
      if (tokens.size() < 3) {
        return LineError(line, "relation wants: relation NAME attr:type...");
      }
      std::vector<Attribute> attrs;
      for (size_t i = 2; i < tokens.size(); ++i) {
        WVM_ASSIGN_OR_RETURN(Attribute a, ParseAttribute(tokens[i], line));
        attrs.push_back(std::move(a));
      }
      BaseRelationDef def{tokens[1], Schema(std::move(attrs))};
      WVM_RETURN_IF_ERROR(spec.initial.Define(def));
      spec.defs.push_back(std::move(def));
    } else if (keyword == "tuple") {
      if (tokens.size() < 2) {
        return LineError(line, "tuple wants: tuple RELATION values...");
      }
      Result<Schema> schema = spec.initial.GetSchema(tokens[1]);
      if (!schema.ok()) {
        return LineError(line, schema.status().message());
      }
      WVM_ASSIGN_OR_RETURN(Tuple t, ParseTuple(tokens, 2, *schema, line));
      WVM_RETURN_IF_ERROR(spec.initial.Apply(Update::Insert(tokens[1], t)));
    } else if (keyword == "view") {
      if (tokens.size() < 4 || tokens[2] != "project") {
        return LineError(line,
                         "view wants: view NAME project ATTRS... [where ...]");
      }
      std::vector<std::string> projection;
      size_t i = 3;
      while (i < tokens.size() && tokens[i] != "where") {
        projection.push_back(tokens[i]);
        ++i;
      }
      Predicate cond = Predicate::True();
      if (i < tokens.size()) {
        WVM_ASSIGN_OR_RETURN(cond, ParseCondition(tokens, i + 1, line));
      }
      Result<ViewDefinitionPtr> view = ViewDefinition::NaturalJoin(
          tokens[1], spec.defs, std::move(projection), std::move(cond));
      if (!view.ok()) {
        return LineError(line, view.status().message());
      }
      spec.view = *view;
    } else if (keyword == "algorithm") {
      if (tokens.size() != 2) {
        return LineError(line, "algorithm wants one name");
      }
      Result<Algorithm> algorithm = ParseAlgorithm(tokens[1]);
      if (!algorithm.ok()) {
        return LineError(line, algorithm.status().message());
      }
      spec.algorithm = *algorithm;
    } else if (keyword == "replicate") {
      if (tokens.size() < 2) {
        return LineError(line, "replicate wants at least one relation name");
      }
      for (size_t i = 1; i < tokens.size(); ++i) {
        spec.replicated.insert(tokens[i]);
      }
    } else if (keyword == "rv-period") {
      if (tokens.size() != 2) {
        return LineError(line, "rv-period wants one positive integer");
      }
      WVM_ASSIGN_OR_RETURN(int64_t period, ParseInt(tokens[1], line));
      if (period < 1 || period > std::numeric_limits<int>::max()) {
        return LineError(line, StrCat("rv-period ", period, " out of range"));
      }
      spec.rv_period = static_cast<int>(period);
    } else if (keyword == "order") {
      if (tokens.size() < 2) {
        return LineError(line, "order wants best|worst|random [seed]");
      }
      if (tokens[1] == "best") {
        spec.order = ScenarioSpec::Order::kBest;
      } else if (tokens[1] == "worst") {
        spec.order = ScenarioSpec::Order::kWorst;
      } else if (tokens[1] == "random") {
        spec.order = ScenarioSpec::Order::kRandom;
        if (tokens.size() > 2) {
          WVM_ASSIGN_OR_RETURN(int64_t seed, ParseInt(tokens[2], line));
          if (seed < 0) {
            return LineError(line, StrCat("negative seed ", seed));
          }
          spec.seed = static_cast<uint64_t>(seed);
        }
      } else {
        return LineError(line, StrCat("unknown order '", tokens[1], "'"));
      }
    } else if (keyword == "update") {
      WVM_ASSIGN_OR_RETURN(
          Update u, ParseUpdateClause(tokens, 1, tokens.size(), spec, line));
      spec.batches.push_back({std::move(u)});
    } else if (keyword == "batch") {
      std::vector<Update> batch;
      size_t begin = 1;
      for (size_t i = 1; i <= tokens.size(); ++i) {
        if (i == tokens.size() || tokens[i] == "|") {
          if (i > begin) {
            WVM_ASSIGN_OR_RETURN(
                Update u, ParseUpdateClause(tokens, begin, i, spec, line));
            batch.push_back(std::move(u));
          }
          begin = i + 1;
        }
      }
      if (batch.empty()) {
        return LineError(line, "empty batch");
      }
      spec.batches.push_back(std::move(batch));
    } else if (keyword == "expect-final") {
      if (spec.view == nullptr) {
        return LineError(line, "expect-final needs the view declared first");
      }
      Relation expected(spec.view->output_schema());
      for (size_t i = 1; i < tokens.size(); ++i) {
        WVM_ASSIGN_OR_RETURN(
            Tuple t,
            ParseBracketTuple(tokens[i], spec.view->output_schema(), line));
        expected.Insert(t);
      }
      spec.expected_final = std::move(expected);
    } else {
      return LineError(line, StrCat("unknown keyword '", keyword, "'"));
    }
  }

  if (spec.view == nullptr) {
    return Status::InvalidArgument("scenario declares no view");
  }
  return spec;
}

}  // namespace wvm
