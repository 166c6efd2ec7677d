#include "src/testvec/vector_emit.h"

#include <cmath>
#include <string>

namespace prospector {
namespace testvec {
namespace {

using lp::kInfinity;
using lp::Model;
using lp::Row;
using lp::RowType;
using lp::Sense;
using lp::Solution;
using lp::SolveStatus;
using lp::Term;
using lp::Variable;
using util::Json;

Json BoundToJson(double b) {
  if (b == kInfinity) return Json("inf");
  if (b == -kInfinity) return Json("-inf");
  return Json(b);
}

Result<double> BoundFromJson(const Json& j, const char* what) {
  if (j.is_number()) return j.number();
  if (j.is_string()) {
    if (j.str() == "inf") return kInfinity;
    if (j.str() == "-inf") return -kInfinity;
  }
  return Status::InvalidArgument(std::string("lp vector: bad ") + what);
}

Result<std::vector<double>> DoubleArray(const Json& j, const char* what) {
  if (!j.is_array()) {
    return Status::InvalidArgument(std::string("lp vector: ") + what +
                                   " is not an array");
  }
  std::vector<double> out;
  out.reserve(j.size());
  for (size_t i = 0; i < j.size(); ++i) {
    if (!j[i].is_number()) {
      return Status::InvalidArgument(std::string("lp vector: ") + what +
                                     " holds a non-number");
    }
    out.push_back(j[i].number());
  }
  return out;
}

const char* RowTypeName(RowType t) {
  switch (t) {
    case RowType::kLessEqual: return "<=";
    case RowType::kGreaterEqual: return ">=";
    case RowType::kEqual: return "=";
  }
  return "?";
}

const char* StatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace

Json ModelToJson(const Model& model) {
  Json j = Json::Object();
  j.Set("sense",
        model.sense() == Sense::kMinimize ? "minimize" : "maximize");
  Json vars = Json::Array();
  for (const Variable& v : model.variables()) {
    Json jv = Json::Object();
    jv.Set("lower", BoundToJson(v.lower));
    jv.Set("upper", BoundToJson(v.upper));
    jv.Set("objective", v.objective);
    if (!v.name.empty()) jv.Set("name", v.name);
    vars.Append(std::move(jv));
  }
  j.Set("variables", std::move(vars));
  Json rows = Json::Array();
  for (const Row& r : model.rows()) {
    Json jr = Json::Object();
    jr.Set("type", RowTypeName(r.type));
    jr.Set("rhs", r.rhs);
    Json terms = Json::Array();
    for (const Term& t : r.terms) {
      Json term = Json::Array();
      term.Append(t.var);
      term.Append(t.coeff);
      terms.Append(std::move(term));
    }
    jr.Set("terms", std::move(terms));
    if (!r.name.empty()) jr.Set("name", r.name);
    rows.Append(std::move(jr));
  }
  j.Set("rows", std::move(rows));
  return j;
}

Result<Model> ModelFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("lp vector: model is not an object");
  }
  Model model;
  const Json& sense = j.at("sense");
  if (!sense.is_string() ||
      (sense.str() != "minimize" && sense.str() != "maximize")) {
    return Status::InvalidArgument("lp vector: bad sense");
  }
  model.SetSense(sense.str() == "minimize" ? Sense::kMinimize
                                           : Sense::kMaximize);
  const Json& vars = j.at("variables");
  if (!vars.is_array()) {
    return Status::InvalidArgument("lp vector: variables is not an array");
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    const Json& v = vars[i];
    if (!v.is_object() || !v.at("objective").is_number()) {
      return Status::InvalidArgument("lp vector: bad variable " +
                                     std::to_string(i));
    }
    auto lower = BoundFromJson(v.at("lower"), "variable lower bound");
    if (!lower.ok()) return lower.status();
    auto upper = BoundFromJson(v.at("upper"), "variable upper bound");
    if (!upper.ok()) return upper.status();
    const Json* name = v.Find("name");
    model.AddVariable(*lower, *upper, v.at("objective").number(),
                      name != nullptr && name->is_string() ? name->str() : "");
  }
  const Json& rows = j.at("rows");
  if (!rows.is_array()) {
    return Status::InvalidArgument("lp vector: rows is not an array");
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const Json& r = rows[i];
    const std::string err = "lp vector: bad row " + std::to_string(i);
    if (!r.is_object() || !r.at("type").is_string() ||
        !r.at("rhs").is_number() || !r.at("terms").is_array()) {
      return Status::InvalidArgument(err);
    }
    RowType type;
    if (r.at("type").str() == "<=") type = RowType::kLessEqual;
    else if (r.at("type").str() == ">=") type = RowType::kGreaterEqual;
    else if (r.at("type").str() == "=") type = RowType::kEqual;
    else return Status::InvalidArgument(err + ": unknown type");
    std::vector<Term> terms;
    const Json& jterms = r.at("terms");
    for (size_t t = 0; t < jterms.size(); ++t) {
      const Json& term = jterms[t];
      if (!term.is_array() || term.size() != 2 || !term[0].is_number() ||
          !term[1].is_number()) {
        return Status::InvalidArgument(err + ": bad term");
      }
      terms.push_back(Term{term[0].AsInt(), term[1].number()});
    }
    const Json* name = r.Find("name");
    model.AddRow(type, r.at("rhs").number(), std::move(terms),
                 name != nullptr && name->is_string() ? name->str() : "");
  }
  PROSPECTOR_RETURN_IF_ERROR(model.Validate());
  return model;
}

Json SolutionToJson(const Solution& solution) {
  Json j = Json::Object();
  j.Set("status", StatusName(solution.status));
  if (solution.status != SolveStatus::kOptimal) return j;
  j.Set("objective", solution.objective);
  auto emit = [&j](const char* key, const std::vector<double>& v) {
    Json arr = Json::Array();
    for (const double x : v) arr.Append(x);
    j.Set(key, std::move(arr));
  };
  emit("values", solution.values);
  emit("row_duals", solution.row_duals);
  emit("reduced_costs", solution.reduced_costs);
  return j;
}

Result<Solution> SolutionFromJson(const Json& j) {
  if (!j.is_object() || !j.at("status").is_string()) {
    return Status::InvalidArgument("lp vector: bad solution object");
  }
  Solution s;
  const std::string& name = j.at("status").str();
  if (name == "optimal") s.status = SolveStatus::kOptimal;
  else if (name == "infeasible") s.status = SolveStatus::kInfeasible;
  else if (name == "unbounded") s.status = SolveStatus::kUnbounded;
  else if (name == "iteration-limit") s.status = SolveStatus::kIterationLimit;
  else return Status::InvalidArgument("lp vector: unknown solve status");
  if (s.status != SolveStatus::kOptimal) return s;
  if (!j.at("objective").is_number()) {
    return Status::InvalidArgument("lp vector: optimal solution lacks "
                                   "objective");
  }
  s.objective = j.at("objective").number();
  auto values = DoubleArray(j.at("values"), "values");
  if (!values.ok()) return values.status();
  s.values = *values;
  auto duals = DoubleArray(j.at("row_duals"), "row_duals");
  if (!duals.ok()) return duals.status();
  s.row_duals = *duals;
  auto reduced = DoubleArray(j.at("reduced_costs"), "reduced_costs");
  if (!reduced.ok()) return reduced.status();
  s.reduced_costs = *reduced;
  return s;
}

}  // namespace testvec
}  // namespace prospector
