#ifndef PROSPECTOR_LP_MODEL_H_
#define PROSPECTOR_LP_MODEL_H_

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace prospector {
namespace lp {

/// Direction of optimization.
enum class Sense { kMinimize, kMaximize };

/// Relational operator of a linear constraint row.
enum class RowType { kLessEqual, kGreaterEqual, kEqual };

/// Positive/negative infinity markers for variable bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One term of a linear expression: coeff * var.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

/// Description of a decision variable.
struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  std::string name;
};

/// Description of a linear constraint  sum(terms) <relop> rhs.
struct Row {
  RowType type = RowType::kLessEqual;
  double rhs = 0.0;
  std::vector<Term> terms;
  std::string name;
};

/// A linear program:
///
///   min/max  sum_i objective_i * x_i
///   s.t.     each Row holds,
///            lower_i <= x_i <= upper_i.
///
/// The model is a plain builder; it performs no solving. Duplicate terms on
/// the same variable within one row are summed by the solver. Variables are
/// identified by the dense index returned from AddVariable().
class Model {
 public:
  /// Adds a variable with bounds [lower, upper] and the given objective
  /// coefficient. Returns its index.
  int AddVariable(double lower, double upper, double objective,
                  std::string name = "") {
    variables_.push_back(Variable{lower, upper, objective, std::move(name)});
    return static_cast<int>(variables_.size()) - 1;
  }

  /// Convenience: a [0, 1] variable (linear relaxation of a 0/1 decision).
  int AddBinaryRelaxed(double objective, std::string name = "") {
    return AddVariable(0.0, 1.0, objective, std::move(name));
  }

  /// Adds the constraint sum(terms) <type> rhs. Returns the row index.
  int AddRow(RowType type, double rhs, std::vector<Term> terms,
             std::string name = "") {
    rows_.push_back(Row{type, rhs, std::move(terms), std::move(name)});
    return static_cast<int>(rows_.size()) - 1;
  }

  void SetSense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const Variable& variable(int i) const { return variables_[i]; }
  const Row& row(int i) const { return rows_[i]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Checks structural sanity: term indices in range, lower <= upper, finite
  /// objective coefficients and RHS values.
  Status Validate() const {
    for (int i = 0; i < num_variables(); ++i) {
      const Variable& v = variables_[i];
      if (v.lower > v.upper) {
        return Status::InvalidArgument("variable " + std::to_string(i) +
                                       " has lower > upper");
      }
      if (!std::isfinite(v.objective)) {
        return Status::InvalidArgument("variable " + std::to_string(i) +
                                       " has non-finite objective");
      }
    }
    for (int r = 0; r < num_rows(); ++r) {
      if (!std::isfinite(rows_[r].rhs)) {
        return Status::InvalidArgument("row " + std::to_string(r) +
                                       " has non-finite rhs");
      }
      for (const Term& t : rows_[r].terms) {
        if (t.var < 0 || t.var >= num_variables()) {
          return Status::InvalidArgument("row " + std::to_string(r) +
                                         " references unknown variable " +
                                         std::to_string(t.var));
        }
        if (!std::isfinite(t.coeff)) {
          return Status::InvalidArgument("row " + std::to_string(r) +
                                         " has non-finite coefficient");
        }
      }
    }
    return Status::OK();
  }

  /// Evaluates the objective at the given point.
  double ObjectiveValue(const std::vector<double>& x) const {
    double v = 0.0;
    for (int i = 0; i < num_variables(); ++i) v += variables_[i].objective * x[i];
    return v;
  }

  /// Returns true if `x` satisfies every row and bound within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const {
    if (static_cast<int>(x.size()) != num_variables()) return false;
    for (int i = 0; i < num_variables(); ++i) {
      if (x[i] < variables_[i].lower - tol) return false;
      if (x[i] > variables_[i].upper + tol) return false;
    }
    for (const Row& row : rows_) {
      double lhs = 0.0;
      for (const Term& t : row.terms) lhs += t.coeff * x[t.var];
      switch (row.type) {
        case RowType::kLessEqual:
          if (lhs > row.rhs + tol) return false;
          break;
        case RowType::kGreaterEqual:
          if (lhs < row.rhs - tol) return false;
          break;
        case RowType::kEqual:
          if (std::abs(lhs - row.rhs) > tol) return false;
          break;
      }
    }
    return true;
  }

 private:
  Sense sense_ = Sense::kMinimize;
  std::vector<Variable> variables_;
  std::vector<Row> rows_;
};

}  // namespace lp
}  // namespace prospector

#endif  // PROSPECTOR_LP_MODEL_H_
