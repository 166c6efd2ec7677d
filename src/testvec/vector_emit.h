#ifndef PROSPECTOR_TESTVEC_VECTOR_EMIT_H_
#define PROSPECTOR_TESTVEC_VECTOR_EMIT_H_

#include "src/lp/model.h"
#include "src/lp/simplex.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace prospector {
namespace testvec {

/// JSON emission/loading of LP models and solutions for the golden
/// test-vector corpus (spec/test-vectors/lp_*.json). A stored optimum is
/// only trustworthy together with its KKT certificate (row duals +
/// reduced costs), which VerifyKkt can check against the model without
/// trusting any solver — that pair is what makes an LP vector "truth"
/// rather than "whatever the simplex said the day it was generated".
///
/// Schema:
///   model: { "sense": "minimize"|"maximize",
///            "variables": [ {"lower", "upper", "objective", "name"?} ],
///            "rows": [ {"type": "<="|">="|"=", "rhs",
///                       "terms": [[var, coeff], ...], "name"?} ] }
///   Infinite bounds spell as the strings "inf" / "-inf" (JSON has no
///   infinity literal).
///   solution: { "status": "optimal"|"infeasible"|"unbounded",
///               "objective", "values": [...],
///               "row_duals": [...], "reduced_costs": [...] }
///   (the three arrays are present for optimal solutions only).
util::Json ModelToJson(const lp::Model& model);
Result<lp::Model> ModelFromJson(const util::Json& j);

util::Json SolutionToJson(const lp::Solution& solution);
/// Loads the solution fields the corpus stores (status, objective, primal
/// point, KKT certificate); solver-internal fields stay default.
Result<lp::Solution> SolutionFromJson(const util::Json& j);

}  // namespace testvec
}  // namespace prospector

#endif  // PROSPECTOR_TESTVEC_VECTOR_EMIT_H_
