#include "lp/problem.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace suu::lp {

int Problem::add_var(double obj_coeff) {
  objective.push_back(obj_coeff);
  return num_vars++;
}

void Problem::add_row(Row row) {
  for (const auto& [v, c] : row.terms) {
    SUU_CHECK_MSG(v >= 0 && v < num_vars, "row references unknown variable");
    (void)c;
  }
  rows.push_back(std::move(row));
}

std::string to_string(Status s) {
  switch (s) {
    case Status::Optimal:
      return "optimal";
    case Status::Infeasible:
      return "infeasible";
    case Status::Unbounded:
      return "unbounded";
    case Status::IterLimit:
      return "iteration-limit";
    case Status::NumericalFailure:
      return "numerical-failure";
  }
  return "?";
}

double max_violation(const Problem& p, const std::vector<double>& x) {
  SUU_CHECK(static_cast<int>(x.size()) == p.num_vars);
  double worst = 0.0;
  for (double xi : x) worst = std::max(worst, -xi);
  for (const auto& row : p.rows) {
    double lhs = 0.0;
    for (const auto& [v, c] : row.terms) lhs += c * x[v];
    switch (row.rel) {
      case Rel::Le:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Rel::Ge:
        worst = std::max(worst, row.rhs - lhs);
        break;
    }
  }
  return worst;
}

}  // namespace suu::lp
