// General linear-program description consumed by the simplex solver.
//
// All variables are implicitly nonnegative (x >= 0) and every row is an
// inequality; every LP the paper uses (LP1, LP2, Lawler–Labetoulle) has
// this form.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace suu::lp {

enum class Rel { Le, Ge };

/// One linear constraint: sum of coeff*x over `terms` REL rhs.
struct Row {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coefficient)
  Rel rel = Rel::Le;
  double rhs = 0.0;
};

/// minimize c·x subject to rows, x >= 0.
struct Problem {
  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars; minimized
  std::vector<Row> rows;

  /// Create a fresh variable with the given objective coefficient;
  /// returns its index.
  int add_var(double obj_coeff);
  /// Append a constraint (terms may reference any existing variable).
  void add_row(Row row);
};

/// Solve verdicts. NumericalFailure is the simplex reporting that it has no
/// trustworthy answer (a starting basis that is singular or primal
/// infeasible, a singular refactorization, a point that fails verification)
/// instead of returning a wrong one; callers surface it as an error. The
/// differential oracle holds it at zero. Infeasible is the dense-tableau
/// oracle's verdict (tests/lp_tableau_oracle.hpp): the simplex starts from
/// a feasible basis, so it never proves infeasibility.
enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
  NumericalFailure
};

std::string to_string(Status s);

struct Solution {
  Status status = Status::IterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< size num_vars when status == Optimal
  /// Simplex pivots taken (0 from an optimal basis). The pricing pass
  /// that finds no entering column and the factorization of the starting
  /// basis are not pivots.
  int iterations = 0;
  /// Basic column per row on Status::Optimal (the standard form's column
  /// numbering: originals, then one slack per row). Valid as the starting
  /// basis of a follow-up solve.
  std::vector<int> basis;
  /// FTRAN telemetry: entering-column solves performed and the summed
  /// support sizes they produced. ftran_nnz / (ftran_calls * m) is the
  /// average fill the sparse eta kernels actually touched — the perf
  /// benches report it.
  std::int64_t ftran_calls = 0;
  std::int64_t ftran_nnz = 0;
  /// Basis factorizations performed: the starting-basis install plus every
  /// scheduled mid-solve refactorization.
  std::int64_t refactorizations = 0;
};

/// Check primal feasibility of a candidate point: the largest row violation
/// or negativity, measured absolutely (0 when feasible).
double max_violation(const Problem& p, const std::vector<double>& x);

}  // namespace suu::lp
