// General linear-program description consumed by the simplex solver.
//
// All variables are implicitly nonnegative (x >= 0); every LP the paper
// uses (LP1, LP2, Lawler–Labetoulle) has this form.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace suu::lp {

enum class Rel { Le, Ge, Eq };

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

/// Solve verdicts. NumericalFailure is the simplex reporting that its
/// basis factorization degraded (a singular refactorization, an "unbounded"
/// phase 1, a point that fails verification) instead of returning a wrong
/// answer; callers surface it as an error. The differential oracle holds it
/// at zero.
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
  /// Simplex pivots spent (both phases). Excludes the factorization of a
  /// seed basis (SimplexOptions::seed_basis), which is not a priced
  /// iteration.
  int iterations = 0;
  /// Pivots spent in phase 1 (0 when an accepted seed basis skipped it).
  int phase1_iterations = 0;
  /// Basic column per row on Status::Optimal (the standard form's column
  /// numbering: originals, then slacks, then artificials). Valid as
  /// SimplexOptions::seed_basis for a follow-up solve.
  std::vector<int> basis;
  /// FTRAN telemetry: entering-column solves performed and the summed
  /// support sizes they produced. ftran_nnz / (ftran_calls * m) is the
  /// average fill the sparse eta kernels actually touched — the perf
  /// benches report it.
  std::int64_t ftran_calls = 0;
  std::int64_t ftran_nnz = 0;
  /// Basis factorizations performed: the initial or seed-basis install
  /// plus every scheduled mid-solve refactorization.
  std::int64_t refactorizations = 0;
};

/// Check primal feasibility of a candidate point within tolerance `tol`
/// (row violation and negativity measured absolutely).
/// Returns the maximum violation found (0 when feasible).
double max_violation(const Problem& p, const std::vector<double>& x);

}  // namespace suu::lp
