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

enum class Status { Optimal, Infeasible, Unbounded, IterLimit };

std::string to_string(Status s);

/// Which simplex core solves the program. Tableau is the PR 2 flat-arena
/// dense solver (O(m·n) per pivot, bit-stable pivot trajectories); Revised
/// maintains a basis factorization instead of the full tableau (see
/// lp/basis.hpp) and wins once the tableau stops fitting in cache. Auto
/// switches on problem size (kRevisedAutoCells in lp/simplex.hpp).
enum class SimplexEngine { Auto, Tableau, Revised };

std::string to_string(SimplexEngine e);

/// Entering-variable pricing rule (lp/pricing.hpp). Dantzig picks the most
/// negative reduced cost — the historical rule and the byte-stability
/// anchor. Devex weighs reduced costs by approximate edge norms, trading a
/// little per-pivot bookkeeping for far fewer pivots on the long phase-1
/// runs that dominate the n>=1024 LP1 regimes. Auto keeps Dantzig on the
/// tableau engine (preserving recorded trajectories) and picks Devex on the
/// revised engine.
enum class PricingRule { Auto, Dantzig, Devex };

std::string to_string(PricingRule r);

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
  /// Basic column per tableau row on Status::Optimal (the solver's internal
  /// column numbering: originals, then slacks, then artificials). Valid as
  /// SimplexOptions::seed_basis for a follow-up revised solve.
  std::vector<int> basis;
  /// Engine that actually produced this solution. A Revised request that
  /// hits numerical trouble is silently re-solved by the tableau, and this
  /// field is how callers (and the differential oracle) see that happen.
  SimplexEngine engine = SimplexEngine::Tableau;
  /// FTRAN telemetry (revised engine only; the tableau leaves both 0):
  /// entering-column solves performed and the summed support sizes they
  /// produced. ftran_nnz / (ftran_calls * m) is the average fill the sparse
  /// eta kernels actually touched — the perf benches report it.
  std::int64_t ftran_calls = 0;
  std::int64_t ftran_nnz = 0;
  /// Basis factorizations performed (revised engine only): the initial or
  /// seed-basis install plus every scheduled mid-solve refactorization.
  std::int64_t refactorizations = 0;
};

/// Check primal feasibility of a candidate point within tolerance `tol`
/// (row violation and negativity measured absolutely).
/// Returns the maximum violation found (0 when feasible).
double max_violation(const Problem& p, const std::vector<double>& x);

}  // namespace suu::lp
