// Revised simplex over an eta-file basis factorization.
//
// A dense tableau keeps the whole B^{-1}A matrix explicit and pays O(m·n)
// per pivot to eliminate it. The revised engine here — libsuu's only
// simplex core — keeps only a factorization of the m×m basis matrix B and
// reconstructs what a pivot needs on demand:
//
//   FTRAN  w = B^{-1} a_j        (entering column, for the ratio test;
//                                 scattered, touching only its support)
//   BTRAN  y = c_B^T B^{-1}      (pricing row, dense; every nonbasic
//                                 column is priced against it each pivot)
//
// B^{-1} is represented as a product of elementary Gauss transforms ("eta"
// matrices), the classic product form of the inverse. refactorize() rebuilds
// the file from the basic columns, processing them sparsest-first so the
// factorization stays close to a sparse LU (for LP1/LP2 bases nearly every
// column is a singleton or doubleton and the file is near-permutation);
// each simplex pivot then appends one Forrest–Tomlin-style update eta built
// from the FTRAN'd entering column. The file is rebuilt every
// refactor_interval() pivots to bound its length and squash accumulated
// roundoff — the interval is env-overridable (SUU_LP_REFACTOR_INTERVAL) so
// slow-FP builds (ASan CI) can trade accuracy maintenance for wall time.
//
// The standard form (build_standard_form) is also what the dense-tableau
// differential oracle under tests/ scatters into its arena (appending its
// own phase-1 artificials), so a Solution::basis from either is a valid
// starting basis for solve_simplex.
// solve_revised never returns a wrong answer on numerical trouble: it
// returns Status::NumericalFailure, which callers surface as an error.
// Dantzig pricing recomputes every reduced cost from a fresh BTRAN each
// iteration, so a well-posed solve never reports it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lp/problem.hpp"

namespace suu::lp {

/// Eta-file rebuild period, in pivots. Shorter = better conditioned and
/// cheaper FTRAN/BTRAN, more time spent refactorizing.
inline constexpr int kDefaultRefactorInterval = 64;

/// Parse a SUU_LP_REFACTOR_INTERVAL override. Only a bare positive decimal
/// integer in [1, 100000] is accepted; anything else — empty, garbage,
/// trailing junk, zero, negative, out of range — falls back to
/// kDefaultRefactorInterval (a misconfigured env var must never silently
/// yield interval 1 and tank performance, which is what the old clamp did
/// for "0" and negatives). Exposed for the unit test.
int parse_refactor_interval(const char* env);

/// kDefaultRefactorInterval unless the SUU_LP_REFACTOR_INTERVAL environment
/// variable overrides it (see parse_refactor_interval; read once per
/// process).
int refactor_interval();

/// The standard form `min c·x  s.t.  Ax + Ss = b, b >= 0, x, s >= 0` the
/// simplex solves: original variables, then one slack (+1, a Le row) or
/// surplus (-1, a Ge row) per row, so row r's is column n_orig + r.
/// Rows with a negative rhs are sign-flipped first. Column order and
/// duplicate-term accumulation are fixed, which is what makes bases
/// interchangeable with the differential oracle's.
struct StandardForm {
  int m = 0;        ///< rows
  int n_orig = 0;   ///< problem variables
  int n_total = 0;  ///< n_orig + m
  std::vector<double> rhs;  ///< size m, >= 0
  // Constraint matrix over all n_total columns in compressed sparse column
  // form (FTRAN loads, reduced-cost dots, refactorization). Rows within a
  // column are in increasing order; structural zeros dropped.
  std::vector<int> col_ptr;  ///< size n_total + 1
  std::vector<int> col_row;
  std::vector<double> col_val;

  int col_nnz(int j) const {
    return col_ptr[static_cast<std::size_t>(j) + 1] -
           col_ptr[static_cast<std::size_t>(j)];
  }
};

/// Sparse workspace vector: dense values plus an explicit support list so
/// FTRAN and its consumers touch only nonzeros. `idx` lists every
/// row whose value may be nonzero (a superset: exact cancellations stay
/// listed); `mark[r]` mirrors membership of r in `idx`. When an operation
/// fills the vector past its sparsity threshold it flips `dense` and stops
/// maintaining the support — from then on `val` alone is authoritative and
/// consumers fall back to dense scans.
struct ScatteredVec {
  std::vector<double> val;
  std::vector<int> idx;
  std::vector<char> mark;
  bool dense = false;

  void resize(int m) {
    val.assign(static_cast<std::size_t>(m), 0.0);
    mark.assign(static_cast<std::size_t>(m), 0);
    idx.clear();
    dense = false;
  }

  int size() const { return static_cast<int>(val.size()); }

  /// Zero the vector and forget the support, reusing capacity. O(support)
  /// when sparse, O(m) after a dense fallback.
  void clear() {
    if (dense) {
      std::fill(val.begin(), val.end(), 0.0);
      std::fill(mark.begin(), mark.end(), 0);
    } else {
      for (const int r : idx) {
        val[static_cast<std::size_t>(r)] = 0.0;
        mark[static_cast<std::size_t>(r)] = 0;
      }
    }
    idx.clear();
    dense = false;
  }

  void insert(int r, double v) {
    val[static_cast<std::size_t>(r)] = v;
    if (!mark[static_cast<std::size_t>(r)]) {
      mark[static_cast<std::size_t>(r)] = 1;
      idx.push_back(r);
    }
  }
};

/// Support fraction above which sparse FTRAN hands over to the dense
/// kernel: once a quarter of the vector is live, support bookkeeping costs
/// more than the dense stream it avoids.
inline constexpr int kScatterDenseDen = 4;

StandardForm build_standard_form(const Problem& p);

/// Product-form basis factorization: an ordered file of eta transforms whose
/// composition is B^{-1}. Exposed for the revised engine and for tests; the
/// std::vector overloads take dense vectors of length StandardForm::m.
class BasisFactorization {
 public:
  explicit BasisFactorization(const StandardForm& sf);

  /// Rebuild the file from scratch so it represents the inverse of the
  /// basis matrix formed by `cols` (a duplicate-free set of m column
  /// indices, any order). Returns false — leaving the factorization unusable
  /// until the next successful call — when the matrix is numerically
  /// singular (no pivot above kPivotTol for some column). On success,
  /// row_to_col()[r] names the column pivoted on row r.
  bool refactorize(const std::vector<int>& cols);

  /// v := B^{-1} v.
  void ftran(std::vector<double>& v) const;
  /// v := B^{-T} v (i.e. v^T := v^T B^{-1}).
  void btran(std::vector<double>& v) const;

  /// Sparse FTRAN: applies only the etas the support reaches, tracking
  /// fill-in; flips v.dense (and finishes with the dense kernel) past the
  /// fill threshold. Bit-identical values to the dense ftran.
  void ftran(ScatteredVec& v) const;

  /// Append the update eta for a pivot on row `p` with FTRAN'd entering
  /// column `w` (dense; w[p] is the pivot element, |w[p]| > kPivotTol).
  /// `support` lists the rows where w may be nonzero.
  void push_eta(int p, const std::vector<double>& w,
                const std::vector<int>& support);

  /// Update etas appended since the last refactorize().
  int etas_since_refactor() const { return update_etas_; }
  const std::vector<int>& row_to_col() const { return row_to_col_; }

 private:
  void append(int p, double piv, const std::vector<double>& w,
              const std::vector<int>& support);
  /// The dense FTRAN kernel: applies etas [first_eta, end) to v.
  void ftran_from(double* v, std::size_t first_eta) const;

  const StandardForm* sf_;
  int update_etas_ = 0;
  // Flattened eta file: eta k pivots row pivot_row_[k] with multiplier
  // inv_piv_[k] = 1/w_p and off-pivot entries off_row_/off_val_ in
  // [ptr_[k], ptr_[k+1]).
  std::vector<int> pivot_row_;
  std::vector<double> inv_piv_;
  std::vector<int> ptr_{0};
  std::vector<int> off_row_;
  std::vector<double> off_val_;
  std::vector<int> row_to_col_;
};

/// Solve the standard form with the revised engine from `basis`, under
/// solve_simplex's contract (lp/simplex.hpp). Returns
/// Status::NumericalFailure instead of a wrong answer when the starting
/// basis does not install (singular, or an infeasible vertex) or the
/// factorization degrades (singular refactorization, verification failure).
Solution solve_revised(const Problem& p, const StandardForm& sf,
                       const std::vector<int>& basis);

}  // namespace suu::lp
