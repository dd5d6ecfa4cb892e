// The dense two-phase tableau simplex, kept as the differential oracle the
// revised engine (lp/basis.hpp, libsuu's only simplex) is tested against:
// test_lp_differential, test_simplex, test_lp_crash_start, test_stoch,
// test_fw_cover and test_lp2_chains_differential compare verdicts and
// objectives with it.
//
// It solves the same standard form (lp::build_standard_form) through the
// same anti-cycling driver (lp::detail::run_simplex_phase), but keeps the
// whole B^{-1}A explicit in a flat row-major arena and pays O(m·n) per
// pivot. Unlike the engine it needs no starting basis: it appends one
// artificial column per surplus row and runs phase 1 from the
// slack/artificial basis, so it is also what proves a program infeasible
// and what finds a first feasible basis to start the engine from. It
// prices with Dantzig's rule, the engine's only rule. It is test code:
// nothing in libsuu links it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "lp/basis.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"

// The dense kernels the tableau streams over its arena.
namespace suu::util::simd {

inline constexpr std::size_t kAlign = 64;  // cache line

/// Minimal aligned allocator (C++17 aligned operator new) for the dense
/// arenas the kernels stream over.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// y[i] -= a * x[i] for i in [0, n). Bit-identical to the scalar loop on
/// every path (element-wise multiply + subtract; no FMA contraction).
inline void axpy_minus(double* y, const double* x, double a, int n) {
  int i = 0;
#if defined(__SSE2__)
  const __m128d va = _mm_set1_pd(a);
  for (; i + 4 <= n; i += 4) {
    const __m128d y0 = _mm_loadu_pd(y + i);
    const __m128d y1 = _mm_loadu_pd(y + i + 2);
    const __m128d x0 = _mm_loadu_pd(x + i);
    const __m128d x1 = _mm_loadu_pd(x + i + 2);
    _mm_storeu_pd(y + i, _mm_sub_pd(y0, _mm_mul_pd(va, x0)));
    _mm_storeu_pd(y + i + 2, _mm_sub_pd(y1, _mm_mul_pd(va, x1)));
  }
#else
  for (; i + 4 <= n; i += 4) {
    y[i] -= a * x[i];
    y[i + 1] -= a * x[i + 1];
    y[i + 2] -= a * x[i + 2];
    y[i + 3] -= a * x[i + 3];
  }
#endif
  for (; i < n; ++i) y[i] -= a * x[i];
}

}  // namespace suu::util::simd

namespace suu::lp::oracle {

// Flat-arena tableau:
//   arena_ is one row-major allocation of rows() * stride_ doubles;
//   row r (the current B^{-1} A row) starts at arena_[r * stride_],
//   rhs_[r] = B^{-1} b, cost_[j] = reduced cost of column j for the active
//   objective, cost_obj_ = current (negated) objective value.
//
// Pricing keeps cand_, the exact set of improving columns (cost < -tol
// among the first allow_limit_ columns), maintained incrementally: a pivot
// changes reduced costs only on the nonzero support of the pivot row, so
// only those columns can enter or leave the set. Entering-column selection
// scans cand_ instead of all columns and compacts stale entries in place; a
// full rescan runs only when the list is exhausted (then finding nothing
// proves optimality). The selected column is the lexicographic minimum of
// (reduced cost, index), which is exactly what a full Dantzig scan with
// first-wins tie-breaking returns — so the pivot trajectory, and therefore
// every solution byte, is identical to the full-scan solver's.
class Tableau {
 public:
  // The shared standard form (lp/basis.hpp) reproduces this engine's
  // historical normalization bit for bit, so scattering its sparse columns
  // into the arena builds the exact tableau the old inline construction did.
  // The artificials follow the standard form's columns, one per surplus
  // (Ge) row in row order; the initial basis is row r's slack on a Le row
  // and its artificial on a Ge row, the identity.
  explicit Tableau(const StandardForm& sf) {
    m_ = sf.m;
    n_orig_ = sf.n_orig;
    art_begin_ = sf.n_total;
    n_total_ = art_begin_;
    basis_.resize(static_cast<std::size_t>(m_));
    for (int r = 0; r < m_; ++r) {
      const int slack = n_orig_ + r;
      const bool surplus =
          sf.col_val[static_cast<std::size_t>(sf.col_ptr[slack])] < 0;
      basis_[static_cast<std::size_t>(r)] = surplus ? n_total_++ : slack;
    }
    stride_ = n_total_;
    arena_.assign(static_cast<std::size_t>(m_) * stride_, 0.0);
    rhs_ = sf.rhs;
    for (int j = 0; j < sf.n_total; ++j) {
      for (int k = sf.col_ptr[static_cast<std::size_t>(j)];
           k < sf.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
        row(sf.col_row[static_cast<std::size_t>(k)])[j] =
            sf.col_val[static_cast<std::size_t>(k)];
      }
    }
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b >= art_begin_) row(r)[b] = 1.0;
    }
  }

  int rows() const { return m_; }
  int cols() const { return n_total_; }
  int n_orig() const { return n_orig_; }
  int art_begin() const { return art_begin_; }
  const std::vector<int>& basis() const { return basis_; }
  std::vector<int>& mutable_basis() { return basis_; }

  double* row(int r) { return arena_.data() + static_cast<std::size_t>(r) * stride_; }
  const double* row(int r) const {
    return arena_.data() + static_cast<std::size_t>(r) * stride_;
  }

  // Install reduced costs for objective `c` (dense over all n_total_ columns,
  // zero-extended) given the current basis, and rebuild the candidate list
  // for columns below `allow_limit` (phase 2 locks the artificials out by
  // passing art_begin()).
  void load_objective(const std::vector<double>& c, int allow_limit) {
    cost_.assign(n_total_, 0.0);
    for (int j = 0; j < n_total_ && j < static_cast<int>(c.size()); ++j) {
      cost_[j] = c[j];
    }
    cost_obj_ = 0.0;
    // Subtract c_B * (row) from cost for every basic column (element-wise
    // SIMD kernel: bit-identical to the scalar loop).
    for (int r = 0; r < rows(); ++r) {
      const int b = basis_[r];
      const double cb =
          (b < static_cast<int>(c.size())) ? c[b] : 0.0;
      if (cb == 0.0) continue;
      util::simd::axpy_minus(cost_.data(), row(r), cb, n_total_);
      cost_obj_ -= cb * rhs_[r];
    }
    allow_limit_ = allow_limit;
    rebuild_candidates();
  }

  double objective() const { return -cost_obj_; }

  // One simplex iteration for the loaded objective. Returns: 0 = optimal,
  // 1 = pivoted, 2 = unbounded.
  int iterate(bool bland) {
    // Entering column.
    int enter = -1;
    if (bland) {
      // Bland's least-index rule, full scan — preserved verbatim as the
      // anti-cycling guard (the candidate list is bypassed, not consulted).
      for (int j = 0; j < allow_limit_; ++j) {
        if (cost_[j] < -kSimplexTol) {
          enter = j;
          break;
        }
      }
    } else {
      enter = price_candidates();
      if (enter < 0) {
        // Candidate list exhausted: fall back to one full pricing scan.
        // The incremental maintenance is exact, so this finds a column only
        // if floating-point drift desynchronized the list; finding none
        // certifies optimality.
        rebuild_candidates();
        enter = price_candidates();
      }
    }
    if (enter < 0) return 0;

    // Ratio test. Entries below kPivotTol are rejected as pivots: dividing
    // the row by a near-zero element would swamp the tableau with roundoff.
    // Ties break toward the lowest basis index (the Bland tie-break), which
    // keeps degenerate ties deterministic.
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    const double* col = arena_.data() + enter;
    for (int r = 0; r < rows(); ++r, col += stride_) {
      const double a = *col;
      if (a > kPivotTol) {
        const double ratio = rhs_[r] / a;
        if (ratio < best_ratio - kSimplexTol ||
            (ratio < best_ratio + kSimplexTol &&
             (leave < 0 || basis_[r] < basis_[leave]))) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave < 0) return 2;

    pivot(leave, enter);
    return 1;
  }

  void pivot(int r, int enter) {
    double* const pr = row(r);
    const double piv = pr[enter];
    SUU_ASSERT(std::fabs(piv) > kPivotTol / 2);
    const double inv = 1.0 / piv;
    // Scale the pivot row, collecting its nonzero support once; every
    // elimination below touches only these columns. Structural zeros stay
    // exactly 0.0 under row operations, so skipping them is bit-identical
    // to the dense update.
    support_.clear();
    for (int j = 0; j < n_total_; ++j) {
      const double v = pr[j];
      if (v != 0.0) {
        pr[j] = v * inv;
        support_.push_back(j);
      }
    }
    rhs_[r] *= inv;
    pr[enter] = 1.0;  // kill roundoff
    // Hybrid elimination: sparse pivot rows are applied through their
    // support list; once the row has filled in past half the arena width
    // the contiguous dense kernel wins (element-wise SIMD mul+sub, and
    // subtracting f * 0.0 from the untouched columns changes no bits).
    const bool dense_row =
        support_.size() * 2 > static_cast<std::size_t>(n_total_);
    for (int rr = 0; rr < rows(); ++rr) {
      if (rr == r) continue;
      double* const prr = row(rr);
      const double f = prr[enter];
      if (f == 0.0) continue;  // column support: row untouched by this pivot
      if (dense_row) {
        util::simd::axpy_minus(prr, pr, f, n_total_);
      } else {
        for (const int j : support_) prr[j] -= f * pr[j];
      }
      prr[enter] = 0.0;
      rhs_[rr] -= f * rhs_[r];
      if (rhs_[rr] < 0 && rhs_[rr] > -kSimplexTol) rhs_[rr] = 0.0;
    }
    if (!cost_.empty()) {
      const double fc = cost_[enter];
      if (fc != 0.0) {
        if (dense_row) {
          util::simd::axpy_minus(cost_.data(), pr, fc, n_total_);
        } else {
          for (const int j : support_) cost_[j] -= fc * pr[j];
        }
        // Membership can only change where the pivot row is nonzero.
        for (const int j : support_) maybe_add_candidate(j);
        cost_[enter] = 0.0;
        cost_obj_ -= fc * rhs_[r];
      }
    }
    basis_[r] = enter;
  }

  // After phase 1: pivot artificial variables out of the basis where
  // possible; rows whose artificial cannot leave are redundant (all
  // non-artificial coefficients ~ 0) and harmless since their rhs is ~0.
  void expel_artificials() {
    for (int r = 0; r < rows(); ++r) {
      if (basis_[r] < art_begin_) continue;
      int enter = -1;
      const double* const row_r = row(r);
      for (int j = 0; j < art_begin_; ++j) {
        if (std::fabs(row_r[j]) > kSimplexTol * 10) {
          enter = j;
          break;
        }
      }
      if (enter >= 0) pivot(r, enter);
    }
  }

  std::vector<double> extract(int n_vars) const {
    std::vector<double> x(n_vars, 0.0);
    for (int r = 0; r < rows(); ++r) {
      if (basis_[r] < n_vars) x[basis_[r]] = std::max(0.0, rhs_[r]);
    }
    return x;
  }

 private:
  void rebuild_candidates() {
    cand_.clear();
    in_cand_.assign(static_cast<std::size_t>(n_total_), 0);
    for (int j = 0; j < allow_limit_; ++j) {
      if (cost_[j] < -kSimplexTol) {
        cand_.push_back(j);
        in_cand_[static_cast<std::size_t>(j)] = 1;
      }
    }
  }

  void maybe_add_candidate(int j) {
    if (j < allow_limit_ && cost_[j] < -kSimplexTol &&
        !in_cand_[static_cast<std::size_t>(j)]) {
      cand_.push_back(j);
      in_cand_[static_cast<std::size_t>(j)] = 1;
    }
  }

  // Lexicographic (cost, index) minimum over the candidate list, compacting
  // out columns whose reduced cost is no longer improving. Returns -1 when
  // the list empties.
  int price_candidates() {
    int enter = -1;
    double best = 0.0;
    std::size_t w = 0;
    for (std::size_t k = 0; k < cand_.size(); ++k) {
      const int j = cand_[k];
      const double c = cost_[j];
      if (!(c < -kSimplexTol)) {
        in_cand_[static_cast<std::size_t>(j)] = 0;
        continue;  // stale: drop
      }
      cand_[w++] = j;
      if (enter < 0 || c < best || (c == best && j < enter)) {
        best = c;
        enter = j;
      }
    }
    cand_.resize(w);
    return enter;
  }

  int m_ = 0;
  int n_orig_ = 0;
  int n_total_ = 0;
  int art_begin_ = 0;
  int stride_ = 0;
  // rows() * stride_, row-major, on cache-line-aligned storage so row
  // starts never straddle lines under the SIMD elimination kernel.
  util::simd::aligned_vector<double> arena_;
  std::vector<double> rhs_;
  std::vector<double> cost_;
  double cost_obj_ = 0.0;
  std::vector<int> basis_;
  int allow_limit_ = 0;
  std::vector<int> cand_;      // improving columns (exact, lazily compacted)
  std::vector<char> in_cand_;  // j is somewhere in cand_
  std::vector<int> support_;   // scratch: pivot-row nonzero columns
};

/// The oracle's verdict plus the first feasible basis it found.
struct TableauSolution : Solution {
  /// Phase-1 pivots (0 when the slack basis is already feasible).
  int phase1_iterations = 0;
  /// The basis at the end of phase 1, artificials expelled: a valid
  /// starting basis for lp::solve_simplex. Empty when the program is
  /// infeasible or an artificial stayed basic on a redundant row.
  std::vector<int> feasible_basis;
};

/// Solve `min c·x, rows, x >= 0` on the dense tableau, two-phase from the
/// slack/artificial basis. Solution::basis is set on Status::Optimal only
/// when no artificial stayed basic, so it too is always a valid starting
/// basis for lp::solve_simplex.
inline TableauSolution solve_tableau(const Problem& p) {
  TableauSolution sol;
  if (p.num_vars == 0) {
    // Trivially optimal iff every row is satisfied by x = {}.
    sol.objective = 0.0;
    sol.status = Status::Optimal;
    for (const auto& row : p.rows) {
      const bool ok = (row.rel == Rel::Le && row.rhs >= -kSimplexTol) ||
                      (row.rel == Rel::Ge && row.rhs <= kSimplexTol);
      if (!ok) sol.status = Status::Infeasible;
    }
    return sol;
  }

  const StandardForm sf = build_standard_form(p);
  Tableau tab(sf);
  const int m = tab.rows();
  const int n = tab.cols();
  const int iter_cap = detail::simplex_iter_cap(m, n);
  const int stall_cap = detail::simplex_stall_cap(m, n);

  int iters = 0;

  auto run_phase = [&]() -> int {
    return detail::run_simplex_phase(tab, iter_cap, stall_cap, iters);
  };
  auto artificial_free = [&]() {
    const std::vector<int>& b = tab.basis();
    return std::none_of(b.begin(), b.end(),
                        [&](int c) { return c >= tab.art_begin(); });
  };

  // ---- Phase 1: minimize the sum of artificials.
  if (tab.art_begin() < n) {
    std::vector<double> phase1(n, 0.0);
    for (int j = tab.art_begin(); j < n; ++j) phase1[j] = 1.0;
    tab.load_objective(phase1, n);
    const int res = run_phase();
    if (res == 3) {
      sol.status = Status::IterLimit;
      sol.iterations = iters;
      sol.phase1_iterations = iters;
      return sol;
    }
    SUU_CHECK_MSG(res != 2, "phase-1 LP cannot be unbounded");
    // Feasible iff all artificials ended at ~0.
    const double p1 = tab.objective();
    const double feas_tol = kSimplexTol * (1.0 + std::fabs(p1)) * 100;
    if (p1 > feas_tol + 1e-7) {
      sol.status = Status::Infeasible;
      sol.iterations = iters;
      sol.phase1_iterations = iters;
      return sol;
    }
    tab.expel_artificials();
  }
  sol.phase1_iterations = iters;
  if (artificial_free()) sol.feasible_basis = tab.basis();

  // ---- Phase 2: original objective; artificial columns are locked out.
  std::vector<double> phase2(n, 0.0);
  for (int j = 0; j < p.num_vars; ++j) phase2[j] = p.objective[j];
  tab.load_objective(phase2, tab.art_begin());
  const int res = run_phase();
  sol.iterations = iters;
  if (res == 3 || res == 2) {
    sol.status = res == 3 ? Status::IterLimit : Status::Unbounded;
    return sol;
  }

  sol.status = Status::Optimal;
  sol.x = tab.extract(p.num_vars);
  if (artificial_free()) sol.basis = std::move(tab.mutable_basis());
  double obj = 0.0;
  for (int j = 0; j < p.num_vars; ++j) obj += p.objective[j] * sol.x[j];
  sol.objective = obj;

  double scale = 1.0;
  for (const auto& row : p.rows) scale = std::max(scale, std::fabs(row.rhs));
  const double viol = max_violation(p, sol.x);
  SUU_CHECK_MSG(viol <= 1e-5 * scale,
                "simplex result violates constraints by " << viol);
  return sol;
}

}  // namespace suu::lp::oracle
