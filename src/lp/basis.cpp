#include "lp/basis.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "lp/simplex.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace suu::lp {

int parse_refactor_interval(const char* env) {
  if (env == nullptr || *env == '\0') return kDefaultRefactorInterval;
  if (*env < '0' || *env > '9') {
    // strtol would skip leading whitespace and accept a sign; "bare decimal
    // integer" means the first character is already a digit.
    return kDefaultRefactorInterval;
  }
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE) {
    return kDefaultRefactorInterval;  // garbage, trailing junk, or overflow
  }
  if (v < 1 || v > 100000) {
    return kDefaultRefactorInterval;  // zero/negative/absurd: reject, do not clamp
  }
  return static_cast<int>(v);
}

int refactor_interval() {
  static const int cached =
      parse_refactor_interval(std::getenv("SUU_LP_REFACTOR_INTERVAL"));
  return cached;
}

StandardForm build_standard_form(const Problem& p) {
  StandardForm sf;
  const int m = static_cast<int>(p.rows.size());
  sf.m = m;
  sf.n_orig = p.num_vars;

  // Normalize rows so rhs >= 0, accumulating duplicate terms in term order
  // (bit-identical to a dense row-by-row accumulation).
  std::vector<std::vector<std::pair<int, double>>> row_terms(
      static_cast<std::size_t>(m));
  std::vector<Rel> rel(static_cast<std::size_t>(m));
  sf.rhs.assign(static_cast<std::size_t>(m), 0.0);
  std::vector<double> scratch(static_cast<std::size_t>(sf.n_orig), 0.0);
  std::vector<char> in_touch(static_cast<std::size_t>(sf.n_orig), 0);
  std::vector<int> touched;
  for (int r = 0; r < m; ++r) {
    const Row& row = p.rows[static_cast<std::size_t>(r)];
    touched.clear();
    for (const auto& [v, c] : row.terms) {
      const auto vi = static_cast<std::size_t>(v);
      if (!in_touch[vi]) {
        in_touch[vi] = 1;
        touched.push_back(v);
      }
      scratch[vi] += c;
    }
    Rel rr = row.rel;
    double rhs = row.rhs;
    if (rhs < 0) {
      for (const int v : touched) {
        scratch[static_cast<std::size_t>(v)] =
            -scratch[static_cast<std::size_t>(v)];
      }
      rhs = -rhs;
      rr = rr == Rel::Le ? Rel::Ge : Rel::Le;
    }
    std::sort(touched.begin(), touched.end());
    auto& out = row_terms[static_cast<std::size_t>(r)];
    out.reserve(touched.size());
    for (const int v : touched) {
      const auto vi = static_cast<std::size_t>(v);
      if (scratch[vi] != 0.0) out.emplace_back(v, scratch[vi]);
      scratch[vi] = 0.0;
      in_touch[vi] = 0;
    }
    rel[static_cast<std::size_t>(r)] = rr;
    sf.rhs[static_cast<std::size_t>(r)] = rhs;
  }

  sf.n_total = sf.n_orig + m;

  // CSC assembly: count, prefix-sum, fill by ascending row so rows within a
  // column come out sorted.
  std::vector<int> cnt(static_cast<std::size_t>(sf.n_total), 0);
  for (const auto& terms : row_terms) {
    for (const auto& [v, val] : terms) ++cnt[static_cast<std::size_t>(v)];
  }
  for (int r = 0; r < m; ++r) ++cnt[static_cast<std::size_t>(sf.n_orig + r)];
  sf.col_ptr.assign(static_cast<std::size_t>(sf.n_total) + 1, 0);
  for (int j = 0; j < sf.n_total; ++j) {
    sf.col_ptr[static_cast<std::size_t>(j) + 1] =
        sf.col_ptr[static_cast<std::size_t>(j)] +
        cnt[static_cast<std::size_t>(j)];
  }
  const int nnz = sf.col_ptr.back();
  sf.col_row.assign(static_cast<std::size_t>(nnz), 0);
  sf.col_val.assign(static_cast<std::size_t>(nnz), 0.0);
  std::vector<int> next(sf.col_ptr.begin(), sf.col_ptr.end() - 1);
  auto put = [&](int col, int r, double v) {
    const int k = next[static_cast<std::size_t>(col)]++;
    sf.col_row[static_cast<std::size_t>(k)] = r;
    sf.col_val[static_cast<std::size_t>(k)] = v;
  };
  for (int r = 0; r < m; ++r) {
    for (const auto& [v, val] : row_terms[static_cast<std::size_t>(r)]) {
      put(v, r, val);
    }
    const bool le = rel[static_cast<std::size_t>(r)] == Rel::Le;
    put(sf.n_orig + r, r, le ? 1.0 : -1.0);
  }
  return sf;
}

// ---------------------------------------------------------- BasisFactorization

BasisFactorization::BasisFactorization(const StandardForm& sf) : sf_(&sf) {
  row_to_col_.assign(static_cast<std::size_t>(sf.m), -1);
}

void BasisFactorization::append(int p, double piv, const std::vector<double>& w,
                                const std::vector<int>& support) {
  pivot_row_.push_back(p);
  inv_piv_.push_back(1.0 / piv);
  for (const int r : support) {
    const double v = w[static_cast<std::size_t>(r)];
    if (r == p || v == 0.0) continue;
    off_row_.push_back(r);
    off_val_.push_back(v);
  }
  ptr_.push_back(static_cast<int>(off_row_.size()));
}

bool BasisFactorization::refactorize(const std::vector<int>& cols) {
  const int m = sf_->m;
  pivot_row_.clear();
  inv_piv_.clear();
  ptr_.assign(1, 0);
  off_row_.clear();
  off_val_.clear();
  update_etas_ = 0;
  row_to_col_.assign(static_cast<std::size_t>(m), -1);

  // Sparsest-first column order approximates the triangularization a
  // Markowitz ordering would find: for LP1/LP2 bases nearly every column is
  // a singleton or doubleton, so the eta file stays near-permutation.
  std::vector<int> order(cols);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int na = sf_->col_nnz(a), nb = sf_->col_nnz(b);
    return na != nb ? na < nb : a < b;
  });

  std::vector<char> claimed(static_cast<std::size_t>(m), 0);
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  std::vector<int> touched;
  std::vector<char> in_touch(static_cast<std::size_t>(m), 0);
  auto touch = [&](int r) {
    if (!in_touch[static_cast<std::size_t>(r)]) {
      in_touch[static_cast<std::size_t>(r)] = 1;
      touched.push_back(r);
    }
  };

  for (const int c : order) {
    touched.clear();
    for (int k = sf_->col_ptr[static_cast<std::size_t>(c)];
         k < sf_->col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const int r = sf_->col_row[static_cast<std::size_t>(k)];
      w[static_cast<std::size_t>(r)] = sf_->col_val[static_cast<std::size_t>(k)];
      touch(r);
    }
    // Apply the file built so far (tracking fill-in).
    for (std::size_t e = 0; e < pivot_row_.size(); ++e) {
      const int p = pivot_row_[e];
      const double vp = w[static_cast<std::size_t>(p)];
      if (vp == 0.0) continue;
      const double t = vp * inv_piv_[e];
      w[static_cast<std::size_t>(p)] = t;
      for (int k = ptr_[e]; k < ptr_[e + 1]; ++k) {
        const int r = off_row_[static_cast<std::size_t>(k)];
        touch(r);
        w[static_cast<std::size_t>(r)] -= off_val_[static_cast<std::size_t>(k)] * t;
      }
    }
    // Partial pivoting restricted to unclaimed rows; ties break to the
    // lowest row index for determinism.
    int p = -1;
    double best = kPivotTol;
    for (const int r : touched) {
      if (claimed[static_cast<std::size_t>(r)]) continue;
      const double a = std::fabs(w[static_cast<std::size_t>(r)]);
      if (a > best || (a == best && p >= 0 && r < p)) {
        best = a;
        p = r;
      }
    }
    if (p < 0) {
      for (const int r : touched) {
        w[static_cast<std::size_t>(r)] = 0.0;
        in_touch[static_cast<std::size_t>(r)] = 0;
      }
      return false;  // numerically singular
    }
    // Identity transforms (unit pivot, no off-pivot fill) carry no
    // information — the initial slack/artificial basis is all such columns.
    bool has_off = false;
    for (const int r : touched) {
      if (r != p && w[static_cast<std::size_t>(r)] != 0.0) {
        has_off = true;
        break;
      }
    }
    if (has_off || w[static_cast<std::size_t>(p)] != 1.0) {
      append(p, w[static_cast<std::size_t>(p)], w, touched);
    }
    claimed[static_cast<std::size_t>(p)] = 1;
    row_to_col_[static_cast<std::size_t>(p)] = c;
    for (const int r : touched) {
      w[static_cast<std::size_t>(r)] = 0.0;
      in_touch[static_cast<std::size_t>(r)] = 0;
    }
  }
  return true;
}

void BasisFactorization::ftran_from(double* v, std::size_t first_eta) const {
  for (std::size_t e = first_eta; e < pivot_row_.size(); ++e) {
    const int p = pivot_row_[e];
    const double vp = v[p];
    if (vp == 0.0) continue;
    const double t = vp * inv_piv_[e];
    v[p] = t;
    util::simd::gather_axpy_minus(v, off_row_.data() + ptr_[e],
                                  off_val_.data() + ptr_[e],
                                  ptr_[e + 1] - ptr_[e], t);
  }
}

void BasisFactorization::ftran(std::vector<double>& v) const {
  ftran_from(v.data(), 0);
}

void BasisFactorization::btran(std::vector<double>& v) const {
  for (std::size_t e = pivot_row_.size(); e-- > 0;) {
    const int p = pivot_row_[e];
    double s = v[static_cast<std::size_t>(p)];
    for (int k = ptr_[e]; k < ptr_[e + 1]; ++k) {
      s -= off_val_[static_cast<std::size_t>(k)] *
           v[static_cast<std::size_t>(off_row_[static_cast<std::size_t>(k)])];
    }
    v[static_cast<std::size_t>(p)] = s * inv_piv_[e];
  }
}

void BasisFactorization::ftran(ScatteredVec& v) const {
  const int cap = sf_->m / kScatterDenseDen;
  if (v.dense || static_cast<int>(v.idx.size()) > cap) {
    ftran_from(v.val.data(), 0);
    v.dense = true;
    return;
  }
  for (std::size_t e = 0; e < pivot_row_.size(); ++e) {
    const int p = pivot_row_[e];
    const double vp = v.val[static_cast<std::size_t>(p)];
    if (vp == 0.0) continue;
    const double t = vp * inv_piv_[e];
    v.val[static_cast<std::size_t>(p)] = t;
    for (int k = ptr_[e]; k < ptr_[e + 1]; ++k) {
      const int r = off_row_[static_cast<std::size_t>(k)];
      v.val[static_cast<std::size_t>(r)] -=
          off_val_[static_cast<std::size_t>(k)] * t;
      if (!v.mark[static_cast<std::size_t>(r)]) {
        v.mark[static_cast<std::size_t>(r)] = 1;
        v.idx.push_back(r);
      }
    }
    if (static_cast<int>(v.idx.size()) > cap) {
      // Filled in past the threshold: the dense kernel is cheaper for the
      // rest of the file (identical arithmetic either way).
      ftran_from(v.val.data(), e + 1);
      v.dense = true;
      return;
    }
  }
}

void BasisFactorization::push_eta(int p, const std::vector<double>& w,
                                  const std::vector<int>& support) {
  // No identity skip here: update etas come from genuine pivots, whose
  // pivot element already passed the ratio test's kPivotTol gate.
  append(p, w[static_cast<std::size_t>(p)], w, support);
  ++update_etas_;
}

// ------------------------------------------------------------ RevisedSimplex

namespace {

// The revised simplex: install / load_objective / iterate / extract, with
// every quantity a pivot needs recomputed through the factorization
// instead of maintained in a dense arena (the dense tableau survives only
// as the differential oracle under tests/).
//
// Pricing is Dantzig's rule over every nonbasic column, each iteration,
// from one BTRAN of c_B: reduced costs are exact (never incrementally
// drifted), and a pass that finds no improving column is the optimality
// certificate. It is the differential oracle's rule too, so from the same
// basis both engines take the same pivots up to roundoff.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const StandardForm& sf) : sf_(sf), fact_(sf) {
    basic_pos_.assign(static_cast<std::size_t>(sf_.n_total), -1);
    w_.resize(sf_.m);
    y_.assign(static_cast<std::size_t>(sf_.m), 0.0);
    support_.reserve(static_cast<std::size_t>(sf_.m));
  }

  /// Factorize `cols` as the basis and recompute x_B. False when singular.
  bool install(const std::vector<int>& cols) {
    if (!fact_.refactorize(cols)) return false;
    ++refactorizations_;
    basis_ = fact_.row_to_col();
    std::fill(basic_pos_.begin(), basic_pos_.end(), -1);
    for (int r = 0; r < sf_.m; ++r) {
      basic_pos_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] =
          r;
    }
    compute_xb();
    return true;
  }

  /// Install the starting basis: one factorization and one FTRAN. False
  /// when it is singular or its vertex is infeasible for this rhs.
  bool install_start(const std::vector<int>& cols) {
    if (!install(cols)) return false;
    return std::all_of(xb_.begin(), xb_.end(),
                       [](double v) { return v >= 0; });
  }

  /// Price the original variables by `c` (zero on the slacks).
  void load_objective(const std::vector<double>& c) {
    cost_.assign(static_cast<std::size_t>(sf_.n_total), 0.0);
    std::copy(c.begin(), c.end(), cost_.begin());
    obj_ = basic_objective();
  }

  /// Advisory between refactorizations: pivot() advances it by
  /// d_enter * theta.
  double objective() const { return obj_; }

  // One revised iteration. 0 = optimal, 1 = pivoted, 2 = unbounded,
  // -1 = numerical trouble (refactorization of the current basis failed).
  // Dantzig enters the most negative reduced cost, lowest index on ties;
  // Bland the first improving column.
  int iterate(bool bland) {
    compute_y();
    int enter = -1;
    double d_enter = -kSimplexTol;
    for (int j = 0; j < sf_.n_total; ++j) {
      if (basic_pos_[static_cast<std::size_t>(j)] >= 0) continue;
      const double d = reduced_cost(j);
      if (d < d_enter) {
        enter = j;
        d_enter = d;
        if (bland) break;
      }
    }
    if (enter < 0) return 0;

    // FTRAN the entering column. Ascending-row support keeps degenerate
    // ratio-test ties (and the eta layout downstream) deterministic and
    // identical to the historical dense scan.
    w_.clear();
    load_column(enter);
    fact_.ftran(w_);
    note_ftran();
    support_.clear();
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    auto ratio_test = [&](int r, double a) {
      if (a == 0.0) return;
      support_.push_back(r);
      if (a > kPivotTol) {
        const double ratio = xb_[static_cast<std::size_t>(r)] / a;
        if (ratio < best_ratio - kSimplexTol ||
            (ratio < best_ratio + kSimplexTol &&
             (leave < 0 || basis_[static_cast<std::size_t>(r)] <
                               basis_[static_cast<std::size_t>(leave)]))) {
          best_ratio = ratio;
          leave = r;
        }
      }
    };
    if (w_.dense) {
      for (int r = 0; r < sf_.m; ++r) {
        ratio_test(r, w_.val[static_cast<std::size_t>(r)]);
      }
    } else {
      std::sort(w_.idx.begin(), w_.idx.end());
      for (const int r : w_.idx) {
        ratio_test(r, w_.val[static_cast<std::size_t>(r)]);
      }
    }
    if (leave < 0) {
      w_.clear();
      return 2;
    }
    return pivot(leave, enter, d_enter) ? 1 : -1;
  }

  std::vector<double> extract(int n_vars) const {
    std::vector<double> x(static_cast<std::size_t>(n_vars), 0.0);
    for (int r = 0; r < sf_.m; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < n_vars) {
        x[static_cast<std::size_t>(b)] =
            std::max(0.0, xb_[static_cast<std::size_t>(r)]);
      }
    }
    return x;
  }

  std::vector<int>& mutable_basis() { return basis_; }

 private:
  void compute_xb() {
    xb_ = sf_.rhs;
    fact_.ftran(xb_);
    for (double& v : xb_) {
      if (v < 0 && v > -kSimplexTol) v = 0.0;
    }
  }

  double basic_objective() const {
    double obj = 0.0;
    for (int r = 0; r < sf_.m; ++r) {
      obj += cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] *
             xb_[static_cast<std::size_t>(r)];
    }
    return obj;
  }

  void compute_y() {
    for (int r = 0; r < sf_.m; ++r) {
      y_[static_cast<std::size_t>(r)] =
          cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
    }
    fact_.btran(y_);
  }

  // c_j - y · a_j over column j's sparse entries.
  double reduced_cost(int j) const {
    double s = 0.0;
    for (int k = sf_.col_ptr[static_cast<std::size_t>(j)];
         k < sf_.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      s += y_[static_cast<std::size_t>(
               sf_.col_row[static_cast<std::size_t>(k)])] *
           sf_.col_val[static_cast<std::size_t>(k)];
    }
    return cost_[static_cast<std::size_t>(j)] - s;
  }

  void load_column(int j) {
    for (int k = sf_.col_ptr[static_cast<std::size_t>(j)];
         k < sf_.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      w_.insert(sf_.col_row[static_cast<std::size_t>(k)],
                sf_.col_val[static_cast<std::size_t>(k)]);
    }
  }

  void note_ftran() {
    ++ftran_calls_;
    ftran_nnz_ += w_.dense ? sf_.m : static_cast<int>(w_.idx.size());
  }

  // Commit the pivot: update x_B, swap the basis, append the update eta and
  // refactorize on schedule. False = the scheduled refactorization found the
  // basis numerically singular (the solve reports NumericalFailure).
  bool pivot(int leave, int enter, double d_enter) {
    const double piv = w_.val[static_cast<std::size_t>(leave)];
    const double theta = xb_[static_cast<std::size_t>(leave)] / piv;
    for (const int r : support_) {
      if (r == leave) continue;
      double& v = xb_[static_cast<std::size_t>(r)];
      v -= theta * w_.val[static_cast<std::size_t>(r)];
      if (v < 0 && v > -kSimplexTol) v = 0.0;
    }
    xb_[static_cast<std::size_t>(leave)] = theta;
    obj_ += d_enter * theta;
    fact_.push_eta(leave, w_.val, support_);
    basic_pos_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(leave)])] = -1;
    basis_[static_cast<std::size_t>(leave)] = enter;
    basic_pos_[static_cast<std::size_t>(enter)] = leave;
    w_.clear();
    if (fact_.etas_since_refactor() >= refactor_interval()) {
      if (!install(basis_)) return false;
      obj_ = basic_objective();  // squash incremental drift
    }
    return true;
  }

  const StandardForm& sf_;
  BasisFactorization fact_;
  std::vector<int> basis_;       // basic column per row
  std::vector<int> basic_pos_;   // column -> row, -1 when nonbasic
  std::vector<double> xb_;       // basic values per row (B^{-1} b)
  std::vector<double> cost_;     // active objective, dense over columns
  double obj_ = 0.0;
  ScatteredVec w_;               // scratch: FTRAN'd entering column
  std::vector<double> y_;        // scratch: BTRAN'd pricing row
  std::vector<int> support_;     // scratch: nonzero rows of w_
  // FTRAN telemetry for the perf benches (sparsity of entering columns).
  std::int64_t ftran_calls_ = 0;
  std::int64_t ftran_nnz_ = 0;
  std::int64_t refactorizations_ = 0;  // successful install() calls

 public:
  std::int64_t ftran_calls() const { return ftran_calls_; }
  std::int64_t ftran_nnz() const { return ftran_nnz_; }
  std::int64_t refactorizations() const { return refactorizations_; }
};

}  // namespace

Solution solve_revised(const Problem& p, const StandardForm& sf,
                       const std::vector<int>& basis) {
  const int m = sf.m;
  const int n = sf.n_total;
  SUU_CHECK_MSG(static_cast<int>(basis.size()) == m,
                "starting basis has " << basis.size() << " columns for " << m
                                      << " rows");
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (const int c : basis) {
    SUU_CHECK_MSG(c >= 0 && c < n,
                  "starting basis column " << c << " outside [0, " << n << ")");
    SUU_CHECK_MSG(!used[static_cast<std::size_t>(c)],
                  "starting basis repeats column " << c);
    used[static_cast<std::size_t>(c)] = 1;
  }

  Solution sol;
  RevisedSimplex rs(sf);
  int iters = 0;
  auto finish = [&](Solution s) {
    s.ftran_calls = rs.ftran_calls();
    s.ftran_nnz = rs.ftran_nnz();
    s.refactorizations = rs.refactorizations();
    return s;
  };
  // No trustworthy answer: report it with the pivots spent, no point.
  auto failure = [&]() {
    sol.status = Status::NumericalFailure;
    sol.iterations = iters;
    sol.x.clear();
    sol.basis.clear();
    return finish(std::move(sol));
  };

  if (!rs.install_start(basis)) return failure();
  rs.load_objective(p.objective);
  // The shared anti-cycling driver; -1 (numerical trouble from a failed
  // refactorization) passes through like any non-pivot result.
  const int res =
      detail::run_simplex_phase(rs, detail::simplex_iter_cap(m, n),
                                detail::simplex_stall_cap(m, n), iters);
  sol.iterations = iters;
  if (res == -1) return failure();
  if (res == 3 || res == 2) {
    sol.status = res == 3 ? Status::IterLimit : Status::Unbounded;
    return finish(sol);
  }

  sol.status = Status::Optimal;
  sol.x = rs.extract(p.num_vars);
  sol.basis = std::move(rs.mutable_basis());
  double obj = 0.0;
  for (int j = 0; j < p.num_vars; ++j) {
    obj += p.objective[static_cast<std::size_t>(j)] *
           sol.x[static_cast<std::size_t>(j)];
  }
  sol.objective = obj;

  double scale = 1.0;
  for (const auto& row : p.rows) scale = std::max(scale, std::fabs(row.rhs));
  if (max_violation(p, sol.x) > 1e-5 * scale) return failure();
  return finish(sol);
}

}  // namespace suu::lp
