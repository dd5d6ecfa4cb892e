// Entering-variable pricing for the simplex.
//
// Dantzig pricing ("most negative reduced cost") is scale-sensitive: a
// column whose reduced cost looks steep only because its FTRAN'd image is
// long gets picked again and again, and the n>=1024 LP1 phase-1 runs spend
// thousands of pivots shuffling such columns. The classical fix is to
// normalize the reduced cost by (an estimate of) the edge length
// ||B^{-1} a_j||, selecting the entering column by
//
//     maximize  d_j^2 / w_j   over improving columns (d_j < -tol)
//
// where w_j is a reference weight maintained incrementally per pivot by
// Devex (Harris '73, as formulated by Forrest–Goldfarb '92): w_j
// approximates the squared edge norm relative to a reference framework
// (the nonbasic set at the last reset). Per pivot, for every column j in
// the pivot row's support with ratio r_j = alpha_rj / alpha_rq:
//     w_j <- max(w_j, r_j^2 * w_q)
// and the leaving variable gets max(w_q / piv^2, 1). Costs nothing beyond
// the pivot row itself.
//
// Devex only re-ranks columns that are already improving; which columns
// COUNT as improving, and the optimality certificate, always come from
// exact reduced costs (the engine recomputes them before declaring
// optimality). That is what keeps Devex's verdicts identical to Dantzig's
// under the differential oracle — the rule changes the path, never the
// answer.
//
// The rule is fixed per program class, not chosen by callers: the
// crash-started programs, LP1 (rounding/lp1.cpp, BM_Lp1Pricing) and LP2
// (rounding/lp2.cpp), pass Dantzig; cold programs run the SimplexOptions
// default, Devex.
#pragma once

#include <vector>

namespace suu::lp::pricing {

/// Weights above this trigger a framework reset (all weights back to 1):
/// the reference framework has drifted too far for the approximation to
/// mean anything, and oversized weights would just freeze those columns out.
inline constexpr double kWeightResetThreshold = 1e7;

/// Devex reference weights. Inactive until reset(n) is called (the engine
/// resets per objective load: each phase starts a fresh reference
/// framework).
class ReferenceWeights {
 public:
  void reset(int n) {
    w_.assign(static_cast<std::size_t>(n), 1.0);
    needs_reset_ = false;
  }
  void deactivate() { w_.clear(); }
  bool active() const { return !w_.empty(); }

  double operator[](int j) const { return w_[static_cast<std::size_t>(j)]; }

  /// Selection score for an improving column: d^2 / w_j. Larger is better.
  double score(int j, double d) const {
    return d * d / w_[static_cast<std::size_t>(j)];
  }

  /// Devex update for a pivot-row column with ratio r = alpha_rj/alpha_rq,
  /// where wq is the entering column's weight before the pivot.
  void note_devex(int j, double ratio, double wq) {
    const double cand = ratio * ratio * wq;
    double& w = w_[static_cast<std::size_t>(j)];
    if (cand > w) {
      w = cand;
      if (cand > kWeightResetThreshold) needs_reset_ = true;
    }
  }

  /// Weight of the variable leaving on a pivot with element `piv`, given
  /// the entering column's pre-pivot weight.
  void set_leaving(int j, double entering_weight, double piv) {
    double w = entering_weight / (piv * piv);
    if (w < 1.0) w = 1.0;
    w_[static_cast<std::size_t>(j)] = w;
    if (w > kWeightResetThreshold) needs_reset_ = true;
  }

  /// True once any weight crossed kWeightResetThreshold; the engine is
  /// expected to call reset(n) at the next convenient point.
  bool needs_reset() const { return needs_reset_; }

 private:
  std::vector<double> w_;
  bool needs_reset_ = false;
};

}  // namespace suu::lp::pricing
