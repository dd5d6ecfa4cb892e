// Small vectorized kernels for the simplex hot loops.
//
//  - gather_axpy_minus: v[rows[k]] -= a * vals[k] over an index list; the
//    eta-file FTRAN/BTRAN inner loop. Element-wise over distinct rows, so
//    the unrolled loop produces exactly the bits of the naive one.
#pragma once

namespace suu::util::simd {

/// v[rows[k]] -= a * vals[k] for k in [0, nnz): the scattered eta update.
/// Element-wise over distinct rows, so bit-identical to the naive loop.
inline void gather_axpy_minus(double* v, const int* rows, const double* vals,
                              int nnz, double a) {
  int k = 0;
  for (; k + 4 <= nnz; k += 4) {
    v[rows[k]] -= a * vals[k];
    v[rows[k + 1]] -= a * vals[k + 1];
    v[rows[k + 2]] -= a * vals[k + 2];
    v[rows[k + 3]] -= a * vals[k + 3];
  }
  for (; k < nnz; ++k) v[rows[k]] -= a * vals[k];
}

}  // namespace suu::util::simd
