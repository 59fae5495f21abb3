#include "src/linalg/blas.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/panel_kernel.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Cache tile edge of the level-3 drivers: C is cut into kTile x kTile
/// tiles, one task each, and every tile runs through gemm_panel_add.
constexpr std::size_t kTile = 64;

/// Contraction slab: one panel product contracts at most kSlab indices, so
/// a packed operand panel holds at most kTile x kSlab doubles per thread.
/// Slabs run in k order into the same C tile, so every element's sum is
/// still c + a_0 b_0 + a_1 b_1 + ... in k order.
constexpr std::size_t kSlab = 128;

/// Pack space for `per_thread` doubles per thread of a parallel region,
/// allocated once by the calling thread: buffers allocated inside the
/// region would land in one malloc arena per thread, each of which may keep
/// its freed buffer resident.
std::vector<double> pack_space(bool par, std::size_t per_thread) {
  return std::vector<double>(
      per_thread * static_cast<std::size_t>(par ? par::max_threads() : 1));
}

/// Row band of a diagonal tile: the band's columns left of its diagonal
/// block go straight into C, the kBand x kBand diagonal block goes through
/// a scratch tile whose strict upper triangle is dropped.
constexpr std::size_t kBand = 16;

/// Unflatten a lower-triangle tile-pair index t into (ti, tj), tj <= ti,
/// with t = ti * (ti + 1) / 2 + tj.
inline void unflatten_tile_pair(std::size_t t, std::size_t& ti,
                                std::size_t& tj) {
  ti = static_cast<std::size_t>((std::sqrt(8.0 * static_cast<double>(t) + 1.0) - 1.0) / 2.0);
  while ((ti + 1) * (ti + 2) / 2 <= t) ++ti;   // guard against sqrt rounding
  while (ti * (ti + 1) / 2 > t) --ti;
  tj = t - ti * (ti + 1) / 2;
}

}  // namespace

/// One panel product per lower-triangle tile pair (I, J) and contraction
/// slab, C_IJ += A_I * (alpha A_J)^T.  A_I and alpha A_J^T are packed per
/// task into per-thread buffers of kTile x kSlab.  Each C element belongs
/// to exactly one task and sums its whole contraction in order, so the
/// result does not depend on the thread count.
void syrk_lower(std::size_t n, std::size_t k, double alpha, const double* a,
                std::size_t lda, double* c, std::size_t ldc) {
  if (n == 0 || k == 0 || alpha == 0.0) return;
  const std::size_t nt = (n + kTile - 1) / kTile;
  const std::size_t npairs = nt * (nt + 1) / 2;
  const std::size_t slab = std::min(k, kSlab);
  const bool par = par::worth_parallelizing(n * n / 2, k);
  std::vector<double> pack = pack_space(par, 2 * kTile * slab);
#pragma omp parallel if (par)
  {
    double* xp = pack.data() + 2 * kTile * slab *
                                   static_cast<std::size_t>(par::thread_id());
    double* yt = xp + kTile * slab;
    double diag[kBand * kBand] = {};
#pragma omp for schedule(dynamic)
    for (std::size_t t = 0; t < npairs; ++t) {
      std::size_t ti, tj;
      unflatten_tile_pair(t, ti, tj);
      const std::size_t i0 = ti * kTile, mi = std::min(kTile, n - i0);
      const std::size_t j0 = tj * kTile, nj = std::min(kTile, n - j0);
      for (std::size_t q0 = 0; q0 < k; q0 += slab) {
        const std::size_t ks = std::min(slab, k - q0);
        for (std::size_t i = 0; i < mi; ++i) {
          const double* ai = a + lda * (i0 + i) + q0;
          std::copy(ai, ai + ks, xp + ks * i);
        }
        for (std::size_t j = 0; j < nj; ++j) {
          const double* aj = a + lda * (j0 + j) + q0;
          for (std::size_t q = 0; q < ks; ++q) yt[nj * q + j] = alpha * aj[q];
        }
        double* ct = c + ldc * i0 + j0;
        if (ti != tj) {
          gemm_panel_add(mi, ks, nj, xp, ks, yt, nj, ct, ldc);
          continue;
        }
        for (std::size_t r0 = 0; r0 < mi; r0 += kBand) {
          const std::size_t bm = std::min(kBand, mi - r0);
          const double* xr = xp + ks * r0;
          double* cr = ct + ldc * r0;
          gemm_panel_add(bm, ks, r0, xr, ks, yt, nj, cr, ldc);
          for (std::size_t i = 0; i < bm; ++i) {
            for (std::size_t j = 0; j < bm; ++j) {
              diag[bm * i + j] = j <= i ? cr[ldc * i + r0 + j] : 0.0;
            }
          }
          gemm_panel_add(bm, ks, bm, xr, ks, yt + r0, nj, diag, bm);
          for (std::size_t i = 0; i < bm; ++i) {
            for (std::size_t j = 0; j <= i; ++j) cr[ldc * i + r0 + j] = diag[bm * i + j];
          }
        }
      }
    }
  }
}

namespace {

/// Scale the lower triangle of C by beta (the symmetric kernels never read
/// the upper triangle; it is overwritten by the final mirror).
void scale_lower(double beta, Matrix& c) {
  const std::size_t n = c.rows();
  if (beta == 1.0) return;
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    double* row = c.row(i);
    if (beta == 0.0) {
      for (std::size_t j = 0; j <= i; ++j) row[j] = 0.0;
    } else {
      for (std::size_t j = 0; j <= i; ++j) row[j] *= beta;
    }
  }
}

/// Copy the lower triangle into the upper one so C is exactly symmetric.
void mirror_lower(Matrix& c) {
  const std::size_t n = c.rows();
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = c.row(i);
    for (std::size_t j = 0; j < i; ++j) c(j, i) = row[j];
  }
}

}  // namespace

void gemm_accumulate(double alpha, const Matrix& a, const Matrix& b,
                     Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  TBMD_REQUIRE(b.rows() == k, "gemm: inner dimensions differ");
  TBMD_REQUIRE(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  // One task per kTile x kTile tile of C; alpha * A is packed per slab.
  const std::size_t mt = (m + kTile - 1) / kTile;
  const std::size_t nt = (n + kTile - 1) / kTile;
  const bool par = m * n * k > 100000;
  std::vector<double> pack = pack_space(par, kTile * std::min(k, kSlab));
#pragma omp parallel if (par)
  {
    double* ap = pack.data() + kTile * std::min(k, kSlab) *
                                   static_cast<std::size_t>(par::thread_id());
#pragma omp for schedule(static)
    for (std::size_t t = 0; t < mt * nt; ++t) {
      const std::size_t i0 = t / nt * kTile, mi = std::min(kTile, m - i0);
      const std::size_t j0 = t % nt * kTile, nj = std::min(kTile, n - j0);
      for (std::size_t q0 = 0; q0 < k; q0 += kSlab) {
        const std::size_t ks = std::min(kSlab, k - q0);
        for (std::size_t i = 0; i < mi; ++i) {
          const double* ai = a.row(i0 + i) + q0;
          for (std::size_t q = 0; q < ks; ++q) ap[ks * i + q] = alpha * ai[q];
        }
        gemm_panel_add(mi, ks, nj, ap, ks, b.row(q0) + j0, n,
                       c.row(i0) + j0, n);
      }
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  gemm_accumulate(1.0, a, b, c);
  return c;
}

void gemm_panel_add(std::size_t m, std::size_t k, std::size_t n,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  detail::panel_add(m, k, n, a, lda, b, ldb, c, ldc);
}

double tile_norm2(std::size_t bs, const double* a) {
  double s = 0.0;
  for (std::size_t q = 0; q < bs * bs; ++q) s += a[q] * a[q];
  return s;
}

double tile_norm2_rect(std::size_t m, std::size_t n, const double* a) {
  double s = 0.0;
  for (std::size_t q = 0; q < m * n; ++q) s += a[q] * a[q];
  return s;
}

void syrk(double alpha, const Matrix& a, double beta, Matrix& c) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(c.rows() == n && c.cols() == n, "syrk: C must be n x n");
  scale_lower(beta, c);
  syrk_lower(n, a.cols(), alpha, a.data(), a.cols(), c.data(), n);
  mirror_lower(c);
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  TBMD_REQUIRE(a.cols() == x.size(), "matvec: shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
#pragma omp parallel for schedule(static) if (a.rows() * a.cols() > 100000)
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> matvec_transposed(const Matrix& a,
                                      const std::vector<double>& x) {
  TBMD_REQUIRE(a.rows() == x.size(), "matvec_transposed: shape mismatch");
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
  return y;
}

double dot(const std::vector<double>& x, const std::vector<double>& y) {
  TBMD_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  TBMD_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(const std::vector<double>& x) { return std::sqrt(dot(x, x)); }

}  // namespace tbmd::linalg
