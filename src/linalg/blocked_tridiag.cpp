#include "src/linalg/blocked_tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Minimum trailing dimension before the symv / rank-2k loops fork threads.
constexpr std::size_t kParallelCutoff = 128;

/// y = A_sym * v for the trailing submatrix rows/cols [lo, n), reading only
/// the lower triangle of `a`.  Streams each row once (every stored element
/// is used for both its (i,j) and (j,i) role), so the kernel runs at memory
/// bandwidth.  `v` and `y` are full-length buffers; entries outside [lo, n)
/// are ignored / left untouched.
///
/// Parallel sweep: one static row range per thread, range t of T being
/// [lo + len * sqrt(t / T), lo + len * sqrt((t + 1) / T)) -- row i costs
/// i - lo + 1 updates, so the ranges split the triangle into equal areas --
/// each scattering into its own slice of `partials`; after the region the
/// slices are summed in range order.  Every y[k] is therefore the same sum
/// in the same order on every run at a fixed thread count (an OpenMP array
/// reduction would combine the per-thread copies in whatever order the
/// threads finish).  Summing after the region keeps the sweep at one
/// barrier per call, which matters when a busy host deschedules threads.
void symv_lower(const Matrix& a, std::size_t lo, const double* v, double* y,
                std::vector<double>& partials) {
  const std::size_t n = a.rows();
  const std::size_t len = n - lo;
  // Rows [begin, end) of the product, accumulated into acc[k - lo].
  const auto sweep = [&](std::size_t begin, std::size_t end, double* acc) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* row = a.row(i);
      const double vi = v[i];
      double s = row[i] * vi;
      for (std::size_t k = lo; k < i; ++k) {
        s += row[k] * v[k];
        acc[k - lo] += row[k] * vi;
      }
      acc[i - lo] += s;
    }
  };
  const int threads = len >= kParallelCutoff ? par::max_threads() : 1;
  if (threads == 1) {
    std::fill(y + lo, y + n, 0.0);
    sweep(lo, n, y + lo);
    return;
  }
  const auto nt = static_cast<std::size_t>(threads);
  // First row of range t; bound(nt) == n exactly (sqrt(1.0) == 1.0).
  const auto bound = [&](std::size_t t) {
    return lo + static_cast<std::size_t>(
                    static_cast<double>(len) *
                    std::sqrt(static_cast<double>(t) /
                              static_cast<double>(nt)));
  };
  if (partials.size() < nt * len) partials.resize(nt * len);
  // Range t only writes rows below bound(t + 1), so only that prefix of
  // its slice is zeroed and summed.  The loop form stays correct if the
  // runtime grants fewer threads than requested (e.g. a nested call).
#pragma omp parallel for schedule(static, 1) num_threads(threads)
  for (std::size_t t = 0; t < nt; ++t) {
    double* part = partials.data() + t * len;
    std::fill(part, part + (bound(t + 1) - lo), 0.0);
    sweep(bound(t), bound(t + 1), part);
  }
  std::fill(y + lo, y + n, 0.0);
  for (std::size_t t = 0; t < nt; ++t) {
    const double* part = partials.data() + t * len;
    const std::size_t end = bound(t + 1) - lo;
    for (std::size_t k = 0; k < end; ++k) y[lo + k] += part[k];
  }
}

}  // namespace

TridiagFactorization blocked_tridiagonalize(const Matrix& a,
                                            std::size_t block) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(n == a.cols(), "blocked_tridiagonalize: matrix must be square");
  TBMD_REQUIRE(block >= 1, "blocked_tridiagonalize: block must be >= 1");

  TridiagFactorization f;
  f.reflectors = a;
  f.tau.assign(n, 0.0);
  f.d.assign(n, 0.0);
  f.e.assign(n, 0.0);
  if (n == 0) return f;
  if (n == 1) {
    f.d[0] = a(0, 0);
    return f;
  }

  Matrix& r = f.reflectors;
  const std::size_t nrefl = n - 2;  // reflectors for columns 0 .. n-3
  const std::size_t nb = std::min<std::size_t>(block, std::max<std::size_t>(nrefl, 1));

  Matrix w(n, nb, 0.0);             // accumulated couplings W for the panel
  std::vector<double> v(n, 0.0);    // contiguous copy of the current reflector
  std::vector<double> y(n, 0.0);    // symv result / scratch
  std::vector<double> symv_partials;  // per-thread symv slices
  std::vector<double> vrow(nb), wrow(nb), tmp1(nb), tmp2(nb);

  for (std::size_t p = 0; p < nrefl; p += nb) {
    const std::size_t pw = std::min(nb, nrefl - p);
    w.fill(0.0);

    for (std::size_t jj = 0; jj < pw; ++jj) {
      const std::size_t j = p + jj;

      // Apply the panel's pending rank-2 updates to column j (rows j..n-1):
      // a(:, j) -= V W(j, :)^T + W V(j, :)^T.
      if (jj > 0) {
        for (std::size_t c = 0; c < jj; ++c) {
          vrow[c] = r(j, p + c);
          wrow[c] = w(j, c);
        }
        for (std::size_t i = j; i < n; ++i) {
          const double* ri = r.row(i);
          const double* wi = w.row(i);
          double s = r(i, j);
          for (std::size_t c = 0; c < jj; ++c) {
            s -= ri[p + c] * wrow[c] + wi[c] * vrow[c];
          }
          r(i, j) = s;
        }
      }
      f.d[j] = r(j, j);

      // Generate the Householder reflector annihilating a(j+2:n, j).
      const double alpha = r(j + 1, j);
      double sigma = 0.0;
      for (std::size_t i = j + 2; i < n; ++i) sigma += r(i, j) * r(i, j);
      if (sigma == 0.0) {
        f.e[j + 1] = alpha;
        f.tau[j] = 0.0;
        r(j + 1, j) = 1.0;  // v = e1; harmless since tau = 0 makes H = I
      } else {
        const double beta =
            (alpha >= 0.0) ? -std::sqrt(alpha * alpha + sigma)
                           : std::sqrt(alpha * alpha + sigma);
        f.tau[j] = (beta - alpha) / beta;
        const double scale = 1.0 / (alpha - beta);
        for (std::size_t i = j + 2; i < n; ++i) r(i, j) *= scale;
        r(j + 1, j) = 1.0;
        f.e[j + 1] = beta;
      }

      // W(:, jj) = tau * (A_j v - 0.5 tau (v^T A_j v) v), where A_j is the
      // trailing matrix with the panel's pending updates folded in through
      // the V/W correction terms (stored entries are pre-update).
      for (std::size_t i = j + 1; i < n; ++i) v[i] = r(i, j);
      symv_lower(r, j + 1, v.data(), y.data(), symv_partials);
      if (jj > 0) {
        for (std::size_t c = 0; c < jj; ++c) {
          double s1 = 0.0, s2 = 0.0;
          for (std::size_t i = j + 1; i < n; ++i) {
            s1 += w(i, c) * v[i];
            s2 += r(i, p + c) * v[i];
          }
          tmp1[c] = s1;
          tmp2[c] = s2;
        }
        for (std::size_t i = j + 1; i < n; ++i) {
          const double* ri = r.row(i);
          const double* wi = w.row(i);
          double s = y[i];
          for (std::size_t c = 0; c < jj; ++c) {
            s -= ri[p + c] * tmp1[c] + wi[c] * tmp2[c];
          }
          y[i] = s;
        }
      }
      const double tau = f.tau[j];
      double vy = 0.0;
      for (std::size_t i = j + 1; i < n; ++i) {
        y[i] *= tau;
        vy += y[i] * v[i];
      }
      const double corr = -0.5 * tau * vy;
      for (std::size_t i = j + 1; i < n; ++i) {
        w(i, jj) = y[i] + corr * v[i];
      }
    }

    // Deferred symmetric rank-2k trailing update (the level-3 bulk):
    // A(q:, q:) -= V W^T + W V^T on the lower triangle, q = p + pw, done by
    // the shared blas rank-2k tile kernel on the in-place submatrix views
    // V = r(q:, p:p+pw), W = w(q:, 0:pw), C = r(q:, q:).
    const std::size_t q0 = p + pw;
    syr2k_lower(n - q0, pw, -1.0, r.row(q0) + p, n, w.row(q0), nb,
                r.row(q0) + q0, n);
  }

  f.d[n - 2] = r(n - 2, n - 2);
  f.d[n - 1] = r(n - 1, n - 1);
  f.e[n - 1] = r(n - 1, n - 2);
  f.e[0] = 0.0;
  return f;
}

void apply_q(const TridiagFactorization& f, Matrix& z) {
  const std::size_t n = f.size();
  TBMD_REQUIRE(z.rows() == n, "apply_q: row count mismatch");
  if (n < 3 || z.cols() == 0) return;  // Q == I for n < 3

  const Matrix& r = f.reflectors;
  const std::size_t m = z.cols();
  const std::size_t nrefl = n - 2;
  constexpr std::size_t kNb = 32;

  Matrix t(kNb, kNb, 0.0);   // triangular factor of the WY block
  Matrix w1(kNb, m, 0.0);    // V^T Z, then T * (V^T Z)
  std::vector<double> s(kNb);

  // Q = B_0 B_1 ... B_L with forward-columnwise blocks B = I - V T V^T;
  // Q Z applies the blocks in reverse order.
  const std::size_t nblocks = (nrefl + kNb - 1) / kNb;
  for (std::size_t blk = nblocks; blk-- > 0;) {
    const std::size_t p = blk * kNb;
    const std::size_t pw = std::min(kNb, nrefl - p);

    // T factor (LARFT, forward columnwise): T(c,c) = tau_c,
    // T(0:c, c) = -tau_c T(0:c, 0:c) (V^T v_c)(0:c).  v_c is zero at and
    // above row p+c, so the dot products only run over rows p+c+1 .. n-1.
    for (std::size_t c = 0; c < pw; ++c) {
      const double tau_c = f.tau[p + c];
      for (std::size_t b = 0; b < c; ++b) {
        double dotv = 0.0;
        for (std::size_t i = p + c + 1; i < n; ++i) {
          dotv += r(i, p + b) * r(i, p + c);
        }
        s[b] = dotv;
      }
      for (std::size_t b = 0; b < c; ++b) {
        double acc = 0.0;
        for (std::size_t k = b; k < c; ++k) acc += t(b, k) * s[k];
        t(b, c) = -tau_c * acc;
      }
      t(c, c) = tau_c;
    }

    // W1 = V^T Z over rows p+1 .. n-1, streamed row-by-row; parallel over
    // column tiles of Z so each thread owns its W1 slice (no reduction).
    for (std::size_t c = 0; c < pw; ++c) {
      double* w1c = w1.row(c);
      for (std::size_t q = 0; q < m; ++q) w1c[q] = 0.0;
    }
    [[maybe_unused]] const bool par =
        par::max_threads() > 1 && n * m >= 64 * kParallelCutoff;
#pragma omp parallel if (par)
    {
      const int tid = par::thread_id();
      const int tcount = par::team_size();
      const std::size_t q_lo = m * static_cast<std::size_t>(tid) /
                               static_cast<std::size_t>(tcount);
      const std::size_t q_hi = m * (static_cast<std::size_t>(tid) + 1) /
                               static_cast<std::size_t>(tcount);
      for (std::size_t i = p + 1; i < n; ++i) {
        const double* ri = r.row(i);
        const double* zi = z.row(i);
        const std::size_t c_hi = std::min(pw, i - p);  // valid c: p+c+1 <= i
        for (std::size_t c = 0; c < c_hi; ++c) {
          const double coeff = ri[p + c];
          if (coeff == 0.0) continue;
          double* w1c = w1.row(c);
          for (std::size_t q = q_lo; q < q_hi; ++q) w1c[q] += coeff * zi[q];
        }
      }
#pragma omp barrier
      // W1 <- T * W1 (T upper triangular): done by thread 0's slice only in
      // serial fallback; under OpenMP each thread transforms its own tile.
      for (std::size_t b = 0; b < pw; ++b) {
        double* w1b = w1.row(b);
        for (std::size_t q = q_lo; q < q_hi; ++q) {
          double acc = t(b, b) * w1b[q];
          for (std::size_t c = b + 1; c < pw; ++c) {
            acc += t(b, c) * w1.row(c)[q];
          }
          w1b[q] = acc;
        }
      }
    }
    // The in-place triangular multiply above reads rows c > b while
    // overwriting row b; since T is upper triangular and b increases, rows
    // c > b are still untransformed when read -- exactly what T*W1 needs.

    // Z -= V * W1 over rows p+1 .. n-1.
#pragma omp parallel for schedule(static) if (par)
    for (std::size_t i = p + 1; i < n; ++i) {
      const double* ri = r.row(i);
      double* zi = z.row(i);
      const std::size_t c_hi = std::min(pw, i - p);
      for (std::size_t c = 0; c < c_hi; ++c) {
        const double coeff = ri[p + c];
        if (coeff == 0.0) continue;
        const double* w1c = w1.row(c);
        for (std::size_t q = 0; q < m; ++q) zi[q] -= coeff * w1c[q];
      }
    }
  }
}

Matrix form_q(const TridiagFactorization& f) {
  Matrix q = Matrix::identity(f.size());
  apply_q(f, q);
  return q;
}

}  // namespace tbmd::linalg
