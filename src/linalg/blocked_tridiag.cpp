#include "src/linalg/blocked_tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/linalg/panel_kernel.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Minimum trailing dimension before the symv and row-sweep loops fork
/// threads.
constexpr std::size_t kParallelCutoff = 128;

/// y = A_sym * v for the trailing submatrix rows/cols [lo, n), reading only
/// the lower triangle of `a`, plus the panel products vw = W^T v (first jj
/// entries of `vwv`) and vv = V^T v (next jj), V = a(lo:n, p:p+jj) and
/// W = w(lo:n, 0:jj): the sums blocked_tridiagonalize needs to fold the
/// panel's pending updates into A v.  Streams each row once (every stored
/// element is used for both its (i,j) and (j,i) role, and the row's panel
/// entries sit next to it), so the kernel runs at memory bandwidth.  `v`
/// and `y` are full-length buffers; entries outside [lo, n) are ignored /
/// left untouched.
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
void symv_lower(const Matrix& a, const Matrix& w, std::size_t p,
                std::size_t jj, std::size_t lo, const double* v, double* y,
                double* vwv, std::vector<double>& partials) {
  const std::size_t n = a.rows();
  const std::size_t len = n - lo;
  // Rows [begin, end) of the product, accumulated into acc[k - lo], then
  // the panel products into pan[0, 2 jj).  Row i's dot product runs in two
  // interleaved vector partial sums: a single scalar chain waits out the
  // FMA latency on every element (37 vs 21 ms per 800 x 800 reduction at
  // 4 threads), and the fixed order keeps the sum reproducible.
  using V = detail::PanelVec<detail::kPanelLanes>::type;
  constexpr std::size_t L = detail::kPanelLanes;
  const auto sweep = [&](std::size_t begin, std::size_t end, double* acc,
                         double* pan) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* row = a.row(i);
      const double vi = v[i];
      const V viv = V{} + vi;
      V s0 = {}, s1 = {};
      std::size_t k = lo;
      for (; k + 2 * L <= i; k += 2 * L) {
        V r0, r1, v0, v1, a0, a1;
        __builtin_memcpy(&r0, row + k, sizeof(V));
        __builtin_memcpy(&r1, row + k + L, sizeof(V));
        __builtin_memcpy(&v0, v + k, sizeof(V));
        __builtin_memcpy(&v1, v + k + L, sizeof(V));
        __builtin_memcpy(&a0, acc + k - lo, sizeof(V));
        __builtin_memcpy(&a1, acc + k - lo + L, sizeof(V));
        s0 += r0 * v0;
        s1 += r1 * v1;
        a0 += r0 * viv;
        a1 += r1 * viv;
        __builtin_memcpy(acc + k - lo, &a0, sizeof(V));
        __builtin_memcpy(acc + k - lo + L, &a1, sizeof(V));
      }
      double s = row[i] * vi;
      for (; k < i; ++k) {
        s += row[k] * v[k];
        acc[k - lo] += row[k] * vi;
      }
      s0 += s1;
      for (std::size_t q = 0; q < L; ++q) s += s0[q];
      acc[i - lo] += s;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const double* vp = a.row(i) + p;
      const double* wi = w.row(i);
      for (std::size_t c = 0; c < jj; ++c) {
        pan[c] += wi[c] * v[i];
        pan[jj + c] += vp[c] * v[i];
      }
    }
  };
  const int threads = len >= kParallelCutoff ? par::max_threads() : 1;
  if (threads == 1) {
    std::fill(y + lo, y + n, 0.0);
    std::fill(vwv, vwv + 2 * jj, 0.0);
    sweep(lo, n, y + lo, vwv);
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
  // Slice t: [panel products (2 jj) | symv rows (len)].
  const std::size_t stride = 2 * jj + len;
  if (partials.size() < nt * stride) partials.resize(nt * stride);
  // Range t only writes rows below bound(t + 1), so only that prefix of
  // its slice is zeroed and summed.  The loop form stays correct if the
  // runtime grants fewer threads than requested (e.g. a nested call).
#pragma omp parallel for schedule(static, 1) num_threads(threads)
  for (std::size_t t = 0; t < nt; ++t) {
    double* part = partials.data() + t * stride;
    std::fill(part, part + 2 * jj + (bound(t + 1) - lo), 0.0);
    sweep(bound(t), bound(t + 1), part + 2 * jj, part);
  }
  std::fill(y + lo, y + n, 0.0);
  std::fill(vwv, vwv + 2 * jj, 0.0);
  for (std::size_t t = 0; t < nt; ++t) {
    const double* part = partials.data() + t * stride;
    for (std::size_t c = 0; c < 2 * jj; ++c) vwv[c] += part[c];
    const std::size_t end = bound(t + 1) - lo;
    for (std::size_t k = 0; k < end; ++k) y[lo + k] += part[2 * jj + k];
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
  std::vector<double> y(n, 0.0);    // symv result
  std::vector<double> symv_partials;  // per-thread symv slices
  std::vector<double> vwv(2 * nb), vrow(nb), wrow(nb);

  for (std::size_t p = 0; p < nrefl; p += nb) {
    const std::size_t pw = std::min(nb, nrefl - p);
    w.fill(0.0);

    for (std::size_t jj = 0; jj < pw; ++jj) {
      const std::size_t j = p + jj;
      // Column j already carries the panel's pending rank-2 updates (the
      // previous column's row sweep below applied them).
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
      // trailing matrix with the panel's pending updates folded in:
      // A_j v = y - V (W^T v) - W (V^T v) with y = A v on the stored
      // (pre-update) entries, so v^T A_j v = v^T y - 2 (W^T v).(V^T v).
      const std::size_t lo = j + 1;
      for (std::size_t i = lo; i < n; ++i) v[i] = r(i, j);
      symv_lower(r, w, p, jj, lo, v.data(), y.data(), vwv.data(),
                 symv_partials);
      const double* vw = vwv.data();
      const double* vv = vw + jj;
      double vy = 0.0;
      for (std::size_t i = lo; i < n; ++i) vy += v[i] * y[i];
      for (std::size_t c = 0; c < jj; ++c) vy -= 2.0 * vw[c] * vv[c];
      const double tau = f.tau[j];
      const double corr = -0.5 * tau * tau * vy;
      const auto w_row = [&](std::size_t i) {
        const double* ri = r.row(i) + p;
        const double* wi = w.row(i);
        double s = y[i];
        for (std::size_t c = 0; c < jj; ++c) s -= ri[c] * vw[c] + wi[c] * vv[c];
        w(i, jj) = tau * s + corr * v[i];
      };

      // One row sweep writes W(:, jj) and, while column j+1 is still in
      // the panel, applies its pending updates (rows j+1..n-1):
      // a(:, j+1) -= V W(j+1, :)^T + W V(j+1, :)^T over columns 0..jj.
      // Rows are independent; row j+1 of W goes first because every row's
      // update reads it.
      const bool next = jj + 1 < pw;
      if (next) {
        w_row(lo);
        for (std::size_t c = 0; c <= jj; ++c) {
          vrow[c] = r(lo, p + c);
          wrow[c] = w(lo, c);
        }
      }
      [[maybe_unused]] const bool par = n - lo >= kParallelCutoff;
#pragma omp parallel for schedule(static) if (par)
      for (std::size_t i = lo; i < n; ++i) {
        if (i > lo || !next) w_row(i);
        if (!next) continue;
        const double* ri = r.row(i) + p;
        const double* wi = w.row(i);
        double s = ri[jj + 1];
        for (std::size_t c = 0; c <= jj; ++c) {
          s -= ri[c] * wrow[c] + wi[c] * vrow[c];
        }
        r(i, j + 1) = s;
      }
    }

    // Deferred symmetric rank-2k trailing update (the level-3 bulk):
    // A(q:, q:) -= V W^T + W V^T on the lower triangle, q = p + pw: one
    // panel product of contraction length 2 pw per tile of C, on the
    // in-place submatrix views V = r(q:, p:p+pw), W = w(q:, 0:pw),
    // C = r(q:, q:).
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

  Matrix t(kNb, kNb, 0.0);          // triangular factor of the WY block
  std::vector<double> g(kNb * kNb);  // V^T (-V)
  // The block's V^T and -V over rows p+1 .. n-1, zeros at and above each
  // unit diagonal made explicit.
  std::vector<double> vt(kNb * n), negv(n * kNb);
  Matrix w1(kNb, m), tw1(kNb, m);   // V^T Z and T (V^T Z)

  // Q = B_0 B_1 ... B_L with forward-columnwise blocks B = I - V T V^T;
  // Q Z applies the blocks in reverse order.
  const std::size_t nblocks = (nrefl + kNb - 1) / kNb;
  [[maybe_unused]] const bool par =
      par::max_threads() > 1 && n * m >= 64 * kParallelCutoff;
  for (std::size_t blk = nblocks; blk-- > 0;) {
    const std::size_t p = blk * kNb;
    const std::size_t pw = std::min(kNb, nrefl - p);
    const std::size_t rows = n - p - 1;
    for (std::size_t i = 0; i < rows; ++i) {
      const double* ri = r.row(p + 1 + i) + p;
      for (std::size_t c = 0; c < pw; ++c) {
        const double v = c <= i ? ri[c] : 0.0;  // v_c starts at row p+c+1
        vt[rows * c + i] = v;
        negv[pw * i + c] = -v;
      }
    }

    // T factor (LARFT, forward columnwise): T(c,c) = tau_c,
    // T(0:c, c) = -tau_c T(0:c, 0:c) (V^T v_c)(0:c) = tau_c T G(0:c, c).
    std::fill(g.begin(), g.end(), 0.0);
    gemm_panel_add(pw, rows, pw, vt.data(), rows, negv.data(), pw, g.data(),
                   pw);
    for (std::size_t c = 0; c < pw; ++c) {
      const double tau_c = f.tau[p + c];
      for (std::size_t b = 0; b < c; ++b) {
        double acc = 0.0;
        for (std::size_t k = b; k < c; ++k) acc += t(b, k) * g[pw * k + c];
        t(b, c) = tau_c * acc;
      }
      t(c, c) = tau_c;
    }

    // Z -= V (T (V^T Z)) as three panel products.  Each thread owns one
    // column slice of W1, TW1 and Z, so the slices need no barrier and no
    // reduction, and the contraction is never split: Z comes out
    // bit-identical at any thread count.  Slice edges fall on multiples of
    // 16, a whole number of the panel kernel's column strips on every
    // target.
#pragma omp parallel if (par)
    {
      const std::size_t tid = static_cast<std::size_t>(par::thread_id());
      const std::size_t team = static_cast<std::size_t>(par::team_size());
      const std::size_t q_lo = m * tid / team / 16 * 16;
      const std::size_t q_hi = tid + 1 == team ? m : m * (tid + 1) / team / 16 * 16;
      const std::size_t mq = q_hi - q_lo;
      for (std::size_t c = 0; c < pw; ++c) {
        std::fill(w1.row(c) + q_lo, w1.row(c) + q_hi, 0.0);
        std::fill(tw1.row(c) + q_lo, tw1.row(c) + q_hi, 0.0);
      }
      gemm_panel_add(pw, rows, mq, vt.data(), rows, z.row(p + 1) + q_lo, m,
                     w1.data() + q_lo, m);
      gemm_panel_add(pw, pw, mq, t.data(), kNb, w1.data() + q_lo, m,
                     tw1.data() + q_lo, m);
      gemm_panel_add(rows, pw, mq, negv.data(), pw, tw1.data() + q_lo, m,
                     z.row(p + 1) + q_lo, m);
    }
  }
}

Matrix form_q(const TridiagFactorization& f) {
  Matrix q = Matrix::identity(f.size());
  apply_q(f, q);
  return q;
}

}  // namespace tbmd::linalg
