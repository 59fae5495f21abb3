#include "src/linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/linalg/eigen_partial.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Minimum (sub)matrix dimension before the Householder update loops are
/// worth forking threads for.
constexpr std::size_t kParallelCutoff = 96;

/// Eigenvalues of the symmetric 2 x 2 [[a, b], [b, c]] (LAPACK dlae2):
/// rt1 is the one of larger absolute value, and the smaller one is formed
/// from the determinant so it keeps full relative accuracy.
void eig2x2(double a, double b, double c, double& rt1, double& rt2) {
  const double sm = a + c;
  const double adf = std::fabs(a - c);
  const double ab = std::fabs(b + b);
  const double acmx = std::fabs(a) > std::fabs(c) ? a : c;
  const double acmn = std::fabs(a) > std::fabs(c) ? c : a;
  double rt;
  if (adf > ab) {
    rt = adf * std::sqrt(1.0 + (ab / adf) * (ab / adf));
  } else if (adf < ab) {
    rt = ab * std::sqrt(1.0 + (adf / ab) * (adf / ab));
  } else {
    rt = ab * std::sqrt(2.0);  // includes ab = adf = 0
  }
  if (sm == 0.0) {
    rt1 = 0.5 * rt;
    rt2 = -0.5 * rt;
    return;
  }
  rt1 = sm < 0.0 ? 0.5 * (sm - rt) : 0.5 * (sm + rt);
  rt2 = (acmx / rt1) * acmn - (b / rt1) * b;
}

/// Eigenvalues of the tridiagonal with diagonal d and couplings e (e[i]
/// couples d[i] and d[i+1], e[n-1] unused) by the root-free QL iteration of
/// Pal, Walker and Kahan, as in LAPACK dsterf.  The sweep runs on squared
/// couplings, so a rotation costs two divisions and no square root.  Each
/// unreduced block is first scaled so that its largest entry lies in
/// [sqrt(safmin) / eps^2, sqrt(safmax) / 3], which keeps the squares from
/// overflowing and the significant ones from underflowing; blocks whose
/// bottom entry is the smaller are reversed so the iteration deflates the
/// small end first (dsterf's QR branch); 2 x 2 blocks are solved in closed
/// form.
void pwk_values(std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = d.size();
  constexpr double eps = std::numeric_limits<double>::epsilon() / 2;
  constexpr double eps2 = eps * eps;
  constexpr double safmin = std::numeric_limits<double>::min();
  const double ssfmax = std::sqrt(1.0 / safmin) / 3.0;
  const double ssfmin = std::sqrt(safmin) / eps2;
  const std::size_t max_sweeps = 30 * n;
  std::size_t sweeps = 0;

  for (std::size_t l1 = 0; l1 < n;) {
    // Split off the next unreduced block [first, last].
    const std::size_t first = l1;
    std::size_t last = first;
    while (last + 1 < n &&
           std::fabs(e[last]) >
               std::sqrt(std::fabs(d[last])) * std::sqrt(std::fabs(d[last + 1])) * eps) {
      ++last;
    }
    if (last + 1 < n) e[last] = 0.0;
    l1 = last + 1;
    if (last == first) continue;

    double anorm = 0.0;
    for (std::size_t i = first; i <= last; ++i) {
      anorm = std::max(anorm, std::fabs(d[i]));
      if (i < last) anorm = std::max(anorm, std::fabs(e[i]));
    }
    if (anorm == 0.0) continue;
    const double target = anorm > ssfmax ? ssfmax : anorm < ssfmin ? ssfmin : anorm;
    const double scale = target / anorm;
    for (std::size_t i = first; i <= last; ++i) {
      d[i] *= scale;
      if (i < last) e[i] = (e[i] * scale) * (e[i] * scale);
    }
    if (std::fabs(d[last]) < std::fabs(d[first])) {
      std::reverse(d.begin() + static_cast<std::ptrdiff_t>(first),
                   d.begin() + static_cast<std::ptrdiff_t>(last) + 1);
      std::reverse(e.begin() + static_cast<std::ptrdiff_t>(first),
                   e.begin() + static_cast<std::ptrdiff_t>(last));
    }

    for (std::size_t l = first; l <= last;) {
      std::size_t m = l;
      while (m < last && std::fabs(e[m]) > eps2 * std::fabs(d[m] * d[m + 1])) ++m;
      if (m < last) e[m] = 0.0;
      if (m == l) {  // d[l] has converged
        ++l;
        continue;
      }
      if (m == l + 1) {
        double rt1, rt2;
        eig2x2(d[l], std::sqrt(e[l]), d[l + 1], rt1, rt2);
        d[l] = rt1;
        d[l + 1] = rt2;
        e[l] = 0.0;
        l += 2;
        continue;
      }
      TBMD_REQUIRE(sweeps++ < max_sweeps, "tql: QL iteration did not converge");

      // Wilkinson-type shift from the leading 2 x 2, then one bulge chase
      // from m-1 up to l on the squared couplings.
      const double rte = std::sqrt(e[l]);
      double sigma = (d[l + 1] - d[l]) / (2.0 * rte);
      sigma = d[l] - rte / (sigma + std::copysign(std::hypot(sigma, 1.0), sigma));
      double c = 1.0, s = 0.0;
      double gamma = d[m] - sigma;
      double p = gamma * gamma;
      for (std::size_t i = m; i-- > l;) {
        const double bb = e[i];
        const double r = p + bb;
        if (i + 1 != m) e[i + 1] = s * r;
        const double oldc = c;
        c = p / r;
        s = bb / r;
        const double oldgam = gamma;
        const double alpha = d[i];
        gamma = c * (alpha - sigma) - s * oldgam;
        d[i + 1] = oldgam + (alpha - gamma);
        p = c != 0.0 ? (gamma * gamma) / c : oldc * bb;
      }
      e[l] = s * p;
      d[l] = sigma + gamma;
    }
    if (scale != 1.0) {
      const double unscale = anorm / target;
      for (std::size_t i = first; i <= last; ++i) d[i] *= unscale;
    }
  }
}

}  // namespace

void householder_tridiagonalize(Matrix& a, std::vector<double>& d,
                                std::vector<double>& e, bool accumulate) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(n == a.cols(), "householder: matrix must be square");
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  if (n == 1) {
    d[0] = a(0, 0);
    if (accumulate) a(0, 0) = 1.0;
    return;
  }

  // Phase 1: reduce rows n-1 .. 1.  `d[i]` temporarily stores the
  // Householder h for row i (needed by the accumulation phase).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;

        // e[j] <- (A v)_j / h for the trailing submatrix (lower triangle is
        // authoritative).  Independent across j -> parallel.
        [[maybe_unused]] const bool par = (l + 1) >= kParallelCutoff;
#pragma omp parallel for schedule(dynamic, 16) if (par)
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) a(j, i) = a(i, j) / h;
          double gj = 0.0;
          for (std::size_t k = 0; k <= j; ++k) gj += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) gj += a(k, j) * a(i, k);
          e[j] = gj / h;
        }

        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) f += e[j] * a(i, j);
        const double hh = f / (h + h);

        // K = e - hh*v, then rank-2 update A <- A - v K^T - K v^T on the
        // lower triangle.  Update all of e first so row updates can run in
        // parallel.
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * a(i, j);
#pragma omp parallel for schedule(dynamic, 16) if (par)
        for (std::size_t j = 0; j <= l; ++j) {
          const double fj = a(i, j);
          const double ej = e[j];
          double* arow = a.row(j);
          const double* virow = a.row(i);
          for (std::size_t k = 0; k <= j; ++k) {
            arow[k] -= fj * e[k] + ej * virow[k];
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Phase 2: accumulate transformations (Q) and extract the diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    if (accumulate) {
      if (d[i] != 0.0) {
        // Left-multiply the accumulated Q by this reflection.
        [[maybe_unused]] const bool par = i >= kParallelCutoff;
#pragma omp parallel for schedule(static) if (par)
        for (std::size_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
          for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
        }
      }
      d[i] = a(i, i);
      a(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    } else {
      d[i] = a(i, i);
    }
  }
}

void tql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                        Matrix* z) {
  const std::size_t n = d.size();
  TBMD_REQUIRE(e.size() == n, "tql: d/e size mismatch");
  if (z != nullptr) {
    TBMD_REQUIRE(z->rows() == n && z->cols() == n, "tql: z must be n x n");
  }
  if (n <= 1) return;

  // Shift the subdiagonal down by one: e[i] couples d[i] and d[i+1].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  if (z == nullptr) {
    pwk_values(d, e);
    return;
  }

  // Scratch for deferred rotation application (thread-parallel over rows).
  std::vector<double> sines, cosines;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      // Find the first negligible subdiagonal element at or after l.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 2.3e-16 * dd) break;
      }
      if (m != l) {
        TBMD_REQUIRE(iterations++ < 50, "tql: QL iteration did not converge");
        // Form the implicit shift from the 2x2 at the top of the block.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;

        sines.clear();
        cosines.clear();
        bool underflow = false;

        // Chase the bulge from m-1 down to l, recording the rotations so
        // they can be applied to the rows in parallel after.
        for (std::size_t ii = m; ii-- > l;) {
          double f = s * e[ii];
          const double b = c * e[ii];
          r = std::hypot(f, g);
          e[ii + 1] = r;
          if (r == 0.0) {
            // Deflate without finishing the sweep.
            d[ii + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[ii + 1] - p;
          r = (d[ii] - g) * s + 2.0 * c * b;
          p = s * r;
          d[ii + 1] = g + p;
          g = c * r - b;
          sines.push_back(s);
          cosines.push_back(c);
        }

        if (!sines.empty()) {
          // Rotation q (q = 0 first recorded) acts on columns (i, i+1) with
          // i = m-1-q.  For a fixed row the column updates chain
          // sequentially, but rows are independent -> parallel over rows.
          Matrix& zz = *z;
          const std::size_t nrot = sines.size();
          [[maybe_unused]] const bool par = n * nrot >= 16384;
#pragma omp parallel for schedule(static) if (par)
          for (std::size_t k = 0; k < n; ++k) {
            double* zrow = zz.row(k);
            for (std::size_t q = 0; q < nrot; ++q) {
              const std::size_t i = m - 1 - q;
              const double sq = sines[q];
              const double cq = cosines[q];
              const double f = zrow[i + 1];
              zrow[i + 1] = sq * zrow[i] + cq * f;
              zrow[i] = cq * zrow[i] - sq * f;
            }
          }
        }

        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

namespace {

SymmetricEigenSolution sort_solution(std::vector<double> d, Matrix z,
                                     bool with_vectors) {
  const std::size_t n = d.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(),
            [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });

  SymmetricEigenSolution out;
  out.values.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.values[j] = d[perm[j]];
  if (with_vectors) {
    out.vectors.resize(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      const double* zrow = z.row(i);
      double* orow = out.vectors.row(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] = zrow[perm[j]];
    }
  }
  return out;
}

}  // namespace

SymmetricEigenSolution eigh(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigh: matrix must be square");
  if (a.rows() == 0) return {};
  return eigh_range(a, 0, a.rows() - 1);
}

SymmetricEigenSolution eigh_ql(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigh_ql: matrix must be square");
  Matrix work = a;
  std::vector<double> d, e;
  householder_tridiagonalize(work, d, e, /*accumulate=*/true);
  tql_implicit_shift(d, e, &work);
  return sort_solution(std::move(d), std::move(work), /*with_vectors=*/true);
}

std::vector<double> eigvalsh(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigvalsh: matrix must be square");
  Matrix work = a;
  std::vector<double> d, e;
  householder_tridiagonalize(work, d, e, /*accumulate=*/false);
  tql_implicit_shift(d, e, nullptr);
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace tbmd::linalg
