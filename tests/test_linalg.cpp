// Tests for src/linalg: Matrix, BLAS-like kernels, Cholesky, tridiagonal.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/linalg/blas.hpp"
#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/cholesky.hpp"
#include "src/linalg/matrix.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"

namespace tbmd::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(trace(i3), 3.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i3(2, 2), 1.0);
}

TEST(Matrix, CheckedAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), Error);
  EXPECT_THROW((void)m.at(0, 5), Error);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 3.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 1.0);
  const Matrix scaled = a * 4.0;
  EXPECT_DOUBLE_EQ(scaled(0, 1), 4.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, Error);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(4, 7, 1);
  const Matrix att = transpose(transpose(a));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
    }
  }
}

TEST(Matrix, SymmetryHelpers) {
  Matrix a = random_matrix(5, 5, 2);
  EXPECT_GT(symmetry_defect(a), 0.0);
  symmetrize(a);
  EXPECT_NEAR(symmetry_defect(a), 0.0, 1e-15);
}

TEST(Matrix, TraceOfProductMatchesExplicitProduct) {
  const Matrix a = random_symmetric(6, 3);
  const Matrix b = random_symmetric(6, 4);
  const Matrix ab = matmul(a, b);
  EXPECT_NEAR(trace_of_product(a, b), trace(ab), 1e-12);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(a), 4.0);
}

// --- GEMM correctness against the naive triple loop -------------------

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaiveTripleLoop) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 10 + m);
  const Matrix b = random_matrix(k, n, 20 + n);
  const Matrix c1 = matmul(a, b);
  const Matrix c2 = naive_matmul(a, b);
  EXPECT_LT(max_abs(c1 - c2), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(16, 16, 16), std::make_tuple(65, 64, 63),
                      std::make_tuple(70, 129, 40),
                      std::make_tuple(128, 128, 128),
                      std::make_tuple(33, 300, 17)));  // k beyond one slab

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW((void)matmul(a, b), Error);
}

// --- symmetric rank-k updates ------------------------------------------

class SyrkSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SyrkSizes, MatchesExplicitProductAndIsExactlySymmetric) {
  const auto [n, k] = GetParam();
  const Matrix a = random_matrix(n, k, 50 + static_cast<std::uint64_t>(n));
  Matrix c = random_matrix(n, n, 51);  // garbage: beta = 0 must overwrite
  syrk(1.0, a, 0.0, c);
  const Matrix expect = naive_matmul(a, transpose(a));
  EXPECT_LT(max_abs(c - expect), 1e-11);
  EXPECT_DOUBLE_EQ(symmetry_defect(c), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkSizes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 3),
                      std::make_tuple(64, 64), std::make_tuple(70, 33),
                      std::make_tuple(63, 130), std::make_tuple(129, 96),
                      std::make_tuple(3, 2), std::make_tuple(83, 300)));

TEST(Syrk, BetaScalesExistingSymmetricC) {
  const Matrix a = random_matrix(40, 17, 60);
  const Matrix c0 = random_symmetric(40, 61);
  Matrix c = c0;
  syrk(0.5, a, 2.0, c);
  const Matrix expect = naive_matmul(a, transpose(a));
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * c0(i, j) + 0.5 * expect(i, j), 1e-12);
    }
  }
}

TEST(Syrk, ShapeMismatchThrows) {
  const Matrix a(6, 3);
  Matrix c(5, 5);
  EXPECT_THROW(syrk(1.0, a, 0.0, c), Error);
}

TEST(RankKLower, LeavesStrictUpperTriangleUntouched) {
  // Trailing block of 146: not a multiple of the 64-wide tiles, the 16-row
  // diagonal bands or the 8-wide register blocks.
  const std::size_t n = 157, q0 = 11, k = 13;
  const Matrix v = random_matrix(n, k, 84);
  Matrix c = random_matrix(n, n, 86);
  const Matrix c0 = c;
  syrk_lower(n - q0, k, -1.0, v.row(q0), k, c.row(q0) + q0, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i < q0 || j < q0 || j > i) {
        EXPECT_EQ(std::memcmp(c.row(i) + j, c0.row(i) + j, sizeof(double)), 0)
            << i << "," << j;
        continue;
      }
      double s = 0.0;
      for (std::size_t cc = 0; cc < k; ++cc) s += v(i, cc) * v(j, cc);
      EXPECT_NEAR(c(i, j), c0(i, j) - s, 1e-12) << i << "," << j;
    }
  }
}

TEST(Gemm, AccumulateAddsScaledProduct) {
  const Matrix a = random_matrix(8, 8, 31);
  const Matrix b = random_matrix(8, 8, 32);
  Matrix c(8, 8, 1.0);
  gemm_accumulate(2.0, a, b, c);
  const Matrix expect = naive_matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), 1.0 + 2.0 * expect(i, j), 1e-12);
    }
  }
}

TEST(MatVec, MatchesManual) {
  const Matrix a = random_matrix(5, 3, 41);
  const std::vector<double> x{1.0, -2.0, 0.5};
  const auto y = matvec(a, x);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(y[i], a(i, 0) - 2.0 * a(i, 1) + 0.5 * a(i, 2), 1e-13);
  }
}

TEST(MatVec, TransposedMatchesExplicitTranspose) {
  const Matrix a = random_matrix(5, 3, 43);
  const std::vector<double> x{0.3, -1.0, 2.0, 0.1, 0.7};
  const auto y1 = matvec_transposed(a, x);
  const auto y2 = matvec(transpose(a), x);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-13);
}

TEST(Level1, DotAxpyNorm) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(14.0));
}

// --- Cholesky ----------------------------------------------------------

TEST(Cholesky, ReconstructsFactorization) {
  // SPD matrix via A = M M^T + n I.
  const Matrix m = random_matrix(6, 6, 55);
  Matrix a = matmul(m, transpose(m));
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 6.0;
  const Matrix l = cholesky_factor(a);
  const Matrix llt = matmul(l, transpose(l));
  EXPECT_LT(max_abs(llt - a), 1e-10);
  // L is lower triangular.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix m = random_matrix(5, 5, 56);
  Matrix a = matmul(m, transpose(m));
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 5.0;
  const std::vector<double> x_true{1.0, -1.0, 2.0, 0.5, -0.25};
  const auto b = matvec(a, x_true);
  const auto x = cholesky_solve(cholesky_factor(a), b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW((void)cholesky_factor(a), Error);
}

TEST(LeastSquares, ExactForPolynomialData) {
  // Fit y = 2 - 3x + 0.5x^2 sampled without noise.
  const std::size_t npts = 9;
  Matrix design(npts, 3);
  std::vector<double> y(npts);
  for (std::size_t q = 0; q < npts; ++q) {
    const double x = -2.0 + 0.5 * static_cast<double>(q);
    design(q, 0) = 1.0;
    design(q, 1) = x;
    design(q, 2) = x * x;
    y[q] = 2.0 - 3.0 * x + 0.5 * x * x;
  }
  const auto coeff = least_squares(design, y);
  ASSERT_EQ(coeff.size(), 3u);
  EXPECT_NEAR(coeff[0], 2.0, 1e-10);
  EXPECT_NEAR(coeff[1], -3.0, 1e-10);
  EXPECT_NEAR(coeff[2], 0.5, 1e-10);
}

// --- Tridiagonal / Sturm ------------------------------------------------

TEST(Sturm, CountsEigenvaluesOfKnownMatrix) {
  // Tridiagonal with d = 2, e = -1 (discrete Laplacian, n = 4):
  // eigenvalues 2 - 2 cos(k pi / 5), k = 1..4.
  const std::vector<double> d{2, 2, 2, 2};
  const std::vector<double> e{0, -1, -1, -1};
  std::vector<double> evs;
  for (int k = 1; k <= 4; ++k) {
    evs.push_back(2.0 - 2.0 * std::cos(k * M_PI / 5.0));
  }
  EXPECT_EQ(sturm_count(d, e, 0.0), 0u);
  EXPECT_EQ(sturm_count(d, e, evs[0] + 1e-9), 1u);
  EXPECT_EQ(sturm_count(d, e, evs[2] + 1e-9), 3u);
  EXPECT_EQ(sturm_count(d, e, 10.0), 4u);
}

TEST(Sturm, BisectionEigenvaluesMatchAnalytic) {
  const std::size_t n = 12;
  std::vector<double> d(n, 2.0), e(n, -1.0);
  e[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double analytic =
        2.0 - 2.0 * std::cos((k + 1) * M_PI / static_cast<double>(n + 1));
    EXPECT_NEAR(tridiagonal_eigenvalue(d, e, k), analytic, 1e-9);
  }
}

TEST(Sturm, OutOfRangeIndexThrows) {
  const std::vector<double> d{1.0, 2.0};
  const std::vector<double> e{0.0, 0.1};
  EXPECT_THROW((void)tridiagonal_eigenvalue(d, e, 2), Error);
}

// --- blocked tridiagonalization -------------------------------------------

struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_num_threads(saved); }
};

TEST(BlockedTridiag, BitIdenticalAcrossRepeatedRunsAtFourThreads) {
  // Each row is owned by one thread and the per-thread partial sums are
  // combined in thread order, so repeated reductions at the same team size
  // must agree to the bit.  Three threads make the ownership uneven; n = 801
  // leaves a partial last chunk and a one-column last panel.
  ThreadGuard guard;
  const auto bitwise_equal = [](const double* x, const double* y,
                                std::size_t n) {
    return std::memcmp(x, y, n * sizeof(double)) == 0;
  };
  for (const int team : {4, 3}) {
    par::set_num_threads(team);
    for (const std::size_t n : {300u, 801u}) {
      const Matrix a = random_symmetric(n, 2024);
      const TridiagFactorization ref = blocked_tridiagonalize(a);
      for (int run = 0; run < (n < 500 ? 20 : 4); ++run) {
        const TridiagFactorization f = blocked_tridiagonalize(a);
        EXPECT_TRUE(bitwise_equal(f.d.data(), ref.d.data(), n)) << team << " " << n;
        EXPECT_TRUE(bitwise_equal(f.e.data(), ref.e.data(), n)) << team << " " << n;
        EXPECT_TRUE(bitwise_equal(f.tau.data(), ref.tau.data(), n)) << team << " " << n;
        EXPECT_TRUE(bitwise_equal(f.reflectors.data(), ref.reflectors.data(),
                                  n * n))
            << team << " " << n;
      }
    }
  }
}

TEST(BlockedTridiag, SimilarAndOrthogonalAtEveryTeamSize) {
  // Q^T A Q = T and Q^T Q = I to a small multiple of n eps, at team sizes 1
  // to 4 and on sizes around the 16-row ownership chunks and the 32-column
  // panels (127 .. 129), below and above the team cutoff.
  ThreadGuard guard;
  constexpr double eps = std::numeric_limits<double>::epsilon();
  for (const int team : {1, 2, 3, 4}) {
    par::set_num_threads(team);
    for (const std::size_t n : {3u, 4u, 35u, 127u, 128u, 129u, 300u, 801u}) {
      const Matrix a = random_symmetric(n, 600 + n);
      const TridiagFactorization f = blocked_tridiagonalize(a);
      const Matrix q = form_q(f);
      Matrix t(n, n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        t(i, i) = f.d[i];
        if (i > 0) t(i, i - 1) = t(i - 1, i) = f.e[i];
      }
      const Matrix qt = transpose(q);
      const double sim = frobenius_norm(matmul(qt, matmul(a, q)) - t) /
                         frobenius_norm(a);
      const double orth =
          frobenius_norm(matmul(qt, q) - Matrix::identity(n));
      const double bound = static_cast<double>(n) * eps;
      EXPECT_LT(sim, bound) << "team " << team << " n " << n;
      EXPECT_LT(orth, bound) << "team " << team << " n " << n;
    }
  }
}

/// Q Z by the reflectors one at a time, last first
/// (Z -= tau_j v_j (v_j^T Z)): the unblocked reference for apply_q.
Matrix apply_reflectors(const TridiagFactorization& f, Matrix z) {
  const std::size_t n = f.size();
  for (std::size_t j = n >= 3 ? n - 2 : 0; j-- > 0;) {
    for (std::size_t q = 0; q < z.cols(); ++q) {
      double s = 0.0;
      for (std::size_t i = j + 1; i < n; ++i) s += f.reflectors(i, j) * z(i, q);
      for (std::size_t i = j + 1; i < n; ++i) {
        z(i, q) -= f.tau[j] * s * f.reflectors(i, j);
      }
    }
  }
  return z;
}

TEST(ApplyQ, MatchesReflectorByReflectorOnAwkwardShapes) {
  // n = 3 has one reflector; n = 35 ends on a one-reflector WY block;
  // m < 16 and m not a multiple of 16 / 8 leave column remainders.
  for (const std::size_t n : {3u, 4u, 35u, 67u, 100u}) {
    const auto fact = blocked_tridiagonalize(random_symmetric(n, 300 + n));
    for (const std::size_t m : {1u, 7u, 15u, 17u, 83u}) {
      const Matrix z = random_matrix(n, m, 400 + m);
      Matrix applied = z;
      apply_q(fact, applied);
      EXPECT_LT(max_abs(applied - apply_reflectors(fact, z)), 1e-12)
          << n << " x " << m;
    }
  }
}

TEST(PanelLevel3, BitIdenticalAtOneAndFourThreads) {
  // The level-3 drivers split only rows or columns of the output across
  // threads, never the contraction, so every element is the same sum in
  // the same order at any team size.
  ThreadGuard guard;
  const Matrix a = random_matrix(203, 300, 90);  // k beyond one slab
  const Matrix c0 = random_symmetric(203, 93);
  const auto fact = blocked_tridiagonalize(random_symmetric(301, 94));
  const Matrix z0 = random_matrix(301, 579, 95);  // the tube's m = 579
  const auto run = [&](int threads) {
    par::set_num_threads(threads);
    std::vector<Matrix> out;
    out.push_back(matmul(a, transpose(a)));
    Matrix c = c0;
    syrk(1.0, a, 0.0, c);
    out.push_back(c);
    Matrix z = z0;
    apply_q(fact, z);
    out.push_back(z);
    return out;
  };
  const std::vector<Matrix> one = run(1);
  const std::vector<Matrix> four = run(4);
  const char* names[] = {"matmul", "syrk", "apply_q"};
  for (std::size_t q = 0; q < one.size(); ++q) {
    const std::size_t count = one[q].rows() * one[q].cols();
    EXPECT_EQ(std::memcmp(one[q].data(), four[q].data(),
                          count * sizeof(double)),
              0)
        << names[q];
  }
}

}  // namespace
}  // namespace tbmd::linalg
