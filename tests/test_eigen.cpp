// Tests for the symmetric eigensolver (Householder + implicit-shift QL)
// against the Jacobi reference and analytic spectra, plus Sturm-sequence
// property checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/linalg/blas.hpp"
#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/jacobi.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/util/random.hpp"

namespace tbmd::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-scale, scale);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

double eigen_residual(const Matrix& a, const SymmetricEigenSolution& sol) {
  // max_k || A v_k - lambda_k v_k ||_inf
  double worst = 0.0;
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) s += a(i, j) * sol.vectors(j, k);
      worst = std::max(worst,
                       std::fabs(s - sol.values[k] * sol.vectors(i, k)));
    }
  }
  return worst;
}

double orthogonality_defect(const Matrix& v) {
  const Matrix vtv = matmul(transpose(v), v);
  return max_abs(vtv - Matrix::identity(v.rows()));
}

TEST(Eigh, EmptyAndTrivialSizes) {
  Matrix a0(0, 0);
  EXPECT_TRUE(eigvalsh(a0).empty());

  Matrix a1(1, 1);
  a1(0, 0) = -3.5;
  const auto s1 = eigh(a1);
  ASSERT_EQ(s1.values.size(), 1u);
  EXPECT_DOUBLE_EQ(s1.values[0], -3.5);
  EXPECT_DOUBLE_EQ(std::fabs(s1.vectors(0, 0)), 1.0);
}

TEST(Eigh, TwoByTwoAnalytic) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(0, 1) = a(1, 0) = 1.0;
  const auto s = eigh(a);
  EXPECT_NEAR(s.values[0], 3.0 - std::sqrt(2.0), 1e-13);
  EXPECT_NEAR(s.values[1], 3.0 + std::sqrt(2.0), 1e-13);
}

TEST(Eigh, DiagonalMatrixSortedAscending) {
  Matrix a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  a(3, 3) = 0.0;
  const auto s = eigh(a);
  EXPECT_DOUBLE_EQ(s.values[0], -1.0);
  EXPECT_DOUBLE_EQ(s.values[1], 0.0);
  EXPECT_DOUBLE_EQ(s.values[2], 3.0);
  EXPECT_DOUBLE_EQ(s.values[3], 7.0);
}

TEST(Eigh, HandlesDegenerateEigenvalues) {
  // I + rank-1: eigenvalues {1 (x3), 1 + ||w||^2}.
  const std::size_t n = 4;
  std::vector<double> w{0.5, -0.5, 1.0, 0.25};
  Matrix a = Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) += w[i] * w[j];
  }
  const auto s = eigh(a);
  double w2 = 0.0;
  for (const double x : w) w2 += x * x;
  EXPECT_NEAR(s.values[0], 1.0, 1e-12);
  EXPECT_NEAR(s.values[1], 1.0, 1e-12);
  EXPECT_NEAR(s.values[2], 1.0, 1e-12);
  EXPECT_NEAR(s.values[3], 1.0 + w2, 1e-12);
  EXPECT_LT(eigen_residual(a, s), 1e-12);
  EXPECT_LT(orthogonality_defect(s.vectors), 1e-12);
}

class EighRandom : public ::testing::TestWithParam<int> {};

TEST_P(EighRandom, MatchesJacobiAndSatisfiesDefinition) {
  const int n = GetParam();
  const Matrix a = random_symmetric(n, 1000 + n);
  const auto ql = eigh(a);
  const auto jac = jacobi_eigh(a);

  ASSERT_EQ(ql.values.size(), static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(ql.values[k], jac.values[k], 1e-10 * std::max(1.0, max_abs(a)));
  }
  EXPECT_LT(eigen_residual(a, ql), 1e-10);
  EXPECT_LT(orthogonality_defect(ql.vectors), 1e-10);
  // Values must come out sorted.
  for (int k = 1; k < n; ++k) EXPECT_LE(ql.values[k - 1], ql.values[k]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighRandom,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64, 100, 150));

class EigvalshRandom : public ::testing::TestWithParam<int> {};

TEST_P(EigvalshRandom, ValuesOnlyPathAgreesWithFullSolve) {
  const int n = GetParam();
  const Matrix a = random_symmetric(n, 2000 + n);
  const auto full = eigh(a);
  const auto vals = eigvalsh(a);
  ASSERT_EQ(vals.size(), full.values.size());
  for (int k = 0; k < n; ++k) EXPECT_NEAR(vals[k], full.values[k], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigvalshRandom,
                         ::testing::Values(2, 7, 24, 65, 120));

TEST(Eigh, TraceAndFrobeniusInvariants) {
  const std::size_t n = 40;
  const Matrix a = random_symmetric(n, 77);
  const auto vals = eigvalsh(a);
  double tr = 0.0, sum_sq = 0.0;
  for (const double v : vals) {
    tr += v;
    sum_sq += v * v;
  }
  double tr_a = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_a += a(i, i);
  EXPECT_NEAR(tr, tr_a, 1e-10);
  const double frob = frobenius_norm(a);
  EXPECT_NEAR(std::sqrt(sum_sq), frob, 1e-10);
}

TEST(Eigh, ShiftInvariance) {
  const std::size_t n = 24;
  Matrix a = random_symmetric(n, 91);
  const auto vals = eigvalsh(a);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  const auto shifted = eigvalsh(a);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(shifted[k], vals[k] + 5.0, 1e-10);
  }
}

TEST(Eigh, ScaleEquivariance) {
  const std::size_t n = 18;
  const Matrix a = random_symmetric(n, 93);
  const auto vals = eigvalsh(a);
  const Matrix b = a * (-2.0);
  auto scaled = eigvalsh(b);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(scaled[k], -2.0 * vals[n - 1 - k], 1e-10);
  }
}

TEST(Eigh, WideSpectrumStaysAccurate) {
  // Diagonal spans 8 orders of magnitude plus a small coupling.
  const std::size_t n = 12;
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = std::pow(10.0, static_cast<double>(i) - 4.0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a(i, i + 1) = a(i + 1, i) = 1e-6;
  }
  const auto s = eigh(a);
  EXPECT_LT(eigen_residual(a, s), 1e-9);
}

TEST(Eigh, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW((void)eigh(a), Error);
  EXPECT_THROW((void)eigvalsh(a), Error);
}

TEST(Householder, ProducesOrthogonalQAndSimilarTridiagonal) {
  const std::size_t n = 30;
  const Matrix a = random_symmetric(n, 303);
  Matrix q = a;
  std::vector<double> d, e;
  householder_tridiagonalize(q, d, e, /*accumulate=*/true);

  EXPECT_LT(orthogonality_defect(q), 1e-11);

  // Rebuild T from (d, e) and check Q^T A Q = T.
  Matrix t(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = d[i];
    if (i > 0) {
      t(i, i - 1) = e[i];
      t(i - 1, i) = e[i];
    }
  }
  const Matrix qtaq = matmul(transpose(q), matmul(a, q));
  EXPECT_LT(max_abs(qtaq - t), 1e-10);
}

TEST(Householder, SturmCountConsistentWithFinalEigenvalues) {
  // Property test: for several probe energies, the Sturm count of the
  // tridiagonal reduction equals the number of eigenvalues below the probe.
  const std::size_t n = 50;
  const Matrix a = random_symmetric(n, 404);
  Matrix work = a;
  std::vector<double> d, e;
  householder_tridiagonalize(work, d, e, /*accumulate=*/false);
  const auto vals = eigvalsh(a);

  for (const double probe : {-2.0, -0.5, 0.0, 0.3, 1.5}) {
    std::size_t expected = 0;
    for (const double v : vals) expected += (v < probe);
    EXPECT_EQ(sturm_count(d, e, probe), expected) << "probe = " << probe;
  }
}

// --- values-only QL (root-free Pal-Walker-Kahan) ----------------------------

/// A symmetric tridiagonal as d and e (e[i] = T(i, i-1), e[0] = 0).
struct Tridiag {
  std::vector<double> d, e;
};

/// Ascending eigenvalues of the values-only QL path.
std::vector<double> pwk_values(const Tridiag& t) {
  std::vector<double> d = t.d, e = t.e;
  tql_implicit_shift(d, e, nullptr);
  std::sort(d.begin(), d.end());
  return d;
}

Matrix dense(const Tridiag& t) {
  const std::size_t n = t.d.size();
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = t.d[i];
    if (i > 0) {
      a(i, i - 1) = t.e[i];
      a(i - 1, i) = t.e[i];
    }
  }
  return a;
}

double norm_max(const Tridiag& t) {
  double m = 0.0;
  for (std::size_t i = 0; i < t.d.size(); ++i) {
    m = std::max({m, std::fabs(t.d[i]), std::fabs(t.e[i])});
  }
  return m;
}

/// The PWK values against the eigenvector QL (eigh_ql) and Sturm bisection,
/// to a few n eps ||T||.
void expect_matches_references(const Tridiag& t, const char* what) {
  const std::size_t n = t.d.size();
  const std::vector<double> got = pwk_values(t);
  const std::vector<double> ql = eigh_ql(dense(t)).values;
  const std::vector<double> bis =
      tridiagonal_eigenvalues_range(t.d, t.e, 0, n - 1);
  const double tol = 8.0 * static_cast<double>(n + 1) *
                     std::numeric_limits<double>::epsilon() * norm_max(t);
  ASSERT_EQ(got.size(), n) << what;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k], ql[k], tol) << what << " k=" << k;
    EXPECT_NEAR(got[k], bis[k], tol) << what << " k=" << k;
  }
}

TEST(PwkQl, TrivialSizes) {
  expect_matches_references({{2.5}, {0.0}}, "n=1");
  expect_matches_references({{1.0, -3.0}, {0.0, 0.5}}, "n=2");
  expect_matches_references({{4.0, 4.0}, {0.0, 1e-3}}, "n=2 equal diagonal");
  expect_matches_references({{0.0, 0.0}, {0.0, 2.0}}, "n=2 zero diagonal");
  // Closed form: [[a, b], [b, c]].
  const std::vector<double> v = pwk_values({{1.0, 3.0}, {0.0, 1.0}});
  EXPECT_NEAR(v[0], 2.0 - std::sqrt(2.0), 1e-15);
  EXPECT_NEAR(v[1], 2.0 + std::sqrt(2.0), 1e-15);
}

TEST(PwkQl, SplitTridiagonalWithZeroCouplings) {
  // Three blocks (sizes 4, 1, 3) with exact zeros between them, and an
  // exact eigenvalue repeated across blocks.
  Tridiag t{{1.0, 2.0, -1.0, 0.5, 7.0, 1.0, 2.0, -1.0},
            {0.0, 0.3, -0.7, 1.1, 0.0, 0.0, 0.3, -0.7}};
  expect_matches_references(t, "split");
  // Fully diagonal: eigenvalues are the diagonal, bit for bit.
  Tridiag diag{{3.0, -2.0, 5.0, 0.0, -2.0}, {0.0, 0.0, 0.0, 0.0, 0.0}};
  std::vector<double> want = diag.d;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(pwk_values(diag), want);
}

TEST(PwkQl, ChainOfTwoByTwoBlocks) {
  // Decoupled 2 x 2 blocks, each solved in closed form.
  Tridiag t;
  for (int b = 0; b < 6; ++b) {
    t.d.push_back(0.5 * b);
    t.d.push_back(-1.0 + b);
    t.e.push_back(0.0);
    t.e.push_back(0.25 + 0.1 * b);
  }
  expect_matches_references(t, "2x2 blocks");
}

TEST(PwkQl, WilkinsonW21Plus) {
  // W21+: d = |10 - i|, e = 1.  Its top eigenvalue pairs agree to ~1e-14
  // and better, the classic test of a QL's shift and deflation.
  Tridiag t;
  for (int i = 0; i < 21; ++i) {
    t.d.push_back(std::fabs(10.0 - i));
    t.e.push_back(i == 0 ? 0.0 : 1.0);
  }
  expect_matches_references(t, "W21+");
  const std::vector<double> v = pwk_values(t);
  EXPECT_NEAR(v[20], 10.746194182903393, 1e-12);
  EXPECT_NEAR(v[19], 10.746194182903322, 1e-12);
}

TEST(PwkQl, ClusteredSpectrum) {
  // Weakly coupled copies of the same level: a tight cluster near 1 plus
  // a second one near -2.
  Tridiag t;
  for (int i = 0; i < 40; ++i) {
    t.d.push_back(i < 20 ? 1.0 : -2.0);
    t.e.push_back(i == 0 ? 0.0 : 1e-9 * (1 + i % 3));
  }
  expect_matches_references(t, "clusters");
}

TEST(PwkQl, RandomTridiagonalsMatchReferences) {
  for (const std::size_t n : {3u, 17u, 64u, 200u}) {
    Rng rng(500 + n);
    Tridiag t;
    for (std::size_t i = 0; i < n; ++i) {
      t.d.push_back(rng.uniform(-2.0, 2.0));
      t.e.push_back(i == 0 ? 0.0 : rng.uniform(-1.0, 1.0));
    }
    expect_matches_references(t, "random");
  }
}

TEST(PwkQl, ScaledNearOverflowAndUnderflow) {
  // The sweep squares the couplings: at 1e+160 the squares would overflow
  // and at 1e-160 underflow without the per-block scaling.  Eigenvalues
  // scale with the matrix.
  Rng rng(77);
  Tridiag base;
  for (std::size_t i = 0; i < 30; ++i) {
    base.d.push_back(rng.uniform(-1.0, 1.0));
    base.e.push_back(i == 0 ? 0.0 : rng.uniform(-1.0, 1.0));
  }
  const std::vector<double> ref = pwk_values(base);
  for (const double scale : {1e150, 1e160, 1e-150, 1e-160}) {
    Tridiag t = base;
    for (double& x : t.d) x *= scale;
    for (double& x : t.e) x *= scale;
    const std::vector<double> got = pwk_values(t);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_NEAR(got[k] / scale, ref[k], 1e-13) << scale << " k=" << k;
    }
  }
}

TEST(PwkQl, GradedEntries) {
  // Entries falling geometrically from ~1e+150 to ~1e-150 (both
  // orientations: the solver reverses a block whose bottom is the smaller
  // end).  Norm-wise accuracy against Sturm bisection; the eigenvector QL's
  // absolute deflation test does not converge on this matrix.
  for (const bool descending : {true, false}) {
    Tridiag t;
    const std::size_t n = 31;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = std::pow(10.0, 150.0 - 10.0 * static_cast<double>(i));
      t.d.push_back(descending ? x : 1.0 / x);
      t.e.push_back(i == 0 ? 0.0 : 0.5 * (descending ? x : 1.0 / x));
    }
    const std::vector<double> got = pwk_values(t);
    const std::vector<double> bis =
        tridiagonal_eigenvalues_range(t.d, t.e, 0, n - 1);
    const double tol = 8.0 * static_cast<double>(n) *
                       std::numeric_limits<double>::epsilon() * norm_max(t);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(got[k], bis[k], tol) << descending << " k=" << k;
      EXPECT_TRUE(std::isfinite(got[k]));
    }
  }
}

TEST(Jacobi, AgreesWithAnalytic2x2) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(0, 1) = a(1, 0) = 0.5;
  const auto s = jacobi_eigh(a);
  EXPECT_NEAR(s.values[0], 0.5, 1e-12);
  EXPECT_NEAR(s.values[1], 1.5, 1e-12);
}

TEST(Jacobi, ResidualAndOrthogonality) {
  const Matrix a = random_symmetric(20, 505);
  const auto s = jacobi_eigh(a);
  EXPECT_LT(eigen_residual(a, s), 1e-10);
  EXPECT_LT(orthogonality_defect(s.vectors), 1e-10);
}

}  // namespace
}  // namespace tbmd::linalg
