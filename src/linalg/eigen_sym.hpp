#pragma once

/// \file eigen_sym.hpp
/// \brief Dense symmetric eigensolver: Householder tridiagonalization
/// followed by implicit-shift QL iteration.
///
/// This is the same algorithm family (TRED2/TQL2, EISPACK lineage) that the
/// 1994-era TBMD codes used through LAPACK, reimplemented here with
/// OpenMP-parallel Householder updates and thread-parallel application of
/// the QL Givens rotations to the eigenvector matrix.  The O(N^3)
/// diagonalization is the dominant cost of exact tight-binding MD and the
/// central scaling bottleneck the paper's evaluation investigates.

#include <vector>

#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Eigenvalues (ascending) and matching eigenvectors of a real symmetric
/// matrix.  Column j of `vectors` is the unit eigenvector for `values[j]`.
struct SymmetricEigenSolution {
  std::vector<double> values;
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is validated to be square and (approximately) symmetric; the
/// strictly lower triangle is the authoritative data.  Since the blocked
/// partial-spectrum refactor this routes through eigh_range(a, 0, n-1)
/// (blocked Householder + values-only QL/bisection + inverse iteration +
/// blocked back-transform, see eigen_partial.hpp); eigh_ql() below keeps
/// the classic rotation-accumulating path as a cross-check oracle.
[[nodiscard]] SymmetricEigenSolution eigh(const Matrix& a);

/// Full eigendecomposition via the classic TRED2/TQL2 path: Householder
/// reduction with accumulated Q, then implicit-shift QL applying every
/// Givens rotation to the eigenvector matrix.  Slower than eigh() but of
/// EISPACK lineage and independently verified; kept (with jacobi_eigh) as
/// the oracle the tests compare the blocked solver against.
[[nodiscard]] SymmetricEigenSolution eigh_ql(const Matrix& a);

/// Eigenvalues only (ascending); roughly 2x faster and half the memory of
/// eigh() since no eigenvector accumulation is performed.
[[nodiscard]] std::vector<double> eigvalsh(const Matrix& a);

/// Reduce a symmetric matrix to tridiagonal form with Householder
/// reflections: Q^T A Q = T.  On exit `d` holds the diagonal of T and `e`
/// the subdiagonal (e[0] = 0, e[i] = T(i, i-1)).  If `accumulate` is true,
/// `a` is overwritten with the orthogonal matrix Q; otherwise its contents
/// are destroyed.
///
/// Exposed for testing and for the tridiagonal-based density-of-states
/// tools; most callers want eigh().
void householder_tridiagonalize(Matrix& a, std::vector<double>& d,
                                std::vector<double>& e, bool accumulate);

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` (diagonal) and `e` (subdiagonal, e[0] = 0 convention as produced by
/// householder_tridiagonalize) are overwritten; on exit `d` holds the
/// (unsorted) eigenvalues.  If `z` is non-null it must be n x n, and the
/// accumulated rotations are applied to its columns (pass Q from the
/// Householder step to obtain eigenvectors of the original matrix, or the
/// identity to obtain eigenvectors of T itself).  With z == nullptr the
/// values come from the root-free Pal-Walker-Kahan QL of LAPACK dsterf:
/// it iterates on the squared off-diagonals, so a rotation takes two
/// divisions and no square root, each unreduced block is scaled to keep the
/// squares clear of overflow and underflow, and 2 x 2 blocks are solved in
/// closed form (13.7 vs 19.8 ms for the classic sweep at n = 800).
void tql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                        Matrix* z);

}  // namespace tbmd::linalg
