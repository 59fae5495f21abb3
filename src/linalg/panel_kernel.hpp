#pragma once

/// \file panel_kernel.hpp
/// \brief Register-blocked body of linalg::gemm_panel_add (C += A * B on
/// row-major panels).  Internal to the linalg and onx layers: blas.cpp
/// instantiates it behind the out-of-line gemm_panel_add, the
/// block-sparse SpMM inlines it at the constant 4 x 4 x 4 shape of sp atom
/// tiles, and the tridiagonalization's symv borrows its vector types.

#include <cstddef>

namespace tbmd::linalg::detail {

// Vector types of the panel kernel (GNU vector extensions), selected by
// lane count.  Loads and stores go through memcpy, so panels need no
// alignment.  Each lane is an independent output column: vectorization never
// reorders an element's k-accumulation.
template <std::size_t L>
struct PanelVec;
template <>
struct PanelVec<1> {
  using type = double;
};
template <>
struct PanelVec<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct PanelVec<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct PanelVec<8> {
  typedef double type __attribute__((vector_size(64)));
};

// Full-width body of the panel kernel: the widest vector the target has and
// as many C rows as its register file holds with two accumulator vectors
// per row (8 x 16 on AVX-512's 32 zmm registers, 4 x 8 with AVX, 4 x 4 on
// baseline SSE2).
#if defined(__AVX512F__)
constexpr std::size_t kPanelLanes = 8;
constexpr std::size_t kPanelRows = 8;
#elif defined(__AVX__)
constexpr std::size_t kPanelLanes = 4;
constexpr std::size_t kPanelRows = 4;
#else
constexpr std::size_t kPanelLanes = 2;
constexpr std::size_t kPanelRows = 4;
#endif

/// One MR x (NV * L) register block of C += A * B: the accumulators start
/// from C and stay in registers across the whole k loop, which broadcasts
/// A(i, q) against NV vectors of B's row q.
template <std::size_t L, std::size_t MR, std::size_t NV>
[[gnu::always_inline]] inline void panel_block(std::size_t k, const double* a,
                                               std::size_t lda,
                                               const double* b,
                                               std::size_t ldb, double* c,
                                               std::size_t ldc) {
  using V = typename PanelVec<L>::type;
  V acc[MR][NV];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      __builtin_memcpy(&acc[i][v], c + ldc * i + L * v, sizeof(V));
    }
  }
  for (std::size_t q = 0; q < k; ++q) {
    V bq[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      __builtin_memcpy(&bq[v], b + ldb * q + L * v, sizeof(V));
    }
    for (std::size_t i = 0; i < MR; ++i) {
      const double aiq = a[lda * i + q];
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += aiq * bq[v];
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      __builtin_memcpy(c + ldc * i + L * v, &acc[i][v], sizeof(V));
    }
  }
}

/// All m rows of one column strip NV * L wide: full kPanelRows blocks, then
/// 4-row blocks (AVX-512), then single rows.
template <std::size_t L, std::size_t NV>
[[gnu::always_inline]] inline void panel_strip(std::size_t m, std::size_t k,
                                               const double* a,
                                               std::size_t lda,
                                               const double* b,
                                               std::size_t ldb, double* c,
                                               std::size_t ldc) {
  std::size_t i = 0;
  for (; i + kPanelRows <= m; i += kPanelRows) {
    panel_block<L, kPanelRows, NV>(k, a + lda * i, lda, b, ldb, c + ldc * i,
                                   ldc);
  }
  if constexpr (kPanelRows > 4) {
    for (; i + 4 <= m; i += 4) {
      panel_block<L, 4, NV>(k, a + lda * i, lda, b, ldb, c + ldc * i, ldc);
    }
  }
  for (; i < m; ++i) {
    panel_block<L, 1, NV>(k, a + lda * i, lda, b, ldb, c + ldc * i, ldc);
  }
}

/// The body of gemm_panel_add.  Inline so the SpMM's 4 x 4 atom-tile
/// products skip the call and fold the dispatch to one register block: on
/// the all-atom-path H * H product (216-atom C, 1 thread) calling
/// gemm_panel_add instead made the atom-product loop ~1.6x slower.
[[gnu::always_inline]] inline void panel_add(std::size_t m, std::size_t k,
                                             std::size_t n, const double* a,
                                             std::size_t lda, const double* b,
                                             std::size_t ldb, double* c,
                                             std::size_t ldc) {
  constexpr std::size_t L = kPanelLanes;
  std::size_t j = 0;
  for (; j + 2 * L <= n; j += 2 * L) {
    panel_strip<L, 2>(m, k, a, lda, b + j, ldb, c + j, ldc);
  }
  // Column remainders: one full vector, then halving vector widths, then a
  // last scalar column (atom tiles of 1, 4 and 9 orbitals end up here).
  if (j + L <= n) {
    panel_strip<L, 1>(m, k, a, lda, b + j, ldb, c + j, ldc);
    j += L;
  }
  if constexpr (L > 4) {
    if (j + 4 <= n) {
      panel_strip<4, 1>(m, k, a, lda, b + j, ldb, c + j, ldc);
      j += 4;
    }
  }
  if constexpr (L > 2) {
    if (j + 2 <= n) {
      panel_strip<2, 1>(m, k, a, lda, b + j, ldb, c + j, ldc);
      j += 2;
    }
  }
  if (j < n) panel_strip<1, 1>(m, k, a, lda, b + j, ldb, c + j, ldc);
}

}  // namespace tbmd::linalg::detail
