// Tests for the pattern-only work around the symmetric-half SpMM and the
// purification update: the word-packed symbolic phase against an
// atom-level Gustavson oracle, the operand structure cached on pattern
// fingerprints, and the one-pass three-term combine against the two-pass
// composition it replaces.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/linalg/blas.hpp"
#include "src/onx/block_sparse.hpp"
#include "src/util/random.hpp"

namespace tbmd::onx {
namespace {

/// Block layout of nb rows: uniform 4x4 (sp) tiles, or alternating 9 / 1
/// (spd / s) tiles.
std::vector<std::uint32_t> layout(std::size_t nb, bool spd) {
  std::vector<std::uint32_t> dims(nb, 4);
  if (spd) {
    for (std::size_t bi = 0; bi < nb; ++bi) dims[bi] = bi % 2 == 0 ? 9 : 1;
  }
  return dims;
}

std::vector<std::size_t> offsets(const std::vector<std::uint32_t>& dims) {
  std::vector<std::size_t> off(dims.size() + 1, 0);
  for (std::size_t bi = 0; bi < dims.size(); ++bi) {
    off[bi + 1] = off[bi] + dims[bi];
  }
  return off;
}

/// Random symmetric matrix on `dims` whose off-diagonal tiles are each
/// dense or absent (absent with probability `sparsity`), mirrored across
/// the diagonal; diagonal tiles are always present.
linalg::Matrix random_tiles(const std::vector<std::uint32_t>& dims,
                            std::uint64_t seed, double sparsity) {
  Rng rng(seed);
  const std::vector<std::size_t> off = offsets(dims);
  const std::size_t nb = dims.size();
  linalg::Matrix m(off[nb], off[nb], 0.0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t bj = 0; bj <= bi; ++bj) {
      if (bi != bj && rng.uniform() < sparsity) continue;
      for (std::size_t r = 0; r < dims[bi]; ++r) {
        for (std::size_t c = 0; c < dims[bj]; ++c) {
          const double v = rng.uniform(-1, 1);
          m(off[bi] + r, off[bj] + c) = v;
          m(off[bj] + c, off[bi] + r) = v;
        }
      }
    }
  }
  return m;
}

BlockSparseMatrix half(const linalg::Matrix& m,
                       const std::vector<std::uint32_t>& dims) {
  return BlockSparseMatrix::from_dense(m, dims).to_symmetric_half();
}

/// The atom-level Gustavson reference: row I of the upper-half product
/// pattern holds every J >= I with a K such that (I, K) is in A and
/// (K, J) is in B, both mirror-expanded from their half storage.
std::vector<std::vector<std::uint32_t>> gustavson_oracle(
    const BlockSparseMatrix& a, const BlockSparseMatrix& b) {
  const std::size_t nb = a.block_rows();
  const auto expand = [nb](const BlockSparseMatrix& m) {
    std::vector<std::set<std::uint32_t>> full(nb);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      for (std::size_t k = m.row_ptr()[bi]; k < m.row_ptr()[bi + 1]; ++k) {
        full[bi].insert(m.cols()[k]);
        full[m.cols()[k]].insert(static_cast<std::uint32_t>(bi));
      }
    }
    return full;
  };
  const auto fa = expand(a);
  const auto fb = expand(b);
  std::vector<std::vector<std::uint32_t>> rows(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    std::set<std::uint32_t> row;
    for (const std::uint32_t bk : fa[bi]) {
      for (const std::uint32_t bj : fb[bk]) {
        if (bj >= bi) row.insert(bj);
      }
    }
    rows[bi].assign(row.begin(), row.end());
  }
  return rows;
}

/// Payload bytes of either precision, for memcmp comparisons.
bool same_payload(const BlockSparseMatrix& x, const BlockSparseMatrix& y) {
  if (x.precision() != y.precision() || x.row_ptr() != y.row_ptr() ||
      x.cols() != y.cols()) {
    return false;
  }
  if (x.precision() == TilePrecision::kF32) {
    return x.values_f32().size() == y.values_f32().size() &&
           std::memcmp(x.values_f32().data(), y.values_f32().data(),
                       x.values_f32().size() * sizeof(float)) == 0;
  }
  return x.values().size() == y.values().size() &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size() * sizeof(double)) == 0;
}

// --- word-packed symbolic phase ----------------------------------------

TEST(BsrSymbolic, WordPackedPatternMatchesGustavsonOracle) {
  // Block-row counts on both sides of the 64-column word boundaries, the
  // uniform sp and the 9/1 spd layouts, patterns from half full to sparse,
  // squares and products of two different operands, both precisions.
  for (const std::size_t nb : {1u, 7u, 63u, 64u, 65u, 129u, 217u}) {
    for (const bool spd : {false, true}) {
      const std::vector<std::uint32_t> dims = layout(nb, spd);
      for (const double sparsity : {0.5, 0.97}) {
        const std::string what = "nb " + std::to_string(nb) + " spd " +
                                 std::to_string(spd) + " sparsity " +
                                 std::to_string(sparsity);
        const auto seed = static_cast<std::uint64_t>(nb * 10 + spd);
        const BlockSparseMatrix a = half(random_tiles(dims, seed, sparsity),
                                         dims);
        const BlockSparseMatrix b =
            half(random_tiles(dims, seed + 5, sparsity), dims);
        for (const TilePrecision prec :
             {TilePrecision::kF64, TilePrecision::kF32}) {
          const BlockSparseMatrix pa = a.to_precision(prec);
          const BlockSparseMatrix pb = b.to_precision(prec);
          const struct {
            const BlockSparseMatrix& left;
            const BlockSparseMatrix& right;
          } cases[] = {{pa, pa}, {pa, pb}};
          for (const auto& [left, right] : cases) {
            BsrWorkspace ws;
            BsrPattern pat;
            BlockSparseMatrix cold, warm;
            left.multiply_sym_into(right, 0.0, cold, ws, &pat);
            ASSERT_EQ(ws.stats.symbolic_builds, 1u) << what;
            const auto want = gustavson_oracle(left, right);
            ASSERT_EQ(pat.row_ptr.size(), nb + 1) << what;
            for (std::size_t bi = 0; bi < nb; ++bi) {
              const std::vector<std::uint32_t> got(
                  pat.cols.begin() +
                      static_cast<std::ptrdiff_t>(pat.row_ptr[bi]),
                  pat.cols.begin() +
                      static_cast<std::ptrdiff_t>(pat.row_ptr[bi + 1]));
              ASSERT_EQ(got, want[bi]) << what << " row " << bi;
            }
            // The frozen pattern reruns only the numeric sweep, and the
            // warm product is bit-identical to the cold one.
            left.multiply_sym_into(right, 0.0, warm, ws, &pat);
            EXPECT_EQ(ws.stats.symbolic_builds, 1u) << what;
            EXPECT_EQ(ws.stats.numeric_reuses, 1u) << what;
            EXPECT_TRUE(same_payload(warm, cold)) << what;
          }
        }
      }
    }
  }
}

TEST(BsrSymbolic, SquareMatchesDenseProduct) {
  // Values as well as pattern across a word boundary, on both layouts.
  for (const bool spd : {false, true}) {
    const std::vector<std::uint32_t> dims = layout(65, spd);
    const linalg::Matrix x = random_tiles(dims, 9 + spd, 0.9);
    const BlockSparseMatrix hx = half(x, dims);
    BsrWorkspace ws;
    BlockSparseMatrix out;
    hx.multiply_sym_into(hx, 0.0, out, ws);
    EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(x, x)), 1e-12)
        << "spd " << spd;
  }
}

// --- operand structure cached on the pattern fingerprint ---------------

/// `m` with new values on the same pattern: every stored entry v becomes
/// sin(7 v) + 2 sign(v) (never zero, so no tile vanishes).
linalg::Matrix new_values(const linalg::Matrix& m) {
  linalg::Matrix out = m;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double v = m(i, j);
      if (v != 0.0) out(i, j) = std::sin(7.0 * v) + (v > 0.0 ? 2.0 : -2.0);
    }
  }
  return out;
}

/// Set tile (bi, bj) and its mirror of a dense matrix on `dims` to `v`.
void set_tile(linalg::Matrix& m, const std::vector<std::uint32_t>& dims,
              std::size_t bi, std::size_t bj, double v) {
  const std::vector<std::size_t> off = offsets(dims);
  for (std::size_t r = 0; r < dims[bi]; ++r) {
    for (std::size_t c = 0; c < dims[bj]; ++c) {
      m(off[bi] + r, off[bj] + c) = v;
      m(off[bj] + c, off[bi] + r) = v;
    }
  }
}

/// Cached structure describes `fp`?  The build cursors (`fill`, `mark`)
/// are scratch that only a rebuild writes, so a test that clears them can
/// tell a rebuild (refilled) from a reuse (still empty).
bool cached_for(const BsrWorkspace& ws, std::uint64_t fp) {
  return ws.adj_b.from.matches(fp) && ws.words_b.from.matches(fp) &&
         ws.super_b.from.matches(fp);
}

void clear_build_cursors(BsrWorkspace& ws) {
  ws.adj_a.fill.clear();
  ws.adj_b.fill.clear();
  ws.super_b.mark.clear();
}

TEST(BsrStructureCache, SamePatternNewValuesReusesCachedStructure) {
  const std::vector<std::uint32_t> dims = layout(40, false);
  const linalg::Matrix x = random_tiles(dims, 3, 0.6);
  const linalg::Matrix y = new_values(x);
  const BlockSparseMatrix hx = half(x, dims);
  const BlockSparseMatrix hy = half(y, dims);
  ASSERT_EQ(hx.pattern_fingerprint(), hy.pattern_fingerprint());

  BsrWorkspace ws;
  BsrPattern pat;
  BlockSparseMatrix out;
  hx.multiply_sym_into(hx, 0.0, out, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  EXPECT_TRUE(cached_for(ws, hx.pattern_fingerprint()));
  EXPECT_FALSE(ws.adj_a.from.valid);  // squaring reads B's slot only

  clear_build_cursors(ws);
  hy.multiply_sym_into(hy, 0.0, out, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  EXPECT_EQ(ws.stats.numeric_reuses, 1u);
  EXPECT_TRUE(ws.adj_b.fill.empty());  // not rebuilt
  EXPECT_TRUE(ws.super_b.mark.empty());
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(y, y)), 1e-11);

  // A * B with A on another pattern: A takes the second slot, B's stays.
  const linalg::Matrix y2 = linalg::matmul(y, y);
  const BlockSparseMatrix hy2 = half(y2, dims);
  ASSERT_NE(hy2.pattern_fingerprint(), hy.pattern_fingerprint());
  BsrPattern pat2;
  hy2.multiply_sym_into(hy, 0.0, out, ws, &pat2);
  EXPECT_TRUE(ws.adj_a.from.matches(hy2.pattern_fingerprint()));
  EXPECT_TRUE(ws.adj_b.fill.empty());
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(y2, y)), 1e-10);
  // ... and a repeat on new values of both (x^2 * x: the operands must
  // commute) rebuilds neither.
  clear_build_cursors(ws);
  const linalg::Matrix x2 = linalg::matmul(x, x);
  const BlockSparseMatrix hx2 = half(x2, dims);
  ASSERT_EQ(hx2.pattern_fingerprint(), hy2.pattern_fingerprint());
  hx2.multiply_sym_into(hx, 0.0, out, ws, &pat2);
  EXPECT_TRUE(ws.adj_a.fill.empty());
  EXPECT_TRUE(ws.adj_b.fill.empty());
  EXPECT_TRUE(ws.super_b.mark.empty());
  EXPECT_EQ(ws.stats.symbolic_builds, 2u);
  EXPECT_EQ(ws.stats.numeric_reuses, 2u);
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(x2, x)), 1e-10);
}

TEST(BsrStructureCache, PatternOrLayoutChangeRebuilds) {
  const std::vector<std::uint32_t> dims = layout(40, false);
  const linalg::Matrix x = random_tiles(dims, 4, 0.6);
  const BlockSparseMatrix hx = half(x, dims);
  // Find one absent and one present off-diagonal tile.
  std::size_t add_j = 0, drop_j = 0;
  for (std::size_t bj = 1; bj < dims.size(); ++bj) {
    const bool present = hx.find_block(0, bj) != nullptr;
    if (present && drop_j == 0) drop_j = bj;
    if (!present && add_j == 0) add_j = bj;
  }
  ASSERT_NE(add_j, 0u);
  ASSERT_NE(drop_j, 0u);
  linalg::Matrix added = x;
  set_tile(added, dims, 0, add_j, 0.25);
  linalg::Matrix dropped = x;
  set_tile(dropped, dims, 0, drop_j, 0.0);
  // The same dense matrix on a different block layout (same n, nb).
  std::vector<std::uint32_t> other = dims;
  other[0] = 3;
  other[1] = 5;

  const struct {
    const char* what;
    linalg::Matrix m;
    std::vector<std::uint32_t> dims;
  } cases[] = {{"tile added", added, dims},
               {"tile dropped", dropped, dims},
               {"layout change", x, other}};
  for (const auto& c : cases) {
    BsrWorkspace ws;
    BsrPattern pat;
    BlockSparseMatrix out;
    hx.multiply_sym_into(hx, 0.0, out, ws, &pat);
    clear_build_cursors(ws);
    const BlockSparseMatrix hc = half(c.m, c.dims);
    ASSERT_NE(hc.pattern_fingerprint(), hx.pattern_fingerprint()) << c.what;
    hc.multiply_sym_into(hc, 0.0, out, ws, &pat);
    EXPECT_EQ(ws.stats.symbolic_builds, 2u) << c.what;
    EXPECT_EQ(ws.stats.numeric_reuses, 0u) << c.what;
    EXPECT_FALSE(ws.adj_b.fill.empty()) << c.what;  // rebuilt
    EXPECT_FALSE(ws.super_b.mark.empty()) << c.what;
    EXPECT_TRUE(cached_for(ws, hc.pattern_fingerprint())) << c.what;
    EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(c.m, c.m)),
              1e-11)
        << c.what;
  }
}

TEST(BsrStructureCache, ShrinkDropsCachedStructure) {
  const std::vector<std::uint32_t> dims = layout(24, true);
  const linalg::Matrix x = random_tiles(dims, 5, 0.5);
  const BlockSparseMatrix hx = half(x, dims);
  BsrWorkspace ws;
  BlockSparseMatrix out;
  hx.multiply_sym_into(hx, 0.0, out, ws);
  ASSERT_TRUE(cached_for(ws, hx.pattern_fingerprint()));
  ws.shrink({2, 9});
  EXPECT_FALSE(ws.adj_b.from.valid);
  EXPECT_FALSE(ws.words_b.from.valid);
  EXPECT_FALSE(ws.super_b.from.valid);
  hx.multiply_sym_into(hx, 0.0, out, ws);
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(x, x)), 1e-12);
}

// --- one-pass three-term update ----------------------------------------

TEST(BsrCombine3, OnePassMatchesTwoPassCompositionBitwise) {
  const double drop = 1e-3;
  for (const bool spd : {false, true}) {
    const std::vector<std::uint32_t> dims = layout(30, spd);
    const std::size_t nb = dims.size();
    for (const auto& [alpha, beta, gamma] :
         {std::array<double, 3>{0.7, 1.9, -1.3},
          std::array<double, 3>{1.0, -1.0, 0.5}}) {
      linalg::Matrix p = random_tiles(dims, 11 + spd, 0.5);
      linalg::Matrix p2 = random_tiles(dims, 12 + spd, 0.5);
      const linalg::Matrix p3 = random_tiles(dims, 13 + spd, 0.5);
      // Make alpha P + beta P^2 (nearly) cancel on chosen tiles, so the
      // intermediate's truncation drops them -- off the diagonal, and on
      // the diagonal where only an exactly zero tile may go.
      const std::vector<std::size_t> off = offsets(dims);
      for (std::size_t bi = 0; bi < nb; ++bi) {
        for (std::size_t bj = bi; bj < nb; bj += 3) {
          for (std::size_t r = 0; r < dims[bi]; ++r) {
            for (std::size_t c = 0; c < dims[bj]; ++c) {
              const std::size_t i = off[bi] + r, j = off[bj] + c;
              const double v = -alpha / beta * p(i, j) + 1e-6 * (bi % 2);
              p2(i, j) = v;
              p2(j, i) = v;
            }
          }
        }
      }
      for (const TilePrecision prec :
           {TilePrecision::kF64, TilePrecision::kF32}) {
        const std::string what = "spd " + std::to_string(spd) + " alpha " +
                                 std::to_string(alpha) + " f32 " +
                                 std::to_string(prec == TilePrecision::kF32);
        const BlockSparseMatrix hp = half(p, dims).to_precision(prec);
        const BlockSparseMatrix hp2 = half(p2, dims).to_precision(prec);
        const BlockSparseMatrix hp3 = half(p3, dims).to_precision(prec);
        BsrWorkspace ws;
        BlockSparseMatrix tmp, two, one;
        hp.combine_into(alpha, hp2, beta, drop, tmp, ws);
        tmp.combine_into(1.0, hp3, gamma, drop, two, ws);
        hp.combine3_into(alpha, hp2, beta, hp3, gamma, drop, one, ws);
        EXPECT_TRUE(same_payload(one, two)) << what;
        EXPECT_EQ(one.pattern_fingerprint(), two.pattern_fingerprint())
            << what;

        // The intermediate really lost tiles: fewer than the union of
        // the P and P^2 patterns (each holds every diagonal tile).
        EXPECT_LT(tmp.block_count(),
                  hp.block_count() + hp2.block_count() - nb)
            << what;
        // The purification loop writes the update over P itself.
        BlockSparseMatrix inplace = hp;
        inplace.combine3_into(alpha, hp2, beta, hp3, gamma, drop, inplace,
                              ws);
        EXPECT_TRUE(same_payload(inplace, two)) << what;
      }
    }
  }
}

TEST(BsrCombine3, DiagonalTileRule) {
  // Two 4x4 block rows: tmp = P - P is exactly zero on both diagonal
  // tiles, so both are dropped even there; P^3 restores only the first,
  // with a tiny entry below the drop threshold that the diagonal rule
  // keeps.
  const std::vector<std::uint32_t> dims = {4, 4};
  linalg::Matrix p(8, 8, 0.0), p3(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) p(i, i) = 0.5 + 0.01 * i;
  p3(0, 0) = 1e-9;  // tiny, on the first diagonal tile only
  const BlockSparseMatrix hp = half(p, dims);
  const BlockSparseMatrix hp3 = half(p3, dims);
  BsrWorkspace ws;
  BlockSparseMatrix tmp, two, one;
  hp.combine_into(1.0, hp, -1.0, 1e-3, tmp, ws);
  EXPECT_EQ(tmp.block_count(), 0u);
  tmp.combine_into(1.0, hp3, 1.0, 1e-3, two, ws);
  hp.combine3_into(1.0, hp, -1.0, hp3, 1.0, 1e-3, one, ws);
  EXPECT_TRUE(same_payload(one, two));
  ASSERT_EQ(one.block_count(), 1u);  // the tiny diagonal tile survives
  EXPECT_EQ(one.get(0, 0), 1e-9);
}

TEST(BsrCombine3, Fp32SecondPassRoundsLikeTheComposition) {
  // tmp = 1 and gamma * P^3 = 2^-24 + 2^-53 + 2^-93 - 2^-99 exactly: the
  // composition's second pass rounds that product to fp64 first, landing
  // tmp + gamma P^3 on an fp32 rounding tie, while a fused multiply-add of
  // the same terms rounds up.  The one-pass update must round like the
  // composition on any target, whether or not it fuses.
  const std::vector<std::uint32_t> dims = {4};
  const double p3v = 1.0 + std::ldexp(1.0, -23);
  const double g = 1.0 - std::ldexp(1.0, -23) + std::ldexp(1.0, -29) +
                   std::ldexp(1.0, -46) - std::ldexp(1.0, -52);
  const double gamma = std::ldexp(g, -24);
  linalg::Matrix p(4, 4, 1.0), p3(4, 4, p3v);
  const BlockSparseMatrix hp = half(p, dims).to_precision(TilePrecision::kF32);
  const BlockSparseMatrix hp3 =
      half(p3, dims).to_precision(TilePrecision::kF32);
  BsrWorkspace ws;
  BlockSparseMatrix tmp, two, one;
  hp.combine_into(1.0, hp, 0.0, 0.0, tmp, ws);
  tmp.combine_into(1.0, hp3, gamma, 0.0, two, ws);
  hp.combine3_into(1.0, hp, 0.0, hp3, gamma, 0.0, one, ws);
  EXPECT_TRUE(same_payload(one, two))
      << one.values_f32()[0] << " vs " << two.values_f32()[0];
}

}  // namespace
}  // namespace tbmd::onx
