#include "src/onx/block_sparse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "src/linalg/blas.hpp"
#include "src/linalg/panel_kernel.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::onx {

namespace {

/// Keep a tile of squared Frobenius norm `norm2`?  A tile is dropped when
/// ||T||_F <= bs * tol, i.e. when its RMS entry is below the tolerance:
/// the perturbation from discarding it is then no larger than that of the
/// bs^2 scalar entries of magnitude tol the element-wise criterion already
/// tolerates dropping.  Reduces to |v| > tol exactly when bs == 1.
inline bool keep_tile(double norm2, std::size_t bs, double drop_tolerance) {
  const double scaled = static_cast<double>(bs) * drop_tolerance;
  return norm2 > scaled * scaled;
}

/// The rectangular-tile form of keep_tile: `count` is the tile's entry
/// count, so sqrt(count) plays the role the edge bs plays for square
/// tiles (they agree when count == bs^2, up to rounding -- which is why
/// the uniform paths keep calling keep_tile unchanged).
inline bool keep_tile_rect(double norm2, std::size_t count,
                           double drop_tolerance) {
  const double scaled =
      std::sqrt(static_cast<double>(count)) * drop_tolerance;
  return norm2 > scaled * scaled;
}

/// All entries equal (an all-equal dims vector normalizes to uniform mode)?
inline bool dims_uniform(const std::vector<std::uint32_t>& dims) {
  for (const std::uint32_t d : dims) {
    if (d != dims.front()) return false;
  }
  return true;
}

volatile double kRuntimeOne = 1.0;  // see combine_sweep

/// Staging rows of tile scalar type T (double: row_vals, float:
/// row_vals32).
template <class T>
std::vector<std::vector<T>>& staging_rows(BsrWorkspace& ws) {
  if constexpr (std::is_same_v<T, float>) {
    return ws.row_vals32;
  } else {
    return ws.row_vals;
  }
}

/// T payload of stored tile k.
template <class T>
const T* tile_of(const BlockSparseMatrix& m, std::size_t k) {
  if constexpr (std::is_same_v<T, float>) {
    return m.block_f32(k);
  } else {
    return m.block(k);
  }
}

/// out = alpha * a + beta * b over one tile of `sz` entries; `a` or `b` is
/// null where that operand has no tile.  Each precision keeps its own
/// rounding sequence: fp64 scales `a` and accumulates beta * b in a second
/// pass; fp32 combines every entry in one fp64 expression and rounds once
/// on store.  The expression shapes fix which product a contracting
/// compiler fuses into an FMA, so they are part of the results' bits.
/// `out` may alias `a` (entries are read before written).
template <class T>
inline void combine_tile(double alpha, const T* a, double beta, const T* b,
                         std::size_t sz, T* out) {
  if constexpr (std::is_same_v<T, float>) {
    if (a != nullptr && b != nullptr) {
      for (std::size_t q = 0; q < sz; ++q) {
        out[q] = static_cast<float>(alpha * static_cast<double>(a[q]) +
                                    beta * static_cast<double>(b[q]));
      }
    } else if (a != nullptr) {
      for (std::size_t q = 0; q < sz; ++q) {
        out[q] = static_cast<float>(alpha * static_cast<double>(a[q]));
      }
    } else {
      for (std::size_t q = 0; q < sz; ++q) {
        out[q] = static_cast<float>(beta * static_cast<double>(b[q]));
      }
    }
  } else if (a != nullptr) {
    for (std::size_t q = 0; q < sz; ++q) out[q] = alpha * a[q];
    if (b != nullptr) {
      for (std::size_t q = 0; q < sz; ++q) out[q] += beta * b[q];
    }
  } else {
    for (std::size_t q = 0; q < sz; ++q) out[q] = beta * b[q];
  }
}

/// Truncate a staged di x dj tile in place and report whether it stays:
/// entries of magnitude <= sub_tile_drop are zeroed first (off at 0.0),
/// then the tile is dropped when its Frobenius norm is at most the RMS
/// threshold; a nonzero diagonal tile always stays so traces remain exact.
template <class T>
inline bool keep_staged_tile(T* tile, std::size_t di, std::size_t dj,
                             bool uniform, bool diagonal,
                             double drop_tolerance, double sub_tile_drop) {
  const std::size_t sz = di * dj;
  double norm2;
  if constexpr (std::is_same_v<T, float>) {
    if (sub_tile_drop > 0.0) {
      const float sub = static_cast<float>(sub_tile_drop);
      for (std::size_t q = 0; q < sz; ++q) {
        if (std::fabs(tile[q]) <= sub) tile[q] = 0.0f;
      }
    }
    norm2 = linalg::tile_norm2_rect_f32(di, dj, tile);
  } else {
    if (sub_tile_drop > 0.0) {
      for (std::size_t q = 0; q < sz; ++q) {
        if (std::fabs(tile[q]) <= sub_tile_drop) tile[q] = 0.0;
      }
    }
    norm2 = linalg::tile_norm2_rect(di, dj, tile);
  }
  const bool keep = uniform ? keep_tile(norm2, di, drop_tolerance)
                            : keep_tile_rect(norm2, sz, drop_tolerance);
  return keep || (diagonal && norm2 > 0.0);
}

}  // namespace

void BlockSparseMatrix::refingerprint() {
  // FNV-1a over the structural identity: any pattern, dimension or storage
  // mode change yields a different fingerprint, so a stale BsrPattern can
  // never validate against a rebuilt operand.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) {
      h ^= (v >> s) & 0xffu;
      h *= kPrime;
    }
  };
  mix(n_);
  mix(bs_);
  mix(sym_ ? 1u : 0u);
  // Variable mode: the per-row dims are part of the structure (bs_ == 0
  // there, so a variable matrix can never collide with a uniform one; the
  // loop is empty in uniform mode and fingerprints are unchanged).
  for (const std::uint32_t d : dims_) mix(d);
  for (const std::size_t r : row_ptr_) mix(r);
  for (const std::uint32_t c : col_) mix(c);
  pattern_fingerprint_ = h;
}

BlockSparseMatrix::BlockSparseMatrix(std::size_t n, std::size_t block_size,
                                     bool symmetric_half)
    : n_(n), bs_(block_size == 0 ? 1 : block_size), max_bs_(bs_),
      sym_(symmetric_half) {
  TBMD_REQUIRE(n % bs_ == 0,
               "BlockSparseMatrix: block size must divide the dimension");
  nb_ = n_ / bs_;
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix::BlockSparseMatrix(const std::vector<std::uint32_t>& dims,
                                     bool symmetric_half)
    : sym_(symmetric_half) {
  TBMD_REQUIRE(!dims.empty(), "BlockSparseMatrix: empty block layout");
  std::size_t n = 0;
  std::uint32_t widest = 0;
  for (const std::uint32_t d : dims) {
    TBMD_REQUIRE(d > 0, "BlockSparseMatrix: zero block dimension");
    n += d;
    widest = std::max(widest, d);
  }
  n_ = n;
  nb_ = dims.size();
  if (dims_uniform(dims)) {
    bs_ = dims.front();
    max_bs_ = bs_;
  } else {
    bs_ = 0;
    max_bs_ = widest;
    dims_ = dims;
    offs_.resize(nb_ + 1);
    offs_[0] = 0;
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      offs_[bi + 1] = offs_[bi] + dims[bi];
    }
    val_ptr_.assign(1, 0);
  }
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix BlockSparseMatrix::identity(std::size_t n,
                                              std::size_t block_size,
                                              bool symmetric_half) {
  BlockSparseMatrix m(n, block_size, symmetric_half);
  const std::size_t bs = m.bs_;
  m.col_.resize(m.nb_);
  m.val_.assign(m.nb_ * bs * bs, 0.0);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    m.col_[bi] = static_cast<std::uint32_t>(bi);
    m.row_ptr_[bi + 1] = bi + 1;
    double* tile = m.val_.data() + bs * bs * bi;
    for (std::size_t a = 0; a < bs; ++a) tile[bs * a + a] = 1.0;
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::identity(
    const std::vector<std::uint32_t>& dims, bool symmetric_half) {
  BlockSparseMatrix m(dims, symmetric_half);
  if (m.uniform_blocks()) return identity(m.n_, m.bs_, symmetric_half);
  m.col_.resize(m.nb_);
  m.val_ptr_.resize(m.nb_ + 1);
  m.val_ptr_[0] = 0;
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    const std::size_t d = dims[bi];
    m.val_ptr_[bi + 1] = m.val_ptr_[bi] + d * d;
  }
  m.val_.assign(m.val_ptr_[m.nb_], 0.0);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    m.col_[bi] = static_cast<std::uint32_t>(bi);
    m.row_ptr_[bi + 1] = bi + 1;
    const std::size_t d = dims[bi];
    double* tile = m.val_.data() + m.val_ptr_[bi];
    for (std::size_t a = 0; a < d; ++a) tile[d * a + a] = 1.0;
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::identity_like(
    const BlockSparseMatrix& like) {
  if (like.uniform_blocks()) return identity(like.n_, like.bs_, like.sym_);
  return identity(like.dims_, like.sym_);
}

BlockSparseMatrix BlockSparseMatrix::zeros_like(
    const BlockSparseMatrix& like) {
  if (like.uniform_blocks()) {
    return BlockSparseMatrix(like.n_, like.bs_, like.sym_);
  }
  return BlockSparseMatrix(like.dims_, like.sym_);
}

BlockSparseMatrix BlockSparseMatrix::from_dense(const linalg::Matrix& a,
                                                std::size_t block_size,
                                                double drop_tolerance) {
  TBMD_REQUIRE(a.rows() == a.cols(),
               "BlockSparseMatrix: matrix must be square");
  BlockSparseMatrix m(a.rows(), block_size);
  const std::size_t bs = m.bs_;
  std::vector<double> tile(bs * bs);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    for (std::size_t bj = 0; bj < m.nb_; ++bj) {
      double norm2 = 0.0;
      for (std::size_t r = 0; r < bs; ++r) {
        const double* arow = a.row(bs * bi + r) + bs * bj;
        for (std::size_t c = 0; c < bs; ++c) {
          tile[bs * r + c] = arow[c];
          norm2 += arow[c] * arow[c];
        }
      }
      if (keep_tile(norm2, bs, drop_tolerance) || (bi == bj && norm2 > 0.0)) {
        m.col_.push_back(static_cast<std::uint32_t>(bj));
        m.val_.insert(m.val_.end(), tile.begin(), tile.end());
      }
    }
    m.row_ptr_[bi + 1] = m.col_.size();
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::from_dense(
    const linalg::Matrix& a, const std::vector<std::uint32_t>& dims,
    double drop_tolerance) {
  BlockSparseMatrix m(dims, /*symmetric_half=*/false);
  if (m.uniform_blocks()) return from_dense(a, m.bs_, drop_tolerance);
  TBMD_REQUIRE(a.rows() == a.cols() && a.rows() == m.n_,
               "BlockSparseMatrix: dense/layout size mismatch");
  std::vector<double> tile(m.max_bs_ * m.max_bs_);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    const std::size_t di = m.dims_[bi];
    const std::size_t oi = m.offs_[bi];
    for (std::size_t bj = 0; bj < m.nb_; ++bj) {
      const std::size_t dj = m.dims_[bj];
      const std::size_t oj = m.offs_[bj];
      double norm2 = 0.0;
      for (std::size_t r = 0; r < di; ++r) {
        const double* arow = a.row(oi + r) + oj;
        for (std::size_t c = 0; c < dj; ++c) {
          tile[dj * r + c] = arow[c];
          norm2 += arow[c] * arow[c];
        }
      }
      if (keep_tile_rect(norm2, di * dj, drop_tolerance) ||
          (bi == bj && norm2 > 0.0)) {
        m.col_.push_back(static_cast<std::uint32_t>(bj));
        m.val_.insert(m.val_.end(), tile.begin(),
                      tile.begin() + static_cast<std::ptrdiff_t>(di * dj));
        m.val_ptr_.push_back(m.val_.size());
      }
    }
    m.row_ptr_[bi + 1] = m.col_.size();
  }
  m.refingerprint();
  return m;
}

linalg::Matrix BlockSparseMatrix::to_dense() const {
  // fp32 payloads densify through an exact fp64 conversion (diagnostics /
  // test path; never on the hot loop).
  if (prec_ == TilePrecision::kF32) {
    return to_precision(TilePrecision::kF64).to_dense();
  }
  if (!uniform_blocks()) {
    linalg::Matrix a(n_, n_, 0.0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      const std::size_t oi = offs_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        const std::size_t dj = dims_[bj];
        const std::size_t oj = offs_[bj];
        const double* tile = block(k);
        for (std::size_t r = 0; r < di; ++r) {
          double* arow = a.row(oi + r) + oj;
          for (std::size_t c = 0; c < dj; ++c) arow[c] = tile[dj * r + c];
        }
        if (sym_ && bj != bi) {
          for (std::size_t r = 0; r < di; ++r) {
            for (std::size_t c = 0; c < dj; ++c) {
              a(oj + c, oi + r) = tile[dj * r + c];
            }
          }
        }
      }
    }
    return a;
  }
  linalg::Matrix a(n_, n_, 0.0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const double* tile = block(k);
      for (std::size_t r = 0; r < bs_; ++r) {
        double* arow = a.row(bs_ * bi + r) + bs_ * bj;
        for (std::size_t c = 0; c < bs_; ++c) arow[c] = tile[bs_ * r + c];
      }
      if (sym_ && bj != bi) {
        // Implicit mirror: A_JI = A_IJ^T.
        for (std::size_t r = 0; r < bs_; ++r) {
          for (std::size_t c = 0; c < bs_; ++c) {
            a(bs_ * bj + c, bs_ * bi + r) = tile[bs_ * r + c];
          }
        }
      }
    }
  }
  return a;
}

BlockSparseMatrix BlockSparseMatrix::to_symmetric_half() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "to_symmetric_half: convert fp32 payloads to fp64 first");
  if (sym_) return *this;
  if (!uniform_blocks()) {
    BlockSparseMatrix out(dims_, true);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] < bi) continue;  // lower half: the stored mirror's copy
        out.col_.push_back(col_[k]);
        const double* tile = block(k);
        out.val_.insert(out.val_.end(), tile, tile + di * dims_[col_[k]]);
        out.val_ptr_.push_back(out.val_.size());
      }
      out.row_ptr_[bi + 1] = out.col_.size();
    }
    out.refingerprint();
    return out;
  }
  BlockSparseMatrix out(n_, bs_, true);
  const std::size_t bs2 = bs_ * bs_;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      if (col_[k] < bi) continue;  // lower half: the stored mirror's copy
      out.col_.push_back(col_[k]);
      const double* tile = block(k);
      out.val_.insert(out.val_.end(), tile, tile + bs2);
    }
    out.row_ptr_[bi + 1] = out.col_.size();
  }
  out.refingerprint();
  return out;
}

BlockSparseMatrix BlockSparseMatrix::to_full() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "to_full: convert fp32 payloads to fp64 first");
  if (!sym_) return *this;
  if (!uniform_blocks()) {
    BlockSparseMatrix out(dims_, false);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      out.row_ptr_[bi + 1] += row_ptr_[bi + 1] - row_ptr_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] != bi) ++out.row_ptr_[col_[k] + 1];
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      out.row_ptr_[bi + 1] += out.row_ptr_[bi];
    }
    const std::size_t nblocks = out.row_ptr_[nb_];
    out.col_.resize(nblocks);
    // Pattern passes first (mirror then direct, same ordering as the
    // uniform path so every row comes out sorted) ...
    std::vector<std::size_t> fill(out.row_ptr_.begin(),
                                  out.row_ptr_.end() - 1);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] == bi) continue;
        out.col_[fill[col_[k]]++] = static_cast<std::uint32_t>(bi);
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        out.col_[fill[bi]++] = col_[k];
      }
    }
    // ... then the per-tile value offsets the fills scatter through.
    out.val_ptr_.assign(nblocks + 1, 0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = out.row_ptr_[bi]; k < out.row_ptr_[bi + 1]; ++k) {
        out.val_ptr_[k + 1] =
            static_cast<std::size_t>(dims_[bi]) * dims_[out.col_[k]];
      }
    }
    for (std::size_t k = 0; k < nblocks; ++k) {
      out.val_ptr_[k + 1] += out.val_ptr_[k];
    }
    out.val_.assign(out.val_ptr_[nblocks], 0.0);
    fill.assign(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        if (bj == bi) continue;
        const std::size_t dj = dims_[bj];
        const std::size_t slot = fill[bj]++;
        const double* tile = block(k);
        double* dst = out.val_.data() + out.val_ptr_[slot];
        for (std::size_t r = 0; r < di; ++r) {
          for (std::size_t c = 0; c < dj; ++c) {
            dst[di * c + r] = tile[dj * r + c];
          }
        }
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t sz = di * dims_[col_[k]];
        const std::size_t slot = fill[bi]++;
        const double* tile = block(k);
        std::copy(tile, tile + sz,
                  out.val_.begin() +
                      static_cast<std::ptrdiff_t>(out.val_ptr_[slot]));
      }
    }
    out.refingerprint();
    return out;
  }
  BlockSparseMatrix out(n_, bs_, false);
  const std::size_t bs2 = bs_ * bs_;
  // Count: each stored tile lands in its own row, off-diagonal tiles also
  // mirror into row J.
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    out.row_ptr_[bi + 1] += row_ptr_[bi + 1] - row_ptr_[bi];
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      if (col_[k] != bi) ++out.row_ptr_[col_[k] + 1];
    }
  }
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    out.row_ptr_[bi + 1] += out.row_ptr_[bi];
  }
  const std::size_t nblocks = out.row_ptr_[nb_];
  out.col_.resize(nblocks);
  out.val_.assign(nblocks * bs2, 0.0);
  std::vector<std::size_t> fill(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  // Mirror pass first: for target row J the mirrored columns are all < J
  // and arrive in ascending source-row order, then the direct pass appends
  // columns >= J in stored order, so every row comes out sorted.
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      if (bj == bi) continue;
      const std::size_t slot = fill[bj]++;
      out.col_[slot] = static_cast<std::uint32_t>(bi);
      const double* tile = block(k);
      double* dst = out.val_.data() + bs2 * slot;
      for (std::size_t r = 0; r < bs_; ++r) {
        for (std::size_t c = 0; c < bs_; ++c) {
          dst[bs_ * c + r] = tile[bs_ * r + c];
        }
      }
    }
  }
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t slot = fill[bi]++;
      out.col_[slot] = col_[k];
      const double* tile = block(k);
      std::copy(tile, tile + bs2, out.val_.begin() +
                                      static_cast<std::ptrdiff_t>(bs2 * slot));
    }
  }
  out.refingerprint();
  return out;
}

std::size_t BlockSparseMatrix::logical_block_count() const {
  if (!sym_) return block_count();
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    // Columns are sorted and >= bi, so a diagonal tile is first in its row.
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) ++diag;
  }
  return 2 * block_count() - diag;
}

std::size_t BlockSparseMatrix::logical_nnz() const {
  if (uniform_blocks()) return logical_block_count() * bs_ * bs_;
  if (!sym_) return val_.size();
  // Half storage: every stored entry mirrors except those of diagonal
  // tiles.
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) {
      diag += static_cast<std::size_t>(dims_[bi]) * dims_[bi];
    }
  }
  return 2 * val_.size() - diag;
}

std::size_t BlockSparseMatrix::block_index_of(std::size_t i) const {
  const auto it = std::upper_bound(offs_.begin(), offs_.end(), i);
  return static_cast<std::size_t>(it - offs_.begin()) - 1;
}

const double* BlockSparseMatrix::find_block(std::size_t bi,
                                            std::size_t bj) const {
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(bj));
  if (it == end || *it != bj) return nullptr;
  return block(static_cast<std::size_t>(it - col_.begin()));
}

std::size_t BlockSparseMatrix::find_block_index(std::size_t bi,
                                                std::size_t bj) const {
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(bj));
  if (it == end || *it != bj) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - col_.begin());
}

void BlockSparseMatrix::convert_precision(TilePrecision p) {
  if (p == prec_) return;
  if (p == TilePrecision::kF32) {
    val32_.resize(val_.size());
    for (std::size_t q = 0; q < val_.size(); ++q) {
      val32_[q] = static_cast<float>(val_[q]);
    }
    val_.clear();  // capacity retained for the promotion back to fp64
  } else {
    val_.resize(val32_.size());
    for (std::size_t q = 0; q < val32_.size(); ++q) {
      val_[q] = static_cast<double>(val32_[q]);
    }
    val32_.clear();  // capacity retained for the next demotion
  }
  prec_ = p;
}

BlockSparseMatrix BlockSparseMatrix::to_precision(TilePrecision p) const {
  BlockSparseMatrix out = *this;
  out.convert_precision(p);
  return out;
}

double BlockSparseMatrix::get(std::size_t i, std::size_t j) const {
  if (prec_ == TilePrecision::kF32) {
    std::size_t bi, bj, r, c;
    if (uniform_blocks()) {
      bi = i / bs_;
      bj = j / bs_;
      r = i % bs_;
      c = j % bs_;
    } else {
      bi = block_index_of(i);
      bj = block_index_of(j);
      r = i - offs_[bi];
      c = j - offs_[bj];
    }
    // Half storage: a lower-triangle query reads the stored mirror through
    // the symmetry A[i][j] == A[j][i].
    if (sym_ && bj < bi) {
      std::swap(bi, bj);
      std::swap(r, c);
    }
    const std::size_t k = find_block_index(bi, bj);
    if (k == static_cast<std::size_t>(-1)) return 0.0;
    const std::size_t dj = row_dim(bj);
    return static_cast<double>(block_f32(k)[dj * r + c]);
  }
  if (!uniform_blocks()) {
    std::size_t bi = block_index_of(i);
    std::size_t bj = block_index_of(j);
    std::size_t r = i - offs_[bi];
    std::size_t c = j - offs_[bj];
    // Half storage: a lower-triangle query reads the stored mirror through
    // the symmetry A[i][j] == A[j][i].
    if (sym_ && bj < bi) {
      std::swap(bi, bj);
      std::swap(r, c);
    }
    const double* tile = find_block(bi, bj);
    if (tile == nullptr) return 0.0;
    return tile[dims_[bj] * r + c];
  }
  std::size_t r = i, c = j;
  // Half storage: a lower-triangle query reads the stored mirror through
  // the symmetry A[i][j] == A[j][i].
  if (sym_ && j / bs_ < i / bs_) std::swap(r, c);
  const double* tile = find_block(r / bs_, c / bs_);
  if (tile == nullptr) return 0.0;
  return tile[bs_ * (r % bs_) + (c % bs_)];
}

double BlockSparseMatrix::trace() const {
  if (prec_ == TilePrecision::kF32) {
    // fp32 payloads, fp64 accumulation: the purification loop's trace-based
    // coefficients and convergence tests stay fp64 quantities even while
    // the tiles are demoted.  Serial over rows, so thread-count invariant
    // trivially.
    double t = 0.0;
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t k = find_block_index(bi, bi);
      if (k == static_cast<std::size_t>(-1)) continue;
      const float* tile = block_f32(k);
      const std::size_t d = row_dim(bi);
      for (std::size_t a = 0; a < d; ++a) {
        t += static_cast<double>(tile[d * a + a]);
      }
    }
    return t;
  }
  double t = 0.0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const double* tile = find_block(bi, bi);
    if (tile == nullptr) continue;
    const std::size_t d = row_dim(bi);
    for (std::size_t a = 0; a < d; ++a) t += tile[d * a + a];
  }
  return t;
}

double BlockSparseMatrix::trace_of_product(const BlockSparseMatrix& b) const {
  TBMD_REQUIRE(layout_matches(b), "trace_of_product: size/block mismatch");
  TBMD_REQUIRE(sym_ == b.sym_, "trace_of_product: storage-mode mismatch");
  TBMD_REQUIRE(prec_ == TilePrecision::kF64 &&
                   b.prec_ == TilePrecision::kF64,
               "trace_of_product: fp64 operands only (the band-energy "
               "contraction runs after the mixed loop promotes)");
  // Per-block-row partials are filled in parallel (each slot written by
  // exactly one row) and summed serially in row order, so the trace is
  // bit-identical at any OMP_NUM_THREADS.  A reduction(+) clause would
  // group terms by thread and change the rounding with the team size.
  std::vector<double> row_t(nb_, 0.0);
  [[maybe_unused]] const bool par = nb_ > 64;
  if (sym_) {
    // Single upper-half pass.  With implicit mirrors A_JI = A_IJ^T the two
    // off-diagonal contributions tr(A_IJ B_JI) + tr(A_JI B_IJ) both reduce
    // to the elementwise dot <A_IJ, B_IJ>, hence the factor 2; diagonal
    // tiles contribute the plain tr(A_II B_II).
#pragma omp parallel for schedule(static) if (par)
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = row_dim(bi);
      double tr = 0.0;
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        const double* ta = block(k);
        const double* tb = b.find_block(bi, bj);
        if (tb == nullptr) continue;
        double s = 0.0;
        if (bj == bi) {
          for (std::size_t a = 0; a < di; ++a) {
            for (std::size_t c = 0; c < di; ++c) {
              s += ta[di * a + c] * tb[di * c + a];
            }
          }
        } else {
          const std::size_t sz = di * row_dim(bj);
          for (std::size_t q = 0; q < sz; ++q) s += ta[q] * tb[q];
          s *= 2.0;
        }
        tr += s;
      }
      row_t[bi] = tr;
    }
  } else {
#pragma omp parallel for schedule(static) if (par)
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = row_dim(bi);
      double tr = 0.0;
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t dj = row_dim(col_[k]);
        const double* ta = block(k);
        const double* tb = b.find_block(col_[k], bi);
        if (tb == nullptr) continue;
        // sum_ab A_IJ[a,b] * B_JI[b,a]
        double s = 0.0;
        for (std::size_t a = 0; a < di; ++a) {
          for (std::size_t c = 0; c < dj; ++c) {
            s += ta[dj * a + c] * tb[di * c + a];
          }
        }
        tr += s;
      }
      row_t[bi] = tr;
    }
  }
  double t = 0.0;
  for (std::size_t bi = 0; bi < nb_; ++bi) t += row_t[bi];
  return t;
}

template <class T>
void BlockSparseMatrix::assemble_staged(std::size_t n, std::size_t bs,
                                        const std::vector<std::uint32_t>& dims,
                                        BsrWorkspace& ws,
                                        BlockSparseMatrix& out,
                                        bool symmetric_half) {
  const bool var = !dims.empty();
  const std::size_t nb = var ? dims.size() : n / bs;
  std::vector<std::vector<T>>& rows = staging_rows<T>(ws);
  TBMD_REQUIRE(ws.row_cols.size() >= nb && rows.size() >= nb,
               "bsr_assemble: workspace rows missing");
  // A reused output may carry another layout or the other precision's
  // payloads from a previous life.
  out.n_ = n;
  out.bs_ = var ? 0 : bs;
  out.max_bs_ = var ? *std::max_element(dims.begin(), dims.end()) : bs;
  out.nb_ = nb;
  out.sym_ = symmetric_half;
  out.dims_ = dims;
  out.offs_.clear();
  out.val_ptr_.clear();
  std::vector<T>* payload;
  if constexpr (std::is_same_v<T, float>) {
    out.val_.clear();
    out.prec_ = TilePrecision::kF32;
    payload = &out.val32_;
  } else {
    out.val32_.clear();
    out.prec_ = TilePrecision::kF64;
    payload = &out.val_;
  }
  out.row_ptr_.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.row_ptr_[bi + 1] = out.row_ptr_[bi] + ws.row_cols[bi].size();
  }
  const std::size_t nblocks = out.row_ptr_[nb];
  out.col_.resize(nblocks);
  if (var) {
    out.offs_.resize(nb + 1);
    out.offs_[0] = 0;
    out.val_ptr_.assign(nblocks + 1, 0);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      out.offs_[bi + 1] = out.offs_[bi] + dims[bi];
      std::size_t k = out.row_ptr_[bi];
      for (const std::uint32_t bj : ws.row_cols[bi]) {
        out.val_ptr_[k + 1] =
            out.val_ptr_[k] + static_cast<std::size_t>(dims[bi]) * dims[bj];
        ++k;
      }
    }
    payload->resize(out.val_ptr_[nblocks]);
  } else {
    payload->resize(nblocks * bs * bs);
  }
  [[maybe_unused]] const bool par = nb > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t k = out.row_ptr_[bi];
    const std::size_t at = var ? out.val_ptr_[k] : k * bs * bs;
    TBMD_REQUIRE(!var || rows[bi].size() == out.val_ptr_[out.row_ptr_[bi + 1]] - at,
                 "bsr_assemble: staged row size does not match the layout");
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              out.col_.begin() + static_cast<std::ptrdiff_t>(k));
    std::copy(rows[bi].begin(), rows[bi].end(),
              payload->begin() + static_cast<std::ptrdiff_t>(at));
  }
  out.refingerprint();
}

void bsr_assemble(std::size_t n, std::size_t bs, BsrWorkspace& ws,
                  BlockSparseMatrix& out, bool symmetric_half) {
  BlockSparseMatrix::assemble_staged<double>(n, bs, {}, ws, out,
                                             symmetric_half);
}

void bsr_assemble(const std::vector<std::uint32_t>& dims, BsrWorkspace& ws,
                  BlockSparseMatrix& out, bool symmetric_half) {
  TBMD_REQUIRE(!dims.empty(), "bsr_assemble: empty block layout");
  std::size_t n = 0;
  for (const std::uint32_t d : dims) n += d;
  if (dims_uniform(dims)) {
    BlockSparseMatrix::assemble_staged<double>(n, dims.front(), {}, ws, out,
                                               symmetric_half);
  } else {
    BlockSparseMatrix::assemble_staged<double>(n, 0, dims, ws, out,
                                               symmetric_half);
  }
}

namespace {

/// Grow-and-clear the staging rows of tile type T without releasing their
/// capacity.
template <class T>
void reset_staging(BsrWorkspace& ws, std::size_t nb) {
  std::vector<std::vector<T>>& rows = staging_rows<T>(ws);
  if (ws.row_cols.size() < nb) ws.row_cols.resize(nb);
  if (rows.size() < nb) rows.resize(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    ws.row_cols[bi].clear();
    rows[bi].clear();
  }
}

/// Worksharing loop over block rows, called inside a parallel region:
/// whole domains round-robin (`schedule(static, 1)`, so thread t owns the
/// same rows every call) when `dom` is a valid cut list {0, ..., nb},
/// dynamic 8-row chunks otherwise.  Per-row work is the same either way.
template <class F>
inline void for_each_row(const std::vector<std::size_t>& dom, std::size_t nb,
                         F&& row) {
  if (dom.size() > 2 && dom.front() == 0 && dom.back() == nb) {
#pragma omp for schedule(static, 1)
    for (std::size_t d = 0; d < dom.size() - 1; ++d) {
      for (std::size_t bi = dom[d]; bi < dom[d + 1]; ++bi) row(bi);
    }
  } else {
#pragma omp for schedule(dynamic, 8)
    for (std::size_t bi = 0; bi < nb; ++bi) row(bi);
  }
}

/// Mirror-expand a half pattern (nb block rows, row offsets `row_ptr`,
/// sorted columns `cols`, all >= the row) into a full per-row adjacency:
/// for every row the sorted list of neighbors, each entry naming the stored
/// upper-half tile and whether it must be read transposed.  Two passes keep
/// each row sorted without a per-row sort: mirrored neighbors (columns <
/// row, ascending with the source-row scan) first, then the stored row
/// itself (columns >= row, already sorted).
void build_sym_adjacency(std::size_t nb,
                         const std::vector<std::size_t>& row_ptr,
                         const std::vector<std::uint32_t>& cols,
                         BsrWorkspace::SymAdjacency& adj) {
  adj.ptr.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    adj.ptr[bi + 1] += row_ptr[bi + 1] - row_ptr[bi];
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      if (cols[k] != bi) ++adj.ptr[cols[k] + 1];
    }
  }
  for (std::size_t bi = 0; bi < nb; ++bi) adj.ptr[bi + 1] += adj.ptr[bi];
  const std::size_t total = adj.ptr[nb];
  adj.col.resize(total);
  adj.tile.resize(total);
  adj.trans.resize(total);
  adj.fill.assign(adj.ptr.begin(), adj.ptr.end() - 1);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      const std::size_t bj = cols[k];
      if (bj == bi) continue;
      const std::size_t slot = adj.fill[bj]++;
      adj.col[slot] = static_cast<std::uint32_t>(bi);
      adj.tile[slot] = static_cast<std::uint32_t>(k);
      adj.trans[slot] = 1;
    }
  }
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      const std::size_t slot = adj.fill[bi]++;
      adj.col[slot] = cols[k];
      adj.tile[slot] = static_cast<std::uint32_t>(k);
      adj.trans[slot] = 0;
    }
  }
}

/// The mirror-expanded adjacency of `m` from cache slot `adj`, rebuilt
/// only when the slot describes another pattern.
const BsrWorkspace::SymAdjacency& cached_adjacency(
    const BlockSparseMatrix& m, BsrWorkspace::SymAdjacency& adj) {
  const std::uint64_t fp = m.pattern_fingerprint();
  if (!adj.from.matches(fp)) {
    build_sym_adjacency(m.block_rows(), m.row_ptr(), m.cols(), adj);
    adj.from = {fp, true};
  }
  return adj;
}

/// B's word-packed rows for the symbolic phase from its adjacency `adj`,
/// cached on the pattern `adj` describes.  Adjacency columns are sorted,
/// so each row's words come out sorted.
const BsrWorkspace::RowWords& cached_row_words(
    const BsrWorkspace::SymAdjacency& adj, std::size_t nb,
    BsrWorkspace::RowWords& rw) {
  if (rw.from.matches(adj.from.fingerprint)) return rw;
  rw.ptr.assign(nb + 1, 0);
  rw.word.clear();
  rw.mask.clear();
  for (std::size_t bk = 0; bk < nb; ++bk) {
    for (std::size_t u = adj.ptr[bk]; u < adj.ptr[bk + 1]; ++u) {
      const std::uint32_t w = adj.col[u] / 64;
      if (rw.word.size() == rw.ptr[bk] || rw.word.back() != w) {
        rw.word.push_back(w);
        rw.mask.push_back(0);
      }
      rw.mask.back() |= std::uint64_t{1} << (adj.col[u] % 64);
    }
    rw.ptr[bk + 1] = rw.word.size();
  }
  rw.from = adj.from;
  return rw;
}

/// Symbolic phase of the upper-half product C = A * B: block row I of C
/// holds every J >= I reached as I -> K (A's adjacency) -> J (B's word
/// rows).  A row ORs the word lists of its A-neighbours into a per-thread
/// bitmap -- the word holding column I masked down to columns >= I, words
/// before it skipped -- and emits the set bits in ascending order, word by
/// word.  That is the exact atom pattern the atom-level Gustavson loop
/// finds, at O(words) instead of O(atom triples) cost.  Rows are staged in
/// ws.row_cols, then concatenated into `pat`.
void symbolic_phase(std::size_t nb, const BsrWorkspace::SymAdjacency& adj_a,
                    const BsrWorkspace::RowWords& wb, BsrWorkspace& ws,
                    BsrPattern& pat) {
  const std::size_t nwords = (nb + 63) / 64;
  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (ws.sym_bits.size() < nthreads) {
    ws.sym_bits.resize(nthreads);
    ws.sym_words.resize(nthreads);
  }
  if (ws.row_cols.size() < nb) ws.row_cols.resize(nb);
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(par::thread_id());
    std::vector<std::uint64_t>& bits = ws.sym_bits[tid];
    std::vector<std::uint32_t>& words = ws.sym_words[tid];
    if (bits.size() < nwords) bits.assign(nwords, 0);
    for_each_row(ws.domains, nb, [&](std::size_t bi) {
      const std::size_t w0 = bi / 64;
      const std::uint64_t upper = ~std::uint64_t{0} << (bi % 64);
      words.clear();
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const std::size_t qe = wb.ptr[bk + 1];
        std::size_t q = wb.ptr[bk];
        while (q < qe && wb.word[q] < w0) ++q;
        for (; q < qe; ++q) {
          const std::uint32_t w = wb.word[q];
          const std::uint64_t m = w == w0 ? wb.mask[q] & upper : wb.mask[q];
          if (m == 0) continue;
          if (bits[w] == 0) words.push_back(w);
          bits[w] |= m;
        }
      }
      std::sort(words.begin(), words.end());
      std::vector<std::uint32_t>& cols = ws.row_cols[bi];
      cols.clear();
      for (const std::uint32_t w : words) {
        for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
          cols.push_back(64 * w +
                         static_cast<std::uint32_t>(std::countr_zero(m)));
        }
        bits[w] = 0;
      }
    });
  }
  pat.row_ptr.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    pat.row_ptr[bi + 1] = pat.row_ptr[bi] + ws.row_cols[bi].size();
  }
  pat.cols.resize(pat.row_ptr[nb]);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              pat.cols.begin() + static_cast<std::ptrdiff_t>(pat.row_ptr[bi]));
  }
}

/// First adjacency entry of row `bk` with column >= `bi` (the J >= I
/// restriction of the upper-half product sweep).
inline std::size_t adj_lower_bound(const BsrWorkspace::SymAdjacency& adj,
                                   std::size_t bk, std::size_t bi) {
  const auto begin = adj.col.begin() + static_cast<std::ptrdiff_t>(adj.ptr[bk]);
  const auto end =
      adj.col.begin() + static_cast<std::ptrdiff_t>(adj.ptr[bk + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(bi));
  return static_cast<std::size_t>(it - adj.col.begin());
}

/// Block rows per super row of the fp64 SpMM: 8 sp atoms make the 32 x 32
/// super-tiles the panel kernel multiplies.
constexpr std::size_t kSuperRows = 8;
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kUnpacked = std::numeric_limits<std::size_t>::max();

/// Grow `v` to at least n elements, new ones zero, with capacity exactly n:
/// the super-tile buffers are sized by the largest product seen, not by the
/// vector's geometric growth.
inline void grow_exact(std::vector<double>& v, std::size_t n) {
  if (v.size() >= n) return;
  v.reserve(n);
  v.resize(n, 0.0);
}

/// Pack a super-tile dense for the GEMM path?  Yes when its present atom
/// tiles cover at least half of its scalar area; sparser super-tiles keep
/// atom-level products.  Measured on the drop-1e-4 purification products
/// at 512 and 1000 atoms (1 and 4 threads), cutoffs from 0.3 to 0.7 time
/// the same within run-to-run noise, while packing only full super-tiles
/// was up to 1.3x slower (512 atoms, 4 threads).
inline bool dense_enough(std::size_t area, std::size_t rows,
                         std::size_t cols) {
  return 2 * area >= rows * cols;
}

/// Super-row offsets of `b`'s layout and its upper super-tile pattern with
/// the packed offset of every dense super-tile (serial, O(stored tiles);
/// skipped while `st` already describes b's pattern).  The values are
/// packed later, one super row at a time.
void cached_super_tiles(const BlockSparseMatrix& b,
                        BsrWorkspace::SuperTiles& st) {
  if (st.from.matches(b.pattern_fingerprint())) return;
  const std::size_t nb = b.block_rows();
  const std::size_t ns = (nb + kSuperRows - 1) / kSuperRows;
  const std::vector<std::size_t>& row_ptr = b.row_ptr();
  const std::vector<std::uint32_t>& cols = b.cols();
  st.off.resize(ns + 1);
  for (std::size_t s = 0; s < ns; ++s) {
    st.off[s] = b.row_offset(kSuperRows * s);
  }
  st.off[ns] = b.size();
  st.mark.assign(ns, kNoSlot);
  st.ptr.assign(ns + 1, 0);
  st.col.clear();
  for (std::size_t sk = 0; sk < ns; ++sk) {
    const std::size_t first = st.col.size();
    const std::size_t bend = std::min(nb, kSuperRows * (sk + 1));
    for (std::size_t bk = kSuperRows * sk; bk < bend; ++bk) {
      for (std::size_t q = row_ptr[bk]; q < row_ptr[bk + 1]; ++q) {
        const std::size_t sj = cols[q] / kSuperRows;
        if (st.mark[sj] != sk) {
          st.mark[sj] = static_cast<std::uint32_t>(sk);
          st.col.push_back(static_cast<std::uint32_t>(sj));
        }
      }
    }
    std::sort(st.col.begin() + static_cast<std::ptrdiff_t>(first),
              st.col.end());
    st.ptr[sk + 1] = st.col.size();
  }
  // Scalar area of the present atom tiles per super-tile (a mirror pair
  // inside a diagonal super-tile covers two tiles), then packed offsets.
  st.val.assign(st.col.size(), 0);
  for (std::size_t sk = 0; sk < ns; ++sk) {
    const std::size_t bend = std::min(nb, kSuperRows * (sk + 1));
    for (std::size_t bk = kSuperRows * sk; bk < bend; ++bk) {
      std::size_t t = st.ptr[sk];
      for (std::size_t q = row_ptr[bk]; q < row_ptr[bk + 1]; ++q) {
        const std::size_t bj = cols[q];
        const std::size_t sj = bj / kSuperRows;
        while (st.col[t] < sj) ++t;
        const std::size_t area = b.row_dim(bk) * b.row_dim(bj);
        st.val[t] += (sj == sk && bj != bk) ? 2 * area : area;
      }
    }
  }
  std::size_t packed = 0;
  for (std::size_t sk = 0; sk < ns; ++sk) {
    const std::size_t wk = st.off[sk + 1] - st.off[sk];
    for (std::size_t t = st.ptr[sk]; t < st.ptr[sk + 1]; ++t) {
      const std::size_t wj = st.off[st.col[t] + 1] - st.off[st.col[t]];
      if (dense_enough(st.val[t], wk, wj)) {
        st.val[t] = packed;
        packed += wk * wj;
      } else {
        st.val[t] = kUnpacked;
      }
    }
  }
  grow_exact(st.vals, packed);
  build_sym_adjacency(ns, st.ptr, st.col, st.adj);
  st.from = {b.pattern_fingerprint(), true};
}

/// Pack super row `sk` of `b`: every dense upper super-tile becomes a
/// row-major panel, zeros where atom tiles are absent; a diagonal
/// super-tile also receives the implicit mirrors of its off-diagonal tiles.
void pack_super_row(const BlockSparseMatrix& b, BsrWorkspace::SuperTiles& st,
                    std::size_t sk) {
  const std::vector<std::size_t>& row_ptr = b.row_ptr();
  const std::vector<std::uint32_t>& cols = b.cols();
  const std::size_t wk = st.off[sk + 1] - st.off[sk];
  for (std::size_t t = st.ptr[sk]; t < st.ptr[sk + 1]; ++t) {
    if (st.val[t] == kUnpacked) continue;
    const std::size_t wj = st.off[st.col[t] + 1] - st.off[st.col[t]];
    std::fill_n(st.vals.data() + st.val[t], wk * wj, 0.0);
  }
  const std::size_t bend = std::min(b.block_rows(), kSuperRows * (sk + 1));
  for (std::size_t bk = kSuperRows * sk; bk < bend; ++bk) {
    const std::size_t dk = b.row_dim(bk);
    const std::size_t r0 = b.row_offset(bk) - st.off[sk];
    std::size_t t = st.ptr[sk];
    for (std::size_t q = row_ptr[bk]; q < row_ptr[bk + 1]; ++q) {
      const std::size_t bj = cols[q];
      const std::size_t sj = bj / kSuperRows;
      while (st.col[t] < sj) ++t;
      if (st.val[t] == kUnpacked) continue;
      const std::size_t wj = st.off[sj + 1] - st.off[sj];
      const std::size_t dj = b.row_dim(bj);
      const std::size_t c0 = b.row_offset(bj) - st.off[sj];
      double* dst = st.vals.data() + st.val[t];
      const double* tile = b.block(q);
      for (std::size_t r = 0; r < dk; ++r) {
        std::copy_n(tile + dj * r, dj, dst + wj * (r0 + r) + c0);
      }
      if (sj == sk && bj != bk) {
        linalg::transpose_panel(dk, dj, tile, dj, dst + wj * c0 + r0, wj);
      }
    }
  }
}

/// Super row `si` of the upper-half product C = A * B on the frozen output
/// pattern `pat`, into the staging rows ws.row_cols / ws.row_vals.
///
/// Gustavson at super-tile granularity: for every super column SK of A's
/// row panel (ascending) and every super-tile B(SK, SJ) with SJ >= SI, the
/// product C(SI, SJ) += A(SI, SK) B(SK, SJ) runs on the panel kernel when
/// both super-tiles are packed dense (a lower B super-tile is transposed
/// into scratch first).  Every other atom product A_IK B_KJ then runs on
/// the same kernel tile by tile, in the order of the block-row Gustavson
/// sweep.  C holds a row-major super-tile slot only where the pattern has
/// a tile; the gather applies the tile truncation and leaves the C panel
/// all zero again.  A fixed call sequence per super row makes results
/// independent of the thread that runs it.
void multiply_super_row(const BlockSparseMatrix& a, const BlockSparseMatrix& b,
                        const BsrWorkspace::SymAdjacency& adj_a,
                        const BsrWorkspace::SymAdjacency& adj_b,
                        const BsrPattern& pat, double drop_tolerance,
                        double sub_tile_drop, BsrWorkspace& ws,
                        BsrWorkspace::SuperPanel& p, std::size_t si) {
  const BsrWorkspace::SuperTiles& st = ws.super_b;
  const std::size_t nb = a.block_rows();
  const std::size_t i0 = kSuperRows * si;
  const std::size_t i1 = std::min(nb, i0 + kSuperRows);
  const std::size_t m = st.off[si + 1] - st.off[si];
  const std::size_t* const soff = st.off.data();
  const auto width = [soff](std::size_t s) { return soff[s + 1] - soff[s]; };
  // Atom-tile scratch: op(A_IK) and op(B_KJ).  Atom tiles of sp layouts
  // take compile-time-shaped copies and kernel calls.
  const bool sp = a.uniform_blocks() && a.block_size() == 4;
  const std::size_t mbs = a.max_block_size();
  double* const ta = p.t.data();
  double* const tb = ta + mbs * mbs;

  // A's row panel: super columns (ascending), scalar area, and the dense
  // super-tiles packed with op() applied from the mirror-expanded adj_a.
  p.a_cols.clear();
  for (std::size_t ua = adj_a.ptr[i0]; ua < adj_a.ptr[i1]; ++ua) {
    const std::size_t sk = adj_a.col[ua] / kSuperRows;
    if (p.a_slot[sk] == kNoSlot) {
      p.a_slot[sk] = 0;
      p.a_cols.push_back(static_cast<std::uint32_t>(sk));
    }
  }
  std::sort(p.a_cols.begin(), p.a_cols.end());
  p.a_off.assign(p.a_cols.size(), 0);
  for (std::size_t s = 0; s < p.a_cols.size(); ++s) {
    p.a_slot[p.a_cols[s]] = static_cast<std::uint32_t>(s);
  }
  for (std::size_t bi = i0; bi < i1; ++bi) {
    for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
      const std::size_t bk = adj_a.col[ua];
      p.a_off[p.a_slot[bk / kSuperRows]] += a.row_dim(bi) * a.row_dim(bk);
    }
  }
  std::size_t a_size = 0;
  for (std::size_t s = 0; s < p.a_cols.size(); ++s) {
    const std::size_t wk = width(p.a_cols[s]);
    if (dense_enough(p.a_off[s], m, wk)) {
      p.a_off[s] = a_size;
      a_size += m * wk;
    } else {
      p.a_off[s] = kUnpacked;
    }
  }
  grow_exact(p.a, a_size);
  std::fill_n(p.a.data(), a_size, 0.0);
  for (std::size_t bi = i0; bi < i1; ++bi) {
    const std::size_t di = a.row_dim(bi);
    const std::size_t r0 = a.row_offset(bi) - soff[si];
    for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
      const std::size_t bk = adj_a.col[ua];
      const std::size_t sk = bk / kSuperRows;
      const std::size_t off = p.a_off[p.a_slot[sk]];
      if (off == kUnpacked) continue;
      const std::size_t wk = width(sk);
      const std::size_t dk = a.row_dim(bk);
      double* dst = p.a.data() + off + wk * r0 + (a.row_offset(bk) - soff[sk]);
      const double* tile = a.block(adj_a.tile[ua]);
      if (adj_a.trans[ua] != 0) {
        linalg::transpose_panel(dk, di, tile, di, dst, wk);
      } else {
        for (std::size_t r = 0; r < di; ++r) {
          std::copy_n(tile + dk * r, dk, dst + wk * r);
        }
      }
    }
  }

  // C slots: one row-major super-tile per super column holding an
  // output-pattern tile, super column SJ's at offset c_base[SJ].  The panel
  // only grows (with zeros), so it is all zero on entry.
  p.c_cols.clear();
  std::size_t c_size = 0;
  for (std::size_t pp = pat.row_ptr[i0]; pp < pat.row_ptr[i1]; ++pp) {
    const std::size_t sj = pat.cols[pp] / kSuperRows;
    if (p.c_slot[sj] == kNoSlot) {
      p.c_slot[sj] = static_cast<std::uint32_t>(p.c_cols.size());
      p.c_cols.push_back(static_cast<std::uint32_t>(sj));
      p.c_base[sj] = c_size;
      c_size += m * width(sj);
    }
  }
  p.c_dense.assign(p.c_cols.size(), 0);
  grow_exact(p.c, c_size);
  double* const cpanel = p.c.data();
  const std::size_t* const c_base = p.c_base.data();

  // Dense super-tile pairs on the panel kernel.  a_mixed[s] records that
  // B's super row SK also holds unpacked super-tiles, whose atom products
  // remain for the loop below.
  p.a_mixed.assign(p.a_cols.size(), 0);
  for (std::size_t s = 0; s < p.a_cols.size(); ++s) {
    if (p.a_off[s] == kUnpacked) continue;
    const std::size_t sk = p.a_cols[s];
    const std::size_t wk = width(sk);
    const double* ap = p.a.data() + p.a_off[s];
    for (std::size_t ub = adj_lower_bound(st.adj, sk, si);
         ub < st.adj.ptr[sk + 1]; ++ub) {
      const std::size_t sj = st.adj.col[ub];
      const std::size_t packed = st.val[st.adj.tile[ub]];
      const std::uint32_t cs = p.c_slot[sj];
      if (packed == kUnpacked) p.a_mixed[s] = 1;
      if (packed == kUnpacked || cs == kNoSlot) continue;
      const std::size_t wj = width(sj);
      const double* bp = st.vals.data() + packed;
      if (st.adj.trans[ub] != 0) {
        linalg::transpose_panel(wj, wk, bp, wk, p.t.data(), wj);
        bp = p.t.data();
      }
      linalg::gemm_panel_add(m, wk, wj, ap, wk, bp, wj,
                             cpanel + c_base[sj], wj);
      p.c_dense[cs] = 1;
    }
  }

  // The remaining atom products, block row by block row.  Behind a dense
  // A super-tile, a cursor over B's super row SK skips the J whose
  // super-tile B(SK, SJ) the panel kernel already covered (all of them
  // unless a_mixed).
  const std::uint32_t* const bcol = adj_b.col.data();
  const std::uint32_t* const btile = adj_b.tile.data();
  const std::uint8_t* const btrans = adj_b.trans.data();
  const std::uint32_t* const scol = st.adj.col.data();
  const std::uint32_t* const stile = st.adj.tile.data();
  for (std::size_t bi = i0; bi < i1; ++bi) {
    const std::size_t di = a.row_dim(bi);
    const std::size_t r0 = a.row_offset(bi) - soff[si];
    for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
      const std::size_t bk = adj_a.col[ua];
      const std::size_t sk = bk / kSuperRows;
      const std::size_t s = p.a_slot[sk];
      const bool a_dense = p.a_off[s] != kUnpacked;
      if (a_dense && p.a_mixed[s] == 0) continue;
      std::size_t t = st.adj.ptr[sk];
      const std::size_t dk = a.row_dim(bk);
      const double* at = a.block(adj_a.tile[ua]);
      if (adj_a.trans[ua] != 0) {
        linalg::transpose_panel(dk, di, at, di, ta, dk);
        at = ta;
      }
      const std::size_t ue = adj_b.ptr[bk + 1];
      for (std::size_t ub = adj_lower_bound(adj_b, bk, bi); ub < ue; ++ub) {
        const std::size_t bj = bcol[ub];
        const std::size_t sj = bj / kSuperRows;
        if (a_dense) {
          while (scol[t] < sj) ++t;
          if (st.val[stile[t]] != kUnpacked) continue;
        }
        const std::size_t dj = b.row_dim(bj);
        const double* bt = b.block(btile[ub]);
        if (btrans[ub] != 0) {
          linalg::transpose_panel(dj, dk, bt, dk, tb, dj);
          bt = tb;
        }
        const std::size_t wj = width(sj);
        double* c =
            cpanel + c_base[sj] + wj * r0 + (b.row_offset(bj) - soff[sj]);
        if (sp) {
          linalg::detail::panel_add(4, 4, 4, at, 4, bt, 4, c, wj);
        } else {
          linalg::gemm_panel_add(di, dk, dj, at, dk, bt, dj, c, wj);
        }
      }
    }
  }

  // Gather the pattern tiles with the tile truncation, zeroing what was
  // read; GEMM-written slots are zeroed whole (their off-pattern entries
  // included) so the panel is all zero for the next super row.
  for (std::size_t bi = i0; bi < i1; ++bi) {
    const std::size_t di = a.row_dim(bi);
    const std::size_t r0 = a.row_offset(bi) - soff[si];
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals[bi];
    const std::size_t pe = pat.row_ptr[bi + 1];
    cols.reserve(pe - pat.row_ptr[bi]);
    for (std::size_t pp = pat.row_ptr[bi]; pp < pe; ++pp) {
      const std::uint32_t bj = pat.cols[pp];
      const std::size_t sj = bj / kSuperRows;
      const std::size_t wj = width(sj);
      const std::size_t dj = a.row_dim(bj);
      const std::size_t sz = di * dj;
      const bool zero = p.c_dense[p.c_slot[sj]] == 0;
      double* src =
          cpanel + c_base[sj] + wj * r0 + (a.row_offset(bj) - soff[sj]);
      // Stage the tile at the end of the row (rolled back if dropped).
      const std::size_t at = vals.size();
      vals.resize(at + sz);
      double* tile = vals.data() + at;
      if (sp) {
        for (std::size_t r = 0; r < 4; ++r) {
          std::copy_n(src + wj * r, 4, tile + 4 * r);
          if (zero) std::fill_n(src + wj * r, 4, 0.0);
        }
      } else {
        for (std::size_t r = 0; r < di; ++r) {
          std::copy_n(src + wj * r, dj, tile + dj * r);
          if (zero) std::fill_n(src + wj * r, dj, 0.0);
        }
      }
      if (keep_staged_tile(tile, di, dj, a.uniform_blocks(), bj == bi,
                           drop_tolerance, sub_tile_drop)) {
        cols.push_back(bj);
      } else {
        vals.resize(at);
      }
    }
  }
  for (std::size_t s = 0; s < p.c_cols.size(); ++s) {
    const std::size_t sj = p.c_cols[s];
    if (p.c_dense[s] != 0) {
      std::fill_n(cpanel + c_base[sj], m * width(sj), 0.0);
    }
    p.c_slot[sj] = kNoSlot;
  }
  for (const std::uint32_t sk : p.a_cols) p.a_slot[sk] = kNoSlot;
}

}  // namespace

void BsrWorkspace::shrink(const BsrShrinkPolicy& policy) {
  const std::size_t nb = policy.block_rows;
  const std::size_t bs2 = policy.block_size * policy.block_size;
  if (row_cols.size() > nb) row_cols.resize(nb);
  if (row_vals.size() > nb) row_vals.resize(nb);
  if (row_vals32.size() > nb) row_vals32.resize(nb);
  for (auto& r : row_cols) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& r : row_vals) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& r : row_vals32) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& a : acc32) {
    if (a.size() > nb * bs2) a.resize(nb * bs2);
    a.shrink_to_fit();
  }
  for (auto& b : sym_bits) {
    if (b.size() > (nb + 63) / 64) b.resize((nb + 63) / 64);
    b.shrink_to_fit();
  }
  for (auto& w : sym_words) {
    w.clear();
    w.shrink_to_fit();
  }
  // The cached operand structure is dropped outright (and with it its
  // pattern tags); it is rebuilt on the next product.
  adj_a = SymAdjacency{};
  adj_b = SymAdjacency{};
  words_b = RowWords{};
  super_b = SuperTiles{};
  panels.clear();
  panels.shrink_to_fit();
  // Stale domain cuts would reference rows beyond the shrunk system; the
  // owner re-derives them per step anyway.
  domains.clear();
  domains.shrink_to_fit();
}

std::size_t BsrWorkspace::footprint_bytes() const {
  std::size_t total = 0;
  const auto vec = [&total](const auto& v) {
    total += v.capacity() * sizeof(v[0]);
  };
  const auto nested = [&total, &vec](const auto& outer) {
    total += outer.capacity() * sizeof(outer[0]);
    for (const auto& inner : outer) vec(inner);
  };
  nested(row_cols);
  nested(row_vals);
  nested(row_vals32);
  nested(acc32);
  nested(sym_bits);
  nested(sym_words);
  for (const auto* adj : {&adj_a, &adj_b, &super_b.adj}) {
    vec(adj->ptr);
    vec(adj->col);
    vec(adj->tile);
    vec(adj->trans);
    vec(adj->fill);
  }
  vec(words_b.ptr);
  vec(words_b.word);
  vec(words_b.mask);
  vec(super_b.off);
  vec(super_b.ptr);
  vec(super_b.col);
  vec(super_b.val);
  vec(super_b.vals);
  vec(super_b.mark);
  total += panels.capacity() * sizeof(SuperPanel);
  for (const SuperPanel& p : panels) {
    vec(p.a);
    vec(p.c);
    vec(p.t);
    vec(p.a_slot);
    vec(p.c_slot);
    vec(p.a_cols);
    vec(p.c_cols);
    vec(p.a_off);
    vec(p.c_base);
    vec(p.a_mixed);
    vec(p.c_dense);
  }
  vec(domains);
  return total;
}

template <class T>
void BlockSparseMatrix::combine_sweep(double alpha, const BlockSparseMatrix& b,
                                      double beta, const BlockSparseMatrix* c,
                                      double gamma, double drop_tolerance,
                                      double sub_tile_drop,
                                      BlockSparseMatrix& out,
                                      BsrWorkspace& ws) const {
  // Per block row, one merge over the union of the operand patterns.  The
  // first combination is staged at the end of the output row and truncated
  // in place; with a third operand the second combination then runs on the
  // staged tile, exactly as the two-pass composition would read it back.
  reset_staging<T>(ws, nb_);
  std::vector<std::vector<T>>& rows = staging_rows<T>(ws);
  const bool uniform = uniform_blocks();
  const std::size_t none = std::numeric_limits<std::size_t>::max();
  // The composition's second pass scales tmp by 1.0 at run time.  Read it
  // through a volatile so the compiler cannot fold that product: folded,
  // the fp32 sum would contract into a different fused multiply-add and
  // round differently.
  const double one = kRuntimeOne;
#pragma omp parallel for schedule(static) if (nb_ > 64)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    auto& cols = ws.row_cols[bi];
    auto& vals = rows[bi];
    std::size_t ka = row_ptr_[bi], kb = b.row_ptr_[bi];
    const std::size_t ea = row_ptr_[bi + 1], eb = b.row_ptr_[bi + 1];
    std::size_t kc = c != nullptr ? c->row_ptr_[bi] : 0;
    const std::size_t ec = c != nullptr ? c->row_ptr_[bi + 1] : 0;
    while (ka < ea || kb < eb || kc < ec) {
      std::size_t next = none;
      if (ka < ea) next = col_[ka];
      if (kb < eb) next = std::min<std::size_t>(next, b.col_[kb]);
      if (kc < ec) next = std::min<std::size_t>(next, c->col_[kc]);
      const auto bj = static_cast<std::uint32_t>(next);
      const T* ta = ka < ea && col_[ka] == bj ? tile_of<T>(*this, ka++)
                                              : nullptr;
      const T* tb = kb < eb && b.col_[kb] == bj ? tile_of<T>(b, kb++)
                                                : nullptr;
      const T* tc = kc < ec && c->col_[kc] == bj ? tile_of<T>(*c, kc++)
                                                 : nullptr;
      const std::size_t dj = row_dim(bj);
      const std::size_t at = vals.size();
      vals.resize(at + di * dj);
      T* tile = vals.data() + at;
      bool keep = false;
      if (ta != nullptr || tb != nullptr) {
        combine_tile(alpha, ta, beta, tb, di * dj, tile);
        keep = keep_staged_tile(tile, di, dj, uniform, bj == bi,
                                drop_tolerance, sub_tile_drop);
      }
      if (c != nullptr && (keep || tc != nullptr)) {
        combine_tile(one, keep ? tile : nullptr, gamma, tc, di * dj, tile);
        keep = keep_staged_tile(tile, di, dj, uniform, bj == bi,
                                drop_tolerance, sub_tile_drop);
      }
      if (keep) {
        cols.push_back(bj);
      } else {
        vals.resize(at);  // rejected: roll the staged tile back
      }
    }
  }
  assemble_staged<T>(n_, bs_, dims_, ws, out, sym_);
}

void BlockSparseMatrix::combine_into(double alpha, const BlockSparseMatrix& b,
                                     double beta, double drop_tolerance,
                                     BlockSparseMatrix& out, BsrWorkspace& ws,
                                     double sub_tile_drop) const {
  TBMD_REQUIRE(layout_matches(b), "combine: size/block mismatch");
  TBMD_REQUIRE(sym_ == b.sym_, "combine: storage-mode mismatch");
  TBMD_REQUIRE(prec_ == b.prec_, "combine: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "combine_into: output must not alias an operand");
  if (prec_ == TilePrecision::kF32) {
    combine_sweep<float>(alpha, b, beta, nullptr, 0.0, drop_tolerance,
                         sub_tile_drop, out, ws);
  } else {
    combine_sweep<double>(alpha, b, beta, nullptr, 0.0, drop_tolerance,
                          sub_tile_drop, out, ws);
  }
}

void BlockSparseMatrix::combine3_into(double alpha, const BlockSparseMatrix& b,
                                      double beta, const BlockSparseMatrix& c,
                                      double gamma, double drop_tolerance,
                                      BlockSparseMatrix& out,
                                      BsrWorkspace& ws) const {
  TBMD_REQUIRE(layout_matches(b) && layout_matches(c),
               "combine3: size/block mismatch");
  TBMD_REQUIRE(sym_ == b.sym_ && sym_ == c.sym_,
               "combine3: storage-mode mismatch");
  TBMD_REQUIRE(prec_ == b.prec_ && prec_ == c.prec_,
               "combine3: tile-precision mismatch");
  if (prec_ == TilePrecision::kF32) {
    combine_sweep<float>(alpha, b, beta, &c, gamma, drop_tolerance, 0.0,
                         out, ws);
  } else {
    combine_sweep<double>(alpha, b, beta, &c, gamma, drop_tolerance, 0.0,
                          out, ws);
  }
}

BlockSparseMatrix BlockSparseMatrix::combine(double alpha,
                                             const BlockSparseMatrix& b,
                                             double beta,
                                             double drop_tolerance) const {
  BlockSparseMatrix out;
  BsrWorkspace ws;
  combine_into(alpha, b, beta, drop_tolerance, out, ws);
  return out;
}

void BlockSparseMatrix::multiply_sym_into(const BlockSparseMatrix& b,
                                          double drop_tolerance,
                                          BlockSparseMatrix& out,
                                          BsrWorkspace& ws,
                                          BsrPattern* pattern,
                                          double sub_tile_drop,
                                          bool simd) const {
  TBMD_REQUIRE(layout_matches(b), "multiply_sym: size/block mismatch");
  TBMD_REQUIRE(sym_ && b.sym_,
               "multiply_sym: operands must be symmetric-half");
  TBMD_REQUIRE(prec_ == b.prec_, "multiply_sym: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "multiply_sym_into: output must not alias an operand");
  // Mirror-expanded operand adjacencies, cached on the operand patterns: A
  // reads B's slot whenever the two patterns agree (always when squaring).
  const BsrWorkspace::SymAdjacency& adj_b = cached_adjacency(b, ws.adj_b);
  const BsrWorkspace::SymAdjacency& adj_a =
      b.pattern_fingerprint_ == pattern_fingerprint_
          ? adj_b
          : cached_adjacency(*this, ws.adj_a);

  // Symbolic phase (structure only, shared by both precisions), skipped
  // when the cached pattern still matches both operand fingerprints.
  BsrPattern local;
  BsrPattern& pat = pattern != nullptr ? *pattern : local;
  if (pat.valid && pat.a_fingerprint == pattern_fingerprint_ &&
      pat.b_fingerprint == b.pattern_fingerprint_) {
    ++ws.stats.numeric_reuses;
  } else {
    ++ws.stats.symbolic_builds;
    symbolic_phase(nb_, adj_a, cached_row_words(adj_b, nb_, ws.words_b), ws,
                   pat);
    pat.a_fingerprint = pattern_fingerprint_;
    pat.b_fingerprint = b.pattern_fingerprint_;
    pat.valid = true;
  }
  if (prec_ == TilePrecision::kF32) {
    multiply_sym_f32_into(b, adj_a, adj_b, pat, drop_tolerance, sub_tile_drop,
                          simd, out, ws);
    return;
  }

  // Numeric phase on the (frozen or just-built) pattern: identical sweep
  // either way, so warm results are bit-identical to cold ones.  Truncation
  // prunes against the pattern during the gather; the pattern itself stays
  // frozen (it describes the un-truncated product of the operand
  // patterns).  One parallel region: B's dense super-tiles are packed, then
  // super rows are handed out dynamically in order -- the upper triangle
  // makes the first super rows the longest, so they start first.
  reset_staging<double>(ws, nb_);
  cached_super_tiles(b, ws.super_b);
  const std::vector<std::size_t>& soff = ws.super_b.off;
  const std::size_t ns = soff.size() - 1;
  std::size_t widest = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    widest = std::max(widest, soff[s + 1] - soff[s]);
  }
  const std::size_t scratch = std::max(widest * widest, 2 * max_bs_ * max_bs_);
  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (ws.panels.size() < nthreads) ws.panels.resize(nthreads);
#pragma omp parallel
  {
    BsrWorkspace::SuperPanel& p =
        ws.panels[static_cast<std::size_t>(par::thread_id())];
    if (p.a_slot.size() < ns) {
      p.a_slot.resize(ns, kNoSlot);
      p.c_slot.resize(ns, kNoSlot);
      p.c_base.resize(ns);
    }
    grow_exact(p.t, scratch);
#pragma omp for schedule(dynamic, 1)
    for (std::size_t sk = 0; sk < ns; ++sk) {
      pack_super_row(b, ws.super_b, sk);
    }
#pragma omp for schedule(dynamic, 1)
    for (std::size_t si = 0; si < ns; ++si) {
      multiply_super_row(*this, b, adj_a, adj_b, pat, drop_tolerance,
                         sub_tile_drop, ws, p, si);
    }
  }
  assemble_staged<double>(n_, bs_, dims_, ws, out, true);
}

void BlockSparseMatrix::multiply_sym_f32_into(
    const BlockSparseMatrix& b, const BsrWorkspace::SymAdjacency& adj_a,
    const BsrWorkspace::SymAdjacency& adj_b, const BsrPattern& pat,
    double drop_tolerance, double sub_tile_drop, bool simd,
    BlockSparseMatrix& out, BsrWorkspace& ws) const {
  // The fp32 numeric phase (preconditions, adjacencies and pattern come
  // from multiply_sym_into): the same adjacency walk and frozen-pattern
  // gather as the fp64 sweep, with per-row determinism (per-tile products
  // are sequential within a row, so results are bit-identical at any
  // thread count for a given binary), but tiles, accumulators and staging
  // are fp32: half the memory traffic exactly where the numeric phase is
  // bandwidth-bound.  `simd` routes tile products through the lane-vector
  // f32 kernels (default) or the generic reference loop (the NumericsSpec
  // A/B switch).
  const std::size_t bs2 = max_bs_ * max_bs_;  // accumulator tile stride
  const bool var = !uniform_blocks();
  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (ws.acc32.size() < nthreads) ws.acc32.resize(nthreads);

  // Numeric phase on the (frozen or just-built) pattern, fp32 throughout;
  // truncation thresholds stay fp64 quantities.
  reset_staging<float>(ws, nb_);
  const auto numeric_row = [&](std::size_t bi, std::vector<float>& acc)
      __attribute__((always_inline)) {
    const std::size_t di = row_dim(bi);
    if (simd && !var && bs_ == 4) {
      // Dedicated sp-block sweep: the three-way kernel dispatch is hoisted
      // out of the product loop, and a transposed A tile is repacked once
      // per adjacency entry instead of strided-read once per product.
      // Repacking moves values without reordering any output element's
      // k-accumulation, so results stay bit-identical to the generic walk.
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const float* ta = block_f32(adj_a.tile[ua]);
        float at[16];
        if (adj_a.trans[ua] != 0) {
          for (std::size_t r = 0; r < 4; ++r) {
            for (std::size_t q = 0; q < 4; ++q) at[4 * r + q] = ta[4 * q + r];
          }
          ta = at;
        }
        for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
             ub < adj_b.ptr[bk + 1]; ++ub) {
          const std::uint32_t bj = adj_b.col[ub];
          linalg::detail::micro_add_square_f32<4>(
              false, adj_b.trans[ub] != 0, ta, b.block_f32(adj_b.tile[ub]),
              acc.data() + 16 * bj);
        }
      }
    } else {
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const std::size_t dk = row_dim(bk);
        const float* ta = block_f32(adj_a.tile[ua]);
        const bool trans_a = adj_a.trans[ua] != 0;
        for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
             ub < adj_b.ptr[bk + 1]; ++ub) {
          const std::uint32_t bj = adj_b.col[ub];
          if (!simd) {
            linalg::tile_add_rect_f32_ref(
                di, dk, row_dim(bj), trans_a, adj_b.trans[ub] != 0, ta,
                b.block_f32(adj_b.tile[ub]), acc.data() + bs2 * bj);
          } else if (var) {
            linalg::tile_add_rect_f32(di, dk, row_dim(bj), trans_a,
                                      adj_b.trans[ub] != 0, ta,
                                      b.block_f32(adj_b.tile[ub]),
                                      acc.data() + bs2 * bj);
          } else {
            linalg::tile_add_t_f32(bs_, trans_a, adj_b.trans[ub] != 0, ta,
                                   b.block_f32(adj_b.tile[ub]),
                                   acc.data() + bs2 * bj);
          }
        }
      }
    }
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals32[bi];
    const std::size_t pe = pat.row_ptr[bi + 1];
    cols.reserve(pe - pat.row_ptr[bi]);
    for (std::size_t pp = pat.row_ptr[bi]; pp < pe; ++pp) {
      const std::uint32_t bj = pat.cols[pp];
      float* tile = acc.data() + bs2 * bj;
      const std::size_t sz = di * row_dim(bj);
      if (keep_staged_tile(tile, di, row_dim(bj), !var, bj == bi,
                           drop_tolerance, sub_tile_drop)) {
        cols.push_back(bj);
        vals.insert(vals.end(), tile, tile + sz);
      }
      std::fill(tile, tile + sz, 0.0f);
    }
  };
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(par::thread_id());
    std::vector<float>& acc = ws.acc32[tid];
    if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, 0.0f);
    for_each_row(ws.domains, nb_,
                 [&](std::size_t bi) { numeric_row(bi, acc); });
  }
  assemble_staged<float>(n_, bs_, dims_, ws, out, true);
}

linalg::SpectralBounds BlockSparseMatrix::gershgorin_bounds() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "gershgorin_bounds: fp64 payloads only (H is never demoted)");
  if (sym_) {
    // Upper-half pass: an off-diagonal tile (I, J) contributes its row
    // sums to the radii of block row I and -- through the implicit mirror
    // A_JI = A_IJ^T -- its column sums to the radii of block row J.
    std::vector<double> diag(n_, 0.0), radius(n_, 0.0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = row_dim(bi);
      const std::size_t oi = row_offset(bi);
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        const std::size_t dj = row_dim(bj);
        const std::size_t oj = row_offset(bj);
        const double* tile = block(k);
        for (std::size_t r = 0; r < di; ++r) {
          for (std::size_t c = 0; c < dj; ++c) {
            const double v = tile[dj * r + c];
            if (bj == bi) {
              if (c == r) {
                diag[oi + r] = v;
              } else {
                radius[oi + r] += std::fabs(v);
              }
            } else {
              radius[oi + r] += std::fabs(v);
              radius[oj + c] += std::fabs(v);
            }
          }
        }
      }
    }
    linalg::SpectralBounds bounds;
    for (std::size_t i = 0; i < n_; ++i) {
      const double lo = diag[i] - radius[i];
      const double hi = diag[i] + radius[i];
      if (i == 0) {
        bounds.lo = lo;
        bounds.hi = hi;
      } else {
        bounds.lo = std::min(bounds.lo, lo);
        bounds.hi = std::max(bounds.hi, hi);
      }
    }
    return bounds;
  }
  linalg::SpectralBounds bounds;
  bool first = true;
  std::vector<double> diag(max_bs_), radius(max_bs_);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    std::fill(diag.begin(), diag.end(), 0.0);
    std::fill(radius.begin(), radius.end(), 0.0);
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const std::size_t dj = row_dim(bj);
      const double* tile = block(k);
      for (std::size_t r = 0; r < di; ++r) {
        for (std::size_t c = 0; c < dj; ++c) {
          const double v = tile[dj * r + c];
          if (bj == bi && c == r) {
            diag[r] = v;
          } else {
            radius[r] += std::fabs(v);
          }
        }
      }
    }
    for (std::size_t r = 0; r < di; ++r) {
      const double lo = diag[r] - radius[r];
      const double hi = diag[r] + radius[r];
      if (first) {
        bounds.lo = lo;
        bounds.hi = hi;
        first = false;
      } else {
        bounds.lo = std::min(bounds.lo, lo);
        bounds.hi = std::max(bounds.hi, hi);
      }
    }
  }
  return bounds;
}

}  // namespace tbmd::onx
