#include "src/linalg/blocked_tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/linalg/panel_kernel.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Minimum trailing dimension before apply_q forks threads.
constexpr std::size_t kParallelCutoff = 128;

/// Rows per ownership chunk of the reduction: chunk c of the matrix (rows
/// [16 c, 16 c + 16)) belongs to one thread for the whole call (see
/// for_owned_rows).  Sixteen rows make two register blocks of the panel
/// kernel in the trailing update; 8 and 32 measured the same at n = 800 on
/// 4 threads (31.3 / 28.1 ms against 30.8 / 27.9 ms for 16, alternating
/// calls) and at n = 256 on 2 threads.
constexpr std::size_t kOwnRows = 16;

/// Smallest matrix the reduction hands to a thread team; below it the
/// per-column barriers cost more than the rows save.  Alternating calls on a
/// 4-core Xeon, serial against team: n = 128 0.76 vs 0.92 ms at 2 threads
/// (1.16 vs 0.75 ms at 4); n = 192 2.90 vs 2.63 ms at 2 threads; n = 256
/// 5.27 vs 4.82 ms at 2 threads, 4.33 vs 2.62 ms at 4.
constexpr std::size_t kTeamCutoff = 160;

/// Doubles per cache line: the per-thread slices of the reduction start on
/// their own line.
constexpr std::size_t kLine = 8;

/// body(i0, i1) for every run of rows in [lo, hi) owned by thread `tid` of
/// a team of `team`, in increasing row order.  Chunks are dealt out in
/// rounds of `team`, alternately forward and backward: the work on a row
/// grows with its index, so a plain cyclic deal would give the last thread
/// the largest chunk of every round, while the zig-zag evens each pair of
/// rounds out.
template <class Body>
inline void for_owned_rows(std::size_t lo, std::size_t hi, std::size_t tid,
                           std::size_t team, Body&& body) {
  for (std::size_t q = lo / (kOwnRows * team);; ++q) {
    const std::size_t c = q * team + (q % 2 == 0 ? tid : team - 1 - tid);
    const std::size_t i0 = std::max(lo, c * kOwnRows);
    const std::size_t i1 = std::min(hi, (c + 1) * kOwnRows);
    if (c * kOwnRows >= hi) return;
    if (i0 < i1) body(i0, i1);
  }
}

/// Row i of y = A v over the trailing block [lo, n) of a lower triangle:
/// adds row[k] v[i] to acc[k] for lo <= k < i (the element's (k, i) role)
/// and returns the sum of row[k] v[k] over the same k (its (i, k) role), so
/// each stored element is read once for both.  The dot product runs in two
/// interleaved vector partial sums: a single scalar chain waits out the FMA
/// latency on every element, and the fixed order keeps it reproducible.
inline double symv_row(const double* row, const double* v, std::size_t lo,
                       std::size_t i, double* acc) {
  using V = detail::PanelVec<detail::kPanelLanes>::type;
  constexpr std::size_t L = detail::kPanelLanes;
  const V viv = V{} + v[i];
  V s0 = {}, s1 = {};
  std::size_t k = lo;
  for (; k + 2 * L <= i; k += 2 * L) {
    V r0, r1, v0, v1, a0, a1;
    __builtin_memcpy(&r0, row + k, sizeof(V));
    __builtin_memcpy(&r1, row + k + L, sizeof(V));
    __builtin_memcpy(&v0, v + k, sizeof(V));
    __builtin_memcpy(&v1, v + k + L, sizeof(V));
    __builtin_memcpy(&a0, acc + k, sizeof(V));
    __builtin_memcpy(&a1, acc + k + L, sizeof(V));
    s0 += r0 * v0;
    s1 += r1 * v1;
    a0 += r0 * viv;
    a1 += r1 * viv;
    __builtin_memcpy(acc + k, &a0, sizeof(V));
    __builtin_memcpy(acc + k + L, &a1, sizeof(V));
  }
  double s = 0.0;
  for (; k < i; ++k) {
    s += row[k] * v[k];
    acc[k] += row[k] * v[i];
  }
  s0 += s1;
  for (std::size_t q = 0; q < L; ++q) s += s0[q];
  return s;
}

/// sum over c < len of a[c] b[c] + x[c] z[c], in four-lane partial sums
/// combined in a fixed order: the W row and next-column update are short
/// dot products that a single scalar chain would run at FMA latency.
inline double dot2(const double* a, const double* b, const double* x,
                   const double* z, std::size_t len) {
  using V = detail::PanelVec<4>::type;
  V acc = {};
  std::size_t c = 0;
  for (; c + 4 <= len; c += 4) {
    V a0, b0, x0, z0;
    __builtin_memcpy(&a0, a + c, sizeof(V));
    __builtin_memcpy(&b0, b + c, sizeof(V));
    __builtin_memcpy(&x0, x + c, sizeof(V));
    __builtin_memcpy(&z0, z + c, sizeof(V));
    acc += a0 * b0 + x0 * z0;
  }
  double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; c < len; ++c) s += a[c] * b[c] + x[c] * z[c];
  return s;
}

}  // namespace

// Owner-computes reduction.  Every row of the matrix, with its rows of W,
// belongs to one thread for the whole call (see kOwnRows), and that thread
// does all the work on it: the squared norm and scaling of each reflector
// column, the symv row with the panel sums W^T v and V^T v, the W row and
// the next column's pending update, and the rows of the rank-2k trailing
// update.  A row therefore stays in its owner's L2 from the first column to
// the last.  Per column the team meets at two barriers:
//   1. every thread derives the reflector of column j from the combined
//      squared norm and the staged column u (each makes its own copy v of
//      the reflector), owners scale their entries of column j, and the symv
//      scatters into per-thread partials of y, the panel sums and v^T A v;
//   2. owners sum their rows of y over the partials, write their W rows and
//      update their entries of column j + 1, staging it in u and summing
//      their part of its squared norm.
// Each panel adds a third barrier: owners pack their columns of the shared
// -[W V]^T panel, then run their row chunks of the trailing update as
// panel products against it and stage the next panel's first column.
// Partials are combined in thread order by every reader, never by a
// reduction clause or atomic, so a fixed team size gives bit-identical
// results.
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

  // Every buffer is allocated here, by the calling thread (the pack_space
  // rule of blas.cpp).  Per-thread slice layout, in doubles:
  //   [0] partial squared norm   [1] partial v^T A v   (own cache line)
  //   pan  partial W^T v | V^T v          (2 nb)
  //   sum  combined W^T v | V^T v, then rows j+1 of W and V (4 nb)
  //   v    this thread's copy of the reflector (n)
  //   y    partial y = A v                (n)
  //   ys   y = A v summed over the team, on this thread's rows (n)
  //   x    packed [V W] rows of one chunk (kOwnRows x 2 nb)
  const bool par = n >= kTeamCutoff && par::max_threads() > 1;
  const std::size_t slots = par ? static_cast<std::size_t>(par::max_threads()) : 1;
  const std::size_t off_pan = kLine;
  const std::size_t off_sum = off_pan + 2 * nb;
  const std::size_t off_v = off_sum + 4 * nb;
  const std::size_t off_y = off_v + n;
  const std::size_t off_ys = off_y + n;
  const std::size_t off_x = off_ys + n;
  const std::size_t stride =
      (off_x + kOwnRows * 2 * nb + kLine - 1) / kLine * kLine;
  std::vector<double> space(slots * stride, 0.0);
  Matrix w(n, nb, 0.0);                 // couplings W of the current panel
  std::vector<double> u(n, 0.0);        // next column to reduce, contiguous
  std::vector<double> yt(2 * nb * n);   // shared -[W V]^T panel

#pragma omp parallel if (par)
  {
    const auto tid = static_cast<std::size_t>(par::thread_id());
    const auto team = static_cast<std::size_t>(par::team_size());
    double* const mine = space.data() + tid * stride;
    const auto slice = [&](std::size_t t) { return space.data() + t * stride; };
    const auto owned = [&](std::size_t lo, auto&& body) {
      for_owned_rows(lo, n, tid, team, body);
    };
    // Stage column c for reduction: its rows below the diagonal go to u,
    // the squared norm below the subdiagonal to this thread's partial.
    const auto stage = [&](std::size_t c, std::size_t i0, std::size_t i1) {
      for (std::size_t i = std::max(i0, c + 1); i < i1; ++i) {
        const double x = r(i, c);
        u[i] = x;
        if (i >= c + 2) mine[0] += x * x;
      }
    };

    mine[0] = 0.0;
    owned(1, [&](std::size_t i0, std::size_t i1) { stage(0, i0, i1); });
#pragma omp barrier

    for (std::size_t p = 0; p < nrefl; p += nb) {
      const std::size_t pw = std::min(nb, nrefl - p);
      const std::size_t q0 = p + pw;
      const std::size_t ldy = n - q0;

      for (std::size_t jj = 0; jj < pw; ++jj) {
        const std::size_t j = p + jj;
        const std::size_t lo = j + 1;
        const bool next = jj + 1 < pw;

        // Householder reflector annihilating a(j+2:n, j), derived by every
        // thread from the same sums.
        double sigma = 0.0;
        for (std::size_t t = 0; t < team; ++t) sigma += slice(t)[0];
        const double alpha = u[lo];
        double tau = 0.0, beta = alpha, scale = 1.0;
        if (sigma != 0.0) {
          beta = (alpha >= 0.0) ? -std::sqrt(alpha * alpha + sigma)
                                : std::sqrt(alpha * alpha + sigma);
          tau = (beta - alpha) / beta;
          scale = 1.0 / (alpha - beta);
        }
        if (tid == 0) {
          // Column j already carries the panel's pending updates.
          f.d[j] = r(j, j);
          f.e[j + 1] = beta;
          f.tau[j] = tau;
        }
        double* const v = mine + off_v;
        v[lo] = 1.0;  // with tau = 0 (nothing to annihilate) H = I anyway
        for (std::size_t k = lo + 1; k < n; ++k) {
          v[k] = sigma != 0.0 ? u[k] * scale : u[k];
        }

        // Barrier 1: symv rows y = A v on the stored (pre-update) entries,
        // with the panel sums W^T v, V^T v and v^T A v alongside.
        double* const y = mine + off_y;
        double* const pan = mine + off_pan;
        std::fill(y + lo, y + n, 0.0);
        std::fill(pan, pan + 2 * jj, 0.0);
        mine[1] = 0.0;
        owned(lo, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            double* row = r.row(i);
            row[j] = v[i];
            const double off = symv_row(row, v, lo, i, y);
            const double vi = v[i];
            y[i] += off + row[i] * vi;
            mine[1] += vi * (off + off + row[i] * vi);
            const double* vp = row + p;
            const double* wi = w.row(i);
            for (std::size_t c = 0; c < jj; ++c) {
              pan[c] += wi[c] * vi;
              pan[jj + c] += vp[c] * vi;
            }
          }
        });
#pragma omp barrier

        // W(:, jj) = tau * (A_j v - 0.5 tau (v^T A_j v) v), where A_j is the
        // trailing matrix with the panel's pending updates folded in:
        // A_j v = y - V (W^T v) - W (V^T v), so
        // v^T A_j v = v^T A v - 2 (W^T v).(V^T v).
        double* const vw = mine + off_sum;
        double* const vv = vw + nb;
        double vay = 0.0;
        std::fill(vw, vw + 2 * nb, 0.0);
        for (std::size_t t = 0; t < team; ++t) {
          const double* pt = slice(t);
          vay += pt[1];
          for (std::size_t c = 0; c < jj; ++c) {
            vw[c] += pt[off_pan + c];
            vv[c] += pt[off_pan + jj + c];
          }
        }
        for (std::size_t c = 0; c < jj; ++c) vay -= 2.0 * vw[c] * vv[c];
        const double corr = -0.5 * tau * tau * vay;
        // y on the owned rows, summed over the partials in thread order in
        // one tight pass, so the loads from the other threads' caches
        // overlap.
        double* const ys = mine + off_ys;
        const auto y_sum = [&](std::size_t i) {
          double s = 0.0;
          for (std::size_t t = 0; t < team; ++t) s += slice(t)[off_y + i];
          return s;
        };
        owned(lo, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) ys[i] = y_sum(i);
        });
        const auto w_entry = [&](std::size_t i, double yi) {
          const double s = yi - dot2(r.row(i) + p, vw, w.row(i), vv, jj);
          return tau * s + corr * v[i];
        };

        mine[0] = 0.0;
        if (next) {
          // Barrier 2: W rows, and column j+1's pending updates
          // a(:, j+1) -= V W(j+1, :)^T + W V(j+1, :)^T over columns 0..jj.
          // Every row's update reads row j+1 of W, which every thread
          // computes for itself.
          double* const wrow = vv + nb;
          double* const vrow = wrow + nb;
          for (std::size_t c = 0; c < jj; ++c) wrow[c] = w(lo, c);
          wrow[jj] = w_entry(lo, y_sum(lo));
          for (std::size_t c = 0; c <= jj; ++c) vrow[c] = r(lo, p + c);
          owned(lo, [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
              double* wi = w.row(i);
              wi[jj] = i == lo ? wrow[jj] : w_entry(i, ys[i]);
              double* ri = r.row(i) + p;
              ri[jj + 1] -= dot2(ri, wrow, wi, vrow, jj + 1);
            }
            stage(j + 1, i0, i1);
          });
#pragma omp barrier
          continue;
        }

        // Last column of the panel.  Barrier 2: W rows, and the owners'
        // columns of the shared panel -[W V]^T of the trailing update.
        owned(lo, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            w(i, jj) = w_entry(i, ys[i]);
            const double* ri = r.row(i) + p;
            const double* wi = w.row(i);
            for (std::size_t c = 0; c < pw; ++c) {
              yt[ldy * c + i - q0] = -wi[c];
              yt[ldy * (pw + c) + i - q0] = -ri[c];
            }
          }
        });
#pragma omp barrier
      }

      // Barrier 3: the deferred symmetric rank-2k update (the level-3
      // bulk) A(q0:, q0:) -= V W^T + W V^T, one panel product of
      // contraction length 2 pw per owned chunk of rows, [V W] rows against
      // the shared -[W V]^T.  A chunk's product runs to its last row's
      // diagonal, so it also writes a few entries above the diagonal, which
      // nothing reads.  Then the next panel's first column is staged.
      double* const x = mine + off_x;
      owned(q0, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const double* ri = r.row(i) + p;
          const double* wi = w.row(i);
          double* xi = x + 2 * pw * (i - i0);
          std::copy(ri, ri + pw, xi);
          std::copy(wi, wi + pw, xi + pw);
        }
        gemm_panel_add(i1 - i0, 2 * pw, i1 - q0, x, 2 * pw, yt.data(), ldy,
                       r.row(i0) + q0, n);
        stage(q0, i0, i1);
      });
#pragma omp barrier
    }
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
