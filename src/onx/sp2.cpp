#include "src/onx/sp2.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace tbmd::onx {

PurificationResult sp2_purification(const BlockSparseMatrix& h,
                                    int n_occupied,
                                    const PurificationOptions& options,
                                    PurificationWorkspace* workspace) {
  const std::size_t n = h.size();
  TBMD_REQUIRE(n_occupied >= 0 && static_cast<std::size_t>(n_occupied) <= n,
               "sp2: occupied count out of range");
  PurificationResult out;
  if (n == 0 || n_occupied == 0) {
    out.density = h.uniform_blocks()
                      ? BlockSparseMatrix(n, h.block_size(), true)
                      : BlockSparseMatrix(h.block_dims(), true);
    out.converged = true;
    return out;
  }

  PurificationWorkspace local;
  PurificationWorkspace& ws = workspace != nullptr ? *workspace : local;
  BlockSparseMatrix& x = ws.p;
  BlockSparseMatrix& x2 = ws.p2;

  // Like PM, the iteration runs entirely in symmetric-half storage.
  BlockSparseMatrix h_half_storage;
  const BlockSparseMatrix* hp = &h;
  if (!h.symmetric()) {
    h_half_storage = h.to_symmetric_half();
    hp = &h_half_storage;
  }
  const BlockSparseMatrix& hh = *hp;

  // X0 = (emax I - H) / (emax - emin): spectrum in [0, 1], with occupied
  // states mapped towards 1.  The bounds come from the shared Gershgorin
  // estimate (linalg::SpectralBounds) the dense eigensolvers also use.
  const linalg::SpectralBounds bounds =
      options.have_bounds ? options.bounds : hh.gershgorin_bounds();
  const double width = std::max(bounds.width(), 1e-12);
  if (!ws.eye.symmetric() || !ws.eye.layout_matches(hh)) {
    ws.eye = BlockSparseMatrix::identity_like(hh);
  }
  hh.combine_into(-1.0 / width, ws.eye, bounds.hi / width,
                  options.drop_tolerance, x, ws.scratch);

  const double target = static_cast<double>(n_occupied);
  const double effective_tol =
      std::max(options.idempotency_tolerance, options.drop_tolerance);
  double prev_idem = 1e300;

  ws.patterns.begin_run();
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double drop = options.drop_at(it);
    x.multiply_sym_into(x, drop, x2, ws.scratch, ws.patterns.next());
    const double tr_x = x.trace();
    const double tr_x2 = x2.trace();
    const double idem = tr_x - tr_x2;

    out.iterations = it;
    out.idempotency_error = idem;
    if (std::fabs(idem) / static_cast<double>(n) < effective_tol) {
      out.converged = true;
      // Final McWeeny polish 3X^2 - 2X^3 at the tight tolerance (X and X^2
      // are polynomials of the same H, so their product is symmetric).
      x2.multiply_sym_into(x, options.drop_tolerance, ws.p3, ws.scratch,
                           ws.patterns.next());
      x2.combine_into(3.0, ws.p3, -2.0, options.drop_tolerance, ws.tmp,
                      ws.scratch);
      std::swap(x, ws.tmp);
      break;
    }
    if (std::fabs(idem) >= 0.5 * prev_idem &&
        std::fabs(idem) / static_cast<double>(n) <
            50.0 * options.drop_tolerance) {
      out.converged = true;
      break;
    }
    prev_idem = std::fabs(idem);

    // Choose the projection that moves tr(X) towards the target.
    if (std::fabs(tr_x2 - target) < std::fabs(2.0 * tr_x - tr_x2 - target)) {
      std::swap(x, x2);  // X <- X^2 (pushes small eigenvalues down)
    } else {
      x.combine_into(2.0, x2, -1.0, drop, ws.tmp,
                     ws.scratch);  // X <- 2X - X^2
      std::swap(x, ws.tmp);
    }
  }

  out.band_energy = 2.0 * x.trace_of_product(hh);
  out.fill_fraction = x.fill_fraction();
  out.density = std::move(x);
  x = BlockSparseMatrix::zeros_like(hh);
  return out;
}

}  // namespace tbmd::onx
