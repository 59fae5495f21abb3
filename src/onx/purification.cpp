#include "src/onx/purification.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"

namespace tbmd::onx {

namespace {

/// The trace-conserving Palser-Manolopoulos step on ws.p from ws.p2 and
/// ws.p3, in one pass either way (ws.tmp stays untouched).
void pm_update(double c, double drop, PurificationWorkspace& ws) {
  if (c >= 0.5) {
    // P <- [(1+c) P^2 - P^3] / c
    ws.p2.combine_into((1.0 + c) / c, ws.p3, -1.0 / c, drop, ws.p,
                       ws.scratch);
  } else {
    // P <- [(1-2c) P + (1+c) P^2 - P^3] / (1-c): the one-pass form of
    // tmp = (1-2c)/(1-c) P + (1+c)/(1-c) P^2, P = tmp - P^3 / (1-c),
    // bit-identical to the two passes.
    ws.p.combine3_into((1.0 - 2.0 * c) / (1.0 - c), ws.p2,
                       (1.0 + c) / (1.0 - c), ws.p3, -1.0 / (1.0 - c), drop,
                       ws.p, ws.scratch);
  }
}

}  // namespace

PurificationResult palser_manolopoulos(const BlockSparseMatrix& h,
                                       int n_occupied,
                                       const PurificationOptions& options,
                                       PurificationWorkspace* workspace) {
  const std::size_t n = h.size();
  TBMD_REQUIRE(n_occupied >= 0 &&
                   static_cast<std::size_t>(n_occupied) <= n,
               "purification: occupied count out of range");
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

  // Fault sites (inert unless armed; see util/fault_point.hpp): a forced
  // stall reports converged = false with an otherwise ordinary density --
  // the ladder's non-convergence drill -- and the NaN injection below
  // corrupts one seed entry, which two multiplies spread over the whole
  // density matrix (the non-finite drill).
  const bool inject_stall = fault::fire(fault::kOnxNoConverge);

  // The loop runs entirely in symmetric-half storage; a full-stored
  // operand (convenience callers) is halved on entry.
  BlockSparseMatrix h_half_storage;
  const BlockSparseMatrix* hp = &h;
  if (!h.symmetric()) {
    h_half_storage = h.to_symmetric_half();
    hp = &h_half_storage;
  }
  const BlockSparseMatrix& hh = *hp;

  const double theta =
      static_cast<double>(n_occupied) / static_cast<double>(n);
  const linalg::SpectralBounds bounds =
      options.have_bounds ? options.bounds : hh.gershgorin_bounds();
  const double mu = hh.trace() / static_cast<double>(n);

  // Initial guess P0 = lambda (mu I - H) + theta I with spectrum in [0,1]
  // and trace exactly n_occupied; the spectral extent comes from the shared
  // Gershgorin estimate the dense eigensolvers also use.
  const double denom_hi = std::max(bounds.hi - mu, 1e-12);
  const double denom_lo = std::max(mu - bounds.lo, 1e-12);
  const double lambda = std::min(theta / denom_hi, (1.0 - theta) / denom_lo);

  if (!ws.eye.symmetric() || !ws.eye.layout_matches(hh)) {
    ws.eye = BlockSparseMatrix::identity_like(hh);
  }
  // P = -lambda H + (lambda mu + theta) I
  hh.combine_into(-lambda, ws.eye, lambda * mu + theta,
                  options.drop_tolerance, ws.p, ws.scratch);

  if (fault::fire(fault::kOnxNanTile) && !ws.p.values().empty()) {
    ws.p.values_mutable()[0] = std::numeric_limits<double>::quiet_NaN();
  }

  // Truncation sets a noise floor below which idempotency cannot improve:
  // converge when tr(P - P^2)/N reaches whichever is larger, the requested
  // tolerance or the drop threshold.
  const double effective_tol =
      std::max(options.idempotency_tolerance, options.drop_tolerance);
  double prev_idem = 1e300;

  // Mixed mode: the loose-early iterations run their SpMMs on fp32 tiles
  // (traces and truncation thresholds stay fp64), promoted back to fp64
  // tiles for the tight-late iterations.  Convergence is never declared on
  // fp32 tiles -- any criterion that fires there triggers promotion
  // instead, and the fp64 iterations re-assess it from scratch.
  if (options.precision == PrecisionMode::kMixed) {
    ws.p.convert_precision(TilePrecision::kF32);
  }

  ws.patterns.begin_run();
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double drop = options.drop_at(it);
    ws.p.multiply_sym_into(ws.p, drop, ws.p2, ws.scratch, ws.patterns.next(),
                           options.sub_tile * drop, options.simd);
    ws.p2.multiply_sym_into(ws.p, drop, ws.p3, ws.scratch,
                            ws.patterns.next(), options.sub_tile * drop,
                            options.simd);

    const double tr_p = ws.p.trace();
    const double tr_p2 = ws.p2.trace();
    const double tr_p3 = ws.p3.trace();
    const double idem = tr_p - tr_p2;

    out.iterations = it;
    out.idempotency_error = idem;

    if (ws.p.precision() == TilePrecision::kF32) {
      ++out.numerics.fp32_iterations;
      const double per_state = std::fabs(idem) / static_cast<double>(n);
      const double c = (tr_p2 - tr_p3) / idem;
      PromotionTrigger trig = PromotionTrigger::kNone;
      if (per_state < effective_tol ||
          (std::fabs(idem) >= 0.5 * prev_idem &&
           per_state < 50.0 * options.drop_tolerance) ||
          !std::isfinite(c)) {
        trig = PromotionTrigger::kStagnation;
      } else if (per_state < options.promote_threshold) {
        trig = PromotionTrigger::kThreshold;
      } else if (options.promote_iteration > 0 &&
                 it >= options.promote_iteration) {
        trig = PromotionTrigger::kIteration;
      }
      // Apply the trace-conserving update on the fp32 tiles unless the
      // iteration stalled (near-idempotent P makes c ill-conditioned);
      // a threshold/iteration-cap promotion still takes this step's
      // update with it.
      if (std::isfinite(c) && trig != PromotionTrigger::kStagnation) {
        pm_update(c, drop, ws);
      }
      if (trig != PromotionTrigger::kNone) {
        ws.p.convert_precision(TilePrecision::kF64);
        out.numerics.promoted_at = it;
        out.numerics.trigger = trig;
        // The fp64 phase re-assesses stagnation with a fresh history.
        prev_idem = 1e300;
      } else {
        prev_idem = std::fabs(idem);
      }
      continue;
    }
    ++out.numerics.fp64_iterations;
    if (std::fabs(idem) / static_cast<double>(n) < effective_tol) {
      out.converged = true;
      // Final McWeeny polish at the tight tolerance.
      ws.p2.combine_into(3.0, ws.p3, -2.0, options.drop_tolerance, ws.p,
                         ws.scratch);
      break;
    }
    // Stagnation at the truncation noise floor also counts as converged:
    // further iterations cannot improve a truncated density matrix.
    if (std::fabs(idem) >= 0.5 * prev_idem &&
        std::fabs(idem) / static_cast<double>(n) <
            50.0 * options.drop_tolerance) {
      out.converged = true;
      break;
    }
    prev_idem = std::fabs(idem);

    const double c = (tr_p2 - tr_p3) / idem;
    if (!std::isfinite(c)) break;

    pm_update(c, drop, ws);
  }

  // An fp32 phase that exhausted max_iterations hands back fp64 anyway:
  // the density matrix, band energy and force contractions are fp64
  // artifacts in every mode.
  if (ws.p.precision() == TilePrecision::kF32) {
    ws.p.convert_precision(TilePrecision::kF64);
  }

  // Band energy through the symmetric-half trace_of_product specialization
  // (single upper-half pass, 2x off-diagonal weight).
  out.band_energy = 2.0 * ws.p.trace_of_product(hh);
  out.fill_fraction = ws.p.fill_fraction();
  out.density = std::move(ws.p);
  ws.p = BlockSparseMatrix::zeros_like(hh);
  if (inject_stall) out.converged = false;
  return out;
}

PurificationResult purify_grand_canonical(const BlockSparseMatrix& h,
                                          double mu,
                                          const PurificationOptions& options,
                                          PurificationWorkspace* workspace) {
  const std::size_t n = h.size();
  PurificationResult out;
  out.mu = mu;
  if (n == 0) {
    out.converged = true;
    return out;
  }

  PurificationWorkspace local;
  PurificationWorkspace& ws = workspace != nullptr ? *workspace : local;

  BlockSparseMatrix h_half_storage;
  const BlockSparseMatrix* hp = &h;
  if (!h.symmetric()) {
    h_half_storage = h.to_symmetric_half();
    hp = &h_half_storage;
  }
  const BlockSparseMatrix& hh = *hp;

  // Step-function seed X0 = 1/2 I + (mu I - H) / (2 W).  W is the largest
  // distance from mu to the Gershgorin enclosure, so every eigenvalue of X0
  // lands in [0, 1] with the occupied/empty split exactly at 1/2; the
  // trace-free McWeeny polynomial then sharpens the step without moving it.
  const linalg::SpectralBounds bounds =
      options.have_bounds ? options.bounds : hh.gershgorin_bounds();
  const double w = std::max({bounds.hi - mu, mu - bounds.lo, 1e-12});
  if (!ws.eye.symmetric() || !ws.eye.layout_matches(hh)) {
    ws.eye = BlockSparseMatrix::identity_like(hh);
  }
  hh.combine_into(-0.5 / w, ws.eye, 0.5 + 0.5 * mu / w,
                  options.drop_tolerance, ws.p, ws.scratch);

  const double effective_tol =
      std::max(options.idempotency_tolerance, options.drop_tolerance);
  double prev_idem = 1e300;

  // Mixed mode mirrors the canonical loop: fp32 SpMMs while far from the
  // step function, promotion (never convergence) when a criterion fires
  // on fp32 tiles.
  if (options.precision == PrecisionMode::kMixed) {
    ws.p.convert_precision(TilePrecision::kF32);
  }

  ws.patterns.begin_run();
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double drop = options.drop_at(it);
    ws.p.multiply_sym_into(ws.p, drop, ws.p2, ws.scratch, ws.patterns.next(),
                           options.sub_tile * drop, options.simd);
    ws.p2.multiply_sym_into(ws.p, drop, ws.p3, ws.scratch,
                            ws.patterns.next(), options.sub_tile * drop,
                            options.simd);

    const double idem = ws.p.trace() - ws.p2.trace();
    out.iterations = it;
    out.idempotency_error = idem;
    const double per_state = std::fabs(idem) / static_cast<double>(n);
    const bool at_floor =
        std::fabs(idem) >= 0.5 * prev_idem &&
        per_state < 50.0 * options.drop_tolerance;

    if (ws.p.precision() == TilePrecision::kF32) {
      ++out.numerics.fp32_iterations;
      PromotionTrigger trig = PromotionTrigger::kNone;
      if (per_state < effective_tol || at_floor) {
        trig = PromotionTrigger::kStagnation;
      } else if (per_state < options.promote_threshold) {
        trig = PromotionTrigger::kThreshold;
      } else if (options.promote_iteration > 0 &&
                 it >= options.promote_iteration) {
        trig = PromotionTrigger::kIteration;
      }
      // The McWeeny step is unconditionally contractive, so promotion
      // always takes this iteration's update with it.
      ws.p2.combine_into(3.0, ws.p3, -2.0, drop, ws.p, ws.scratch);
      if (trig != PromotionTrigger::kNone) {
        ws.p.convert_precision(TilePrecision::kF64);
        out.numerics.promoted_at = it;
        out.numerics.trigger = trig;
        prev_idem = 1e300;
      } else {
        prev_idem = std::fabs(idem);
      }
      continue;
    }
    ++out.numerics.fp64_iterations;
    if (per_state < effective_tol || at_floor) {
      out.converged = true;
    }
    prev_idem = std::fabs(idem);

    // X <- 3 X^2 - 2 X^3 (also serves as the final polish on convergence).
    ws.p2.combine_into(3.0, ws.p3, -2.0,
                       out.converged ? options.drop_tolerance : drop, ws.p,
                       ws.scratch);
    if (out.converged) break;
  }

  if (ws.p.precision() == TilePrecision::kF32) {
    ws.p.convert_precision(TilePrecision::kF64);
  }

  out.band_energy = 2.0 * ws.p.trace_of_product(hh);
  out.fill_fraction = ws.p.fill_fraction();
  out.density = std::move(ws.p);
  ws.p = BlockSparseMatrix::zeros_like(hh);
  return out;
}

PurificationResult purify_with_chemical_potential(
    const BlockSparseMatrix& h, int n_occupied,
    const PurificationOptions& options, PurificationWorkspace* workspace) {
  const std::size_t n = h.size();
  TBMD_REQUIRE(n_occupied >= 0 &&
                   static_cast<std::size_t>(n_occupied) <= n,
               "purification: occupied count out of range");
  if (n == 0 || n_occupied == 0) {
    return purify_grand_canonical(h, 0.0, options, workspace);
  }

  // tr P(mu) counts the eigenvalues below mu, a step-wise nondecreasing
  // function of mu: plain bisection between the Gershgorin bounds brackets
  // the Fermi level.  Accept when the count lands within a quarter state —
  // tighter than any truncation noise, loose enough that gapped systems
  // terminate in a handful of purification runs.
  // One Gershgorin pass serves the whole bisection: both the mu bracket
  // and every grand-canonical run's seed below read the same enclosure
  // (previously each of the up-to-48 runs re-derived it from H).
  PurificationOptions opts = options;
  if (!opts.have_bounds) {
    opts.bounds = h.symmetric() ? h.gershgorin_bounds()
                                : h.to_symmetric_half().gershgorin_bounds();
    opts.have_bounds = true;
  }
  double lo = opts.bounds.lo;
  double hi = opts.bounds.hi;
  const double target = static_cast<double>(n_occupied);

  PurificationResult best;
  double best_miss = 1e300;
  for (int step = 0; step < 48; ++step) {
    const double mu = 0.5 * (lo + hi);
    PurificationResult r = purify_grand_canonical(h, mu, opts, workspace);
    const double count = r.density.trace();
    const double miss = std::fabs(count - target);
    if (miss < best_miss) {
      best_miss = miss;
      best = std::move(r);
    }
    if (best_miss <= 0.25 && best.converged) break;
    if (count < target) {
      lo = mu;
    } else {
      hi = mu;
    }
    if (hi - lo < 1e-12 * std::max(1.0, std::fabs(hi) + std::fabs(lo))) {
      break;
    }
  }
  // A count that never matched (mu trapped inside a band at T = 0) is a
  // metallic failure mode: report the closest run, unconverged, and marked
  // so the guardrails classify it as a mu miss rather than a plain stall.
  if (best_miss > 0.25) {
    best.converged = false;
    best.mu_miss = true;
  }
  return best;
}

}  // namespace tbmd::onx
