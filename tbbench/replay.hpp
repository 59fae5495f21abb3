#pragma once

/// \file replay.hpp
/// \brief Layer-by-layer replay of one tight-binding force call.
///
/// The traced run needs per-layer times, but the library is not
/// instrumented.  A Replayer therefore re-runs a force call through the
/// public functions of the neighbor, tb, linalg and onx modules, in the
/// order TightBindingCalculator::compute / OrderNCalculator::compute call
/// them, and opens a span around each call.  It keeps the state those
/// calculators keep across calls (neighbor list, bond table, SpMM pattern
/// cache, purification workspace, Fermi-tail hint), so replaying every
/// force call of a trajectory sees the same cold and warm calls the
/// calculator saw.  The driver compares each replay's energy and forces
/// with the calculator's result on the same frame.

#include <cstddef>

#include "src/core/calculator.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/linalg/matrix.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/block_sparse.hpp"
#include "src/onx/purification.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/tb_model.hpp"

namespace tbbench {

class Replayer {
 public:
  /// Throws tbmd::Error for spec features the replay does not mirror
  /// (cached spectral bounds, health checks, electronic temperature on the
  /// O(N) engine).
  Replayer(tbmd::tb::TbModel model, const tbmd::CalculatorSpec& spec);

  /// Replay one force call on `system`.
  tbmd::ForceResult replay(const tbmd::System& system);

  /// Exact engine: time the eigensolver's stages on the last replayed H
  /// (blocked tridiagonalization, tridiagonal eigenpairs, back-transform).
  void eigen_stages();

  /// O(N) engine: one warm multiply_sym_into of the last density matrix
  /// with itself, with computed flop and byte counts.
  void spmm_probe();

  [[nodiscard]] bool exact() const {
    return spec_.mode == tbmd::CalcMode::kExact;
  }

 private:
  tbmd::ForceResult replay_exact(const tbmd::System& system);
  tbmd::ForceResult replay_order_n(const tbmd::System& system);

  tbmd::tb::TbModel model_;
  tbmd::CalculatorSpec spec_;
  tbmd::NeighborList list_;
  tbmd::tb::BondTable table_;

  // exact engine
  tbmd::linalg::Matrix h_;
  std::size_t tail_hint_ = 0;
  std::size_t last_iu_ = 0;

  // O(N) engine
  tbmd::onx::BlockSparseMatrix hamiltonian_;
  tbmd::onx::PurificationWorkspace workspace_;
  tbmd::onx::PurificationResult last_;
  std::size_t last_atoms_ = 0;
  tbmd::onx::BsrWorkspace probe_ws_;
  tbmd::onx::BsrPattern probe_pattern_;
  tbmd::onx::BlockSparseMatrix probe_out_;
};

}  // namespace tbbench
