#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/partition.hpp"
#include "src/util/units.hpp"
#include "trace.hpp"

namespace tbbench {

using namespace tbmd;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Replayer::Replayer(tb::TbModel model, const CalculatorSpec& spec)
    : model_(std::move(model)), spec_(spec) {
  TBMD_REQUIRE(!spec_.cache_spectral_bounds && !spec_.health.enabled,
               "replay: cached spectral bounds and health checks are not "
               "mirrored");
  TBMD_REQUIRE(exact() || spec_.electronic_temperature == 0.0,
               "replay: the O(N) engine runs at T_el = 0");
}

ForceResult Replayer::replay(const System& system) {
  SpanScope root("replay");
  return exact() ? replay_exact(system) : replay_order_n(system);
}

// Mirrors tb::TightBindingCalculator::compute.
ForceResult Replayer::replay_exact(const System& system) {
  ForceResult result;
  const std::size_t before = list_.build_count();
  {
    SpanScope s("neighbor");
    list_.ensure(system.positions(), system.cell(),
                 {model_.cutoff(), spec_.skin});
  }
  count("neighbor.rebuilds", static_cast<double>(list_.build_count() - before));
  {
    SpanScope s("tb.bond_table");
    table_.build(model_, system, list_,
                 tb::BondTable::Mode::kBlocksAndDerivatives);
  }
  count("tb.bonds", static_cast<double>(table_.size()));
  {
    SpanScope s("tb.hamiltonian");
    h_ = tb::build_hamiltonian(model_, system, table_);
  }

  const std::size_t norb = h_.rows();
  const int ne = system.total_valence_electrons();
  const double etemp = spec_.electronic_temperature;
  const bool want_partial =
      spec_.spectrum == SpectrumPolicy::kPartial ||
      (spec_.spectrum == SpectrumPolicy::kAuto && !spec_.report_eigenvalues);

  bool partial = false;
  linalg::SymmetricEigenSolution eig;
  {
    SpanScope s("linalg.eigh");
    if (want_partial && ne > 0 && norb > 0) {
      const auto homo = static_cast<std::size_t>((ne - 1) / 2);
      std::size_t needed = homo + 1;
      if (etemp > 0.0) {
        needed += std::max({std::size_t{16}, norb / 8, tail_hint_});
      }
      const std::size_t iu = std::min(norb - 1, needed);
      partial = iu + 1 < norb;
      if (partial) eig = linalg::eigh_range(h_, 0, iu);
    }
    if (!partial) eig = linalg::eigh(h_);
  }
  std::size_t fallbacks = 0;
  tb::Occupations occ;
  {
    SpanScope s("tb.occupy");
    occ = tb::occupy(eig.values, ne, etemp);
  }
  const double kt = units::kBoltzmann * etemp;
  if (partial && etemp > 0.0 &&
      eig.values.back() < occ.fermi_level + tb::kFermiTailCutoff * kt) {
    ++fallbacks;
    partial = false;
    {
      SpanScope s("linalg.eigh");
      eig = linalg::eigh(h_);
    }
    {
      SpanScope s("tb.occupy");
      occ = tb::occupy(eig.values, ne, etemp);
    }
    const double top = occ.fermi_level + tb::kFermiTailCutoff * kt;
    std::size_t covered = 0;
    while (covered < eig.values.size() && eig.values[covered] < top) ++covered;
    const auto homo = static_cast<std::size_t>((ne - 1) / 2);
    const std::size_t beyond_lumo =
        (covered > homo + 1) ? covered - (homo + 1) : 0;
    tail_hint_ = std::max(tail_hint_, beyond_lumo + norb / 16 + 8);
  }
  last_iu_ = eig.values.size() - 1;
  count("linalg.eigenpairs", static_cast<double>(eig.values.size()));
  count("linalg.full_fallbacks", static_cast<double>(fallbacks));

  linalg::Matrix rho;
  {
    SpanScope s("tb.density");
    rho = tb::density_matrix(eig.vectors, occ.weights);
  }
  {
    SpanScope s("tb.band_forces");
    result.forces = tb::band_forces(table_, rho, &result.virial);
  }
  tb::RepulsiveResult rep;
  {
    SpanScope s("tb.repulsive");
    rep = tb::repulsive_energy_forces(model_, table_);
  }
  for (std::size_t i = 0; i < system.size(); ++i) {
    result.forces[i] += rep.forces[i];
  }
  result.virial += rep.virial;
  result.band_energy = occ.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = occ.band_energy + occ.entropy_term + rep.energy;
  result.fermi_level = occ.fermi_level;
  return result;
}

// Mirrors onx::OrderNCalculator::compute with health checks off, cached
// spectral bounds off and no spatial reordering (the CalculatorSpec
// defaults the benchmark uses).
ForceResult Replayer::replay_order_n(const System& system) {
  ForceResult result;
  const std::size_t n = system.size();
  const int electrons = system.total_valence_electrons();

  std::size_t ndom = 1;
  if (spec_.domains == 0) {
    const auto nthreads = static_cast<std::size_t>(par::max_threads());
    if (nthreads > 1 && n >= 512) ndom = std::min(4 * nthreads, n / 64);
  } else if (spec_.domains > 1) {
    ndom = std::min(static_cast<std::size_t>(spec_.domains), n);
  }
  const par::DomainPartition part = par::even_domains(n, ndom);

  const std::size_t before = list_.build_count();
  {
    SpanScope s("neighbor");
    list_.ensure(system.positions(), system.cell(),
                 {model_.cutoff(), spec_.skin});
  }
  count("neighbor.rebuilds", static_cast<double>(list_.build_count() - before));
  {
    SpanScope s("tb.bond_table");
    table_.build(model_, system, list_,
                 tb::BondTable::Mode::kBlocksAndDerivatives,
                 spec_.bond_reuse_skin);
  }
  count("tb.bonds", static_cast<double>(table_.size()));

  if (n < last_atoms_) {
    std::size_t max_bs = tb::TbModel::kOrbitalsPerAtom;
    for (const tb::SpeciesParams& sp : model_.species) {
      max_bs = std::max(max_bs, static_cast<std::size_t>(sp.orbitals));
    }
    workspace_.scratch.shrink({n, max_bs});
  }
  last_atoms_ = n;
  workspace_.patterns.set_topology(table_.topology_version());
  if (!spec_.reuse_patterns) workspace_.patterns.invalidate();
  if (ndom > 1) {
    workspace_.scratch.domains = part.domain_ptr;
  } else {
    workspace_.scratch.domains.clear();
  }

  {
    SpanScope s("onx.assembly");
    onx::build_block_hamiltonian(model_, system, table_, hamiltonian_,
                                 workspace_.scratch);
  }
  tb::RepulsiveResult rep;
  {
    SpanScope s("tb.repulsive");
    rep = tb::repulsive_energy_forces(model_, table_);
  }

  onx::PurificationOptions popts;
  static_cast<NumericsSpec&>(popts) = spec_.numerics;
  const onx::BsrWorkspace::SpmmStats stats0 = workspace_.scratch.stats;
  {
    SpanScope s("onx.purify");
    workspace_.p = std::move(last_.density);
    last_ = onx::palser_manolopoulos(hamiltonian_, electrons / 2, popts,
                                     &workspace_);
  }
  const onx::BsrWorkspace::SpmmStats& stats1 = workspace_.scratch.stats;
  count("onx.purify_iters", last_.iterations);
  count("onx.fill", last_.fill_fraction);
  count("onx.spmm_symbolic",
        static_cast<double>(stats1.symbolic_builds - stats0.symbolic_builds));
  count("onx.spmm_reuses",
        static_cast<double>(stats1.numeric_reuses - stats0.numeric_reuses));
  {
    SpanScope s("onx.band_forces");
    result.forces =
        onx::band_forces_sparse(table_, last_.density, &result.virial);
  }
  for (std::size_t i = 0; i < n; ++i) result.forces[i] += rep.forces[i];
  result.virial += rep.virial;
  result.band_energy = last_.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = last_.band_energy + rep.energy;
  return result;
}

void Replayer::eigen_stages() {
  const std::size_t n = h_.rows();
  if (n < 2) return;
  const std::size_t m = last_iu_ + 1;
  const auto t0 = std::chrono::steady_clock::now();
  linalg::TridiagFactorization fact;
  {
    SpanScope s("linalg.tridiag");
    fact = linalg::blocked_tridiagonalize(h_);
  }
  const double tridiag_s = seconds_since(t0);
  count("linalg.tridiag_gflops",
        4.0 / 3.0 * static_cast<double>(n) * static_cast<double>(n) *
            static_cast<double>(n) / tridiag_s * 1e-9);
  linalg::Matrix z;
  {
    SpanScope s("linalg.tridiag_solve");
    // Same values-only choice as eigh_range: Sturm bisection for a narrow
    // slice or a wide thread team, else one QL sweep over all values.
    std::vector<double> values;
    const auto threads = static_cast<std::size_t>(par::max_threads());
    if (m * 16 <= n * threads) {
      values = linalg::tridiagonal_eigenvalues_range(fact.d, fact.e, 0,
                                                     last_iu_);
    } else {
      std::vector<double> d = fact.d;
      std::vector<double> e = fact.e;
      linalg::tql_implicit_shift(d, e, nullptr);
      std::sort(d.begin(), d.end());
      values.assign(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(m));
    }
    z = linalg::tridiagonal_eigenvectors(fact.d, fact.e, values, 0);
  }
  {
    SpanScope s("linalg.backtransform");
    linalg::apply_q(fact, z);
  }
}

void Replayer::spmm_probe() {
  const onx::BlockSparseMatrix& p = last_.density;
  if (p.block_rows() == 0 || !p.symmetric()) return;
  const double tol = spec_.numerics.drop_tolerance;
  // Cold call first: it records the symbolic pattern, so the timed call
  // below is the numeric-only sweep that warm purification steps run.
  p.multiply_sym_into(p, tol, probe_out_, probe_ws_, &probe_pattern_);
  const auto t0 = std::chrono::steady_clock::now();
  {
    SpanScope s("onx.spmm");
    p.multiply_sym_into(p, tol, probe_out_, probe_ws_, &probe_pattern_);
  }
  const double secs = seconds_since(t0);

  // Computed work of the upper-half product C = P * P: one tile product
  // per (I, K, J) with K a block neighbour of I, J a block neighbour of K
  // and J >= I, each costing 2 * d_I * d_K * d_J flops.
  const std::size_t nb = p.block_rows();
  const std::vector<std::size_t>& ptr = p.row_ptr();
  const std::vector<std::uint32_t>& cols = p.cols();
  std::vector<std::vector<std::uint32_t>> adj(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t q = ptr[i]; q < ptr[i + 1]; ++q) {
      adj[i].push_back(cols[q]);
      if (cols[q] != i) adj[cols[q]].push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (auto& row : adj) std::sort(row.begin(), row.end());
  double flops = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const double di = static_cast<double>(p.row_dim(i));
    for (const std::uint32_t k : adj[i]) {
      const double dk = static_cast<double>(p.row_dim(k));
      for (auto it = std::lower_bound(adj[k].begin(), adj[k].end(), i);
           it != adj[k].end(); ++it) {
        flops += 2.0 * di * dk * static_cast<double>(p.row_dim(*it));
      }
    }
  }
  // Compulsory traffic: both operands read once, the product written once.
  const double bytes =
      8.0 * static_cast<double>(2 * p.nnz() + probe_out_.nnz());
  count("onx.spmm_gflops", flops / secs * 1e-9);
  count("onx.spmm_gbps", bytes / secs * 1e-9);
}

}  // namespace tbbench
