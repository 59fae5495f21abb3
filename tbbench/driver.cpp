/// \file driver.cpp
/// \brief Benchmark driver: runs one workload for a fixed time and prints
/// its raw samples, output checks and run context as one JSON object.
///
///   tbbench_driver --workload on_bulk_c216 --seed 1 --seconds 15 \
///                  --trace 0 --out-dir .bench_build/runs/x
///
/// tbbench/run.py builds this program, runs it and turns the samples into
/// the metrics named in BENCHMARK.json; see tbbench/README.md.  Every load
/// is a closed loop in this one process: each MD step or job starts when
/// the previous one has finished.

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "replay.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/relax/relax.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/nanotube.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/svc/job_runner.hpp"
#include "src/svc/job_spec.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using namespace tbmd;
using tbbench::SpanScope;

namespace {

// ---------------------------------------------------------------------------
// Bounds of the output checks.
// ---------------------------------------------------------------------------

/// O(N)-vs-exact force error at drop tolerance 1e-6.  The check gates at
/// the bound bench/on_nve_gate.cpp enforces on the fp64 engine in CI.  The
/// README quotes ~1.4e-3 eV/A (measured on a 0.02 A perturbed lattice) and
/// the ROADMAP states 1.5e-3 eV/A; a thermalized 300 K frame exceeds that
/// figure, which the run reports as a known defect instead of hiding it.
constexpr double kForceErrGate = 2e-2;     // eV/A
constexpr double kForceErrReadme = 1.5e-3;  // eV/A
/// |delta conserved quantity| per atom over the timed MD phase.  The bulk
/// NVE bound is bench/on_nve_gate.cpp's 20-step slice bound; the 2500 K
/// edge under Nose-Hoover drifts more (large forces at dt = 1 fs); the
/// sweep jobs are short NVE runs.
constexpr double kBulkDriftBound = 2.0;   // meV/atom
constexpr double kTubeDriftBound = 5.0;   // meV/atom
constexpr double kSweepDriftBound = 5.0;  // meV/atom, final vs initial E
/// Sweep: final energy recomputed from the job's final checkpoint.
constexpr double kCkptEnergyTol = 1e-6;  // eV
/// Replay vs compute() on the same frame.  The exact engine is not
/// bit-reproducible run to run at more than one thread (ROADMAP
/// symv_lower), so agreement is checked to a tolerance and bit-identity is
/// reported, not required.
constexpr double kReplayForceTol = 1e-6;   // eV/A
constexpr double kReplayEnergyTol = 1e-6;  // eV
constexpr double kTubeForceTolerance = 0.05;  // eV/A, FIRE target

/// The drift and force checks read the frame after this many timed steps,
/// so they judge the same trajectory on a fast host and a slow one.
constexpr long kBulkCheckStep = 20;
constexpr long kTubeCheckStep = 30;
/// Set-ups per run; setup_s is their median.  The sweep's set-up is ~30 ms,
/// so it takes more probes for a steady median.
constexpr int kSetups = 7;
constexpr int kSweepSetups = 15;
/// Steps of the untraced reference the tracing overhead is measured on.
constexpr long kUntracedSteps = 5;

/// Step ids of spans recorded outside the MD phase (see trace.hpp).
constexpr long kStepSerialCold = -3;
constexpr long kStepSerial = -2;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64 finalizer: independent sub-seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffULL;  // job files take seeds >= 0
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int k = 0; k < 3; ++k) {
    __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                &regs[4 * k + 2], &regs[4 * k + 3]);
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

double max_force_diff(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, norm(a[i] - b[i]));
  return worst;
}

/// Minimal JSON object writer (numbers with all their digits).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    key_(key);
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  static std::string quoted(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return q + '"';
  }
  Json& str(const std::string& key, const std::string& v) {
    key_(key);
    os_ << quoted(v);
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    key_(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& array(const std::string& key, const std::vector<double>& v) {
    key_(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      os_ << (i ? ", " : "") << buf;
    }
    os_ << ']';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    key_(key);
    os_ << json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + os_.str() + "}"; }

 private:
  void key_(const std::string& key) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << key << "\": ";
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Run record.
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  double value = 0.0;
  double bound = 0.0;
  bool ok = false;
};

struct Run {
  std::vector<double> step_ms;    ///< one sample per MD step (sweep: per job)
  std::vector<double> setup_s;    ///< one sample per set-up
  std::map<std::string, double> values;
  long attempted = 0;
  long failed = 0;
  std::vector<Check> checks;
  std::vector<std::string> known_defects;

  void defect(const std::string& text) { known_defects.push_back(text); }
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(const std::string& name, double value, double bound, bool ok) {
    checks.push_back({name, value, bound, ok});
  }
  /// value <= bound, NaN failing.
  void check_le(const std::string& name, double value, double bound) {
    check(name, value, bound, value <= bound);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
  /// OpenMP threads per worker, set by main() from the thread budget.
  int threads = 1;
};

// ---------------------------------------------------------------------------
// Forwarding calculator: the benchmark's window onto Calculator::compute.
// ---------------------------------------------------------------------------

/// Wraps a calculator so the benchmark can time each compute() call and,
/// in the traced run, replay it layer by layer on the same frame and check
/// that the replay agrees with it.
class TracedCalculator final : public Calculator {
 public:
  TracedCalculator(Calculator& inner, tbbench::Replayer* replayer)
      : inner_(inner), replayer_(replayer) {}

  ForceResult compute(const System& system) override {
    ForceResult r;
    const auto t0 = Clock::now();
    {
      SpanScope s("calc.compute");
      r = inner_.compute(system);
    }
    compute_ms.push_back(1e3 * seconds_since(t0));
    if (replayer_ != nullptr) {
      SpanScope s("trace.replay");
      const ForceResult rr = replayer_->replay(system);
      const double df = max_force_diff(rr.forces, r.forces);
      const double de = std::fabs(rr.energy - r.energy);
      bool bitwise = rr.energy == r.energy;
      for (std::size_t i = 0; bitwise && i < r.forces.size(); ++i) {
        bitwise = rr.forces[i] == r.forces[i];
      }
      tbbench::count("trace.replay_df", df);
      tbbench::count("trace.replay_bitwise", bitwise ? 1.0 : 0.0);
      max_df = std::max(max_df, df);
      max_de = std::max(max_de, de);
      all_bitwise = all_bitwise && bitwise;
      ++replays;
      if (probes) {
        SpanScope p("trace.probe");
        if (replayer_->exact()) {
          replayer_->eigen_stages();
        } else {
          replayer_->spmm_probe();
        }
      }
    }
    return r;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<double> compute_ms;
  long replays = 0;
  double max_df = 0.0;
  double max_de = 0.0;
  bool all_bitwise = true;
  /// Run the eigensolver-stage / SpMM probes after each replay.
  bool probes = false;

 private:
  Calculator& inner_;
  tbbench::Replayer* replayer_;
};

// ---------------------------------------------------------------------------
// Shared pieces of the traced run.
// ---------------------------------------------------------------------------

/// Untraced reference for the tracing overhead: `steps` MD steps from a copy
/// of `start` with a fresh calculator, timing each compute() only.
std::vector<double> untraced_compute_ms(const System& start,
                                        const tb::TbModel& model,
                                        const CalculatorSpec& spec,
                                        const md::MdOptions& mdopt,
                                        long steps) {
  System s = start;
  auto calc = make_calculator(model, s, spec);
  TracedCalculator timed(*calc, nullptr);
  tbbench::Tracer* saved = tbbench::g_tracer;
  tbbench::g_tracer = nullptr;
  {
    md::MdDriver driver(s, timed, mdopt);
    timed.compute_ms.clear();
    for (long k = 0; k < steps; ++k) driver.step();
  }
  tbbench::g_tracer = saved;
  return timed.compute_ms;
}

/// Traced MD steps: `md.step` spans around MdDriver::step, with the
/// forwarding calculator replaying and probing every force call.
void traced_steps(md::MdDriver& driver, TracedCalculator& tc, double seconds,
                  long max_steps, long& step_id) {
  tc.probes = true;
  const auto t0 = Clock::now();
  long done = 0;
  while (done < max_steps && (done == 0 || seconds_since(t0) < seconds)) {
    tbbench::g_tracer->set_step(step_id++);
    {
      SpanScope s("md.step");
      driver.step();
    }
    ++done;
  }
  tbbench::g_tracer->set_step(-1);
  tc.probes = false;
}

/// Single-thread baseline for the *.speedup metrics: a fresh replayer at
/// one thread on `system`, replayed cold and then warm.
void serial_baseline(const System& system, const tb::TbModel& model,
                     const CalculatorSpec& spec) {
  const int saved = par::max_threads();
  par::set_num_threads(1);
  tbbench::Replayer serial(model, spec);
  tbbench::g_tracer->set_step(kStepSerialCold);
  (void)serial.replay(system);
  tbbench::g_tracer->set_step(kStepSerial);
  (void)serial.replay(system);
  tbbench::g_tracer->set_step(-1);
  par::set_num_threads(saved);
}

/// Replay agreement over every traced calculator of a run.
struct ReplayTally {
  double max_df = 0.0;
  double max_de = 0.0;
  long replays = 0;
  std::map<std::string, bool> bitwise;  ///< engine name -> all bit-equal

  void add(const TracedCalculator& tc, const std::string& engine) {
    max_df = std::max(max_df, tc.max_df);
    max_de = std::max(max_de, tc.max_de);
    replays += tc.replays;
    auto it = bitwise.try_emplace(engine, true).first;
    it->second = it->second && tc.all_bitwise;
  }

  void record(Run& run) const {
    run.check_le("replay_force_agreement_eV_A", max_df, kReplayForceTol);
    run.check_le("replay_energy_agreement_eV", max_de, kReplayEnergyTol);
    for (long k = 0; k < replays; ++k) run.op(true);
    for (const auto& [engine, same] : bitwise) {
      run.values["replay_bitwise_" + engine] = same ? 1.0 : 0.0;
      if (!same) {
        run.defect("replay of the " + engine +
                   " engine agrees with compute() only to a tolerance, not "
                   "bit for bit");
      }
    }
  }
};

void record_untraced(const std::vector<double>& ms) {
  for (const double v : ms) tbbench::count("trace.untraced_compute_ms", v);
}

/// Timed MD phase of the untraced run: steps until `seconds` have passed
/// and at least `check_step` steps have run.  `step_ok` classifies each
/// step; `at_check` runs right after step `check_step`, outside the timed
/// window, so the output checks see the same frame on any host.
template <typename StepOk, typename AtCheck>
void timed_md(md::MdDriver& driver, double seconds, long check_step, Run& run,
              const StepOk& step_ok, const AtCheck& at_check) {
  const auto t0 = Clock::now();
  double paused = 0.0;
  long steps = 0;
  while (steps < check_step || seconds_since(t0) - paused < seconds) {
    const auto ts = Clock::now();
    driver.step();
    run.step_ms.push_back(1e3 * seconds_since(ts));
    run.op(step_ok());
    if (++steps == check_step) {
      const auto tc = Clock::now();
      at_check();
      paused += seconds_since(tc);
    }
  }
  run.values["steps"] = static_cast<double>(steps);
  run.values["timed_s"] = seconds_since(t0) - paused;
}

// ---------------------------------------------------------------------------
// on_bulk_c216: O(N) NVE of 216-atom diamond carbon.
// ---------------------------------------------------------------------------

void on_bulk_c216(const Options& opt, Run& run) {
  const tb::TbModel model = tb::xwch_carbon();
  const CalculatorSpec spec = CalculatorSpec::order_n(1e-6);
  const std::uint64_t vel_seed = derive_seed(opt.seed, 1);
  const md::MdOptions mdopt(1.0);
  par::set_num_threads(opt.threads);

  const auto make_system = [&] {
    auto s = std::make_unique<System>(
        structures::diamond(Element::C, 3.567, 3, 3, 3));
    md::maxwell_boltzmann_velocities(*s, 300.0, vel_seed);
    return s;
  };

  if (opt.trace) {
    auto system = make_system();
    record_untraced(
        untraced_compute_ms(*system, model, spec, mdopt, kUntracedSteps));
    auto calc = make_calculator(model, *system, spec);
    tbbench::Replayer replayer(model, spec);
    TracedCalculator tc(*calc, &replayer);
    md::MdDriver driver(*system, tc, mdopt);
    long step_id = 0;
    traced_steps(driver, tc, opt.seconds, 1000000, step_id);
    serial_baseline(*system, model, spec);
    ReplayTally tally;
    tally.add(tc, spec.mode_name());
    tally.record(run);
    return;
  }

  // Set-up kSetups times (cold calculator, cold pattern cache, workspace
  // growth); the last one runs the timed phase.
  std::unique_ptr<System> system;
  std::unique_ptr<Calculator> calc;
  std::unique_ptr<md::MdDriver> driver;
  for (int k = 0; k < kSetups; ++k) {
    driver.reset();
    const auto t0 = Clock::now();
    system = make_system();
    calc = make_calculator(model, *system, spec);
    driver = std::make_unique<md::MdDriver>(*system, *calc, mdopt);
    run.setup_s.push_back(seconds_since(t0));
  }

  auto* on = dynamic_cast<onx::OrderNCalculator*>(calc.get());
  TBMD_REQUIRE(on != nullptr, "on_bulk_c216: expected the O(N) engine");
  const double h0 = driver->conserved_quantity();
  double h_check = h0;
  System frame;
  std::vector<Vec3> on_forces;
  auto rs = on->recovery_stats();
  const onx::BsrWorkspace::SpmmStats spmm0 = on->spmm_stats();
  timed_md(
      *driver, opt.seconds, kBulkCheckStep, run,
      [&] {
        const auto& now = on->recovery_stats();
        const bool ok = now.unconverged_steps == rs.unconverged_steps &&
                        now.fp64_retries == rs.fp64_retries &&
                        now.tighten_retries == rs.tighten_retries &&
                        now.exact_fallbacks == rs.exact_fallbacks &&
                        now.failures == rs.failures;
        rs = now;
        return ok;
      },
      [&] {
        h_check = driver->conserved_quantity();
        frame = *system;
        on_forces = driver->last_result().forces;
      });
  // The calculator's own SpMM pattern-cache counts, to cross-check the
  // traced run's onx.pattern_reuse.
  run.values["spmm_symbolic_builds"] = static_cast<double>(
      on->spmm_stats().symbolic_builds - spmm0.symbolic_builds);
  run.values["spmm_numeric_reuses"] = static_cast<double>(
      on->spmm_stats().numeric_reuses - spmm0.numeric_reuses);
  const double n = static_cast<double>(system->size());
  const double drift = 1e3 * std::fabs(h_check - h0) / n;
  run.values["drift_meV_atom"] = drift;
  run.check_le("drift_meV_atom", drift, kBulkDriftBound);

  // O(N) forces against exact diagonalization on the check frame.
  auto exact = make_calculator(model, frame, CalculatorSpec::exact());
  const ForceResult ref = exact->compute(frame);
  const double err = max_force_diff(on_forces, ref.forces);
  run.values["force_err_max"] = err;
  run.check_le("force_err_max_eV_A", err, kForceErrGate);
  if (err > kForceErrReadme) {
    std::ostringstream os;
    os << "force_err_max " << err << " eV/A on the frame after "
       << kBulkCheckStep << " steps exceeds the " << kForceErrReadme
       << " eV/A README/ROADMAP figure for drop tolerance 1e-6";
    run.defect(os.str());
  }
}

// ---------------------------------------------------------------------------
// exact_tube_edge: open (10,0) tube, relax, then hot Nose-Hoover MD.
// ---------------------------------------------------------------------------

std::unique_ptr<System> open_tube() {
  auto s = std::make_unique<System>(
      structures::nanotube(Element::C, 10, 0, 1.42, 5, /*periodic=*/false));
  double zmin = s->positions()[0].z;
  for (const Vec3& r : s->positions()) zmin = std::min(zmin, r.z);
  for (std::size_t i = 0; i < s->size(); ++i) {
    if (s->positions()[i].z < zmin + 0.5) s->set_frozen(i, true);
  }
  return s;
}

std::vector<Vec3> frozen_positions(const System& s) {
  std::vector<Vec3> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.frozen(i)) out.push_back(s.positions()[i]);
  }
  return out;
}

void exact_tube_edge(const Options& opt, Run& run) {
  const tb::TbModel model = tb::xwch_carbon();
  CalculatorSpec spec = CalculatorSpec::exact();
  spec.electronic_temperature = 2000.0;
  spec.report_eigenvalues = false;
  const std::uint64_t vel_seed = derive_seed(opt.seed, 2);
  const md::MdOptions mdopt(1.0, md::ThermostatSpec::nose_hoover(2500.0));
  relax::RelaxOptions ropt;
  ropt.force_tolerance = kTubeForceTolerance;
  par::set_num_threads(opt.threads);

  std::unique_ptr<System> tube;
  std::unique_ptr<Calculator> calc;
  for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k) {
    calc.reset();
    const auto t0 = Clock::now();
    tube = open_tube();
    calc = make_calculator(model, *tube, spec);
    (void)calc->compute(*tube);
    run.setup_s.push_back(seconds_since(t0));
  }
  const std::vector<Vec3> frozen0 = frozen_positions(*tube);
  run.values["frozen_atoms"] = static_cast<double>(frozen0.size());

  std::unique_ptr<tbbench::Replayer> replayer;
  std::unique_ptr<TracedCalculator> tc;
  Calculator* active = calc.get();
  if (opt.trace) {
    replayer = std::make_unique<tbbench::Replayer>(model, spec);
    tc = std::make_unique<TracedCalculator>(*calc, replayer.get());
    active = tc.get();
  }

  relax::RelaxResult rr;
  const auto tr = Clock::now();
  {
    SpanScope s("relax.fire");
    rr = relax::fire_relax(*tube, *active, ropt);
  }
  run.values["relax_s"] = seconds_since(tr);
  run.values["relax_force_calls"] = static_cast<double>(rr.force_calls);
  run.values["relax_max_force"] = rr.max_force;
  tbbench::count("relax.force_calls", static_cast<double>(rr.force_calls));
  run.op(rr.converged);
  run.check("relax_converged", rr.max_force, kTubeForceTolerance,
            rr.converged && rr.max_force <= kTubeForceTolerance);

  md::maxwell_boltzmann_velocities(*tube, 2500.0, vel_seed);
  if (opt.trace) {
    record_untraced(
        untraced_compute_ms(*tube, model, spec, mdopt, kUntracedSteps));
    md::MdDriver driver(*tube, *active, mdopt);
    long step_id = 0;
    traced_steps(driver, *tc, opt.seconds, 1000000, step_id);
    serial_baseline(*tube, model, spec);
    ReplayTally tally;
    tally.add(*tc, spec.mode_name());
    tally.record(run);
  } else {
    md::MdDriver driver(*tube, *calc, mdopt);
    const double h0 = driver.conserved_quantity();
    double h_check = h0;
    timed_md(
        driver, opt.seconds, kTubeCheckStep, run, [] { return true; },
        [&] { h_check = driver.conserved_quantity(); });
    const double drift =
        1e3 * std::fabs(h_check - h0) / static_cast<double>(tube->size());
    run.values["drift_meV_atom"] = drift;
    run.check_le("drift_meV_atom", drift, kTubeDriftBound);
  }

  // Bit comparison: a frozen atom must not move by even one ulp.
  const std::vector<Vec3> frozen1 = frozen_positions(*tube);
  std::size_t moved = frozen0.empty() ? 1 : 0;
  for (std::size_t i = 0; i < frozen0.size(); ++i) {
    if (i >= frozen1.size() ||
        std::memcmp(&frozen0[i], &frozen1[i], sizeof(Vec3)) != 0) {
      ++moved;
    }
  }
  run.check_le("frozen_ring_atoms_moved", static_cast<double>(moved), 0.0);
}

// ---------------------------------------------------------------------------
// sweep_small_jobs: 12 short jobs through svc::JobRunner.
// ---------------------------------------------------------------------------

constexpr int kSweepWorkers = 2;
constexpr long kSweepReplicas = 4;
constexpr long kSweepMinBatches = 2;

/// Write the three job specs and the sweep file and return the sweep file's
/// path; seeds come from the workload seed (replica k: its seed + k).
std::string write_sweep(const Options& opt, const fs::path& dir, int threads) {
  fs::create_directories(dir);
  struct Job {
    const char* name;
    const char* body;
    std::uint64_t salt;
  };
  const Job jobs[] = {
      {"si64_exact",
       "structure = diamond\nelement = Si\ncells = 2 2 2\nmode = exact\n"
       "temperature = 1200\n",
       11},
      {"c60_exact",
       "structure = c60\nelement = C\nmode = exact\ntemperature = 2000\n", 12},
      {"c64_on",
       "structure = diamond\nelement = C\ncells = 2 2 2\nmode = on\n"
       "drop_tolerance = 1e-6\ntemperature = 600\n",
       13},
  };
  std::string list;
  for (const Job& j : jobs) {
    std::ofstream os(dir / (std::string(j.name) + ".cfg"), std::ios::trunc);
    os << "name = " << j.name << "\n"
       << j.body << "threads = " << threads << "\n"
       << "dt = 1.0\nsteps = 80\ncheckpoint_every = 10\nsample_every = 5\n"
       << "seed = " << derive_seed(opt.seed, j.salt) << "\n";
    list += std::string(list.empty() ? "" : " ") + j.name + ".cfg";
  }
  const std::string path = (dir / "sweep.cfg").string();
  std::ofstream os(path, std::ios::trunc);
  os << "jobs = " << list << "\nworkers = " << kSweepWorkers
     << "\nreplicas = " << kSweepReplicas << "\nresume = false\n";
  return path;
}

svc::SweepOptions sweep_options(const svc::Sweep& sw, const fs::path& out,
                                int threads) {
  svc::SweepOptions o;
  o.workers = sw.workers;
  o.output_dir = out.string();
  o.resume = sw.resume;
  o.threads = threads;
  o.verbose = false;
  o.max_job_retries = sw.max_job_retries;
  o.retry_backoff_s = sw.retry_backoff_s;
  o.step_watchdog_s = sw.step_watchdog_s;
  return o;
}

/// A job's generated initial state: structure plus seeded velocities.
System initial_state(const svc::JobSpec& spec) {
  System s = spec.build_system();
  md::maxwell_boltzmann_velocities(s, spec.temperature, spec.seed);
  return s;
}

/// Total (kinetic + potential) energy from a fresh calculator.
double total_energy(const svc::JobSpec& spec, const System& s) {
  return s.kinetic_energy() + spec.make_calculator(s)->compute(s).energy;
}

void sweep_small_jobs(const Options& opt, Run& run) {
  const int threads = opt.threads;
  const fs::path root = fs::path(opt.out_dir) / "sweep";
  fs::remove_all(root);
  const std::string sweep_path = write_sweep(opt, root / "spec", threads);
  run.values["workers"] = kSweepWorkers;
  run.values["threads_per_job"] = threads;

  // Set-up: from load_sweep until the first job is ready for its first
  // step (calculator built, first force call, frame 0 written); a step
  // budget of 0 stops the runner right there.
  for (int k = 0; k < (opt.trace ? 1 : kSweepSetups); ++k) {
    const auto t0 = Clock::now();
    const svc::Sweep sw = svc::load_sweep(sweep_path);
    svc::SweepOptions o =
        sweep_options(sw, root / ("setup" + std::to_string(k)), threads);
    o.workers = 1;
    o.step_budget = 0;
    svc::JobRunner runner({sw.jobs.front()}, o);
    (void)runner.run();
    run.setup_s.push_back(seconds_since(t0));
  }

  // Timed phase: whole batches, as many as fit in `seconds` but at least
  // kSweepMinBatches, since one batch's makespan swings with how the two
  // workers' jobs happen to overlap.
  std::vector<svc::JobResult> last;
  svc::Sweep last_sweep;
  fs::path last_out;
  double makespan = 0.0;
  long batches = 0;
  long steps = 0;
  double job_wall = 0.0;
  while (batches < (opt.trace ? 1 : kSweepMinBatches) ||
         (!opt.trace &&
          makespan * static_cast<double>(batches + 1) /
                  static_cast<double>(batches) <=
              opt.seconds)) {
    const fs::path out = root / ("batch" + std::to_string(batches));
    const auto t0 = Clock::now();
    svc::Sweep sw = svc::load_sweep(sweep_path);
    svc::JobRunner runner(sw.jobs, sweep_options(sw, out, threads));
    last = runner.run();
    const double span = seconds_since(t0);
    makespan += span;
    ++batches;
    for (const svc::JobResult& r : last) {
      const bool ok =
          r.status == svc::JobStatus::kCompleted && r.attempts == 1;
      run.op(ok);
      steps += r.steps_run;
      job_wall += r.wall_seconds;
      if (r.steps_run > 0) {
        run.step_ms.push_back(1e3 * r.wall_seconds /
                              static_cast<double>(r.steps_run));
      }
      tbbench::count("svc.job_s", r.wall_seconds);
    }
    tbbench::count("svc.worker_idle_frac",
                   1.0 - job_wall / (kSweepWorkers * span));
    job_wall = 0.0;
    last_sweep = std::move(sw);
    last_out = out;
  }
  run.values["batches"] = static_cast<double>(batches);
  run.values["jobs"] = static_cast<double>(run.attempted);
  run.values["steps"] = static_cast<double>(steps);
  run.values["timed_s"] = makespan;

  // Output checks on the last batch: every job completed on its first
  // attempt; its final energy matches both the generated initial state's
  // energy (NVE) and a fresh force call on its final checkpoint.
  const int saved = par::max_threads();
  par::set_num_threads(threads);
  std::size_t bad_jobs = last_sweep.jobs.size() - last.size();
  double worst_drift = 0.0;
  double worst_ckpt = 0.0;
  for (std::size_t i = 0; i < last.size(); ++i) {
    const svc::JobResult& r = last[i];
    const svc::JobSpec& spec = last_sweep.jobs[i];
    if (r.status != svc::JobStatus::kCompleted || r.attempts != 1 ||
        r.steps_done != spec.steps) {
      ++bad_jobs;
    }
    const System s0 = initial_state(spec);
    worst_drift = std::max(
        worst_drift, 1e3 * std::fabs(r.final_energy - total_energy(spec, s0)) /
                         static_cast<double>(s0.size()));
    const svc::Checkpoint ck =
        svc::read_checkpoint((last_out / (spec.name + ".ckpt")).string());
    worst_ckpt = std::max(
        worst_ckpt, std::fabs(total_energy(spec, ck.system) - r.final_energy));
  }
  par::set_num_threads(saved);
  run.check_le("jobs_not_completed_first_attempt",
               static_cast<double>(bad_jobs), 0.0);
  run.values["drift_meV_atom"] = worst_drift;
  run.check_le("job_energy_vs_initial_meV_atom", worst_drift,
               kSweepDriftBound);
  run.check_le("job_energy_vs_checkpoint_eV", worst_ckpt, kCkptEnergyTol);

  if (!opt.trace) return;

  // --- traced replays of the service layer -------------------------------
  par::set_num_threads(threads);
  for (const svc::JobSpec& spec : last_sweep.jobs) {
    const System s = initial_state(spec);
    SpanScope span("svc.job_setup");
    auto calc = spec.make_calculator(s);
    (void)calc->compute(s);
  }
  {
    const svc::JobSpec& spec = last_sweep.jobs.front();
    const svc::Checkpoint ck =
        svc::read_checkpoint((last_out / (spec.name + ".ckpt")).string());
    const fs::path probe = root / "ckpt_probe.ckpt";
    for (int k = 0; k < 5; ++k) {
      SpanScope span("svc.ckpt_write");
      svc::write_checkpoint(probe.string(), ck);
    }
    tbbench::count("svc.ckpt_bytes",
                   static_cast<double>(fs::file_size(probe)));
  }

  // One traced MD segment per job kind (first replica of each), with the
  // job's own cadence of trajectory frames.
  long step_id = 0;
  ReplayTally tally;
  for (std::size_t i = 0; i < last_sweep.jobs.size(); i += kSweepReplicas) {
    const svc::JobSpec& spec = last_sweep.jobs[i];
    const tb::TbModel model = tb::model_by_name(spec.resolved_model());
    System s = initial_state(spec);
    const md::MdOptions mdopt(spec.dt);
    record_untraced(untraced_compute_ms(s, model, spec.calc, mdopt,
                                        2 * spec.sample_every));
    auto calc = spec.make_calculator(s);
    tbbench::Replayer replayer(model, spec.calc);
    TracedCalculator tc(*calc, &replayer);
    md::MdDriver driver(s, tc, mdopt);
    const fs::path traj = root / (spec.name + "_probe.tbt");
    // Frame 0 is written untimed, as the runner writes it at job start.
    io::BinaryTrajectoryWriter writer(traj.string(), s);
    writer.add_frame(s, 0);
    writer.flush();
    const auto bytes0 = fs::file_size(traj);
    long frames = 0;
    for (int chunk = 0; chunk < 2; ++chunk) {
      traced_steps(driver, tc, 1e9, spec.sample_every, step_id);
      SpanScope span("io.tbt_frame");
      writer.add_frame(s, driver.step_count());
      ++frames;
    }
    writer.flush();
    tbbench::count("io.tbt_bytes_per_frame",
                   static_cast<double>(fs::file_size(traj) - bytes0) /
                       static_cast<double>(frames));
    serial_baseline(s, model, spec.calc);
    tally.add(tc, spec.calc.mode_name());
  }
  tally.record(run);
  par::set_num_threads(saved);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "tbbench_driver: " << why << "\n"
            << "usage: tbbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  const int nproc = online_cpus();

  // Guards: a benchmark of an unoptimized build, or one that asks for more
  // threads than there are cores, measures the scheduler, not the engine.
  const std::string build_type = TBBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    std::cerr << "tbbench_driver: refusing to run: build type is '"
              << build_type << "'" << (asserts_on ? " with asserts on" : "")
              << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  // Thread budget: workers x threads per worker never exceeds the CPUs
  // this process may run on.
  const int workers = opt.workload == "sweep_small_jobs" ? kSweepWorkers : 1;
  opt.threads = nproc / workers;
  if (opt.threads < 1) {
    std::cerr << "tbbench_driver: refusing to run: " << workers
              << " workers x 1 thread exceed the " << nproc
              << " available CPU(s)\n";
    return 3;
  }

  Run run;
  tbbench::Tracer tracer;
  if (opt.trace) tbbench::g_tracer = &tracer;
  fs::create_directories(opt.out_dir);
  const auto t_start = Clock::now();
  try {
    if (opt.workload == "on_bulk_c216") {
      on_bulk_c216(opt, run);
    } else if (opt.workload == "exact_tube_edge") {
      exact_tube_edge(opt, run);
    } else if (opt.workload == "sweep_small_jobs") {
      sweep_small_jobs(opt, run);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "tbbench_driver: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  const double wall = seconds_since(t_start);
  tbbench::g_tracer = nullptr;

  std::string trace_path;
  if (opt.trace) {
    trace_path = (fs::path(opt.out_dir) / "trace.json").string();
    tracer.write_json(trace_path);
  }

  Json ctx;
  ctx.num("nproc", nproc)
      .str("cpu_model", cpu_model())
      .num("l2_bytes", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)))
      .num("l3_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)))
      .str("OMP_NUM_THREADS", env_or("OMP_NUM_THREADS", "unset"))
      .str("OMP_WAIT_POLICY", env_or("OMP_WAIT_POLICY", "unset"))
      .str("OMP_PROC_BIND", env_or("OMP_PROC_BIND", "unset"))
      .str("build_type", build_type)
      .str("TBMD_NATIVE", TBBENCH_NATIVE)
      .boolean("openmp", par::openmp_enabled())
      .num("workers", workers)
      .num("threads_per_worker", opt.threads);

  Json values;
  for (const auto& [k, v] : run.values) values.num(k, v);
  values.num("peak_rss_mb", peak_rss_mb()).num("wall_s", wall);

  std::string checks = "[";
  for (std::size_t i = 0; i < run.checks.size(); ++i) {
    const Check& c = run.checks[i];
    Json j;
    j.str("name", c.name).num("value", c.value).num("bound", c.bound)
        .boolean("ok", c.ok);
    checks += (i ? ", " : "") + j.done();
  }
  checks += "]";
  std::string defects = "[";
  for (std::size_t i = 0; i < run.known_defects.size(); ++i) {
    defects += (i ? ", " : "") + Json::quoted(run.known_defects[i]);
  }
  defects += "]";

  Json out;
  out.str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .boolean("trace", opt.trace)
      .raw("context", ctx.done())
      .array("step_ms", run.step_ms)
      .array("setup_s", run.setup_s)
      .raw("values", values.done())
      .num("attempted", static_cast<double>(run.attempted))
      .num("failed", static_cast<double>(run.failed))
      .raw("checks", checks)
      .raw("known_defects", defects)
      .str("trace_file", trace_path);
  std::cout << out.done() << std::endl;
  return 0;
}
