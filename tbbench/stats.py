"""Statistics of the TBMD benchmark: end-to-end metrics from a run's raw
samples, per-layer metrics from a traced run's spans, and the check of
metric and workload names against BENCHMARK.json.

Every function here is pure; test_stats.py exercises them.
"""

import statistics

# Step ids the driver stamps on spans and counters (see trace.hpp):
# >= 0 is an MD step of the traced phase, -1 is outside the MD phase
# (set-up, relaxation), -2 the warm single-thread baseline replay and -3
# its cold predecessor.
STEP_SERIAL = -2


def median(values):
    return statistics.median(values)


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n).  With n >= 11 samples sorted ascending,
    the value is the (n-10)-th smallest: exactly ten samples lie above it,
    and its percentile is 100 * (n - 10) / n.  With fewer than 11 samples no
    percentile has ten samples beyond it; the rule then falls back to the
    smallest sample (percentile 100 / n), so the number is still defined
    and its label says how weak it is.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def failed_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def end_to_end(raw):
    """End-to-end metrics of one untraced run (values in their units)."""
    v = raw["values"]
    p50 = median(raw["step_ms"])
    tail_ms, tail_pct, n = tail(raw["step_ms"])
    metrics = {
        "steps_per_s": v["steps"] / v["timed_s"],
        "step_ms_p50": p50,
        "step_ms_tail": tail_ms,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": v["peak_rss_mb"],
    }
    labels = {"step_ms_tail": "p%.1f of n=%d" % (tail_pct, n),
              "step_ms_p50": "n=%d" % n,
              "setup_s": "median of n=%d" % len(raw["setup_s"])}
    return metrics, labels


def workload_metrics(raw):
    """End-to-end metrics that exist on one workload only (printed, not
    part of BENCHMARK.json; see README.md)."""
    v = raw["values"]
    out = {"failed_frac": (failed_frac(raw["attempted"], raw["failed"]),
                           "frac")}
    if "drift_meV_atom" in v:
        out["drift_meV_atom"] = (v["drift_meV_atom"], "meV/atom")
    if "relax_s" in v:
        out["relax_s"] = (v["relax_s"], "s")
    if "force_err_max" in v:
        out["force_err_max"] = (v["force_err_max"], "eV/A")
    if raw["workload"] == "sweep_small_jobs":
        out["jobs_per_min"] = (60.0 * v["jobs"] / v["timed_s"], "1/min")
    return out


class Trace:
    """Spans and counters of one traced run, indexed for aggregation."""

    def __init__(self, doc):
        self.spans = [(s[0], (s[2] - s[1]) * 1e-6, s[3], s[4])
                      for s in doc["spans"]]  # name, ms, parent, step
        self.children_ms = [0.0] * len(self.spans)
        for name, ms, parent, step in self.spans:
            if parent >= 0:
                self.children_ms[parent] += ms
        self.counters = [(c[0], c[1], c[2]) for c in doc["counters"]]

    def durations(self, name, md_only=True, step=None):
        return [ms for n, ms, _, s in self.spans
                if n == name and (s == step if step is not None
                                  else (s >= 0 or not md_only))]

    def self_times(self, name, md_only=True):
        return [ms - self.children_ms[i]
                for i, (n, ms, _, s) in enumerate(self.spans)
                if n == name and (s >= 0 or not md_only)]

    def values(self, name, md_only=True):
        return [v for n, v, s in self.counters
                if n == name and (s >= 0 or not md_only)]

    def frames(self):
        return len(self.durations("replay"))

    def per_frame(self, name):
        frames = self.frames()
        return sum(self.durations(name)) / frames if frames else 0.0

    def coverage(self):
        compute = sum(self.durations("calc.compute"))
        covered = sum(self.children_ms[i]
                      for i, (n, _, _, s) in enumerate(self.spans)
                      if n == "replay" and s >= 0)
        return covered / compute if compute > 0 else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _speedup(trace, name):
    serial = trace.durations(name, step=STEP_SERIAL)
    parallel = trace.durations(name)
    if not serial or not parallel:
        return 0.0
    return _mean(serial) / _mean(parallel)


def per_layer(doc):
    """Per-layer metrics of one traced run.  Layer times are means per MD
    force call; a layer the workload does not run reads 0."""
    t = Trace(doc)
    spmm_symbolic = t.values("onx.spmm_symbolic")
    spmm_reuses = t.values("onx.spmm_reuses")
    spmm_calls = sum(spmm_symbolic) + sum(spmm_reuses)
    untraced = t.values("trace.untraced_compute_ms", md_only=False)
    traced = t.durations("calc.compute")
    job_s = t.values("svc.job_s", md_only=False)
    m = {
        "md.self_ms": _mean(t.self_times("md.step")),
        "calc.compute_ms": _mean(traced),
        "neighbor.ms": t.per_frame("neighbor"),
        "neighbor.rebuilds": sum(t.values("neighbor.rebuilds")),
        "tb.bond_table_ms": t.per_frame("tb.bond_table"),
        "tb.bonds": _mean(t.values("tb.bonds")),
        "tb.hamiltonian_ms": t.per_frame("tb.hamiltonian"),
        "tb.occupy_ms": t.per_frame("tb.occupy"),
        "tb.density_ms": t.per_frame("tb.density"),
        "tb.band_forces_ms": t.per_frame("tb.band_forces"),
        "tb.repulsive_ms": t.per_frame("tb.repulsive"),
        "linalg.eigh_ms": t.per_frame("linalg.eigh"),
        "linalg.tridiag_ms": _mean(t.durations("linalg.tridiag")),
        "linalg.tridiag_gflops": _mean(t.values("linalg.tridiag_gflops")),
        "linalg.tridiag_solve_ms": _mean(t.durations("linalg.tridiag_solve")),
        "linalg.backtransform_ms": _mean(t.durations("linalg.backtransform")),
        "linalg.eigenpairs": _mean(t.values("linalg.eigenpairs")),
        "linalg.full_fallbacks": sum(t.values("linalg.full_fallbacks")),
        "linalg.speedup": _speedup(t, "linalg.eigh"),
        "onx.assembly_ms": t.per_frame("onx.assembly"),
        "onx.purify_ms": t.per_frame("onx.purify"),
        "onx.purify_iters": _mean(t.values("onx.purify_iters")),
        "onx.fill": _mean(t.values("onx.fill")),
        "onx.spmm_calls": spmm_calls / t.frames() if t.frames() else 0.0,
        "onx.pattern_reuse": (sum(spmm_reuses) / spmm_calls
                              if spmm_calls else 0.0),
        "onx.spmm_ms": _mean(t.durations("onx.spmm")),
        "onx.spmm_gflops": _mean(t.values("onx.spmm_gflops")),
        "onx.spmm_gbps": _mean(t.values("onx.spmm_gbps")),
        "onx.band_forces_ms": t.per_frame("onx.band_forces"),
        "onx.speedup": _speedup(t, "onx.purify"),
        "relax.force_calls": sum(t.values("relax.force_calls",
                                          md_only=False)),
        "relax.self_ms": sum(t.self_times("relax.fire", md_only=False)),
        "svc.job_s_p50": median(job_s) if job_s else 0.0,
        "svc.worker_idle_frac": _mean(t.values("svc.worker_idle_frac",
                                               md_only=False)),
        "svc.job_setup_ms": _mean(t.durations("svc.job_setup",
                                              md_only=False)),
        "svc.ckpt_write_ms": _mean(t.durations("svc.ckpt_write",
                                               md_only=False)),
        "svc.ckpt_bytes": _mean(t.values("svc.ckpt_bytes", md_only=False)),
        "io.tbt_frame_us": 1e3 * _mean(t.durations("io.tbt_frame",
                                                   md_only=False)),
        "io.tbt_bytes_per_frame": _mean(t.values("io.tbt_bytes_per_frame",
                                                 md_only=False)),
        # Same frames on both sides: the untraced reference runs the first
        # MD steps from the same start.
        "trace.overhead_ms": (_mean(traced[:len(untraced)]) - _mean(untraced)
                              if traced and untraced else 0.0),
        "trace.coverage": t.coverage(),
        "trace.replay_max_df": max(t.values("trace.replay_df",
                                            md_only=False), default=0.0),
        "trace.replay_bitwise": min(t.values("trace.replay_bitwise",
                                             md_only=False), default=0.0),
    }
    return m


def validate_names(bench, workload, metrics, trace):
    """Raise ValueError unless `workload` is a BENCHMARK.json workload and
    `metrics` holds exactly the metrics BENCHMARK.json lists for the mode
    (end_to_end untraced, per_layer traced)."""
    workloads = [w["name"] for w in bench["workloads"]]
    if workload not in workloads:
        raise ValueError("unknown workload %r (BENCHMARK.json has %s)"
                         % (workload, ", ".join(workloads)))
    listed = [m["name"] for m in bench["per_layer" if trace
                                       else "end_to_end"]]
    missing = sorted(set(listed) - set(metrics))
    extra = sorted(set(metrics) - set(listed))
    if missing or extra:
        raise ValueError("metric names differ from BENCHMARK.json: missing %s,"
                         " not listed %s" % (missing, extra))


def units(bench, trace):
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
