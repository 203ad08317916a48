"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public functions where callers look them
up: sgslab modules use ``from .x import f``, so a wrapper is installed on
every sgslab module (and class) that holds the function, not only on the
defining module. Each wrapped call records a span (name, start, end,
parent id, repetition) in flat arrays kept in memory; ``summarize`` turns
them into per-repetition layer metrics, with a span's self time being its
duration minus the time covered by its child spans. ``trace.self_share`` is
the share of a repetition spent in the self time of spans that do named
work, which leaves out the repetition and the ``DRIVERS``: time in
unwrapped code called straight from a driver lowers it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

ROOT_SPAN = "bench.repetition"
LAYERS = (
    "pauli_core", "hamiltonians", "circuit_engine", "noise_engine",
    "sgs_pipeline", "spectra_oracle", "cli",
)
# Spans that only drive the others: their self time is glue and unwrapped
# helpers, so trace.self_share leaves it out.
DRIVERS = ("cli.main", "sgs_pipeline.run_experiment")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _run_circuit_span(args, kwargs) -> str:
    with_state = _arg(args, kwargs, 1, "state") is not None
    return "circuit_engine.series" if with_state else "circuit_engine.prefix"


def _run_noisy_span(args, kwargs) -> str:
    with_state = _arg(args, kwargs, 2, "initial") is not None
    return "noise_engine.series" if with_state else "noise_engine.prefix"


def _count_gates(tracer, name, args, kwargs, result) -> None:
    gates = len(_arg(args, kwargs, 0, "circuit").gates)
    tracer.count(name + ".gates", gates)
    if name.startswith("circuit_engine.") and tracer.inside("sgs_pipeline.auto_time_window"):
        tracer.count("circuit_engine.pilot.gates", gates)


def _count_shots(tracer, name, args, kwargs, result) -> None:
    tracer.count(name + ".shots", int(_arg(args, kwargs, 2, "shots")))


def _count_omegas(tracer, name, args, kwargs, result) -> None:
    tracer.count(name + ".omegas", int(result.omegas.size))


def _count_words(tracer, name, args, kwargs, result) -> None:
    tracer.count(name + ".words", len(result))


# (defining module, attribute or Class.method, span name or namer, after-call hook)
SPANS = (
    ("sgslab.pauli_core", "apply_pauli", "pauli_core.apply_pauli", None),
    ("sgslab.pauli_core", "QubitHamiltonian.to_dense", "pauli_core.to_dense", None),
    ("sgslab.hamiltonians", "build_ising", "hamiltonians.build", None),
    ("sgslab.hamiltonians", "ising_auxiliary", "hamiltonians.build", None),
    ("sgslab.hamiltonians", "load_qubit_hamiltonian", "hamiltonians.build", None),
    ("sgslab.hamiltonians", "load_fermion_hamiltonian", "hamiltonians.build", None),
    ("sgslab.hamiltonians", "jordan_wigner", "hamiltonians.build", None),
    ("sgslab.circuit_engine", "run_circuit", _run_circuit_span, _count_gates),
    ("sgslab.circuit_engine", "trotter_step", "circuit_engine.build", None),
    ("sgslab.circuit_engine", "adiabatic_circuit", "circuit_engine.build", None),
    ("sgslab.circuit_engine", "compile_native", "circuit_engine.build", None),
    ("sgslab.circuit_engine", "sample_expectation", "circuit_engine.sample_expectation",
     _count_shots),
    ("sgslab.noise_engine", "run_noisy", _run_noisy_span, _count_gates),
    ("sgslab.noise_engine", "sample_expectation_noisy",
     "noise_engine.sample_expectation_noisy", None),
    ("sgslab.sgs_pipeline", "run_experiment", "sgs_pipeline.run_experiment", None),
    ("sgslab.sgs_pipeline", "auto_time_window", "sgs_pipeline.auto_time_window", None),
    ("sgslab.sgs_pipeline", "frequency_grid_search", "sgs_pipeline.frequency_grid_search",
     _count_omegas),
    ("sgslab.sgs_pipeline", "fit_gap", "sgs_pipeline.fit_gap", None),
    ("sgslab.sgs_pipeline", "select_aux_pair", "sgs_pipeline.prepare", None),
    ("sgslab.sgs_pipeline", "prepare_sgs0_basis_pair", "sgs_pipeline.prepare", None),
    ("sgslab.spectra_oracle", "exact_spectrum", "spectra_oracle.exact_spectrum", None),
    ("sgslab.spectra_oracle", "benchmark_gap", "spectra_oracle.benchmark_gap", None),
    ("sgslab.spectra_oracle", "observable_search", "spectra_oracle.observable_search",
     _count_words),
    ("sgslab.spectra_oracle", "search_report_csv", "spectra_oracle.search_report_csv", None),
    ("sgslab.cli", "main", "cli.main", None),
)
# Wrapped for a count only: their time stays with the calling span.
COUNTED = (
    ("sgslab.sgs_pipeline", "curve_fit", "sgs_pipeline.curve_fit.calls"),
)


# What each layer metric should move, written down before measuring:
# metric prefix -> (end-to-end metrics, workload it moves on, workloads it
# should move little or not at all on).
EXPECTED = {
    "circuit_engine.series": ("study_norm_s", "molecule_he2", "oracle_search"),
    "circuit_engine.prefix": ("study_norm_s", "molecule_he2", "oracle_search"),
    "circuit_engine.pilot_gate_share": ("study_norm_s", "molecule_he2", "oracle_search"),
    "circuit_engine.build": ("study_norm_s", "ising_sweep", "oracle_search"),
    "circuit_engine.sample_expectation": ("study_norm_s", "ising_sweep", "oracle_search"),
    "sgs_pipeline.auto_time_window": ("study_norm_s", "molecule_he2", "oracle_search"),
    "sgs_pipeline.frequency_grid_search": ("study_norm_s", "ising_sweep", "molecule_he2"),
    "sgs_pipeline.fit_gap.self_s": ("study_norm_s", "ising_sweep", "molecule_he2"),
    "sgs_pipeline.fit_gap.starts_per_fit":
        ("gap_rel_err_max", "noisy_aria", "oracle_search"),
    "sgs_pipeline.fit_gap.rel_err_max": ("gap_rel_err_max", "noisy_aria", "oracle_search"),
    "sgs_pipeline.fit_gap.pull_median": ("gap_rel_err_max", "noisy_aria", "oracle_search"),
    "noise_engine": ("study_norm_s, study_rss_mb", "noisy_aria", "all others"),
    "spectra_oracle.exact_spectrum": ("study_norm_s", "oracle_search", "ising_sweep"),
    "spectra_oracle.observable_search": ("study_norm_s", "oracle_search", "all others"),
    "pauli_core": ("study_norm_s", "oracle_search, molecule_he2", "ising_sweep"),
    "hamiltonians.build": ("study_norm_s", "none expected", "all"),
    "cli.main.self_s": ("study_norm_s", "ising_sweep", "molecule_he2"),
    "layer.": ("study_norm_s", "the workload whose layer it is", "-"),
    "trace.": ("none (reported only)", "all", "-"),
}


class Tracer:
    """Span recorder. One instance per traced process; spans live in flat
    arrays so that hundreds of thousands of them stay small."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: list[int] = []  # open spans per name id
        self.current_rep = 0
        self.counts: dict[int, Counter] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, name: str) -> int:
        return self._open_id(self.name_id(name))

    def _open_id(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.current_rep)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()
        self._depth[self.name[sid]] -= 1

    def inside(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and self._depth[nid] > 0

    def count(self, key: str, amount=1) -> None:
        self.counts.setdefault(self.current_rep, Counter())[key] += amount

    def wrap(self, fn, span, hook=None):
        """``fn`` recording one span per call; ``span`` is a name or a
        function of the call's (args, kwargs) that returns one."""
        open_id, close, name_id = self._open_id, self.close, self.name_id
        namer = span if callable(span) else (lambda args, kwargs: span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            sid = open_id(name_id(name))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    def counting(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    # --- installing wrappers where callers look the functions up ------------

    def install(self) -> None:
        # import every module first, so each one's references are found and restored
        importlib.import_module("sgslab.cli")
        for module_name, attr, span, hook in SPANS:
            self._replace(module_name, attr, lambda fn, s=span, h=hook: self.wrap(fn, s, h))
        for module_name, attr, key in COUNTED:
            self._replace(module_name, attr, lambda fn, k=key: self.counting(fn, k))

    def _replace(self, module_name: str, attr: str, make) -> None:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = make(original)
        self._set(owner, leaf, wrapper)
        if path:
            return  # a method: every caller reaches it through the class
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "sgslab"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # --- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rep": np.frombuffer(self.rep, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def summarize(tracer: Tracer) -> list[dict[str, float]]:
    """Layer metrics of each repetition, in repetition order."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    k = len(tracer.names)
    out = []
    for rep in np.unique(a["rep"]):
        sel = a["rep"] == rep
        names = a["name"][sel]
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own[sel], minlength=k)
        outer = sel & (a["outer"] == 1)
        incl = np.bincount(a["name"][outer], weights=duration[outer], minlength=k)
        by = {n: (int(calls[i]), float(incl[i]), float(self_s[i]))
              for i, n in enumerate(tracer.names)}
        counts = tracer.counts.get(int(rep), Counter())
        out.append(_rep_metrics(by, counts, int(sel.sum())))
    return out


def _rep_metrics(by: dict, counts: Counter, spans: int) -> dict[str, float]:
    def calls(n):
        return by.get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return by.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return by.get(n, (0, 0.0, 0.0))[2]

    sv_gates = counts["circuit_engine.series.gates"] + counts["circuit_engine.prefix.gates"]
    fits = calls("sgs_pipeline.fit_gap")
    m = {
        "circuit_engine.series.s": incl("circuit_engine.series"),
        "circuit_engine.series.calls": calls("circuit_engine.series"),
        "circuit_engine.series.gates": counts["circuit_engine.series.gates"],
        "circuit_engine.prefix.s": incl("circuit_engine.prefix"),
        "circuit_engine.prefix.gates": counts["circuit_engine.prefix.gates"],
        "circuit_engine.pilot_gate_share":
            counts["circuit_engine.pilot.gates"] / sv_gates if sv_gates else 0.0,
        "circuit_engine.build.s": incl("circuit_engine.build"),
        "circuit_engine.sample_expectation.s": incl("circuit_engine.sample_expectation"),
        "circuit_engine.sample_expectation.shots":
            counts["circuit_engine.sample_expectation.shots"],
        "sgs_pipeline.auto_time_window.s": incl("sgs_pipeline.auto_time_window"),
        "sgs_pipeline.frequency_grid_search.s": incl("sgs_pipeline.frequency_grid_search"),
        "sgs_pipeline.frequency_grid_search.calls": calls("sgs_pipeline.frequency_grid_search"),
        "sgs_pipeline.frequency_grid_search.omegas":
            counts["sgs_pipeline.frequency_grid_search.omegas"],
        "sgs_pipeline.fit_gap.self_s": own("sgs_pipeline.fit_gap"),
        "sgs_pipeline.fit_gap.starts_per_fit":
            counts["sgs_pipeline.curve_fit.calls"] / fits if fits else 0.0,
        "noise_engine.series.s": incl("noise_engine.series"),
        "noise_engine.series.calls": calls("noise_engine.series"),
        "noise_engine.series.gates": counts["noise_engine.series.gates"],
        "noise_engine.prefix.s": incl("noise_engine.prefix"),
        "noise_engine.sample_expectation_noisy.s":
            incl("noise_engine.sample_expectation_noisy"),
        "spectra_oracle.exact_spectrum.s": incl("spectra_oracle.exact_spectrum"),
        "spectra_oracle.exact_spectrum.calls": calls("spectra_oracle.exact_spectrum"),
        "spectra_oracle.observable_search.s": incl("spectra_oracle.observable_search"),
        "spectra_oracle.observable_search.words":
            counts["spectra_oracle.observable_search.words"],
        "pauli_core.apply_pauli.calls": calls("pauli_core.apply_pauli"),
        "pauli_core.apply_pauli.s": incl("pauli_core.apply_pauli"),
        "pauli_core.to_dense.s": incl("pauli_core.to_dense"),
        "hamiltonians.build.s": incl("hamiltonians.build"),
        "cli.main.self_s": own("cli.main"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in by.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += s
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_s"] = s
    rep_s = incl(ROOT_SPAN)
    named_self = sum(layer_self.values()) - sum(own(n) for n in DRIVERS)
    m["trace.self_share"] = named_self / rep_s if rep_s else 0.0
    m["trace.study_s"] = rep_s
    m["trace.spans"] = spans
    return m
