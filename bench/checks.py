"""Output checks with an oracle independent of sgslab.

Dense Hamiltonians are built here from literal 2x2 Pauli blocks, straight
from the study config or the Hamiltonian file, never through sgslab's
``QubitHamiltonian.to_dense``; gaps come from ``numpy.linalg.eigvalsh``.
Every point of every repetition is checked; a point that fails is counted,
never raised, so one bad point cannot abort a run.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from workloads import ORACLE_CHAIN, ORACLE_H3, SEARCH_CHAIN, SEARCH_H3, Workload

GAP_TOL = 1e-9  # relative agreement of a reported gap_exact with the oracle
RHO_TOL = 1e-9

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(word: str) -> np.ndarray:
    return reduce(np.kron, [SIGMA[c] for c in word])


def dense_hamiltonian(terms: list[tuple[float, str]]) -> np.ndarray:
    n = len(terms[0][1])
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, word in terms:
        out += coeff * dense_word(word)
    return out


def ising_chain_terms(length: int, j1: float, h3: float) -> list[tuple[float, str]]:
    """H = -(J1/2) sum X_i X_{i+1} - (h3/2) sum Z_i on a periodic chain."""
    bonds = {tuple(sorted((i, (i + 1) % length))) for i in range(length)}
    terms = []
    for i, j in sorted(b for b in bonds if b[0] != b[1]):
        word = ["I"] * length
        word[i] = word[j] = "X"
        terms.append((-j1 / 2.0, "".join(word)))
    for i in range(length):
        word = ["I"] * length
        word[i] = "Z"
        terms.append((-h3 / 2.0, "".join(word)))
    return terms


def qubit_file_terms(path: Path) -> list[tuple[float, str]]:
    terms = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            coeff, word = line.split()
            terms.append((float(coeff), word))
    return terms


def exact_gap(terms) -> float:
    energies = np.linalg.eigvalsh(dense_hamiltonian(terms))
    return float(energies[1] - energies[0])


def coherence_rho(terms, word: str) -> float:
    """|<1|P|0>| between the two lowest eigenstates."""
    _, vectors = np.linalg.eigh(dense_hamiltonian(terms))
    return float(abs(vectors[:, 1].conj() @ dense_word(word) @ vectors[:, 0]))


@dataclass
class RepCheck:
    """Outcome of checking one repetition's outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # per checked point: (gap_fit, gap_err, gap_exact); gap_err is None for
    # oracle gaps, which carry no error bar
    gaps: list[tuple[float, float | None, float]] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def accuracy(self) -> dict[str, float]:
        """Accuracy of the checked gaps against the oracle. ``pull_median``
        covers fitted points only and is 0 when there are none."""
        gaps = self.gaps
        pulls = [abs(g - e) / s for g, s, e in gaps if s]
        return {
            "rel_err_max": max(abs(g - e) / e for g, _, e in gaps),
            "pull_median": statistics.median(pulls) if pulls else 0.0,
        }


class Checker:
    """Independent references for one workload, computed once per run
    (the references depend on the workload's inputs, not on the seed)."""

    def __init__(self, workload: Workload, root: Path):
        self.workload = workload
        if workload.kind == "oracle":
            self.search_terms = ising_chain_terms(SEARCH_CHAIN, 1.0, SEARCH_H3)
            self.oracle_gap = exact_gap(ising_chain_terms(ORACLE_CHAIN, 1.0, ORACLE_H3))
            return
        config_path = root / workload.config
        raw = yaml.safe_load(config_path.read_text())
        self.references: dict[str, float] = {}
        if raw["study"] == "ising":
            if raw.get("geometry", "chain") != "chain":
                raise ValueError("the oracle builds periodic chains only")
            j1 = float(raw.get("j1", 1.0))
            for ratio in raw["sweep"]:
                label = f"{float(ratio):g}"
                terms = ising_chain_terms(int(raw["length"]), j1, float(ratio) * j1)
                self.references[label] = exact_gap(terms)
        else:
            for item in raw["inputs"]:
                path = (config_path.parent / item["path"]).resolve()
                if item.get("format", "qubit") != "qubit":
                    raise ValueError("the oracle reads qubit-format files only")
                self.references[str(item["label"])] = exact_gap(qubit_file_terms(path))
        self.points = list(self.references)

    def check(self, rep_dir: Path, exit_codes: dict[str, int | None]) -> RepCheck:
        if self.workload.kind == "oracle":
            return self._check_oracle(rep_dir, exit_codes)
        return self._check_study(rep_dir / "study", exit_codes["study"])

    def _check_study(self, out: Path, exit_code: int | None) -> RepCheck:
        outcome = RepCheck(attempted=len(self.points))
        try:
            points = json.loads((out / "result.json").read_text())["points"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.failed = outcome.attempted
            outcome.problems.append(f"result.json unreadable (exit {exit_code}): {exc}")
            return outcome
        by_label = {p.get("label"): p for p in points if isinstance(p, dict)}
        explained = False
        for label, gap_ref in self.references.items():
            point = by_label.get(label)
            if point is None:
                outcome.fail(f"{label}: missing from result.json")
                continue
            if "fit_error" in point:
                explained = True
                outcome.fail(f"{label}: FitError {point['fit_error']}")
                continue
            problem = _study_point_problem(point, gap_ref)
            if problem:
                outcome.fail(f"{label}: {problem}")
                continue
            outcome.gaps.append((point["fit"]["gap"], point["fit"]["gap_err"], gap_ref))
        if exit_code != 0 and not explained:
            outcome.failed = outcome.attempted
            outcome.gaps.clear()
            outcome.problems.append(f"exit code {exit_code} with no failed point to explain it")
        return outcome

    def _check_oracle(self, rep_dir: Path, exit_codes: dict[str, int | None]) -> RepCheck:
        outcome = RepCheck(attempted=2)
        if exit_codes["search"] != 0:
            outcome.fail(f"search: exit code {exit_codes['search']}")
        else:
            problem = self._search_problem(rep_dir / "search" / "search.csv")
            if problem:
                outcome.fail(f"search: {problem}")
        if exit_codes["benchmark"] != 0:
            outcome.fail(f"benchmark: exit code {exit_codes['benchmark']}")
            return outcome
        try:
            gap = float(json.loads((rep_dir / "benchmark" / "result.json").read_text())["gap_exact"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(f"benchmark: result.json unreadable: {exc}")
            return outcome
        if not _agrees(gap, self.oracle_gap, GAP_TOL):
            outcome.fail(f"benchmark: gap_exact {gap!r} != oracle {self.oracle_gap!r}")
        else:
            outcome.gaps.append((gap, None, self.oracle_gap))
        return outcome

    def _search_problem(self, path: Path) -> str | None:
        try:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return f"search.csv unreadable: {exc}"
        if not rows or rows[0] != ["pauli_word", "rho", "theta"]:
            return "search.csv header is not pauli_word,rho,theta"
        body = rows[1:]
        if len(body) != 4**SEARCH_CHAIN:
            return f"search.csv has {len(body)} rows, expected {4**SEARCH_CHAIN}"
        try:
            word, rho = body[0][0], float(body[0][1])
            rhos = [float(r[1]) for r in body]
        except (IndexError, ValueError) as exc:
            return f"search.csv malformed: {exc}"
        if any(a < b for a, b in zip(rhos, rhos[1:])):
            return "search.csv is not sorted by descending rho"
        ref = coherence_rho(self.search_terms, word)
        if not _agrees(rho, ref, RHO_TOL):
            return f"top word {word} rho {rho!r} != oracle {ref!r}"
        return None


def _agrees(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol * max(1.0, abs(reference))


def _study_point_problem(point: dict, gap_ref: float) -> str | None:
    try:
        gap = float(point["fit"]["gap"])
        gap_err = float(point["fit"]["gap_err"])
        gap_exact = float(point["benchmark"]["gap_exact"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"missing field {exc}"
    if not (math.isfinite(gap) and math.isfinite(gap_err)):
        return f"non-finite gap {gap!r} +- {gap_err!r}"
    if not _agrees(gap_exact, gap_ref, GAP_TOL):
        return f"gap_exact {gap_exact!r} != oracle {gap_ref!r}"
    return None

