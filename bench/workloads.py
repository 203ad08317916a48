"""The benchmark's workloads: which CLI invocations make up one repetition.

Every workload drives the shipped studies through ``sgslab.cli.main``, the
path users take. A repetition runs each invocation once, in order, with
its own output directory; the workload seed sets the ``--seed`` of every
repetition that has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # the study's CLI command ("ising", "molecule"), or "oracle"
    config: str | None = None  # study config, relative to the checkout root

    def invocations(self, out_dir: Path, rep_seed: int) -> list[tuple[str, list[str]]]:
        """(label, argv) pairs of one repetition, outputs under ``out_dir``."""
        if self.kind != "oracle":
            return [(
                "study",
                [self.kind, "--config", self.config, "--out", str(out_dir / "study"),
                 "--seed", str(rep_seed), "--workers", "1"],
            )]
        return [
            ("search", ["search", "--chain", str(SEARCH_CHAIN), "--h3", repr(SEARCH_H3),
                        "--out", str(out_dir / "search")]),
            ("benchmark", ["benchmark", "--chain", str(ORACLE_CHAIN), "--h3", repr(ORACLE_H3),
                           "--out", str(out_dir / "benchmark")]),
        ]


SEARCH_CHAIN, SEARCH_H3 = 7, 5.0
ORACLE_CHAIN, ORACLE_H3 = 10, 7.257

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ising_sweep",
            "4-qubit chain, 5 noiseless points: per-gate Python overhead, window pilot "
            "and grid search dominate; carries the fit and grid-search layers",
            "ising", "configs/ising_1d.yaml",
        ),
        Workload(
            "molecule_he2",
            "8 qubits, 69 terms, 1 point: statevector evolution is ~86% of the time; "
            "carries the circuit kernel",
            "molecule", "configs/he2.yaml",
        ),
        Workload(
            "noisy_aria",
            "3 points under the Aria noise model, incl. the h3/J1=7.257 point whose fit is "
            "15-25% off: carries noise_engine, memory and readout flips",
            "ising", "configs/ising_1d_aria.yaml",
        ),
        Workload(
            "oracle_search",
            "search over 4^7 Pauli words plus a 10-qubit dense benchmark: never touches "
            "circuit_engine, uses apply_pauli word by word and column by column",
            "oracle",
        ),
    )
}


def rep_seed(workload_seed: int, rep: int) -> int:
    """The ``--seed`` of repetition ``rep``: distinct per repetition, fixed by
    the workload seed, so accuracy figures average over shot noise."""
    return workload_seed * 1000 + rep
