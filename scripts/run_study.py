#!/usr/bin/env python3
"""Run a shipped study: ``python3 scripts/run_study.py <config-name> [flags]``.

Reads ``configs/<config-name>.yaml``, runs the subcommand named by its
``study:`` field, and writes the results to ``out/<config-name>/``. Extra
flags pass through to the CLI, e.g. ``--shots 4096`` or ``--workers 2``.
The exit code is the CLI's: 0 ok, 1 when a point's fit failed, 2 on an
input error.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from sgslab.cli import ConfigError, load_config, main  # noqa: E402

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        names = " ".join(sorted(p.stem for p in (REPO / "configs").glob("*.yaml")))
        print(f"usage: run_study.py <config-name> [flags]; shipped: {names}", file=sys.stderr)
        sys.exit(2)
    name = sys.argv[1]
    config = REPO / "configs" / f"{name}.yaml"
    try:
        study = load_config(config).study
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main([
        study, "--config", str(config), "--out", str(REPO / "out" / name), *sys.argv[2:],
    ]))
