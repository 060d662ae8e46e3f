"""Golden reports: all six configurations on two small seeded setups.

Each golden is the ``report.json`` written by ``run_pipeline``; the test
compares bytes, so any change to partitioning, fitting, selection or
simulation shows up here.  The pipeline runs from the repository root on
a relative circuit path, which keeps the report's ``circuit`` field
independent of where the repository is checked out.

A change that is meant to move results regenerates the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and says in its description
which numbers moved and why.
"""
import os
from pathlib import Path

import pytest

from peepopt.noise import NoiseModel
from peepopt.pipeline import RunConfig, run_pipeline

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (circuit relative to the repo root, k, seed)
SETUPS = {
    "xy_4_k2": ("benchmarks/xy_4.qasm", 2, 3),
    "qft_5_k3": ("benchmarks/qft_5.qasm", 3, 5),
}


def _report_bytes(name: str, out_dir: Path) -> bytes:
    circuit, k, seed = SETUPS[name]
    cfg = RunConfig(
        circuits=[circuit],
        k=k,
        noise=NoiseModel(p1=0.001, p2=0.01),
        c=4,
        seed=seed,
        max_iterations=40,
        expand_restarts=1,
        expand_max_iters=40,
        out_dir=str(out_dir),
    )
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        run_pipeline(cfg)
    finally:
        os.chdir(cwd)
    return (out_dir / "report.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert _report_bytes(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(SETUPS):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.json").write_bytes(_report_bytes(name, Path(tmp)))
        print(f"wrote {GOLDEN / name}.json")
