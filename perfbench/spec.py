"""The workload parameters in workloads.json, shared by run.py and workload.py.

Kept free of NumPy and peepopt so that run.py can read them without
importing the library it benchmarks.
"""
from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())


def workload_params(name: str, reduced: bool) -> dict:
    """The parameters of workload ``name``; ``reduced`` overlays its tiny copy."""
    spec = SPEC["workloads"][name]
    return {**spec["params"], **spec["reduced"]} if reduced else dict(spec["params"])
