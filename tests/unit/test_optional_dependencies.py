"""``import repro`` needs numpy alone: scipy and networkx are unused.

The chi-square p-value is computed from ``math.lgamma``; Kendall's tau is
numpy and correlation clustering is a union-find.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

BLOCKED = """
import sys
sys.modules["scipy"] = None
sys.modules["networkx"] = None
import pkgutil
import importlib
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
print("ok")
"""


def test_every_module_imports_without_scipy_or_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", BLOCKED],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


def test_kendall_tau_needs_no_scipy(monkeypatch):
    from repro.sampling.accuracy import kendall_tau

    monkeypatch.setitem(sys.modules, "scipy", None)
    assert kendall_tau({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 3.0}) == 1.0


def test_view_significance_needs_no_scipy(monkeypatch):
    import numpy as np

    from repro.metrics import view_significance
    from repro.model.view import ScoredView, ViewSpec

    monkeypatch.setitem(sys.modules, "scipy", None)
    view = ScoredView(
        spec=ViewSpec("d", None, "count"),
        utility=0.0,
        groups=["a", "b", "c"],
        target_distribution=np.array([0.5, 0.3, 0.2]),
        comparison_distribution=np.array([0.4, 0.4, 0.2]),
        target_values=np.array([50.0, 30.0, 20.0]),
        comparison_values=np.array([40.0, 40.0, 20.0]),
    )
    p_value = view_significance(view).p_value
    assert isinstance(p_value, float) and 0.0 <= p_value <= 1.0
