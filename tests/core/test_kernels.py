"""One candidate-scan implementation: what the kernel module still answers for.

Since 3.0 every engine scores candidates with the batched NumPy scan, and
``repro.core.kernels`` only names it.  This suite pins that contract:
``default_tier()`` names the NumPy scan (benchmark rows and facts lines read
it), the engine, the service registry and the selection stats take and carry
no tier, and nothing on the selection path looks for numba or reads the
``REPRO_KERNEL`` / ``NUMBA_DISABLE_JIT`` variables that 2.x consulted.
"""

import dataclasses
import sys

import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.kernels import default_tier
from repro.core.selection import RefinementSession, SelectionStats, get_selector
from repro.core.selection.engine import EntropyEngine
from repro.service.registry import SessionRegistry


def small_distribution():
    return JointDistribution(
        ("f0", "f1", "f2"), {0: 0.2, 1: 0.3, 3: 0.1, 6: 0.25, 7: 0.15}
    )


def select(distribution):
    session = RefinementSession(distribution, CrowdModel(0.8))
    return get_selector("greedy").select_with_session(session, 2)


class NumbaImportRecorder:
    """A meta-path finder that records every attempt to import numba."""

    def __init__(self):
        self.names = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numba":
            self.names.append(name)
        return None


def test_default_tier_names_the_numpy_scan():
    assert default_tier() == "numpy"


def test_engine_takes_no_kernel_keyword():
    with pytest.raises(TypeError):
        EntropyEngine(small_distribution(), CrowdModel(0.8), kernel="numpy")
    engine = EntropyEngine(small_distribution(), CrowdModel(0.8))
    assert not hasattr(engine, "kernel_tier")
    assert not hasattr(engine, "warmup_kernels")


def test_session_registry_takes_no_kernel_keyword():
    with pytest.raises(TypeError):
        SessionRegistry(kernel="numpy")


def test_selection_stats_carry_no_kernel():
    assert "kernel" not in {field.name for field in dataclasses.fields(SelectionStats)}
    assert not hasattr(select(small_distribution()).stats, "kernel")


def test_selection_never_imports_numba(monkeypatch):
    recorder = NumbaImportRecorder()
    monkeypatch.delitem(sys.modules, "numba", raising=False)
    monkeypatch.setattr(sys, "meta_path", [recorder] + sys.meta_path)
    assert select(small_distribution()).task_ids
    assert recorder.names == []


def test_retired_environment_variables_are_not_read(monkeypatch):
    expected = select(small_distribution())
    # 2.x refused to build an engine under an unknown REPRO_KERNEL value.
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
    result = select(small_distribution())
    assert result.task_ids == expected.task_ids
    assert result.objective == expected.objective
