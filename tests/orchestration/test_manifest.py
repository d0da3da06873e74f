"""Run-manifest refusal: resuming a different sweep names what differs.

``check_manifest`` refuses to resume a run directory whose manifest does not
equal the sweep's fingerprint.  The refusal must say which fingerprint keys
differ — a changed setting, a key that an older release recorded and the
current fingerprint no longer carries, or one it did not record yet — so a
user can tell why.  An equal manifest resumes.  The fingerprint holds what
determines the trajectories, not how they are computed: no scan tier, no
worker counts.
"""

import dataclasses
import os
import re

import pytest

from repro.core.runtime import RuntimeOptions
from repro.evaluation.experiment import ExperimentConfig
from repro.exceptions import OrchestrationError
from repro.orchestration.journal import atomic_write_json, read_json
from repro.orchestration.orchestrator import (
    MANIFEST_NAME,
    _fingerprint,
    check_manifest,
)

CONFIG = ExperimentConfig(selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11)


def fingerprint(config=CONFIG):
    return _fingerprint([], config, {})


@pytest.mark.parametrize(
    "manifest, differing",
    [
        (fingerprint(dataclasses.replace(CONFIG, seed=12)), "seed"),
        ({**fingerprint(), "kernel": "auto"}, "kernel"),
        (
            {key: value for key, value in fingerprint().items() if key != "recalibrate"},
            "recalibrate",
        ),
    ],
    ids=["changed-setting", "retired-key", "new-key"],
)
def test_resume_refusal_names_the_differing_keys(tmp_path, manifest, differing):
    atomic_write_json(os.path.join(tmp_path, MANIFEST_NAME), manifest)
    with pytest.raises(OrchestrationError, match=re.escape(f"differs in: {differing})")):
        check_manifest(str(tmp_path), fingerprint(), resume=True)


def test_resume_refusal_lists_every_differing_key_sorted(tmp_path):
    manifest = {**fingerprint(dataclasses.replace(CONFIG, seed=12, k=2)), "kernel": "auto"}
    atomic_write_json(os.path.join(tmp_path, MANIFEST_NAME), manifest)
    with pytest.raises(OrchestrationError, match=re.escape("differs in: k, kernel, seed)")):
        check_manifest(str(tmp_path), fingerprint(), resume=True)


def test_equal_manifest_resumes(tmp_path):
    check_manifest(str(tmp_path), fingerprint(), resume=False)
    assert read_json(os.path.join(tmp_path, MANIFEST_NAME)) == fingerprint()
    check_manifest(str(tmp_path), fingerprint(), resume=True)
    assert read_json(os.path.join(tmp_path, MANIFEST_NAME)) == fingerprint()


def test_fingerprint_ignores_how_the_sweep_is_computed():
    pooled = dataclasses.replace(
        CONFIG, runtime=RuntimeOptions(workers=2, parallel_threshold=0)
    )
    assert "kernel" not in fingerprint()
    assert fingerprint(pooled) == fingerprint()
