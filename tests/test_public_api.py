"""Sanity checks on the package's public API surface."""

import repro
from repro import core, correlation, crowdsim, datasets, evaluation, fusion


class TestTopLevelExports:
    def test_version_string(self):
        assert repro.__version__ == "6.1.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_classes_exported(self):
        assert repro.CrowdModel(0.8).accuracy == 0.8
        assert callable(repro.merge_answers)
        assert callable(repro.get_selector)
        assert "greedy" in repro.available_selectors()


class TestSubpackageExports:
    def test_core_all_resolves(self):
        for name in core.__all__:
            assert hasattr(core, name), name

    def test_fusion_all_resolves(self):
        for name in fusion.__all__:
            assert hasattr(fusion, name), name

    def test_crowdsim_all_resolves(self):
        for name in crowdsim.__all__:
            assert hasattr(crowdsim, name), name

    def test_datasets_all_resolves(self):
        for name in datasets.__all__:
            assert hasattr(datasets, name), name

    def test_correlation_all_resolves(self):
        for name in correlation.__all__:
            assert hasattr(correlation, name), name

    def test_evaluation_all_resolves(self):
        for name in evaluation.__all__:
            assert hasattr(evaluation, name), name

    def test_selector_registry_matches_paper_labels(self):
        from repro.core.selection.registry import _ALIASES

        assert set(_ALIASES) == {
            "OPT",
            "Approx.",
            "Approx.&Prune",
            "Approx.&Pre.",
            "Approx.&Prune&Pre.",
            "Random",
        }
