"""Unit tests for JointDistribution."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.bitplanes import unpack_planes
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution, entropy_of
from repro.core.merging import merge_answers
from repro.core.selection import GreedySelector, RefinementSession
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.exceptions import InvalidDistributionError, InvalidFactError


def two_fact_distribution():
    """P(f1,f2) with a known correlation structure."""
    return JointDistribution.from_assignments(
        ("f1", "f2"),
        {
            (False, False): 0.4,
            (False, True): 0.1,
            (True, False): 0.1,
            (True, True): 0.4,
        },
    )


class TestConstruction:
    def test_normalises_by_default(self):
        dist = JointDistribution(("a",), {0: 2.0, 1: 6.0})
        assert dist.probability(0) == pytest.approx(0.25)
        assert dist.probability(1) == pytest.approx(0.75)

    def test_unnormalised_rejected_when_normalise_false(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: 0.3, 1: 0.3}, normalise=False)

    def test_normalised_accepted_when_normalise_false(self):
        dist = JointDistribution(("a",), {0: 0.3, 1: 0.7}, normalise=False)
        assert dist.probability(1) == pytest.approx(0.7)

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: -0.1, 1: 1.1})

    def test_nan_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: float("nan"), 1: 1.0})

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {})

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: 0.0, 1: 0.0})

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {2: 1.0})

    def test_duplicate_fact_ids_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a", "a"), {0: 1.0})

    def test_no_facts_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution((), {0: 1.0})

    def test_from_assignments_tuple_keys(self):
        dist = two_fact_distribution()
        assert dist.probability((True, True)) == pytest.approx(0.4)

    def test_from_assignments_wrong_length_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.from_assignments(("a", "b"), {(True,): 1.0})

    def test_independent_product(self):
        dist = JointDistribution.independent({"a": 0.5, "b": 0.2})
        assert dist.probability((True, True)) == pytest.approx(0.1)
        assert dist.probability((False, False)) == pytest.approx(0.4)
        assert dist.support_size == 4

    def test_independent_degenerate_marginal(self):
        dist = JointDistribution.independent({"a": 1.0, "b": 0.5})
        assert dist.marginal("a") == pytest.approx(1.0)
        assert dist.support_size == 2

    def test_independent_invalid_marginal(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.independent({"a": 1.2})

    def test_independent_missing_marginal_for_fact_order(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.independent({"a": 0.2}, fact_ids=("a", "b"))

    def test_uniform(self):
        dist = JointDistribution.uniform(("a", "b", "c"))
        assert dist.support_size == 8
        assert dist.entropy() == pytest.approx(3.0)

    def test_uniform_refuses_huge_fact_sets(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.uniform(tuple(f"f{i}" for i in range(25)))


class TestQuantities:
    def test_entropy_of_helper(self):
        assert entropy_of([0.5, 0.5]) == pytest.approx(1.0)
        assert entropy_of([1.0]) == pytest.approx(0.0)
        assert entropy_of([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_entropy_matches_manual_computation(self):
        dist = two_fact_distribution()
        expected = -(0.4 * math.log2(0.4) * 2 + 0.1 * math.log2(0.1) * 2)
        assert dist.entropy() == pytest.approx(expected)

    def test_marginals(self):
        dist = two_fact_distribution()
        assert dist.marginal("f1") == pytest.approx(0.5)
        assert dist.marginal("f2") == pytest.approx(0.5)
        assert dist.marginals() == pytest.approx({"f1": 0.5, "f2": 0.5})

    def test_marginal_unknown_fact(self):
        with pytest.raises(InvalidFactError):
            two_fact_distribution().marginal("zzz")

    def test_marginalize_reduces_facts(self):
        dist = two_fact_distribution()
        reduced = dist.marginalize(["f1"])
        assert reduced.fact_ids == ("f1",)
        assert reduced.probability((True,)) == pytest.approx(0.5)

    def test_marginalize_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            two_fact_distribution().marginalize([])

    def test_marginalize_entropy_never_increases(self):
        dist = two_fact_distribution()
        assert dist.marginalize(["f1"]).entropy() <= dist.entropy() + 1e-12

    def test_condition_on_evidence(self):
        dist = two_fact_distribution()
        conditioned = dist.condition({"f1": True})
        assert conditioned.marginal("f1") == pytest.approx(1.0)
        assert conditioned.marginal("f2") == pytest.approx(0.8)

    def test_condition_zero_probability_evidence(self):
        dist = JointDistribution.from_assignments(
            ("a", "b"), {(True, True): 0.5, (False, False): 0.5}
        )
        with pytest.raises(InvalidDistributionError):
            dist.condition({"a": True, "b": False})

    def test_condition_empty_evidence_is_copy(self):
        dist = two_fact_distribution()
        assert dist.condition({}).allclose(dist)

    def test_reweight(self):
        dist = JointDistribution(("a",), {0: 0.5, 1: 0.5})
        updated = dist.reweight({1: 3.0})
        assert updated.probability(1) == pytest.approx(0.75)

    def test_reweight_missing_masks_default_to_one(self):
        dist = JointDistribution(("a",), {0: 0.5, 1: 0.5})
        assert dist.reweight({}).allclose(dist)


class TestDecisions:
    def test_map_assignment(self):
        dist = two_fact_distribution()
        best = dist.map_assignment()
        assert best.to_bools() in [(False, False), (True, True)]

    def test_predicted_labels_threshold(self):
        dist = JointDistribution.independent({"a": 0.7, "b": 0.3})
        labels = dist.predicted_labels()
        assert labels == {"a": True, "b": False}

    def test_predicted_labels_tie_goes_false(self):
        dist = JointDistribution.independent({"a": 0.5})
        assert dist.predicted_labels() == {"a": False}

    def test_predicted_labels_custom_threshold(self):
        dist = JointDistribution.independent({"a": 0.6})
        assert dist.predicted_labels(threshold=0.7) == {"a": False}


class TestUtilityMethods:
    def test_copy_is_independent_and_equal(self):
        dist = two_fact_distribution()
        other = dist.copy()
        assert other is not dist
        assert other.allclose(dist)

    def test_allclose_detects_difference(self):
        a = JointDistribution.independent({"x": 0.5})
        b = JointDistribution.independent({"x": 0.6})
        assert not a.allclose(b)

    def test_allclose_requires_same_fact_order(self):
        a = JointDistribution.independent({"x": 0.5, "y": 0.5})
        b = JointDistribution.independent({"y": 0.5, "x": 0.5})
        assert not a.allclose(b)

    def test_assignments_iterates_support(self):
        dist = two_fact_distribution()
        pairs = list(dist.assignments())
        assert len(pairs) == dist.support_size
        assert sum(probability for _, probability in pairs) == pytest.approx(1.0)

    def test_repr_contains_summary(self):
        text = repr(two_fact_distribution())
        assert "facts=2" in text
        assert "support=4" in text

    def test_positions(self):
        dist = two_fact_distribution()
        assert dist.positions(("f2", "f1")) == (1, 0)

    def test_as_dict_is_a_copy(self):
        dist = two_fact_distribution()
        mapping = dist.as_dict()
        mapping.clear()
        assert dist.support_size == 4


class TestArrayPathChoice:
    """A small distribution stays on its dict loops even once its support
    arrays are cached, so reading it never changes its floats."""

    @staticmethod
    def small_priors(count=40, seed=7):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            num_facts = int(rng.integers(2, 5))
            fact_ids = tuple(f"f{i}" for i in range(num_facts))
            masses = rng.uniform(0.01, 1.0, size=1 << num_facts)
            yield JointDistribution(fact_ids, dict(enumerate(masses.tolist())))

    def test_session_leaves_small_prior_floats_unchanged(self):
        for prior in self.small_priors():
            entropy, marginals = prior.entropy(), prior.marginals()
            RefinementSession(prior, CrowdModel(0.8)).close()
            assert prior.entropy() == entropy
            assert prior.marginals() == marginals

    def test_small_posterior_reads_like_its_dict(self):
        for prior in self.small_priors(count=10, seed=8):
            session = RefinementSession(prior, CrowdModel(0.8))
            session.merge(AnswerSet.from_mapping({prior.fact_ids[0]: True}))
            posterior = session.distribution
            rebuilt = JointDistribution(
                prior.fact_ids, posterior.as_dict(), normalise=False
            )
            assert posterior.entropy() == rebuilt.entropy()
            assert posterior.marginals() == rebuilt.marginals()
            session.close()


class TestWideFactSets:
    """Distributions past 63 facts: masks exceed int64, so the array fast
    path runs on packed uint64 bit planes, with the dict path's results."""

    @staticmethod
    def wide_distribution(num_facts=70, support=40, seed=1):
        import random

        rng = random.Random(seed)
        fact_ids = tuple(f"f{i}" for i in range(num_facts))
        masks = list({rng.getrandbits(num_facts) for _ in range(support)})
        # Force at least one mask past the int64 range.
        masks[0] |= 1 << (num_facts - 1)
        probs = {mask: rng.uniform(0.1, 1.0) for mask in masks}
        return JointDistribution(fact_ids, probs)

    def test_support_arrays_are_planes(self):
        dist = self.wide_distribution()
        masks, probabilities = dist.support_arrays()
        assert masks.dtype == np.uint64
        assert masks.shape == (dist.support_size, 2)
        assert not masks.flags.writeable and not probabilities.flags.writeable
        assert probabilities.tolist() == [p for _, p in dist.items()]

    def test_entropy_and_marginals(self):
        dist = self.wide_distribution()
        entropy = dist.entropy()
        assert 0.0 < entropy <= dist.num_facts
        assert entropy == pytest.approx(entropy_of(p for _, p in dist.items()))
        marginals = dist.marginals()
        for position, fact_id in enumerate(dist.fact_ids):
            expected = sum(p for mask, p in dist.items() if mask >> position & 1)
            assert marginals[fact_id] == pytest.approx(expected)
        assert dist.marginal("f69") == marginals["f69"]

    def test_marginalize_and_condition(self):
        dist = self.wide_distribution()
        sub = dist.marginalize(["f0", "f69"])
        assert sub.num_facts == 2
        conditioned = dist.condition({"f69": True, "f3": False})
        expected = {
            mask: p
            for mask, p in dist.items()
            if mask >> 69 & 1 and not mask >> 3 & 1
        }
        assert set(conditioned.support()) == set(expected)
        assert conditioned.marginal("f69") == pytest.approx(1.0)

    def test_from_support_arrays_adopts_either_layout(self):
        from repro.core.bitplanes import pack_masks

        dist = self.wide_distribution()
        keys = list(dist.support())
        masses = np.array([p for _, p in dist.items()])
        masses[1] = 0.0
        for masks in (pack_masks(keys, dist.num_facts), np.array(keys, dtype=object)):
            rebuilt = JointDistribution.from_support_arrays(
                dist.fact_ids, masks, masses
            )
            planes, probabilities = rebuilt.support_arrays()
            assert planes.dtype == np.uint64 and planes.flags.c_contiguous
            assert rebuilt.support() == tuple(keys[:1] + keys[2:])
            assert probabilities.sum() == pytest.approx(1.0)

    def test_selection_and_merging_still_work(self):
        from repro.core.answers import AnswerSet
        from repro.core.crowd import CrowdModel
        from repro.core.merging import merge_answers
        from repro.core.selection import GreedySelector, LazyGreedySelector

        dist = self.wide_distribution()
        crowd = CrowdModel(0.8)
        plain = GreedySelector().select(dist, crowd, 2)
        lazy = LazyGreedySelector().select(dist, crowd, 2)
        assert len(plain.task_ids) == 2
        assert lazy.task_ids == plain.task_ids
        answers = AnswerSet.from_mapping({plain.task_ids[0]: True})
        posterior = merge_answers(dist, answers, crowd)
        assert posterior.support_size <= dist.support_size


def eager_dict(masks, masses):
    """The ``mask -> probability`` dict 5.2's ``from_support_arrays`` built.

    Zero masses filtered out, the rest normalised by their sum, keys in row
    order: the expression 5.2 evaluated on every array-built distribution.
    """
    masses = np.asarray(masses, dtype=np.float64)
    keep = masses > 0.0
    masks, masses = masks[keep], masses[keep]
    masses = masses / masses.sum()
    keys = unpack_planes(masks) if masks.ndim == 2 else masks.tolist()
    return dict(zip(keys, masses.tolist()))


def exact(value):
    """``value`` with every float as its hex form, so ``==`` compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def support_case(num_facts, rows, seed):
    """``(fact_ids, masks, masses)`` with unique masks and a few zero masses.

    Up to 63 facts the masks are an ``int64`` column, beyond that packed
    uint64 bit planes; both are the layouts ``from_support_arrays`` keeps.
    """
    rng = np.random.default_rng(seed)
    if num_facts <= 63:
        masks = rng.choice(1 << num_facts, size=rows, replace=False).astype(np.int64)
    else:
        masks = rng.integers(0, 1 << 64, size=(rows, 2), dtype=np.uint64)
        masks[:, 1] &= np.uint64((1 << (num_facts - 64)) - 1)
        assert np.unique(masks, axis=0).shape[0] == rows
    masses = rng.uniform(0.05, 1.0, size=rows)
    masses[[1, rows // 2]] = 0.0
    return tuple(f"f{i}" for i in range(num_facts)), masks, masses


#: Array-built supports: above and below the array path's 32-row threshold,
#: on both mask layouts (rows counted before two zero masses are dropped).
SUPPORT_CASES = {
    "int64-48rows": (10, 48, 1),
    "int64-12rows": (5, 12, 2),
    "planes-48rows": (70, 48, 3),
    "planes-12rows": (70, 12, 4),
}

#: Every read that goes through the ``mask -> probability`` dict, whatever the
#: support size, as a function of the distribution and its support keys.
DICT_READS = {
    "items": lambda dist, keys: list(dist.items()),
    "support": lambda dist, keys: dist.support(),
    "as_dict": lambda dist, keys: dist.as_dict(),
    "probability": lambda dist, keys: [dist.probability(key) for key in keys]
    + [dist.probability(max(keys) + 1)],
    "assignments": lambda dist, keys: [
        (assignment.mask, assignment.width, probability)
        for assignment, probability in dist.assignments()
    ],
    "map_assignment": lambda dist, keys: dist.map_assignment().mask,
    "copy": lambda dist, keys: dist.copy().as_dict(),
    "allclose": lambda dist, keys: dist.allclose(
        JointDistribution(
            dist.fact_ids,
            dict(zip(keys, dist.support_arrays()[1].tolist())),
            normalise=False,
        ),
        tolerance=0.0,
    ),
    "reweight": lambda dist, keys: dist.reweight({keys[0]: 3.0, keys[-1]: 0.5}).as_dict(),
    # Past 24 kept facts marginalisation takes the dict path at any size.
    "marginalize-30": lambda dist, keys: dist.marginalize(dist.fact_ids[:30]).as_dict(),
}

#: Reads that take the dict path below 32 rows and the array path above.
SMALL_DICT_READS = {
    "entropy": lambda dist, keys: dist.entropy(),
    "marginal": lambda dist, keys: dist.marginal(dist.fact_ids[-1]),
    "marginals": lambda dist, keys: dist.marginals(),
    "marginalize": lambda dist, keys: dist.marginalize(dist.fact_ids[:3]).as_dict(),
    "condition": lambda dist, keys: dist.condition(
        {dist.fact_ids[0]: bool(keys[0] & 1)}
    ).as_dict(),
}

#: ``(case, read)`` pairs: every dict read on every support, and the
#: size-dependent reads on the supports their facts fit.
LAZY_READS = [
    (case, read)
    for case in sorted(SUPPORT_CASES)
    for read in sorted(DICT_READS) + sorted(SMALL_DICT_READS)
    if read != "marginalize-30" or SUPPORT_CASES[case][0] >= 30
]


class TestLazyDict:
    """An array-built distribution holds no ``mask -> probability`` dict until
    a dict read, and that read builds 5.2's eager dict: same keys, same
    order, same float bits."""

    @staticmethod
    def build(case):
        fact_ids, masks, masses = support_case(*SUPPORT_CASES[case])
        dist = JointDistribution.from_support_arrays(fact_ids, masks, masses)
        return dist, eager_dict(masks, masses)

    @pytest.mark.parametrize("case, read", LAZY_READS)
    def test_dict_reads_match_the_eager_dict(self, case, read):
        reader = DICT_READS.get(read) or SMALL_DICT_READS[read]
        dist, eager = self.build(case)
        keys = list(eager)
        # The reference holds the eager dict itself (normalise=False copies
        # every mass as is), so its dict paths read exactly what 5.2 read.
        reference = JointDistribution(dist.fact_ids, eager, normalise=False)
        assert exact(reference.as_dict()) == exact(eager)
        assert dist._probs is None
        assert exact(reader(dist, keys)) == exact(reader(reference, keys))
        dict_read = read in DICT_READS or dist.support_size < 32
        assert (dist._probs is not None) == dict_read
        if dict_read:
            assert exact(dist._probs) == exact(eager)

    @pytest.mark.parametrize("case", ["int64-48rows", "planes-48rows"])
    def test_array_reads_build_no_dict(self, case):
        dist, eager = self.build(case)
        assert dist.support_size == len(eager) >= 32
        masks, probabilities = dist.support_arrays()
        assert probabilities.tolist() == list(eager.values())
        dist.entropy()
        dist.marginal(dist.fact_ids[0])
        dist.predicted_labels()
        sub = dist.marginalize(dist.fact_ids[:4])
        conditioned = dist.condition({dist.fact_ids[0]: bool(next(iter(eager)) & 1)})
        crowd = CrowdModel(0.8)
        posterior = merge_answers(dist, AnswerSet.from_mapping({dist.fact_ids[1]: True}), crowd)
        reweighted = dist.reweight_array(np.full(dist.support_size, 2.0))
        assert f"support={len(eager)}," in repr(dist)
        assert dist._probs is None
        assert posterior._probs is None and reweighted._probs is None
        # Results built from dicts keep their dicts, as before.
        assert sub._probs is not None and conditioned._probs is not None

    def test_large_array_paths_allocate_no_dict(self):
        def run(rows, seed):
            dist = generate_scale_distribution(
                ScaleCorpusConfig(num_facts=48, support_size=rows, seed=seed)
            )
            assert dist.support_size == rows
            dist.support_arrays()
            dist.entropy()
            dist.marginals()
            repr(dist)
            session = RefinementSession(dist, CrowdModel(0.8))
            result = GreedySelector().select_with_session(session, 3)
            session.merge(
                AnswerSet.from_mapping(
                    {task: position % 2 == 0 for position, task in enumerate(result.task_ids)}
                )
            )
            session.utility()
            assert session.distribution.support_size == rows
            return dist, session

        def python_bytes():
            # Domain 0 holds Python objects; NumPy traces array buffers in a
            # domain of its own.
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(inclusive=True, domain=0)]
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        run(1 << 12, 1)[1].close()  # first-call caches stay out of the count
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            objects_before = python_bytes()
            total_before = tracemalloc.get_traced_memory()[0]
            dist, session = run(1 << 16, 11)
            retained = tracemalloc.get_traced_memory()[0] - total_before
            objects = python_bytes() - objects_before
            masks, probabilities = dist.support_arrays()
            array_bytes = masks.nbytes + probabilities.nbytes
            dict_before = python_bytes()
            items = list(dist.items())
            dict_objects = python_bytes() - dict_before
        finally:
            if started:
                tracemalloc.stop()
            session.close()
        # The engine and the materialised posterior hold a few
        # support-sized arrays; the eager dicts held ~12x the arrays' bytes
        # of Python objects on top.
        assert retained < 4 * array_bytes
        assert objects < array_bytes / 8
        # The measurement sees a dict: the first dict read builds one.
        assert dict_objects > 4 * array_bytes
        assert exact(items) == exact(list(eager_dict(masks, probabilities).items()))
